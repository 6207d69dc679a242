"""Classifying operator pairs: ordinary and supersingular land apart.

Two semilinear operator pairs (F, V) on a 2-dimensional space over F_2,
with image(V) = kernel(F) and image(F) = kernel(V):

  ordinary       F = [[1,0],[0,0]],  V = [[0,0],[0,1]]
  supersingular  F = [[0,1],[0,0]],  V = [[0,1],[0,0]]

Both induce weight-{0,1} data with one-dimensional graded pieces, so the
ambient poset has exactly two strata.  Classification pins the ordinary
pair to the open stratum and the supersingular pair to the closed one,
and the labels survive translation by random symmetry-group elements
over extension fields, each a product of random generators of the group.
"""

import random

from zipstrata.coxeter import word_string
from zipstrata.ffield import get_field, mat_identity, mat_inv, mat_mul
from zipstrata.fzip import (
    attached_group_element,
    classify,
    dieudonne_to_fzip,
    enumerate_strata,
    fzip_from_group_element,
    fzip_type,
)
from zipstrata.grouplab import make_zip_datum, zip_generators

pairs = {
    "ordinary": (((1, 0), (0, 0)), ((0, 0), (0, 1))),
    "supersingular": (((0, 1), (0, 0)), ((0, 1), (0, 0))),
}

base = get_field(2, 1)
datum = make_zip_datum(2, base, ())
gens = {s: zip_generators(datum, s) for s in (1, 2, 3)}
rng = random.Random(7)

for name, (F_mat, V_mat) in pairs.items():
    z = dieudonne_to_fzip(F_mat, V_mat)
    label = classify(z)
    poset = enumerate_strata(fzip_type(z))
    top = max(poset.length_of)
    position = "open" if label.w.length == top else "closed"
    print(f"{name}: label {word_string(label.w)!r}, length {label.w.length}"
          f" -> {position} stratum of {len(poset.carrier)}")

    g = attached_group_element(z)
    stable = 0
    for _ in range(25):
        s = rng.choice((1, 2, 3))
        ff = get_field(2, s)
        pp = pmat = mat_identity(2)
        for _ in range(8):
            gp, gq = rng.choice(gens[s])
            pp, pmat = mat_mul(ff, pp, gp), mat_mul(ff, pmat, gq)
        embed = ff.embedding_from(base)
        ge = tuple(tuple(embed[v] for v in row) for row in g)
        moved = mat_mul(ff, mat_mul(ff, pp, ge), mat_inv(ff, pmat))
        translated = fzip_from_group_element(fzip_type(z), moved, p=2, ext_deg=s)
        if classify(translated).w == label.w:
            stable += 1
    print(f"  label unchanged under {stable}/25 random translates over F_2, F_4, F_8")
