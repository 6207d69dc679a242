"""Exhaustive finite-field checks for the group-level zip machinery.

Ground truth throughout is brute force: full orbit censuses over small fields,
closed-form stratum point counts compared against the census totals and
against the bottom-up count along the layer chain (kept here as the oracle),
and Lang witnesses re-verified by hand.
"""

import ast
import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import textwrap
from itertools import accumulate, chain, combinations, permutations, product
from pathlib import Path

import pytest

import zipstrata

from zipstrata import grouplab
from zipstrata.coxeter import (
    InvariantError,
    create_weyl,
    element_from_word,
    longest_element,
    min_coset_reps,
    min_double_coset_rep,
)
from zipstrata.ffield import (
    _leading_block_ranks,
    get_field,
    gl_order,
    mat_identity,
    mat_inv,
    mat_is_invertible,
    mat_mul,
    mat_rank,
    prime_power,
)
from zipstrata.grouplab import (
    _double_coset_min,
    _zip_moves,
    Gl2Counterexample,
    TooLarge,
    ZipDatumGroupLevel,
    bruhat_cell,
    counterexample_gl2,
    gl_points,
    lang_preimage,
    lang_preimage_table,
    levi_of_blocks,
    make_zip_datum,
    parabolic_points,
    reduce_datum,
    stabilizer,
    stratum_point_count,
    stratum_point_counts,
    stratum_point_polynomial,
    stratum_rep,
    zip_generators,
    zip_group_order,
    zip_orbit_census,
    zip_orbit_search,
)
from zipstrata.orbits import _compile_moves, _flat
from zipstrata.zipdatum import stratum_dimension, stratum_poset

from oracles import coset_forms_by_prefix, layer_zip_order, zip_generators_per_root, zip_group_points

F2 = get_field(2, 1)
F3 = get_field(3, 1)
F4 = get_field(2, 2)


def matrix_of(w):
    """The permutation matrix of a Weyl element, columns sent to rows."""
    n = len(w.window)
    return tuple(
        tuple(1 if w.window[j] == i + 1 else 0 for j in range(n)) for i in range(n)
    )


def stratum_rep_matrix(datum, w):
    return matrix_of(w * datum.shadow().theta0)


def transpose(m):
    return tuple(tuple(row[j] for row in m) for j in range(len(m)))


def mat_power(field, g, k):
    h = mat_identity(len(g))
    for _ in range(k):
        h = mat_mul(field, h, g)
    return h


def mat_order(field, g):
    one = mat_identity(len(g))
    h, k = g, 1
    while h != one:
        h = mat_mul(field, h, g)
        k += 1
    return k


def embed_matrix(big, small, m):
    table = big.embedding_from(small)
    return tuple(tuple(table[v] for v in row) for row in m)


def frobenius_matrix(field, m, k=1):
    return tuple(tuple(field.frobenius(v, k) for v in row) for row in m)


# ---------------------------------------------------------------------------
# point enumeration
# ---------------------------------------------------------------------------



def test_levi_of_blocks_is_inverted_by_the_levi_classes():
    import itertools

    for n in range(1, 7):
        for cuts in itertools.product((0, 1), repeat=n - 1):
            ends = [i for i, c in enumerate(cuts, start=1) if c] + [n]
            blocks = [b - a for a, b in zip([0] + ends, ends)]
            classes = grouplab._levi_classes(n, levi_of_blocks(blocks))
            assert [len(c) for c in classes] == blocks
    assert sorted(levi_of_blocks([1, 20, 1])) == list(range(2, 21))


def test_gl_points_exhaust_the_group_of_the_right_order():
    for n, field in ((2, F2), (2, F4), (3, F2)):
        pts = gl_points(n, field)
        assert len(pts) == gl_order(n, field.order)
        assert len(set(pts)) == len(pts)


def test_gl_points_refuses_oversized_enumerations():
    with pytest.raises(TooLarge):
        gl_points(4, get_field(2, 3))


def test_parabolic_points_have_the_block_shape_and_product_order():
    upper = parabolic_points(3, F2, ())
    assert len(upper) == 8
    assert all(m[1][0] == 0 and m[2][0] == 0 and m[2][1] == 0 for m in upper)
    lower = parabolic_points(3, F2, (1,), lower=True)
    assert len(lower) == gl_order(2, 2) * gl_order(1, 2) * 2**2
    assert all(m[0][2] == 0 and m[1][2] == 0 for m in lower)
    assert set(lower) == {transpose(m) for m in parabolic_points(3, F2, (1,))}


def test_zip_group_pairs_couple_the_levi_parts_through_frobenius():
    d = make_zip_datum(3, F2, (1,))
    pairs = zip_group_points(d)
    assert len(pairs) == 2**2 * gl_order(2, 2) * gl_order(1, 2) * 2**2
    for p_prime, p in pairs:
        assert p_prime[0][2] == 0 and p_prime[1][2] == 0
        assert p[2][0] == 0 and p[2][1] == 0
        for i in range(2):
            for j in range(2):
                assert p[i][j] == F2.frobenius(p_prime[i][j], 1)


def test_zip_group_points_refuses_oversized_enumerations():
    with pytest.raises(TooLarge):
        zip_group_points(make_zip_datum(4, F4, ()))


# ---------------------------------------------------------------------------
# datum validation
# ---------------------------------------------------------------------------


def test_the_datum_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        ZipDatumGroupLevel(1, F2, ())
    with pytest.raises(ValueError):
        make_zip_datum(3, F2, (3,))
    with pytest.raises(ValueError):
        make_zip_datum(2, F2, (), frob_power=-1)


def test_make_zip_datum_mirrors_the_levi_set():
    d = make_zip_datum(4, F2, (1, 3))
    assert sorted(d.J.indices) == [1, 3]
    d = make_zip_datum(4, F2, (1,))
    assert sorted(d.J.indices) == [3]
    assert d.shadow().J == d.J


def test_the_datum_is_its_size_field_levi_set_and_twist():
    assert [f.name for f in dataclasses.fields(ZipDatumGroupLevel)] == ["n", "field", "I", "frob_power"]
    for field in (F2, F4):
        d = make_zip_datum(3, field, (1,))
        twisted = make_zip_datum(3, field, (1,), frob_power=field.degree)
        assert d == twisted and hash(d) == hash(twisted)
        assert d.frob_power == field.degree
    assert make_zip_datum(3, F4, (1,), frob_power=1) != make_zip_datum(3, F4, (1,))


def test_radical_dim_counts_the_positions_below_the_blocks():
    for n in range(2, 7):
        for I in _all_block_types(n):
            d = make_zip_datum(n, F2, I)
            ids = [k for k, cls in enumerate(d.classes) for _ in cls]
            below = sum(1 for i in range(n) for j in range(n) if ids[i] > ids[j])
            assert d.radical_dim == below, (n, I)
            assert d.J.indices == frozenset(n - i for i in I)


def test_stratum_labels_must_be_minimal_coset_representatives():
    d = make_zip_datum(3, F2, (1,))
    s1 = element_from_word(d.weyl, (1,))
    other = element_from_word(create_weyl("A", 3), ())
    for entry in (stratum_point_count, stratum_point_polynomial, stratum_rep):
        with pytest.raises(ValueError):
            entry(d, s1)
        with pytest.raises(ValueError):
            entry(d, other)
    # the permutation matrices of w * theta0, theta0 = (s2 s1)^-1 here
    reps = {
        (): ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
        (2,): ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        (2, 1): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    }
    for word, rep in reps.items():
        assert stratum_rep(d, element_from_word(d.weyl, word)) == rep


# ---------------------------------------------------------------------------
# orbit censuses against frozen brute-force truth
# ---------------------------------------------------------------------------


def test_census_of_the_borel_datum_on_gl2_over_f2():
    d = make_zip_datum(2, F2, ())
    census = zip_orbit_census(d)
    assert census.group_order == 6
    assert census.sizes() == (2, 4)
    assert tuple(o.stabilizer_order for o in census.orbits) == (2, 1)
    assert tuple(o.cell for o in census.orbits) == ((1,), ())
    assert census.cell_totals() == {(1,): 2, (): 4}


def test_census_of_the_borel_datum_on_gl2_over_f4_splits_the_closed_stratum():
    d = make_zip_datum(2, F2, ())
    census = zip_orbit_census(d, 2)
    assert census.group_order == 180
    assert census.sizes() == (12, 12, 12, 144)
    assert tuple(o.cell for o in census.orbits) == ((1,), (1,), (1,), ())
    assert census.cell_totals() == {(1,): 36, (): 144}


def test_census_of_the_two_one_block_datum_on_gl3_over_f2():
    d = make_zip_datum(3, F2, (1,))
    census = zip_orbit_census(d)
    assert census.group_order == 168
    assert sorted(census.sizes()) == [16, 24, 32, 48, 48]
    assert sorted((o.size, o.cell) for o in census.orbits) == [
        (16, ()),
        (24, (2,)),
        (32, ()),
        (48, ()),
        (48, (2,)),
    ]
    assert census.cell_totals() == {(): 96, (2,): 72}
    assert tuple(o.stabilizer_order for o in census.orbits) == (6, 4, 3, 2, 2)


def test_census_stabilizer_orders_match_a_brute_force_scan():
    d = make_zip_datum(2, F2, ())
    for ext in (1, 2):
        for record in zip_orbit_census(d, ext).orbits:
            assert len(stabilizer(d, record.rep, ext)) == record.stabilizer_order


def _scanned_stabilizer(ff, g, pairs):
    return tuple(
        (pp, p) for pp, p in pairs if mat_mul(ff, mat_mul(ff, pp, g), mat_inv(ff, p)) == g
    )


@pytest.mark.parametrize(
    "n,field,I,frob_power,ext",
    [(4, F2, (2,), None, 1), (3, F3, (1,), None, 1)]
    + [(2, F4, (), e, 1) for e in range(3)]
    + [(2, F2, (), None, 2)],
    ids=["GL4-F2-I2", "GL3-F3-I1"] + [f"GL2-F4-e{e}" for e in range(3)] + ["GL2-F2-ext2"],
)
def test_stabilizer_equals_the_scan_over_the_zip_group(n, field, I, frob_power, ext):
    d = make_zip_datum(n, field, I, frob_power=frob_power)
    ff = get_field(field.p, field.degree * ext)
    pairs = zip_group_points(d, ext)
    rng = random.Random(20261018)
    points = gl_points(n, ff)
    for g in [mat_identity(n)] + rng.sample(points, 4):
        assert stabilizer(d, g, ext) == _scanned_stabilizer(ff, g, pairs)


def test_stabilizer_refuses_a_singular_matrix():
    with pytest.raises(ValueError, match="invertible"):
        stabilizer(make_zip_datum(2, F2, ()), ((1, 1), (1, 1)))


def _all_block_types(n):
    simples = range(1, n)
    return chain.from_iterable(combinations(simples, k) for k in range(n))


def test_zip_group_order_is_the_size_of_the_enumerated_group():
    cases = [(n, F2, I, 1) for n in (2, 3) for I in _all_block_types(n)]
    cases += [(2, F3, I, ext) for I in _all_block_types(2) for ext in (1, 2)]
    for n, field, I, ext in cases:
        d = make_zip_datum(n, field, I)
        assert zip_group_order(d, ext) == len(zip_group_points(d, ext)), (n, I, ext)


def _brute_force_census(d):
    ff = d.field
    acting = [(pp, mat_inv(ff, p)) for pp, p in zip_group_points(d)]
    remaining = set(gl_points(d.n, ff))
    records = []
    while remaining:
        g = min(remaining)
        orbit = {mat_mul(ff, mat_mul(ff, pp, g), pinv) for pp, pinv in acting}
        remaining -= orbit
        rep = min(orbit)
        cell = bruhat_cell(d, rep).reduced_word()
        records.append((rep, len(orbit), len(acting) // len(orbit), cell))
    return sorted(records, key=lambda r: (r[1], r[0]))


def test_census_equals_the_brute_force_partition_for_every_twist_over_f4():
    for frob_power in (0, 1, 2):
        d = make_zip_datum(2, F4, (), frob_power=frob_power)
        census = zip_orbit_census(d)
        assert census.group_order == gl_order(2, 4)
        assert [
            (r.rep, r.size, r.stabilizer_order, r.cell) for r in census.orbits
        ] == _brute_force_census(d)


F8 = get_field(2, 3)
F9 = get_field(3, 2)


@pytest.mark.parametrize(
    "n,field,I,frob_power",
    [(2, F8, (), e) for e in range(4)]
    + [(2, F9, (), e) for e in range(3)]
    + [(3, F3, (1,), None)],
    ids=[f"GL2-F8-e{e}" for e in range(4)] + [f"GL2-F9-e{e}" for e in range(3)] + ["GL3-F3-I1"],
)
def test_census_equals_the_brute_force_partition_past_f4(n, field, I, frob_power):
    # the census walks one transvection of scalar 1 per root and no inverses;
    # over F_8 and F_9 the other scalars come only from the Levi scalings
    d = make_zip_datum(n, field, I, frob_power=frob_power)
    census = zip_orbit_census(d)
    assert census.group_order == gl_order(n, field.order)
    assert [
        (r.rep, r.size, r.stabilizer_order, r.cell) for r in census.orbits
    ] == _brute_force_census(d)


def _pinned_census_data():
    for field in (F2, F3, F4):
        for n in (2, 3):
            for I in _all_block_types(n):
                for frob_power in (None,) + tuple(range(field.degree + 1)):
                    yield make_zip_datum(n, field, I, frob_power=frob_power), 1
    for ext in (2, 3, 4):
        yield make_zip_datum(2, F2, ()), ext
    yield make_zip_datum(2, F3, ()), 2
    for I in _all_block_types(4):
        yield make_zip_datum(4, F2, I), 1


# captured at commit 02e2acb, whose census walked every point of GL_n
CENSUS_DIGEST = "e1b09451fa9cd9c461464a3284b93cbd0a7f5b2aff92beff5b7e524ecf205098"


def test_census_records_match_the_pinned_digest():
    digest = hashlib.sha256()
    for d, ext in _pinned_census_data():
        census = zip_orbit_census(d, ext)
        records = [(r.rep, r.size, r.stabilizer_order, r.cell) for r in census.orbits]
        digest.update(repr((census.group_order, records)).encode())
    assert digest.hexdigest() == CENSUS_DIGEST


# captured at commit 3e0234d, whose census refused data past 2 000 000 points
# of GL_n, with that guard raised inside the capture script
@pytest.mark.parametrize(
    "n,field,blocks,orbits,digest",
    [
        (5, F2, (3, 2), 33, "e4de4a057980a05fa3e6f112f52c2049720172ebc3b81a40998ef0d7f0b63989"),
        (4, F3, (2, 2), 90, "da0fb34807647eeb57c3f036dfc37bee9d229ea1d895bcf5b37b732cdc8f08c3"),
    ],
    ids=["GL5-F2-3-2", "GL4-F3-2-2"],
)
def test_census_past_the_point_guard_matches_its_pinned_digest(n, field, blocks, orbits, digest):
    # 9 999 360 and 24 261 120 points pass the guard; 156 240 and 299 520 cosets of U' do not
    census = zip_orbit_census(make_zip_datum(n, field, levi_of_blocks(blocks)))
    assert census.group_order == gl_order(n, field.order) > grouplab.ENUMERATION_GUARD
    assert len(census.orbits) == orbits
    records = [(r.rep, r.size, r.stabilizer_order, r.cell) for r in census.orbits]
    assert hashlib.sha256(repr((census.group_order, records)).encode()).hexdigest() == digest


def test_census_guard_counts_cosets_before_listing_any(monkeypatch):
    def no_forms(ff, classes):
        raise AssertionError("no coset form may be listed")

    monkeypatch.setattr(grouplab, "_coset_forms", no_forms)
    # GL_3(F_16) with I = {} has 15 790 320 cosets of U', GL_6(F_2) with one block
    # has all its 20 158 709 760 points as cosets
    for d in (make_zip_datum(3, get_field(2, 4), ()), make_zip_datum(6, F2, range(1, 6))):
        with pytest.raises(TooLarge, match="cosets of U'"):
            zip_orbit_census(d)


@pytest.mark.parametrize(
    "n,field,I,frob_power,ext",
    [
        (4, F2, (2,), None, 1),
        (2, F2, (), None, 3),
        (2, F2, (), None, 4),
        (3, F4, (1, 2), None, 1),
        (3, F4, (1,), None, 1),
        (3, F3, (), 0, 1),
        (3, F3, (), 1, 1),
        (3, F3, (), 2, 1),
        (4, F2, (1, 3), None, 1),
        (3, get_field(5, 1), (1,), None, 1),
    ],
    ids=[
        "GL4-F2-I2", "GL2-F2-ext3", "GL2-F2-ext4", "GL3-F4-I12", "GL3-F4-I1",
        "GL3-F3-e0", "GL3-F3-e1", "GL3-F3-e2", "GL4-F2-blocks22", "GL3-F5-I1",
    ],
)
def test_census_records_are_those_of_the_per_root_generators(
    monkeypatch, n, field, I, frob_power, ext
):
    d = make_zip_datum(n, field, I, frob_power=frob_power)
    moves = len(_zip_moves(d, ext))
    adjacent = zip_orbit_census(d, ext)
    monkeypatch.setattr(grouplab, "zip_generators", zip_generators_per_root)
    assert len(_zip_moves(d, ext)) >= moves
    assert zip_orbit_census(d, ext) == adjacent


@pytest.mark.parametrize(
    "n,field,blocks,per_root,adjacent",
    [(4, F2, (1, 2, 1), 7, 4), (5, F2, (3, 2), 14, 7), (3, F4, (3,), 7, 5)],
    ids=["GL4-F2-I2", "GL5-F2-3-2", "GL3-F4-one-block"],
)
def test_adjacent_roots_cut_the_census_moves(monkeypatch, n, field, blocks, per_root, adjacent):
    d = make_zip_datum(n, field, levi_of_blocks(blocks))
    assert len(_zip_moves(d, 1)) == adjacent
    monkeypatch.setattr(grouplab, "zip_generators", zip_generators_per_root)
    assert len(_zip_moves(d, 1)) == per_root


def _radical_points(d, ff):
    """Every u' of U': the identity on the Levi blocks, any entries below them."""
    ids = grouplab._class_ids(d.classes, d.n)
    below = [(i, j) for i in range(d.n) for j in range(d.n) if ids[i] > ids[j]]
    for values in product(range(ff.order), repeat=len(below)):
        u = [list(row) for row in mat_identity(d.n)]
        for (i, j), v in zip(below, values):
            u[i][j] = v
        yield tuple(tuple(row) for row in u)


@pytest.mark.parametrize(
    "n,field,I", [(3, F3, ()), (4, F2, (2,)), (4, F2, ())], ids=["GL3-F3", "GL4-F2-I2", "GL4-F2"]
)
def test_coset_form_is_the_least_point_of_each_coset(n, field, I):
    d = make_zip_datum(n, field, I)
    radical = tuple(_radical_points(d, field))
    form = grouplab._coset_form(field, d.classes)
    remaining = set(gl_points(n, field))
    least = []
    while remaining:
        g = remaining.pop()
        coset = {mat_mul(field, u, g) for u in radical}
        assert len(coset) == len(radical), "U' acts freely"
        remaining -= coset
        least.append(_flat(min(coset)))
        assert {form(_flat(h)) for h in coset} == {least[-1]}
    forms = list(grouplab._coset_forms(field, d.classes))
    assert forms == sorted(least)
    assert len(forms) * len(radical) == gl_order(n, field.order)


@pytest.mark.parametrize(
    "n,field,blocks",
    [
        (3, F3, (1, 1, 1)),
        (4, F2, (1, 2, 1)),
        (4, F2, (1, 1, 1, 1)),
        (3, F4, (2, 1)),
        (3, F4, (1, 2)),
        (2, get_field(3, 2), (1, 1)),
        (5, F2, (2, 1, 2)),
        (4, F3, (2, 2)),
    ],
    ids=["GL3-F3", "GL4-F2-I2", "GL4-F2", "GL3-F4-2-1", "GL3-F4-1-2", "GL2-F9",
         "GL5-F2-2-1-2", "GL4-F3-2-2"],
)
def test_coset_forms_once_per_pivot_set_equal_the_prefix_oracle(n, field, blocks):
    classes = make_zip_datum(n, field, levi_of_blocks(blocks)).classes
    forms = list(grouplab._coset_forms(field, classes))
    assert forms == list(coset_forms_by_prefix(field, classes))
    assert all(a < b for a, b in zip(forms, forms[1:])), "strictly increasing"


def _apply_ops(ops, x):
    """Apply compiled row and column operations to a flat matrix, one by one."""
    x = list(x)
    for links, table in ops:
        for d, s in links:
            x[d] = table[x[s]][x[d]]
    return tuple(x)


@pytest.mark.parametrize(
    "p,degree,n,I,frob_power,ext",
    [
        (2, 9, 2, (), None, 1),  # 512 elements: no addition or product tables
        (2, 2, 3, (1,), 0, 1),  # untwisted
        (2, 2, 2, (), 1, 1),  # twist by x -> x**2 over F_4
        (3, 1, 3, (2,), None, 2),  # odd characteristic over an extension
    ],
)
def test_compiled_moves_act_as_their_generator_matrices(p, degree, n, I, frob_power, ext):
    d = make_zip_datum(n, get_field(p, degree), I, frob_power=frob_power)
    ff = get_field(p, degree * ext)
    rng = random.Random(20261018)
    samples = [
        tuple(tuple(rng.randrange(ff.order) for _ in range(n)) for _ in range(n))
        for _ in range(50)
    ]

    def flat(m):
        return tuple(chain.from_iterable(m))

    fixed = tuple(flat(g) for g in samples)
    # the pairs (p', 1) generate U', which fixes every coset U'g: they compile to no move
    expected = {
        tuple(flat(mat_mul(ff, mat_mul(ff, pp, g), mat_inv(ff, p))) for g in samples)
        for pp, p in zip_generators(d, ext)
        if p != mat_identity(n)
    }
    moves = _zip_moves(d, ext)
    images = [tuple(_apply_ops(ops, x) for x in fixed) for ops in moves]
    assert len(set(moves)) == len(moves), "duplicate moves are dropped"
    assert len(set(images)) == len(images), "no two moves act alike"
    assert fixed not in images, "moves that act as the identity are dropped"
    assert set(images) == expected - {fixed}


def test_repeated_pairs_compile_to_one_move_and_scalars_share_one_table():
    one = mat_identity(2)
    lower = ((1, 0), (1, 1))
    upper = ((1, 1), (0, 1))
    scaled = ((2, 0), (0, 1))
    pairs = [(lower, one), (lower, one), (one, upper), (scaled, scaled), (one, one)]
    moves = _compile_moves(pairs, 2, F3.add, F3.mul, F3.order)
    assert len(moves) == 3
    (row_op,), (col_op,), (scale_row, _) = moves
    assert row_op[0] == ((2, 0), (3, 1)) and col_op[0] == ((1, 0), (3, 2))
    assert row_op[1] is col_op[1], "one table per scalar"
    # scaling by 2 adds 2 - 1 = 1 times each entry to itself
    assert scale_row == (((0, 0), (1, 1)), row_op[1])
    assert _apply_ops(moves[2], (1, 2, 2, 1)) == (1, 1, 1, 1)


def test_census_checks_survive_python_minus_o():
    script = textwrap.dedent(
        """
        from zipstrata import grouplab
        from zipstrata.ffield import get_field
        assert False, "asserts must be off"
        true_order = grouplab.zip_group_order
        grouplab.zip_group_order = lambda datum, ext=1: true_order(datum, ext) + 1
        try:
            grouplab.zip_orbit_census(grouplab.make_zip_datum(2, get_field(2, 1), ()))
        except grouplab.InvariantError as exc:
            print("InvariantError:", exc)
        """
    )
    src = str(Path(zipstrata.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("InvariantError:")


# ---------------------------------------------------------------------------
# point counts in closed form, against the layer-chain oracle
# ---------------------------------------------------------------------------


def layer_chain(datum, w):
    """The layers of the stratum of w down to a terminal one, and each step's kernel dimension."""
    layer = grouplab._top_layer(datum)
    x = grouplab._stratum_rep_perm(datum, w)
    layers, kernel_dims = [layer], []
    while not layer.is_terminal():
        layer, x, k = grouplab._reduce_step(layer, x)
        layers.append(layer)
        kernel_dims.append(k)
        assert len(kernel_dims) <= 2 * datum.n**2 + 4, "layer reduction failed to terminate"
    return layers, kernel_dims


def chain_count(chain, Q):
    """The point count over F_Q of the top layer of a chain, from the bottom up.

    Each layer's count is its zip group's order times the count one layer down,
    over Q**k for the step's kernel dimension k and the next zip group's order.
    """
    layers, kernel_dims = chain
    orders = [layer_zip_order(layer, Q) for layer in layers]
    count = 1
    for cls in layers[-1].classes:
        count *= gl_order(len(cls), Q)
    for i in reversed(range(len(kernel_dims))):
        numerator = orders[i] * count
        denominator = Q ** kernel_dims[i] * orders[i + 1]
        assert numerator % denominator == 0, "a layer's point count is not an exact quotient"
        count = numerator // denominator
    return count


def test_closed_form_counts_equal_the_layer_chain_oracle():
    cases = [(n, F2, I, None, 2) for n in range(2, 6) for I in _all_block_types(n)]
    for field in (get_field(5, 1), F8):
        for n in range(2, 5):
            for I in _all_block_types(n):
                for e in (None, *range(2 * field.degree + 1)):
                    cases += [(n, field, I, e, ext) for ext in (1, 2)]
    for n, field, I, e, ext in cases:
        d = make_zip_datum(n, field, I, e)
        for w in min_coset_reps(d.weyl, d.I):
            poly = stratum_point_polynomial(d, w)
            assert len(poly) - 1 == stratum_dimension(d.shadow(), w)
            assert stratum_point_count(d, w, ext) == chain_count(
                layer_chain(d, w), field.order**ext
            ), (n, field.order, I, e, ext, w.window)


def test_each_cover_raises_the_polynomial_degree_by_one():
    # the numeric shadow of purity: a maximal boundary stratum has codimension one
    covers = 0
    for n in range(2, 6):
        for I in _all_block_types(n):
            d = make_zip_datum(n, F2, I)
            poset = stratum_poset(d.shadow())
            degrees = [len(stratum_point_polynomial(d, w)) - 1 for w in poset.carrier]
            for lower, upper in poset.covers:
                assert degrees[upper] == degrees[lower] + 1
            covers += len(poset.covers)
    assert covers > 100


def test_borel_stratum_counts_on_gl2_follow_the_classical_law():
    d = make_zip_datum(2, F2, ())
    by_length = {w.length: [stratum_point_count(d, w, s) for s in (1, 2, 3)]
                 for w in min_coset_reps(d.weyl, d.I)}
    assert by_length[0] == [2, 36, 392]
    assert by_length[1] == [4, 144, 3136]
    for s, Q in ((1, 2), (2, 4), (3, 8)):
        assert by_length[0][s - 1] == Q * (Q - 1) ** 2
        assert by_length[1][s - 1] == Q**2 * (Q - 1) ** 2


def test_borel_stratum_counts_on_gl3_are_powers_against_the_unit_factor():
    d = make_zip_datum(3, F2, ())
    for ext, Q in ((1, 2), (2, 4)):
        for w, count in stratum_point_counts(d, ext):
            assert count == Q ** (3 + w.length) * (Q - 1) ** 3


def test_two_one_block_stratum_counts_on_gl3_match_the_census_partition():
    d = make_zip_datum(3, F2, (1,))
    for ext, Q in ((1, 2), (2, 4)):
        counts = {w.length: c for w, c in stratum_point_counts(d, ext)}
        expected = {
            l: Q ** (3 + l) * (Q - 1) ** 3 * (Q + 1) for l in (0, 1, 2)
        }
        assert counts == expected
    assert {w.length: c for w, c in stratum_point_counts(d, 1)} == {
        0: 24,
        1: 48,
        2: 96,
    }


def test_stratum_counts_sum_to_the_group_order_for_all_small_block_types():
    for n, subsets in ((2, [(), (1,)]), (3, [(), (1,), (2,), (1, 2)])):
        for I in subsets:
            d = make_zip_datum(n, F2, I)
            for ext in (1, 2):
                counts = stratum_point_counts(d, ext)
                total = sum(c for _, c in counts)
                assert total == gl_order(n, 2**ext)


def test_tower_counts_match_census_totals_in_every_bruhat_cell():
    for n, subsets in ((2, [(), (1,)]), (3, [(), (1,), (2,), (1, 2)])):
        for I in subsets:
            d = make_zip_datum(n, F2, I)
            census_totals = zip_orbit_census(d).cell_totals()
            tower_totals = {}
            for w, c in stratum_point_counts(d):
                cell = bruhat_cell(d, stratum_rep_matrix(d, w)).reduced_word()
                tower_totals[cell] = tower_totals.get(cell, 0) + c
            assert tower_totals == census_totals


def test_gl4_borel_orbits_are_exactly_the_strata():
    d = make_zip_datum(4, F2, ())
    census = zip_orbit_census(d)
    assert len(census.orbits) == 24
    w0 = longest_element(d.weyl)
    by_cell = {
        (w * w0).reduced_word(): c for w, c in stratum_point_counts(d)
    }
    assert census.cell_totals() == by_cell
    for record in census.orbits:
        assert record.size == by_cell[record.cell]


# ---------------------------------------------------------------------------
# Bruhat cells
# ---------------------------------------------------------------------------


def test_bruhat_cell_anchors_on_the_identity_and_the_antidiagonal():
    for n in (2, 3):
        d = make_zip_datum(n, F2, ())
        identity = mat_identity(n)
        anti = tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n))
        assert bruhat_cell(d, identity).length == 0
        assert bruhat_cell(d, anti) == longest_element(d.weyl)
    d = make_zip_datum(3, F2, (1,))
    anti = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert bruhat_cell(d, anti).reduced_word() == (2,)


def test_bruhat_cell_is_constant_on_zip_orbits():
    d = make_zip_datum(3, F2, (1,))
    ff = d.field
    pairs = zip_group_points(d)
    rng = random.Random(20260814)
    for record in zip_orbit_census(d).orbits:
        for p_prime, p in rng.sample(pairs, 25):
            moved = mat_mul(ff, mat_mul(ff, p_prime, record.rep), mat_inv(ff, p))
            assert bruhat_cell(d, moved).reduced_word() == record.cell


def test_bruhat_cell_and_point_counts_reach_gl7_and_gl8():
    for n in (7, 8):
        d = make_zip_datum(n, F2, ())
        anti = tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n))
        assert bruhat_cell(d, mat_identity(n)).length == 0
        assert bruhat_cell(d, anti) == longest_element(d.weyl)
    counts = stratum_point_counts(make_zip_datum(7, F2, (2, 3, 4, 5)))
    assert len(counts) == 42
    assert sum(c for _, c in counts) == gl_order(7, 2)


def rank_grid_by_mat_rank(field, g, prefixes):
    """The rank of every leading block, each from a fresh elimination."""
    return [[mat_rank(field, tuple(row[:c] for row in g[:r])) for c in prefixes] for r in prefixes]


def bruhat_cell_by_rank_grid(datum, g):
    """The cell read off the mat_rank grid by block counts."""
    prefixes = [0, *accumulate(len(cls) for cls in datum.classes)]
    rank = rank_grid_by_mat_rank(datum.field, g, prefixes)
    k = len(datum.classes)
    counts = [
        [rank[a + 1][b + 1] - rank[a][b + 1] - rank[a + 1][b] + rank[a][b] for b in range(k)]
        for a in range(k)
    ]
    nu = _double_coset_min(counts, datum.classes, datum.classes)
    return grouplab._element_of_perm(datum.weyl, nu)


@pytest.mark.parametrize("n,field", [(3, F2), (2, F4)], ids=["GL3-F2", "GL2-F4"])
def test_leading_block_ranks_and_cells_equal_the_mat_rank_grid(n, field):
    points = gl_points(n, field)
    every_matrix = [
        tuple(flat[i * n : (i + 1) * n] for i in range(n))
        for flat in product(range(field.order), repeat=n * n)
    ]
    for I in _all_block_types(n):
        d = make_zip_datum(n, field, I)
        prefixes = [0, *accumulate(len(cls) for cls in d.classes)]
        for g in every_matrix:
            assert _leading_block_ranks(field, g, prefixes) == rank_grid_by_mat_rank(
                field, g, prefixes
            )
        for g in points:
            assert bruhat_cell(d, g) == bruhat_cell_by_rank_grid(d, g)
    # every column and row prefix, singular matrices included
    full = list(range(n + 1))
    for g in every_matrix:
        assert _leading_block_ranks(field, g, full) == rank_grid_by_mat_rank(field, g, full)


def test_bruhat_cell_refuses_a_singular_matrix():
    d = make_zip_datum(3, F2, (1,))
    with pytest.raises(InvariantError):
        bruhat_cell(d, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))


# ---------------------------------------------------------------------------
# the permutation scans the block counts replaced, kept as oracles
# ---------------------------------------------------------------------------


def perm_inversions(a):
    return sum(1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j])


def class_preserving_perms(classes, n):
    out = []
    for images in product(*[permutations(cls) for cls in classes]):
        perm = [0] * n
        for cls, img in zip(classes, images):
            for pos, target in zip(cls, img):
                perm[pos] = target
        out.append(tuple(perm))
    return out


def cell_normal_form_by_scan(layer, x):
    """The shortest element of the double coset and the lex-first left factor."""
    n = len(x)
    compose, inverse = grouplab._perm_compose, grouplab._perm_inverse
    left_classes = layer.pp_levi
    right_classes = layer.p_levi
    left = class_preserving_perms(left_classes, n)
    right = class_preserving_perms(right_classes, n)
    coset = {compose(a_prime, compose(x, a)) for a_prime in left for a in right}
    nu = min(coset, key=lambda p: (perm_inversions(p), p))
    right_ids = grouplab._class_ids(right_classes, n)
    sigma = layer.twist_perm
    for a_prime in left:
        a = compose(inverse(nu), compose(inverse(a_prime), x))
        if all(right_ids[a[i]] == right_ids[i] for i in range(n)):
            return nu, compose(a, compose(sigma, compose(a_prime, inverse(sigma))))
    raise AssertionError("the double coset factorisation must exist")


def bruhat_cell_by_scan(datum, g):
    """The cell of g from every permutation with g's leading-block rank profile."""
    n, ff = datum.n, datum.field
    prefixes = list(accumulate(len(cls) for cls in datum.classes))
    target = [[mat_rank(ff, tuple(row[:c] for row in g[:r])) for c in prefixes] for r in prefixes]
    matches = [
        perm
        for perm in permutations(range(n))
        if [[sum(1 for j in range(c) if perm[j] < r) for c in prefixes] for r in prefixes]
        == target
    ]
    nu = min(matches, key=lambda p: (perm_inversions(p), p))
    side = class_preserving_perms(datum.classes, n)
    compose = grouplab._perm_compose
    assert set(matches) == {compose(a, compose(nu, b)) for a in side for b in side}
    group = datum.weyl
    return min_double_coset_rep(group, datum.I, group.element(tuple(v + 1 for v in nu)), datum.I)


def test_cell_normal_form_matches_the_coset_scan_on_every_layer(monkeypatch):
    seen = []
    block_counts = grouplab._cell_normal_form

    def recording(layer, x):
        result = block_counts(layer, x)
        seen.append((layer, x, result))
        return result

    monkeypatch.setattr(grouplab, "_cell_normal_form", recording)
    for n in range(2, 6):
        for I in _all_block_types(n):
            d = make_zip_datum(n, F2, I)
            for w in min_coset_reps(d.weyl, d.I):
                layer_chain(d, w)
    assert len(seen) > 1000
    for layer, x, result in seen:
        assert result == cell_normal_form_by_scan(layer, x)


def test_bruhat_cell_matches_the_permutation_scan_on_random_matrices():
    rng = random.Random(20261018)
    for _ in range(120):
        n = rng.randint(2, 6)
        field = rng.choice((F2, F3))
        d = make_zip_datum(n, field, [i for i in range(1, n) if rng.random() < 0.5])
        g = None
        while g is None or not mat_is_invertible(field, g):
            g = tuple(tuple(rng.randrange(field.order) for _ in range(n)) for _ in range(n))
        assert bruhat_cell(d, g) == bruhat_cell_by_scan(d, g)


def test_double_coset_min_refuses_non_interval_classes_and_foreign_counts():
    assert _double_coset_min([[1, 1], [1, 0]], ((0, 1), (2,)), ((0, 1), (2,))) == (0, 2, 1)
    with pytest.raises(InvariantError, match="intervals"):
        _double_coset_min([[1, 1], [1, 0]], ((0, 2), (1,)), ((0, 1), (2,)))
    with pytest.raises(InvariantError, match="intervals"):
        _double_coset_min([[1, 1], [1, 0]], ((0, 1), (2,)), ((2,), (0, 1)))
    with pytest.raises(InvariantError, match="permutation"):
        _double_coset_min([[2, 0], [0, 0]], ((0, 1), (2,)), ((0, 1), (2,)))
    with pytest.raises(InvariantError, match="permutation"):
        _double_coset_min([[2, 0], [-1, 2]], ((0, 1), (2,)), ((0,), (1, 2)))


# ---------------------------------------------------------------------------
# layer reduction
# ---------------------------------------------------------------------------


def test_reduction_of_the_gl2_borel_strata_reaches_a_twisted_torus():
    d = make_zip_datum(2, F2, ())
    closed, open_ = min_coset_reps(d.weyl, d.I)
    step = reduce_datum(d, closed)
    assert step.terminal
    assert step.ambient == ((0,), (1,))
    assert step.kernel_dim == 1
    assert step.twist_perm == (1, 0)
    assert step.element == (1, 2)
    step = reduce_datum(d, open_)
    assert step.terminal
    assert step.kernel_dim == 0
    assert step.twist_perm == (0, 1)


def test_reduction_kernels_count_the_inversions_of_the_cell_element():
    d = make_zip_datum(3, F2, ())
    for w in min_coset_reps(d.weyl, d.I):
        step = reduce_datum(d, w)
        assert step.kernel_dim == (w * longest_element(d.weyl)).length


def test_k3_datum_point_counts_exhaust_gl22_and_every_stratum_reduces():
    d = make_zip_datum(22, F2, range(2, 21))
    shadow = d.shadow()
    counts = stratum_point_counts(d)
    assert len(counts) == 462
    assert sum(c for _, c in counts) == gl_order(22, 2)
    for w, count in counts:
        step = reduce_datum(d, w)
        assert sorted(step.element) == list(range(1, 23))
        assert len(stratum_point_polynomial(d, w)) - 1 == stratum_dimension(shadow, w)
        assert count == chain_count(layer_chain(d, w), 2)


# sha256 of the point counts and the first reduction step of every stratum of
# every GL_n block type with n <= 5, over F_2, F_3 and F_4 (every Frobenius
# exponent 0..4 over F_4), captured while the layer patterns were sets of pairs
LAYER_DIGEST = "1297951f9d38025a7a71d8ac366fb9c06ec704ec8f0d79581361e1b07f74c371"


def test_counts_and_reductions_match_the_pinned_digest():
    h = hashlib.sha256()
    cases = [(F2, None), (F3, None)] + [(F4, e) for e in range(5)]
    for field, e in cases:
        for n in range(2, 6):
            for k in range(n):
                for I in combinations(range(1, n), k):
                    d = make_zip_datum(n, field, I, e)
                    for w, count in stratum_point_counts(d):
                        s = reduce_datum(d, w)
                        h.update(repr((
                            field.order, e, n, I, w.window, count, s.ambient,
                            sorted(s.p_pattern), sorted(s.p_prime_pattern), s.twist_perm,
                            s.twist_power, s.element, s.kernel_dim, s.terminal,
                        )).encode())
    assert h.hexdigest() == LAYER_DIGEST


def test_grouplab_has_no_bare_asserts():
    package = Path(zipstrata.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Assert)])
    }
    assert found == {}, f"assert statements vanish under python -O: {found}"


ENGINE_NAMES = (
    "_Op", "_Form", "_AddTable", "_elementary_entry",
    "_compile_moves", "_walk_orbit", "_orbit_partition", "_flat",
)


def test_the_orbit_engine_lives_only_in_orbits():
    package = Path(zipstrata.__file__).parent
    private_from_grouplab, defined_in = [], {name: [] for name in ENGINE_NAMES}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("grouplab", "zipstrata.grouplab"):
                private_from_grouplab += [
                    (path.name, a.name) for a in node.names if a.name.startswith("_")
                ]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name in defined_in:
                    defined_in[name].append(path.name)
    assert private_from_grouplab == []
    assert defined_in == {name: ["orbits.py"] for name in ENGINE_NAMES}


def _inexact_lines(tree):
    """Lines with a true division, a float constant or a call to log, float or round."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("log", "float", "round"):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_package_has_no_floating_point():
    package = Path(zipstrata.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _inexact_lines(ast.parse(path.read_text())))
    }
    assert found == {}, f"floating point enters these lines: {found}"


def test_the_floating_point_scan_sees_each_form():
    source = "a = b / c\na /= 2\nx = 0.5\ny = log(q)\nz = math.log(q)\nr = round(v)\nf = float(v)\n"
    assert _inexact_lines(ast.parse(source)) == [1, 2, 3, 4, 5, 6, 7]
    assert _inexact_lines(ast.parse("a = b // c\nb //= 2\nc = 2 ** 3\n")) == []


# Each script breaks one result check and must still end in InvariantError.
ORDINARY_FZIP = "fzip.dieudonne_to_fzip(((1, 0), (0, 0)), ((0, 0), (0, 1)))"
MINUS_O_CASES = {
    "cli classify without a witness": (
        f"""
        import tempfile
        real = cli.classify
        cli.classify = lambda z, max_ext=3: fzip.StratumLabel(real(z, max_ext).w, None)
        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/ordinary.json"
            with open(path, "w") as handle:
                handle.write(fzip.fzip_to_json({ORDINARY_FZIP}))
            ns = cli._build_parser().parse_args(["classify", path])
            ns.run(ns)
        """,
        "a classify label must carry its witness",
    ),
    "witt elimination inverse failing its product check": (
        """
        from zipstrata import witt
        # a product that never gives the identity
        witt.rmat_mul = lambda ring, a, b, cols=None: ()
        z4 = witt.make_ring(2, 1, 2)
        witt.rmat_inv(z4, witt.rmat_identity(z4, 2))
        """,
        "the elimination inverse must satisfy a * x = 1",
    ),
    "ffield without a unit generator": (
        """
        # with no prime dividing 3 = |F_4^*|, the unit 1 passes for a generator
        ffield.is_prime = lambda n: n == 2
        ffield.FiniteField(2, 2)
        """,
        "the unit group of a finite field must be cyclic",
    ),
    "ffield embedding without a root": (
        """
        big = ffield.FiniteField(2, 2)
        big.eval_poly = lambda coeffs, x: 1
        big.embedding_from(ffield.get_field(2, 1))
        """,
        "the small field's modulus must have a root here",
    ),
    "fzip graded basis of unnested pivots": (
        """
        fzip._graded_basis(((1, 0), (0, 1)), ((1, 1), (0, 0)))
        """,
        "echelon pivots are not nested",
    ),
    "fzip classify with two hits": (
        f"""
        fzip.zip_orbit_search = lambda datum, g, targets, ext=1: (tuple(targets[:2]), 1)
        fzip.classify({ORDINARY_FZIP})
        """,
        "two standard representatives share one orbit",
    ),
    "zipdatum cocharacter without simple images": (
        """
        zipdatum.simple_index_of = lambda w: None
        zipdatum.zip_from_cocharacter(coxeter.create_weyl("A", 2), (1,))
        """,
        "w0 must carry simple reflections to simple reflections",
    ),
    "grouplab Lang rows without a basis": (
        """
        grouplab._iter_gl = lambda n, field, vectors: iter(())
        grouplab.lang_preimage(ffield.get_field(2, 1), ((1, 1), (0, 1)))
        """,
        "the Frobenius-fixed rows of a norm-one target span no basis",
    ),
    "grouplab cosets short of GL_n": (
        """
        import itertools
        real = grouplab._coset_forms
        grouplab._coset_forms = lambda ff, classes: itertools.islice(real(ff, classes), 1, None)
        grouplab.zip_orbit_census(grouplab.make_zip_datum(2, ffield.get_field(2, 1), ()))
        """,
        "the cosets of U' do not exhaust GL_n",
    ),
    "grouplab layer twist off the Levi classes": (
        """
        import dataclasses
        real = grouplab._top_layer
        # mirror P's blocks into P': the identity twist no longer carries one onto the other
        grouplab._top_layer = lambda d: dataclasses.replace(
            real(d), pp_key=tuple(-b for b in reversed(real(d).p_key))
        )
        d = grouplab.make_zip_datum(3, ffield.get_field(2, 1), (1,))
        for w in coxeter.min_coset_reps(d.weyl, d.I):
            grouplab.reduce_datum(d, w)
        """,
        "the next layer's twist does not carry its P' Levi classes onto its P Levi classes",
    ),
    "grouplab reduced element off the ambient blocks": (
        """
        real = grouplab._cell_normal_form
        grouplab._cell_normal_form = lambda layer, x: (real(layer, x)[0], (1, 0))
        d = grouplab.make_zip_datum(2, ffield.get_field(2, 1), ())
        for w in coxeter.min_coset_reps(d.weyl, d.I):
            grouplab.reduce_datum(d, w)
        """,
        "the reduced element leaves the next layer's ambient blocks",
    ),
}


@pytest.mark.parametrize("case", sorted(MINUS_O_CASES))
def test_converted_checks_survive_python_minus_o(case):
    body, message = MINUS_O_CASES[case]
    script = (
        "from zipstrata import cli, coxeter, ffield, fzip, grouplab, zipdatum\n"
        'assert False, "asserts must be off"\n'
        "try:\n"
        + textwrap.indent(textwrap.dedent(body).strip(), "    ")
        + "\nexcept coxeter.InvariantError as exc:\n"
        '    print("InvariantError:", exc)\n'
    )
    src = str(Path(zipstrata.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"InvariantError: {message}\n"


# ---------------------------------------------------------------------------
# orbit search with generators
# ---------------------------------------------------------------------------


def test_orbit_search_reproduces_census_orbit_sizes():
    d2 = make_zip_datum(2, F2, ())
    for ext in (1, 2):
        for record in zip_orbit_census(d2, ext).orbits:
            _, size = zip_orbit_search(d2, record.rep, (), ext)
            assert size == record.size
    d31 = make_zip_datum(3, F2, (1,))
    for record in zip_orbit_census(d31).orbits:
        _, size = zip_orbit_search(d31, record.rep, (), 1)
        assert size == record.size


def test_orbit_search_finds_exactly_the_reachable_targets():
    d = make_zip_datum(2, F2, ())
    identity = mat_identity(2)
    anti = ((0, 1), (1, 0))
    hits, size = zip_orbit_search(d, identity, (identity, anti))
    assert hits == (identity,)
    assert size == 4
    hits, size = zip_orbit_search(d, anti, (identity, anti))
    assert hits == (anti,)
    assert size == 2


@pytest.mark.parametrize(
    "n,field,I,ext",
    [(2, F4, (), 1), (2, F4, (), 2), (3, F2, (1,), 1)],
    ids=["GL2-F4", "GL2-F16", "GL3-F2-I1"],
)
def test_orbit_search_guards_points_and_meets_targets_off_the_form(n, field, I, ext):
    d = make_zip_datum(n, field, I)
    ff = get_field(field.p, field.degree * ext)
    # 1 + E_{n-1,0} lies in U', so u'.rep is another point of the coset of rep
    u = tuple(
        tuple(1 if i == j or (i, j) == (d.n - 1, 0) else 0 for j in range(d.n)) for i in range(d.n)
    )
    for record in zip_orbit_census(d, ext).orbits:
        with pytest.raises(TooLarge):
            zip_orbit_search(d, record.rep, (), ext, guard=record.size - 1)
        target = mat_mul(ff, u, record.rep)
        assert target != record.rep
        assert zip_orbit_search(d, record.rep, (target,), ext, guard=record.size) == (
            (target,), record.size
        )
        assert zip_orbit_search(d, target, (record.rep,), ext) == ((record.rep,), record.size)


def test_orbit_search_respects_its_guard():
    d = make_zip_datum(2, F2, ())
    with pytest.raises(TooLarge):
        zip_orbit_search(d, mat_identity(2), (), guard=2)
    with pytest.raises(ValueError, match="extension degree"):
        zip_orbit_search(d, mat_identity(2), (), ext=0)


# ---------------------------------------------------------------------------
# Lang preimages
# ---------------------------------------------------------------------------


def test_lang_preimage_levels_over_f2_equal_the_element_order():
    elements = gl_points(2, F2)
    table = lang_preimage_table(F2, elements, max_ext=3)
    for g in elements:
        level, witness = table[g]
        assert level == mat_order(F2, g)
        big = get_field(2, level)
        assert mat_mul(big, mat_inv(big, witness), frobenius_matrix(big, witness)) == (
            embed_matrix(big, F2, g)
        )


def test_lang_preimage_over_f3_finds_exactly_the_elements_of_small_order():
    elements = gl_points(2, F3)
    table = lang_preimage_table(F3, elements, max_ext=3)
    one = mat_identity(2)
    for g in elements:
        order = mat_order(F3, g)
        hit = table[g]
        if order in (1, 2, 3):
            level, witness = hit
            assert level == order
            assert mat_power(F3, g, level) == one
            big = get_field(3, level)
            assert mat_mul(
                big, mat_inv(big, witness), frobenius_matrix(big, witness)
            ) == embed_matrix(big, F3, g)
        else:
            assert order in (4, 6, 8)
            assert hit is None
            assert all(mat_power(F3, g, s) != one for s in (1, 2, 3))


def test_lang_preimage_below_the_minimal_level_reports_absence():
    unipotent = ((1, 1), (0, 1))
    assert lang_preimage(F2, unipotent, max_ext=1) is None
    level, _ = lang_preimage(F2, unipotent, max_ext=2)
    assert level == 2


def test_lang_preimage_with_the_trivial_twist_only_solves_the_identity():
    assert lang_preimage(F2, mat_identity(2), frob_power=0) == (1, mat_identity(2))
    assert lang_preimage(F2, ((1, 1), (0, 1)), frob_power=0) is None


def test_lang_preimage_table_of_no_targets_is_empty():
    assert lang_preimage_table(F2, ()) == {}
    assert lang_preimage_table(F3, [], frob_power=0) == {}


def _swept_lang_table(field, targets, frob_power, max_ext):
    """The brute-force oracle: sweep GL_n(F_{q^s}) in order at each level s."""
    k = field.degree if frob_power is None else frob_power
    n = len(targets[0])
    found = {t: None for t in targets}
    identity = mat_identity(n)
    if k == 0:
        return {t: (1, identity) if t == identity else None for t in targets}
    for s in range(1, max_ext + 1):
        ff = get_field(field.p, field.degree * s)
        wanted = {
            embed_matrix(ff, field, t): t for t, hit in found.items() if hit is None
        }
        for h in gl_points(n, ff):
            if not wanted:
                break
            value = mat_mul(ff, mat_inv(ff, h), frobenius_matrix(ff, h, k))
            target = wanted.pop(value, None)
            if target is not None:
                found[target] = (s, h)
    return found


@pytest.mark.parametrize(
    "field,max_ext,frob_powers",
    [(F2, 3, range(3)), (F3, 2, range(3)), (F4, 2, (1,))],
    ids=["F2-ext3", "F3-ext2", "F4-ext2"],
)
def test_lang_preimage_table_matches_the_gl_sweep(field, max_ext, frob_powers):
    targets = gl_points(2, field)
    for frob_power in frob_powers:
        expected = _swept_lang_table(field, targets, frob_power, max_ext)
        assert lang_preimage_table(field, targets, frob_power, max_ext) == expected


def test_lang_preimage_reaches_gl2_over_f64():
    F8 = get_field(2, 3)
    unipotent = ((1, 1), (0, 1))
    level, witness = lang_preimage(F8, unipotent)
    assert level == 2
    big = get_field(2, 6)
    assert mat_mul(big, mat_inv(big, witness), frobenius_matrix(big, witness, 3)) == (
        embed_matrix(big, F8, unipotent)
    )


def test_lang_preimage_refuses_a_level_beyond_the_guard():
    F64 = get_field(2, 6)
    unipotent = ((1, 1), (0, 1))
    assert lang_preimage(F64, unipotent, max_ext=1) is None
    with pytest.raises(TooLarge):
        lang_preimage(F64, unipotent, max_ext=2)


# ---------------------------------------------------------------------------
# stratum dimensions as polynomial degrees
# ---------------------------------------------------------------------------


def test_stratum_dimensions_equal_parabolic_dimension_plus_length():
    for n, subsets in ((2, [(), (1,)]), (3, [(), (1,), (2,), (1, 2)])):
        for I in subsets:
            d = make_zip_datum(n, F2, I)
            for w, _ in stratum_point_counts(d):
                assert len(stratum_point_polynomial(d, w)) - 1 == (
                    stratum_dimension(d.shadow(), w)
                )


def test_gl4_borel_dimensions_range_over_ten_to_sixteen():
    d = make_zip_datum(4, F2, ())
    dims = {
        w.length: len(stratum_point_polynomial(d, w)) - 1
        for w in min_coset_reps(d.weyl, d.I)
    }
    assert dims == {l: 10 + l for l in range(7)}


# ---------------------------------------------------------------------------
# the conjugation counterexample
# ---------------------------------------------------------------------------


def test_the_conjugation_counterexample_certifies_a_two_step_drop():
    for q in (2, 3, 4, 5):
        c = counterexample_gl2(q)
        assert isinstance(c, Gl2Counterexample)
        assert c.orbit_sizes == (q**2 - 1, q**4 - 1, q**6 - 1)
        assert c.orbit_dimension == 2
        assert c.ambient_dimension == 4
        assert c.codimension == 2
        assert c.fiber_size == q * q
        assert c.jordan_of_orbit == (2,)
        assert c.jordan_of_limit == (1, 1)
        assert c.boundary_drop == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_the_trace_determinant_cone_is_the_square_zero_cone(q):
    field = get_field(*prime_power(q))
    squares_to_zero = set()
    for g in product(range(q), repeat=4):
        n = ((field.sub(g[0], 1), g[1]), (g[2], field.sub(g[3], 1)))
        if mat_mul(field, n, n) == ((0, 0), (0, 0)):
            squares_to_zero.add(g)
    assert grouplab._unipotent_cone(field) == squares_to_zero
    assert len(squares_to_zero) == q * q


def test_the_counterexample_rejects_non_prime_powers():
    with pytest.raises(ValueError):
        counterexample_gl2(6)
    with pytest.raises(ValueError):
        counterexample_gl2(1)


def test_point_count_sum_check_survives_python_minus_o():
    script = textwrap.dedent(
        """
        from zipstrata import coxeter, grouplab
        from zipstrata.ffield import get_field
        assert False, "asserts must be off"
        assert grouplab.InvariantError is coxeter.InvariantError
        grouplab.stratum_point_count = lambda datum, w, ext=1: 1
        try:
            grouplab.stratum_point_counts(grouplab.make_zip_datum(2, get_field(2, 1), ()))
        except grouplab.InvariantError as exc:
            print("InvariantError:", exc)
        """
    )
    src = str(Path(zipstrata.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("InvariantError:")


def test_counterexample_checks_survive_python_minus_o():
    script = textwrap.dedent(
        """
        from zipstrata import grouplab
        assert False, "asserts must be off"
        # without the inverses the walk's moves multiply on the left only and
        # reach all of GL_2(F_2), not the class of u
        grouplab.mat_inv = lambda field, g: ((1, 0), (0, 1))
        try:
            grouplab.counterexample_gl2(2)
        except grouplab.InvariantError as exc:
            print("InvariantError:", exc)
        """
    )
    src = str(Path(zipstrata.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "InvariantError: the regular unipotent class has 6 points, not q^2 - 1\n"
