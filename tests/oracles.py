"""Brute-force oracles shared by the tests.

Each one computes by exhaustion or by a textbook characterisation what the
package computes by a faster route, and none of them is reached from
`src/`: the subword characterisation of Bruhat order and its lifting
property, the sign of a root, the whole zip group as a list of pairs, a
generating set of it with a transvection per root, the zip group order of
one layer of the reduction counted from its Levi classes, the coset forms
listed prefix by prefix, the field product on digit lists, an ascending
filtration read at a weight directly rather than as a flipped descending one,
and Galois-ring inverses lifted from the residue field by Newton's iteration.
"""

import itertools
import operator
from functools import lru_cache
from math import prod

from zipstrata.coxeter import ENUMERATION_GUARD, InvariantError, Root, TooLarge, WeylElement
from zipstrata.ffield import (
    FiniteField,
    Mat,
    _coeff_mul,
    _row_reduce,
    gl_order,
    mat_frobenius,
    mat_identity,
    mat_inv,
    mat_is_invertible,
)
from zipstrata.grouplab import (
    ZipDatumGroupLevel,
    _block_positions,
    _fillings,
    _iter_gl,
    _levi_part,
    _points_field,
    parabolic_points,
)
from zipstrata.orbits import _flat
from zipstrata.witt import residue_matrix, rmat_identity, rmat_mul


def root_is_positive(root: Root) -> bool:
    for c in root:
        if c:
            return c > 0
    raise ValueError("zero vector is not a root")


@lru_cache(maxsize=None)
def _bruhat_interval(w: WeylElement) -> frozenset[WeylElement]:
    out = {w.group.identity()}
    for i in w.reduced_word():
        s = w.group.simple_reflection(i)
        out |= {x * s for x in out}
    return frozenset(out)


def bruhat_leq_subword(v: WeylElement, w: WeylElement) -> bool:
    """Subword characterisation of Bruhat order; oracle for bruhat_leq."""
    if v.group != w.group:
        raise ValueError("elements of different groups")
    return v in _bruhat_interval(w)


def bruhat_leq_lifting(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by Deodhar's property Z; oracle for bruhat_leq.

    For a right descent s of w, v <= w iff min(v, v * s) <= w * s.  The last
    letter of a reduced word of w is such an s, so the word is peeled from
    the right down to e, below which lies only e.
    """
    if v.group != w.group:
        raise ValueError("elements of different groups")
    for i in reversed(w.reduced_word()):
        vs = v * w.group.simple_reflection(i)
        if vs.length < v.length:
            v = vs
    return v.is_identity()


def zip_group_points(
    datum: ZipDatumGroupLevel, ext: int = 1
) -> tuple[tuple[Mat, Mat], ...]:
    """All pairs (p', p) of the zip group over the degree-`ext` extension."""
    ff = _points_field(datum, ext)
    n = datum.n
    classes = datum.classes
    upper_strict = _block_positions(classes, n, operator.lt)
    lowers = parabolic_points(n, ff, datum.I, lower=True)
    total = len(lowers) * ff.order ** len(upper_strict)
    if total > ENUMERATION_GUARD:
        raise TooLarge(f"the zip group has {total} points")
    k = datum.frob_power
    out = []
    for p_prime in lowers:
        levi = mat_frobenius(ff, _levi_part(p_prime, classes, n), k)
        out.extend((p_prime, p) for p in _fillings(levi, upper_strict, ff.order))
    return tuple(out)


def zip_generators_per_root(
    datum: ZipDatumGroupLevel, ext: int = 1
) -> tuple[tuple[Mat, Mat], ...]:
    """Generators of the zip group with a transvection per root; oracle for zip_generators.

    (1 + E_ij, 1) for each root ij of the radical of P', (1, 1 + E_ij) for
    each root of the radical of P, and per Levi block the scaling (l, F(l))
    with l = diag(t, 1, ..., 1), then (1 + E_ij, 1 + E_ij) for each ordered
    pair i != j inside the block.
    """
    ff = _points_field(datum, ext)
    n = datum.n
    classes = datum.classes
    k = datum.frob_power
    one = mat_identity(n)

    def elementary(i, j, c):
        return tuple(
            tuple(c if (a, b) == (i, j) else one[a][b] for b in range(n))
            for a in range(n)
        )

    pairs = [(elementary(i, j, 1), one) for i, j in _block_positions(classes, n, operator.gt)]
    pairs += [(one, elementary(i, j, 1)) for i, j in _block_positions(classes, n, operator.lt)]
    for cls in classes:
        levis = [elementary(cls[0], cls[0], ff.generator)]
        levis += [elementary(i, j, 1) for i in cls for j in cls if i != j]
        pairs += [(l, mat_frobenius(ff, l, k)) for l in levis]
    return tuple(pairs)


def layer_zip_order(layer, Q: int) -> int:
    """|E| of one layer of the reduction over F_Q, from the layer's own Levi classes.

    Each radical has (|block|^2 - sum of |Levi class|^2) / 2 roots per
    ambient block; oracle for zip_group_order at the top layer.
    """
    roots = 2 * sum(len(cls) ** 2 for cls in layer.classes)
    roots -= sum(len(cls) ** 2 for cls in layer.p_levi + layer.pp_levi)
    return Q ** (roots // 2) * prod(gl_order(len(cls), Q) for cls in layer.pp_levi)


def coset_forms_by_prefix(ff: FiniteField, classes):
    """The coset forms of U' in GL_n, each prefix row-reduced and its blocks listed anew.

    Oracle for grouplab._coset_forms: the rows of each class are independent
    vectors vanishing at the pivots of the rows before it, in `_iter_gl`
    order.
    """
    n = sum(map(len, classes))
    scalars = range(ff.order)

    def extend(rows, k):
        if k == len(classes):
            yield _flat(rows)
            return
        _, pivots = _row_reduce(ff, [list(r) for r in rows])
        free = itertools.product(*((0,) if c in pivots else scalars for c in range(n)))
        for block in _iter_gl(n, ff, free, len(classes[k])):
            yield from extend(rows + block, k + 1)

    return extend((), 0)


def field_product(field: FiniteField, a: int, b: int) -> int:
    """a * b on digit lists, one polynomial product and reduction; oracle for the tables."""
    digits = _coeff_mul(field._digits(a), field._digits(b), field.modulus, field.p)
    return field._from_digits(digits)


def ascending_space_at(stored, n: int, i: int) -> Mat:
    """An ascending filtration, stored as sorted (weight, space) jumps, read at weight i."""
    out = tuple(() for _ in range(n))
    for j, mat in stored:
        if j > i:
            break
        out = mat
    return out


def newton_inverse(ring, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a unit given by its coefficients, on coefficient tuples.

    Oracle for GaloisRingElement.inverse: the residue-field inverse, lifted
    by v -> v (2 - a v) with `_coeff_mul` modulo (p**m, modulus).
    """
    ff, q, d = ring.residue_field, ring.char, ring.d
    one = (1,) + (0,) * (d - 1)
    residue = sum(c % ring.p * ring.p**k for k, c in enumerate(coeffs))
    v = ff.coeffs_of(ff.inv(residue))
    for _ in range(ring.m.bit_length() + 2):
        prod = _coeff_mul(coeffs, v, ring.modulus, q)
        if prod == one:
            return v
        two_minus = tuple((2 * o - c) % q for o, c in zip(one, prod))
        v = _coeff_mul(v, two_minus, ring.modulus, q)
    raise InvariantError("the Newton inverse iteration did not converge")


def newton_rmat_inv(ring, a):
    """Invert by lifting the residue inverse and running the Newton iteration; oracle for rmat_inv."""
    n = len(a)
    ff = ring.residue_field
    r = residue_matrix(ring, a)
    if not mat_is_invertible(ff, r):
        raise ValueError("the matrix is singular modulo p")
    x = tuple(
        tuple(ring.element(ff.coeffs_of(v)) for v in row) for row in mat_inv(ff, r)
    )
    ident = rmat_identity(ring, n)
    two_i = tuple(tuple(v * 2 for v in row) for row in ident)
    for _ in range(ring.m.bit_length() + 2):
        ax = rmat_mul(ring, a, x)
        if ax == ident:
            return x
        x = rmat_mul(ring, x, tuple(tuple(u - v for u, v in zip(ri, rj)) for ri, rj in zip(two_i, ax)))
    raise InvariantError("the Newton matrix inverse did not converge")
