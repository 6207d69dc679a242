"""Finite-group laboratory for zip data on general linear groups.

A group-level zip datum on GL_n pairs a lower block parabolic P' with an
upper block parabolic P of the same block sizes and couples them through the
entrywise Frobenius on the common Levi.  The Levi set I and the twist fix
the datum: the type J of P' is the mirror of I.  The zip group

    E = {(p', p) in P' x P : frobenius(levi part of p') = levi part of p}

acts on GL_n by g -> p' g p^{-1}.  This module enumerates points of GL_n
and its block parabolics, runs exact orbit censuses over small fields,
locates the Bruhat cell of a matrix from its block rank profile, reduces a
stratum to a smaller zip datum one layer down, and solves Lang's equation
h^{-1} F(h) = g from the norm of g and the Frobenius-fixed rows.

The radical U' of P' is normal in E and acts freely on the left, so a zip
orbit is a union of cosets U'g.  The census and the orbit search walk one
canonical form per coset, its least point, with E's other generators
compiled to moves of the orbit engine in `orbits`; the census enumerates the
forms directly instead of the points of GL_n.

The radicals U' and U have the datum's one radical dimension, the number
of entries below the Levi blocks.  |U'|, |E| = |U'| |L| |U| and a stratum's
point count over F_Q, an integer polynomial in Q shifted by that dimension
plus the length of its label, all read it; the polynomial's degree is the
stratum's dimension.  Each layer of the reduction stores its two parabolics
as keys, one int per index, which makes every pattern a preorder total on
each ambient block.

Everything is exact integer arithmetic; enumerations and row scans refuse to
start when the predicted size passes coxeter.ENUMERATION_GUARD.
"""

from __future__ import annotations

import itertools
import operator
from copy import copy
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .coxeter import (
    ENUMERATION_GUARD,
    InvariantError,
    ParabolicType,
    TooLarge,
    WeylElement,
    WeylGroup,
    create_weyl,
    has_left_descent_in,
    min_coset_reps,
)
from .ffield import (
    FiniteField,
    Mat,
    get_field,
    gl_order,
    mat_embed,
    mat_frobenius,
    mat_identity,
    mat_inv,
    mat_mul,
    prime_power,
    _leading_block_ranks,
    _row_reduce,
)
from .orbits import (
    _Form,
    _Op,
    _compile_moves,
    _elementary_entry,
    _flat,
    _orbit_partition,
    _walk_orbit,
)
from .zipdatum import ZipCombinatorics, zip_from_cocharacter


# ---------------------------------------------------------------------------
# block combinatorics
# ---------------------------------------------------------------------------


def _levi_classes(n: int, I: ParabolicType) -> tuple[tuple[int, ...], ...]:
    """Contiguous 0-based index classes of the block structure with Levi set I."""
    classes: list[list[int]] = [[0]]
    for pos in range(1, n):
        if pos in I.indices:
            classes[-1].append(pos)
        else:
            classes.append([pos])
    return tuple(tuple(c) for c in classes)


def levi_of_blocks(blocks: Sequence[int]) -> ParabolicType:
    """The Levi set I of diagonal blocks of these sizes: the simple indices but the running sums.

    _levi_classes is its inverse.
    """
    cuts = set(itertools.accumulate(blocks))
    return ParabolicType.of(i for i in range(1, sum(blocks)) if i not in cuts)


def _class_ids(classes: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    ids = [0] * n
    for k, cls in enumerate(classes):
        for i in cls:
            ids[i] = k
    return tuple(ids)


def _block_positions(
    classes: Sequence[Sequence[int]], n: int, keep: Callable[[int, int], bool]
) -> list[tuple[int, int]]:
    """The positions (i, j), row by row, whose block indices satisfy keep(block(i), block(j))."""
    ids = _class_ids(classes, n)
    return [(i, j) for i in range(n) for j in range(n) if keep(ids[i], ids[j])]


# ---------------------------------------------------------------------------
# permutations (0-based tuples, composed as functions)
# ---------------------------------------------------------------------------


def _perm_compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_inverse(a: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _perm_of_element(w: WeylElement) -> tuple[int, ...]:
    return tuple(v - 1 for v in w.window)


def _element_of_perm(group: WeylGroup, perm: Sequence[int]) -> WeylElement:
    return group.element(tuple(v + 1 for v in perm))


def _double_coset_min(
    counts: Sequence[Sequence[int]],
    left: Sequence[Sequence[int]],
    right: Sequence[Sequence[int]],
) -> tuple[int, ...]:
    """The shortest permutation nu with counts[a][b] = #{j in right[b] : nu(j) in left[a]}.

    Both class lists must be consecutive intervals covering range(n) in order;
    then the permutations with these block counts form one double coset
    W_left . nu . W_right, and its shortest element is the unique one that is
    increasing on each right class with an inverse increasing on each left
    class: each right class in turn takes the least unused values of each left
    class.  For other set partitions the shortest element need not be unique,
    so they are refused.
    """
    n = sum(len(cls) for cls in left)
    for classes in (left, right):
        if list(itertools.chain.from_iterable(classes)) != list(range(n)):
            raise InvariantError("double coset classes must be consecutive intervals")
    if (
        any(c < 0 for row in counts for c in row)
        or [sum(row) for row in counts] != [len(cls) for cls in left]
        or [sum(col) for col in zip(*counts)] != [len(cls) for cls in right]
    ):
        raise InvariantError("the block counts are not those of a permutation")
    nxt = [cls[0] for cls in left]  # the least unused value of each left class
    nu: list[int] = []
    for b in range(len(right)):
        for a, row in enumerate(counts):
            nu.extend(range(nxt[a], nxt[a] + row[b]))
            nxt[a] += row[b]
    return tuple(nu)


# ---------------------------------------------------------------------------
# the datum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZipDatumGroupLevel:
    """A Frobenius zip datum on GL_n over a finite base field.

    I is the set of simple indices inside the diagonal blocks; P' is the lower
    block parabolic and P the upper block parabolic with those blocks, so the
    type J of P', measured from the standard frame, is the mirror image of I
    across the diagram.  frob_power is the exponent e of the twist
    x -> x**(p**e); None stands for the relative Frobenius of the base field
    and is stored as its degree.
    """

    n: int
    field: FiniteField
    I: ParabolicType
    frob_power: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("the matrix size must be at least 2")
        object.__setattr__(self, "I", ParabolicType.of(self.I))
        self.I.validate(self.weyl)
        if self.frob_power is None:
            object.__setattr__(self, "frob_power", self.field.degree)
        elif self.frob_power < 0:
            raise ValueError("the Frobenius exponent cannot be negative")

    @cached_property
    def weyl(self) -> WeylGroup:
        return create_weyl("A", self.n - 1)

    @property
    def J(self) -> ParabolicType:
        return ParabolicType.of(self.n - i for i in self.I.indices)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return _levi_classes(self.n, self.I)

    @cached_property
    def radical_dim(self) -> int:
        """dim U' = dim U: the entries below the Levi blocks, (n^2 - sum of b^2) / 2."""
        return (self.n**2 - sum(len(cls) ** 2 for cls in self.classes)) // 2

    def shadow(self) -> ZipCombinatorics:
        """The Weyl-group combinatorics attached to this datum."""
        z = zip_from_cocharacter(self.weyl, self.I, gl_center=True)
        if z.J != self.J:
            raise InvariantError("the combinatorial shadow must have the datum's J")
        return z


def make_zip_datum(
    n: int,
    field: FiniteField,
    I: "ParabolicType | Iterable[int]",
    frob_power: Optional[int] = None,
) -> ZipDatumGroupLevel:
    """The datum on GL_n with Levi set I; the default twist is the base field's Frobenius."""
    return ZipDatumGroupLevel(n, field, I, frob_power)


def _points_field(datum: ZipDatumGroupLevel, ext: int) -> FiniteField:
    if ext < 1:
        raise ValueError("the extension degree must be positive")
    if ext == 1:
        return datum.field
    return get_field(datum.field.p, datum.field.degree * ext)


# ---------------------------------------------------------------------------
# point enumeration
# ---------------------------------------------------------------------------


def _iter_gl(
    n: int, field: FiniteField, vectors: Iterable[tuple[int, ...]], count: int = 0
) -> Iterator[Mat]:
    """Tuples of `count` (n if 0) independent rows drawn from `vectors`, in their order.

    A subsequence of the candidates yields a subsequence of the matrices, in
    the same order.  The tee generates the candidates once, and every row
    restarts from a copy of its start.
    """
    first = itertools.tee(vectors, 1)[0]
    zero = (0,) * n

    def extend(rows: tuple[tuple[int, ...], ...]) -> Iterator[Mat]:
        if len(rows) == (count or n):
            yield rows
            return
        span = {zero}
        if rows:
            for coefs in itertools.product(range(field.order), repeat=len(rows)):
                v = zero
                for c, r in zip(coefs, rows):
                    if c:
                        v = tuple(
                            field.add(vi, field.mul(c, ri)) for vi, ri in zip(v, r)
                        )
                span.add(v)
        for v in copy(first):
            if v not in span:
                yield from extend(rows + (v,))

    yield from extend(())


def gl_points(n: int, field: FiniteField) -> tuple[Mat, ...]:
    """All invertible n-by-n matrices over the field, in a fixed order."""
    _require_enumerable_gl(n, field)
    return tuple(_iter_gl(n, field, itertools.product(range(field.order), repeat=n)))


def _require_enumerable_gl(n: int, field: FiniteField) -> None:
    total = gl_order(n, field.order)
    if total > ENUMERATION_GUARD:
        raise TooLarge(f"GL_{n} over a field of {field.order} elements has {total} points")


def parabolic_points(
    n: int,
    field: FiniteField,
    subset: "ParabolicType | Iterable[int]",
    lower: bool = False,
) -> tuple[Mat, ...]:
    """Points of the upper (or lower) block parabolic with Levi set `subset`."""
    subset = ParabolicType.of(subset)
    classes = _levi_classes(n, subset)
    strict = _block_positions(classes, n, operator.gt if lower else operator.lt)
    total = field.order ** len(strict)
    for cls in classes:
        total *= gl_order(len(cls), field.order)
    if total > ENUMERATION_GUARD:
        raise TooLarge(f"the parabolic has {total} points")
    blocks = [gl_points(len(cls), field) for cls in classes]
    out = []
    for levis in itertools.product(*blocks):
        base = [[0] * n for _ in range(n)]
        for cls, blk in zip(classes, levis):
            for a, i in enumerate(cls):
                for b, j in enumerate(cls):
                    base[i][j] = blk[a][b]
        out.extend(_fillings(base, strict, field.order))
    return tuple(out)


def _fillings(
    base: Sequence[Sequence[int]], positions: Sequence[tuple[int, int]], order: int
) -> Iterator[Mat]:
    """base with every choice of codes at `positions`, in product order."""
    for values in itertools.product(range(order), repeat=len(positions)):
        m = [list(row) for row in base]
        for (i, j), v in zip(positions, values):
            m[i][j] = v
        yield tuple(tuple(r) for r in m)


def _levi_part(m: Mat, classes: Sequence[Sequence[int]], n: int) -> Mat:
    ids = _class_ids(classes, n)
    return tuple(
        tuple(m[i][j] if ids[i] == ids[j] else 0 for j in range(n))
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# orbit census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitRecord:
    rep: Mat
    size: int
    stabilizer_order: int
    cell: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class OrbitCensus:
    ext: int
    group_order: int
    orbits: tuple[OrbitRecord, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(o.size for o in self.orbits)

    def cell_totals(self) -> dict[tuple[int, ...], int]:
        totals: dict[tuple[int, ...], int] = {}
        for o in self.orbits:
            if o.cell is None:
                raise ValueError("census has no cell labels")
            totals[o.cell] = totals.get(o.cell, 0) + o.size
        return totals


def zip_group_order(datum: ZipDatumGroupLevel, ext: int = 1) -> int:
    """|E| over the degree-`ext` extension: |U'| * |L| * |U|, from its closed form."""
    if ext < 1:
        raise ValueError("the extension degree must be positive")
    Q = datum.field.order**ext
    return Q ** (2 * datum.radical_dim) * prod(gl_order(len(cls), Q) for cls in datum.classes)


def zip_orbit_census(datum: ZipDatumGroupLevel, ext: int = 1) -> OrbitCensus:
    """Partition GL_n(F_{q^ext}) into zip-group orbits.

    The radical U' of P' is normal in E and acts freely on the left, so each
    orbit is a union of cosets U'g of |U'| points.  The census walks one
    canonical form per coset (`_coset_form`, the coset's least point) under
    the moves compiled from the other generators of `zip_generators`: one
    row or column operation (or a pair of them) each, read from integer-coded
    tables.  The forms are enumerated directly in increasing order
    (`_coset_forms`), and each orbit is seeded at the least uncovered one,
    which is its least point.  An orbit has |U'| times as many points as
    cosets, and its stabilizer order is |E| / |orbit| with |E| from its
    closed form.  The census refuses, before listing any form, when the
    |GL_n| / |U'| forms pass ENUMERATION_GUARD.
    """
    ff = _points_field(datum, ext)
    n = datum.n
    total = gl_order(n, ff.order)
    radical = ff.order**datum.radical_dim
    if (cosets := total // radical) > ENUMERATION_GUARD:
        raise TooLarge(f"GL_{n} over a field of {ff.order} elements has {cosets} cosets of U'")
    order_e = zip_group_order(datum, ext)
    moves = _zip_moves(datum, ext)
    forms = tuple(_coset_forms(ff, datum.classes))
    if len(forms) * radical != total:
        raise InvariantError("the cosets of U' do not exhaust GL_n")
    records = []
    for seed, orbit in _orbit_partition(
        moves, forms, order_e, _coset_form(ff, datum.classes), radical
    ):
        rep = tuple(seed[i * n:(i + 1) * n] for i in range(n))
        cell = bruhat_cell(datum, rep, ext).reduced_word()
        size = radical * len(orbit)
        records.append(OrbitRecord(rep, size, order_e // size, cell))
    records.sort(key=lambda r: (r.size, r.rep))
    return OrbitCensus(ext, total, tuple(records))


def stabilizer(
    datum: ZipDatumGroupLevel, g: Mat, ext: int = 1
) -> tuple[tuple[Mat, Mat], ...]:
    """All zip-group pairs fixing an invertible g under (p', p) . g = p' g p^{-1}.

    p' g p^{-1} = g exactly when p = g^{-1} p' g, so each p' of the lower
    parabolic P' fixes g with at most one p.  That p lies in E when it agrees
    with F(levi part of p') on the Levi blocks and zero below them.  This
    takes |P'| products instead of a scan of all |E| pairs.  The pairs come
    in the order of `parabolic_points(..., lower=True)`.
    """
    ff = _points_field(datum, ext)
    n = datum.n
    classes = datum.classes
    pinned = _block_positions(classes, n, operator.ge)
    try:
        g_inv = mat_inv(ff, g)
    except ZeroDivisionError:
        raise ValueError("the stabilizer is taken in GL_n: g must be invertible") from None
    out = []
    for pp in parabolic_points(n, ff, datum.I, lower=True):
        p = mat_mul(ff, mat_mul(ff, g_inv, pp), g)
        levi = mat_frobenius(ff, _levi_part(pp, classes, n), datum.frob_power)
        if all(p[i][j] == levi[i][j] for i, j in pinned):
            out.append((pp, p))
    return tuple(out)


# ---------------------------------------------------------------------------
# Bruhat cells from rank profiles
# ---------------------------------------------------------------------------


def bruhat_cell(datum: ZipDatumGroupLevel, g: Mat, ext: int = 1) -> WeylElement:
    """The double coset label of g in P' \\ GL_n / P, from block rank profiles.

    Left multiplication by the lower block parabolic preserves the spans of the
    leading row blocks and right multiplication by the upper block parabolic
    preserves the spans of the leading column blocks, so the ranks r(a, b) of
    the leading a-by-b block submatrices are a complete coset invariant.  For
    a permutation matrix, r(a, b) counts the ones in those blocks, so the
    number of ones in row block a and column block b is
    N[a][b] = r(a, b) - r(a-1, b) - r(a, b-1) + r(a-1, b-1), and the label is
    the shortest permutation with these block counts.  A profile that is not
    a permutation's (g singular) raises InvariantError.
    """
    ff = _points_field(datum, ext)
    classes = datum.classes
    prefixes = [0]
    for cls in classes:
        prefixes.append(prefixes[-1] + len(cls))
    rank = _leading_block_ranks(ff, g, prefixes)
    counts = [
        [
            rank[a + 1][b + 1] - rank[a][b + 1] - rank[a + 1][b] + rank[a][b]
            for b in range(len(classes))
        ]
        for a in range(len(classes))
    ]
    nu = _double_coset_min(counts, classes, classes)
    return _element_of_perm(datum.weyl, nu)


# ---------------------------------------------------------------------------
# layer-by-layer reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Layer:
    """One layer of the reduction: a zip datum inside the product of GL blocks `classes`.

    Each parabolic is a key with one int per index: P allows the entry (i, j)
    exactly when i and j share a block and p_key[i] <= p_key[j], and P'
    likewise with pp_key, so every pattern is a preorder total on each block.
    Its Levi classes are the indices sharing both a block and a key, and the
    twist carries the P' Levi classes onto the P Levi classes.
    """

    classes: tuple[tuple[int, ...], ...]
    p_key: tuple[int, ...]
    pp_key: tuple[int, ...]
    twist_perm: tuple[int, ...]
    twist_power: int

    @cached_property
    def ambient_ids(self) -> tuple[int, ...]:
        return _class_ids(self.classes, len(self.p_key))

    def _levi(self, key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        # the indices sharing a block and a key, each class increasing, ordered by least index
        classes: dict[tuple[int, int], list[int]] = {}
        for i, block_and_key in enumerate(zip(self.ambient_ids, key)):
            classes.setdefault(block_and_key, []).append(i)
        return tuple(tuple(cls) for cls in classes.values())

    @cached_property
    def p_levi(self) -> tuple[tuple[int, ...], ...]:
        return self._levi(self.p_key)

    @cached_property
    def pp_levi(self) -> tuple[tuple[int, ...], ...]:
        return self._levi(self.pp_key)

    def is_terminal(self) -> bool:
        return self.p_levi == self.classes == self.pp_levi


def _top_layer(datum: ZipDatumGroupLevel) -> _Layer:
    # one ambient block; P is upper and P' lower block triangular
    blocks = _class_ids(datum.classes, datum.n)
    whole = tuple(range(datum.n))
    return _Layer((whole,), blocks, tuple(-b for b in blocks), whole, datum.frob_power)


def _cell_normal_form(
    layer: _Layer, x: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Write x = a' o nu o a with a' in the left Levi and a in the right Levi.

    nu is the shortest permutation of the double coset, read off the block
    counts N[a][b] = #{j in right class b : x(j) in left class a}.  a' is the
    lexicographically least left factor: each u of a left class takes the
    least unused v of that class with x^{-1}(v) in the right class of
    nu^{-1}(u).  Returns nu and the reduced element lambda =
    a o (sigma a' sigma^{-1}), which indexes the orbit at the next layer.
    """
    n = len(x)
    left, right = layer.pp_levi, layer.p_levi
    left_ids = _class_ids(left, n)
    right_ids = _class_ids(right, n)
    x_inv = _perm_inverse(x)
    # the values v of each block (left class of v, right class of x^{-1}(v)), increasing
    pools: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        pools.setdefault((left_ids[v], right_ids[x_inv[v]]), []).append(v)
    counts = [
        [len(pools.get((a, b), ())) for b in range(len(right))] for a in range(len(left))
    ]
    nu = _double_coset_min(counts, left, right)
    nu_inv = _perm_inverse(nu)
    unused = {key: iter(vs) for key, vs in pools.items()}
    a_prime = tuple(next(unused[left_ids[u], right_ids[nu_inv[u]]]) for u in range(n))
    a = _perm_compose(nu_inv, _perm_compose(_perm_inverse(a_prime), x))
    sigma = layer.twist_perm
    lam = _perm_compose(a, _perm_compose(sigma, _perm_compose(a_prime, _perm_inverse(sigma))))
    return nu, lam


def _reduce_step(layer: _Layer, x: tuple[int, ...]) -> tuple[_Layer, tuple[int, ...], int]:
    """The next layer, the reduced element and the dimension k of the kernel step.

    The next layer lives on the P Levi classes, with the keys
    q_key[sigma(v)] = p_key[nu^{-1}(v)] and qp_key[u] = pp_key[nu(u)] and the
    twist sigma o nu.  k counts the pairs (i, j) of one ambient block with
    pp_key[i] < pp_key[j] and p_key[nu^{-1}(i)] < p_key[nu^{-1}(j)]: the
    roots of the radical of P' that nu^{-1} carries into the radical of P.
    """
    nu, lam = _cell_normal_form(layer, x)
    n = len(nu)
    sigma, p_key, pp_key = layer.twist_perm, layer.p_key, layer.pp_key
    nu_inv = _perm_inverse(nu)
    q_key = [0] * n
    for v in range(n):
        q_key[sigma[v]] = p_key[nu_inv[v]]
    qp_key = tuple(pp_key[nu[u]] for u in range(n))
    nxt = _Layer(layer.p_levi, tuple(q_key), qp_key, _perm_compose(sigma, nu), layer.twist_power)
    tau = nxt.twist_perm
    if tuple(sorted(tuple(sorted(tau[i] for i in cls)) for cls in nxt.pp_levi)) != nxt.p_levi:
        raise InvariantError(
            "the next layer's twist does not carry its P' Levi classes onto its P Levi classes"
        )
    blocks = nxt.ambient_ids
    if any(blocks[lam[i]] != blocks[i] for i in range(n)):
        raise InvariantError("the reduced element leaves the next layer's ambient blocks")
    amb = layer.ambient_ids
    k = sum(1 for i in range(n) for j in range(n) if amb[i] == amb[j]
            and pp_key[i] < pp_key[j] and p_key[nu_inv[i]] < p_key[nu_inv[j]])
    return nxt, lam, k


@dataclass(frozen=True)
class ReductionStep:
    """One reduction step: the next-layer datum and the reduced element."""

    ambient: tuple[tuple[int, ...], ...]
    p_pattern: frozenset
    p_prime_pattern: frozenset
    twist_perm: tuple[int, ...]
    twist_power: int
    element: tuple[int, ...]
    kernel_dim: int
    terminal: bool


@lru_cache(maxsize=None)
def _twist_element(datum: ZipDatumGroupLevel) -> WeylElement:
    return datum.shadow().theta0


def _stratum_rep_perm(datum: ZipDatumGroupLevel, w: WeylElement) -> tuple[int, ...]:
    # the stratum of w contains the permutation matrix of w * theta0
    return _perm_of_element(w * _twist_element(datum))


def stratum_rep(datum: ZipDatumGroupLevel, w: WeylElement) -> Mat:
    """The permutation matrix of w * theta0, a point of the stratum labelled w."""
    _require_stratum_label(datum, w)
    perm = _stratum_rep_perm(datum, w)
    return tuple(tuple(int(perm[j] == i) for j in range(datum.n)) for i in range(datum.n))


def reduce_datum(datum: ZipDatumGroupLevel, w: WeylElement) -> ReductionStep:
    """Reduce the stratum labelled w to its zip datum one layer down."""
    _require_stratum_label(datum, w)
    nxt, lam, k = _reduce_step(_top_layer(datum), _stratum_rep_perm(datum, w))

    def pattern(key: tuple[int, ...]) -> frozenset:
        # the positions (i, j) of one ambient block with key[i] <= key[j]
        return frozenset(
            (i, j) for cls in nxt.classes for i in cls for j in cls if key[i] <= key[j]
        )

    return ReductionStep(
        nxt.classes,
        pattern(nxt.p_key),
        pattern(nxt.pp_key),
        nxt.twist_perm,
        nxt.twist_power,
        tuple(v + 1 for v in lam),
        k,
        nxt.is_terminal(),
    )


def _require_stratum_label(datum: ZipDatumGroupLevel, w: WeylElement) -> None:
    if w.group != datum.weyl:
        raise ValueError("label belongs to the wrong Weyl group")
    if has_left_descent_in(w, datum.I):
        raise ValueError("stratum labels are minimal coset representatives for I")


@lru_cache(maxsize=None)
def _levi_polynomial(blocks: tuple[int, ...]) -> tuple[int, ...]:
    # the coefficients of the product of gl_order(b, Q) = prod_{k < b} (Q^b - Q^k)
    poly = [1]
    for b in blocks:
        for k in range(b):
            nxt = [0] * (len(poly) + b)
            for j, c in enumerate(poly):
                nxt[j + b] += c
                nxt[j + k] -= c
            poly = nxt
    return tuple(poly)


def _evaluate(poly: Sequence[int], Q: int) -> int:
    value = 0
    for c in reversed(poly):
        value = value * Q + c
    return value


def stratum_point_polynomial(datum: ZipDatumGroupLevel, w: WeylElement) -> tuple[int, ...]:
    """The stratum of w's point count over F_Q as integer coefficients of Q^0, Q^1, ...

    The count is |P(F_Q)| Q^l(w) = Q^(dim U + l(w)) times the product of
    |GL_b(F_Q)| over the Levi blocks.  E is connected and each point
    stabilizer is a connected unipotent group of dimension dim G - dim P -
    l(w) extended by a finite group (Pink-Wedhorn-Ziegler, Algebraic zip
    data), so by Lang's theorem the stratum has |E(F_Q)| Q^-(that dimension)
    points.  The degree dim P + l(w) is the stratum's dimension.
    """
    _require_stratum_label(datum, w)
    shift = datum.radical_dim + w.length
    return (0,) * shift + _levi_polynomial(tuple(len(cls) for cls in datum.classes))


def stratum_point_count(datum: ZipDatumGroupLevel, w: WeylElement, ext: int = 1) -> int:
    """Exact number of points of the stratum of w over the degree-ext extension."""
    if ext < 1:
        raise ValueError("the extension degree must be positive")
    return _evaluate(stratum_point_polynomial(datum, w), datum.field.order**ext)


def stratum_point_counts(
    datum: ZipDatumGroupLevel, ext: int = 1
) -> tuple[tuple[WeylElement, int], ...]:
    """Point counts for every stratum; their sum must exhaust the group."""
    carrier = min_coset_reps(datum.weyl, datum.I)
    counts = tuple((w, stratum_point_count(datum, w, ext)) for w in carrier)
    Q = datum.field.order**ext
    if sum(c for _, c in counts) != gl_order(datum.n, Q):
        raise InvariantError("the stratum point counts do not sum to |GL_n(F_Q)|")
    return counts


# ---------------------------------------------------------------------------
# generators and orbit search (for classification over larger fields)
# ---------------------------------------------------------------------------


def zip_generators(
    datum: ZipDatumGroupLevel, ext: int = 1
) -> tuple[tuple[Mat, Mat], ...]:
    """A generating set of the zip group over the degree-`ext` extension.

    Pairs (p', p), in this order: (1 + E_{c+1,c}, 1), then (1, 1 + E_{c,c+1}),
    for the last index c of each Levi block but the last; then per Levi
    block the scaling (l, F(l)) with l = diag(t, 1, ..., 1) for the field
    generator t, and (l, F(l)) for l = 1 + E_{i,i+1} and 1 + E_{i+1,i} for
    each pair of consecutive indices of the block.

    They generate E.  The consecutive transvections and the scaling generate
    GL_k(F_Q): the transvections give permutations that move the scaling to
    every diagonal entry, the torus scales each root group by t_i / t_j over
    all of F_Q^*, which spans F_Q additively, and the consecutive root groups
    with the torus generate GL_k.  Levi conjugation carries the one root
    between blocks a and a+1 onto the whole (a+1, a) block of U', and
    commutators reach the farther blocks; U likewise, as F is bijective on
    L(F_Q).  No inverses are needed: in a finite group the closure of a point
    under the generators alone is its orbit.
    """
    ff = _points_field(datum, ext)
    n = datum.n
    classes = datum.classes
    k = datum.frob_power
    one = mat_identity(n)

    def elementary(i: int, j: int, c: int = 1) -> Mat:
        # the identity with entry (i, j) set to c
        return tuple(
            tuple(c if (a, b) == (i, j) else one[a][b] for b in range(n))
            for a in range(n)
        )

    cuts = [cls[-1] for cls in classes[:-1]]
    pairs = [(elementary(c + 1, c), one) for c in cuts]
    pairs += [(one, elementary(c, c + 1)) for c in cuts]
    for cls in classes:
        levis = [elementary(cls[0], cls[0], ff.generator)]
        levis += [elementary(a, b) for i in cls[:-1] for a, b in ((i, i + 1), (i + 1, i))]
        pairs += [(l, mat_frobenius(ff, l, k)) for l in levis]
    return tuple(pairs)


def zip_orbit_search(
    datum: ZipDatumGroupLevel,
    g: Mat,
    targets: Sequence[Mat],
    ext: int = 1,
    guard: int = ENUMERATION_GUARD,
) -> tuple[tuple[Mat, ...], int]:
    """Sweep the zip orbit of g, reporting which targets it meets.

    The sweep walks the canonical forms of the cosets U'h in the orbit, as
    the census does, starting from the form of g; a target is met when its
    form is walked.  Returns the targets found (in the order given) and the
    full orbit size, |U'| times the cosets; an orbit with more than `guard`
    points raises TooLarge.
    """
    ff = _points_field(datum, ext)
    radical = ff.order**datum.radical_dim
    form = _coset_form(ff, datum.classes)
    orbit = _walk_orbit(_zip_moves(datum, ext), form(_flat(g)), form, guard // radical)
    hits = tuple(t for t in targets if form(_flat(t)) in orbit)
    return hits, radical * len(orbit)


def _coset_form(ff: FiniteField, classes: Sequence[Sequence[int]]) -> _Form:
    """The least point of U'g, for flat row-major g.

    U' adds to each row of a Levi class any vector in the span of the rows
    of the classes before it.  The form reduces each row modulo an echelon
    basis of that span (empty for the first class), so it is zero at every
    pivot column.  Each nonzero vector of the span has its first nonzero
    entry at a pivot, where the form has 0 and any other point of the coset
    a nonzero code, so the form is the lexicographic minimum.  The reduced
    rows of a class vanish at the earlier pivots, so the union of the
    earlier classes' reduced row echelon bases of their own reduced rows,
    applied class by class, serves as that basis.  Each class but the last
    looks its basis up once, keyed by its rows, in a cache kept for the life
    of the returned function.
    """
    if len(classes) == 1:
        return tuple  # U' is trivial
    n = sum(map(len, classes))
    head = len(classes[0]) * n  # the first class has nothing to reduce by
    spans = [(cls[0] * n, (cls[-1] + 1) * n) for cls in classes[1:]]  # flat rows of each later class
    last = spans[-1][0]
    add, mul = ff.add, ff.mul
    bases: dict[tuple[int, ...], list] = {}  # (pivot, minus the basis row) by a class's rows

    def basis_of(rows: tuple[int, ...]) -> list:
        basis = bases.get(rows)
        if basis is None:
            echelon, pivots = _row_reduce(ff, [list(rows[j:j + n]) for j in range(0, len(rows), n)])
            basis = bases[rows] = [(c, [ff.neg(v) for v in r]) for c, r in zip(pivots, echelon)]
        return basis

    def form(x: Sequence[int]) -> tuple[int, ...]:
        out = tuple(x[:head])
        basis = basis_of(out)
        for start, stop in spans:
            for i in range(start, stop, n):
                row = x[i:i + n]
                for c, minus in basis:
                    if a := row[c]:
                        row = [add(v, mul(a, m)) for v, m in zip(row, minus)]
                out += tuple(row)
            if start != last:
                basis = basis + basis_of(out[start:])
        return out

    return form


def _coset_forms(ff: FiniteField, classes: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """The canonical forms of the cosets U'g in GL_n, flat and in increasing order.

    The rows of each class are independent vectors, in increasing order,
    that vanish at the pivots of the rows before the class.  Such a row lies
    in the span of the earlier rows only if it lies in that of the earlier
    rows of its class, so the block of a class is any independent tuple of
    these vectors, and the pivots of the rows up to it are the disjoint
    union of the earlier pivots and the block's own.  The blocks of a class
    and their pivots depend only on the earlier pivots, so they are listed
    once per pivot set (`_iter_gl`, whose order keeps the forms increasing),
    and no prefix is row-reduced; the last class needs no pivots.
    """
    n = sum(map(len, classes))
    scalars = range(ff.order)
    last = len(classes) - 1
    # per earlier pivot set, whose size fixes the class: (flat block, pivots up to it)
    listed: dict[frozenset[int], list[tuple[tuple[int, ...], frozenset[int]]]] = {}

    def blocks(k: int, pivots: frozenset[int]) -> list[tuple[tuple[int, ...], frozenset[int]]]:
        if pivots not in listed:
            free = itertools.product(*((0,) if c in pivots else scalars for c in range(n)))
            listed[pivots] = [
                (_flat(block), pivots if k == last else
                 pivots.union(_row_reduce(ff, [list(r) for r in block])[1]))
                for block in _iter_gl(n, ff, free, len(classes[k]))
            ]
        return listed[pivots]

    def extend(prefix: tuple[int, ...], k: int, pivots: frozenset[int]) -> Iterator[tuple[int, ...]]:
        if k == last:
            yield from (prefix + block for block, _ in blocks(k, pivots))
            return
        for block, upto in blocks(k, pivots):
            yield from extend(prefix + block, k + 1, upto)

    return extend((), 0, frozenset())


def _zip_moves(datum: ZipDatumGroupLevel, ext: int) -> tuple[tuple[_Op, ...], ...]:
    """The generators (p', p) of `zip_generators`, acting by g -> p' g p^{-1}, as moves.

    The pairs (p', 1) generate U', which fixes every coset U'g and is left
    out.  Over F_2 the Levi scaling is the identity pair and compiles to
    nothing.
    """
    ff = _points_field(datum, ext)
    one = mat_identity(datum.n)

    def inverse(m: Mat) -> Mat:
        # p differs from the identity in one entry; inverting that entry
        # alone keeps mat_inv out of each orbit search of classify
        i, j, c = _elementary_entry(m)
        c = ff.inv(c) if i == j else ff.neg(c)
        return tuple(
            tuple(c if (a, b) == (i, j) else v for b, v in enumerate(row))
            for a, row in enumerate(m)
        )

    pairs = ((pp, inverse(p)) for pp, p in zip_generators(datum, ext) if p != one)
    return _compile_moves(pairs, datum.n, ff.add, ff.mul, ff.order)


# ---------------------------------------------------------------------------
# Lang preimages
# ---------------------------------------------------------------------------


def lang_preimage(
    field: FiniteField,
    g: Mat,
    frob_power: Optional[int] = None,
    max_ext: int = 3,
) -> Optional[tuple[int, Mat]]:
    """Smallest extension solution h of h^{-1} F(h) = g, or None within the bound.

    F raises entries to the (p**frob_power)-th power; the default is the
    relative Frobenius of the base field.  The trivial twist collapses the
    equation to g = identity.
    """
    table = lang_preimage_table(field, (g,), frob_power, max_ext)
    return table[g]


def lang_preimage_table(
    field: FiniteField,
    targets: Sequence[Mat],
    frob_power: Optional[int] = None,
    max_ext: int = 3,
) -> dict[Mat, Optional[tuple[int, Mat]]]:
    """Batch Lang solver: the least level s <= max_ext and a witness per target.

    F has order m = d*s / gcd(k, d*s) on F_Q, Q = q**s, and h^{-1} F(h) = g
    has a solution over F_Q exactly when the norm g F(g) ... F^{m-1}(g) is 1
    (F^j(h) = h g F(g) ... F^{j-1}(g) forces it; Hilbert 90 for GL_n gives
    the converse); it is computed over the base field, where g lives.  The
    rows r of a solution satisfy F(r) = r g, and by Galois descent these fixed
    rows span F_Q^n, so the witness, the first basis of fixed rows in
    `gl_points` order, is found without backtracking.  Raises TooLarge when a
    row scan would pass ENUMERATION_GUARD.
    """
    if not targets:
        return {}
    k = field.degree if frob_power is None else frob_power
    n = len(targets[0])
    for t in targets:
        if len(t) != n or any(len(r) != n for r in t):
            raise ValueError("all targets must be n-by-n matrices")
    identity = mat_identity(n)
    if k == 0:
        return {t: (1, identity) if t == identity else None for t in targets}
    found: dict[Mat, Optional[tuple[int, Mat]]] = {t: None for t in targets}
    for s in range(1, max_ext + 1):
        m = field.degree * s // gcd(k, field.degree * s)
        for t in [t for t, hit in found.items() if hit is None]:
            norm = t
            for j in range(1, m):
                norm = mat_mul(field, norm, mat_frobenius(field, t, j * k))
            if norm != identity:
                continue
            rows = field.order ** (s * n)
            if rows > ENUMERATION_GUARD:
                raise TooLarge(f"F_{field.order ** s}^{n} has {rows} rows to scan")
            ff = get_field(field.p, field.degree * s)
            g = mat_embed(ff.embedding_from(field), t)
            fixed = (r for r in itertools.product(range(ff.order), repeat=n)
                     if mat_frobenius(ff, (r,), k) == mat_mul(ff, (r,), g))
            h = next(_iter_gl(n, ff, fixed), None)
            if h is None:
                raise InvariantError("the Frobenius-fixed rows of a norm-one target span no basis")
            found[t] = (s, h)
    return found


# ---------------------------------------------------------------------------
# the conjugation counterexample on 2-by-2 matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gl2Counterexample:
    """A conjugation orbit whose boundary jumps two dimensions at once.

    The regular unipotent class in GL_2 has q^2 - 1 rational points and
    dimension 2, sitting inside the 4-dimensional group; the fibre of the
    characteristic polynomial through it is the unipotent cone, which adds
    only the identity.  The closure therefore drops from dimension 2 to
    dimension 0 with nothing in between.
    """

    q: int
    orbit_sizes: tuple[int, int, int]
    orbit_dimension: int
    ambient_dimension: int
    codimension: int
    fiber_size: int
    jordan_of_orbit: tuple[int, ...]
    jordan_of_limit: tuple[int, ...]
    boundary_drop: int


def _unipotent_cone(field: FiniteField) -> set[tuple[int, ...]]:
    """The flat 2-by-2 matrices g with (g - 1)^2 = 0, from tr(g - 1) = det(g - 1) = 0.

    Every 2-by-2 matrix N satisfies N^2 = tr(N) N - det(N) 1, so N^2 = 0
    exactly when the trace and the determinant of N vanish.
    """
    add, mul = field.add, field.mul
    return {
        (add(a, 1), b, c, add(d, 1))
        for a, b, c, d in itertools.product(range(field.order), repeat=4)
        if add(a, d) == 0 and mul(a, d) == mul(b, c)
    }


def counterexample_gl2(q: int) -> Gl2Counterexample:
    """Certify the failure of one-step closures for conjugation on GL_2(F_q).

    The class of u = ((1, 1), (0, 1)) is walked with the orbit engine on the
    conjugations g -> l g l^{-1} by the two transvections of scalar 1 and
    diag(t, 1), which generate GL_2(F_q).
    """
    field = get_field(*prime_power(q))
    _require_enumerable_gl(2, field)  # the cone sweeps all q^4 matrices
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((field.generator, 0), (0, 1))]
    moves = _compile_moves(
        ((l, mat_inv(field, l)) for l in gens), 2, field.add, field.mul, field.order
    )
    orbit = _walk_orbit(moves, (1, 1, 0, 1), tuple)
    if len(orbit) != q * q - 1:
        raise InvariantError(f"the regular unipotent class has {len(orbit)} points, not q^2 - 1")
    identity = (1, 0, 0, 1)
    if identity in orbit:
        raise InvariantError("the regular unipotent class must not contain the identity")
    cone = _unipotent_cone(field)
    if cone != orbit | {identity}:
        raise InvariantError("the unipotent cone must be the class plus the identity")
    if len(cone) != q * q:
        raise InvariantError(f"the unipotent cone has {len(cone)} points, not q^2")
    for t in range(1, field.order):
        if (1, t, 0, 1) not in orbit:
            raise InvariantError(f"the unipotent ((1, {t}), (0, 1)) is missing from the class")
    # the walk found the class's q^2 - 1 points; over F_Q it has Q^2 - 1
    polynomial = (-1, 0, 1)
    sizes = tuple(_evaluate(polynomial, q**s) for s in (1, 2, 3))
    dim = len(polynomial) - 1
    return Gl2Counterexample(
        q=q,
        orbit_sizes=sizes,
        orbit_dimension=dim,
        ambient_dimension=4,
        codimension=4 - dim,
        fiber_size=q * q,
        jordan_of_orbit=(2,),
        jordan_of_limit=(1, 1),
        boundary_drop=2,
    )
