"""Finite-group laboratory for zip data on general linear groups.

A group-level zip datum on GL_n pairs a lower block parabolic P' with an
upper block parabolic P of the same block sizes and couples them through the
entrywise Frobenius on the common Levi.  The zip group

    E = {(p', p) in P' x P : frobenius(levi part of p') = levi part of p}

acts on GL_n by g -> p' g p^{-1}.  This module enumerates points of all the
groups involved, runs exact orbit censuses over small fields, locates the
Bruhat cell of a matrix from its block rank profile, reduces a stratum to a
smaller zip datum layer by layer, and turns exact point counts over a tower
of field extensions into dimension estimates.

Everything is exact integer arithmetic; enumerations refuse to start when the
predicted size passes EXHAUSTION_GUARD.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, log
from typing import Iterable, Iterator, Optional, Sequence

from .coxeter import (
    ParabolicType,
    WeylElement,
    WeylGroup,
    create_weyl,
    has_left_descent_in,
    min_coset_reps,
    min_double_coset_rep,
)
from .ffield import (
    FiniteField,
    Mat,
    get_field,
    gl_order,
    mat_frobenius,
    mat_identity,
    mat_inv,
    mat_is_invertible,
    mat_mul,
    mat_rank,
    prime_power,
)
from .zipdatum import ZipCombinatorics, dim_parabolic, zip_from_cocharacter

EXHAUSTION_GUARD = 2_000_000

Pattern = frozenset  # of 0-based (row, col) positions allowed to be nonzero


class TooLarge(ValueError):
    """An enumeration would exceed the exhaustion guard."""


class InconsistentGrowth(ValueError):
    """Point counts do not follow a single polynomial growth law."""


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


def _class_ids(classes: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    ids = [0] * n
    for k, cls in enumerate(classes):
        for i in cls:
            ids[i] = k
    return tuple(ids)


def _equiv_pattern(classes: Sequence[Sequence[int]]) -> Pattern:
    return frozenset(
        (i, j) for cls in classes for i in cls for j in cls
    )


def _upper_pattern(classes: Sequence[Sequence[int]], n: int) -> Pattern:
    ids = _class_ids(classes, n)
    return frozenset((i, j) for i in range(n) for j in range(n) if ids[i] <= ids[j])


def _lower_pattern(classes: Sequence[Sequence[int]], n: int) -> Pattern:
    ids = _class_ids(classes, n)
    return frozenset((i, j) for i in range(n) for j in range(n) if ids[i] >= ids[j])


def _transpose_pattern(pat: Pattern) -> Pattern:
    return frozenset((j, i) for i, j in pat)


def _levi_of(pat: Pattern) -> Pattern:
    return pat & _transpose_pattern(pat)


def _classes_of_equiv(pat: Pattern, n: int) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    out = []
    for i in range(n):
        if i in seen:
            continue
        cls = sorted(j for j in range(n) if (i, j) in pat)
        seen.update(cls)
        out.append(tuple(cls))
    return tuple(out)


def _map_pattern(perm: Sequence[int], pat: Pattern) -> Pattern:
    return frozenset((perm[i], perm[j]) for i, j in pat)


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


def _perm_inversions(a: Sequence[int]) -> int:
    return sum(
        1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j]
    )


def _perm_of_element(w: WeylElement) -> tuple[int, ...]:
    return tuple(v - 1 for v in w.window)


def _element_of_perm(group: WeylGroup, perm: Sequence[int]) -> WeylElement:
    return group.element(tuple(v + 1 for v in perm))


def _class_preserving_perms(
    classes: Sequence[Sequence[int]], n: int
) -> tuple[tuple[int, ...], ...]:
    count = 1
    for cls in classes:
        count *= factorial(len(cls))
    if count > 40_320:
        raise TooLarge(f"{count} class-preserving permutations is too many to scan")
    out = []
    for images in itertools.product(
        *[itertools.permutations(cls) for cls in classes]
    ):
        perm = [0] * n
        for cls, img in zip(classes, images):
            for pos, target in zip(cls, img):
                perm[pos] = target
        out.append(tuple(perm))
    return tuple(out)


# ---------------------------------------------------------------------------
# the datum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZipDatumGroupLevel:
    """A Frobenius zip datum on GL_n over a finite base field.

    I is the set of simple indices inside the diagonal blocks; P' is the lower
    block parabolic and P the upper block parabolic with those blocks.  J must
    be the mirror image of I across the diagram (the type of P' measured from
    the standard frame).  g0 shifts the base point of the orbit decomposition
    and frob_power is the exponent e of the twist x -> x**(p**e), defaulting
    to the relative Frobenius of the base field.
    """

    n: int
    field: FiniteField
    I: ParabolicType
    J: ParabolicType
    g0: Optional[Mat] = None
    frob_power: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("the matrix size must be at least 2")
        object.__setattr__(self, "I", ParabolicType.of(self.I))
        object.__setattr__(self, "J", ParabolicType.of(self.J))
        self.I.validate(self.weyl)
        mirror = frozenset(self.n - i for i in self.I.indices)
        if self.J.indices != mirror:
            raise ValueError(
                "J must be the mirror of I across the diagram: "
                f"expected {sorted(mirror)}, got {sorted(self.J.indices)}"
            )
        if self.g0 is not None:
            if len(self.g0) != self.n or any(len(r) != self.n for r in self.g0):
                raise ValueError("g0 must be an n-by-n matrix")
            if not mat_is_invertible(self.field, self.g0):
                raise ValueError("g0 must be invertible")
        if self.frob_power is not None and self.frob_power < 0:
            raise ValueError("the Frobenius exponent cannot be negative")

    @property
    def weyl(self) -> WeylGroup:
        return create_weyl("A", self.n - 1)

    @property
    def twist_exponent(self) -> int:
        return self.field.degree if self.frob_power is None else self.frob_power

    @property
    def base_point(self) -> Mat:
        return mat_identity(self.n) if self.g0 is None else self.g0

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return _levi_classes(self.n, self.I)

    def shadow(self) -> ZipCombinatorics:
        """The Weyl-group combinatorics attached to this datum."""
        z = zip_from_cocharacter(self.weyl, self.I, gl_center=True)
        assert z.J == self.J
        return z


def make_zip_datum(
    n: int,
    field: FiniteField,
    I: "ParabolicType | Iterable[int]",
    g0: Optional[Mat] = None,
    frob_power: Optional[int] = None,
) -> ZipDatumGroupLevel:
    """Convenience constructor deriving the mirrored J from I."""
    I = ParabolicType.of(I)
    J = ParabolicType.of(n - i for i in I.indices)
    return ZipDatumGroupLevel(n, field, I, J, g0, frob_power)


def _points_field(datum: ZipDatumGroupLevel, ext: int) -> FiniteField:
    if ext < 1:
        raise ValueError("the extension degree must be positive")
    if ext == 1:
        return datum.field
    return get_field(datum.field.p, datum.field.degree * ext)


# ---------------------------------------------------------------------------
# point enumeration
# ---------------------------------------------------------------------------


def _iter_gl(n: int, field: FiniteField) -> Iterator[Mat]:
    vectors = tuple(itertools.product(range(field.order), repeat=n))
    zero = vectors[0]

    def extend(rows: tuple[tuple[int, ...], ...]) -> Iterator[Mat]:
        if len(rows) == n:
            yield rows
            return
        if rows:
            span = set()
            for coefs in itertools.product(range(field.order), repeat=len(rows)):
                v = zero
                for c, r in zip(coefs, rows):
                    if c:
                        v = tuple(
                            field.add(vi, field.mul(c, ri)) for vi, ri in zip(v, r)
                        )
                span.add(v)
        else:
            span = {zero}
        for v in vectors:
            if v not in span:
                yield from extend(rows + (v,))

    yield from extend(())


def gl_points(n: int, field: FiniteField) -> tuple[Mat, ...]:
    """All invertible n-by-n matrices over the field, in a fixed order."""
    total = gl_order(n, field.order)
    if total > EXHAUSTION_GUARD:
        raise TooLarge(f"GL_{n} over a field of {field.order} elements has {total} points")
    return tuple(_iter_gl(n, field))


def parabolic_points(
    n: int,
    field: FiniteField,
    subset: "ParabolicType | Iterable[int]",
    lower: bool = False,
) -> tuple[Mat, ...]:
    """Points of the upper (or lower) block parabolic with Levi set `subset`."""
    subset = ParabolicType.of(subset)
    classes = _levi_classes(n, subset)
    pat = _lower_pattern(classes, n) if lower else _upper_pattern(classes, n)
    strict = sorted(pat - _equiv_pattern(classes))
    total = field.order ** len(strict)
    for cls in classes:
        total *= gl_order(len(cls), field.order)
    if total > EXHAUSTION_GUARD:
        raise TooLarge(f"the parabolic has {total} points")
    blocks = [gl_points(len(cls), field) for cls in classes]
    out = []
    for levis in itertools.product(*blocks):
        base = [[0] * n for _ in range(n)]
        for cls, blk in zip(classes, levis):
            for a, i in enumerate(cls):
                for b, j in enumerate(cls):
                    base[i][j] = blk[a][b]
        for values in itertools.product(range(field.order), repeat=len(strict)):
            m = [row[:] for row in base]
            for (i, j), v in zip(strict, values):
                m[i][j] = v
            out.append(tuple(tuple(r) for r in m))
    return tuple(out)


def _levi_part(m: Mat, classes: Sequence[Sequence[int]], n: int) -> Mat:
    ids = _class_ids(classes, n)
    return tuple(
        tuple(m[i][j] if ids[i] == ids[j] else 0 for j in range(n))
        for i in range(n)
    )


def zip_group_points(
    datum: ZipDatumGroupLevel, ext: int = 1
) -> tuple[tuple[Mat, Mat], ...]:
    """All pairs (p', p) of the zip group over the degree-`ext` extension."""
    ff = _points_field(datum, ext)
    n = datum.n
    classes = datum.classes
    upper_strict = sorted(_upper_pattern(classes, n) - _equiv_pattern(classes))
    lowers = parabolic_points(n, ff, datum.I, lower=True)
    total = len(lowers) * ff.order ** len(upper_strict)
    if total > EXHAUSTION_GUARD:
        raise TooLarge(f"the zip group has {total} points")
    k = datum.twist_exponent
    out = []
    for p_prime in lowers:
        levi = mat_frobenius(ff, _levi_part(p_prime, classes, n), k)
        for values in itertools.product(range(ff.order), repeat=len(upper_strict)):
            m = [list(row) for row in levi]
            for (i, j), v in zip(upper_strict, values):
                m[i][j] = v
            out.append((p_prime, tuple(tuple(r) for r in m)))
    return tuple(out)


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


def zip_orbit_census(datum: ZipDatumGroupLevel, ext: int = 1) -> OrbitCensus:
    """Partition GL_n(F_{q^ext}) into zip-group orbits by exhaustive sweep."""
    ff = _points_field(datum, ext)
    pairs = zip_group_points(datum, ext)
    acting = tuple((pp, mat_inv(ff, p)) for pp, p in pairs)
    remaining = set(gl_points(datum.n, ff))
    group_order = len(remaining)
    records = []
    while remaining:
        seed = min(remaining)
        orbit = {mat_mul(ff, mat_mul(ff, pp, seed), pinv) for pp, pinv in acting}
        assert seed in orbit and orbit <= remaining
        remaining -= orbit
        assert len(pairs) % len(orbit) == 0
        cell = bruhat_cell(datum, seed, ext).reduced_word()
        records.append(
            OrbitRecord(seed, len(orbit), len(pairs) // len(orbit), cell)
        )
    records.sort(key=lambda r: (r.size, r.rep))
    assert sum(r.size for r in records) == group_order
    return OrbitCensus(ext, group_order, tuple(records))


def stabilizer(
    datum: ZipDatumGroupLevel, g: Mat, ext: int = 1
) -> tuple[tuple[Mat, Mat], ...]:
    """All zip-group pairs fixing g under (p', p) . g = p' g p^{-1}."""
    ff = _points_field(datum, ext)
    out = []
    for pp, p in zip_group_points(datum, ext):
        if mat_mul(ff, mat_mul(ff, pp, g), mat_inv(ff, p)) == g:
            out.append((pp, p))
    return tuple(out)


# ---------------------------------------------------------------------------
# Bruhat cells from rank profiles
# ---------------------------------------------------------------------------


def bruhat_cell(datum: ZipDatumGroupLevel, g: Mat, ext: int = 1) -> WeylElement:
    """The double coset label of g in P' \\ GL_n / P, from block rank profiles.

    Left multiplication by the lower block parabolic preserves the spans of the
    leading row blocks and right multiplication by the upper block parabolic
    preserves the spans of the leading column blocks, so the profile of ranks
    of the leading-block submatrices is a complete coset invariant.
    """
    n = datum.n
    if n > 6:
        raise TooLarge("cell search scans all permutations; the size is capped at 6")
    ff = _points_field(datum, ext)
    classes = datum.classes
    prefixes = []
    acc = 0
    for cls in classes:
        acc += len(cls)
        prefixes.append(acc)

    def profile_matrix(m: Mat) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(
                mat_rank(ff, tuple(row[:c] for row in m[:r])) for c in prefixes
            )
            for r in prefixes
        )

    def profile_perm(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(sum(1 for j in range(c) if perm[j] < r) for c in prefixes)
            for r in prefixes
        )

    target = profile_matrix(g)
    matches = [
        perm
        for perm in itertools.permutations(range(n))
        if profile_perm(perm) == target
    ]
    assert matches, "every invertible matrix lies in some cell"
    nu = min(matches, key=lambda p: (_perm_inversions(p), p))
    side = _class_preserving_perms(classes, n)
    coset = {
        _perm_compose(a_prime, _perm_compose(nu, a))
        for a_prime in side
        for a in side
    }
    assert set(matches) == coset, "rank profile must cut out one double coset"
    group = datum.weyl
    return min_double_coset_rep(
        group, datum.I, _element_of_perm(group, nu), datum.I
    )


# ---------------------------------------------------------------------------
# layer-by-layer reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Layer:
    classes: tuple[tuple[int, ...], ...]
    p_pat: Pattern
    pp_pat: Pattern
    twist_perm: tuple[int, ...]
    twist_power: int

    def ambient_pattern(self) -> Pattern:
        return _equiv_pattern(self.classes)

    def is_terminal(self) -> bool:
        amb = self.ambient_pattern()
        return self.p_pat == amb and self.pp_pat == amb


def _check_preorder(pat: Pattern, n: int) -> None:
    for i in range(n):
        assert (i, i) in pat
    for i, j in pat:
        for k, l in pat:
            if j == k:
                assert (i, l) in pat


def _top_layer(datum: ZipDatumGroupLevel) -> _Layer:
    n = datum.n
    classes = datum.classes
    full = tuple([tuple(range(n))])
    return _Layer(
        full,
        _upper_pattern(classes, n),
        _lower_pattern(classes, n),
        tuple(range(n)),
        datum.twist_exponent,
    )


def _cell_normal_form(
    layer: _Layer, x: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Write x = a' o nu o a with a' in the left Levi and a in the right Levi.

    Returns the canonical (shortest) structural permutation nu of the double
    coset and the reduced element lambda = a o (sigma a' sigma^{-1}), which
    indexes the orbit at the next layer.
    """
    n = len(x)
    left = _class_preserving_perms(
        _classes_of_equiv(_levi_of(layer.pp_pat), n), n
    )
    right = _class_preserving_perms(
        _classes_of_equiv(_levi_of(layer.p_pat), n), n
    )
    coset = {
        _perm_compose(a_prime, _perm_compose(x, a))
        for a_prime in left
        for a in right
    }
    nu = min(coset, key=lambda p: (_perm_inversions(p), p))
    nu_inv = _perm_inverse(nu)
    right_ids = _class_ids(_classes_of_equiv(_levi_of(layer.p_pat), n), n)
    sigma = layer.twist_perm
    sigma_inv = _perm_inverse(sigma)
    for a_prime in left:
        a = _perm_compose(nu_inv, _perm_compose(_perm_inverse(a_prime), x))
        if all(right_ids[a[i]] == right_ids[i] for i in range(n)):
            lam = _perm_compose(a, _perm_compose(sigma, _perm_compose(a_prime, sigma_inv)))
            return nu, lam
    raise AssertionError("the double coset factorisation must exist")


def _reduce_layer(layer: _Layer, nu: tuple[int, ...]) -> _Layer:
    n = len(nu)
    levi_p = _levi_of(layer.p_pat)
    levi_pp = _levi_of(layer.pp_pat)
    sigma = layer.twist_perm
    nu_inv = _perm_inverse(nu)
    q_pat = _map_pattern(sigma, levi_pp & _map_pattern(nu, layer.p_pat))
    qp_pat = levi_p & _map_pattern(nu_inv, layer.pp_pat)
    classes2 = _classes_of_equiv(levi_p, n)
    twist2 = _perm_compose(sigma, nu)
    amb2 = _equiv_pattern(classes2)
    assert q_pat <= amb2 and qp_pat <= amb2
    _check_preorder(q_pat, n)
    _check_preorder(qp_pat, n)
    for i, j in amb2:
        assert (i, j) in q_pat or (j, i) in q_pat
        assert (i, j) in qp_pat or (j, i) in qp_pat
    assert _map_pattern(twist2, _levi_of(qp_pat)) == _levi_of(q_pat)
    return _Layer(classes2, q_pat, qp_pat, twist2, layer.twist_power)


def _layer_levi_order(pat: Pattern, n: int, Q: int) -> int:
    order = 1
    for cls in _classes_of_equiv(_levi_of(pat), n):
        order *= gl_order(len(cls), Q)
    return order


def _layer_zip_order(layer: _Layer, n: int, Q: int) -> int:
    u_prime = len(layer.pp_pat) - len(_levi_of(layer.pp_pat))
    u = len(layer.p_pat) - len(_levi_of(layer.p_pat))
    return Q**u_prime * _layer_levi_order(layer.pp_pat, n, Q) * Q**u


def _ambient_order(layer: _Layer, Q: int) -> int:
    order = 1
    for cls in layer.classes:
        order *= gl_order(len(cls), Q)
    return order


def _count_recursive(layer: _Layer, x: tuple[int, ...], Q: int, depth: int) -> int:
    n = len(x)
    assert depth <= 2 * n * n + 4, "layer reduction failed to terminate"
    if layer.is_terminal():
        return _ambient_order(layer, Q)
    nu, lam = _cell_normal_form(layer, x)
    u_pat = layer.p_pat - _levi_of(layer.p_pat)
    up_pat = layer.pp_pat - _levi_of(layer.pp_pat)
    k = len(up_pat & _map_pattern(nu, u_pat))
    nxt = _reduce_layer(layer, nu)
    numerator = _layer_zip_order(layer, n, Q) * _count_recursive(nxt, lam, Q, depth + 1)
    denominator = Q**k * _layer_zip_order(nxt, n, Q)
    assert numerator % denominator == 0
    return numerator // denominator


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


def reduce_datum(datum: ZipDatumGroupLevel, w: WeylElement) -> ReductionStep:
    """Reduce the stratum labelled w to its zip datum one layer down."""
    _require_stratum_label(datum, w)
    layer = _top_layer(datum)
    x = _stratum_rep_perm(datum, w)
    nu, lam = _cell_normal_form(layer, x)
    u_pat = layer.p_pat - _levi_of(layer.p_pat)
    up_pat = layer.pp_pat - _levi_of(layer.pp_pat)
    k = len(up_pat & _map_pattern(nu, u_pat))
    nxt = _reduce_layer(layer, nu)
    return ReductionStep(
        nxt.classes,
        nxt.p_pat,
        nxt.pp_pat,
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


def stratum_point_count(datum: ZipDatumGroupLevel, w: WeylElement, ext: int = 1) -> int:
    """Exact number of points of the stratum of w over the degree-ext extension."""
    _require_stratum_label(datum, w)
    if ext < 1:
        raise ValueError("the extension degree must be positive")
    Q = datum.field.order**ext
    x = _stratum_rep_perm(datum, w)
    return _count_recursive(_top_layer(datum), x, Q, 0)


def stratum_point_counts(
    datum: ZipDatumGroupLevel, ext: int = 1
) -> tuple[tuple[WeylElement, int], ...]:
    """Point counts for every stratum; their sum must exhaust the group."""
    carrier = min_coset_reps(datum.weyl, datum.I)
    counts = tuple((w, stratum_point_count(datum, w, ext)) for w in carrier)
    Q = datum.field.order**ext
    assert sum(c for _, c in counts) == gl_order(datum.n, Q)
    return counts


# ---------------------------------------------------------------------------
# generators and orbit search (for classification over larger fields)
# ---------------------------------------------------------------------------


def zip_generators(
    datum: ZipDatumGroupLevel, ext: int = 1
) -> tuple[tuple[Mat, Mat], ...]:
    """A generating set of the zip group, closed under inverses."""
    ff = _points_field(datum, ext)
    n = datum.n
    classes = datum.classes
    equiv = _equiv_pattern(classes)
    upper_strict = sorted(_upper_pattern(classes, n) - equiv)
    lower_strict = sorted(_lower_pattern(classes, n) - equiv)
    k = datum.twist_exponent
    one = mat_identity(n)
    basis = [ff.element_from_coeffs([0] * t + [1]) for t in range(ff.degree)]

    def transvection(i: int, j: int, c: int) -> Mat:
        return tuple(
            tuple(c if (a, b) == (i, j) else one[a][b] for b in range(n))
            for a in range(n)
        )

    pairs: list[tuple[Mat, Mat]] = []
    for i, j in lower_strict:
        for c in basis:
            pairs.append((transvection(i, j, c), one))
            pairs.append((transvection(i, j, ff.neg(c)), one))
    for i, j in upper_strict:
        for c in basis:
            pairs.append((one, transvection(i, j, c)))
            pairs.append((one, transvection(i, j, ff.neg(c))))
    levis: list[Mat] = []
    for cls in classes:
        g = ff.generator
        levis.append(
            tuple(
                tuple(
                    g if (a == b == cls[0]) else one[a][b] for b in range(n)
                )
                for a in range(n)
            )
        )
        for i in cls:
            for j in cls:
                if i != j:
                    for c in basis:
                        levis.append(transvection(i, j, c))
    for l in levis:
        for m in (l, mat_inv(ff, l)):
            pairs.append((m, mat_frobenius(ff, m, k)))
    return tuple(pairs)


def zip_orbit_search(
    datum: ZipDatumGroupLevel,
    g: Mat,
    targets: Sequence[Mat],
    ext: int = 1,
    guard: int = EXHAUSTION_GUARD,
) -> tuple[tuple[Mat, ...], int]:
    """Breadth-first sweep of the zip orbit of g, reporting which targets it meets.

    Returns the targets found (in a fixed order) and the full orbit size.
    """
    ff = _points_field(datum, ext)
    gens = [
        (pp, mat_inv(ff, p)) for pp, p in zip_generators(datum, ext)
    ]
    target_set = set(targets)
    visited = {g}
    queue = [g]
    hits = set()
    if g in target_set:
        hits.add(g)
    while queue:
        cur = queue.pop()
        for pp, pinv in gens:
            nxt = mat_mul(ff, mat_mul(ff, pp, cur), pinv)
            if nxt in visited:
                continue
            if len(visited) >= guard:
                raise TooLarge("orbit sweep exceeded the exhaustion guard")
            visited.add(nxt)
            queue.append(nxt)
            if nxt in target_set:
                hits.add(nxt)
    ordered = tuple(t for t in targets if t in hits)
    return ordered, len(visited)


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
    """Batch Lang scan: one sweep per extension level, shared by all targets."""
    k = field.degree if frob_power is None else frob_power
    n = len(targets[0])
    for t in targets:
        if len(t) != n or any(len(r) != n for r in t):
            raise ValueError("all targets must be n-by-n matrices")
    found: dict[Mat, Optional[tuple[int, Mat]]] = {t: None for t in targets}
    identity = mat_identity(n)
    if k == 0:
        for t in targets:
            if t == identity:
                found[t] = (1, identity)
        return found
    for s in range(1, max_ext + 1):
        ff = get_field(field.p, field.degree * s)
        embed = ff.embedding_from(field)
        frob = tuple(ff.frobenius(a, k) for a in range(ff.order))
        wanted = {
            tuple(tuple(embed[v] for v in row) for row in t): t
            for t, hit in found.items()
            if hit is None
        }
        if not wanted:
            break
        if gl_order(n, ff.order) > EXHAUSTION_GUARD:
            raise TooLarge(f"cannot sweep GL_{n} over {ff.order} elements")
        for h in _iter_gl(n, ff):
            fh = tuple(tuple(frob[v] for v in row) for row in h)
            value = mat_mul(ff, mat_inv(ff, h), fh)
            target = wanted.pop(value, None)
            if target is not None:
                found[target] = (s, h)
                if not wanted:
                    break
    return found


# ---------------------------------------------------------------------------
# dimension estimation from point counts
# ---------------------------------------------------------------------------


def dimension_estimate(counts: Sequence[int], q: int) -> int:
    """Dimension of a variety from exact point counts over a tower of fields.

    counts[s-1] is the number of points over the field with q**s elements.
    When the count ratios hover around one power of q, that exponent is the
    answer; otherwise the ratios are fitted with the two-parameter law
    r_s = d + kappa * g(s) coming from products of (1 - q^{-s}) factors.
    """
    if q < 2:
        raise ValueError("q must be a prime power of size at least 2")
    if len(counts) < 3:
        raise ValueError("at least three levels of counts are needed")
    if any(c <= 0 for c in counts):
        raise InconsistentGrowth("counts must be positive")
    lq = log(q)
    ratios = [
        (log(counts[i + 1]) - log(counts[i])) / lq for i in range(len(counts) - 1)
    ]
    rounded = [round(r) for r in ratios]
    if len(set(rounded)) == 1 and all(abs(r - rounded[0]) < 0.25 for r in ratios):
        if rounded[0] < 0:
            raise InconsistentGrowth(f"negative growth exponent {rounded[0]}")
        return rounded[0]

    def gterm(s: int) -> float:
        return (log(1 - q ** -(s + 1)) - log(1 - q**-s)) / lq

    estimates = []
    for i in range(len(ratios) - 1):
        s = i + 1
        denom = gterm(s + 1) - gterm(s)
        kappa = (ratios[i + 1] - ratios[i]) / denom
        d = ratios[i] - kappa * gterm(s)
        estimates.append(d)
    rounded_d = [round(d) for d in estimates]
    if len(set(rounded_d)) != 1:
        raise InconsistentGrowth(
            f"window estimates disagree: {['%.3f' % d for d in estimates]}"
        )
    if any(abs(d - rounded_d[0]) > 0.4 for d in estimates):
        raise InconsistentGrowth(
            f"estimates are too far from an integer: {['%.3f' % d for d in estimates]}"
        )
    if rounded_d[0] < 0:
        raise InconsistentGrowth(f"negative dimension {rounded_d[0]}")
    return rounded_d[0]


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


def counterexample_gl2(q: int) -> Gl2Counterexample:
    """Certify the failure of one-step closures for conjugation on GL_2(F_q)."""
    field = get_field(*prime_power(q))
    u = ((1, 1), (0, 1))
    points = gl_points(2, field)
    orbit = {mat_mul(field, mat_mul(field, g, u), mat_inv(field, g)) for g in points}
    assert len(orbit) == q * q - 1
    identity = mat_identity(2)
    assert identity not in orbit
    cone = set()
    for g in points:
        shifted = tuple(
            tuple(field.sub(g[i][j], identity[i][j]) for j in range(2))
            for i in range(2)
        )
        square = mat_mul(field, shifted, shifted)
        if all(v == 0 for row in square for v in row):
            cone.add(g)
    assert cone == orbit | {identity}
    assert len(cone) == q * q
    for t in range(1, field.order):
        assert ((1, t), (0, 1)) in orbit
    sizes = tuple(q ** (2 * s) - 1 for s in (1, 2, 3))
    assert sizes[0] == len(orbit)
    dim = dimension_estimate(sizes, q)
    assert dim == 2
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


# ---------------------------------------------------------------------------
# dimensions of strata from the combinatorial shadow
# ---------------------------------------------------------------------------


def stratum_dimension_from_counts(
    datum: ZipDatumGroupLevel, w: WeylElement, levels: int = 3
) -> int:
    """Estimate the stratum dimension from point counts over `levels` extensions."""
    counts = [stratum_point_count(datum, w, s) for s in range(1, levels + 1)]
    return dimension_estimate(counts, datum.field.order)


def expected_stratum_dimension(datum: ZipDatumGroupLevel, w: WeylElement) -> int:
    """The predicted dimension: dim of the parabolic plus the label length."""
    return dim_parabolic(datum.shadow()) + w.length
