"""Truncated Witt vectors over finite fields and the level-m display group.

Over a perfect field of characteristic p the ring of length-m truncated Witt
vectors of F_{p**d} is the Galois ring of characteristic p**m with residue
field F_{p**d}.  This module realises that ring concretely as Z/p**m[x]/(f)
where f is the minimal polynomial of a Teichmueller unit, so the Frobenius
lift is literally x -> x**p.  On top of the ring it builds the block display
group: tuples (A, B~, C, D) acting on invertible matrices through the two
block maps iota and sigma_mu.  At truncation level one the action degenerates
to the familiar zip-group action on the general linear group.

Conventions
-----------
* Ring elements store coefficient tuples of length d with entries reduced
  modulo p**m; elements are immutable and arithmetic never mutates.
* The modulus produced by make_ring is the Hensel lift of the
  lexicographically smallest monic irreducible of degree d, normalised so
  that the class of x is a Teichmueller unit (a root of X**(p**d) - X).
* The strict upper block of a display element stores the preimage B~ with
  B = V(B~); sigma_mu is then a plain block rearrangement and iota costs one
  Verschiebung per entry.
* Census functions enumerate complete matrix spaces and refuse anything past
  the guard with TooLarge instead of sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence, Union

from .ffield import (
    FiniteField,
    Mat,
    _coeff_mul,
    _coeff_pow,
    _is_irreducible,
    _poly_rem_q,
    get_field,
    gl_order,
    is_prime,
    mat_is_invertible,
    mat_inv,
    smallest_irreducible,
)
from .grouplab import OrbitCensus, OrbitRecord, TooLarge

__all__ = [
    "CENSUS_GUARD",
    "DisplayGroupElement",
    "GaloisRing",
    "GaloisRingElement",
    "NotInGroup",
    "SingularZ",
    "check_reduction",
    "display_action",
    "display_group_points",
    "display_orbit_partition",
    "frobenius",
    "frobenius_inv",
    "identity_display",
    "iota",
    "make_ring",
    "residue_matrix",
    "ring_matrix",
    "rmat_identity",
    "rmat_inv",
    "rmat_is_invertible",
    "rmat_mul",
    "sigma_mu",
    "orbit_census_level",
    "verschiebung",
]

# largest matrix-space size a census is willing to enumerate
CENSUS_GUARD = 2_000_000


class NotInGroup(ValueError):
    """The block tuple does not define an element of the display group."""


class SingularZ(ValueError):
    """The matrix acted on must be invertible over the ring."""


# ---------------------------------------------------------------------------
# the Galois ring W_m(F_{p**d})
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaloisRing:
    """The Galois ring of characteristic p**m with residue field F_{p**d}.

    Elements are residue classes of polynomials modulo (p**m, modulus) where
    the modulus is monic of degree d, irreducible modulo p, and normalised so
    that the class of x satisfies x**(p**d) = x exactly.  That normalisation
    makes the Frobenius lift act on the polynomial generator by x -> x**p.
    """

    p: int
    d: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"characteristic base {self.p} is not prime")
        if self.d < 1 or self.m < 1:
            raise ValueError("the degree and the truncation level must be positive")
        object.__setattr__(self, "modulus", tuple(int(v) for v in self.modulus))
        q = self.char
        if len(self.modulus) != self.d + 1 or self.modulus[-1] != 1:
            raise ValueError("the modulus must be monic of degree d")
        if any(not 0 <= v < q for v in self.modulus):
            raise ValueError("the modulus coefficients must be reduced modulo p**m")
        residue = [v % self.p for v in self.modulus]
        if not _is_irreducible(residue, self.p):
            raise ValueError("the modulus must be irreducible modulo p")
        if self.d >= 2:
            x = (0, 1)
            if _coeff_pow(x, self.p**self.d, self.modulus, q) != _poly_rem_q(x, self.modulus, q):
                raise ValueError("the class of x must be a Teichmueller unit")

    # Derived values live in the instance dict: element operations read them
    # on every call, and an lru_cache keyed by the ring would rehash all four
    # fields on every lookup.

    @cached_property
    def char(self) -> int:
        return self.p**self.m

    @cached_property
    def size(self) -> int:
        return self.p ** (self.m * self.d)

    @property
    def residue_field(self) -> FiniteField:
        return get_field(self.p, self.d)

    @cached_property
    def zero(self) -> "GaloisRingElement":
        return GaloisRingElement(self, (0,) * self.d)

    @cached_property
    def one(self) -> "GaloisRingElement":
        return GaloisRingElement(self, (1,) + (0,) * (self.d - 1))

    @cached_property
    def _sigma_tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        return _frobenius_tables(self)

    def element(self, coeffs: Sequence[int]) -> "GaloisRingElement":
        if len(coeffs) > self.d:
            raise ValueError("too many coefficients")
        padded = tuple(coeffs) + (0,) * (self.d - len(coeffs))
        return GaloisRingElement(self, padded)

    def from_int(self, value: int) -> "GaloisRingElement":
        return self.element((value,))

    def elements(self) -> Iterator["GaloisRingElement"]:
        for coeffs in itertools.product(range(self.char), repeat=self.d):
            yield GaloisRingElement(self, coeffs)

    def units(self) -> Iterator["GaloisRingElement"]:
        for e in self.elements():
            if e.is_unit:
                yield e

    def __repr__(self) -> str:  # pragma: no cover
        return f"GaloisRing(p={self.p}, d={self.d}, m={self.m})"


@dataclass(frozen=True)
class GaloisRingElement:
    """A ring element, stored as d coefficients reduced modulo p**m."""

    ring: GaloisRing
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.ring.d:
            raise ValueError("the coefficient tuple must have length d")
        q = self.ring.char
        object.__setattr__(self, "coeffs", tuple([int(v) % q for v in self.coeffs]))

    def _same_ring(self, other: "GaloisRingElement") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("the elements live in different rings")

    @property
    def is_unit(self) -> bool:
        return any(v % self.ring.p for v in self.coeffs)

    def residue(self) -> int:
        """The image in the residue field, encoded as that field's integer."""
        p = self.ring.p
        return sum((v % p) * p**k for k, v in enumerate(self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: "GaloisRingElement") -> "GaloisRingElement":
        self._same_ring(other)
        q = self.ring.char
        return _element(self.ring, tuple([(a + b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "GaloisRingElement":
        q = self.ring.char
        return _element(self.ring, tuple([(-a) % q for a in self.coeffs]))

    def __sub__(self, other: "GaloisRingElement") -> "GaloisRingElement":
        self._same_ring(other)
        q = self.ring.char
        return _element(self.ring, tuple([(a - b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __mul__(self, other: Union["GaloisRingElement", int]) -> "GaloisRingElement":
        q = self.ring.char
        if isinstance(other, int):
            return _element(self.ring, tuple([(a * other) % q for a in self.coeffs]))
        self._same_ring(other)
        return _element(self.ring, _coeff_mul(self.coeffs, other.coeffs, self.ring.modulus, q))

    def __rmul__(self, other: int) -> "GaloisRingElement":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "GaloisRingElement":
        if k < 0:
            return self.inverse() ** (-k)
        return _element(self.ring, _coeff_pow(self.coeffs, k, self.ring.modulus, self.ring.char))

    def inverse(self) -> "GaloisRingElement":
        """The multiplicative inverse, lifted from the residue field by Newton."""
        if not self.is_unit:
            raise ZeroDivisionError("inverse of a non-unit")
        ring = self.ring
        ff = ring.residue_field
        v = ring.element(ff.coeffs_of(ff.inv(self.residue())))
        two = ring.from_int(2)
        for _ in range(ring.m.bit_length() + 2):
            prod = self * v
            if prod == ring.one:
                return v
            v = v * (two - prod)
        raise AssertionError("the Newton inverse iteration did not converge")

    def __repr__(self) -> str:  # pragma: no cover
        r = self.ring
        return f"GaloisRingElement({self.coeffs} in p={r.p}, d={r.d}, m={r.m})"


def _element(ring: GaloisRing, coeffs: tuple[int, ...]) -> GaloisRingElement:
    """An element from d coefficients already reduced modulo p**m, unchecked."""
    e = object.__new__(GaloisRingElement)
    fields = e.__dict__
    fields["ring"] = ring
    fields["coeffs"] = coeffs
    return e


def _teichmueller_modulus(p: int, d: int, m: int, f0: tuple[int, ...]) -> tuple[int, ...]:
    """Lift f0 to the minimal polynomial of a Teichmueller unit modulo p**m.

    Inside the auxiliary ring Z/p**m[x]/(f0) the iteration t -> t**(p**d)
    contracts onto the Teichmueller representative of the class of x; the
    product of (X - conjugate) over its Frobenius orbit has constant
    coefficients, and those constants are the lifted modulus.
    """
    q = p**m
    x = (0, 1) + (0,) * (d - 2) if d >= 2 else (0,)
    t = _poly_rem_q(x, f0, q)
    for _ in range(m + 2):
        nxt = _coeff_pow(t, p**d, f0, q)
        if nxt == t:
            break
        t = nxt
    else:
        raise AssertionError("the Teichmueller iteration did not converge")
    conjugates = [t]
    for _ in range(d - 1):
        conjugates.append(_coeff_pow(conjugates[-1], p, f0, q))
    one = (1,) + (0,) * (d - 1)
    zero = (0,) * d
    poly = [one]
    for root in conjugates:
        shifted = [zero] + poly
        scaled = [_coeff_mul(root, c, f0, q) for c in poly] + [zero]
        poly = [
            tuple((a - b) % q for a, b in zip(u, v)) for u, v in zip(shifted, scaled)
        ]
    assert len(poly) == d + 1 and poly[-1] == one
    lifted = []
    for c in poly[:d]:
        assert all(v == 0 for v in c[1:]), "conjugate symmetric functions must be constants"
        lifted.append(c[0])
    modulus = tuple(lifted) + (1,)
    assert tuple(v % p for v in modulus) == f0
    return modulus


@lru_cache(maxsize=None)
def make_ring(p: int, d: int, m: int) -> GaloisRing:
    """The truncated Witt ring W_m(F_{p**d}) as a concrete Galois ring.

    The modulus is the Hensel lift modulo p**m of the lexicographically
    smallest monic irreducible of degree d over F_p, normalised so that the
    class of x is a Teichmueller unit.  With d = 1 this is Z/p**m.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic base {p} is not prime")
    if d < 1 or m < 1:
        raise ValueError("the degree and the truncation level must be positive")
    f0 = smallest_irreducible(p, d)
    if m == 1 or d == 1:
        modulus = f0
    else:
        modulus = _teichmueller_modulus(p, d, m, f0)
    ring = GaloisRing(p, d, m, modulus)
    gen = ring.element((0, 1) if d >= 2 else (0,))
    assert gen ** (p**d) == gen, "the polynomial generator must be Teichmueller"
    return ring


# ---------------------------------------------------------------------------
# Frobenius and Verschiebung
# ---------------------------------------------------------------------------


def _frobenius_tables(ring: GaloisRing) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Coefficient tables for sigma and its inverse: row i is sigma(x)**i."""
    d, q, modulus = ring.d, ring.char, ring.modulus
    xp = _coeff_pow((0, 1) if d >= 2 else (0,), ring.p, modulus, q)
    xq = _coeff_pow((0, 1) if d >= 2 else (0,), ring.p ** (d - 1), modulus, q)

    def powers(base: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        one = (1,) + (0,) * (d - 1)
        rows = [one]
        for _ in range(d - 1):
            rows.append(_coeff_mul(rows[-1], base, modulus, q))
        return tuple(rows)

    return powers(xp), powers(xq)


def _apply_table(table: tuple[tuple[int, ...], ...], coeffs: tuple[int, ...], q: int) -> tuple[int, ...]:
    out = [0] * len(coeffs)
    for a, row in zip(coeffs, table):
        if a:
            for j, v in enumerate(row):
                out[j] = (out[j] + a * v) % q
    return tuple(out)


def frobenius(x: GaloisRingElement) -> GaloisRingElement:
    """The Frobenius lift sigma, the ring automorphism with sigma(x) = x**p."""
    ring = x.ring
    if ring.d == 1:
        return x  # sigma is the identity on Z/p**m
    return _element(ring, _apply_table(ring._sigma_tables[0], x.coeffs, ring.char))


def frobenius_inv(x: GaloisRingElement) -> GaloisRingElement:
    """The inverse automorphism sigma**(-1) = sigma**(d-1)."""
    ring = x.ring
    if ring.d == 1:
        return x
    return _element(ring, _apply_table(ring._sigma_tables[1], x.coeffs, ring.char))


def verschiebung(x: GaloisRingElement) -> GaloisRingElement:
    """The additive shift V = p * sigma**(-1), so sigma(V(x)) = p*x."""
    return frobenius_inv(x) * x.ring.p


# ---------------------------------------------------------------------------
# matrices over the ring
# ---------------------------------------------------------------------------

RMat = tuple[tuple[GaloisRingElement, ...], ...]
_EntryLike = Union[GaloisRingElement, int, Sequence[int]]


def _coerce_entry(ring: GaloisRing, value: _EntryLike) -> GaloisRingElement:
    if isinstance(value, GaloisRingElement):
        if value.ring != ring:
            raise ValueError("the entries live in a different ring")
        return value
    if isinstance(value, int):
        return ring.from_int(value)
    return ring.element(value)


def ring_matrix(ring: GaloisRing, rows: Sequence[Sequence[_EntryLike]]) -> RMat:
    """Build a matrix over the ring from integers, coefficient tuples, or elements."""
    return tuple(tuple(_coerce_entry(ring, v) for v in row) for row in rows)


def rmat_identity(ring: GaloisRing, n: int) -> RMat:
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def rmat_mul(ring: GaloisRing, a: RMat, b: RMat) -> RMat:
    if not b:
        return tuple(() for _ in a)
    cols = len(b[0])
    out = []
    for row in a:
        acc = [ring.zero] * cols
        for entry, brow in zip(row, b):
            if entry:
                for j, bv in enumerate(brow):
                    acc[j] = acc[j] + entry * bv
        out.append(tuple(acc))
    return tuple(out)


def _rmat_add(a: RMat, b: RMat) -> RMat:
    return tuple(tuple(u + v for u, v in zip(ra, rb)) for ra, rb in zip(a, b))


def residue_matrix(ring: GaloisRing, a: RMat) -> Mat:
    """The entrywise image in the residue field, as that field's integers."""
    return tuple(tuple(v.residue() for v in row) for row in a)


def rmat_is_invertible(ring: GaloisRing, a: RMat) -> bool:
    """Invertibility over the local ring is invertibility of the residue."""
    if not a:
        return True
    if any(len(row) != len(a) for row in a):
        return False
    return mat_is_invertible(ring.residue_field, residue_matrix(ring, a))


def rmat_inv(ring: GaloisRing, a: RMat) -> RMat:
    """Invert by lifting the residue inverse and running the Newton iteration."""
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
    raise AssertionError("the Newton matrix inverse did not converge")


def _rmat_key(a: RMat) -> tuple[int, ...]:
    return tuple(c for row in a for v in row for c in v.coeffs)


def _rmat_frobenius(a: RMat) -> RMat:
    return tuple(tuple(frobenius(v) for v in row) for row in a)


def _rmat_verschiebung(a: RMat) -> RMat:
    return tuple(tuple(verschiebung(v) for v in row) for row in a)


# ---------------------------------------------------------------------------
# the display group at level m
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisplayGroupElement:
    """An element of the block display group over a truncated Witt ring.

    The blocks split n as d_block + (n - d_block); A and D sit on the
    diagonal, C below, and B_pre stores the preimage B~ of the upper block
    B = V(B~).  Membership requires the diagonal blocks to be invertible,
    which happens exactly when both residues are.
    """

    ring: GaloisRing
    n: int
    d_block: int
    A: RMat
    B_pre: RMat
    C: RMat
    D: RMat

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("the matrix size must be positive")
        if not 0 <= self.d_block <= self.n:
            raise ValueError("the block size must lie between 0 and n")
        db, rest = self.d_block, self.n - self.d_block
        for name, block, rows, cols in (
            ("A", self.A, db, db),
            ("B_pre", self.B_pre, db, rest),
            ("C", self.C, rest, db),
            ("D", self.D, rest, rest),
        ):
            block = tuple(tuple(row) for row in block)
            object.__setattr__(self, name, block)
            if len(block) != rows or any(len(r) != cols for r in block):
                raise ValueError(f"block {name} must be {rows} by {cols}")
            for row in block:
                for v in row:
                    if not isinstance(v, GaloisRingElement) or v.ring != self.ring:
                        raise ValueError(f"block {name} must have entries in the ring")
        ff = self.ring.residue_field
        for block in (self.A, self.D):
            if block and not mat_is_invertible(ff, residue_matrix(self.ring, block)):
                raise NotInGroup("the diagonal blocks must be invertible modulo p")

    def __mul__(self, other: "DisplayGroupElement") -> "DisplayGroupElement":
        if (self.ring, self.n, self.d_block) != (other.ring, other.n, other.d_block):
            raise ValueError("the factors live in different display groups")
        ring = self.ring
        v_bx = _rmat_verschiebung(self.B_pre)
        v_by = _rmat_verschiebung(other.B_pre)
        a = _rmat_add(rmat_mul(ring, self.A, other.A), rmat_mul(ring, v_bx, other.C))
        b = _rmat_add(
            rmat_mul(ring, _rmat_frobenius(self.A), other.B_pre),
            rmat_mul(ring, self.B_pre, _rmat_frobenius(other.D)),
        )
        c = _rmat_add(rmat_mul(ring, self.C, other.A), rmat_mul(ring, self.D, other.C))
        d = _rmat_add(rmat_mul(ring, self.C, v_by), rmat_mul(ring, self.D, other.D))
        return DisplayGroupElement(ring, self.n, self.d_block, a, b, c, d)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DisplayGroupElement(n={self.n}, d_block={self.d_block}, "
            f"ring=GR(p={self.ring.p}, d={self.ring.d}, m={self.ring.m}))"
        )


def identity_display(ring: GaloisRing, n: int, d_block: int) -> DisplayGroupElement:
    db, rest = d_block, n - d_block
    zero_br = tuple((ring.zero,) * rest for _ in range(db))
    zero_rb = tuple((ring.zero,) * db for _ in range(rest))
    return DisplayGroupElement(
        ring, n, d_block, rmat_identity(ring, db), zero_br, zero_rb, rmat_identity(ring, rest)
    )


def _assemble(ring: GaloisRing, tl: RMat, tr: RMat, bl: RMat, br: RMat) -> RMat:
    top = tuple(ra + rb for ra, rb in zip(tl, tr))
    bottom = tuple(rc + rd for rc, rd in zip(bl, br))
    return top + bottom


def iota(x: DisplayGroupElement) -> RMat:
    """The matrix (A, V(B~); C, D); at level one its upper block vanishes."""
    return _assemble(x.ring, x.A, _rmat_verschiebung(x.B_pre), x.C, x.D)


def sigma_mu(x: DisplayGroupElement) -> RMat:
    """The twisted partner (sigma A, B~; p sigma C, sigma D) of iota."""
    p_sigma_c = tuple(tuple(frobenius(v) * x.ring.p for v in row) for row in x.C)
    return _assemble(
        x.ring, _rmat_frobenius(x.A), x.B_pre, p_sigma_c, _rmat_frobenius(x.D)
    )


def display_action(x: DisplayGroupElement, z: RMat) -> RMat:
    """The left action z -> iota(x) z sigma_mu(x)**(-1) on invertible matrices."""
    if len(z) != x.n or any(len(row) != x.n for row in z):
        raise ValueError("the matrix acted on must be n by n")
    for row in z:
        for v in row:
            if not isinstance(v, GaloisRingElement) or v.ring != x.ring:
                raise ValueError("the matrix acted on must have entries in the ring")
    if not rmat_is_invertible(x.ring, z):
        raise SingularZ("the matrix acted on is singular modulo p")
    ring = x.ring
    return rmat_mul(ring, rmat_mul(ring, iota(x), z), rmat_inv(ring, sigma_mu(x)))


# ---------------------------------------------------------------------------
# census and reduction to level one
# ---------------------------------------------------------------------------


def _all_blocks(ring: GaloisRing, rows: int, cols: int) -> list[RMat]:
    cells = list(ring.elements())
    out = []
    for flat in itertools.product(cells, repeat=rows * cols):
        out.append(tuple(flat[r * cols : (r + 1) * cols] for r in range(rows)))
    return out


def _invertible_blocks(ring: GaloisRing, n: int) -> list[RMat]:
    if n == 0:
        return [()]
    ff = ring.residue_field
    return [
        z
        for z in _all_blocks(ring, n, n)
        if mat_is_invertible(ff, residue_matrix(ring, z))
    ]


def display_group_points(ring: GaloisRing, n: int, d_block: int) -> tuple[DisplayGroupElement, ...]:
    """Every element of the display group, enumerated block by block."""
    if not 0 <= d_block <= n:
        raise ValueError("the block size must lie between 0 and n")
    db, rest = d_block, n - d_block
    q0 = ring.p**ring.d
    unit_scale = ring.p ** ((ring.m - 1) * ring.d)
    total = (
        gl_order(db, q0) * unit_scale ** (db * db) if db else 1
    ) * (
        gl_order(rest, q0) * unit_scale ** (rest * rest) if rest else 1
    ) * ring.size ** (2 * db * rest)
    scan = max(ring.size ** (db * db), ring.size ** (rest * rest))
    if total > CENSUS_GUARD or scan > CENSUS_GUARD:
        raise TooLarge(f"the display group has {total} points")
    out = []
    for a in _invertible_blocks(ring, db):
        for d in _invertible_blocks(ring, rest):
            for b in _all_blocks(ring, db, rest):
                for c in _all_blocks(ring, rest, db):
                    out.append(DisplayGroupElement(ring, n, d_block, a, b, c, d))
    assert len(out) == total
    return tuple(out)


def display_orbit_partition(ring: GaloisRing, n: int, d_block: int) -> tuple[frozenset, ...]:
    """Partition the invertible n-by-n matrices into display-group orbits."""
    space = ring.size ** (n * n)
    if space > CENSUS_GUARD:
        raise TooLarge(f"the level-{ring.m} matrix space has {space} points")
    points = _invertible_blocks(ring, n)
    acting = [
        (iota(x), rmat_inv(ring, sigma_mu(x)))
        for x in display_group_points(ring, n, d_block)
    ]
    remaining = set(points)
    orbits = []
    while remaining:
        seed = min(remaining, key=_rmat_key)
        orbit = frozenset(
            rmat_mul(ring, rmat_mul(ring, left, seed), right) for left, right in acting
        )
        assert seed in orbit and orbit <= remaining
        assert len(acting) % len(orbit) == 0
        remaining -= orbit
        orbits.append(orbit)
    orbits.sort(key=lambda o: (len(o), _rmat_key(min(o, key=_rmat_key))))
    return tuple(orbits)


def _census_guard(n: int, p: int, d: int, m: int) -> None:
    bound = p ** (m * d * n * n)
    if bound > CENSUS_GUARD:
        raise TooLarge(f"the level-{m} matrix space has {bound} points")


def orbit_census_level(n: int, p: int, d: int, m: int, d_block: int = 1) -> OrbitCensus:
    """Exhaustive orbit census of the display action at truncation level m.

    The returned census stores the truncation level in its ext field and the
    number of invertible matrices over the ring in group_order; cells do not
    apply at higher level and are left empty.
    """
    _census_guard(n, p, d, m)
    ring = make_ring(p, d, m)
    partition = display_orbit_partition(ring, n, d_block)
    group = display_group_points(ring, n, d_block)
    records = []
    for orbit in partition:
        rep = min(orbit, key=_rmat_key)
        records.append(OrbitRecord(rep, len(orbit), len(group) // len(orbit), None))
    total = sum(r.size for r in records)
    return OrbitCensus(m, total, tuple(records))


def _reduce_rmat(ring_one: GaloisRing, z: RMat) -> RMat:
    p = ring_one.p
    return tuple(
        tuple(GaloisRingElement(ring_one, tuple(c % p for c in v.coeffs)) for v in row)
        for row in z
    )


def check_reduction(n: int, p: int, d: int, m: int, d_block: int = 1) -> dict:
    """Verify that level-m orbits reduce into single level-one orbits.

    Returns a JSON-ready report with the orbit counts at both levels and a
    list of violations, which is empty exactly when every level-m orbit maps
    into one level-one orbit under coefficientwise reduction modulo p.
    """
    _census_guard(n, p, d, m)
    ring_m = make_ring(p, d, m)
    ring_one = make_ring(p, d, 1)
    orbits_m = display_orbit_partition(ring_m, n, d_block)
    orbits_one = display_orbit_partition(ring_one, n, d_block)
    index_one = {z: k for k, orbit in enumerate(orbits_one) for z in orbit}
    violations = []
    for orbit in orbits_m:
        hit = {index_one[_reduce_rmat(ring_one, z)] for z in orbit}
        if len(hit) != 1:
            rep = min(orbit, key=_rmat_key)
            violations.append(
                {
                    "orbit_rep": [[list(v.coeffs) for v in row] for row in rep],
                    "level_one_orbits": len(hit),
                }
            )
    return {
        "params": {"n": n, "p": p, "d": d, "m": m, "d_block": d_block},
        "orbits_m": len(orbits_m),
        "orbits_1": len(orbits_one),
        "violations": violations,
    }
