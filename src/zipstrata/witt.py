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
* At d = 1 the ring is Z/p**m and every operation acts on the one
  coefficient as an integer: sigma is the identity, V is multiplication by
  p, and a unit is inverted by pow(c, -1, p**m).  Rings with d >= 2 multiply
  polynomials modulo the modulus and apply sigma, sigma**-1 and V as
  coefficient tables.
* Coefficients and modulus entries must be integers (operator.index):
  floats and strings raise TypeError.
* Matrices are inverted by Gauss-Jordan elimination, each pivot the first
  unit left in its column, and the result is checked by one product.
* Census functions enumerate complete matrix spaces and refuse anything past
  the guard with TooLarge instead of sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass, replace
from functools import cached_property, lru_cache
from operator import index, mul
from typing import Callable, Iterator, Sequence, Union

from .coxeter import ENUMERATION_GUARD, InvariantError, TooLarge
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
    smallest_irreducible,
)
from .grouplab import OrbitCensus, OrbitRecord, gl_points
from .orbits import _Op, _compile_moves, _flat, _orbit_partition

__all__ = [
    "DisplayGroupElement",
    "GaloisRing",
    "GaloisRingElement",
    "NotInGroup",
    "SingularZ",
    "check_reduction",
    "display_action",
    "display_group_order",
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


# A coefficient table: one coefficient tuple per power of x.
_Table = tuple[tuple[int, ...], ...]


class NotInGroup(ValueError):
    """The block tuple does not define an element of the display group."""


class SingularZ(ValueError):
    """The matrix acted on must be invertible over the ring."""


# ---------------------------------------------------------------------------
# the Galois ring W_m(F_{p**d})
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaloisRing:
    """The Galois ring of characteristic p**m with residue field F_{p**d}.

    Elements are residue classes of polynomials modulo (p**m, modulus) where
    the modulus is monic of degree d, irreducible modulo p, and normalised so
    that the class of x satisfies x**(p**d) = x exactly.  That normalisation
    makes the Frobenius lift act on the polynomial generator by x -> x**p.
    Rings compare and hash by (p, d, m, modulus); the hash is computed once.
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
        object.__setattr__(self, "modulus", tuple(index(v) for v in self.modulus))
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
        object.__setattr__(self, "_hash", hash((self.p, self.d, self.m, self.modulus)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.d, self.m, self.modulus) == (other.p, other.d, other.m, other.modulus)

    def __hash__(self) -> int:
        return self._hash

    # Derived values live in the instance dict: element operations read them
    # on every call.

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
    def _sigma_tables(self) -> tuple[_Table, _Table, _Table]:
        """The tables of sigma, sigma**-1 and V, stored by columns for `_apply_table`."""
        return tuple(tuple(zip(*rows)) for rows in _frobenius_tables(self))

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


class GaloisRingElement:
    """A ring element, stored as d coefficients reduced modulo p**m; immutable.

    Elements compare by coefficients, then by ring, and hash as
    hash((ring, coeffs)).
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GaloisRing, coeffs: Sequence[int]) -> None:
        if len(coeffs) != ring.d:
            raise ValueError("the coefficient tuple must have length d")
        q = ring.char
        _set_ring(self, ring)
        if ring.d == 1:
            _set_coeffs(self, (index(coeffs[0]) % q,))
        else:
            _set_coeffs(self, tuple([index(v) % q for v in coeffs]))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle and copy would otherwise restore the slots through __setattr__;
        # unchecked, since a ring being unpickled may not have its fields yet
        return _element, (self.ring, self.coeffs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GaloisRingElement:
            return NotImplemented
        return self.coeffs == other.coeffs and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

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
        ring = self.ring
        if other.ring is not ring:
            _same_ring(ring, other.ring)
        q = ring.char
        if ring.d == 1:
            return _element(ring, ((self.coeffs[0] + other.coeffs[0]) % q,))
        return _element(ring, tuple([(a + b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "GaloisRingElement":
        ring = self.ring
        q = ring.char
        if ring.d == 1:
            return _element(ring, (-self.coeffs[0] % q,))
        return _element(ring, tuple([(-a) % q for a in self.coeffs]))

    def __sub__(self, other: "GaloisRingElement") -> "GaloisRingElement":
        ring = self.ring
        if other.ring is not ring:
            _same_ring(ring, other.ring)
        q = ring.char
        if ring.d == 1:
            return _element(ring, ((self.coeffs[0] - other.coeffs[0]) % q,))
        return _element(ring, tuple([(a - b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __mul__(self, other: Union["GaloisRingElement", int]) -> "GaloisRingElement":
        ring = self.ring
        q = ring.char
        if isinstance(other, int):
            if ring.d == 1:
                return _element(ring, (self.coeffs[0] * other % q,))
            return _element(ring, tuple([(a * other) % q for a in self.coeffs]))
        if other.ring is not ring:
            _same_ring(ring, other.ring)
        if ring.d == 1:
            return _element(ring, (self.coeffs[0] * other.coeffs[0] % q,))
        return _element(ring, _coeff_mul(self.coeffs, other.coeffs, ring.modulus, q))

    def __rmul__(self, other: int) -> "GaloisRingElement":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "GaloisRingElement":
        if k < 0:
            return self.inverse() ** (-k)
        return _element(self.ring, _coeff_pow(self.coeffs, k, self.ring.modulus, self.ring.char))

    def inverse(self) -> "GaloisRingElement":
        """The multiplicative inverse: pow at d = 1, else lifted from the residue field by Newton."""
        if not self.is_unit:
            raise ZeroDivisionError("inverse of a non-unit")
        ring = self.ring
        if ring.d == 1:
            return _element(ring, (pow(self.coeffs[0], -1, ring.char),))
        ff = ring.residue_field
        v = ring.element(ff.coeffs_of(ff.inv(self.residue())))
        two = ring.from_int(2)
        for _ in range(ring.m.bit_length() + 2):
            prod = self * v
            if prod == ring.one:
                return v
            v = v * (two - prod)
        raise InvariantError("the Newton inverse iteration did not converge")

    def __repr__(self) -> str:  # pragma: no cover
        r = self.ring
        return f"GaloisRingElement({self.coeffs} in p={r.p}, d={r.d}, m={r.m})"


# The slots' own setters write past the __setattr__ that keeps elements immutable.
_set_ring = GaloisRingElement.ring.__set__
_set_coeffs = GaloisRingElement.coeffs.__set__
_new = object.__new__


def _same_ring(ring: GaloisRing, other: GaloisRing) -> None:
    if ring != other:
        raise ValueError("the elements live in different rings")


def _element(ring: GaloisRing, coeffs: tuple[int, ...]) -> GaloisRingElement:
    """An element from d coefficients already reduced modulo p**m, unchecked."""
    e = _new(GaloisRingElement)
    _set_ring(e, ring)
    _set_coeffs(e, coeffs)
    return e


def _teichmueller_modulus(p: int, d: int, m: int, f0: tuple[int, ...]) -> tuple[int, ...]:
    """Lift f0 to the minimal polynomial of a Teichmueller unit modulo p**m.

    Inside the auxiliary ring Z/p**m[x]/(f0) the iteration t -> t**(p**d)
    contracts onto the Teichmueller representative of the class of x; the
    product of (X - conjugate) over its Frobenius orbit has constant
    coefficients, and those constants are the lifted modulus.
    """
    q = p**m
    t = _poly_rem_q((0, 1) + (0,) * (d - 2), f0, q)
    for _ in range(m + 2):
        nxt = _coeff_pow(t, p**d, f0, q)
        if nxt == t:
            break
        t = nxt
    else:
        raise InvariantError("the Teichmueller iteration did not converge")
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
    if len(poly) != d + 1 or poly[-1] != one:
        raise InvariantError("the product over the conjugates must be monic of degree d")
    lifted = []
    for c in poly[:d]:
        if any(c[1:]):
            raise InvariantError("conjugate symmetric functions must be constants")
        lifted.append(c[0])
    modulus = tuple(lifted) + (1,)
    if tuple(v % p for v in modulus) != f0:
        raise InvariantError("the lifted modulus must reduce to the residue modulus")
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
    # GaloisRing checks that the class of x is Teichmueller
    return GaloisRing(p, d, m, modulus)


# ---------------------------------------------------------------------------
# Frobenius and Verschiebung
# ---------------------------------------------------------------------------


def _frobenius_tables(ring: GaloisRing) -> tuple[_Table, _Table, _Table]:
    """Coefficient tables of sigma, sigma**-1 and V = p * sigma**-1: row i is the image of x**i.

    At d = 1 sigma is the identity and V is the table ((p,),).
    """
    d, p, q, modulus = ring.d, ring.p, ring.char, ring.modulus
    one = (1,) + (0,) * (d - 1)

    def powers(e: int) -> _Table:
        rows = [one]
        if d >= 2:
            base = _coeff_pow((0, 1), e, modulus, q)
            for _ in range(d - 1):
                rows.append(_coeff_mul(rows[-1], base, modulus, q))
        return tuple(rows)

    sigma_inv = powers(p ** (d - 1))
    return powers(p), sigma_inv, tuple(tuple(p * v for v in row) for row in sigma_inv)


def _apply_table(columns: _Table, coeffs: tuple[int, ...], q: int) -> tuple[int, ...]:
    """The coefficients of the image of coeffs under a table stored by columns."""
    return tuple([sum(map(mul, coeffs, col)) % q for col in columns])


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
    """The additive shift V = p * sigma**(-1), so sigma(V(x)) = p*x; one table."""
    ring = x.ring
    if ring.d == 1:
        return _element(ring, (x.coeffs[0] * ring.p % ring.char,))  # V = p* on Z/p**m
    return _element(ring, _apply_table(ring._sigma_tables[2], x.coeffs, ring.char))


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


def rmat_mul(ring: GaloisRing, a: RMat, b: RMat, cols: int | None = None) -> RMat:
    """The product a * b.

    cols is the width of b.  It is read from b, except when b has no rows:
    such a matrix does not record its width, so cols must then be given.
    """
    if b:
        cols = len(b[0])
    elif a and cols is None:
        raise ValueError("the width of a right factor with no rows must be given")
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
    return mat_is_invertible(ring.residue_field, residue_matrix(ring, a))


def rmat_inv(ring: GaloisRing, a: RMat) -> RMat:
    """Invert by Gauss-Jordan elimination, each pivot the first unit left in its column.

    Over the local ring a column with no unit left makes the residue
    singular.  The result is checked by one product a * x = 1.
    """
    n = len(a)
    ident = rmat_identity(ring, n)
    if any(len(row) != n for row in a):
        raise ValueError("the matrix is singular modulo p")
    rows = [list(row) + list(e) for row, e in zip(a, ident)]
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k].is_unit), None)
        if piv is None:
            raise ValueError("the matrix is singular modulo p")
        rows[k], rows[piv] = rows[piv], rows[k]
        u = rows[k][k].inverse()
        top = rows[k] = [v * u for v in rows[k]]
        for r in range(n):
            c = rows[r][k]
            if r != k and c:
                rows[r] = [v - c * t for v, t in zip(rows[r], top)]
    x = tuple(tuple(row[n:]) for row in rows)
    if rmat_mul(ring, a, x) != ident:
        raise InvariantError("the elimination inverse must satisfy a * x = 1")
    return x


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
        for name, rows, cols in (("A", db, db), ("B_pre", db, rest), ("C", rest, db), ("D", rest, rest)):
            block = _checked_block(self.ring, name, getattr(self, name), rows, cols)
            object.__setattr__(self, name, block)
        _check_unit_block(self.ring, self.A)
        _check_unit_block(self.ring, self.D)

    def __mul__(self, other: "DisplayGroupElement") -> "DisplayGroupElement":
        if (self.ring, self.n, self.d_block) != (other.ring, other.n, other.d_block):
            raise ValueError("the factors live in different display groups")
        ring = self.ring
        db, rest = self.d_block, self.n - self.d_block

        def block(x1: RMat, y1: RMat, x2: RMat, y2: RMat, cols: int) -> RMat:
            # x1 * y1 sums over the first d_block indices, x2 * y2 over the rest
            return _rmat_add(
                rmat_mul(ring, x1, y1, cols=cols), rmat_mul(ring, x2, y2, cols=cols)
            )

        v_bx = _rmat_verschiebung(self.B_pre)
        v_by = _rmat_verschiebung(other.B_pre)
        a = block(self.A, other.A, v_bx, other.C, db)
        b = block(
            _rmat_frobenius(self.A), other.B_pre, self.B_pre, _rmat_frobenius(other.D), rest
        )
        c = block(self.C, other.A, self.D, other.C, db)
        d = block(self.C, v_by, self.D, other.D, rest)
        return DisplayGroupElement(ring, self.n, self.d_block, a, b, c, d)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DisplayGroupElement(n={self.n}, d_block={self.d_block}, "
            f"ring=GR(p={self.ring.p}, d={self.ring.d}, m={self.ring.m}))"
        )


def _checked_block(ring: GaloisRing, name: str, block: Sequence[Sequence], rows: int, cols: int) -> RMat:
    """The block as a tuple of row tuples; refused unless rows by cols with entries in the ring."""
    block = tuple(tuple(row) for row in block)
    if len(block) != rows or any(len(r) != cols for r in block):
        raise ValueError(f"block {name} must be {rows} by {cols}")
    for row in block:
        for v in row:
            if not isinstance(v, GaloisRingElement) or v.ring != ring:
                raise ValueError(f"block {name} must have entries in the ring")
    return block


def _check_unit_block(ring: GaloisRing, block: RMat) -> None:
    if not rmat_is_invertible(ring, block):
        raise NotInGroup("the diagonal blocks must be invertible modulo p")


_DISPLAY_FIELDS = ("ring", "n", "d_block", "A", "B_pre", "C", "D")


def _display(
    ring: GaloisRing, n: int, d_block: int, A: RMat, B_pre: RMat, C: RMat, D: RMat
) -> DisplayGroupElement:
    """A display element from blocks already checked, unchecked.

    The fields are set one by one, as the generated __init__ sets them;
    filling __dict__ directly would give each element a dict of its own.
    """
    x = object.__new__(DisplayGroupElement)
    for name, value in zip(_DISPLAY_FIELDS, (ring, n, d_block, A, B_pre, C, D)):
        object.__setattr__(x, name, value)
    return x


def identity_display(ring: GaloisRing, n: int, d_block: int) -> DisplayGroupElement:
    db, rest = d_block, n - d_block
    zero_br = tuple((ring.zero,) * rest for _ in range(db))
    zero_rb = tuple((ring.zero,) * db for _ in range(rest))
    return DisplayGroupElement(
        ring, n, d_block, rmat_identity(ring, db), zero_br, zero_rb, rmat_identity(ring, rest)
    )


def _assemble(tl: RMat, tr: RMat, bl: RMat, br: RMat) -> RMat:
    top = tuple(ra + rb for ra, rb in zip(tl, tr))
    bottom = tuple(rc + rd for rc, rd in zip(bl, br))
    return top + bottom


def iota(x: DisplayGroupElement) -> RMat:
    """The matrix (A, V(B~); C, D); at level one its upper block vanishes."""
    return _assemble(x.A, _rmat_verschiebung(x.B_pre), x.C, x.D)


def sigma_mu(x: DisplayGroupElement) -> RMat:
    """The twisted partner (sigma A, B~; p sigma C, sigma D) of iota."""
    p_sigma_c = tuple(tuple(frobenius(v) * x.ring.p for v in row) for row in x.C)
    return _assemble(_rmat_frobenius(x.A), x.B_pre, p_sigma_c, _rmat_frobenius(x.D))


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


def _invertible_codes(ring: GaloisRing, n: int) -> list[tuple[int, ...]]:
    """The invertible n-by-n matrices over the ring as flat code tuples, in coefficient order.

    A matrix is invertible exactly when its residue is, so these are the
    entrywise lifts of the points of GL_n over the residue field.
    """
    lifts: list[list[int]] = [[] for _ in range(ring.residue_field.order)]
    for c, r in enumerate(_residue_codes(ring)):
        lifts[r].append(c)
    flats = [
        flat
        for g in gl_points(n, ring.residue_field)
        for flat in itertools.product(*(lifts[v] for v in _flat(g)))
    ]
    lex = _lex_codes(ring)
    return sorted(flats, key=lambda flat: [lex[c] for c in flat])


def _invertible_blocks(ring: GaloisRing, n: int) -> list[RMat]:
    """The invertible n-by-n matrices over the ring, in coefficient order."""
    elements = _elements_by_code(ring)
    return [_decoded(elements, flat, n) for flat in _invertible_codes(ring, n)]


def _ring_gl_order(ring: GaloisRing, k: int) -> int:
    """|GL_k(W_m(F_q))| = |GL_k(F_q)| * q**((m-1) k**2): units are lifts of units."""
    q0 = ring.p**ring.d
    return gl_order(k, q0) * q0 ** ((ring.m - 1) * k * k)


def display_group_order(ring: GaloisRing, n: int, d_block: int) -> int:
    """|G| from its closed form: |GL_db(W)| * |GL_(n-db)(W)| * |W|**(2 db (n-db)), db = d_block."""
    if not 0 <= d_block <= n:
        raise ValueError("the block size must lie between 0 and n")
    db, rest = d_block, n - d_block
    return _ring_gl_order(ring, db) * _ring_gl_order(ring, rest) * ring.size ** (2 * db * rest)


def display_group_points(ring: GaloisRing, n: int, d_block: int) -> tuple[DisplayGroupElement, ...]:
    """Every element of the display group, enumerated block by block."""
    total = display_group_order(ring, n, d_block)
    db, rest = d_block, n - d_block
    scan = max(ring.size ** (db * db), ring.size ** (rest * rest))
    if total > ENUMERATION_GUARD or scan > ENUMERATION_GUARD:
        raise TooLarge(f"the display group has {total} points")
    a_list, d_list = _invertible_blocks(ring, db), _invertible_blocks(ring, rest)
    b_list, c_list = _all_blocks(ring, db, rest), _all_blocks(ring, rest, db)
    # each listed block gets the checks DisplayGroupElement makes, once
    for name, listed, rows, cols in (
        ("A", a_list, db, db), ("B_pre", b_list, db, rest), ("C", c_list, rest, db), ("D", d_list, rest, rest)
    ):
        for block in listed:
            _checked_block(ring, name, block, rows, cols)
    for block in a_list + d_list:
        _check_unit_block(ring, block)
    out = [
        _display(ring, n, d_block, a, b, c, d)
        for a in a_list for d in d_list for b in b_list for c in c_list
    ]
    if len(out) != total:
        raise InvariantError(f"enumerated {len(out)} display group points, expected {total}")
    return tuple(out)


def _unit_generators(ring: GaloisRing) -> list[GaloisRingElement]:
    """A small generating set of the unit group, greedy over the units in key order."""
    gens: list[GaloisRingElement] = []
    group = {ring.one}
    for u in ring.units():
        if u in group:
            continue
        gens.append(u)
        stack = list(group)
        while stack:
            x = stack.pop()
            for g in gens:
                y = x * g
                if y not in group:
                    group.add(y)
                    stack.append(y)
    return gens


def _display_generators(ring: GaloisRing, n: int, d_block: int) -> tuple[DisplayGroupElement, ...]:
    """A generating set of the display group.

    The block-diagonal elements (A, 0, 0, 1) and (1, 0, 0, D), with A and D
    running over the transvections 1 + x**t E_ij and the scalings diag(u, 1,
    ...) for u in a generating set of the units, the upper elements
    (1, x**t E_ij, 0, 1) and the lower elements (1, 0, x**t E_ij, 1).  They
    generate: (A, B~, C, D) is lower (C A^-1) times diagonal (A, D - C
    V(sigma(A)^-1 B~)) times upper (sigma(A)^-1 B~), and the diagonal factor
    has the residue of diag(A, D), so it is invertible.
    """
    basis = [ring.element((0,) * t + (1,)) for t in range(ring.d)]  # x**t
    units = _unit_generators(ring)
    ident = identity_display(ring, n, d_block)
    db, rest = d_block, n - d_block

    def with_entry(m: RMat, i: int, j: int, c: GaloisRingElement) -> RMat:
        return tuple(
            tuple(c if (a, b) == (i, j) else v for b, v in enumerate(row))
            for a, row in enumerate(m)
        )

    def linear(one: RMat) -> list[RMat]:
        k = len(one)
        out = [
            with_entry(one, i, j, c) for i in range(k) for j in range(k) if i != j for c in basis
        ]
        if k:
            out += [with_entry(one, 0, 0, u) for u in units]
        return out

    gens = [replace(ident, A=a) for a in linear(ident.A)]
    gens += [replace(ident, D=d) for d in linear(ident.D)]
    cells = [(i, j, c) for i in range(db) for j in range(rest) for c in basis]
    gens += [replace(ident, B_pre=with_entry(ident.B_pre, i, j, c)) for i, j, c in cells]
    cells = [(i, j, c) for i in range(rest) for j in range(db) for c in basis]
    gens += [replace(ident, C=with_entry(ident.C, i, j, c)) for i, j, c in cells]
    return tuple(gens)


# The orbit engine of `orbits` runs on integer codes: an element with
# coefficients c_k is coded as sum(c_k * (p**m)**k), so one is 1 and zero is 0.


def _code(x: GaloisRingElement) -> int:
    q = x.ring.char
    return sum(c * q**k for k, c in enumerate(x.coeffs))


def _elements_by_code(ring: GaloisRing) -> list[GaloisRingElement]:
    out = [ring.zero] * ring.size
    for x in ring.elements():
        out[_code(x)] = x
    return out


def _decoded(elements: Sequence[GaloisRingElement], flat: tuple[int, ...], n: int) -> RMat:
    """The n-by-n matrix whose entries, in row-major order, have the codes in flat."""
    return tuple(tuple(elements[c] for c in flat[i * n : (i + 1) * n]) for i in range(n))


def _residue_codes(ring: GaloisRing) -> list[int]:
    """The residue of each code, as the residue field's integer.

    That integer is also the element's code in the level-one ring of the
    same residue field: each digit is taken modulo p.
    """
    p, q, d = ring.p, ring.char, ring.d
    return [sum(c // q**k % q % p * p**k for k in range(d)) for c in range(ring.size)]


def _lex_codes(ring: GaloisRing) -> list[int]:
    """A rank for each code whose order is the order of the coefficient tuples.

    Flat code tuples compared through these ranks are in coefficient order.
    """
    q, d = ring.char, ring.d
    return [sum(c // q**k % q * q ** (d - 1 - k) for k in range(d)) for c in range(ring.size)]


def _code_add(ring: GaloisRing) -> Callable[[int, int], int]:
    """Addition of codes: coefficientwise modulo p**m."""
    q, d = ring.char, ring.d

    def add(a: int, b: int) -> int:
        out, shift = 0, 1
        for _ in range(d):
            out += (a + b) % q * shift
            a //= q
            b //= q
            shift *= q
        return out

    return add


def _display_moves(
    ring: GaloisRing, n: int, d_block: int, elements: Sequence[GaloisRingElement]
) -> tuple[tuple[_Op, ...], ...]:
    """Each generator x compiled from the coded pair (iota(x), sigma_mu(x)**-1)."""

    def coded(a: RMat) -> Mat:
        return tuple(tuple(_code(v) for v in row) for row in a)

    def mul(a: int, b: int) -> int:
        return _code(elements[a] * elements[b])

    pairs = (
        (coded(iota(x)), coded(rmat_inv(ring, sigma_mu(x))))
        for x in _display_generators(ring, n, d_block)
    )
    return _compile_moves(pairs, n, _code_add(ring), mul, ring.size)


def _coded_orbits(ring: GaloisRing, n: int, d_block: int) -> list[tuple[tuple[int, ...], set]]:
    """(least point, orbit) for the display orbits on GL_n over the ring, as flat code tuples.

    Each orbit is walked with the display group's generators, applied as row
    and column operations on integer-coded matrices, and seeded at the least
    uncovered point; |G| comes from its closed form.  Orbits come sorted by
    size, then by least point.  Points are ordered by their entries'
    coefficients read row by row (coefficient order).
    """
    space = ring.size ** (n * n)
    if space > ENUMERATION_GUARD:
        raise TooLarge(f"the level-{ring.m} matrix space has {space} points")
    # the walk's sum tables fill up to ring.size rows of ring.size entries
    entries = ring.size**2
    if entries > ENUMERATION_GUARD:
        raise TooLarge(f"the level-{ring.m} sum tables need {entries} entries")
    order = display_group_order(ring, n, d_block)
    moves = _display_moves(ring, n, d_block, _elements_by_code(ring))
    orbits = list(_orbit_partition(moves, _invertible_codes(ring, n), order, tuple))
    if sum(len(o) for _, o in orbits) != _ring_gl_order(ring, n):
        raise InvariantError(f"the orbits do not exhaust GL_{n} over the ring")
    # the points come in coefficient order, so each seed is its orbit's least point
    return sorted(orbits, key=lambda so: len(so[1]))


def display_orbit_partition(ring: GaloisRing, n: int, d_block: int) -> tuple[frozenset, ...]:
    """Partition the invertible n-by-n matrices into display-group orbits.

    Orbits are sorted by size, then by least point in coefficient order.
    """
    elements = _elements_by_code(ring)
    return tuple(
        frozenset(_decoded(elements, z, n) for z in orbit) for _, orbit in _coded_orbits(ring, n, d_block)
    )


def orbit_census_level(n: int, p: int, d: int, m: int, d_block: int = 1) -> OrbitCensus:
    """Exhaustive orbit census of the display action at truncation level m.

    The returned census stores the truncation level in its ext field and the
    number of invertible matrices over the ring in group_order; cells do not
    apply at higher level and are left empty.
    """
    ring = make_ring(p, d, m)
    order = display_group_order(ring, n, d_block)
    elements = _elements_by_code(ring)
    records = [
        OrbitRecord(_decoded(elements, rep, n), len(orbit), order // len(orbit), None)
        for rep, orbit in _coded_orbits(ring, n, d_block)
    ]
    total = sum(r.size for r in records)
    return OrbitCensus(m, total, tuple(records))


def check_reduction(n: int, p: int, d: int, m: int, d_block: int = 1) -> dict:
    """Verify that level-m orbits reduce into single level-one orbits.

    Returns a JSON-ready report with the orbit counts at both levels and a
    list of violations, which is empty exactly when every level-m orbit maps
    into one level-one orbit under coefficientwise reduction modulo p.  The
    reduction runs on codes: a level-m code reduces to the level-one code of
    its residue.
    """
    ring_m = make_ring(p, d, m)
    ring_one = make_ring(p, d, 1)
    orbits_m = _coded_orbits(ring_m, n, d_block)
    orbits_one = _coded_orbits(ring_one, n, d_block)
    index_one = {z: k for k, (_, orbit) in enumerate(orbits_one) for z in orbit}
    reduce = _residue_codes(ring_m)
    q = ring_m.char
    violations = []
    for rep, orbit in orbits_m:
        hit = {index_one[tuple([reduce[c] for c in z])] for z in orbit}
        if len(hit) != 1:
            violations.append(
                {
                    "orbit_rep": [
                        [[c // q**k % q for k in range(d)] for c in rep[i * n : (i + 1) * n]]
                        for i in range(n)
                    ],
                    "level_one_orbits": len(hit),
                }
            )
    return {
        "params": {"n": n, "p": p, "d": d, "m": m, "d_block": d_block},
        "orbits_m": len(orbits_m),
        "orbits_1": len(orbits_one),
        "violations": violations,
    }
