"""Exact arithmetic in small finite fields, plus dense linear algebra over them.

Elements of F_{p^degree} are encoded as integers in range(p**degree) whose
base-p digits are the coefficients of a polynomial in the canonical generator,
reduced modulo the lexicographically smallest monic irreducible polynomial of
the right degree.  Matrices are tuples of row tuples of such integers.  All
routines are exact; nothing here depends on floating point.

The polynomial kernel modulo q, the irreducibility test and the prime-power
parser here are the only ones in the package; the Galois rings of `witt`
reuse them with q = p**m.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Sequence

from .coxeter import ENUMERATION_GUARD, InvariantError, TooLarge

Mat = tuple[tuple[int, ...], ...]

_TABLE_LIMIT = 256  # full q-by-q add/mul tables below this order


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_power(q: int) -> tuple[int, int]:
    """The pair (p, d) with p prime, d >= 1 and q == p**d; ValueError otherwise."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((r for r in range(2, isqrt(q) + 1) if q % r == 0), q)
    d, rest = 0, q
    while rest % p == 0:
        rest //= p
        d += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, d


# ---------------------------------------------------------------------------
# polynomials with coefficients modulo q (little-endian coefficient sequences)
# ---------------------------------------------------------------------------
# One kernel serves the fields F_p[x]/(f) (q = p) and the Galois rings
# Z/p**m[x]/(f) (q = p**m); every modulus is monic.  They run once per ring
# product and `bench/tracing.py` times every public function, so they stay
# private.


def _poly_mul_q(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] = (out[i + j] + av * bv) % q
    return out


def _poly_rem_q(a: Sequence[int], modulus: Sequence[int], q: int) -> tuple[int, ...]:
    """Remainder of a modulo a monic modulus, returned with fixed length."""
    deg = len(modulus) - 1
    r = [v % q for v in a]
    if len(r) < deg:
        r += [0] * (deg - len(r))
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if not c:
            continue
        r[i] = 0
        for j in range(deg):
            r[i - deg + j] = (r[i - deg + j] - c * modulus[j]) % q
    return tuple(r[:deg])


def _coeff_mul(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], q: int) -> tuple[int, ...]:
    return _poly_rem_q(_poly_mul_q(a, b, q), modulus, q)


def _coeff_pow(base: Sequence[int], k: int, modulus: Sequence[int], q: int) -> tuple[int, ...]:
    deg = len(modulus) - 1
    out = tuple([1 % q] + [0] * (deg - 1))
    cur = _poly_rem_q(base, modulus, q)
    while k:
        if k & 1:
            out = _coeff_mul(out, cur, modulus, q)
        cur = _coeff_mul(cur, cur, modulus, q)
        k >>= 1
    return out


def _monic(p: int, degree: int, enc: int) -> tuple[int, ...]:
    """The monic polynomial whose lower coefficients are the base-p digits of enc."""
    return tuple((enc // p**k) % p for k in range(degree)) + (1,)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Whether a monic polynomial over F_p is irreducible, by trial division."""
    d = len(f) - 1
    if d < 1:
        return False
    for deg in range(1, d // 2 + 1):
        for enc in range(p**deg):
            if not any(_poly_rem_q(f, _monic(p, deg, enc), p)):
                return False
    return True


def smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of given degree over F_p.

    Candidates are ordered by the integer encoding of their non-leading
    coefficients, so the result is canonical and shared by every consumer.
    """
    for enc in range(p**degree):
        cand = _monic(p, degree, enc)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class FiniteField:
    """The field with p**degree elements; get_field shares one object per field.

    The tables grow with the order, so a field with more than
    ENUMERATION_GUARD elements is refused with TooLarge before any is built.
    """

    def __init__(self, p: int, degree: int) -> None:
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if degree < 1:
            raise ValueError("the degree must be positive")
        self.p = p
        self.degree = degree
        self.order = p**degree
        if self.order > ENUMERATION_GUARD:
            raise TooLarge(f"a field of {self.order} elements passes the enumeration guard")
        self.modulus = smallest_irreducible(p, self.degree)
        self._build_tables()
        self._embeddings: dict[tuple[int, int], tuple[int, ...]] = {}

    # -- construction of the arithmetic tables --------------------------------

    def _digits(self, a: int) -> tuple[int, ...]:
        p = self.p
        return tuple((a // p**k) % p for k in range(self.degree))

    def _from_digits(self, digits: Sequence[int]) -> int:
        p = self.p
        return sum((c % p) * p**k for k, c in enumerate(digits))

    def _add_raw(self, a: int, b: int) -> int:
        p, out, shift = self.p, 0, 1
        for _ in range(self.degree):
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def _build_tables(self) -> None:
        n = self.order
        # discrete log tables on the unit group: the generator is the least
        # unit g with g^((n - 1) / r) != 1 for every prime r dividing n - 1,
        # and its powers, walked once, must cover all n - 1 units (a unit
        # group without such a g fails that check at its last candidate)
        cofactors = [(n - 1) // r for r in range(2, n) if (n - 1) % r == 0 and is_prime(r)]
        one = self._digits(1)
        for gen in range(1, n):
            if all(_coeff_pow(self._digits(gen), e, self.modulus, self.p) != one for e in cofactors):
                break
        # each power times g on its digit list: a shift per nonzero digit of g
        # and one reduction, with the code read off the digits
        exp, x, digits = [1], gen, self._digits(gen)
        terms = [(k, c) for k, c in enumerate(digits) if c]
        weights = [self.p**k for k in range(self.degree)]
        while x != 1 and len(exp) < n - 1:
            exp.append(x)
            product = [0] * (self.degree + terms[-1][0])
            for k, c in terms:
                for j, v in enumerate(digits, k):
                    product[j] += c * v
            digits = _poly_rem_q(product, self.modulus, self.p)
            x = sum(v * w for v, w in zip(digits, weights))
        if len(exp) != n - 1 or len(set(exp)) != n - 1:
            raise InvariantError("the unit group of a finite field must be cyclic")
        self.generator = gen
        log = [0] * n
        for k, v in enumerate(exp):
            log[v] = k
        self._exp, self._log = exp, log
        if n <= _TABLE_LIMIT:
            self._add_table = [[self._add_raw(a, b) for b in range(n)] for a in range(n)]
            self._mul_table = [
                [0 if 0 in (a, b) else exp[(log[a] + log[b]) % (n - 1)] for b in range(n)]
                for a in range(n)
            ]
        else:
            self._add_table = None
            self._mul_table = None
        # frobenius x -> x**p as a permutation table, iterated for higher powers
        frob1 = [self.power(a, self.p) for a in range(n)]
        self._frob = [list(range(n)), frob1]

    # -- basic operations ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        t = self._add_table
        if t is not None:
            return t[a][b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        p, out, shift = self.p, 0, 1
        for _ in range(self.degree):
            out += ((-a) % p) * shift
            a //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        t = self._mul_table
        if t is not None:
            return t[a][b]
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def power(self, a: int, k: int) -> int:
        if a == 0:
            return 0 if k else 1
        return self._exp[(self._log[a] * k) % (self.order - 1)]

    def frobenius(self, a: int, k: int = 1) -> int:
        """a**(p**k), with k taken modulo the absolute degree."""
        k %= self.degree
        while len(self._frob) <= k:
            prev = self._frob[-1]
            base = self._frob[1]
            self._frob.append([base[x] for x in prev])
        return self._frob[k][a]

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        return self._digits(a)

    def element_from_coeffs(self, digits: Sequence[int]) -> int:
        if len(digits) > self.degree:
            raise ValueError("too many coefficients")
        return self._from_digits(tuple(digits) + (0,) * (self.degree - len(digits)))

    def eval_poly(self, coeffs: Sequence[int], x: int) -> int:
        out = 0
        for c in reversed(list(coeffs)):
            out = self.add(self.mul(out, x), c % self.p)
        return out

    # -- embeddings ------------------------------------------------------------

    def embedding_from(self, small: "FiniteField") -> tuple[int, ...]:
        """Table mapping elements of `small` into this field.

        The image of the small field's canonical generator is the least root
        of its modulus here, so the embedding is canonical and transitive
        checks in the tests are meaningful.
        """
        key = (small.p, small.degree)
        if key in self._embeddings:
            return self._embeddings[key]
        if small.p != self.p or self.degree % small.degree:
            raise ValueError("no embedding between these fields")
        root = None
        for x in range(self.order):
            if self.eval_poly(small.modulus, x) == 0:
                root = x
                break
        if root is None:
            raise InvariantError("the small field's modulus must have a root here")
        table = tuple(
            self.eval_poly(small.coeffs_of(a), root) for a in range(small.order)
        )
        self._embeddings[key] = table
        return table

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteField(p={self.p}, degree={self.degree})"


@lru_cache(maxsize=None)
def get_field(p: int, degree: int) -> FiniteField:
    """The one shared FiniteField of order p**degree."""
    return FiniteField(p, degree)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(field: FiniteField, a: Mat, b: Mat) -> Mat:
    add, mul = field.add, field.mul
    bt = tuple(zip(*b))
    out = []
    for row in a:
        new = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def mat_frobenius(field: FiniteField, a: Mat, k: int = 1) -> Mat:
    fr = field.frobenius
    return tuple(tuple(fr(x, k) for x in row) for row in a)


def _row_reduce(field: FiniteField, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    add, mul, inv, neg = field.add, field.mul, field.inv, field.neg
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, nrows):
            if rows[rr][c]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        f = inv(rows[r][c])
        rows[r] = [mul(f, x) for x in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c]:
                f = neg(rows[rr][c])
                rows[rr] = [add(x, mul(f, y)) for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def mat_rank(field: FiniteField, a: Mat) -> int:
    if not a:
        return 0
    _, pivots = _row_reduce(field, [list(r) for r in a])
    return len(pivots)


def _leading_block_ranks(field: FiniteField, g: Mat, prefixes: Sequence[int]) -> list[list[int]]:
    """rank[a][b], the rank of the leading prefixes[a]-by-prefixes[b] block of g, from one elimination.

    The rows of g join, one row block at a time, an echelon basis keyed by
    pivot column (each basis row is 1 at its pivot and 0 before it).  The
    pivots of a row space are the columns where the rank of its leading
    columns grows, so the leading c columns of the first r rows have rank
    the number of pivots left of c.
    """
    add, mul, inv, neg = field.add, field.mul, field.inv, field.neg
    basis: dict[int, list[int]] = {}
    rank = []
    done = 0
    for r in prefixes:
        for row in g[done:r]:
            v = list(row)
            for c in range(len(v)):
                x = v[c]
                if not x:
                    continue
                if c not in basis:
                    f = inv(x)
                    basis[c] = [mul(f, y) for y in v]
                    break
                f = neg(x)
                v = [add(y, mul(f, b)) for y, b in zip(v, basis[c])]
        done = r
        rank.append([sum(1 for pivot in basis if pivot < c) for c in prefixes])
    return rank


def mat_inv(field: FiniteField, a: Mat) -> Mat:
    n = len(a)
    aug = [list(a[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows, pivots = _row_reduce(field, aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def mat_is_invertible(field: FiniteField, a: Mat) -> bool:
    """True for a square matrix of full rank, the 0-by-0 one included; False for a ragged one."""
    return all(len(row) == len(a) for row in a) and mat_rank(field, a) == len(a)


def column_echelon(field: FiniteField, a: Mat) -> Mat:
    """Canonical basis of the column span: reduced column echelon, zero columns dropped.

    Spans are equal exactly when their echelon forms are identical, which is
    what every span comparison in the package relies on.
    """
    if not a or not a[0]:
        return tuple(() for _ in a)
    rows, pivots = _row_reduce(field, [list(r) for r in mat_transpose(a)])
    kept = [tuple(rows[i]) for i in range(len(pivots))]
    return mat_transpose(tuple(kept)) if kept else tuple(() for _ in a)


def kernel_basis(field: FiniteField, a: Mat) -> Mat:
    """Canonical basis (as columns) of the right kernel of a."""
    if not a:
        return ()
    ncols = len(a[0])
    rows, pivots = _row_reduce(field, [list(r) for r in a])
    free = [c for c in range(ncols) if c not in pivots]
    neg = field.neg
    cols = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = neg(rows[i][f])
        cols.append(tuple(v))
    return mat_transpose(tuple(cols)) if cols else tuple(() for _ in range(ncols))


def solve_right(field: FiniteField, a: Mat, b: Mat) -> Mat:
    """One solution X of A X = B, or raise ValueError when inconsistent."""
    n_unk = len(a[0])
    rows, pivots = _row_reduce(field, [list(ra) + list(rb) for ra, rb in zip(a, b)])
    width = len(b[0])
    for r in range(len(pivots), len(rows)):
        if any(rows[r][n_unk:]):
            raise ValueError("inconsistent linear system")
    x = [[0] * width for _ in range(n_unk)]
    for i, pc in enumerate(pivots):
        if pc >= n_unk:
            raise ValueError("inconsistent linear system")
        for j in range(width):
            x[pc][j] = rows[i][n_unk + j]
    return tuple(tuple(r) for r in x)


def mat_hstack(blocks: Sequence[Mat]) -> Mat:
    blocks = [b for b in blocks if b and len(b[0]) > 0]
    if not blocks:
        return ()
    return tuple(tuple(x for b in blocks for x in b[i]) for i in range(len(blocks[0])))


def mat_embed(table: Sequence[int], a: Mat) -> Mat:
    return tuple(tuple(table[x] for x in row) for row in a)


def gl_order(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q**n - q**k
    return out
