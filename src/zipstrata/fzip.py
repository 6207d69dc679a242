"""Concrete filtered Frobenius data and their stratum classification.

A concrete datum of rank n over a finite field consists of a descending
filtration C, an ascending filtration D, and, for every weight where the
filtrations jump, an invertible Frobenius-semilinear map between the graded
pieces.  This module builds such data from Dieudonne-style operator pairs,
forms tensor products and duals, serializes them, and classifies a datum by
locating the group orbit of its attached matrix among the standard stratum
representatives.

Conventions used throughout:

- Subspaces are stored as reduced column-echelon matrices over the working
  field, so equal spans are equal matrices and every construction is
  deterministic.
- The graded piece at a weight is presented by the columns of the echelon
  basis of the bigger space whose pivot rows do not occur in the smaller
  one.  Reduced echelon form makes pivot rows nested along nested spans, so
  these columns always form a basis of the quotient.
- Semilinear maps are recorded as matrices in those graded bases; they twist
  by the q-power Frobenius of the working field.
- Weights of multiplicity zero are never stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .coxeter import ParabolicType, WeylElement, create_weyl, min_coset_reps
from .ffield import (
    FiniteField,
    Mat,
    column_echelon,
    get_field,
    is_prime,
    kernel_basis,
    mat_embed,
    mat_frobenius,
    mat_hstack,
    mat_identity,
    mat_inv,
    mat_is_invertible,
    mat_mul,
    mat_transpose,
    prime_power,
    solve_right,
)
from .grouplab import make_zip_datum, zip_orbit_search
from .zipdatum import StratumPoset, stratum_poset, zip_from_cocharacter

__all__ = [
    "ClassifyWitness",
    "FZipConcrete",
    "FZipType",
    "ImKerMismatch",
    "StratumLabel",
    "Undetermined",
    "attached_group_element",
    "classify",
    "dieudonne_to_fzip",
    "dual",
    "enumerate_strata",
    "fzip_from_group_element",
    "fzip_from_json",
    "fzip_to_json",
    "fzip_type",
    "standard_zip",
    "tate_zip",
    "tensor",
    "type_to_parabolic",
]


class ImKerMismatch(ValueError):
    """An operator pair violates one of the two image/kernel exactness laws."""


class Undetermined(ValueError):
    """Classification exhausted its field extensions without finding a match."""

    def __init__(self, max_ext: int) -> None:
        super().__init__(
            f"no standard representative reached within extension degree {max_ext}"
        )
        self.max_ext = max_ext


# ---------------------------------------------------------------------------
# weight types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FZipType:
    """Finitely supported multiplicity pattern of filtration weights."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev = None
        for item in self.entries:
            if len(item) != 2:
                raise ValueError("entries must be (weight, multiplicity) pairs")
            i, m = item
            if not isinstance(i, int) or not isinstance(m, int):
                raise ValueError("weights and multiplicities must be integers")
            if m < 1:
                raise ValueError("stored multiplicities must be positive")
            if prev is not None and i <= prev:
                raise ValueError("weights must be strictly increasing")
            prev = i

    @classmethod
    def of(
        cls, data: Union[Mapping[int, int], Iterable[tuple[int, int]]]
    ) -> "FZipType":
        pairs = data.items() if isinstance(data, Mapping) else data
        agg: dict[int, int] = {}
        for i, m in pairs:
            i, m = int(i), int(m)
            if m < 0:
                raise ValueError("multiplicities must be nonnegative")
            agg[i] = agg.get(i, 0) + m
        return cls(tuple(sorted((i, m) for i, m in agg.items() if m > 0)))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def n_of(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def total_rank(self) -> int:
        return sum(m for _, m in self.entries)

    def rank_at(self, i: int) -> int:
        return self.n_of.get(i, 0)

    def convolve(self, other: "FZipType") -> "FZipType":
        """Multiplicity pattern of a tensor product."""
        return FZipType.of(
            (i + j, a * b) for i, a in self.entries for j, b in other.entries
        )

    def reflect(self) -> "FZipType":
        """Multiplicity pattern of a dual."""
        return FZipType.of((-i, m) for i, m in self.entries)


def type_to_parabolic(t: FZipType) -> tuple[int, ParabolicType]:
    """Rank and parabolic type cut out by the multiplicity pattern.

    Blocks are the multiplicities in increasing weight order; the parabolic
    keeps every simple index except the running block boundaries.
    """
    n = t.total_rank
    if n < 1:
        raise ValueError("the type has rank zero")
    cuts = set()
    run = 0
    for _, m in t.entries:
        run += m
        if run < n:
            cuts.add(run)
    return n, ParabolicType.of(i for i in range(1, n) if i not in cuts)


def enumerate_strata(t: FZipType) -> StratumPoset:
    """Stratum poset attached to the multiplicity pattern."""
    n, par = type_to_parabolic(t)
    if n < 2:
        raise ValueError("rank-one patterns have a single stratum and no poset")
    return stratum_poset(zip_from_cocharacter(create_weyl("A", n - 1), par, gl_center=True))


# ---------------------------------------------------------------------------
# span bookkeeping
# ---------------------------------------------------------------------------

Pairs = tuple  # ((weight, Mat), ...), sorted by weight


def _exp_of(p: int, q: int) -> int:
    base, e = prime_power(q)
    if base != p:
        raise ValueError(f"{q} is not a positive power of {p}")
    return e


def _width(mat: Mat) -> int:
    return len(mat[0]) if mat else 0


def _zero_space(n: int) -> Mat:
    return tuple(() for _ in range(n))


def _pivots(mat: Mat) -> tuple[int, ...]:
    """First nonzero row of each column of an echelon matrix."""
    out = []
    for c in range(_width(mat)):
        for r in range(len(mat)):
            if mat[r][c]:
                out.append(r)
                break
    return tuple(out)


def _graded_basis(big: Mat, small: Mat) -> Mat:
    """Columns of the big echelon basis whose pivot rows the small space misses."""
    drop = set(_pivots(small))
    keep = [c for c, r in enumerate(_pivots(big)) if r not in drop]
    assert len(keep) == _width(big) - _width(small), "echelon pivots are not nested"
    return tuple(tuple(row[c] for c in keep) for row in big)


def _contains(field: FiniteField, big: Mat, small: Mat) -> bool:
    if not _width(small):
        return True
    try:
        solve_right(field, big, small)
    except ValueError:
        return False
    return True


def _space_c_at(stored: Pairs, n: int, i: int) -> Mat:
    """Descending filtration read at an arbitrary weight."""
    for j, mat in stored:
        if i <= j:
            return mat
    return _zero_space(n)


def _space_d_at(stored: Pairs, n: int, i: int) -> Mat:
    """Ascending filtration read at an arbitrary weight."""
    out = _zero_space(n)
    for j, mat in stored:
        if j <= i:
            out = mat
        else:
            break
    return out


def _canonical_spaces(field: FiniteField, n: int, pairs, side: str) -> Pairs:
    if not pairs:
        raise ValueError(f"the {side} filtration stores no spaces")
    seen: dict[int, Mat] = {}
    for item in pairs:
        i, mat = item
        i = int(i)
        if i in seen:
            raise ValueError(f"weight {i} appears twice in {side}")
        rows = tuple(tuple(int(x) for x in row) for row in mat)
        if len(rows) != n:
            raise ValueError(f"{side} spaces need {n} rows")
        if len({len(r) for r in rows}) > 1:
            raise ValueError(f"ragged matrix at weight {i} in {side}")
        for row in rows:
            for x in row:
                if not 0 <= x < field.order:
                    raise ValueError(f"entry {x} is outside the working field")
        seen[i] = column_echelon(field, rows)
    return tuple(sorted(seen.items()))


# ---------------------------------------------------------------------------
# concrete data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FZipConcrete:
    """Filtered Frobenius datum over F_{q^ext_deg}, q = p**frob_exp.

    C holds the jumps of a descending filtration (its first stored space is
    everything), D those of an ascending one (its last stored space is
    everything), and phi one invertible matrix per stored weight, written in
    the canonical graded bases and twisting by the q-power Frobenius.
    Construction canonicalizes all spans, so equality means isomorphism of
    the presented data in the ambient coordinates.
    """

    p: int
    q: int
    ext_deg: int
    n: int
    C: Pairs
    D: Pairs
    phi: Pairs

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        e = _exp_of(self.p, self.q)
        if self.ext_deg < 1:
            raise ValueError("the extension degree must be positive")
        if self.n < 1:
            raise ValueError("the rank must be positive")
        field = get_field(self.p, e * self.ext_deg)
        C = _canonical_spaces(field, self.n, self.C, "C")
        D = _canonical_spaces(field, self.n, self.D, "D")

        cw = [_width(m) for _, m in C]
        if cw[0] != self.n:
            raise ValueError("the largest C space must be everything")
        if cw[-1] < 1 or any(a <= b for a, b in zip(cw, cw[1:])):
            raise ValueError("C must descend strictly through its stored weights")
        for (_, big), (_, small) in zip(C, C[1:]):
            if not _contains(field, big, small):
                raise ValueError("C spaces are not nested")

        dw = [_width(m) for _, m in D]
        if dw[-1] != self.n:
            raise ValueError("the largest D space must be everything")
        if dw[0] < 1 or any(a >= b for a, b in zip(dw, dw[1:])):
            raise ValueError("D must ascend strictly through its stored weights")
        for (_, small), (_, big) in zip(D, D[1:]):
            if not _contains(field, big, small):
                raise ValueError("D spaces are not nested")

        mult_c = {
            i: w - nxt
            for (i, _), w, nxt in zip(C, cw, cw[1:] + [0])
        }
        mult_d = {
            i: w - prv
            for (i, _), w, prv in zip(D, dw, [0] + dw[:-1])
        }
        if mult_c != mult_d:
            raise ValueError("the filtrations induce different multiplicity patterns")

        phi_seen: dict[int, Mat] = {}
        for item in self.phi:
            i, mat = item
            i = int(i)
            if i in phi_seen:
                raise ValueError(f"weight {i} appears twice in phi")
            rows = tuple(tuple(int(x) for x in row) for row in mat)
            phi_seen[i] = rows
        if sorted(phi_seen) != sorted(mult_c):
            raise ValueError("phi must store exactly the weights where the type jumps")
        for i, rows in phi_seen.items():
            m = mult_c[i]
            if len(rows) != m or any(len(r) != m for r in rows):
                raise ValueError(f"the glue at weight {i} must be {m} x {m}")
            for row in rows:
                for x in row:
                    if not 0 <= x < field.order:
                        raise ValueError(f"entry {x} is outside the working field")
            if not mat_is_invertible(field, rows):
                raise ValueError(f"the glue at weight {i} is singular")

        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "phi", tuple(sorted(phi_seen.items())))

    @property
    def frob_exp(self) -> int:
        """The exponent e with q = p**e; phi twists by the p**e-power map."""
        return _exp_of(self.p, self.q)

    @property
    def field(self) -> FiniteField:
        """The working field F_{q^ext_deg} all matrices live over."""
        return get_field(self.p, self.frob_exp * self.ext_deg)


def fzip_type(z: FZipConcrete) -> FZipType:
    """Multiplicity pattern read off the jumps of the C filtration."""
    widths = [_width(m) for _, m in z.C] + [0]
    return FZipType.of(
        (i, widths[k] - widths[k + 1]) for k, (i, _) in enumerate(z.C)
    )


def _c_graded_bases(z: FZipConcrete) -> dict[int, Mat]:
    out = {}
    for k, (i, mat) in enumerate(z.C):
        nxt = z.C[k + 1][1] if k + 1 < len(z.C) else _zero_space(z.n)
        out[i] = _graded_basis(mat, nxt)
    return out


def _d_graded_bases(z: FZipConcrete) -> dict[int, Mat]:
    out = {}
    prev = _zero_space(z.n)
    for i, mat in z.D:
        out[i] = _graded_basis(mat, prev)
        prev = mat
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def tate_zip(
    d: int, p: int = 2, q: Optional[int] = None, ext_deg: int = 1
) -> FZipConcrete:
    """Rank-one datum concentrated in weight d with identity glue."""
    if q is None:
        q = p
    one = ((d, ((1,),)),)
    return FZipConcrete(p, q, ext_deg, 1, one, one, one)


def fzip_from_group_element(
    t: FZipType,
    g: Mat,
    p: int = 2,
    q: Optional[int] = None,
    ext_deg: int = 1,
) -> FZipConcrete:
    """Datum with the standard descending filtration and D spanned by g.

    The columns of g, cut into blocks by the multiplicity pattern, span the
    ascending filtration, and the glue sends the k-th standard graded class
    to the class of the k-th column.  The attached group element of the
    result lies in the orbit of g, so classification recovers g's stratum.
    """
    if q is None:
        q = p
    e = _exp_of(p, q)
    field = get_field(p, e * ext_deg)
    n = t.total_rank
    if n < 1:
        raise ValueError("the type has rank zero")
    g = tuple(tuple(int(x) for x in row) for row in g)
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError(f"the matrix must be {n} x {n} for this type")
    for row in g:
        for x in row:
            if not 0 <= x < field.order:
                raise ValueError(f"entry {x} is outside the working field")
    if not mat_is_invertible(field, g):
        raise ValueError("the matrix is singular")

    ident = mat_identity(n)
    C_pairs, D_pairs, phi_pairs = [], [], []
    prev_ech = _zero_space(n)
    cum = 0
    for i, m in t.entries:
        c_mat = tuple(row[cum:] for row in ident)
        d_mat = tuple(row[: cum + m] for row in g)
        d_ech = column_echelon(field, d_mat)
        v_basis = _graded_basis(d_ech, prev_ech)
        block = tuple(row[cum : cum + m] for row in g)
        coords = solve_right(field, mat_hstack((v_basis, prev_ech)), block)
        C_pairs.append((i, c_mat))
        D_pairs.append((i, d_mat))
        phi_pairs.append((i, tuple(coords[:m])))
        prev_ech = d_ech
        cum += m
    return FZipConcrete(
        p, q, ext_deg, n, tuple(C_pairs), tuple(D_pairs), tuple(phi_pairs)
    )


def standard_zip(
    t: FZipType,
    w: WeylElement,
    p: int = 2,
    q: Optional[int] = None,
    ext_deg: int = 1,
) -> FZipConcrete:
    """Concrete datum of the standard representative of the stratum labelled w."""
    n, par = type_to_parabolic(t)
    if n < 2:
        raise ValueError("rank-one types have a single stratum")
    comb = zip_from_cocharacter(create_weyl("A", n - 1), par, gl_center=True)
    if w.group != comb.group:
        raise ValueError("the label lives in the wrong Weyl group")
    for i in par:
        if (comb.group.simple_reflection(i) * w).length < w.length:
            raise ValueError("the label is not minimal in its coset")
    rep = _perm_matrix(w * comb.theta0)
    return fzip_from_group_element(t, rep, p=p, q=q, ext_deg=ext_deg)


def dieudonne_to_fzip(
    F_mat: Mat, V_mat: Mat, field: Optional[FiniteField] = None
) -> FZipConcrete:
    """Weight-{0,1} datum of an operator pair (F twists forward, V backward).

    F acts by x -> F_mat . sigma(x) and V by x -> V_mat . sigma**-1(x) for
    the p-power map sigma.  The pair must satisfy the two exactness laws
    image(V) = kernel(F) and image(F) = kernel(V), read for the semilinear
    operators; otherwise ImKerMismatch is raised.
    """
    ff = field if field is not None else get_field(2, 1)
    n = len(F_mat)
    if n < 1:
        raise ValueError("the operators act on a zero space")
    for name, mat in (("F", F_mat), ("V", V_mat)):
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError(f"{name} must be a square matrix of the same size")
        for row in mat:
            for x in row:
                if not 0 <= int(x) < ff.order:
                    raise ValueError(f"entry {x} is outside the working field")
    F_mat = tuple(tuple(int(x) for x in row) for row in F_mat)
    V_mat = tuple(tuple(int(x) for x in row) for row in V_mat)

    deg = ff.degree
    im_f = column_echelon(ff, F_mat)
    im_v = column_echelon(ff, V_mat)
    # kernel of x -> F_mat . sigma(x) is sigma**-1 of the matrix kernel
    ker_f = column_echelon(ff, mat_frobenius(ff, kernel_basis(ff, F_mat), deg - 1))
    # kernel of x -> V_mat . sigma**-1(x) is sigma of the matrix kernel
    ker_v = column_echelon(ff, mat_frobenius(ff, kernel_basis(ff, V_mat), 1))
    if im_v != ker_f:
        raise ImKerMismatch("the image of V is not the kernel of F")
    if im_f != ker_v:
        raise ImKerMismatch("the image of F is not the kernel of V")

    r = _width(im_f)
    ident = mat_identity(n)
    if r == n:
        # F invertible: a single block in weight 0
        pairs = ((0, ident),)
        return FZipConcrete(ff.p, ff.p, deg, n, pairs, pairs, ((0, F_mat),))
    if r == 0:
        # V invertible: a single block in weight 1, glued by the inverse of V
        pairs = ((1, ident),)
        glue = mat_frobenius(ff, mat_inv(ff, V_mat), 1)
        return FZipConcrete(ff.p, ff.p, deg, n, pairs, pairs, ((1, glue),))

    C_pairs = ((0, ident), (1, im_v))
    D_pairs = ((0, im_f), (1, ident))
    u0 = _graded_basis(ident, im_v)
    v1 = _graded_basis(ident, im_f)
    # weight 0: classes of u0 map to F(u0), expressed in the basis of im F
    a0 = solve_right(ff, im_f, mat_mul(ff, F_mat, mat_frobenius(ff, u0, 1)))
    # weight 1: classes of im V map through the inverse of V, mod im F
    ys = solve_right(ff, V_mat, im_v)
    xs = mat_frobenius(ff, ys, 1)
    a1 = tuple(solve_right(ff, mat_hstack((v1, im_f)), xs)[: n - r])
    return FZipConcrete(
        ff.p, ff.p, deg, n, C_pairs, D_pairs, ((0, tuple(a0)), (1, a1))
    )


# ---------------------------------------------------------------------------
# tensor and dual
# ---------------------------------------------------------------------------


def _kron(field: FiniteField, a: Mat, b: Mat) -> Mat:
    out = []
    for ra in a:
        for rb in b:
            out.append(tuple(field.mul(x, y) for x in ra for y in rb))
    return tuple(out)


def _block_diag(blocks: Sequence[Mat]) -> Mat:
    total_r = sum(len(b) for b in blocks)
    total_c = sum(_width(b) for b in blocks)
    out = [[0] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for b in blocks:
        for r, row in enumerate(b):
            for c, x in enumerate(row):
                out[r0 + r][c0 + c] = x
        r0 += len(b)
        c0 += _width(b)
    return tuple(tuple(row) for row in out)


def tensor(a: FZipConcrete, b: FZipConcrete) -> FZipConcrete:
    """Tensor product: filtrations convolve and the graded glue multiplies."""
    if (a.p, a.q, a.ext_deg) != (b.p, b.q, b.ext_deg):
        raise ValueError("the factors live over different fields")
    field = a.field
    e = a.frob_exp
    n = a.n * b.n
    ta, tb = fzip_type(a), fzip_type(b)
    t = ta.convolve(tb)
    sa, sb = ta.support, tb.support

    c_spaces: dict[int, Mat] = {}
    d_spaces: dict[int, Mat] = {}
    for i in t.support:
        terms = []
        for j in range(i - sb[-1], sa[-1] + 1):
            ca = _space_c_at(a.C, a.n, j)
            cb = _space_c_at(b.C, b.n, i - j)
            if _width(ca) and _width(cb):
                terms.append(_kron(field, ca, cb))
        c_spaces[i] = column_echelon(field, mat_hstack(terms))
        terms = []
        for j in range(sa[0], i - sb[0] + 1):
            da = _space_d_at(a.D, a.n, j)
            db = _space_d_at(b.D, b.n, i - j)
            if _width(da) and _width(db):
                terms.append(_kron(field, da, db))
        d_spaces[i] = column_echelon(field, mat_hstack(terms))

    ua, va = _c_graded_bases(a), _d_graded_bases(a)
    ub, vb = _c_graded_bases(b), _d_graded_bases(b)
    pa, pb = dict(a.phi), dict(b.phi)

    supp = t.support
    phi_pairs = []
    for k, i in enumerate(supp):
        nxt = c_spaces[supp[k + 1]] if k + 1 < len(supp) else _zero_space(n)
        prev = d_spaces[supp[k - 1]] if k else _zero_space(n)
        u_basis = _graded_basis(c_spaces[i], nxt)
        v_basis = _graded_basis(d_spaces[i], prev)
        blocks = [(j, i - j) for j in sa if (i - j) in set(sb)]
        kmat = mat_hstack([_kron(field, ua[j], ub[kk]) for j, kk in blocks])
        lmat = mat_hstack([_kron(field, va[j], vb[kk]) for j, kk in blocks])
        glue = _block_diag([_kron(field, pa[j], pb[kk]) for j, kk in blocks])
        # u-coordinates -> product-class coordinates, dropping the deeper part
        s_top = solve_right(field, mat_hstack((kmat, nxt)), u_basis)[: _width(kmat)]
        # product classes on the D side -> v-coordinates
        t_top = solve_right(field, mat_hstack((v_basis, prev)), lmat)[: _width(v_basis)]
        composite = mat_mul(
            field, t_top, mat_mul(field, glue, mat_frobenius(field, s_top, e))
        )
        phi_pairs.append((i, composite))

    return FZipConcrete(
        a.p,
        a.q,
        a.ext_deg,
        n,
        tuple(sorted(c_spaces.items())),
        tuple(sorted(d_spaces.items())),
        tuple(phi_pairs),
    )


def _annihilator(field: FiniteField, n: int, mat: Mat) -> Mat:
    if not _width(mat):
        return mat_identity(n)
    return column_echelon(field, kernel_basis(field, mat_transpose(mat)))


def dual(a: FZipConcrete) -> FZipConcrete:
    """Dual datum: annihilator filtrations and inverse-transpose glue."""
    field = a.field
    e = a.frob_exp
    n = a.n
    supp = fzip_type(a).support
    dsupp = tuple(sorted(-i for i in supp))

    C_pairs = tuple(
        (j, _annihilator(field, n, _space_c_at(a.C, n, 1 - j))) for j in dsupp
    )
    D_pairs = tuple(
        (j, _annihilator(field, n, _space_d_at(a.D, n, -1 - j))) for j in dsupp
    )

    ua, va = _c_graded_bases(a), _d_graded_bases(a)
    pa = dict(a.phi)
    phi_pairs = []
    for k, j in enumerate(dsupp):
        nxt = C_pairs[k + 1][1] if k + 1 < len(C_pairs) else _zero_space(n)
        prev = D_pairs[k - 1][1] if k else _zero_space(n)
        u_dual = _graded_basis(C_pairs[k][1], nxt)
        v_dual = _graded_basis(D_pairs[k][1], prev)
        # graded pairings between the dual classes and the original ones
        m_pair = mat_mul(field, mat_transpose(u_dual), ua[-j])
        n_pair = mat_mul(field, mat_transpose(v_dual), va[-j])
        glue = mat_mul(
            field,
            mat_mul(
                field,
                mat_inv(field, mat_transpose(n_pair)),
                mat_inv(field, mat_transpose(pa[-j])),
            ),
            mat_transpose(mat_frobenius(field, m_pair, e)),
        )
        phi_pairs.append((j, glue))

    return FZipConcrete(a.p, a.q, a.ext_deg, n, C_pairs, D_pairs, tuple(phi_pairs))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyWitness:
    """How a classification succeeded: the matched matrix and at which level."""

    element: Mat
    ext: int
    representative: Mat


@dataclass(frozen=True)
class StratumLabel:
    """Stratum of a datum: a minimal coset representative plus the witness."""

    w: WeylElement
    certificate: Optional[ClassifyWitness] = None


def _perm_matrix(w: WeylElement) -> Mat:
    win = w.window
    n = len(win)
    return tuple(
        tuple(1 if win[j] == i + 1 else 0 for j in range(n)) for i in range(n)
    )


def attached_group_element(z: FZipConcrete) -> Mat:
    """Matrix comparing the C-adapted basis with the lifted glue images in D."""
    field = z.field
    u_bases = _c_graded_bases(z)
    v_bases = _d_graded_bases(z)
    cmats, dmats = [], []
    for i, glue in z.phi:
        cmats.append(u_bases[i])
        dmats.append(mat_mul(field, v_bases[i], glue))
    return mat_mul(
        field, mat_inv(field, mat_hstack(cmats)), mat_hstack(dmats)
    )


def classify(z: FZipConcrete, max_ext: int = 3) -> StratumLabel:
    """Locate the stratum of a datum by an orbit sweep over growing fields.

    The attached matrix is swept through its orbit over F_{q^s} for each
    usable s up to max_ext; the first standard representative it reaches
    names the stratum.  Raises Undetermined when no level matches, and
    propagates TooLarge when a sweep would exceed the exhaustion guard.
    """
    t = fzip_type(z)
    n, par = type_to_parabolic(t)
    if n < 2:
        raise ValueError("rank-one data form a single stratum; nothing to locate")
    base = get_field(z.p, z.frob_exp)
    datum = make_zip_datum(n, base, par)
    theta0 = datum.shadow().theta0
    carrier = min_coset_reps(datum.weyl, datum.I)
    targets = tuple(_perm_matrix(w * theta0) for w in carrier)
    g = attached_group_element(z)
    for s in range(z.ext_deg, max_ext + 1):
        if s % z.ext_deg:
            continue
        ffs = get_field(z.p, z.frob_exp * s)
        gs = g if ffs is z.field else mat_embed(ffs.embedding_from(z.field), g)
        hits, _ = zip_orbit_search(datum, gs, targets, ext=s)
        assert len(hits) <= 1, "two standard representatives share one orbit"
        if hits:
            w = carrier[targets.index(hits[0])]
            return StratumLabel(w, ClassifyWitness(g, s, hits[0]))
    raise Undetermined(max_ext)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def fzip_to_json(z: FZipConcrete) -> str:
    """Deterministic JSON encoding; field elements as coefficient arrays."""
    ff = z.field

    def cols_of(mat: Mat) -> list:
        return [
            [list(ff.coeffs_of(mat[r][c])) for r in range(len(mat))]
            for c in range(_width(mat))
        ]

    payload = {
        "p": z.p,
        "q": z.q,
        "ext_deg": z.ext_deg,
        "n": z.n,
        "C": [{"i": i, "cols": cols_of(m)} for i, m in z.C],
        "D": [{"i": i, "cols": cols_of(m)} for i, m in z.D],
        "phi": [
            {
                "i": i,
                "frob_exp": z.frob_exp,
                "matrix": [[list(ff.coeffs_of(x)) for x in row] for row in m],
            }
            for i, m in z.phi
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def fzip_from_json(text: str) -> FZipConcrete:
    """Inverse of fzip_to_json; malformed input raises ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("the document must be a JSON object")
    try:
        p = int(data["p"])
        q = int(data["q"])
        ext_deg = int(data["ext_deg"])
        n = int(data["n"])
        c_list, d_list, phi_list = data["C"], data["D"], data["phi"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing or malformed field: {exc}") from exc
    e = _exp_of(p, q)
    ff = get_field(p, e * ext_deg)

    def decode(coeffs) -> int:
        if not isinstance(coeffs, list):
            raise ValueError("field elements must be coefficient arrays")
        return ff.element_from_coeffs([int(c) for c in coeffs])

    def entry(item, key: str):
        try:
            return item[key]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"missing or malformed field: {exc}") from exc

    def space_pairs(items) -> tuple:
        out = []
        for item in items:
            cols = entry(item, "cols")
            if any(not isinstance(col, list) or len(col) != n for col in cols):
                raise ValueError("every column needs one entry per row")
            rows = tuple(
                tuple(decode(col[r]) for col in cols) for r in range(n)
            ) if cols else _zero_space(n)
            out.append((int(entry(item, "i")), rows))
        return tuple(out)

    phi_pairs = []
    for item in phi_list:
        if int(entry(item, "frob_exp")) != e:
            raise ValueError("the recorded Frobenius power disagrees with q")
        phi_pairs.append(
            (
                int(entry(item, "i")),
                tuple(tuple(decode(x) for x in row) for row in entry(item, "matrix")),
            )
        )
    return FZipConcrete(
        p, q, ext_deg, n, space_pairs(c_list), space_pairs(d_list), tuple(phi_pairs)
    )
