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
- D is read as the descending filtration of the negated weights:
  `_flip(D)` stores D_i at weight -i, so D_i = flip(D)^(-i) and every
  filtration routine is written once, for descending filtrations, and
  applied to C and to `_flip(D)`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .coxeter import InvariantError, ParabolicType, WeylElement, create_weyl, min_coset_reps
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
from .grouplab import levi_of_blocks, make_zip_datum, stratum_rep, zip_orbit_search
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

    Blocks are the multiplicities in increasing weight order.
    """
    n = t.total_rank
    if n < 1:
        raise ValueError("the type has rank zero")
    return n, levi_of_blocks([m for _, m in t.entries])


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
    if len(keep) != _width(big) - _width(small):
        raise InvariantError("echelon pivots are not nested")
    return tuple(tuple(row[c] for c in keep) for row in big)


def _contains(field: FiniteField, big: Mat, small: Mat) -> bool:
    if not _width(small):
        return True
    try:
        solve_right(field, big, small)
    except ValueError:
        return False
    return True


def _flip(stored: Pairs) -> Pairs:
    """An ascending filtration as the descending one of the negated weights."""
    return tuple((-i, mat) for i, mat in reversed(stored))


def _space_at(stored: Pairs, n: int, i: int) -> Mat:
    """Descending filtration read at an arbitrary weight."""
    for j, mat in stored:
        if i <= j:
            return mat
    return _zero_space(n)


def _graded_bases(stored: Pairs, n: int) -> dict[int, Mat]:
    """Graded basis of a descending filtration at each stored weight."""
    smaller = [mat for _, mat in stored[1:]] + [_zero_space(n)]
    return {i: _graded_basis(mat, nxt) for (i, mat), nxt in zip(stored, smaller)}


def _filtration_multiplicities(
    field: FiniteField, n: int, stored: Pairs, side: str, verb: str
) -> dict[int, int]:
    """Check a stored descending filtration; its multiplicity at each weight."""
    widths = [_width(m) for _, m in stored]
    if widths[0] != n:
        raise ValueError(f"the largest {side} space must be everything")
    if widths[-1] < 1 or any(a <= b for a, b in zip(widths, widths[1:])):
        raise ValueError(f"{side} must {verb} strictly through its stored weights")
    for (_, big), (_, small) in zip(stored, stored[1:]):
        if not _contains(field, big, small):
            raise ValueError(f"{side} spaces are not nested")
    return {i: w - nxt for (i, _), w, nxt in zip(stored, widths, widths[1:] + [0])}


def _field_matrix(
    field: FiniteField, mat, rows: int, cols: Optional[int], what: str
) -> Mat:
    """mat as integer codes in the field, rows x cols (cols None: any one width)."""
    out = tuple(tuple(int(x) for x in row) for row in mat)
    widths = {len(row) for row in out}
    if len(out) != rows or len(widths) > 1 or (cols is not None and widths != {cols}):
        shape = f"{rows} rows of one length" if cols is None else f"{rows} x {cols}"
        raise ValueError(f"{what} must be {shape}")
    bad = [x for row in out for x in row if not 0 <= x < field.order]
    if bad:
        raise ValueError(f"entry {bad[0]} is outside the working field")
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
        rows = _field_matrix(field, mat, n, None, f"the {side} space at weight {i}")
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
        mult = _filtration_multiplicities(field, self.n, C, "C", "descend")
        flipped = _filtration_multiplicities(field, self.n, _flip(D), "D", "ascend")
        if mult != {-i: m for i, m in flipped.items()}:
            raise ValueError("the filtrations induce different multiplicity patterns")

        phi_seen: dict[int, Mat] = {}
        for item in self.phi:
            i, mat = item
            i = int(i)
            if i in phi_seen:
                raise ValueError(f"weight {i} appears twice in phi")
            phi_seen[i] = mat
        if sorted(phi_seen) != sorted(mult):
            raise ValueError("phi must store exactly the weights where the type jumps")
        for i, mat in phi_seen.items():
            what = f"the glue at weight {i}"
            phi_seen[i] = _field_matrix(field, mat, mult[i], mult[i], what)
            if not mat_is_invertible(field, phi_seen[i]):
                raise ValueError(f"{what} is singular")

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


def _graded_pieces(C: Pairs, D: Pairs, n: int) -> tuple[dict[int, Mat], dict[int, Mat]]:
    """Graded bases of C and of D, both keyed by the weights of the datum."""
    flipped = _graded_bases(_flip(D), n)
    return _graded_bases(C, n), {-i: basis for i, basis in flipped.items()}


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
    g = _field_matrix(field, g, n, n, "the matrix")
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
    rep = stratum_rep(make_zip_datum(n, get_field(p, 1), par), w)
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
    F_mat = _field_matrix(ff, F_mat, n, n, "F")
    V_mat = _field_matrix(ff, V_mat, n, n, "V")

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
    u0 = _graded_basis(ident, im_v)
    v1 = _graded_basis(ident, im_f)
    # weight 0: classes of u0 map to F(u0), expressed in the basis of im F
    a0 = solve_right(ff, im_f, mat_mul(ff, F_mat, mat_frobenius(ff, u0, 1)))
    # weight 1: classes of im V map through the inverse of V, mod im F
    ys = solve_right(ff, V_mat, im_v)
    xs = mat_frobenius(ff, ys, 1)
    a1 = tuple(solve_right(ff, mat_hstack((v1, im_f)), xs)[: n - r])
    mult = (r, n - r)  # of weights 0 and 1; a weight of multiplicity 0 is left out

    def graded(at_weights: tuple) -> tuple:
        return tuple((i, x) for i, x in enumerate(at_weights) if mult[i])

    return FZipConcrete(
        ff.p, ff.p, deg, n, graded((ident, im_v)), graded((im_f, ident)), graded((tuple(a0), a1))
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

    def product(fa: Pairs, fb: Pairs, weights: Sequence[int]) -> Pairs:
        # the span of fa^j (x) fb^(i-j) over all j, at each weight i
        out = []
        for i in weights:
            terms = []
            for j in range(i - fb[-1][0], fa[-1][0] + 1):
                xa, xb = _space_at(fa, a.n, j), _space_at(fb, b.n, i - j)
                if _width(xa) and _width(xb):
                    terms.append(_kron(field, xa, xb))
            out.append((i, column_echelon(field, mat_hstack(terms))))
        return tuple(out)

    C = product(a.C, b.C, t.support)
    flipped = product(_flip(a.D), _flip(b.D), t.reflect().support)
    D = _flip(flipped)
    ua, va = _graded_pieces(a.C, a.D, a.n)
    ub, vb = _graded_pieces(b.C, b.D, b.n)
    uc, vd = _graded_pieces(C, D, n)
    pa, pb = dict(a.phi), dict(b.phi)

    phi_pairs = []
    for i in t.support:
        nxt, prev = _space_at(C, n, i + 1), _space_at(flipped, n, 1 - i)
        u_basis, v_basis = uc[i], vd[i]
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

    return FZipConcrete(a.p, a.q, a.ext_deg, n, C, D, tuple(phi_pairs))


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

    flipped = _flip(a.D)
    C_pairs = tuple(
        (j, _annihilator(field, n, _space_at(a.C, n, 1 - j))) for j in dsupp
    )
    D_pairs = tuple(
        (j, _annihilator(field, n, _space_at(flipped, n, 1 + j))) for j in dsupp
    )

    ua, va = _graded_pieces(a.C, a.D, n)
    u_dual, v_dual = _graded_pieces(C_pairs, D_pairs, n)
    pa = dict(a.phi)
    phi_pairs = []
    for j in dsupp:
        # graded pairings between the dual classes and the original ones
        m_pair = mat_mul(field, mat_transpose(u_dual[j]), ua[-j])
        n_pair = mat_mul(field, mat_transpose(v_dual[j]), va[-j])
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


def attached_group_element(z: FZipConcrete) -> Mat:
    """Matrix comparing the C-adapted basis with the lifted glue images in D."""
    field = z.field
    u_bases, v_bases = _graded_pieces(z.C, z.D, z.n)
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
    carrier = min_coset_reps(datum.weyl, datum.I)
    targets = tuple(stratum_rep(datum, w) for w in carrier)
    g = attached_group_element(z)
    for s in range(z.ext_deg, max_ext + 1):
        if s % z.ext_deg:
            continue
        ffs = get_field(z.p, z.frob_exp * s)
        gs = g if ffs is z.field else mat_embed(ffs.embedding_from(z.field), g)
        hits, _ = zip_orbit_search(datum, gs, targets, ext=s)
        if len(hits) > 1:
            raise InvariantError("two standard representatives share one orbit")
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


def _json_int(value, what: str) -> int:
    """value if it is a JSON integer; floats, strings and booleans are malformed."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, not {value!r}")
    return value


def fzip_from_json(text: str) -> FZipConcrete:
    """Inverse of fzip_to_json; malformed input raises ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("the document must be a JSON object")

    def entry(item, key: str):
        try:
            return item[key]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"missing or malformed field: {exc}") from exc

    def integer(item, key: str) -> int:
        return _json_int(entry(item, key), f"field {key}")

    p, q, ext_deg, n = (integer(data, key) for key in ("p", "q", "ext_deg", "n"))
    c_list, d_list, phi_list = (entry(data, key) for key in ("C", "D", "phi"))
    if not all(isinstance(v, list) for v in (c_list, d_list, phi_list)):
        raise ValueError("C, D and phi must be arrays")
    e = _exp_of(p, q)
    ff = get_field(p, e * ext_deg)

    def decode(coeffs) -> int:
        if not isinstance(coeffs, list):
            raise ValueError("field elements must be coefficient arrays")
        return ff.element_from_coeffs([_json_int(c, "a coefficient") for c in coeffs])

    def space_pairs(items) -> tuple:
        out = []
        for item in items:
            cols = entry(item, "cols")
            if not isinstance(cols, list) or any(
                not isinstance(col, list) or len(col) != n for col in cols
            ):
                raise ValueError("every column needs one entry per row")
            rows = tuple(
                tuple(decode(col[r]) for col in cols) for r in range(n)
            ) if cols else _zero_space(n)
            out.append((integer(item, "i"), rows))
        return tuple(out)

    phi_pairs = []
    for item in phi_list:
        if integer(item, "frob_exp") != e:
            raise ValueError("the recorded Frobenius power disagrees with q")
        matrix = entry(item, "matrix")
        if not isinstance(matrix, list) or any(not isinstance(row, list) for row in matrix):
            raise ValueError("a phi matrix must be an array of rows")
        phi_pairs.append(
            (integer(item, "i"), tuple(tuple(decode(x) for x in row) for row in matrix))
        )
    return FZipConcrete(
        p, q, ext_deg, n, space_pairs(c_list), space_pairs(d_list), tuple(phi_pairs)
    )
