"""Combinatorics of zip strata: twisted partial orders on coset representatives.

A zip datum at this level is a Weyl group together with two subsets I, J of
simple indices, a diagram automorphism delta, and the distinguished twisting
element theta0.  Strata are indexed by the minimal coset representatives of
W_I \\ W and carry the partial order

    w' <= w  iff  u * w' * psi(u)**-1 is Bruhat-below w for some u in W_I,

where psi = int(theta0) o delta identifies W_I with W_J.  The module builds
the full poset when the Levi group W_I is small enough to scan and otherwise
marks the order as omitted while still exposing the carrier and dimensions.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .coxeter import (
    InvariantError,
    ParabolicType,
    Window,
    WeylElement,
    WeylGroup,
    _compose,
    _diagram_image,
    _lower_interval,
    element_from_word,
    has_left_descent_in,
    longest_element,
    longest_element_parabolic,
    min_coset_reps,
    min_double_coset_rep,
    parabolic_order,
    simple_index_of,
    validate_diagram_automorphism,
    word_string,
)

LEVI_ENUMERATION_GUARD = 40_320

ORDER_COMPLETE = "complete"
ORDER_OMITTED = "omitted:levi-too-large"


class PsiMismatch(ValueError):
    """The twist does not carry the simple reflections of I onto those of J."""


@dataclass(frozen=True)
class ZipCombinatorics:
    """Weyl-group shadow of an algebraic zip datum."""

    group: WeylGroup
    I: ParabolicType
    J: ParabolicType
    delta: tuple[int, ...]
    theta0: WeylElement
    gl_center: bool = False

    def delta_image(self, w: WeylElement) -> WeylElement:
        # build_zip stores delta validated
        return _diagram_image(self.delta, w)

    def psi(self, w: WeylElement) -> WeylElement:
        """The twist w -> theta0 * delta(w) * theta0**-1."""
        return self.theta0 * self.delta_image(w) * self.theta0.inverse()


def build_zip(
    group: WeylGroup,
    I: "ParabolicType | Iterable[int]",
    J: "ParabolicType | Iterable[int]",
    delta: "Mapping[int, int] | Sequence[int] | None" = None,
    gl_center: bool = False,
) -> ZipCombinatorics:
    """Assemble a zip datum, or raise PsiMismatch when the twist cannot match I to J.

    theta0 is the minimal element of the double coset W_J w0 W_{delta(I)}; the
    twist psi = int(theta0) o delta must send each simple reflection of I to a
    simple reflection of J, bijectively.
    """
    I = ParabolicType.of(I)
    J = ParabolicType.of(J)
    I.validate(group)
    J.validate(group)
    images = validate_diagram_automorphism(group, delta)
    if gl_center and group.family != "A":
        raise ValueError("the central torus flag only makes sense for type A")
    delta_I = ParabolicType.of(images[i - 1] for i in I)
    theta0 = min_double_coset_rep(group, J, longest_element(group), delta_I)
    datum = ZipCombinatorics(group, I, J, images, theta0, gl_center)
    seen: set[int] = set()
    for i in I:
        j = simple_index_of(datum.psi(group.simple_reflection(i)))
        if j is None or j not in J or j in seen:
            raise PsiMismatch(
                f"twist sends s{i} outside the simple reflections of J={sorted(J.indices)}"
            )
        seen.add(j)
    if len(seen) != len(J):
        raise PsiMismatch("twist does not cover J")
    return datum


def zip_from_cocharacter(
    group: WeylGroup,
    I: "ParabolicType | Iterable[int]",
    delta: "Mapping[int, int] | Sequence[int] | None" = None,
    gl_center: bool = False,
) -> ZipCombinatorics:
    """The datum attached to a cocharacter: J is forced to w0 delta(I) w0."""
    I = ParabolicType.of(I)
    I.validate(group)
    images = validate_diagram_automorphism(group, delta)
    w0 = longest_element(group)
    J = set()
    for i in I:
        t = w0 * group.simple_reflection(images[i - 1]) * w0
        j = simple_index_of(t)
        if j is None:
            raise InvariantError("w0 must carry simple reflections to simple reflections")
        J.add(j)
    return build_zip(group, I, J, images, gl_center)


# ---------------------------------------------------------------------------
# the twisted order
# ---------------------------------------------------------------------------


def _twist_pairs(z: ZipCombinatorics) -> tuple[tuple[Window, Window], ...]:
    """Windows of (u, psi(u)**-1) for every u in W_I, grown from the generators.

    psi(s) is a conjugate of a reflection, hence an involution, so
    psi(s * u)**-1 = psi(u)**-1 * psi(s): the pairs are walked breadth-first
    from (e, e) by (u, p) -> (s * u, p * psi(s)), one composition of windows
    each, with psi applied once per simple reflection of I.
    """
    group = z.group
    gens = [(group._simple_windows[i - 1], z.psi(group.simple_reflection(i)).window) for i in z.I]
    e = tuple(range(1, group.npoints + 1))
    pairs = {e: e}
    frontier = [(e, e)]
    while frontier:
        nxt = []
        for u, p in frontier:
            for s, ps in gens:
                su = _compose(s, u)
                if su not in pairs:
                    pairs[su] = pair = _compose(p, ps)
                    nxt.append((su, pair))
        frontier = nxt
    return tuple(pairs.items())


def _twisted_rows(z: ZipCombinatorics, carrier: Sequence[WeylElement]) -> list[int]:
    """Bit rows of the twisted order: bit j of row i iff carrier[i] <= carrier[j].

    Every label lies in the Bruhat interval [e, top] of the longest label, so
    the labels above each window of the interval are propagated once, from
    the longest window down, along its up-covers.  Row i is the union of
    those sets over the translates u * carrier[i] * psi(u)**-1 inside the
    interval; a translate outside it lies below no label.
    """
    windows, index, up = _lower_interval(max(carrier, key=lambda w: w.length))
    slot = {w.window: j for j, w in enumerate(carrier)}
    ups = [0] * len(windows)
    for k in range(len(windows) - 1, -1, -1):
        mask = 1 << slot[windows[k]] if windows[k] in slot else 0
        for c in up[k]:
            mask |= ups[c]
        ups[k] = mask
    pairs = _twist_pairs(z)
    rows = []
    for w in carrier:
        row = 0
        for u, p in pairs:
            k = index.get(_compose(_compose(u, w.window), p))
            if k is not None:
                row |= ups[k]
        rows.append(row)
    return rows


def _require_carrier_element(z: ZipCombinatorics, w: WeylElement) -> None:
    if w.group != z.group:
        raise ValueError("element does not belong to the datum's group")
    if has_left_descent_in(w, z.I):
        raise ValueError(f"{w!r} is not a minimal coset representative for I")


@dataclass(frozen=True)
class StratumPoset:
    """Stratum labels with lengths, dimensions and (when available) the order.

    The order is kept as bit rows: bit j of rows[i] iff carrier[i] <= carrier[j].
    """

    zip_data: ZipCombinatorics
    carrier: tuple[WeylElement, ...]
    rows: Optional[tuple[int, ...]]
    length_of: tuple[int, ...]
    dim_of: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    @property
    def order_complete(self) -> bool:
        return self.rows is not None

    @cached_property
    def leq(self) -> Optional[tuple[tuple[bool, ...], ...]]:
        """The order as booleans, leq[i][j] iff carrier[i] <= carrier[j]; None when omitted."""
        if self.rows is None:
            return None
        width = f"0{len(self.carrier)}b"
        return tuple(tuple(map("1".__eq__, format(m, width)[::-1])) for m in self.rows)

    def index_of(self, w: WeylElement) -> int:
        try:
            return self.carrier.index(w)
        except ValueError:
            raise ValueError(f"{w!r} is not a stratum label of this datum") from None

    def _need_order(self) -> tuple[int, ...]:
        """The bit rows of the order, or ValueError when it was omitted."""
        if self.rows is None:
            raise ValueError("the order was omitted for this datum (Levi too large)")
        return self.rows


def dim_parabolic(z: ZipCombinatorics) -> int:
    """Dimension of the parabolic attached to I (torus + all positives + Levi part)."""
    group = z.group
    torus = group.rank + (1 if z.gl_center else 0)
    levi_length = longest_element_parabolic(group, z.I).length
    return torus + group.positive_root_count + levi_length


def stratum_dimension(z: ZipCombinatorics, w: WeylElement) -> int:
    _require_carrier_element(z, w)
    return dim_parabolic(z) + w.length


@lru_cache(maxsize=None)
def stratum_poset(z: ZipCombinatorics) -> StratumPoset:
    """Build the poset of stratum labels; heavy Levi groups get the order omitted."""
    carrier = min_coset_reps(z.group, z.I)
    lengths = tuple(w.length for w in carrier)
    base = dim_parabolic(z)
    dims = tuple(base + l for l in lengths)
    if parabolic_order(z.group, z.I) > LEVI_ENUMERATION_GUARD:
        return StratumPoset(z, carrier, None, lengths, dims, ())
    rows = tuple(_twisted_rows(z, carrier))
    return StratumPoset(z, carrier, rows, lengths, dims, _validate_order(lengths, rows))


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _validate_order(lengths: Sequence[int], rows: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Check that bit rows (bit j of rows[i] iff i <= j) form a bounded partial order.

    The labels must be sorted by length.  They are checked from the longest
    down, so every label above i has passed when i is reached.  If all of
    those are longer than i, the lowest one still above i is a cover of i:
    stripping its row and repeating yields the covers, and the order is
    transitive at i when the union of their rows lies in row i.  A label
    failing this fails the per-pair checks of _label_fault as well; these
    then run from the lowest label up, so the message is that of the lowest
    label at fault.  Returns the covers (i, j), sorted.
    """
    n = len(rows)
    if any(a > b for a, b in zip(lengths, lengths[1:])):
        raise InvariantError("stratum labels must be sorted by length")
    covers = []
    has_lower = 0
    for i in range(n - 1, -1, -1):
        row = rows[i]
        above = row & ~(1 << i)
        valid = row >> i & 1 and not above & ((1 << bisect_right(lengths, lengths[i])) - 1)
        reach, rest = 0, above
        while valid and rest:
            j = (rest & -rest).bit_length() - 1
            covers.append((i, j))
            reach |= rows[j]
            rest &= ~rows[j]
        if not valid or reach & ~row:
            raise InvariantError(next(filter(None, (_label_fault(lengths, rows, k) for k in range(i + 1)))))
        has_lower |= above
    if has_lower.bit_count() != n - 1:
        raise InvariantError("twisted order must have a unique minimum")
    if sum(1 for row in rows if row.bit_count() == 1) != 1:
        raise InvariantError("twisted order must have a unique maximum")
    return tuple(sorted(covers))


def _label_fault(lengths: Sequence[int], rows: Sequence[int], i: int) -> Optional[str]:
    """The first check that label i fails, pair by pair over the labels above it, or None."""
    row, bit = rows[i], 1 << i
    if not row & bit:
        return "order must be reflexive"
    dominated = 0
    for j in _bits(row ^ bit):
        if rows[j] & bit:
            return "order must be antisymmetric"
        if lengths[i] >= lengths[j]:
            return "order must refine length"
        dominated |= rows[j] & ~(1 << j)
    return "order must be transitive" if dominated & ~row else None


def _covers_from_leq(rows: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j), i != j, with i <= j and no k outside {i, j} between them.

    rows are bit rows as in _validate_order.  The relation need not be an
    order: a replayed file can carry any set of covers, cycles included.
    """
    covers = []
    for i, row in enumerate(rows):
        above = row & ~(1 << i)
        dominated = 0
        for k in _bits(above):
            dominated |= rows[k] & ~(1 << k)
        covers.extend((i, j) for j in _bits(above & ~dominated))
    return tuple(covers)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PurityViolation:
    stratum: tuple[int, ...]
    boundary_stratum: tuple[int, ...]
    length: int
    boundary_length: int


@dataclass(frozen=True)
class PurityReport:
    passed: bool
    violations: tuple[PurityViolation, ...]
    strata_checked: int


def purity_check(z: ZipCombinatorics) -> PurityReport:
    """Check that every maximal boundary stratum drops the length by exactly one.

    Reads the covers that stratum_poset found while validating the order.
    """
    poset = stratum_poset(z)
    poset._need_order()
    return _purity_report(poset, poset.covers)


def purity_check_poset(poset: StratumPoset) -> PurityReport:
    """Purity on an explicit poset, e.g. one replayed from a file.

    The covers are derived again from the relation, which a replayed file
    may make cyclic or redundant.
    """
    return _purity_report(poset, _covers_from_leq(poset._need_order()))


def _purity_report(poset: StratumPoset, covers: Iterable[tuple[int, int]]) -> PurityReport:
    """Purity read off the covers of the relation.

    The maximal boundary strata of j are the i with (i, j) a cover; every one
    must have length one less.  Violations are listed by j, then by i.
    """
    carrier, lengths = poset.carrier, poset.length_of
    bad = sorted((j, i) for i, j in covers if lengths[j] - lengths[i] != 1)
    violations = tuple(
        PurityViolation(carrier[j].reduced_word(), carrier[i].reduced_word(), lengths[j], lengths[i])
        for j, i in bad
    )
    return PurityReport(not violations, violations, len(lengths))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def export_poset(poset: StratumPoset, fmt: str) -> str:
    """Serialise a poset; output is byte deterministic for a given input."""
    fmt = fmt.lower()
    if fmt == "json":
        return _export_json(poset)
    if fmt == "dot":
        return _export_dot(poset)
    raise ValueError(f"unknown export format {fmt!r}")


def _export_json(poset: StratumPoset) -> str:
    z = poset.zip_data
    obj = {
        "group": {
            "family": z.group.family,
            "rank": z.group.rank,
            "gl_center": z.gl_center,
        },
        "I": sorted(z.I.indices),
        "J": sorted(z.J.indices),
        "delta": list(z.delta),
        "order": ORDER_COMPLETE if poset.order_complete else ORDER_OMITTED,
        "strata": [
            {
                "word": list(w.reduced_word()),
                "length": poset.length_of[k],
                "dim": poset.dim_of[k],
            }
            for k, w in enumerate(poset.carrier)
        ],
        "covers": [list(c) for c in poset.covers],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _export_dot(poset: StratumPoset) -> str:
    lines = ["digraph strata {", "  rankdir=BT;"]
    for k, w in enumerate(poset.carrier):
        label = f"{word_string(w)} | {poset.length_of[k]} | {poset.dim_of[k]}"
        lines.append(f'  n{k} [label="{label}"];')
    for i, j in poset.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def import_poset(text: str) -> StratumPoset:
    """Rebuild a poset from its JSON export; the order is the closure of the covers.

    Raises ValueError when a field is missing or has the wrong shape, when a
    stratum word is repeated or is not a minimal coset representative for I,
    when a recorded length or dimension disagrees with its word, or when a
    cover names a stratum outside 0..n-1.
    """
    obj = json.loads(text)
    try:
        group = WeylGroup(obj["group"]["family"], obj["group"]["rank"])
        z = build_zip(
            group,
            obj["I"],
            obj["J"],
            tuple(obj["delta"]),
            gl_center=obj["group"]["gl_center"],
        )
        carrier = tuple(element_from_word(group, s["word"]) for s in obj["strata"])
        lengths = tuple(int(s["length"]) for s in obj["strata"])
        dims = tuple(int(s["dim"]) for s in obj["strata"])
        covers = tuple((int(a), int(b)) for a, b in obj["covers"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed poset file: {exc!r}") from None
    n = len(carrier)
    if len(set(carrier)) != n:
        raise ValueError("a stratum is listed twice")
    base = dim_parabolic(z)
    for k, w in enumerate(carrier):
        _require_carrier_element(z, w)
        if (lengths[k], dims[k]) != (w.length, base + w.length):
            raise ValueError(
                f"stratum {k} records length {lengths[k]} and dimension {dims[k]}, "
                f"its word gives {w.length} and {base + w.length}"
            )
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"cover ({a}, {b}) names a stratum outside 0..{n - 1}")
    if obj.get("order") != ORDER_COMPLETE:
        return StratumPoset(z, carrier, None, lengths, dims, ())
    rows = [1 << a for a in range(n)]
    changed = True
    while changed:
        changed = False
        for a, b in reversed(covers):
            if rows[a] | rows[b] != rows[a]:
                rows[a] |= rows[b]
                changed = True
    return StratumPoset(z, carrier, tuple(rows), lengths, dims, covers)
