"""Classical Weyl groups of types A, B, C and D as signed permutations.

An element is stored in window notation: ``window[i-1] = w(i)`` with signed
integer values, plain permutations in type A and an even number of sign
changes in type D.  Lengths and descents are read from the window by the
signed-permutation formulas: with the values ordered 1 < 2 < ... < N < -N <
... < -1, a positive root e_i - e_j (i < j) is sent negative iff w(i) comes
after w(j), e_i + e_j iff w(i) comes after -w(j), and e_i iff w(i) < 0.  The
test suite checks these against the action on roots.

Bruhat order compares rank matrices, of the doubled permutation outside type
A, packed into guarded fixed-width fields and cached on the element: entrywise
dominance is one subtraction against the group's guard mask, and type D adds a
parity condition on cells of the same fields.  The tests check it against the
subword characterisation and the lifting property.

The minimal coset representatives ^I W of W_I \\ W, in every family, and the
elements of a parabolic W_K are one walk of ascents w -> w * s_j from e,
which stops an ascent when w(alpha_j) is a simple root alpha_i with i in I
(Deodhar's lemma).  ^I W is refused with TooLarge before the walk when
|W| / |W_I| passes ENUMERATION_GUARD, and a Bruhat interval once it grows
past ENUMERATION_GUARD windows.

Hot paths (reduced words, coset representatives, words to elements) work on
windows and build a validated ``WeylElement`` only for what they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial
from typing import Iterable, Iterator, Mapping, Sequence

ENUMERATION_GUARD = 2_000_000

FAMILIES = ("A", "B", "C", "D")

Root = tuple[int, ...]
Window = tuple[int, ...]


class InvariantError(AssertionError):
    """A computed result breaks an identity it must satisfy; raised even under -O."""


class TooLarge(ValueError):
    """An enumeration would exceed the exhaustion guard."""


@dataclass(frozen=True)
class WeylGroup:
    """A Weyl group of classical type, identified by family and rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.family == "D" and self.rank < 2:
            raise ValueError("type D needs rank at least 2")

    @property
    def npoints(self) -> int:
        """Number of points the signed permutations move."""
        return self.rank + 1 if self.family == "A" else self.rank

    @property
    def order(self) -> int:
        n = self.rank
        if self.family == "A":
            return factorial(n + 1)
        return factorial(n) * 2 ** (n if self.family in ("B", "C") else n - 1)

    @property
    def positive_root_count(self) -> int:
        n = self.rank
        if self.family == "A":
            return n * (n + 1) // 2
        if self.family in ("B", "C"):
            return n * n
        return n * (n - 1)

    def identity(self) -> "WeylElement":
        return WeylElement(self, tuple(range(1, self.npoints + 1)))

    def simple_reflection(self, i: int) -> "WeylElement":
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range")
        return reflection_of_root(self, self.simple_root(i))

    @property
    def simple_reflections(self) -> tuple["WeylElement", ...]:
        return tuple(self.simple_reflection(i) for i in range(1, self.rank + 1))

    def element(self, window: Sequence[int]) -> "WeylElement":
        return WeylElement(self, tuple(window))

    def simple_root(self, i: int) -> Root:
        n, N = self.rank, self.npoints
        root = [0] * N
        if self.family == "A" or i < n:
            root[i - 1], root[i] = 1, -1
        elif self.family in ("B", "C"):
            root[n - 1] = 1
        else:
            root[n - 2], root[n - 1] = 1, 1
        return tuple(root)

    def positive_roots(self) -> tuple[Root, ...]:
        N, fam = self.npoints, self.family

        def vec(*entries: tuple[int, int]) -> Root:
            v = [0] * N
            for k, c in entries:
                v[k] = c
            return tuple(v)

        roots = [vec((i, 1)) for i in range(N)] if fam in ("B", "C") else []
        for i in range(N):
            for j in range(i + 1, N):
                roots.append(vec((i, 1), (j, -1)))
                if fam != "A":
                    roots.append(vec((i, 1), (j, 1)))
        return tuple(roots)

    def cartan_entry(self, i: int, j: int) -> int:
        n = self.rank
        for k in (i, j):
            if not 1 <= k <= n:
                raise ValueError(f"simple index {k} out of range")
        if i == j:
            return 2
        fam = self.family
        if fam == "D" and n >= 3:
            if {i, j} == {n - 1, n}:
                return 0
            if {i, j} == {n - 2, n}:
                return -1
            return -1 if abs(i - j) == 1 and max(i, j) <= n - 1 else 0
        if fam == "D":  # rank 2: two commuting reflections
            return 0
        if abs(i - j) != 1:
            return 0
        if fam == "B" and i == n:
            return -2
        if fam == "C" and j == n:
            return -2
        return -1

    def elements(self) -> tuple["WeylElement", ...]:
        return _all_elements(self)

    @cached_property
    def _simple_windows(self) -> tuple[Window, ...]:
        """Windows of s_1, ..., s_rank."""
        return tuple(s.window for s in self.simple_reflections)

    @cached_property
    def _bruhat_guard(self) -> int:
        """Guard mask of the packed rank keys."""
        return _rank_packing(self.npoints if self.family == "A" else 2 * self.rank)[2]

    def __repr__(self) -> str:
        return f"WeylGroup({self.family}{self.rank})"


def create_weyl(family: str, rank: int) -> WeylGroup:
    """Build a Weyl group, validating family and rank."""
    return WeylGroup(family, rank)


@dataclass(frozen=True)
class WeylElement:
    """Group element in window notation; immutable and hashable."""

    group: WeylGroup
    window: tuple[int, ...]

    def __post_init__(self) -> None:
        N, fam = self.group.npoints, self.group.family
        if len(self.window) != N:
            raise ValueError("window has the wrong length")
        if sorted(abs(v) for v in self.window) != list(range(1, N + 1)):
            raise ValueError("window is not a signed permutation")
        negatives = sum(1 for v in self.window if v < 0)
        if fam == "A" and negatives:
            raise ValueError("type A admits no sign changes")
        if fam == "D" and negatives % 2:
            raise ValueError("type D needs an even number of sign changes")

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return WeylElement(self.group, _compose(self.window, other.window))

    def inverse(self) -> "WeylElement":
        return WeylElement(self.group, _inverse_window(self.window))

    def act_on_root(self, root: Root) -> Root:
        out = [0] * len(root)
        for idx, c in enumerate(root):
            if c:
                t = self.window[idx]
                out[abs(t) - 1] = c if t > 0 else -c
        return tuple(out)

    @cached_property
    def length(self) -> int:
        return _length(self.group.family, self.window)

    @cached_property
    def _bruhat_key(self) -> int:
        return _rank_key(self.window if self.group.family == "A" else _doubled_window(self.window))

    @cached_property
    def _parity_cells(self) -> tuple[int, int]:
        """Type D cells (i, j), 2 <= i, j <= n, at guard bits of the rank key.

        With pi the doubled window, cell (i, j) sits at the guard bit of the
        entry c(i, j) = #{k <= n + 1 - i : pi(k) >= n + j}.  It is in the first
        mask when no k in [n + 2 - i, n + i - 1] has pi(k) in [n + 2 - j,
        n + j - 1], and in the second too when #{k <= n : pi(k) >= n + j} is
        odd.  As pi(2n + 1 - k) = 2n + 1 - pi(k), positions k <= n decide the
        boxes; value f first lies in the box of j = n + 2 - f or f - n + 1.
        """
        n = len(self.window)
        first = _doubled_window(self.window)[:n]
        width = _rank_packing(2 * n)[0] // (2 * n)
        empty = odd = 0
        reach = n + 1
        for i in range(2, n + 1):
            f = first[n + 1 - i]
            reach = min(reach, n + 2 - f if f <= n else f - n + 1)
            for j in range(2, reach):
                bit = 1 << ((2 * n * (n - i) + n + j) * width - 1)
                empty |= bit
                if sum(1 for g in first if g >= n + j) % 2:
                    odd |= bit
        return empty, odd

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.window, start=1))

    def reduced_word(self) -> tuple[int, ...]:
        return _reduced_word(self)

    def left_descents(self) -> frozenset[int]:
        fam, inv = self.group.family, _inverse_window(self.window)
        return frozenset(
            i for i in range(1, self.group.rank + 1) if _window_descent(fam, inv, i)
        )

    def __repr__(self) -> str:
        return f"W({self.group.family}{self.group.rank}:{','.join(map(str, self.window))})"


def _compose(x: Sequence[int], y: Sequence[int]) -> Window:
    """Window of the product x * y (apply y first) of two signed windows."""
    return tuple([x[v - 1] if v > 0 else -x[-v - 1] for v in y])


def _inverse_window(window: Sequence[int]) -> Window:
    """Window of the inverse of a signed permutation."""
    inv = [0] * len(window)
    for i, v in enumerate(window, start=1):
        inv[abs(v) - 1] = i if v > 0 else -i
    return tuple(inv)


def _after(a: int, b: int) -> bool:
    """Whether a comes after b in the order 1 < 2 < ... < N < -N < ... < -1."""
    return a > b if (a > 0) == (b > 0) else a < 0


def _length(family: str, window: Sequence[int]) -> int:
    """Count the inversions of the module docstring's signed-permutation formulas.

    With f numbering the values in the order 1 < ... < N < -N < ... < -1 by
    1..2N, f(-b) = 2N + 1 - f(b): w(k) comes after -w(l) iff f(w(k)) + f(w(l))
    exceeds 2N + 1, and w(k) < 0 iff f(w(k)) > N.
    """
    N = len(window)
    top = 2 * N + 1
    f = [v if v > 0 else top + v for v in window]
    out = 0
    for k, a in enumerate(f):
        rest = f[k + 1 :]
        out += sum(1 for b in rest if b < a)
        if family != "A":
            out += sum(1 for b in rest if a + b > top)
    if family in ("B", "C"):
        out += sum(1 for a in f if a > N)
    return out


def length(w: WeylElement) -> int:
    """Coxeter length: the number of positive roots sent negative."""
    return w.length


def _window_descent(family: str, window: Sequence[int], i: int) -> bool:
    """Whether s_i is a right descent: the image of its simple root is negative."""
    if family == "A" or i < len(window):
        return _after(window[i - 1], window[i])
    if family == "D":
        return _after(window[-2], -window[-1])
    return window[-1] < 0


def is_right_descent(w: WeylElement, i: int) -> bool:
    """Whether s_i is a right descent of w, for a simple index i in 1..rank."""
    if not 1 <= i <= w.group.rank:
        raise ValueError(f"simple index {i} is outside 1..{w.group.rank}")
    return _window_descent(w.group.family, w.window, i)


@lru_cache(maxsize=None)
def _reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Lexicographically smallest reduced word, by greedy left-descent stripping.

    A left descent of w is a right descent of w**-1, and stripping s_i from
    the left of w multiplies w**-1 by s_i on the right, which moves entries
    of the inverse window.  Each step shortens w, so the loop is bounded by
    the length of the longest element.

    The descent of s_i reads positions i and i + 1 of the inverse window (i
    and n - 1 for D's s_n, only n for B's and C's s_n).  Stripping s_k moves
    positions k and k + 1 (n - 1 and n for D's s_n), so no descent below
    k - 1 (below n - 2 after D's s_n) can appear, and none was there before
    since k was the smallest: the next scan starts there.
    """
    group = w.group
    fam, n = group.family, group.rank
    inv = list(_inverse_window(w.window))
    word: list[int] = []
    start = 1
    for _ in range(group.positive_root_count):
        found = next(
            (i for i in range(start, n + 1) if _window_descent(fam, inv, i)), None
        )
        if found is None:
            break
        word.append(found)
        if fam == "A" or found < n:
            inv[found - 1], inv[found] = inv[found], inv[found - 1]
            start = max(found - 1, 1)
        elif fam == "D":
            inv[n - 2], inv[n - 1] = -inv[n - 1], -inv[n - 2]
            start = max(n - 2, 1)
        else:
            inv[n - 1] = -inv[n - 1]
            start = max(found - 1, 1)
    if inv != list(range(1, group.npoints + 1)):
        raise InvariantError(f"descent stripping does not reduce {w!r} to the identity")
    return tuple(word)


def word_string(w: WeylElement) -> str:
    word = w.reduced_word()
    return "e" if not word else "*".join(f"s{i}" for i in word)


def element_from_word(group: WeylGroup, word: Iterable[int]) -> WeylElement:
    """The product s_{i_1} * s_{i_2} * ... of a word, composed on windows."""
    gens = group._simple_windows
    out: Window = tuple(range(1, group.npoints + 1))
    for i in word:
        if not 1 <= i <= group.rank:
            raise ValueError(f"simple index {i} out of range")
        out = _compose(out, gens[i - 1])
    return WeylElement(group, out)


def reflection_of_root(group: WeylGroup, root: Root) -> WeylElement:
    i, j, s = _root_move(root)
    w = list(range(1, group.npoints + 1))
    w[i], w[j] = s * (j + 1), s * (i + 1)
    return WeylElement(group, tuple(w))


def _root_move(root: Root) -> tuple[int, int, int]:
    """(i, j, s): v * t carries s * v(j) at position i and s * v(i) at j, t the reflection of root.

    i <= j span the root's support and s = 1 exactly for +-(e_i - e_j).  For
    a positive root, v * t is longer than v iff v(root) > 0, i.e. iff v(i)
    does not come after s * v(j).
    """
    support = [k for k, c in enumerate(root) if c]
    i, j = support[0], support[-1]
    return i, j, 1 if root[i] == -root[j] else -1


def simple_index_of(w: WeylElement) -> int | None:
    """Index i with w = s_i, or None."""
    for i in range(1, w.group.rank + 1):
        if w == w.group.simple_reflection(i):
            return i
    return None


# ---------------------------------------------------------------------------
# parabolic types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParabolicType:
    """A subset of the simple reflection indices 1..rank."""

    indices: frozenset[int]

    @classmethod
    def of(cls, data: "ParabolicType | Iterable[int]") -> "ParabolicType":
        if isinstance(data, ParabolicType):
            return data
        return cls(frozenset(int(i) for i in data))

    def validate(self, group: WeylGroup) -> None:
        bad = [i for i in self.indices if not 1 <= i <= group.rank]
        if bad:
            raise ValueError(f"simple indices {sorted(bad)} out of range for {group}")

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.indices))

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"ParabolicType({sorted(self.indices)})"


def _dynkin_components(group: WeylGroup, indices: frozenset[int]) -> list[frozenset[int]]:
    remaining = set(indices)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            a = frontier.pop()
            for b in list(remaining - comp):
                if group.cartan_entry(a, b) != 0:
                    comp.add(b)
                    frontier.append(b)
        comps.append(frozenset(comp))
        remaining -= comp
    return comps


def parabolic_order(group: WeylGroup, subset: "ParabolicType | Iterable[int]") -> int:
    """Order of the standard parabolic subgroup W_K, by closed formula."""
    K = ParabolicType.of(subset)
    K.validate(group)
    n, fam = group.rank, group.family
    out = 1
    for comp in _dynkin_components(group, K.indices):
        k = len(comp)
        if fam in ("B", "C") and n in comp:
            out *= factorial(k) * 2**k
        elif fam == "D" and {n - 1, n} <= comp:
            out *= factorial(k) * 2 ** (k - 1)
        else:
            out *= factorial(k + 1)
    return out


def parabolic_elements(group: WeylGroup, subset: "ParabolicType | Iterable[int]") -> tuple[WeylElement, ...]:
    """All elements of W_K, sorted by (length, window): the ascent walk over the letters of K."""
    K = ParabolicType.of(subset)
    K.validate(group)
    if parabolic_order(group, K) > ENUMERATION_GUARD:
        raise TooLarge("parabolic subgroup too large to enumerate")
    elements = [WeylElement(group, w) for w in _ascent_walk(group, K, ())]
    return tuple(sorted(elements, key=lambda w: (w.length, w.window)))


@lru_cache(maxsize=None)
def _all_elements(group: WeylGroup) -> tuple[WeylElement, ...]:
    if group.order > ENUMERATION_GUARD:
        raise TooLarge("group too large to enumerate")
    return parabolic_elements(group, range(1, group.rank + 1))


# ---------------------------------------------------------------------------
# longest elements and coset representatives
# ---------------------------------------------------------------------------


def longest_element(group: WeylGroup) -> WeylElement:
    n, N = group.rank, group.npoints
    if group.family == "A":
        w = tuple(range(N, 0, -1))
    elif group.family in ("B", "C"):
        w = tuple(-i for i in range(1, n + 1))
    elif n % 2 == 0:
        w = tuple(-i for i in range(1, n + 1))
    else:
        w = tuple(-i for i in range(1, n)) + (n,)
    out = WeylElement(group, w)
    if out.length != group.positive_root_count:
        raise InvariantError(f"the longest element of {group} has the wrong length")
    return out


def longest_element_parabolic(group: WeylGroup, subset: "ParabolicType | Iterable[int]") -> WeylElement:
    """Longest element of W_K, grown by greedy ascent on windows (no enumeration of W_K)."""
    K = ParabolicType.of(subset)
    K.validate(group)
    fam, gens, w = group.family, group._simple_windows, group.identity().window
    while True:
        inv = _inverse_window(w)
        step = next((i for i in sorted(K.indices) if not _window_descent(fam, inv, i)), None)
        if step is None:
            return WeylElement(group, w)
        w = _compose(gens[step - 1], w)


def has_left_descent_in(w: WeylElement, K: ParabolicType) -> bool:
    fam, inv = w.group.family, _inverse_window(w.window)
    return any(_window_descent(fam, inv, i) for i in K)


def min_coset_reps(group: WeylGroup, subset: "ParabolicType | Iterable[int]") -> tuple[WeylElement, ...]:
    """The minimal length representatives of W_K \\ W, sorted by (length, word)."""
    K = ParabolicType.of(subset)
    K.validate(group)
    return _min_coset_reps(group, K)


@lru_cache(maxsize=None)
def _min_coset_reps(group: WeylGroup, K: ParabolicType) -> tuple[WeylElement, ...]:
    count = group.order // parabolic_order(group, K)
    if count > ENUMERATION_GUARD:
        raise TooLarge(f"{count} minimal coset representatives pass the enumeration guard")
    reps = [WeylElement(group, w) for w in _ascent_walk(group, range(1, group.rank + 1), K)]
    return tuple(sorted(reps, key=lambda w: (w.length, w.reduced_word())))


def _ascent_walk(group: WeylGroup, letters: Iterable[int], walls: Iterable[int]) -> set[Window]:
    """Windows reached from e by ascents w -> w * s_j, j in letters, that no wall stops.

    An ascent from w is stopped when w(alpha_j) is the simple root of a wall.
    With every letter and walls I this walks ^I W: for w in ^I W and an
    ascent s_j, w * s_j lies in ^I W unless w(alpha_j) = alpha_i with i in I,
    when w * s_j = s_i * w (Deodhar's lemma), and ^I W holds the prefixes of
    reduced words of its elements.  With the letters of K and no walls it
    walks W_K.  A root +-e_a +- e_b is kept as its signed points (+-a, +-b),
    and +-e_a as (+-a, +-a), so w(alpha_j) is read off the one or two window
    entries that s_j moves.
    """
    moves = [_root_move(group.simple_root(j)) for j in letters]
    stops = set()
    for m in walls:
        i, j, s = _root_move(group.simple_root(m))
        stops |= {(i + 1, -s * (j + 1)), (-s * (j + 1), i + 1)}
    e = tuple(range(1, group.npoints + 1))
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for w in frontier:
            for i, j, s in moves:
                a, b = w[i], s * w[j]
                if _after(a, b) or (a, -b) in stops:
                    continue
                ws = list(w)
                ws[i], ws[j] = b, s * a
                ws = tuple(ws)
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    return seen


def min_double_coset_rep(
    group: WeylGroup,
    left: "ParabolicType | Iterable[int]",
    w: WeylElement,
    right: "ParabolicType | Iterable[int]",
) -> WeylElement:
    """Minimal element of W_K w W_K', by alternately stripping descents.

    Each step strictly shortens the element, so the walk terminates at the
    unique minimum of the double coset without enumerating either parabolic.
    """
    K, K2 = ParabolicType.of(left), ParabolicType.of(right)
    K.validate(group)
    K2.validate(group)
    fam, gens, cur = group.family, group._simple_windows, w.window
    while True:
        inv = _inverse_window(cur)
        i = next((i for i in sorted(K.indices) if _window_descent(fam, inv, i)), None)
        if i is not None:
            cur = _compose(gens[i - 1], cur)
            continue
        j = next((j for j in sorted(K2.indices) if _window_descent(fam, cur, j)), None)
        if j is None:
            return WeylElement(group, cur)
        cur = _compose(cur, gens[j - 1])


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rank_packing(N: int) -> tuple[int, tuple[int, ...], int]:
    """Row step, per-value row increments and guard mask of packed N x N rank keys.

    Each entry of the rank matrix is a count in 0..N, stored in a field of
    N.bit_length() bits topped by one guard bit.  Entries never carry into
    each other, so ((kw | G) - kv) & G == G holds exactly when every entry of
    kv is at most the matching entry of kw.
    """
    width = N.bit_length() + 1
    field = (1 << width) - 1
    units = tuple(((1 << (width * v)) - 1) // field for v in range(N + 1))
    guard = (((1 << (width * N * N)) - 1) // field) << (width - 1)
    return width * N, units, guard


def _rank_key(values: Sequence[int]) -> int:
    """Packed rank matrix of a permutation of 1..N.

    Field j - 1 of row i counts the values >= j among the first i; row i is
    row i - 1 plus a 1 in each of the first w(i) fields.
    """
    step, units, _ = _rank_packing(len(values))
    key = row = shift = 0
    for v in values:
        row += units[v]
        key |= row << shift
        shift += step
    return key


def _doubled_window(window: Sequence[int]) -> Window:
    """Embed a signed permutation on n points as a plain one on 2n points.

    The dominance criterion for the doubled permutation is only valid when the
    sign flip generator acts on the first coordinate, so the element is first
    conjugated by the plain reversal, which carries one generating set to the
    other and therefore transports Bruhat order exactly.  After that
    conjugation the doubled permutation reads f(w(1)), ..., f(w(n)) followed
    by 2n + 1 - f(w(n)), ..., 2n + 1 - f(w(1)), where f numbers the values in
    the order 1 < ... < n < -n < ... < -1.
    """
    top = 2 * len(window) + 1
    first = [v if v > 0 else top + v for v in window]
    return tuple(first) + tuple(top - f for f in reversed(first))


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by dominance of packed rank keys; enumerates no word, interval or group.

    Type D adds the parity condition of Bjorner-Brenti (Combinatorics of
    Coxeter Groups, Thm 8.2.8): no cell empty for both may have equal entries
    and different parities.  The keys agree on the fields whose guard bit
    the difference loses when 1 is taken from every field.
    """
    group = v.group
    if w.group is not group and w.group != group:
        raise ValueError("elements of different groups")
    guard = group._bruhat_guard
    diff = (w._bruhat_key | guard) - v._bruhat_key
    dominated = diff & guard == guard
    if not dominated or group.family != "D":
        return dominated
    (empty_v, odd_v), (empty_w, odd_w) = v._parity_cells, w._parity_cells
    equal = guard & ~(diff - (guard >> (2 * group.rank).bit_length()))
    return empty_v & empty_w & equal & (odd_v ^ odd_w) == 0


@lru_cache(maxsize=None)
def _lower_interval(top: WeylElement) -> tuple[tuple[Window, ...], dict[Window, int], tuple[tuple[int, ...], ...]]:
    """The Bruhat interval [e, top]: its windows by length, their positions and up-covers.

    The interval is the set of subwords of a reduced word of top, grown one
    letter at a time; appending s_i lowers the length by one when s_i is a
    right descent and raises it by one otherwise.  The up-covers of v are the
    v * t, t a reflection, that lie in the interval and are one longer.
    Raises TooLarge after the letter that takes it past ENUMERATION_GUARD
    windows; a letter at most doubles it.
    """
    group = top.group
    lengths = {tuple(range(1, group.npoints + 1)): 0}
    for letter in top.reduced_word():
        i, j, s = _root_move(group.simple_root(letter))
        for v, l in list(lengths.items()):
            vs = list(v)
            vs[i], vs[j] = s * v[j], s * v[i]
            lengths.setdefault(tuple(vs), l - 1 if _after(v[i], s * v[j]) else l + 1)
        if len(lengths) > ENUMERATION_GUARD:
            raise TooLarge(f"the Bruhat interval below a length-{top.length} element passes {ENUMERATION_GUARD} windows")
    windows = tuple(sorted(lengths, key=lengths.__getitem__))
    index = {v: k for k, v in enumerate(windows)}
    moves = [_root_move(root) for root in group.positive_roots()]
    level = [lengths[v] for v in windows]
    up = []
    for v, l in zip(windows, level):
        covers = []
        for i, j, s in moves:
            if not _after(v[i], s * v[j]):
                vt = list(v)
                vt[i], vt[j] = s * v[j], s * v[i]
                k = index.get(tuple(vt))
                if k is not None and level[k] == l + 1:
                    covers.append(k)
        up.append(tuple(covers))
    return windows, index, tuple(up)


# ---------------------------------------------------------------------------
# diagram automorphisms
# ---------------------------------------------------------------------------


def _normalize_diagram_map(group: WeylGroup, delta: "Mapping[int, int] | Sequence[int] | None") -> tuple[int, ...]:
    n = group.rank
    if delta is None:
        return tuple(range(1, n + 1))
    if isinstance(delta, Mapping):
        images = tuple(int(delta[i]) for i in range(1, n + 1))
    else:
        images = tuple(int(x) for x in delta)
        if len(images) != n:
            raise ValueError("diagram map must supply an image for every node")
    return images


def validate_diagram_automorphism(group: WeylGroup, delta: "Mapping[int, int] | Sequence[int] | None") -> tuple[int, ...]:
    """Check that delta permutes the nodes and preserves the Cartan matrix."""
    images = _normalize_diagram_map(group, delta)
    n = group.rank
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("diagram map is not a permutation of the nodes")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if group.cartan_entry(images[i - 1], images[j - 1]) != group.cartan_entry(i, j):
                raise ValueError("map does not preserve the Cartan matrix")
    return images


def apply_diagram_automorphism(
    delta: "Mapping[int, int] | Sequence[int] | None",
    w: WeylElement,
) -> WeylElement:
    """Image of w under the diagram automorphism sending node i to delta(i)."""
    return _diagram_image(validate_diagram_automorphism(w.group, delta), w)


def _diagram_image(images: tuple[int, ...], w: WeylElement) -> WeylElement:
    """delta(w) for a validated node map: s_i -> s_images[i] along a reduced word, on windows."""
    out = element_from_word(w.group, [images[i - 1] for i in w.reduced_word()])
    if out.length != w.length:
        raise InvariantError("a diagram automorphism must preserve length")
    return out


@lru_cache(maxsize=None)
def diagram_automorphisms(group: WeylGroup) -> tuple[tuple[int, ...], ...]:
    """All Cartan-preserving node permutations, identity first."""
    n = group.rank
    out = []
    for perm in permutations(range(1, n + 1)):
        try:
            out.append(validate_diagram_automorphism(group, perm))
        except ValueError:
            continue
    return tuple(sorted(out))
