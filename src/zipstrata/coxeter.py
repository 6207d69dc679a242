"""Classical Weyl groups of types A, B, C and D as signed permutations.

An element is stored in window notation: ``window[i-1] = w(i)`` with signed
integer values, plain permutations in type A and an even number of sign
changes in type D.  Lengths and descents are computed by acting on roots, so
every convention in this module is forced by the root systems themselves.

Bruhat order comes in two independent implementations that the test suite
plays against each other: a direct criterion (rank-matrix dominance in type A,
dominance of the doubled permutation in types B and C, cached cover closure in
type D) and the subword characterisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping, Sequence

ENUMERATION_GUARD = 2_000_000

FAMILIES = ("A", "B", "C", "D")

Root = tuple[int, ...]


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
            out = 1
            for k in range(2, n + 2):
                out *= k
            return out
        out = 1
        for k in range(2, n + 1):
            out *= k
        return out * 2 ** (n if self.family in ("B", "C") else n - 1)

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
        n, fam = self.rank, self.family
        if not 1 <= i <= n:
            raise ValueError(f"simple index {i} out of range")
        w = list(range(1, self.npoints + 1))
        if fam == "A" or i < n:
            w[i - 1], w[i] = w[i], w[i - 1]
        elif fam in ("B", "C"):
            w[n - 1] = -n
        else:
            w[n - 2], w[n - 1] = -n, -(n - 1)
        return WeylElement(self, tuple(w))

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
        N = self.npoints
        roots: list[Root] = []

        def vec(entries: dict[int, int]) -> Root:
            v = [0] * N
            for k, c in entries.items():
                v[k] = c
            return tuple(v)

        if self.family == "A":
            for i in range(N):
                for j in range(i + 1, N):
                    roots.append(vec({i: 1, j: -1}))
            return tuple(roots)
        if self.family in ("B", "C"):
            for i in range(N):
                roots.append(vec({i: 1}))
        for i in range(N):
            for j in range(i + 1, N):
                roots.append(vec({i: 1, j: -1}))
                roots.append(vec({i: 1, j: 1}))
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

    def reflections(self) -> tuple["WeylElement", ...]:
        return tuple(reflection_of_root(self, r) for r in self.positive_roots())

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

    def apply(self, value: int) -> int:
        out = self.window[abs(value) - 1]
        return out if value > 0 else -out

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return WeylElement(
            self.group, tuple(self.apply(v) for v in other.window)
        )

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.window)
        for i, v in enumerate(self.window, start=1):
            inv[abs(v) - 1] = i if v > 0 else -i
        return WeylElement(self.group, tuple(inv))

    def act_on_root(self, root: Root) -> Root:
        out = [0] * len(root)
        for idx, c in enumerate(root):
            if c:
                t = self.window[idx]
                out[abs(t) - 1] = c if t > 0 else -c
        return tuple(out)

    @property
    def length(self) -> int:
        return _length(self)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.window, start=1))

    def reduced_word(self) -> tuple[int, ...]:
        return _reduced_word(self)

    def right_descents(self) -> frozenset[int]:
        return frozenset(
            i for i in range(1, self.group.rank + 1) if is_right_descent(self, i)
        )

    def left_descents(self) -> frozenset[int]:
        inv = self.inverse()
        return frozenset(
            i for i in range(1, self.group.rank + 1) if is_right_descent(inv, i)
        )

    def __repr__(self) -> str:
        return f"W({self.group.family}{self.group.rank}:{','.join(map(str, self.window))})"


def root_is_positive(root: Root) -> bool:
    for c in root:
        if c:
            return c > 0
    raise ValueError("zero vector is not a root")


@lru_cache(maxsize=None)
def _length(w: WeylElement) -> int:
    return sum(
        1 for r in w.group.positive_roots() if not root_is_positive(w.act_on_root(r))
    )


def length(w: WeylElement) -> int:
    """Coxeter length: the number of positive roots sent negative."""
    return _length(w)


def is_right_descent(w: WeylElement, i: int) -> bool:
    return not root_is_positive(w.act_on_root(w.group.simple_root(i)))


@lru_cache(maxsize=None)
def _reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Lexicographically smallest reduced word, by greedy left-descent stripping."""
    word: list[int] = []
    cur = w
    while True:
        inv = cur.inverse()
        found = None
        for i in range(1, w.group.rank + 1):
            if is_right_descent(inv, i):
                found = i
                break
        if found is None:
            break
        word.append(found)
        cur = w.group.simple_reflection(found) * cur
    assert cur.is_identity()
    return tuple(word)


def word_string(w: WeylElement) -> str:
    word = w.reduced_word()
    return "e" if not word else "*".join(f"s{i}" for i in word)


def element_from_word(group: WeylGroup, word: Iterable[int]) -> WeylElement:
    out = group.identity()
    for i in word:
        out = out * group.simple_reflection(i)
    return out


def reflection_of_root(group: WeylGroup, root: Root) -> WeylElement:
    support = [k for k, c in enumerate(root) if c]
    w = list(range(1, group.npoints + 1))
    if len(support) == 1:
        i = support[0]
        w[i] = -(i + 1)
    else:
        i, j = support
        if root[i] == -root[j]:
            w[i], w[j] = j + 1, i + 1
        else:
            w[i], w[j] = -(j + 1), -(i + 1)
    return WeylElement(group, tuple(w))


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
        fact = 1
        for t in range(2, k + 2):
            fact *= t
        if fam in ("B", "C") and n in comp:
            out *= (fact // (k + 1)) * 2**k
        elif fam == "D" and {n - 1, n} <= comp:
            out *= (fact // (k + 1)) * 2 ** (k - 1)
        else:
            out *= fact
    return out


def parabolic_elements(group: WeylGroup, subset: "ParabolicType | Iterable[int]") -> tuple[WeylElement, ...]:
    """All elements of W_K, BFS over the generating reflections."""
    K = ParabolicType.of(subset)
    K.validate(group)
    if parabolic_order(group, K) > ENUMERATION_GUARD:
        raise ValueError("parabolic subgroup too large to enumerate")
    gens = [group.simple_reflection(i) for i in K]
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                u = s * w
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: (w.length, w.window)))


@lru_cache(maxsize=None)
def _all_elements(group: WeylGroup) -> tuple[WeylElement, ...]:
    if group.order > ENUMERATION_GUARD:
        raise ValueError("group too large to enumerate")
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
    assert out.length == group.positive_root_count
    return out


def longest_element_parabolic(group: WeylGroup, subset: "ParabolicType | Iterable[int]") -> WeylElement:
    """Longest element of W_K, grown by greedy ascent (no enumeration of W_K)."""
    K = ParabolicType.of(subset)
    K.validate(group)
    ks = sorted(K.indices)
    w = group.identity()
    while True:
        inv = w.inverse()
        step = None
        for i in ks:
            if not is_right_descent(inv, i):
                step = i
                break
        if step is None:
            return w
        w = group.simple_reflection(step) * w


def has_left_descent_in(w: WeylElement, K: ParabolicType) -> bool:
    inv = w.inverse()
    return any(is_right_descent(inv, i) for i in K)


def _blocks_of_type_a_subset(group: WeylGroup, K: ParabolicType) -> list[list[int]]:
    """Partition of the permuted points into maximal runs glued by K."""
    N = group.npoints
    blocks, cur = [], [1]
    for point in range(2, N + 1):
        if (point - 1) in K:
            cur.append(point)
        else:
            blocks.append(cur)
            cur = [point]
    blocks.append(cur)
    return blocks


def _min_reps_type_a(group: WeylGroup, K: ParabolicType) -> list[WeylElement]:
    """Minimal coset representatives in type A via block shuffles.

    An element has no left descent in K exactly when the positions of each
    block of consecutive values appear in increasing order, so representatives
    correspond to ways of dealing the position set out to the blocks.
    """
    N = group.npoints
    blocks = _blocks_of_type_a_subset(group, K)
    reps: list[WeylElement] = []

    def deal(block_idx: int, free_positions: tuple[int, ...], inv: list[int]) -> None:
        if block_idx == len(blocks):
            w_inv = WeylElement(group, tuple(inv))
            reps.append(w_inv.inverse())
            return
        values = blocks[block_idx]
        for chosen in combinations(free_positions, len(values)):
            nxt = list(inv)
            for value, pos in zip(values, chosen):
                nxt[value - 1] = pos
            rest = tuple(p for p in free_positions if p not in chosen)
            deal(block_idx + 1, rest, nxt)

    deal(0, tuple(range(1, N + 1)), [0] * N)
    return reps


def min_coset_reps(group: WeylGroup, subset: "ParabolicType | Iterable[int]") -> tuple[WeylElement, ...]:
    """The minimal length representatives of W_K \\ W, sorted by (length, word)."""
    K = ParabolicType.of(subset)
    K.validate(group)
    if group.family == "A":
        reps = _min_reps_type_a(group, K)
    else:
        reps = [w for w in _all_elements(group) if not has_left_descent_in(w, K)]
    return tuple(sorted(reps, key=lambda w: (w.length, w.reduced_word())))


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
    K = ParabolicType.of(left)
    K2 = ParabolicType.of(right)
    K.validate(group)
    K2.validate(group)
    cur = w
    while True:
        inv = cur.inverse()
        step = None
        for i in sorted(K.indices):
            if is_right_descent(inv, i):
                step = ("L", i)
                break
        if step is None:
            for j in sorted(K2.indices):
                if is_right_descent(cur, j):
                    step = ("R", j)
                    break
        if step is None:
            return cur
        side, i = step
        s = group.simple_reflection(i)
        cur = s * cur if side == "L" else cur * s


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rank_key_a(w: WeylElement) -> tuple[int, ...]:
    N = len(w.window)
    flat = []
    for i in range(1, N + 1):
        row = [0] * (N + 1)
        for a in range(1, i + 1):
            row[w.window[a - 1]] += 1
        acc = 0
        # entry j: how many of the first i values are >= j
        for j in range(N, 0, -1):
            acc += row[j]
            flat.append(acc)
    return tuple(flat)


def _doubled_window(w: WeylElement) -> tuple[int, ...]:
    """Embed a signed permutation on n points as a plain one on 2n points.

    The dominance criterion for the doubled permutation is only valid when the
    sign flip generator acts on the first coordinate, so the element is first
    conjugated by the plain reversal, which carries one generating set to the
    other and therefore transports Bruhat order exactly.
    """
    n = len(w.window)
    rho = WeylElement(w.group, tuple(range(n, 0, -1)))
    w = rho * w * rho

    def pos(v: int) -> int:
        return v + n + 1 if v < 0 else v + n

    out = []
    for k in range(1, 2 * n + 1):
        val = k - n - 1 if k <= n else k - n
        out.append(pos(w.apply(val)))
    return tuple(out)


@lru_cache(maxsize=None)
def _rank_key_bc(w: WeylElement) -> tuple[int, ...]:
    doubled = WeylElement(WeylGroup("A", 2 * len(w.window) - 1), _doubled_window(w))
    return _rank_key_a(doubled)


@lru_cache(maxsize=None)
def _bruhat_downsets_d(group: WeylGroup) -> dict[WeylElement, frozenset[WeylElement]]:
    """Transitive closure of the covering relation, built once per group."""
    elements = sorted(_all_elements(group), key=lambda w: w.length)
    reflections = group.reflections()
    down: dict[WeylElement, set[WeylElement]] = {}
    for v in elements:
        acc = {v}
        for t in reflections:
            u = t * v
            if u.length == v.length - 1:
                acc |= down[u]
        down[v] = acc
    return {w: frozenset(s) for w, s in down.items()}


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Direct Bruhat order test (no word enumeration)."""
    if v.group != w.group:
        raise ValueError("elements of different groups")
    fam = v.group.family
    if fam == "A":
        kv, kw = _rank_key_a(v), _rank_key_a(w)
    elif fam in ("B", "C"):
        kv, kw = _rank_key_bc(v), _rank_key_bc(w)
    else:
        return v in _bruhat_downsets_d(v.group)[w]
    return all(a <= b for a, b in zip(kv, kw))


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
    images = validate_diagram_automorphism(w.group, delta)
    out = w.group.identity()
    for i in w.reduced_word():
        out = out * w.group.simple_reflection(images[i - 1])
    assert out.length == w.length
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
