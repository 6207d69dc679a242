"""The orbit engine: orbits of a finite group walked with its generators.

A point is a flat row-major n-by-n matrix of integer codes, and each
generator (l, r), acting by g -> l g r with l and r elementary, compiles to
a move: one or two row or column operations, each reading one sum table per
scalar, with rows built on first use.  A walk may replace each image by a
canonical form, the point chosen in the class of a normal subgroup it leaves
out.  The same engine serves the zip-orbit census and orbit search of
`grouplab` and the display orbits of `witt`, over finite fields and over
truncated Witt rings alike: it reads only the moves' tables.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .coxeter import ENUMERATION_GUARD, InvariantError, TooLarge
from .ffield import Mat


def _flat(m: Mat) -> tuple[int, ...]:
    """The entries of m in row-major order; the orbit engine's point format."""
    return tuple(itertools.chain.from_iterable(m))


# The canonical point of the class of a flat matrix under a normal subgroup
# an orbit walk leaves out, such as the coset U'g; `tuple` when there is none.
_Form = Callable[[Sequence[int]], tuple[int, ...]]


# A row or column operation on a flat row-major n*n matrix: it sets
# x[d] = table[x[s]][x[d]], which is x[d] + c*x[s], for each position pair
# (d, s), the table holding the sums for the operation's scalar c.
_Op = tuple[tuple[tuple[int, int], ...], "_AddTable"]


class _AddTable(dict):
    """Rows y -> y + c*x of one scalar c, keyed by x and built on first use.

    Building rows lazily keeps the cost to the rows an orbit walk reads, so
    large fields need no q-by-q table up front.
    """

    __slots__ = ("_add", "_mul", "_c", "_order")

    # compared and hashed by identity: a compile makes one table per scalar,
    # so moves with the same operations hold the same tables
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __init__(
        self, add: Callable[[int, int], int], mul: Callable[[int, int], int], c: int, order: int
    ):
        super().__init__()
        self._add, self._mul, self._c, self._order = add, mul, c, order

    def __missing__(self, x: int) -> tuple[int, ...]:
        add, cx = self._add, self._mul(self._c, x)
        row = tuple(add(y, cx) for y in range(self._order))
        self[x] = row
        return row


def _elementary_entry(m: Mat) -> Optional[tuple[int, int, int]]:
    """The one entry (i, j, value) where m differs from the identity, or None."""
    n = len(m)
    off = [(i, j, m[i][j]) for i in range(n) for j in range(n) if m[i][j] != (i == j)]
    if len(off) > 1:
        raise InvariantError("a generator must differ from the identity in one entry")
    return off[0] if off else None


def _compile_moves(
    pairs: Iterable[tuple[Mat, Mat]],
    n: int,
    add: Callable[[int, int], int],
    mul: Callable[[int, int], int],
    order: int,
) -> tuple[tuple[_Op, ...], ...]:
    """Pairs (l, r) acting by g -> l g r, compiled to row and column operations.

    l and r differ from the identity in at most one entry, over integer codes
    with one coded as 1 and zero as 0; add and mul act on codes in
    range(order).  l = 1 + c E_ij adds c times row j to row i, r = 1 + c E_ij
    adds c times column i to column j.  A diagonal entry c scales a row or a
    column, which is adding c - 1 times it to itself, so every operation
    reads one table.  Each scalar gets one table, shared by every operation
    with it.  Pairs that are the identity on both sides and repeated moves
    are dropped.
    """
    minus_one = next(y for y in range(order) if add(1, y) == 0)
    rows = [range(i * n, i * n + n) for i in range(n)]
    cols = [range(j, n * n, n) for j in range(n)]

    def op(dst: range, src: range, c: int) -> tuple[tuple[tuple[int, int], ...], int]:
        if dst == src:
            c = add(c, minus_one)
        return tuple(zip(dst, src)), c

    tables: dict[int, _AddTable] = {}
    moves: dict[tuple, tuple[_Op, ...]] = {}  # keyed by the (position pairs, c) of each op
    for left, right in pairs:
        ops = []
        entry = _elementary_entry(left)
        if entry is not None:
            i, j, c = entry
            ops.append(op(rows[i], rows[j], c))
        entry = _elementary_entry(right)
        if entry is not None:
            i, j, c = entry
            ops.append(op(cols[j], cols[i], c))
        key = tuple(ops)
        if key and key not in moves:
            moves[key] = tuple(
                (links, tables.setdefault(c, _AddTable(add, mul, c, order))) for links, c in key
            )
    return tuple(moves.values())


def _walk_orbit(
    moves: Sequence[tuple[_Op, ...]],
    start: tuple[int, ...],
    form: _Form,
    guard: int = ENUMERATION_GUARD,
) -> set[tuple[int, ...]]:
    """The orbit of a flat matrix under the finite group the moves generate, as forms.

    Each image of a move is replaced by its `form`; `start` must be a
    form.  More than
    `guard` forms raise TooLarge.  The walk is shared by every orbit
    computation of the package, over finite fields and over truncated Witt
    rings; it only reads the moves' tables.
    """
    orbit = {start}
    stack = [start]
    while stack:
        if len(orbit) > guard:
            raise TooLarge("orbit sweep exceeded the exhaustion guard")
        cur = stack.pop()
        for ops in moves:
            x = list(cur)
            for links, table in ops:
                for d, s in links:
                    x[d] = table[x[s]][x[d]]
            nxt = form(x)
            if nxt not in orbit:
                orbit.add(nxt)
                stack.append(nxt)
    return orbit


def _orbit_partition(
    moves: Sequence[tuple[_Op, ...]],
    points: Sequence[tuple[int, ...]],
    order: int,
    form: _Form,
    weight: int = 1,
) -> Iterator[tuple[tuple[int, ...], set[tuple[int, ...]]]]:
    """(seed, orbit) for the orbits of the moves on `points`, seeded at the first uncovered point.

    The points are forms, as in `_walk_orbit`, each standing for `weight`
    points of the space.  An orbit meeting an earlier one, or whose size
    does not divide the group order, raises InvariantError; the caller checks
    that the points exhaust the space.
    """
    remaining = set(points)
    for seed in points:
        if seed not in remaining:
            continue
        orbit = _walk_orbit(moves, seed, form)
        if not orbit <= remaining:
            raise InvariantError("an orbit meets an orbit found before it")
        remaining -= orbit
        size = weight * len(orbit)
        if order % size:
            raise InvariantError(f"an orbit of {size} points does not divide |G| = {order}")
        yield seed, orbit
