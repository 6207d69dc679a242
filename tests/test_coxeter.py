"""Oracles for the Weyl group layer.

The brute-force oracles here (BFS word length, exhaustive double-coset scans,
and from oracles.py the subword characterisation of Bruhat order) are
deliberately independent of the production implementations they check.
"""

import random
import tracemalloc

import pytest

from zipstrata import coxeter
from zipstrata.coxeter import (
    InvariantError,
    ParabolicType,
    TooLarge,
    WeylElement,
    WeylGroup,
    apply_diagram_automorphism,
    bruhat_leq,
    create_weyl,
    diagram_automorphisms,
    element_from_word,
    is_right_descent,
    length,
    longest_element,
    longest_element_parabolic,
    min_coset_reps,
    min_double_coset_rep,
    parabolic_elements,
    parabolic_order,
    simple_index_of,
    word_string,
)

from oracles import bruhat_leq_lifting, bruhat_leq_subword, root_is_positive


def W(fam, rank):
    return create_weyl(fam, rank)


# ---------------------------------------------------------------------------
# construction, orders, root counts
# ---------------------------------------------------------------------------


def test_orders_and_root_counts_match_closed_forms():
    expected = {
        ("A", 1): (2, 1),
        ("A", 3): (24, 6),
        ("B", 2): (8, 4),
        ("C", 3): (48, 9),
        ("D", 2): (4, 2),
        ("D", 3): (24, 6),
        ("D", 4): (192, 12),
    }
    for (fam, rank), (order, nroots) in expected.items():
        g = W(fam, rank)
        assert g.order == order
        assert g.positive_root_count == nroots
        assert len(g.positive_roots()) == nroots
        assert len(g.elements()) == order


def test_invalid_groups_are_rejected():
    with pytest.raises(ValueError):
        create_weyl("D", 1)
    with pytest.raises(ValueError):
        create_weyl("E", 6)
    with pytest.raises(ValueError):
        create_weyl("A", 0)


def test_window_validation():
    g = W("A", 2)
    with pytest.raises(ValueError):
        WeylElement(g, (1, 1, 2))
    with pytest.raises(ValueError):
        WeylElement(g, (-1, 2, 3))
    with pytest.raises(ValueError):
        WeylElement(W("D", 2), (-1, 2))


def test_group_laws_exhaustively_on_b2():
    g = W("B", 2)
    els = g.elements()
    for u in els:
        assert u * u.inverse() == g.identity()
        for v in els:
            assert (u * v).inverse() == v.inverse() * u.inverse()


# ---------------------------------------------------------------------------
# length via an independent BFS oracle
# ---------------------------------------------------------------------------


def _bfs_word_lengths(g):
    gens = g.simple_reflections
    dist = {g.identity(): 0}
    frontier = [g.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                u = w * s
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 2), ("B", 3), ("C", 2), ("D", 3)])
def test_length_equals_cayley_graph_distance(fam, rank):
    g = W(fam, rank)
    dist = _bfs_word_lengths(g)
    assert len(dist) == g.order
    for w, d in dist.items():
        assert length(w) == d


WINDOW_GROUPS = (
    [("A", r) for r in range(1, 6)]
    + [(f, r) for f in "BC" for r in (2, 3, 4)]
    + [("D", r) for r in (2, 3, 4)]
)


@pytest.mark.parametrize("fam,rank", WINDOW_GROUPS)
def test_window_descents_and_lengths_match_the_root_action(fam, rank):
    g = W(fam, rank)
    roots = g.positive_roots()
    for w in g.elements():
        sent_negative = sum(1 for r in roots if not root_is_positive(w.act_on_root(r)))
        assert length(w) == sent_negative
        for i in range(1, rank + 1):
            simple_image = w.act_on_root(g.simple_root(i))
            assert is_right_descent(w, i) == (not root_is_positive(simple_image))


def test_descent_index_outside_the_simple_indices_is_rejected():
    g = W("A", 2)
    for i in (0, 3, -1):
        with pytest.raises(ValueError):
            is_right_descent(g.identity(), i)


def test_descent_stripping_is_bounded_by_the_longest_length(monkeypatch):
    # a descent test that reports s1 forever must fail, not loop
    monkeypatch.setattr(coxeter, "_window_descent", lambda family, window, i: i == 1)
    with pytest.raises(InvariantError):
        coxeter._reduced_word.__wrapped__(W("A", 2).identity())


def test_longest_element_checks_its_length_without_assert(monkeypatch):
    monkeypatch.setattr(coxeter, "_length", lambda family, window: 0)
    with pytest.raises(InvariantError):
        longest_element(W("B", 2))


def test_reduced_word_is_reduced_and_lex_smallest():
    g = W("A", 3)
    for w in g.elements():
        word = w.reduced_word()
        assert len(word) == w.length
        assert element_from_word(g, word) == w
    assert W("A", 2).element((3, 1, 2)).reduced_word() == (2, 1)
    assert word_string(W("A", 2).element((3, 1, 2))) == "s2*s1"
    assert word_string(g.identity()) == "e"


def _greedy_word_by_full_rescan(w):
    """Strip the smallest left descent, rescanning every index each time."""
    g = w.group
    word = []
    while not w.is_identity():
        inv = w.inverse()
        i = min(i for i in range(1, g.rank + 1) if is_right_descent(inv, i))
        word.append(i)
        w = g.simple_reflection(i) * w
    return tuple(word)


REDUCED_WORD_GROUPS = (
    [("A", r) for r in range(1, 6)]
    + [(f, r) for f in "BC" for r in range(1, 5)]
    + [("D", r) for r in (2, 3, 4)]
)


@pytest.mark.parametrize("fam,rank", REDUCED_WORD_GROUPS)
def test_resumed_descent_scan_gives_the_full_rescan_word(fam, rank):
    g = W(fam, rank)
    for w in g.elements():
        word = coxeter._reduced_word.__wrapped__(w)
        assert word == _greedy_word_by_full_rescan(w), w
        product = g.identity()
        for i in word:
            product = product * g.simple_reflection(i)
        assert element_from_word(g, word) == product == w


def test_resumed_descent_scan_on_the_k3_carrier():
    # the 462 labels of GL_22 with blocks (1, 20, 1): I = {2, ..., 20} in A21
    g = W("A", 21)
    carrier = min_coset_reps(g, range(2, 21))
    assert len(carrier) == 462
    for w in carrier:
        assert coxeter._reduced_word.__wrapped__(w) == _greedy_word_by_full_rescan(w)


def test_element_from_word_rejects_indices_outside_the_simple_ones():
    g = W("B", 3)
    assert element_from_word(g, ()) == g.identity()
    for bad in ((0,), (1, 4), (2, -1)):
        with pytest.raises(ValueError):
            element_from_word(g, bad)


def test_longest_elements():
    assert longest_element(W("A", 3)).window == (4, 3, 2, 1)
    assert longest_element(W("B", 2)).window == (-1, -2)
    assert longest_element(W("D", 3)).window == (-1, -2, 3)
    assert longest_element(W("D", 4)).window == (-1, -2, -3, -4)
    for fam, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
        g = W(fam, rank)
        w0 = longest_element(g)
        assert w0.length == g.positive_root_count
        assert w0 * w0 == g.identity()


def test_longest_element_conjugation_permutes_simples():
    for fam, rank in [("A", 3), ("B", 3), ("C", 2), ("D", 3), ("D", 4)]:
        g = W(fam, rank)
        w0 = longest_element(g)
        mapping = {}
        for i in range(1, rank + 1):
            t = w0 * g.simple_reflection(i) * w0
            j = simple_index_of(t)
            assert j is not None
            mapping[i] = j
        if fam == "A":
            assert all(j == rank + 1 - i for i, j in mapping.items())
        elif fam == "D" and rank % 2:
            assert mapping == {**{i: i for i in range(1, rank - 1)}, rank - 1: rank, rank: rank - 1}
        else:
            assert all(i == j for i, j in mapping.items())


# ---------------------------------------------------------------------------
# parabolic machinery
# ---------------------------------------------------------------------------


def test_parabolic_order_matches_enumeration():
    cases = [
        ("A", 3, {1, 3}),
        ("A", 3, {1, 2}),
        ("B", 3, {2, 3}),
        ("B", 3, {1, 2}),
        ("C", 3, {1, 3}),
        ("D", 4, {2, 3, 4}),
        ("D", 4, {1, 2}),
        ("D", 3, {1, 2, 3}),
    ]
    for fam, rank, K in cases:
        g = W(fam, rank)
        assert parabolic_order(g, K) == len(parabolic_elements(g, K))
    assert parabolic_order(W("A", 21), range(2, 21)) == _factorial(20)


def test_oversized_enumerations_raise_too_large():
    with pytest.raises(TooLarge, match="parabolic subgroup too large"):
        parabolic_elements(create_weyl("A", 10), range(1, 11))
    with pytest.raises(TooLarge, match="group too large"):
        create_weyl("B", 9).elements()


def test_a_d12_bruhat_query_enumerates_no_interval_or_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("an interval or the whole group was enumerated")

    monkeypatch.setattr(coxeter, "_lower_interval", refuse)
    monkeypatch.setattr(coxeter, "_all_elements", refuse)
    d12 = create_weyl("D", 12)
    w0 = longest_element(d12)
    below = element_from_word(d12, w0.reduced_word()[1:])
    tracemalloc.start()
    try:
        assert bruhat_leq(below, w0) and not bruhat_leq(w0, below)
        assert not bruhat_leq(d12.simple_reflection(11), d12.simple_reflection(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_longest_parabolic_element():
    g = W("A", 3)
    w = longest_element_parabolic(g, {1, 3})
    assert w == g.simple_reflection(1) * g.simple_reflection(3)
    assert w.length == 2
    for fam, rank, K in [("B", 3, {1, 2}), ("D", 4, {1, 3, 4}), ("A", 4, {2, 3})]:
        g = W(fam, rank)
        w = longest_element_parabolic(g, K)
        brute = max(parabolic_elements(g, K), key=lambda u: u.length)
        assert w.length == brute.length
        assert w == brute


def test_min_coset_reps_type_a_example():
    g = W("A", 2)
    reps = min_coset_reps(g, {1})
    s1, s2 = g.simple_reflection(1), g.simple_reflection(2)
    assert reps == (g.identity(), s2, s2 * s1)


@pytest.mark.parametrize(
    "fam,rank",
    [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 3), ("D", 4)],
)
def test_min_coset_reps_tile_the_group(fam, rank):
    g = W(fam, rank)
    import itertools

    for K in map(set, itertools.chain.from_iterable(
        itertools.combinations(range(1, rank + 1), r) for r in range(rank + 1)
    )):
        reps = min_coset_reps(g, K)
        assert len(reps) * parabolic_order(g, K) == g.order
        for w in reps:
            assert not any(i in K for i in w.left_descents())
        # sorted by (length, lexicographic reduced word)
        keys = [(w.length, w.reduced_word()) for w in reps]
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "fam,rank",
    [(f, r) for f in "ABCD" for r in range(1 + (f == "D"), 5)] + [("A", 5), ("D", 5)],
)
def test_min_coset_reps_walk_agrees_with_filter(fam, rank):
    import itertools

    g = W(fam, rank)
    for size in range(rank + 1):
        for K in map(set, itertools.combinations(range(1, rank + 1), size)):
            slow = tuple(
                sorted(
                    (w for w in g.elements() if not any(i in K for i in w.left_descents())),
                    key=lambda w: (w.length, w.reduced_word()),
                )
            )
            assert min_coset_reps(g, K) == slow, K


def test_min_coset_reps_refuse_too_many_labels_before_walking(monkeypatch):
    def refuse(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(coxeter, "_ascent_walk", refuse)
    with pytest.raises(TooLarge, match=str(_factorial(13))):
        min_coset_reps(create_weyl("A", 12), ())
    with pytest.raises(TooLarge, match="minimal coset representatives"):
        min_coset_reps(create_weyl("B", 9), ())


def test_lower_interval_refuses_to_grow_past_the_guard(monkeypatch):
    w0 = longest_element(W("A", 3))
    coxeter._lower_interval.cache_clear()
    monkeypatch.setattr(coxeter, "ENUMERATION_GUARD", 24)
    assert len(coxeter._lower_interval(w0)[0]) == 24
    coxeter._lower_interval.cache_clear()
    monkeypatch.setattr(coxeter, "ENUMERATION_GUARD", 23)
    with pytest.raises(TooLarge, match="passes 23 windows"):
        coxeter._lower_interval(w0)
    coxeter._lower_interval.cache_clear()


def test_min_double_coset_rep_against_brute_scan():
    rng = random.Random(5)
    cases = [("A", 3, {1}, {3}), ("A", 3, {1, 2}, {2, 3}), ("B", 2, {1}, {2}), ("D", 3, {2, 3}, {1})]
    for fam, rank, K, K2 in cases:
        g = W(fam, rank)
        lefts = parabolic_elements(g, K)
        rights = parabolic_elements(g, K2)
        pool = list(g.elements())
        for w in rng.sample(pool, min(8, len(pool))):
            walked = min_double_coset_rep(g, K, w, K2)
            coset = {a * w * b for a in lefts for b in rights}
            brute = min(coset, key=lambda u: (u.length, u.window))
            shortest = [u for u in coset if u.length == brute.length]
            assert len(shortest) == 1, "double coset minimum must be unique"
            assert walked == brute
            assert walked in coset


# ---------------------------------------------------------------------------
# Bruhat order: direct criterion versus the subword oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fam,rank",
    [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("D", 2), ("D", 3)],
)
def test_bruhat_direct_agrees_with_subword_exhaustively(fam, rank):
    g = W(fam, rank)
    els = g.elements()
    for v in els:
        for w in els:
            assert bruhat_leq(v, w) == bruhat_leq_subword(v, w)


def test_bruhat_basic_properties():
    g = W("B", 3)
    w0 = longest_element(g)
    e = g.identity()
    for w in g.elements():
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w0)
        assert bruhat_leq(w, w)
    assert not bruhat_leq(w0, e)
    with pytest.raises(ValueError):
        bruhat_leq(e, W("A", 2).identity())


def test_bruhat_leq_across_equal_but_distinct_group_objects():
    g, h = WeylGroup("B", 3), WeylGroup("B", 3)
    assert g is not h and g == h
    els_g = [g.element(w.window) for w in g.elements()]
    els_h = [h.element(w.window) for w in g.elements()]
    for v in els_g:
        for w in els_h:
            assert bruhat_leq(v, w) == bruhat_leq_subword(v, w)
            assert bruhat_leq(w, v) == bruhat_leq_subword(w, v)
    for other in (W("C", 3), W("A", 3), W("B", 2)):
        with pytest.raises(ValueError):
            bruhat_leq(g.identity(), other.identity())
        with pytest.raises(ValueError):
            bruhat_leq(other.identity(), g.identity())


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_type_d_parity_refinement_agrees_with_subword(rank):
    els = W("D", rank).elements()
    for v in els:
        for w in els:
            assert bruhat_leq(v, w) == bruhat_leq_subword(v, w)


def _dominates(v, w):
    """Entrywise dominance of the packed rank keys, without type D's parity condition."""
    guard = v.group._bruhat_guard
    return ((w._bruhat_key | guard) - v._bruhat_key) & guard == guard


def test_doubled_dominance_is_not_a_valid_criterion_in_type_d():
    # In D_2 the two simple reflections are incomparable, yet their doubled
    # permutations 2143 and 3412 are dominance-comparable in S_4.  This is the
    # reason type D adds the parity condition, which in D_4 rejects exactly
    # the 754 pairs that dominance alone accepts out of order.
    g = W("D", 2)
    s1, s2 = g.simple_reflection(1), g.simple_reflection(2)
    assert _dominates(s1, s2)
    assert not bruhat_leq(s1, s2)
    assert not bruhat_leq_subword(s1, s2)
    a = W("A", 3)
    assert bruhat_leq(a.element((2, 1, 4, 3)), a.element((3, 4, 1, 2)))
    d4 = W("D", 4).elements()
    accepted = [(v, w) for v in d4 for w in d4 if _dominates(v, w) and not bruhat_leq_subword(v, w)]
    assert len(accepted) == 754
    assert not any(bruhat_leq(v, w) for v, w in accepted)


def _random_d_element(g, rng):
    n = g.rank
    window = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), n)]
    if sum(v < 0 for v in window) % 2:
        window[0] = -window[0]
    return g.element(window)


def _relation_biased_pairs(g, count, rng):
    """Pairs (v, w) with v built from a reduced word of w less one letter.

    The shortened word is kept, given one letter more, given one letter less
    and one more, or has s_{n-1} and s_n swapped throughout; the last kind
    gives most of the pairs that dominance alone accepts out of order.
    """
    n, pairs = g.rank, []
    while len(pairs) < count:
        w = _random_d_element(g, rng)
        word = list(w.reduced_word())
        if len(word) < 2:
            continue
        del word[rng.randrange(len(word))]
        kind = rng.randrange(4)
        if kind == 2:
            del word[rng.randrange(len(word))]
        if kind in (1, 2):
            word.insert(rng.randrange(len(word) + 1), rng.randint(1, n))
        if kind == 3:
            word = [2 * n - 1 - i if i >= n - 1 else i for i in word]
        pairs.append((element_from_word(g, word), w))
    return pairs


@pytest.mark.parametrize("rank,count", [(5, 800), (6, 800), (8, 400)])
def test_type_d_bruhat_order_matches_the_lifting_property_on_seeded_pairs(rank, count):
    g = W("D", rank)
    outcomes = {True: 0, False: 0}
    refined = 0
    for v, w in _relation_biased_pairs(g, count, random.Random(rank)):
        for a, b in ((v, w), (w, v)):
            leq = bruhat_leq(a, b)
            assert leq == bruhat_leq_lifting(a, b), (a, b)
            outcomes[leq] += 1
            refined += _dominates(a, b) and not leq
    assert min(outcomes.values()) > count // 4
    assert refined > 0
def test_bruhat_interval_of_longest_element_is_whole_group():
    g = W("D", 3)
    w0 = longest_element(g)
    assert sum(1 for w in g.elements() if bruhat_leq(w, w0)) == g.order


# ---------------------------------------------------------------------------
# diagram automorphisms
# ---------------------------------------------------------------------------


def test_diagram_automorphism_counts():
    expected = {
        ("A", 1): 1,
        ("A", 3): 2,
        ("B", 2): 1,
        ("B", 3): 1,
        ("C", 3): 1,
        ("D", 2): 2,
        ("D", 3): 2,
        ("D", 4): 6,
    }
    for (fam, rank), count in expected.items():
        autos = diagram_automorphisms(W(fam, rank))
        assert len(autos) == count
        assert autos[0] == tuple(range(1, rank + 1)) or count == 1


def test_apply_diagram_automorphism_reversal_on_a3():
    g = W("A", 3)
    delta = (3, 2, 1)
    assert apply_diagram_automorphism(delta, g.simple_reflection(1)) == g.simple_reflection(3)
    for w in g.elements():
        img = apply_diagram_automorphism(delta, w)
        assert img.length == w.length
    u, v = g.simple_reflection(1), g.simple_reflection(2)
    assert apply_diagram_automorphism(delta, u * v) == apply_diagram_automorphism(
        delta, u
    ) * apply_diagram_automorphism(delta, v)


def test_node_swap_of_b2_is_rejected_by_the_cartan_matrix():
    with pytest.raises(ValueError):
        apply_diagram_automorphism((2, 1), W("B", 2).identity())
    with pytest.raises(ValueError):
        apply_diagram_automorphism((1, 2, 3), W("A", 2).identity())


def test_triality_on_d4_preserves_lengths():
    g = W("D", 4)
    delta = (3, 2, 4, 1)
    assert delta in diagram_automorphisms(g)
    rng = random.Random(1)
    for w in rng.sample(list(g.elements()), 20):
        assert apply_diagram_automorphism(delta, w).length == w.length


def test_parabolic_type_normalisation():
    K = ParabolicType.of([3, 1])
    assert list(K) == [1, 3]
    assert 1 in K and 2 not in K
    assert ParabolicType.of(K) is K
    with pytest.raises(ValueError):
        ParabolicType.of({0}).validate(W("A", 2))
