"""Tests for the twisted stratum order, purity reports and serialisation."""

import json
import os
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

import zipstrata
from zipstrata.coxeter import (
    InvariantError,
    _compose,
    _lower_interval,
    bruhat_leq,
    create_weyl,
    diagram_automorphisms,
    element_from_word,
    longest_element,
    min_coset_reps,
    parabolic_elements,
    parabolic_order,
    word_string,
)
from zipstrata.zipdatum import (
    _bits,
    _covers_from_leq,
    _twist_pairs,
    _twisted_rows,
    _validate_order,
    PsiMismatch,
    PurityReport,
    PurityViolation,
    ZipCombinatorics,
    build_zip,
    dim_parabolic,
    export_poset,
    import_poset,
    purity_check,
    purity_check_poset,
    stratum_dimension,
    stratum_poset,
    zip_from_cocharacter,
)

from oracles import bruhat_leq_subword


# ---------------------------------------------------------------------------
# datum construction
# ---------------------------------------------------------------------------


def test_delta_image_maps_windows_without_revalidating(monkeypatch):
    from zipstrata import coxeter, zipdatum

    data = [(create_weyl("D", 4), delta) for delta in diagram_automorphisms(create_weyl("D", 4))]
    data += [(create_weyl("A", 3), (3, 2, 1)), (create_weyl("B", 3), (1, 2, 3))]

    def image_by_products(group, delta, w):
        out = group.identity()
        for i in w.reduced_word():
            out = out * group.simple_reflection(delta[i - 1])
        return out

    expected = {
        (group, delta): [image_by_products(group, delta, w) for w in group.elements()]
        for group, delta in data
    }
    zips = {(group, delta): build_zip(group, (), (), delta) for group, delta in data}

    def refuse(*args):
        raise AssertionError("delta was validated when the datum was built")

    monkeypatch.setattr(coxeter, "validate_diagram_automorphism", refuse)
    monkeypatch.setattr(zipdatum, "validate_diagram_automorphism", refuse)
    for key, z in zips.items():
        assert [z.delta_image(w) for w in key[0].elements()] == expected[key]
        theta_inv = z.theta0.inverse()
        for s in key[0].simple_reflections:
            assert z.psi(s) == z.theta0 * z.delta_image(s) * theta_inv


def test_delta_image_still_refuses_a_map_that_breaks_lengths():
    # (1, 3, 2) is no diagram automorphism of A3: s1 s2 s1 would go to s1 s3 s1 = s3
    group = create_weyl("A", 3)
    z = build_zip(group, (), ())
    bad = ZipCombinatorics(group, z.I, z.J, (1, 3, 2), z.theta0)
    with pytest.raises(InvariantError, match="preserve length"):
        bad.delta_image(element_from_word(group, (1, 2, 1)))


def test_rank_two_twist_rejects_mismatched_target():
    W = create_weyl("A", 2)
    with pytest.raises(PsiMismatch):
        build_zip(W, {1}, {1})


def test_rank_two_twist_accepts_matching_target_and_computes_theta0():
    W = create_weyl("A", 2)
    z = build_zip(W, {1}, {2})
    assert z.theta0.reduced_word() == (1, 2)
    assert word_string(z.psi(W.simple_reflection(1))) == "s2"


def test_build_rejects_mismatched_sizes_of_i_and_j():
    W = create_weyl("A", 3)
    with pytest.raises(PsiMismatch):
        build_zip(W, {1}, {1, 3})


def test_cocharacter_datum_flips_node_across_the_diagram():
    W = create_weyl("A", 3)
    z = zip_from_cocharacter(W, {1})
    assert sorted(z.J.indices) == [3]


def test_cocharacter_datum_swaps_fork_nodes_in_triality_free_even_orthogonal():
    # conjugation by the longest element exchanges the fork nodes here
    D3 = create_weyl("D", 3)
    assert sorted(zip_from_cocharacter(D3, {2}).J.indices) == [3]
    assert sorted(zip_from_cocharacter(D3, {3}).J.indices) == [2]
    assert sorted(zip_from_cocharacter(D3, {1}).J.indices) == [1]


def test_cocharacter_datum_always_builds_for_every_subset_and_twist():
    for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 3)]:
        W = create_weyl(family, rank)
        subsets = [
            frozenset(s)
            for mask in range(1 << rank)
            for s in [[i + 1 for i in range(rank) if mask >> i & 1]]
        ]
        for delta in diagram_automorphisms(W):
            for I in subsets:
                zip_from_cocharacter(W, I, delta)


def test_central_torus_flag_rejected_outside_type_a():
    W = create_weyl("B", 2)
    with pytest.raises(ValueError):
        build_zip(W, set(), set(), gl_center=True)


# ---------------------------------------------------------------------------
# the twisted order
# ---------------------------------------------------------------------------


def test_twisted_order_with_trivial_levi_is_bruhat_order():
    for family, rank in [("A", 2), ("B", 2), ("A", 3)]:
        W = create_weyl(family, rank)
        z = build_zip(W, set(), set())
        p = stratum_poset(z)
        assert len(p.carrier) == W.order
        assert p.leq == tuple(tuple(bruhat_leq(v, w) for w in p.carrier) for v in p.carrier)


def _all_cocharacter_data(family, rank):
    W = create_weyl(family, rank)
    for delta in diagram_automorphisms(W):
        for k in range(rank + 1):
            for I in combinations(range(1, rank + 1), k):
                yield zip_from_cocharacter(W, I, delta)


SMALL_GROUPS = [(f, r) for f in "ABCD" for r in (1, 2, 3) if (f, r) != ("D", 1)]
# the export round trips of the strata benchmark
LARGER_DATA = [("B", 4, (1,)), ("C", 4, (1, 2)), ("D", 4, (2,)), ("A", 5, (1, 3))]


def _brute_force_twisted_leq(z):
    """w' <= w iff some u * w' * psi(u)**-1 lies in the subword interval of w."""
    carrier = min_coset_reps(z.group, z.I)
    pairs = [(u, z.psi(u).inverse()) for u in parabolic_elements(z.group, z.I)]
    rows = []
    for wp in carrier:
        translates = {u * wp * pu_inv for u, pu_inv in pairs}
        rows.append(tuple(any(bruhat_leq_subword(t, w) for t in translates) for w in carrier))
    return tuple(rows)


@pytest.mark.parametrize("family,rank", SMALL_GROUPS)
def test_twisted_order_matches_the_brute_force_oracle_in_small_rank(family, rank):
    for z in _all_cocharacter_data(family, rank):
        assert stratum_poset(z).leq == _brute_force_twisted_leq(z), (family, rank, z.I, z.delta)


@pytest.mark.parametrize("family,rank,I", LARGER_DATA)
def test_twisted_order_matches_the_brute_force_oracle_in_rank_four_and_five(family, rank, I):
    z = zip_from_cocharacter(create_weyl(family, rank), I)
    assert stratum_poset(z).leq == _brute_force_twisted_leq(z)


def _small_and_larger_data():
    for family, rank in SMALL_GROUPS:
        yield from _all_cocharacter_data(family, rank)
    for family, rank, I in LARGER_DATA:
        yield zip_from_cocharacter(create_weyl(family, rank), I)


def test_twist_pairs_grown_from_generators_match_psi_on_every_element():
    for z in _small_and_larger_data():
        oracle = {(u.window, z.psi(u).inverse().window) for u in parabolic_elements(z.group, z.I)}
        pairs = _twist_pairs(z)
        assert len(pairs) == parabolic_order(z.group, z.I)
        assert set(pairs) == oracle, (z.group, z.I, z.delta)


def test_covers_found_during_the_order_check_match_the_derived_covers():
    for z in _small_and_larger_data():
        poset = stratum_poset(z)
        assert poset.covers == _covers_from_leq(poset.rows), (z.group, z.I, z.delta)


def _rank_key_rows(z, carrier):
    """Bit rows by testing every translate against every label with bruhat_leq."""
    rows = []
    pairs = _twist_pairs(z)
    for wp in carrier:
        lows = {z.group.element(_compose(_compose(u, wp.window), p)) for u, p in pairs}
        row = 0
        for j, w in enumerate(carrier):
            if any(bruhat_leq(low, w) for low in lows):
                row |= 1 << j
        rows.append(row)
    return rows


GL6_TYPES = [I for k in range(6) for I in combinations(range(1, 6), k)]


@pytest.mark.parametrize("delta", [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1)])
def test_rows_from_the_interval_match_the_rank_key_scan_on_every_gl6_block_type(delta):
    A5 = create_weyl("A", 5)
    for I in GL6_TYPES:
        z = zip_from_cocharacter(A5, I, delta, gl_center=True)
        carrier = min_coset_reps(A5, I)
        assert _twisted_rows(z, carrier) == _rank_key_rows(z, carrier), (I, delta)


@pytest.mark.parametrize("family,rank,I", LARGER_DATA)
def test_rows_from_the_interval_match_the_rank_key_scan_in_rank_four_and_five(family, rank, I):
    z = zip_from_cocharacter(create_weyl(family, rank), I)
    carrier = min_coset_reps(z.group, z.I)
    assert _twisted_rows(z, carrier) == _rank_key_rows(z, carrier)


def _validate_order_by_relations(lengths, rows):
    """The order checks and covers by visiting every relation, lowest label first."""
    n = len(rows)
    has_lower = 0
    covers = []
    for i, row in enumerate(rows):
        bit = 1 << i
        if not row & bit:
            raise InvariantError("order must be reflexive")
        above = row ^ bit
        dominated = 0
        for j in _bits(above):
            if rows[j] & bit:
                raise InvariantError("order must be antisymmetric")
            if lengths[i] >= lengths[j]:
                raise InvariantError("order must refine length")
            dominated |= rows[j] & ~(1 << j)
        if dominated & ~row:
            raise InvariantError("order must be transitive")
        covers.extend((i, j) for j in _bits(above & ~dominated))
        has_lower |= above
    if has_lower.bit_count() != n - 1:
        raise InvariantError("twisted order must have a unique minimum")
    if sum(1 for row in rows if row.bit_count() == 1) != 1:
        raise InvariantError("twisted order must have a unique maximum")
    return tuple(covers)


def _check_outcome(check, lengths, rows):
    try:
        return check(lengths, rows)
    except InvariantError as exc:
        return str(exc)


def _sweep_data():
    """The data of the strata benchmark's purity sweep."""
    for family, rank in SMALL_GROUPS + [("A", 4)]:
        yield from _all_cocharacter_data(family, rank)
    D4 = create_weyl("D", 4)
    for delta in diagram_automorphisms(D4):
        yield zip_from_cocharacter(D4, (), delta)


def test_cover_walk_gives_the_relation_walks_covers_on_every_sweep_datum():
    data = list(_sweep_data())
    assert len(data) == 116
    for z in data:
        poset = stratum_poset(z)
        covers = _validate_order_by_relations(poset.length_of, poset.rows)
        assert _validate_order(poset.length_of, poset.rows) == covers == poset.covers


def test_cover_walk_raises_what_the_relation_walk_raises_on_every_single_bit_flip():
    seen = set()
    for family, rank, I in [("A", 2, ()), ("A", 3, ()), ("B", 3, (1,)), ("C", 3, (3,)), ("D", 4, (1, 2))]:
        poset = stratum_poset(zip_from_cocharacter(create_weyl(family, rank), I))
        lengths, n = poset.length_of, len(poset.carrier)
        for i in range(n):
            for j in range(n):
                rows = list(poset.rows)
                rows[i] ^= 1 << j
                got = _check_outcome(_validate_order, lengths, rows)
                assert got == _check_outcome(_validate_order_by_relations, lengths, rows), (family, I, i, j)
                seen.add(got if isinstance(got, str) else "valid")
    assert seen == {
        "valid",
        "order must be reflexive",
        "order must be antisymmetric",
        "order must refine length",
        "order must be transitive",
        "twisted order must have a unique minimum",
        "twisted order must have a unique maximum",
    }


def test_cover_walk_refuses_labels_out_of_length_order():
    with pytest.raises(InvariantError, match="sorted by length"):
        _validate_order((0, 2, 1, 3), (0b1111, 0b1010, 0b1100, 0b1000))


# Related pairs (reflexive ones included) of the Ekedahl-Oort labels, I = {1..n-1}:
# the twisted order against Bruhat order on ^I W.
EO_RELATION_COUNTS = {
    ("C", 3): (35, 35),
    ("C", 4): (126, 126),
    ("C", 5): (466, 462),
    ("C", 6): (1750, 1716),
    ("D", 4): (35, 35),
    ("D", 5): (126, 126),
    ("D", 6): (466, 462),
}


@pytest.mark.parametrize("family,rank", sorted(EO_RELATION_COUNTS))
def test_eo_relation_counts_of_the_twisted_and_the_bruhat_order(family, rank):
    poset = stratum_poset(zip_from_cocharacter(create_weyl(family, rank), range(1, rank)))
    twisted = sum(row.bit_count() for row in poset.rows)
    bruhat = sum(bruhat_leq(v, w) for v in poset.carrier for w in poset.carrier)
    assert (twisted, bruhat) == EO_RELATION_COUNTS[family, rank]


def test_the_d7_eo_labels_have_1716_bruhat_relations():
    carrier = min_coset_reps(create_weyl("D", 7), range(1, 7))
    assert sum(bruhat_leq(v, w) for v in carrier for w in carrier) == 1716


def test_the_interval_of_the_gl8_7_1_datum_has_two_to_the_seventh_windows():
    carrier = min_coset_reps(create_weyl("A", 7), range(1, 7))
    assert len(carrier) == 8
    assert len(_lower_interval(carrier[-1])[0]) == 2**7


def test_posets_never_enumerate_the_whole_group(monkeypatch):
    from zipstrata import coxeter, zipdatum

    def refuse(group):
        raise AssertionError("the whole group was enumerated")

    monkeypatch.setattr(coxeter, "_all_elements", refuse)
    for cached in (zipdatum.stratum_poset, coxeter._min_coset_reps, coxeter._lower_interval):
        cached.cache_clear()
    z = zip_from_cocharacter(create_weyl("A", 7), range(1, 7), gl_center=True)
    assert len(stratum_poset(z).carrier) == 8
    assert purity_check(z).passed
    for family, labels in (("B", 64), ("D", 32)):
        p = stratum_poset(zip_from_cocharacter(create_weyl(family, 6), range(1, 6)))
        assert len(p.carrier) == labels
        assert p.order_complete


@pytest.mark.parametrize("family,rank", SMALL_GROUPS)
def test_purity_from_the_poset_covers_matches_the_replayed_check(family, rank):
    for z in _all_cocharacter_data(family, rank):
        assert purity_check(z) == purity_check_poset(stratum_poset(z))


def test_twisted_order_on_projective_plane_datum_is_a_chain():
    W = create_weyl("A", 2)
    z = build_zip(W, {1}, {2})
    p = stratum_poset(z)
    assert [word_string(w) for w in p.carrier] == ["e", "s2", "s2*s1"]
    assert p.leq == (
        (True, True, True),
        (False, True, True),
        (False, False, True),
    )
    assert p.covers == ((0, 1), (1, 2))


def test_twisted_order_rejects_labels_with_left_descents_in_i():
    W = create_weyl("A", 2)
    z = build_zip(W, {1}, {2})
    s1 = W.simple_reflection(1)
    with pytest.raises(ValueError):
        stratum_dimension(z, s1)


def test_twisted_order_rejects_elements_of_other_groups():
    z = build_zip(create_weyl("A", 2), {1}, {2})
    other = create_weyl("A", 3).identity()
    with pytest.raises(ValueError):
        stratum_dimension(z, other)


def test_poset_carrier_matches_minimal_coset_representatives():
    for family, rank, I in [("A", 3, {1}), ("B", 2, {2}), ("C", 3, {1, 3}), ("D", 3, {1})]:
        W = create_weyl(family, rank)
        z = zip_from_cocharacter(W, I)
        p = stratum_poset(z)
        assert p.carrier == min_coset_reps(W, I)
        assert len(p.carrier) == W.order // parabolic_order(W, I)


def test_poset_has_unique_bottom_and_top():
    for family, rank, I in [("A", 3, {2}), ("B", 3, {1, 2}), ("D", 4, {1, 3, 4})]:
        W = create_weyl(family, rank)
        z = zip_from_cocharacter(W, I)
        p = stratum_poset(z)
        bottom = [k for k in range(len(p.carrier)) if all(not p.leq[i][k] for i in range(len(p.carrier)) if i != k)]
        top = [k for k in range(len(p.carrier)) if all(not p.leq[k][j] for j in range(len(p.carrier)) if j != k)]
        assert bottom == [0] and p.carrier[0].is_identity
        assert len(top) == 1
        assert p.length_of[top[0]] == max(p.length_of)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_two_by_two_matrix_group_stratum_dimensions():
    W = create_weyl("A", 1)
    z = build_zip(W, set(), set(), gl_center=True)
    p = stratum_poset(z)
    assert dim_parabolic(z) == 3
    assert p.dim_of == (3, 4)


def test_dimension_spread_equals_longest_length_for_borel_datum():
    for family, rank in [("A", 3), ("B", 2), ("C", 3), ("D", 4)]:
        W = create_weyl(family, rank)
        z = build_zip(W, set(), set())
        p = stratum_poset(z)
        assert max(p.dim_of) - min(p.dim_of) == longest_element(W).length


def test_stratum_dimension_agrees_with_poset_entries():
    W = create_weyl("B", 3)
    z = zip_from_cocharacter(W, {1, 3})
    p = stratum_poset(z)
    for k, w in enumerate(p.carrier):
        assert stratum_dimension(z, w) == p.dim_of[k]


def test_top_stratum_dimension_is_the_full_group_dimension():
    # open stratum: dim P + l(longest rep) = dim G for a cocharacter datum
    for family, rank, I in [("A", 3, {1}), ("B", 3, {2, 3}), ("D", 4, {1, 2})]:
        W = create_weyl(family, rank)
        z = zip_from_cocharacter(W, I)
        p = stratum_poset(z)
        dim_g = W.rank + 2 * W.positive_root_count
        assert max(p.dim_of) == dim_g


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------


def test_purity_holds_across_small_cocharacter_data():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("D", 3)]:
        W = create_weyl(family, rank)
        subsets = [
            frozenset(s)
            for mask in range(1 << rank)
            for s in [[i + 1 for i in range(rank) if mask >> i & 1]]
        ]
        for I in subsets:
            z = zip_from_cocharacter(W, I)
            report = purity_check(z)
            assert report.passed, (family, rank, sorted(I), report.violations[:3])
            assert report.strata_checked == len(stratum_poset(z).carrier)


def test_purity_detects_a_corrupted_cover_file():
    W = create_weyl("A", 2)
    z = build_zip(W, {1}, {2})
    text = export_poset(stratum_poset(z), "json")
    obj = json.loads(text)
    obj["covers"] = [[0, 2]]
    corrupted = import_poset(json.dumps(obj))
    report = purity_check_poset(corrupted)
    assert not report.passed
    assert report.violations[0].length - report.violations[0].boundary_length == 2


def _maximal_boundary_loop(poset):
    """Purity by scanning each boundary for the strata below no other boundary stratum."""
    lengths, leq = poset.length_of, poset.leq
    words = [w.reduced_word() for w in poset.carrier]
    n = len(lengths)
    violations = []
    for j in range(n):
        boundary = [i for i in range(n) if leq[i][j] and i != j]
        for i in boundary:
            if any(leq[i][k] for k in boundary if k != i):
                continue
            if lengths[j] - lengths[i] != 1:
                violations.append(
                    PurityViolation(words[j], words[i], lengths[j], lengths[i])
                )
    return PurityReport(not violations, tuple(violations), n)


def _replayed(z, covers):
    obj = json.loads(export_poset(stratum_poset(z), "json"))
    obj["covers"] = covers
    return import_poset(json.dumps(obj))


@pytest.mark.parametrize("family,rank", SMALL_GROUPS)
def test_purity_matches_the_maximal_boundary_loop_on_every_small_datum(family, rank):
    for z in _all_cocharacter_data(family, rank):
        poset = stratum_poset(z)
        assert purity_check_poset(poset) == _maximal_boundary_loop(poset)


def test_purity_ignores_a_redundant_transitive_cover_in_a_replayed_file():
    z = zip_from_cocharacter(create_weyl("A", 3), ())
    poset = stratum_poset(z)
    top = len(poset.carrier) - 1
    replayed = _replayed(z, [list(c) for c in poset.covers] + [[0, top]])
    assert replayed.leq == poset.leq
    report = purity_check_poset(replayed)
    assert report == _maximal_boundary_loop(replayed)
    assert report.passed


def test_purity_violations_are_listed_by_stratum_then_boundary_stratum():
    # S_3 by length: e, s1, s2, s1*s2, s2*s1, w0; each cover skips a length
    z = build_zip(create_weyl("A", 2), set(), set())
    acyclic = _replayed(z, [[0, 4], [0, 3], [2, 5], [1, 5]])
    report = purity_check_poset(acyclic)
    assert report == _maximal_boundary_loop(acyclic)
    assert [(v.stratum, v.boundary_stratum) for v in report.violations] == [
        ((1, 2), ()),
        ((2, 1), ()),
        ((1, 2, 1), (1,)),
        ((1, 2, 1), (2,)),
    ]
    # with the cycle s1 <-> s2 each is the other's maximal boundary stratum,
    # and neither is maximal in the boundary of w0
    cyclic = _replayed(z, [[0, 4], [0, 3], [2, 5], [1, 5], [1, 2], [2, 1]])
    report = purity_check_poset(cyclic)
    assert report == _maximal_boundary_loop(cyclic)
    assert [(v.stratum, v.boundary_stratum) for v in report.violations] == [
        ((1,), (2,)),
        ((2,), (1,)),
        ((1, 2), ()),
        ((2, 1), ()),
    ]


def test_order_checks_survive_python_minus_o():
    script = textwrap.dedent(
        """
        from zipstrata import zipdatum
        from zipstrata.coxeter import create_weyl
        assert False, "asserts must be off"
        # Bruhat order on e, s1, s2, s1*s2, s2*s1, w0 as bit rows
        bruhat = [0b111111, 0b111010, 0b111100, 0b101000, 0b110000, 0b100000]
        cases = [
            # every label below every other: reflexive, but not antisymmetric
            lambda z, carrier: [(1 << len(carrier)) - 1] * len(carrier),
            # e below s1 and s2 but not below w0
            lambda z, carrier: [bruhat[0] ^ 0b100000] + bruhat[1:],
            # s1 below s2, which has the same length
            lambda z, carrier: [bruhat[0], bruhat[1] | 0b100] + bruhat[2:],
        ]
        for rows in cases:
            zipdatum._twisted_rows = rows
            try:
                zipdatum.stratum_poset(zipdatum.zip_from_cocharacter(create_weyl("A", 2), ()))
            except zipdatum.InvariantError as exc:
                print("InvariantError:", exc)
        """
    )
    src = str(Path(zipstrata.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "InvariantError: order must be antisymmetric",
        "InvariantError: order must be transitive",
        "InvariantError: order must refine length",
    ]


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def test_json_export_is_byte_deterministic_and_round_trips():
    W = create_weyl("B", 2)
    z = zip_from_cocharacter(W, {2})
    p = stratum_poset(z)
    first = export_poset(p, "json")
    second = export_poset(p, "json")
    assert first == second
    assert first.endswith("\n")
    back = import_poset(first)
    assert back == p
    assert export_poset(back, "json") == first


def test_dot_export_lists_every_stratum_with_length_and_dimension():
    W = create_weyl("A", 2)
    z = build_zip(W, {1}, {2})
    dot = export_poset(stratum_poset(z), "dot")
    assert dot == export_poset(stratum_poset(z), "dot")
    assert 'n0 [label="e | 0 | 6"];' in dot
    assert 'n1 [label="s2 | 1 | 7"];' in dot
    assert 'n2 [label="s2*s1 | 2 | 8"];' in dot
    assert "n0 -> n1;" in dot and "n1 -> n2;" in dot
    assert dot.startswith("digraph strata {")


def test_unknown_export_format_is_rejected():
    W = create_weyl("A", 2)
    z = build_zip(W, {1}, {2})
    with pytest.raises(ValueError):
        export_poset(stratum_poset(z), "yaml")


# ---------------------------------------------------------------------------
# the large polarised surface example
# ---------------------------------------------------------------------------


def test_large_hodge_shape_carrier_has_462_strata_with_order_omitted():
    W = create_weyl("A", 21)
    z = zip_from_cocharacter(W, set(range(2, 21)), gl_center=True)
    assert z.J == z.I
    p = stratum_poset(z)
    assert len(p.carrier) == 462
    assert not p.order_complete
    assert p.leq is None and p.covers == ()
    assert dim_parabolic(z) == 443
    assert min(p.dim_of) == 443 and max(p.dim_of) == 484
    assert max(p.length_of) == 41
    text = export_poset(p, "json")
    assert '"order":"omitted:levi-too-large"' in text
    assert json.loads(text)["covers"] == []
    dot = export_poset(p, "dot")
    assert "->" not in dot
    with pytest.raises(ValueError):
        purity_check(z)


def _export_payload(family, rank, I):
    z = zip_from_cocharacter(create_weyl(family, rank), I)
    return json.loads(export_poset(stratum_poset(z), "json"))


def _rejected(payload, match):
    with pytest.raises(ValueError, match=match):
        import_poset(json.dumps(payload))


def test_import_rejects_cover_indices_outside_the_strata():
    payload = _export_payload("A", 2, (1,))
    n = len(payload["strata"])
    for bad in ([0, n], [0, 99], [-1, 0], [1, -3]):
        broken = json.loads(json.dumps(payload))
        broken["covers"].append(bad)
        _rejected(broken, "names a stratum outside")


def test_import_rejects_lengths_and_dimensions_that_disagree_with_the_word():
    payload = _export_payload("B", 2, (2,))
    for key, shift in (("length", 1), ("length", -1), ("dim", 1), ("dim", -2)):
        broken = json.loads(json.dumps(payload))
        broken["strata"][-1][key] += shift
        _rejected(broken, "its word gives")


def test_import_rejects_a_repeated_stratum():
    payload = _export_payload("A", 2, ())
    broken = json.loads(json.dumps(payload))
    broken["strata"][2] = dict(broken["strata"][1])
    _rejected(broken, "listed twice")
    # another reduced word of the top element: s1*s2*s1 = s2*s1*s2
    broken = json.loads(json.dumps(payload))
    assert broken["strata"][-1]["word"] == [1, 2, 1]
    broken["strata"].append(dict(broken["strata"][-1], word=[2, 1, 2]))
    _rejected(broken, "listed twice")


def test_import_rejects_words_that_are_not_minimal_coset_representatives():
    # I = {1} in A2: s1 has a left descent in I
    payload = _export_payload("A", 2, (1,))
    broken = json.loads(json.dumps(payload))
    broken["strata"][1] = {"word": [1], "length": 1, "dim": broken["strata"][1]["dim"]}
    _rejected(broken, "not a minimal coset representative")


def test_import_rejects_missing_fields_and_misshapen_entries():
    payload = _export_payload("A", 2, (1,))
    edits = [
        lambda p: p["strata"][0].pop("word"),
        lambda p: p.pop("covers"),
        lambda p: p["group"].pop("rank"),
        lambda p: p["covers"].append(5),
        lambda p: p["strata"].append(None),
    ]
    for edit in edits:
        broken = json.loads(json.dumps(payload))
        edit(broken)
        _rejected(broken, "malformed poset file")


def test_import_of_omitted_order_round_trips():
    W = create_weyl("A", 21)
    z = zip_from_cocharacter(W, set(range(2, 21)), gl_center=True)
    p = stratum_poset(z)
    text = export_poset(p, "json")
    back = import_poset(text)
    assert back == p
    assert export_poset(back, "json") == text
