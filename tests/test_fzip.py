"""Tests for filtered Frobenius data: builders, tensor/dual, classification."""

import json
import random

import pytest

from zipstrata.coxeter import create_weyl, min_coset_reps
from zipstrata.ffield import get_field, mat_inv, mat_mul
from zipstrata.fzip import (
    FZipConcrete,
    FZipType,
    ImKerMismatch,
    Undetermined,
    attached_group_element,
    classify,
    dieudonne_to_fzip,
    dual,
    enumerate_strata,
    fzip_from_group_element,
    fzip_from_json,
    fzip_to_json,
    fzip_type,
    standard_zip,
    tate_zip,
    tensor,
    type_to_parabolic,
)
from zipstrata.grouplab import gl_points, make_zip_datum, zip_group_points, zip_orbit_census

FF2 = get_field(2, 1)
FF3 = get_field(3, 1)
FF4 = get_field(2, 2)

TWO_LINES = FZipType.of({0: 1, 1: 1})

ORDINARY = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
SUPERSINGULAR = (((0, 1), (0, 0)), ((0, 1), (0, 0)))


# ---------------------------------------------------------------------------
# weight types
# ---------------------------------------------------------------------------


def test_type_of_accepts_mappings_and_pairs_and_drops_zeros():
    assert FZipType.of({3: 2, 0: 1, 5: 0}).entries == ((0, 1), (3, 2))
    assert FZipType.of([(1, 1), (1, 2)]).entries == ((1, 3),)
    assert FZipType.of({}).entries == ()


def test_type_constructor_rejects_bad_entry_tuples():
    with pytest.raises(ValueError):
        FZipType(((0, 0),))
    with pytest.raises(ValueError):
        FZipType(((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        FZipType.of({0: -1})


def test_type_rank_support_and_lookup():
    t = FZipType.of({0: 1, 1: 20, 2: 1})
    assert t.total_rank == 22
    assert t.support == (0, 1, 2)
    assert t.n_of == {0: 1, 1: 20, 2: 1}
    assert t.rank_at(1) == 20 and t.rank_at(7) == 0


def test_type_convolution_matches_polynomial_multiplication():
    t = TWO_LINES.convolve(TWO_LINES)
    assert t.entries == ((0, 1), (1, 2), (2, 1))
    assert t.total_rank == TWO_LINES.total_rank ** 2
    shift = FZipType.of({5: 1})
    assert TWO_LINES.convolve(shift).entries == ((5, 1), (6, 1))


def test_type_reflection_negates_the_support():
    t = FZipType.of({0: 1, 1: 2, 3: 1})
    assert t.reflect().entries == ((-3, 1), (-1, 2), (0, 1))
    assert t.reflect().reflect() == t


def test_type_to_parabolic_cuts_at_block_boundaries():
    assert type_to_parabolic(TWO_LINES) == (2, type_to_parabolic(TWO_LINES)[1])
    n, par = type_to_parabolic(TWO_LINES)
    assert (n, sorted(par)) == (2, [])
    n, par = type_to_parabolic(FZipType.of({0: 1, 1: 20, 2: 1}))
    assert (n, sorted(par)) == (22, list(range(2, 21)))
    n, par = type_to_parabolic(FZipType.of({0: 4}))
    assert (n, sorted(par)) == (4, [1, 2, 3])
    n, par = type_to_parabolic(FZipType.of({0: 1, 1: 2}))
    assert (n, sorted(par)) == (3, [2])
    with pytest.raises(ValueError):
        type_to_parabolic(FZipType.of({}))


def test_enumerate_strata_counts_for_small_patterns():
    assert len(enumerate_strata(TWO_LINES).carrier) == 2
    assert len(enumerate_strata(FZipType.of({0: 4})).carrier) == 1
    assert len(enumerate_strata(FZipType.of({0: 1, 1: 1, 2: 1})).carrier) == 6
    assert len(enumerate_strata(FZipType.of({i: 1 for i in range(4)})).carrier) == 24
    with pytest.raises(ValueError):
        enumerate_strata(FZipType.of({7: 1}))


def test_enumerate_strata_count_for_the_one_twenty_one_pattern():
    poset = enumerate_strata(FZipType.of({0: 1, 1: 20, 2: 1}))
    assert len(poset.carrier) == 462


# ---------------------------------------------------------------------------
# concrete data validation
# ---------------------------------------------------------------------------


def test_concrete_data_canonicalize_their_spans():
    ident = ((1, 0), (0, 1))
    messy = FZipConcrete(
        2, 2, 1, 2,
        C=((0, ((1, 1), (0, 1))), (1, ((1,), (1,)))),
        D=((0, ((1, 0), (1, 0))), (1, ((0, 1), (1, 1)))),
        phi=((0, ((1,),)), (1, ((1,),))),
    )
    assert messy.C == ((0, ident), (1, ((1,), (1,))))
    assert messy.D[0] == (0, ((1,), (1,)))
    assert messy.D[1] == (1, ident)


def test_concrete_data_reject_bad_field_shape_and_rank():
    one = ((0, ((1,),)),)
    with pytest.raises(ValueError):
        FZipConcrete(4, 4, 1, 1, one, one, one)
    with pytest.raises(ValueError):
        FZipConcrete(2, 3, 1, 1, one, one, one)
    with pytest.raises(ValueError):
        FZipConcrete(2, 2, 0, 1, one, one, one)
    with pytest.raises(ValueError):
        FZipConcrete(2, 2, 1, 0, (), (), ())


def test_concrete_data_reject_mismatched_filtration_patterns():
    ident = ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        FZipConcrete(
            2, 2, 1, 2,
            C=((0, ident), (1, ((1,), (0,)))),
            D=((0, ident),),
            phi=((0, ident),),
        )


def test_concrete_data_reject_unnested_or_repeated_spaces():
    ident3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        FZipConcrete(
            2, 2, 1, 3,
            C=((0, ident3), (1, ((1,), (0,), (0,))), (2, ((0,), (1,), (0,)))),
            D=((0, ((1,), (0,), (0,))), (1, ((1, 0), (0, 1), (0, 0))), (2, ident3)),
            phi=((0, ((1,),)), (1, ((1,),)), (2, ((1,),))),
        )
    with pytest.raises(ValueError):
        FZipConcrete(
            2, 2, 1, 2,
            C=((0, ((1, 0), (0, 1))), (1, ((1, 0), (0, 1)))),
            D=((0, ((1,), (0,))), (1, ((1, 0), (0, 1)))),
            phi=((0, ((1,),)), (1, ((1,),))),
        )


def test_concrete_data_reject_bad_glue():
    ident = ((1, 0), (0, 1))
    spaces = dict(
        C=((0, ident), (1, ((0,), (1,)))),
        D=((0, ((1,), (0,))), (1, ident)),
    )
    with pytest.raises(ValueError):
        FZipConcrete(2, 2, 1, 2, phi=((0, ((0,),)), (1, ((1,),))), **spaces)
    with pytest.raises(ValueError):
        FZipConcrete(2, 2, 1, 2, phi=((0, ident), (1, ((1,),))), **spaces)
    with pytest.raises(ValueError):
        FZipConcrete(2, 2, 1, 2, phi=((0, ((1,),)), (2, ((1,),))), **spaces)
    with pytest.raises(ValueError):
        FZipConcrete(2, 2, 1, 2, phi=((0, ((5,),)), (1, ((1,),))), **spaces)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_weighted_lines_form_a_group_under_tensor_with_duality_negating():
    assert tensor(tate_zip(0), tate_zip(0)) == tate_zip(0)
    assert tensor(tate_zip(2), tate_zip(5)) == tate_zip(7)
    assert dual(tate_zip(3)) == tate_zip(-3)
    assert dual(tate_zip(0)) == tate_zip(0)
    a = tate_zip(2, 3, 9, 2)
    b = tate_zip(-2, 3, 9, 2)
    assert tensor(a, b) == tate_zip(0, 3, 9, 2)
    with pytest.raises(ValueError):
        tate_zip(0, 2, 3)


def test_attached_elements_of_the_rank_two_shapes_are_the_hand_anchors():
    assert attached_group_element(dieudonne_to_fzip(*ORDINARY)) == ((1, 0), (0, 1))
    assert attached_group_element(dieudonne_to_fzip(*SUPERSINGULAR)) == (
        (0, 1),
        (1, 0),
    )


def test_group_element_builder_validates_its_input():
    with pytest.raises(ValueError):
        fzip_from_group_element(TWO_LINES, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        fzip_from_group_element(TWO_LINES, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        fzip_from_group_element(TWO_LINES, ((1, 5), (0, 1)))


def test_standard_zip_rejects_non_minimal_labels_and_wrong_groups():
    group = create_weyl("A", 2)
    t = FZipType.of({0: 1, 1: 2})
    s2 = group.simple_reflection(2)
    with pytest.raises(ValueError):
        standard_zip(t, s2)
    wrong = create_weyl("A", 1).simple_reflection(1)
    with pytest.raises(ValueError):
        standard_zip(t, wrong)


def test_standard_zips_classify_to_their_own_label_at_level_one():
    for pattern in ({0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 2}):
        t = FZipType.of(pattern)
        n, par = type_to_parabolic(t)
        datum = make_zip_datum(n, FF2, par)
        for w in min_coset_reps(datum.weyl, datum.I):
            label = classify(standard_zip(t, w))
            assert label.w == w
            assert label.certificate.ext == 1


# ---------------------------------------------------------------------------
# operator pairs
# ---------------------------------------------------------------------------


def test_ordinary_and_supersingular_pairs_land_in_the_two_strata():
    ordinary = classify(dieudonne_to_fzip(*ORDINARY))
    ss = classify(dieudonne_to_fzip(*SUPERSINGULAR))
    assert ordinary.w.reduced_word() == (1,)
    assert ss.w.reduced_word() == ()
    assert ordinary.certificate.ext == 1 and ss.certificate.ext == 1
    poset = enumerate_strata(TWO_LINES)
    assert poset.leq_elements(ss.w, ordinary.w)
    assert not poset.leq_elements(ordinary.w, ss.w)


def test_etale_and_multiplicative_extremes_are_single_block_data():
    etale = dieudonne_to_fzip(((1, 0), (0, 1)), ((0, 0), (0, 0)))
    mult = dieudonne_to_fzip(((0, 0), (0, 0)), ((1, 0), (0, 1)))
    assert fzip_type(etale).entries == ((0, 2),)
    assert fzip_type(mult).entries == ((1, 2),)
    for z in (etale, mult):
        label = classify(z)
        assert label.w.reduced_word() == ()
        assert len(enumerate_strata(fzip_type(z)).carrier) == 1


def test_operator_pairs_reject_exactness_failures_by_name():
    with pytest.raises(ImKerMismatch, match="image of V"):
        dieudonne_to_fzip(((0, 0), (0, 0)), ((1, 0), (0, 0)))
    with pytest.raises(ImKerMismatch, match="image of V"):
        dieudonne_to_fzip(((1, 0), (0, 1)), ((1, 0), (0, 1)))
    with pytest.raises(ImKerMismatch, match="image of F"):
        dieudonne_to_fzip(((1, 0), (0, 0)), ((0, 0), (1, 0)))


def test_operator_pairs_work_over_extension_fields():
    gen = FF4.generator
    ss4 = dieudonne_to_fzip(((0, 1), (0, 0)), ((0, 1), (0, 0)), FF4)
    assert (ss4.p, ss4.q, ss4.ext_deg) == (2, 2, 2)
    label = classify(ss4, max_ext=4)
    assert label.w.reduced_word() == () and label.certificate.ext == 2
    ord4 = dieudonne_to_fzip(((1, 0), (0, 0)), ((0, 0), (0, gen)), FF4)
    label = classify(ord4, max_ext=4)
    assert label.w.reduced_word() == (1,) and label.certificate.ext == 2
    twisted = dieudonne_to_fzip(((0, gen), (0, 0)), ((0, 1), (0, 0)), FF4)
    with pytest.raises(Undetermined):
        classify(twisted, max_ext=4)


def test_labels_survive_a_hundred_random_orbit_translations():
    datum = make_zip_datum(2, FF2, ())
    pairs = zip_group_points(datum, 1)
    rng = random.Random(20260814)
    for shape in (ORDINARY, SUPERSINGULAR):
        z = dieudonne_to_fzip(*shape)
        base = classify(z).w
        g = attached_group_element(z)
        for _ in range(100):
            left, right = rng.choice(pairs)
            g = mat_mul(FF2, mat_mul(FF2, left, g), mat_inv(FF2, right))
            assert classify(fzip_from_group_element(TWO_LINES, g)).w == base


# ---------------------------------------------------------------------------
# tensor and dual
# ---------------------------------------------------------------------------


def test_tensor_with_a_weight_zero_line_is_the_identity_exactly():
    for shape in (ORDINARY, SUPERSINGULAR):
        z = dieudonne_to_fzip(*shape)
        assert tensor(z, tate_zip(0)) == z
        assert tensor(tate_zip(0), z) == z


def test_tensor_convolves_types_and_multiplies_ranks():
    prod = tensor(dieudonne_to_fzip(*ORDINARY), dieudonne_to_fzip(*SUPERSINGULAR))
    assert prod.n == 4
    assert fzip_type(prod).entries == ((0, 1), (1, 2), (2, 1))
    assert fzip_type(prod) == TWO_LINES.convolve(TWO_LINES)


def test_tensor_by_a_weighted_line_shifts_weights_but_not_the_label():
    for shape in (ORDINARY, SUPERSINGULAR):
        z = dieudonne_to_fzip(*shape)
        shifted = tensor(z, tate_zip(3))
        assert fzip_type(shifted).entries == ((3, 1), (4, 1))
        assert classify(shifted).w == classify(z).w


def test_tensor_rejects_mismatched_fields():
    with pytest.raises(ValueError):
        tensor(tate_zip(0, 2), tate_zip(0, 3))
    with pytest.raises(ValueError):
        tensor(tate_zip(0, 2, 2, 1), tate_zip(0, 2, 2, 2))


def test_dual_reflects_types_and_is_an_exact_involution():
    for shape in (ORDINARY, SUPERSINGULAR):
        z = dieudonne_to_fzip(*shape)
        dz = dual(z)
        assert fzip_type(dz) == fzip_type(z).reflect()
        assert dual(dz) == z
    prod = tensor(dieudonne_to_fzip(*ORDINARY), dieudonne_to_fzip(*SUPERSINGULAR))
    assert dual(dual(prod)) == prod


def test_dual_preserves_the_stratum_of_the_rank_two_shapes():
    assert classify(dual(dieudonne_to_fzip(*ORDINARY))).w.reduced_word() == (1,)
    assert classify(dual(dieudonne_to_fzip(*SUPERSINGULAR))).w.reduced_word() == ()


# ---------------------------------------------------------------------------
# classification sweeps
# ---------------------------------------------------------------------------


def test_exhaustive_rank_two_classification_over_f2_matches_the_census():
    buckets = {}
    for g in gl_points(2, FF2):
        label = classify(fzip_from_group_element(TWO_LINES, g))
        key = (label.w.reduced_word(), label.certificate.ext)
        buckets[key] = buckets.get(key, 0) + 1
    assert buckets == {((), 1): 2, ((1,), 1): 4}


def test_exhaustive_rank_two_classification_over_f3_has_an_honest_tail():
    buckets = {}
    undetermined = []
    for g in gl_points(2, FF3):
        z = fzip_from_group_element(TWO_LINES, g, p=3, q=3)
        try:
            label = classify(z, max_ext=3)
        except Undetermined:
            undetermined.append(g)
            continue
        key = (label.w.reduced_word(), label.certificate.ext)
        buckets[key] = buckets.get(key, 0) + 1
    assert buckets == {((), 1): 6, ((1,), 1): 9, ((1,), 2): 27}
    assert len(undetermined) == 6
    # the holdouts generate non-split tori; their obstruction dies at level 4
    assert ((0, 1), (2, 0)) in undetermined
    label = classify(
        fzip_from_group_element(TWO_LINES, ((0, 1), (2, 0)), p=3, q=3), max_ext=4
    )
    assert label.w.reduced_word() == () and label.certificate.ext == 4


def test_rank_three_census_representatives_classify_with_one_holdout():
    t = FZipType.of({0: 1, 1: 2})
    census = zip_orbit_census(make_zip_datum(3, FF2, (2,)), 1)
    assert census.sizes() == (16, 24, 32, 48, 48)
    outcomes = []
    for record in census.orbits:
        z = fzip_from_group_element(t, record.rep)
        try:
            label = classify(z, max_ext=2)
            outcomes.append((record.size, label.w.reduced_word(), label.certificate.ext))
        except Undetermined:
            outcomes.append((record.size, None, None))
    assert outcomes == [
        (16, (1, 2), 1),
        (24, (), 1),
        (32, None, None),
        (48, (1,), 1),
        (48, (1, 2), 2),
    ]


def test_extension_base_data_classify_at_multiples_of_their_degree():
    census = zip_orbit_census(make_zip_datum(2, FF2, ()), 2)
    assert census.sizes() == (12, 12, 12, 144)
    outcomes = []
    for record in census.orbits:
        z = fzip_from_group_element(TWO_LINES, record.rep, p=2, q=2, ext_deg=2)
        assert z.field is FF4
        try:
            label = classify(z, max_ext=4)
            assert label.certificate.ext % 2 == 0
            outcomes.append((record.size, label.w.reduced_word(), label.certificate.ext))
        except Undetermined:
            outcomes.append((record.size, None, None))
    assert outcomes == [
        (12, (), 2),
        (12, None, None),
        (12, None, None),
        (144, (1,), 2),
    ]


def test_classify_rejects_rank_one_data():
    with pytest.raises(ValueError):
        classify(tate_zip(0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_is_exact_and_deterministic():
    samples = [
        tate_zip(5),
        dieudonne_to_fzip(*ORDINARY),
        dieudonne_to_fzip(*SUPERSINGULAR),
        dual(dieudonne_to_fzip(*ORDINARY)),
        tensor(dieudonne_to_fzip(*ORDINARY), dieudonne_to_fzip(*SUPERSINGULAR)),
        dieudonne_to_fzip(((0, 1), (0, 0)), ((0, 1), (0, 0)), FF4),
    ]
    for z in samples:
        text = fzip_to_json(z)
        assert fzip_from_json(text) == z
        assert fzip_to_json(fzip_from_json(text)) == text
        assert text.endswith("\n")


def test_json_import_rejects_malformed_documents():
    good = fzip_to_json(dieudonne_to_fzip(*ORDINARY))
    with pytest.raises(ValueError):
        fzip_from_json("not json")
    with pytest.raises(ValueError):
        fzip_from_json("[1,2]")
    with pytest.raises(ValueError):
        fzip_from_json(good.replace('"p":2', '"p":6'))
    with pytest.raises(ValueError):
        fzip_from_json(good.replace('"frob_exp":1', '"frob_exp":2'))
    with pytest.raises(ValueError):
        fzip_from_json(good.replace('"q":2', '"q":3'))


@pytest.mark.parametrize(
    "side,spoil",
    [
        ("C", lambda item: item["cols"][0].pop()),
        ("D", lambda item: item["cols"][0].pop()),
        ("C", lambda item: item.pop("cols")),
        ("D", lambda item: item.pop("i")),
        ("phi", lambda item: item.pop("i")),
    ],
    ids=["short-C-column", "short-D-column", "no-C-cols", "no-D-i", "no-phi-i"],
)
def test_json_import_reports_short_columns_and_missing_keys_as_value_errors(side, spoil):
    doc = json.loads(fzip_to_json(dieudonne_to_fzip(*ORDINARY)))
    spoil(doc[side][-1])
    with pytest.raises(ValueError):
        fzip_from_json(json.dumps(doc))
