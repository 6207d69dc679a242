"""Tests for truncated Witt rings and the higher-level display action."""

import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

import zipstrata
from zipstrata import witt
from zipstrata.ffield import get_field, is_prime, mat_inv, mat_mul, smallest_irreducible
from zipstrata.grouplab import TooLarge, gl_points, make_zip_datum
from zipstrata.witt import (
    DisplayGroupElement,
    GaloisRing,
    GaloisRingElement,
    NotInGroup,
    SingularZ,
    check_reduction,
    _code,
    _code_add,
    _display_generators,
    _display_moves,
    _elements_by_code,
    display_action,
    display_group_order,
    display_group_points,
    display_orbit_partition,
    frobenius,
    frobenius_inv,
    identity_display,
    iota,
    make_ring,
    orbit_census_level,
    residue_matrix,
    ring_matrix,
    rmat_identity,
    rmat_inv,
    rmat_is_invertible,
    rmat_mul,
    sigma_mu,
    verschiebung,
)

from oracles import newton_inverse, newton_rmat_inv, zip_group_points

Z4 = make_ring(2, 1, 2)
GR16 = make_ring(2, 2, 2)
GR81 = make_ring(3, 2, 2)


def scalar_display(ring, a, b, c, d):
    blocks = [((ring.from_int(v),),) for v in (a, b, c, d)]
    return DisplayGroupElement(ring, 2, 1, *blocks)


# ---------------------------------------------------------------------------
# ring construction
# ---------------------------------------------------------------------------


def test_level_two_base_ring_is_the_integers_mod_four():
    assert (Z4.size, Z4.char, Z4.d, Z4.modulus) == (4, 4, 1, (0, 1))
    assert len(list(Z4.elements())) == 4
    assert (Z4.from_int(2) + Z4.from_int(2)).coeffs == (0,)
    assert (Z4.from_int(3) * Z4.from_int(3)).coeffs == (1,)
    assert Z4.element((5,)).coeffs == (1,)
    assert Z4.from_int(3) ** -1 == Z4.from_int(3)


def test_level_one_base_ring_is_the_prime_field():
    r = make_ring(2, 1, 1)
    assert r.size == 2 and r.char == 2
    assert sorted(e.coeffs for e in r.elements()) == [(0,), (1,)]


def test_quadratic_residue_ring_at_level_two_has_eighty_one_elements():
    assert GR81.size == 81
    assert GR81.modulus == (1, 0, 1)
    assert GR81.residue_field.order == 9
    assert sum(1 for _ in GR81.elements()) == 81


def test_cubic_modulus_lift_differs_from_its_literal_reduction():
    ring = make_ring(2, 3, 2)
    assert ring.modulus == (3, 1, 2, 1)
    assert tuple(v % 2 for v in ring.modulus) == smallest_irreducible(2, 3)
    gen = ring.element((0, 1, 0))
    assert gen ** (2**3) == gen


def test_make_ring_validates_its_parameters():
    with pytest.raises(ValueError, match="not prime"):
        make_ring(4, 1, 2)
    with pytest.raises(ValueError, match="positive"):
        make_ring(2, 0, 2)
    with pytest.raises(ValueError, match="positive"):
        make_ring(2, 1, 0)


def test_ring_constructor_validates_the_modulus():
    with pytest.raises(ValueError, match="not prime"):
        GaloisRing(4, 1, 2, (0, 1))
    with pytest.raises(ValueError, match="irreducible"):
        GaloisRing(2, 2, 1, (0, 0, 1))
    with pytest.raises(ValueError, match="monic of degree d"):
        GaloisRing(2, 1, 2, (0, 0, 1))
    with pytest.raises(ValueError, match="reduced modulo"):
        GaloisRing(2, 2, 2, (5, 1, 1))
    with pytest.raises(ValueError, match="Teichmueller"):
        GaloisRing(2, 3, 2, (1, 1, 0, 1))


def test_value_equal_rings_interoperate_with_the_cached_one():
    direct = GaloisRing(2, 1, 2, (0, 1))
    assert direct == Z4 and direct is not Z4
    assert (direct.from_int(3) * Z4.from_int(3)).coeffs == (1,)
    assert make_ring(2, 1, 2) is Z4


def test_units_are_exactly_the_elements_with_unit_residue():
    units = [e for e in GR16.elements() if e.is_unit]
    assert len(units) == 12
    for e in GR16.elements():
        assert e.is_unit == (e.residue() != 0)
    with pytest.raises(ZeroDivisionError):
        GR16.element((2, 2)).inverse()


def test_inverse_lifts_the_residue_field_inverse_exactly():
    for ring in (GR16, GR81):
        for e in ring.units():
            assert e * e.inverse() == ring.one


def test_residue_map_is_a_ring_homomorphism_onto_the_field_encoding():
    ff = get_field(2, 2)
    els = list(GR16.elements())
    for a in els:
        for b in els:
            assert (a * b).residue() == ff.mul(a.residue(), b.residue())
            assert (a + b).residue() == ff.add(a.residue(), b.residue())


def test_element_coefficients_are_validated():
    with pytest.raises(ValueError, match="too many"):
        Z4.element((1, 2))
    with pytest.raises(ValueError, match="length d"):
        GaloisRingElement(GR16, (1,))


def test_coefficients_and_moduli_must_be_integers():
    z8 = make_ring(2, 1, 3)
    for bad in (2.7, "7", 2.0):
        with pytest.raises(TypeError):
            GaloisRingElement(z8, (bad,))
        with pytest.raises(TypeError):
            GaloisRingElement(GR16, (1, bad))
        with pytest.raises(TypeError):
            GaloisRing(2, 1, 2, (bad, 1))
        with pytest.raises(TypeError):
            GaloisRing(2, 2, 2, (1, 1, bad))
    # integer types, bool among them, keep working
    assert GaloisRingElement(z8, (True,)) == z8.one
    assert GaloisRing(2, 1, 2, (False, True)) == Z4


def test_elements_are_immutable_and_hash_by_ring_and_coefficients():
    x = GR16.element((1, 3))
    with pytest.raises(AttributeError):
        x.coeffs = (0, 0)
    with pytest.raises(AttributeError):
        x.ring = Z4
    with pytest.raises(AttributeError):
        del x.coeffs
    assert x.coeffs == (1, 3) and x.ring is GR16
    assert hash(x) == hash((x.ring, x.coeffs))
    assert hash(GR16) == hash((GR16.p, GR16.d, GR16.m, GR16.modulus))
    with pytest.raises(ValueError, match="length d"):
        GaloisRingElement(GR16, (1, 2, 3))
    assert GaloisRingElement(GR16, [5, -1]).coeffs == (1, 3)
    GR16.zero, GR16.one  # cached on the ring, so pickling the ring pickles elements of it
    assert pickle.loads(pickle.dumps(x)) == x and copy.copy(x) == x


def test_elements_of_equal_rings_are_equal_and_of_other_rings_unequal():
    twin = GaloisRing(GR16.p, GR16.d, GR16.m, GR16.modulus)
    assert twin is not GR16 and twin == GR16 and hash(twin) == hash(GR16)
    for coeffs in ((0, 0), (1, 0), (2, 3)):
        x, y = GR16.element(coeffs), twin.element(coeffs)
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
    assert Z4.from_int(1) != make_ring(2, 1, 3).from_int(1)
    assert Z4.from_int(1) != make_ring(3, 1, 1).from_int(1)
    assert GR16.one != GR16.element((0, 1))
    for x in (Z4.zero, Z4.one, GR16.zero):
        assert (x == 0) is False and (x != 0) is True
        assert (x == x.coeffs) is False


# ---------------------------------------------------------------------------
# the Z/p**m path against the generic formulas
# ---------------------------------------------------------------------------

INTEGER_RINGS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)] + [(p, 1) for p in (2, 3, 5, 7, 31, 101)]


def _integer_ring_id(pm):
    return f"Z/{pm[0]}^{pm[1]}"


@pytest.mark.parametrize("pm", INTEGER_RINGS, ids=_integer_ring_id)
def test_degree_one_elements_act_as_their_generic_formulas(pm):
    p, m = pm
    ring = make_ring(p, 1, m)
    q = ring.char
    v_table = tuple(zip(*witt._frobenius_tables(ring)[2]))
    for v in range(-2 * q, 2 * q + 3):
        x = GaloisRingElement(ring, (v,))
        assert x.coeffs == (v % q,) and x == ring.from_int(v)
    els = list(ring.elements())
    assert len(els) == q
    for a in els:
        (c,) = a.coeffs
        assert (-a).coeffs == ((-c) % q,)
        assert verschiebung(a).coeffs == witt._apply_table(v_table, a.coeffs, q)
        assert frobenius(a) == frobenius_inv(a) == a
        for k in (-q - 1, -3, -1, 0, 1, 2, q, q + 1, 3 * q + 2):
            assert (a * k).coeffs == (k * a).coeffs == ((c * k) % q,)
        if a.is_unit:
            assert a.inverse().coeffs == newton_inverse(ring, a.coeffs)
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        for b in els:
            assert (a + b).coeffs == tuple((u + w) % q for u, w in zip(a.coeffs, b.coeffs))
            assert (a - b).coeffs == tuple((u - w) % q for u, w in zip(a.coeffs, b.coeffs))
            assert (a * b).coeffs == witt._coeff_mul(a.coeffs, b.coeffs, ring.modulus, q)
    units = [a for a in els if a.is_unit]
    assert len(units) == q - q // p


def test_degree_one_results_are_ordinary_elements():
    z9 = make_ring(3, 1, 2)
    twin = GaloisRing(3, 1, 2, (0, 1))
    x, y = z9.from_int(4), twin.from_int(7)
    results = [x + y, x - y, -x, x * y, x * 5, 5 * x, verschiebung(x), x.inverse(), x**-2]
    for r in results:
        assert type(r) is GaloisRingElement and r.ring is z9
        assert type(r.coeffs) is tuple and len(r.coeffs) == 1 and type(r.coeffs[0]) is int
        assert r == GaloisRingElement(twin, r.coeffs) and hash(r) == hash(GaloisRingElement(twin, r.coeffs))
    assert [r.coeffs[0] for r in results] == [2, 6, 5, 1, 2, 2, 3, 7, 4]
    with pytest.raises(ValueError, match="different rings"):
        x + make_ring(3, 1, 3).one
    with pytest.raises(ValueError, match="different rings"):
        x * Z4.one


# ---------------------------------------------------------------------------
# Frobenius and Verschiebung
# ---------------------------------------------------------------------------


def test_frobenius_is_trivial_at_degree_one_and_verschiebung_scales_by_p():
    for e in Z4.elements():
        assert frobenius(e) == e
    assert verschiebung(Z4.one).coeffs == (2,)
    els = list(Z4.elements())
    for a in els:
        for b in els:
            assert verschiebung(a + b) == verschiebung(a) + verschiebung(b)


def test_frobenius_squares_to_the_identity_on_the_sixteen_element_ring():
    gen = GR16.element((0, 1))
    assert frobenius(gen) != gen
    for e in GR16.elements():
        assert frobenius(frobenius(e)) == e
    fixed = [e for e in GR16.elements() if frobenius(e) == e]
    assert sorted(f.coeffs for f in fixed) == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_frobenius_is_a_ring_automorphism():
    for ring in (GR16, GR81):
        els = list(ring.elements())
        for a in els:
            for b in els:
                assert frobenius(a * b) == frobenius(a) * frobenius(b)
                assert frobenius(a + b) == frobenius(a) + frobenius(b)


def test_frobenius_and_verschiebung_compose_to_multiplication_by_p():
    shapes = [
        (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 3, 2),
        (3, 1, 2), (3, 2, 2), (5, 1, 3), (7, 2, 1), (2, 5, 2), (13, 1, 2),
    ]
    for p, d, m in shapes:
        ring = make_ring(p, d, m)
        for e in ring.elements():
            assert frobenius(verschiebung(e)) == e * p
            assert verschiebung(frobenius(e)) == e * p
            assert frobenius(frobenius_inv(e)) == e
            assert frobenius_inv(frobenius(e)) == e
            s = e
            for _ in range(d):
                s = frobenius(s)
            assert s == e


def _rings_up_to(bound):
    """(p, d, m) of every Galois ring W_m(F_{p**d}) with at most bound elements."""
    for p in range(2, bound + 1):
        if not is_prime(p):
            continue
        md, size = 1, p
        while size <= bound:
            yield from ((p, d, md // d) for d in range(1, md + 1) if md % d == 0)
            md += 1
            size *= p


def test_verschiebung_table_equals_p_times_the_inverse_frobenius():
    rings = checked = 0
    for p, d, m in _rings_up_to(10_000):
        if d < 2:
            continue
        ring = make_ring(p, d, m)
        for e in ring.elements():
            assert verschiebung(e) == frobenius_inv(e) * p
            checked += 1
        rings += 1
    assert (rings, checked) == (70, 151_206)
    # at d = 1 sigma is the identity and V is multiplication by p
    assert witt._frobenius_tables(make_ring(7, 1, 2)) == (((1,),), ((1,),), ((7,),))


def test_verschiebung_applies_its_table_without_multiplying(monkeypatch):
    def refuse(*args):
        raise AssertionError("verschiebung must read its own table")

    monkeypatch.setattr(witt, "frobenius_inv", refuse)
    monkeypatch.setattr(GaloisRingElement, "__mul__", refuse)
    assert verschiebung(GR16.element((1, 1))) == GR16.element((0, 2))
    assert verschiebung(Z4.one) == Z4.from_int(2)
    assert verschiebung(make_ring(2, 3, 2).element((0, 1, 0))).coeffs == (0, 2, 2)


# ---------------------------------------------------------------------------
# matrix inverses
# ---------------------------------------------------------------------------


def test_elimination_inverse_equals_newton_on_every_invertible_matrix_over_z4():
    invertibles = [
        (flat[0:2], flat[2:4]) for flat in itertools.product(Z4.elements(), repeat=4)
    ]
    invertibles = [z for z in invertibles if rmat_is_invertible(Z4, z)]
    assert len(invertibles) == 96
    for z in invertibles:
        x = rmat_inv(Z4, z)
        assert x == newton_rmat_inv(Z4, z)
        assert rmat_mul(Z4, x, z) == rmat_identity(Z4, 2)


@pytest.mark.parametrize("pdm", [(2, 2, 2), (2, 1, 3), (3, 2, 2)], ids=["W_2(F_4)", "W_3(F_2)", "GR81"])
def test_elimination_inverse_equals_newton_on_drawn_three_by_three_matrices(pdm):
    ring = make_ring(*pdm)
    cells = list(ring.elements())
    rng = random.Random(43)
    checked = 0
    while checked < 40:
        z = tuple(tuple(rng.choice(cells) for _ in range(3)) for _ in range(3))
        if not rmat_is_invertible(ring, z):
            with pytest.raises(ValueError, match="singular modulo p"):
                rmat_inv(ring, z)
            continue
        x = rmat_inv(ring, z)
        assert x == newton_rmat_inv(ring, z)
        assert rmat_mul(ring, x, z) == rmat_identity(ring, 3)
        checked += 1


@pytest.mark.parametrize("ring", [Z4, GR16], ids=["Z/4", "W_2(F_4)"])
def test_invertibility_of_the_empty_and_of_ragged_matrices_over_the_ring(ring):
    one, zero = ring.one, ring.zero
    assert rmat_is_invertible(ring, ())
    for ragged in (((one, zero), (one,)), ((one,), (zero, one)), ((),), ((one, zero),)):
        assert not rmat_is_invertible(ring, ragged)


@pytest.mark.parametrize("ring", [Z4, GR16], ids=["Z/4", "W_2(F_4)"])
def test_elimination_inverse_refuses_singular_and_non_square_input(ring):
    # a unit multiple of p in the first column: no pivot modulo p
    two = ring.from_int(2)
    singular = ((two, ring.one), (ring.zero, ring.one))
    with pytest.raises(ValueError, match="singular modulo p"):
        rmat_inv(ring, singular)
    with pytest.raises(ValueError, match="singular modulo p"):
        rmat_inv(ring, ((ring.one, ring.one), (ring.one, ring.one)))
    with pytest.raises(ValueError, match="singular modulo p"):
        rmat_inv(ring, ((ring.one, ring.zero),))
    assert rmat_inv(ring, ()) == ()
    # the pivot is the first unit of its column, below a non-unit
    swapped = ((two, ring.one), (ring.one, ring.zero))
    assert rmat_inv(ring, swapped) == newton_rmat_inv(ring, swapped)


# ---------------------------------------------------------------------------
# the display group
# ---------------------------------------------------------------------------


def test_identity_display_maps_to_identity_matrices_under_both_block_maps():
    ident = identity_display(Z4, 2, 1)
    assert iota(ident) == rmat_identity(Z4, 2)
    assert sigma_mu(ident) == rmat_identity(Z4, 2)


def test_display_constructor_rejects_non_unit_diagonal_blocks():
    with pytest.raises(NotInGroup, match="invertible modulo p"):
        scalar_display(Z4, 2, 0, 0, 1)
    with pytest.raises(NotInGroup, match="invertible modulo p"):
        scalar_display(Z4, 1, 0, 0, 2)
    with pytest.raises(ValueError, match="must be 1 by 1"):
        DisplayGroupElement(
            Z4, 2, 1, ((Z4.one, Z4.one),), ((Z4.zero,),), ((Z4.zero,),), ((Z4.one,),)
        )
    with pytest.raises(ValueError, match="entries in the ring"):
        DisplayGroupElement(Z4, 2, 1, ((1,),), ((Z4.zero,),), ((Z4.zero,),), ((Z4.one,),))


def test_display_constructor_checks_the_ring_of_every_entry():
    twin = GaloisRing(2, 1, 2, (0, 1))
    z8 = make_ring(2, 1, 3)
    with pytest.raises(ValueError, match="block A must have entries in the ring"):
        DisplayGroupElement(Z4, 2, 1, ((GR16.one,),), ((Z4.zero,),), ((Z4.zero,),), ((Z4.one,),))
    with pytest.raises(ValueError, match="block C must have entries in the ring"):
        DisplayGroupElement(Z4, 2, 1, ((Z4.one,),), ((Z4.zero,),), ((z8.zero,),), ((Z4.one,),))
    with pytest.raises(NotInGroup, match="invertible modulo p"):
        DisplayGroupElement(Z4, 2, 2, ring_matrix(Z4, ((1, 1), (3, 1))), ((), ()), (), ())
    with pytest.raises(NotInGroup, match="invertible modulo p"):
        DisplayGroupElement(Z4, 2, 0, (), (), ((), ()), ring_matrix(Z4, ((2, 1), (0, 2))))
    # entries of a value-equal ring are entries of the ring
    x = DisplayGroupElement(Z4, 2, 1, ((twin.one,),), ((twin.zero,),), ((Z4.zero,),), ((Z4.one,),))
    assert x == identity_display(Z4, 2, 1)


def _checked_display_points(ring, n, d_block):
    """The display group point by point through the checked constructor, blocks in coefficient order."""
    cells = list(ring.elements())

    def blocks(rows, cols, invertible=False):
        out = (
            tuple(flat[r * cols : (r + 1) * cols] for r in range(rows))
            for flat in itertools.product(cells, repeat=rows * cols)
        )
        return [b for b in out if not invertible or rmat_is_invertible(ring, b)]

    db, rest = d_block, n - d_block
    return tuple(
        DisplayGroupElement(ring, n, d_block, a, b, c, d)
        for a in blocks(db, db, True)
        for d in blocks(rest, rest, True)
        for b in blocks(db, rest)
        for c in blocks(rest, db)
    )


@pytest.mark.parametrize("pdm", [(2, 1, 2), (3, 1, 2)], ids=["W_2(F_2)", "W_2(F_3)"])
@pytest.mark.parametrize("d_block", [0, 1, 2])
def test_display_group_points_equal_the_checked_constructions_in_order(pdm, d_block):
    ring = make_ring(*pdm)
    points = display_group_points(ring, 2, d_block)
    assert points == _checked_display_points(ring, 2, d_block)
    assert len(points) == display_group_order(ring, 2, d_block)


def test_level_one_block_maps_are_the_zip_group_pair():
    ring = make_ring(2, 1, 1)
    for g in display_group_points(ring, 2, 1):
        assert iota(g)[0][1] == ring.zero
        assert sigma_mu(g)[1][0] == ring.zero
        assert sigma_mu(g)[0][0] == g.A[0][0]
        assert sigma_mu(g)[0][1] == g.B_pre[0][0]
        assert sigma_mu(g)[1][1] == g.D[0][0]


@pytest.mark.parametrize("ring", [Z4, GR16], ids=["Z/4", "W_2(F_4)"])
def test_products_through_an_empty_inner_block_are_zero_matrices(ring):
    k_by_0 = ((), ())
    assert rmat_mul(ring, k_by_0, (), cols=3) == ((ring.zero,) * 3,) * 2
    assert rmat_mul(ring, (), (), cols=3) == ()
    with pytest.raises(ValueError):
        rmat_mul(ring, k_by_0, ())
    # a nonempty right factor fixes the width itself
    one = ((ring.one,),)
    assert rmat_mul(ring, ((ring.from_int(3),),), one) == ((ring.from_int(3),),)


def test_block_maps_are_group_homomorphisms_on_the_full_level_two_group():
    group = display_group_points(Z4, 2, 1)
    assert len(group) == 64
    for a in group:
        for b in group:
            ab = a * b
            assert rmat_mul(Z4, iota(a), iota(b)) == iota(ab)
            assert rmat_mul(Z4, sigma_mu(a), sigma_mu(b)) == sigma_mu(ab)


def test_block_map_fibers_collapse_exactly_the_top_power_of_p():
    group = display_group_points(Z4, 2, 1)
    ident = rmat_identity(Z4, 2)
    iota_kernel = [g for g in group if iota(g) == ident]
    assert sorted(g.B_pre[0][0].coeffs for g in iota_kernel) == [(0,), (2,)]
    assert all(
        (g.A, g.C, g.D) == (((Z4.one,),), ((Z4.zero,),), ((Z4.one,),))
        for g in iota_kernel
    )
    sigma_kernel = [g for g in group if sigma_mu(g) == ident]
    assert sorted(g.C[0][0].coeffs for g in sigma_kernel) == [(0,), (2,)]
    joint = [g for g in iota_kernel if sigma_mu(g) == ident]
    assert len(joint) == 1


def test_display_multiplication_is_associative_with_identity():
    group = display_group_points(Z4, 2, 1)
    ident = identity_display(Z4, 2, 1)
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = rng.choice(group), rng.choice(group), rng.choice(group)
        assert (a * b) * c == a * (b * c)
        assert a * ident == a and ident * a == a


def test_display_action_satisfies_the_left_action_axioms():
    group = display_group_points(Z4, 2, 1)
    ident = identity_display(Z4, 2, 1)
    invertibles = [
        (flat[0:2], flat[2:4])
        for flat in itertools.product(Z4.elements(), repeat=4)
    ]
    invertibles = [z for z in invertibles if rmat_is_invertible(Z4, z)]
    assert len(invertibles) == 96
    for z in invertibles:
        assert display_action(ident, z) == z
    rng = random.Random(13)
    for _ in range(150):
        a, b = rng.choice(group), rng.choice(group)
        z = rng.choice(invertibles)
        assert display_action(a * b, z) == display_action(a, display_action(b, z))


def test_display_action_rejects_singular_and_misshapen_input():
    ident = identity_display(Z4, 2, 1)
    with pytest.raises(SingularZ, match="singular modulo p"):
        display_action(ident, ring_matrix(Z4, ((2, 0), (0, 1))))
    with pytest.raises(ValueError, match="n by n"):
        display_action(ident, ring_matrix(Z4, ((1,),)))


def test_display_laws_hold_over_the_nine_element_base_ring():
    ring = make_ring(3, 1, 2)
    group = display_group_points(ring, 2, 1)
    assert len(group) == 2916
    invertibles = [
        (flat[0:2], flat[2:4])
        for flat in itertools.product(ring.elements(), repeat=4)
    ]
    invertibles = [z for z in invertibles if rmat_is_invertible(ring, z)]
    assert len(invertibles) == 3888
    ident = identity_display(ring, 2, 1)
    rng = random.Random(17)
    for _ in range(120):
        a, b = rng.choice(group), rng.choice(group)
        ab = a * b
        assert rmat_mul(ring, iota(a), iota(b)) == iota(ab)
        assert rmat_mul(ring, sigma_mu(a), sigma_mu(b)) == sigma_mu(ab)
        z = rng.choice(invertibles)
        assert display_action(ab, z) == display_action(a, display_action(b, z))
    for _ in range(60):
        z = rng.choice(invertibles)
        assert display_action(ident, z) == z


# ---------------------------------------------------------------------------
# orbits, census, reduction
# ---------------------------------------------------------------------------


def test_orbit_of_the_identity_at_level_one_is_the_big_cell():
    ring = make_ring(2, 1, 1)
    partition = display_orbit_partition(ring, 2, 1)
    assert [len(o) for o in partition] == [2, 4]
    ident = rmat_identity(ring, 2)
    orbit = next(o for o in partition if ident in o)
    as_ints = sorted(residue_matrix(ring, z) for z in orbit)
    assert as_ints == [
        ((1, 0), (0, 1)),
        ((1, 0), (1, 1)),
        ((1, 1), (0, 1)),
        ((1, 1), (1, 0)),
    ]


def test_level_two_census_partitions_the_ninety_six_invertibles():
    census = orbit_census_level(2, 2, 1, 2)
    assert census.ext == 2
    assert census.group_order == 96
    assert [r.size for r in census.orbits] == [8, 8, 8, 8, 16, 16, 16, 16]
    assert [r.stabilizer_order for r in census.orbits] == [8, 8, 8, 8, 4, 4, 4, 4]
    assert all(r.size * r.stabilizer_order == 64 for r in census.orbits)
    assert all(r.cell is None for r in census.orbits)
    partition = display_orbit_partition(Z4, 2, 1)
    union = set().union(*partition)
    assert len(union) == 96 and sum(len(o) for o in partition) == 96


def test_level_one_census_matches_the_familiar_zip_sizes():
    census = orbit_census_level(2, 2, 1, 1)
    assert census.group_order == 6
    assert [r.size for r in census.orbits] == [2, 4]


def zip_partition(n, field, simple_indices):
    datum = make_zip_datum(n, field, simple_indices)
    acting = [
        (pp, mat_inv(field, p)) for pp, p in zip_group_points(datum, 1)
    ]
    remaining = set(gl_points(n, field))
    parts = []
    while remaining:
        seed = min(remaining)
        orbit = frozenset(
            mat_mul(field, mat_mul(field, pp, seed), pinv) for pp, pinv in acting
        )
        remaining -= orbit
        parts.append(orbit)
    return set(parts)


def witt_partition_as_residues(p, d, n, d_block):
    ring = make_ring(p, d, 1)
    return set(
        frozenset(residue_matrix(ring, z) for z in orbit)
        for orbit in display_orbit_partition(ring, n, d_block)
    )


def test_level_one_orbit_partition_equals_the_zip_group_partition():
    assert witt_partition_as_residues(2, 1, 2, 1) == zip_partition(2, get_field(2, 1), ())
    assert witt_partition_as_residues(3, 1, 2, 1) == zip_partition(2, get_field(3, 1), ())
    assert witt_partition_as_residues(2, 1, 3, 1) == zip_partition(3, get_field(2, 1), (2,))
    assert witt_partition_as_residues(2, 1, 3, 2) == zip_partition(3, get_field(2, 1), (1,))


def test_every_level_two_orbit_reduces_into_a_single_level_one_orbit():
    report = check_reduction(2, 2, 1, 2)
    assert report == {
        "params": {"n": 2, "p": 2, "d": 1, "m": 2, "d_block": 1},
        "orbits_m": 8,
        "orbits_1": 2,
        "violations": [],
    }
    json.dumps(report)


def test_reduction_is_clean_over_the_nine_element_base_ring():
    report = check_reduction(2, 3, 1, 2)
    assert report["orbits_m"] == 54
    assert report["orbits_1"] == 6
    assert report["violations"] == []


def test_reduction_at_level_one_is_trivially_clean():
    report = check_reduction(2, 2, 1, 1)
    assert report["orbits_m"] == report["orbits_1"] == 2
    assert report["violations"] == []


def check_reduction_by_objects(n, p, d, m, d_block=1):
    """The reduction check on ring elements: every point of every orbit reduced entry by entry."""
    ring_m, ring_one = make_ring(p, d, m), make_ring(p, d, 1)
    orbits_m = display_orbit_partition(ring_m, n, d_block)
    orbits_one = display_orbit_partition(ring_one, n, d_block)
    index_one = {z: k for k, orbit in enumerate(orbits_one) for z in orbit}

    def reduce(z):
        return tuple(
            tuple(GaloisRingElement(ring_one, tuple(c % p for c in v.coeffs)) for v in row)
            for row in z
        )

    violations = []
    for orbit in orbits_m:
        hit = {index_one[reduce(z)] for z in orbit}
        if len(hit) != 1:
            rep = min(orbit, key=lambda z: tuple(c for row in z for v in row for c in v.coeffs))
            violations.append(
                {"orbit_rep": [[list(v.coeffs) for v in row] for row in rep], "level_one_orbits": len(hit)}
            )
    return {
        "params": {"n": n, "p": p, "d": d, "m": m, "d_block": d_block},
        "orbits_m": len(orbits_m),
        "orbits_1": len(orbits_one),
        "violations": violations,
    }


@pytest.mark.parametrize("n,p,d,m", [(2, 2, 1, 2), (2, 2, 1, 3), (2, 3, 1, 2), (2, 2, 2, 2), (1, 3, 2, 2), (3, 2, 1, 1)])
def test_reduction_on_codes_equals_the_reduction_on_ring_elements(n, p, d, m):
    for d_block in range(n + 1):
        assert check_reduction(n, p, d, m, d_block) == check_reduction_by_objects(n, p, d, m, d_block)


def test_violations_on_codes_equal_those_on_ring_elements(monkeypatch):
    # split every level-one orbit into single points, so that every level-m
    # orbit with more than one point is reported
    coded = witt._coded_orbits

    def split_level_one(ring, n, d_block):
        orbits = coded(ring, n, d_block)
        if ring.m > 1:
            return orbits
        return [(z, {z}) for _, orbit in orbits for z in sorted(orbit)]

    monkeypatch.setattr(witt, "_coded_orbits", split_level_one)
    for n, p, d, m in [(2, 2, 1, 2), (1, 3, 2, 2), (1, 2, 3, 2)]:
        report = check_reduction(n, p, d, m)
        assert report["violations"]
        assert report == check_reduction_by_objects(n, p, d, m)


def test_census_guard_refuses_oversized_spaces():
    with pytest.raises(TooLarge, match=str(2**36)):
        orbit_census_level(3, 2, 1, 4)
    with pytest.raises(TooLarge, match="matrix space"):
        check_reduction(3, 2, 1, 4)
    with pytest.raises(TooLarge, match="display group"):
        display_group_points(GR81, 3, 1)


# ---------------------------------------------------------------------------
# the generator-driven display orbit engine
# ---------------------------------------------------------------------------

# F_2, F_4, Z/4, Z/8, Z/9 as (p, d, m)
ENGINE_RINGS = [(2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2)]
ENGINE_CASES = [(pdm, d_block) for pdm in ENGINE_RINGS for d_block in (0, 1, 2)]


@lru_cache(maxsize=None)
def display_group(pdm, d_block):
    return display_group_points(make_ring(*pdm), 2, d_block)


@pytest.mark.parametrize("pdm,d_block", ENGINE_CASES)
def test_display_generators_generate_exactly_the_display_group(pdm, d_block):
    ring = make_ring(*pdm)
    gens = _display_generators(ring, 2, d_block)
    closure = {identity_display(ring, 2, d_block)}
    stack = list(closure)
    while stack:
        x = stack.pop()
        for g in gens:
            y = x * g
            if y not in closure:
                closure.add(y)
                stack.append(y)
    group = display_group(pdm, d_block)
    assert closure == set(group)
    assert display_group_order(ring, 2, d_block) == len(group)


def test_unit_scalings_use_a_greedy_generating_set_of_the_units():
    gens = _display_generators(make_ring(2, 1, 3), 1, 1)
    assert [x.A[0][0].coeffs for x in gens] == [(3,), (5,)]


@pytest.mark.parametrize("pdm,d_block", ENGINE_CASES)
def test_display_orbit_partition_equals_the_whole_group_partition(pdm, d_block):
    # brute force over indices into ring.elements(), with the ring's tables
    ring = make_ring(*pdm)
    cells = list(ring.elements())
    index = {x: k for k, x in enumerate(cells)}
    add = [[index[x + y] for y in cells] for x in cells]
    mul = [[index[x * y] for y in cells] for x in cells]

    def ix(z):
        return tuple(tuple(index[v] for v in row) for row in z)

    def mm(x, y):
        return tuple(
            tuple(add[mul[x[i][0]][y[0][j]]][mul[x[i][1]][y[1][j]]] for j in (0, 1))
            for i in (0, 1)
        )

    group = display_group(pdm, d_block)
    acting = [(ix(iota(x)), ix(rmat_inv(ring, sigma_mu(x)))) for x in group]
    flats = itertools.product(ring.elements(), repeat=4)
    remaining = {ix(z) for z in ((f[0:2], f[2:4]) for f in flats) if rmat_is_invertible(ring, z)}
    brute = set()
    while remaining:
        seed = next(iter(remaining))
        orbit = frozenset(mm(mm(a, seed), b) for a, b in acting)
        remaining -= orbit
        brute.add(orbit)
    partition = display_orbit_partition(ring, 2, d_block)
    assert len(partition) == len(brute)
    assert {frozenset(ix(z) for z in orbit) for orbit in partition} == brute


def test_element_codes_are_a_bijection_that_adds_coefficientwise():
    for pdm in ((2, 1, 3), (3, 1, 2), (2, 2, 1), (2, 2, 2)):
        ring = make_ring(*pdm)
        elements = _elements_by_code(ring)
        assert [_code(x) for x in elements] == list(range(ring.size))
        assert (_code(ring.zero), _code(ring.one)) == (0, 1)
        add = _code_add(ring)
        for x in elements:
            for y in elements:
                assert add(_code(x), _code(y)) == _code(x + y)


def _apply_ops(ops, x):
    x = list(x)
    for links, table in ops:
        for d, s in links:
            x[d] = table[x[s]][x[d]]
    return tuple(x)


@pytest.mark.parametrize("pdm", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
@pytest.mark.parametrize("d_block", [0, 1, 2])
def test_compiled_display_moves_act_as_their_generators(pdm, d_block):
    ring = make_ring(*pdm)
    cells = list(ring.elements())
    rng = random.Random(41)
    zs = []
    while len(zs) < 50:
        z = tuple(tuple(rng.choice(cells) for _ in range(2)) for _ in range(2))
        if rmat_is_invertible(ring, z):
            zs.append(z)

    def coded(z):
        return tuple(_code(v) for row in z for v in row)

    fixed = tuple(coded(z) for z in zs)
    expected = {
        tuple(coded(rmat_mul(ring, rmat_mul(ring, left, z), right)) for z in zs)
        for left, right in (
            (iota(x), rmat_inv(ring, sigma_mu(x))) for x in _display_generators(ring, 2, d_block)
        )
    }
    moves = _display_moves(ring, 2, d_block, _elements_by_code(ring))
    images = [tuple(_apply_ops(ops, z) for z in fixed) for ops in moves]
    assert len(set(moves)) == len(moves)
    assert set(images) | {fixed} == expected | {fixed}


def test_display_partition_checks_survive_python_minus_o():
    script = textwrap.dedent(
        """
        from zipstrata import witt
        from zipstrata.grouplab import InvariantError
        assert False, "asserts must be off"
        true_order = witt.display_group_order
        witt.display_group_order = lambda ring, n, d_block: true_order(ring, n, d_block) + 1
        try:
            witt.display_orbit_partition(witt.make_ring(2, 1, 2), 2, 1)
        except InvariantError as exc:
            print("InvariantError:", exc)
        """
    )
    src = str(Path(zipstrata.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("InvariantError:")
