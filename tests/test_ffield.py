"""Field and linear algebra oracles.

Every law here is checked exhaustively on fields small enough to scan, and the
frozen constants (moduli, group orders) were computed independently by hand or
by brute force before the implementation existed.
"""

import random

import pytest

from zipstrata.ffield import (
    FiniteField,
    _is_irreducible,
    column_echelon,
    get_field,
    gl_order,
    kernel_basis,
    mat_identity,
    mat_inv,
    mat_is_invertible,
    mat_mul,
    mat_rank,
    mat_transpose,
    prime_power,
    smallest_irreducible,
    solve_right,
)


def test_smallest_irreducible_matches_hand_computed_moduli():
    # x**2 + x + 1 over F_2, x**3 + x + 1 over F_3's cousin over F_2, x**2 + 1 over F_3.
    assert smallest_irreducible(2, 1) == (0, 1)
    assert smallest_irreducible(2, 2) == (1, 1, 1)
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)
    assert smallest_irreducible(3, 1) == (0, 1)
    assert smallest_irreducible(3, 2) == (1, 0, 1)


@pytest.mark.parametrize(
    "q,expected",
    [(2, (2, 1)), (4, (2, 2)), (7, (7, 1)), (9, (3, 2)), (2**13, (2, 13)), (9973, (9973, 1))],
)
def test_prime_power_splits_prime_powers(q, expected):
    assert prime_power(q) == expected


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
def test_prime_power_rejects_everything_else(q):
    with pytest.raises(ValueError):
        prime_power(q)


def _moebius(n: int) -> int:
    out, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_irreducible_monic_polynomials_match_gauss_count(p, d):
    # (1/d) * sum over k | d of mu(d/k) * p**k monic irreducibles of degree d
    gauss = sum(_moebius(d // k) * p**k for k in range(1, d + 1) if d % k == 0) // d
    found = sum(
        _is_irreducible(tuple((enc // p**k) % p for k in range(d)) + (1,), p)
        for enc in range(p**d)
    )
    assert found == gauss


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FiniteField(4, 1)
    with pytest.raises(ValueError):
        FiniteField(2, 0)


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_field_axioms_exhaustively(p, d):
    F = get_field(p, d)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els[: min(len(els), 9)]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2)])
def test_frobenius_is_a_field_automorphism_of_the_right_order(p, d):
    F = get_field(p, d)
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    for a in F.elements():
        assert F.frobenius(a, d) == a
        assert F.frobenius(a) == F.power(a, p)
    # the prime field is exactly the fixed locus
    fixed = [a for a in F.elements() if F.frobenius(a) == a]
    assert len(fixed) == p


def test_embedding_is_a_field_homomorphism():
    small = get_field(2, 1)
    mid = get_field(2, 2)
    big = get_field(2, 3, 2)  # F_64 viewed over F_8
    for target in (mid, big):
        emb = target.embedding_from(small)
        assert emb[0] == 0 and emb[1] == 1
    emb = big.embedding_from(mid)
    for a in mid.elements():
        for b in mid.elements():
            assert emb[mid.add(a, b)] == big.add(emb[a], emb[b])
            assert emb[mid.mul(a, b)] == big.mul(emb[a], emb[b])
    with pytest.raises(ValueError):
        mid.embedding_from(get_field(2, 3))


def test_extension_bookkeeping_shares_arithmetic():
    plain = get_field(2, 4)
    layered = get_field(2, 2, 2)
    assert plain.order == layered.order == 16
    assert layered.q == 4 and layered.ext == 2
    assert plain.modulus == layered.modulus


def _random_matrix(F, rng, n, m):
    return tuple(tuple(rng.randrange(F.order) for _ in range(m)) for _ in range(n))


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
def test_matrix_inverse_and_rank(p, d):
    F = get_field(p, d)
    rng = random.Random(7)
    found = 0
    while found < 25:
        a = _random_matrix(F, rng, 3, 3)
        if not mat_is_invertible(F, a):
            continue
        found += 1
        assert mat_mul(F, a, mat_inv(F, a)) == mat_identity(3)
        assert mat_rank(F, a) == 3


def test_column_echelon_is_a_span_invariant():
    F = get_field(2, 2)
    rng = random.Random(11)
    for _ in range(50):
        a = _random_matrix(F, rng, 4, 2)
        # mixing the columns by an invertible 2x2 must not change the echelon form
        while True:
            g = _random_matrix(F, rng, 2, 2)
            if mat_is_invertible(F, g):
                break
        assert column_echelon(F, a) == column_echelon(F, mat_mul(F, a, g))
    assert column_echelon(F, ((0, 0), (0, 0))) == ((), ())


def test_kernel_and_solve_consistency():
    F = get_field(3, 1)
    rng = random.Random(3)
    for _ in range(40):
        a = _random_matrix(F, rng, 3, 4)
        k = kernel_basis(F, a)
        width = len(k[0]) if k and k[0] else 0
        assert mat_rank(F, a) + width == 4
        if width:
            prod = mat_mul(F, a, k)
            assert all(all(x == 0 for x in row) for row in prod)
        b = mat_mul(F, a, _random_matrix(F, rng, 4, 2))
        x = solve_right(F, a, b)
        assert mat_mul(F, a, x) == b
    with pytest.raises(ValueError):
        solve_right(F, ((1, 0), (0, 0)), ((0,), (1,)))


def test_gl_order_formula_matches_brute_force_over_f2():
    F = get_field(2, 1)
    count = 0
    for bits in range(16):
        m = ((bits & 1, (bits >> 1) & 1), ((bits >> 2) & 1, (bits >> 3) & 1))
        if mat_is_invertible(F, m):
            count += 1
    assert count == gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168


def test_transpose_round_trip():
    a = ((1, 2, 3), (4, 5, 6))
    assert mat_transpose(mat_transpose(a)) == a
