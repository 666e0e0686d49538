"""Exactness tests for the cyclotomic scalar ring."""

import random
from fractions import Fraction
from math import gcd

import pytest

from tjl import cyclotomic
from tjl.cyclotomic import (
    Cyc,
    FalsificationError,
    NotRationalError,
    OrderMismatchError,
    cyclotomic_polynomial,
    divisors,
    inner_product,
)


def zeta(m, k=1):
    return Cyc(m, {k: 1})


def euler_phi(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def random_cyc(rng, m, nterms=4, bound=9):
    c = {rng.randrange(m): rng.randint(-bound, bound) for _ in range(nterms)}
    return Cyc(m, c)


def test_ring_axioms_random_orders():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 64)
        a, b, c = (random_cyc(rng, m) for _ in range(3))
        one = Cyc.from_rational(m, 1)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert one * a == a
        assert a + Cyc.zero(m) == a


def test_zeta_power_relations():
    for m in range(2, 65):
        z = zeta(m)
        power = Cyc.from_rational(m, 1)
        for _ in range(m):
            power = power * z
        assert power == 1
        total = Cyc.zero(m)
        for k in range(m):
            total = total + zeta(m, k)
        # sum over all m-th roots of unity vanishes for m > 1
        assert total.is_zero()


def test_integer_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 40)
        v = rng.randint(-(10**6), 10**6)
        assert Cyc.from_rational(m, v).to_rational() == v
    # a Fraction coefficient scaled by an int stays exact
    half = Cyc.from_rational(6, Fraction(1, 2))
    assert (half * 2).to_rational() == 1


def test_cyclotomic_polynomial_degree_and_product():
    for m in range(1, 65):
        phi = cyclotomic_polynomial(m)
        assert len(phi) - 1 == euler_phi(m)
        assert phi[-1] == 1
        # independent reassembly: product over divisors recovers x^m - 1
        prod = [1]
        for d in divisors(m):
            pd = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(pd) - 1)
            for i, ca in enumerate(prod):
                for j, cb in enumerate(pd):
                    out[i + j] += ca * cb
            prod = out
        expect = [-1] + [0] * (m - 1) + [1]
        assert prod == expect


def test_product_of_conjugate_linear_factors():
    # (1 + zeta_4)(1 - zeta_4) = 1 - zeta_4^2 = 2
    z = zeta(4)
    assert (1 + z) * (1 - z) == 2


def test_unit_circle_inner_sum():
    # sum_k zeta_8^k * conj(zeta_8^k) = 8
    total = Cyc.zero(8)
    for k in range(8):
        zk = zeta(8, k)
        total = total + zk * zk.conj()
    assert total.to_rational() == 8


def test_symmetric_group_character_norm():
    # 2-dim character of the order-6 symmetric group: values 2, -1, 0 on the
    # classes of sizes 1, 2, 3; norm 1.  Recomputed elementwise as well.
    m = 12
    vals = [Cyc.from_rational(m, v) for v in (2, -1, 0)]
    assert inner_product(vals, vals, [1, 2, 3], 6) == 1
    elementwise = [2, -1, -1, 0, 0, 0]
    ev = [Cyc.from_rational(m, v) for v in elementwise]
    assert inner_product(ev, ev, [1] * 6, 6) == 1


def test_rationality_detection():
    z = zeta(8)
    with pytest.raises(NotRationalError):
        z.to_rational()
    # zeta_2 = -1 is rational even though stored as an exponent
    assert zeta(2).to_rational() == -1


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatchError):
        zeta(8) + zeta(12)
    with pytest.raises(OrderMismatchError):
        zeta(8) * zeta(12)


def test_conjugation_negates_exponents():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randint(2, 48)
        k = rng.randrange(m)
        assert zeta(m, k).conj() == zeta(m, -k)


def test_reduced_form_is_integral_for_integer_inputs():
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(1, 60)
        a = random_cyc(rng, m)
        assert all(type(c) is int for c in a.reduced())
        assert len(a.reduced()) == euler_phi(m)


def test_sort_key_total_order_consistency():
    # the reduced form is the canonical key: it ignores the order of terms
    a = zeta(8, 1) + zeta(8, 3)
    b = zeta(8, 3) + zeta(8, 1)
    assert a.reduced() == b.reduced()
    assert a.to_json() == b.to_json()


def _dense(a):
    """The dense group-ring coefficients of a, constant first."""
    out = [0] * a.order
    for e, v in a.terms:
        out[e] = v
    return out


def test_inexact_polynomial_division_is_a_falsification():
    # x^2 + 1 = (x + 1)(x - 1) + 2, and a divisor must be monic; neither
    # check is an assert, so python -O keeps both
    with pytest.raises(FalsificationError, match="non-exact"):
        cyclotomic._poly_exact_div([1, 0, 1], (1, 1))
    with pytest.raises(FalsificationError, match="not monic"):
        cyclotomic._poly_exact_div([1, 0, 2], (1, 2))
    assert cyclotomic._poly_exact_div([-1, 0, 1], (1, 1)) == [-1, 1]


def _frac_poly_divmod(num, den):
    """Quotient and remainder of num by den over Q, dense and constant
    first: the long-division reference that _reduce is checked against."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    dd = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - dd, 0)
    lead = den[-1]
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / lead
        if c:
            quot[k - dd] = c
            for j, cd in enumerate(den):
                num[k - dd + j] -= c * cd
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _draws(rng):
    return {
        "int": lambda: rng.randint(-9, 9),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        "big": lambda: rng.choice((1, -1)) * rng.randint(2**63, 2**80),
    }


@pytest.mark.parametrize("m", (1, 2, 12, 80, 168))
def test_reduced_is_the_remainder_mod_phi(m):
    # one reduction route for ints, Fractions and ints past 2^63 alike;
    # 168 is the group order at q = 13
    rng = random.Random(m)
    phi = [Fraction(c) for c in cyclotomic_polynomial(m)]
    d = len(phi) - 1
    for kind, draw in _draws(rng).items():
        for nterms in (1, 3, m):
            a = Cyc(m, {rng.randrange(m): draw() for _ in range(nterms)})
            _, rem = _frac_poly_divmod(
                [Fraction(c) for c in _dense(a)], phi)
            expected = tuple(rem) + (Fraction(0),) * (d - len(rem))
            assert a.reduced() == expected
            if kind != "fraction":
                assert all(type(c) is int for c in a.reduced())
            assert a.to_json()["coeffs"] == [
                c.numerator if c.denominator == 1 else [c.numerator, c.denominator]
                for c in expected]


# 372 = lcm(124, 6), the cyclotomic order of the group at q=5, n=3, N=2
SHARED_REDUCTION_ORDERS = (1, 2, 12, 80, 168, 372)


@pytest.mark.parametrize("m", SHARED_REDUCTION_ORDERS)
def test_shared_reduction_matches_cyc(m):
    # _reduce is the one loop over the rows x^k mod Phi_m; it takes raw
    # histogram pairs, with repeated and zero entries
    rng = random.Random(4000 + m)
    p = min(d for d in divisors(m) if d > 1) if m > 1 else 1
    for kind, draw in _draws(rng).items():
        for nterms in (1, 3, m):
            pairs = [(rng.randrange(m), draw()) for _ in range(nterms)]
            pairs.append((rng.randrange(m), 0))
            hist = {}
            for e, v in pairs:
                hist[e] = hist.get(e, 0) + v
            red = cyclotomic._reduce(m, pairs)
            assert tuple(red) == Cyc(m, hist).reduced()
            if kind != "fraction":
                assert all(type(c) is int for c in red)
            # r plus v times a coset of the p-th roots of unity, whose sum
            # is 0 for p > 1 (and 1 for m = p = 1)
            r, v, j = draw(), draw(), rng.randrange(m)
            rational = {0: r}
            for k in range(p):
                e = (j + k * (m // p)) % m
                rational[e] = rational.get(e, 0) + v
            got = cyclotomic._rational(cyclotomic._reduce(m, rational.items()))
            assert got == Cyc(m, rational).to_rational()
            assert got == (r + v if m == 1 else r)


def _ramanujan_sum(m, a, v):
    """v times the sum of zeta_m^(k a) over k prime to m: a rational scalar
    with up to phi(m) terms."""
    return Cyc(m, {k * a: 1 for k in range(m) if gcd(k, m) == 1}) * v


@pytest.mark.parametrize("m", SHARED_REDUCTION_ORDERS)
def test_inner_product_matches_cyc_arithmetic(m):
    # the histogram over Z/m against one Cyc per product, with zero values
    # on either side, which inner_product skips
    rng = random.Random(5000 + m)
    zero = Cyc.zero(m)
    for kind, draw in _draws(rng).items():
        f = [_ramanujan_sum(m, rng.randrange(m), draw()) for _ in range(3)]
        g = [_ramanujan_sum(m, rng.randrange(m), draw()) for _ in range(3)]
        f, g = f + [zero, f[0]], g + [g[0], zero]
        weights = [rng.randint(1, 9) for _ in f]
        total = zero
        for a, b, w in zip(f, g, weights):
            total = total + a * b.conj() * w
        assert inner_product(f, g, weights, 7) == total.to_rational() / 7
        # monomials v*zeta^k against themselves: the sum of w*v^2
        coeffs = [draw() for _ in range(4)]
        mono = [Cyc(m, {rng.randrange(m): v}) for v in coeffs]
        assert inner_product(mono, mono, weights[:4], 7) == Fraction(
            sum(w * v * v for w, v in zip(weights, coeffs)), 7)


@pytest.mark.parametrize("m", (3, 12, 80, 372))
def test_inner_product_rejects_non_rational_and_mixed_orders(m):
    one = Cyc.from_rational(m, 1)
    with pytest.raises(NotRationalError):
        inner_product([zeta(m), one], [one, one], [1, 1], 2)
    with pytest.raises(OrderMismatchError):
        inner_product([one, one], [one, zeta(2 * m)], [1, 1], 2)
    # a list of another length is a falsification, which -O keeps
    for f, g, w in (([one], [one, one], [1, 1]), ([one, one], [one], [1, 1]),
                    ([one, one], [one, one], [1])):
        with pytest.raises(FalsificationError, match="mismatched lengths"):
            inner_product(f, g, w, 2)
