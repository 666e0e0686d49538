from __future__ import annotations

import random
import subprocess
import sys

import pytest

import tjl.quaternion as quaternion
from oracles import (coords, infinity_integral, ref_mul, ref_nrd,
                     ref_reduce_at_infinity, ref_reduce_at_zero,
                     ref_split_point, t_integral)
from tjl.cyclotomic import FalsificationError
from tjl.funcfield import (Poly, RatFunc, ResidueField, fq2, gf,
                           monic_irreducibles, parse_poly)
from tjl.quaternion import (
    AlgebraParams,
    OrderElement,
    ReductionError,
    gram_determinant,
    maximality_certificate,
    ramification_certificate,
    reduce_at_infinity,
    reduce_at_zero,
    split_certificate,
    unit_congruence_certificate,
)


def random_element(alg, rng, deg=2, denom=0):
    F = alg.field
    polys = [
        Poly(F, tuple(rng.randrange(F.q) for _ in range(deg + 1)))
        for _ in range(4)
    ]
    return OrderElement.from_polys(alg, *polys, t_denominator_power=denom)


def test_defining_relations():
    alg = AlgebraParams(3)
    one, i, j, k = (OrderElement.one(alg), OrderElement.i(alg),
                    OrderElement.j(alg), OrderElement.ij(alg))
    F = alg.field
    eps = RatFunc.constant(F, alg.eps)
    t = RatFunc.t_power(F, 1)
    assert i * i == OrderElement.scalar(alg, eps)
    assert j * j == OrderElement.scalar(alg, t)
    assert j * i == -(i * j)
    assert i * j == k
    assert k * k == OrderElement.scalar(alg, -(eps * t))
    # the sixteen basis products stay in the order
    basis = [one, i, j, k]
    for x in basis:
        for y in basis:
            assert (x * y).den.is_one()


def test_associativity_and_distributivity():
    alg = AlgebraParams(5)
    rng = random.Random(31)
    for _ in range(40):
        x, y, z = (random_element(alg, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_norm_values():
    alg = AlgebraParams(3)
    F = alg.field
    assert OrderElement.j(alg).nrd() == -RatFunc.t_power(F, 1)
    assert OrderElement.i(alg).nrd() == RatFunc.constant(F, F.neg(alg.eps))
    x = OrderElement.one(alg) + OrderElement.i(alg).scale(RatFunc.t_power(F, 1))
    expect = RatFunc.one(F) - RatFunc.constant(F, alg.eps) * RatFunc.t_power(F, 2)
    assert x.nrd() == expect


def test_norm_is_multiplicative_and_conj():
    for q in (3, 5):
        alg = AlgebraParams(q)
        rng = random.Random(32 + q)
        for _ in range(120):
            x = random_element(alg, rng, deg=2, denom=rng.randrange(2))
            y = random_element(alg, rng, deg=2, denom=rng.randrange(2))
            assert (x * y).nrd() == x.nrd() * y.nrd()
            prod = x * x.conj()
            assert prod.b.is_zero() and prod.c.is_zero() and prod.d.is_zero()
            assert prod.a == x.nrd()


def test_inverse():
    alg = AlgebraParams(3)
    rng = random.Random(33)
    for _ in range(30):
        x = random_element(alg, rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == OrderElement.one(alg)
        assert x.inverse() * x == OrderElement.one(alg)


def test_division_algebra_has_no_zero_divisors():
    alg = AlgebraParams(3)
    rng = random.Random(34)
    for _ in range(60):
        x = random_element(alg, rng, deg=1)
        if not x.is_zero():
            assert not x.nrd().is_zero()


def test_reduce_at_zero_examples():
    alg = AlgebraParams(3)
    j = OrderElement.j(alg)
    r = reduce_at_zero(j)
    assert (r.k, r.exponent) == (1, 0)
    assert r.residue == 1

    r = reduce_at_zero(j * j)  # = t, central uniformizer squared
    assert (r.k, r.exponent) == (2, 0)

    i = OrderElement.i(alg)
    r = reduce_at_zero(i)
    assert r.k == 0
    assert r.residue == alg.residue.element(0, 1)

    x = OrderElement.one(alg) + j
    r = reduce_at_zero(x)
    assert (r.k, r.exponent) == (0, 0)

    with pytest.raises(ReductionError):
        reduce_at_zero(OrderElement.zero(alg))


def test_reduce_at_infinity_examples():
    alg = AlgebraParams(3)
    F = alg.field
    j = OrderElement.j(alg)
    pi_inf = j.scale(RatFunc.t_power(F, -1))
    r = reduce_at_infinity(pi_inf)
    assert (r.k, r.exponent) == (1, 0)
    r = reduce_at_infinity(j)
    assert (r.k, r.exponent) == (-1, 0)
    u = alg.residue.from_dlog(3)
    r = reduce_at_infinity(OrderElement.teichmuller(alg, u))
    assert (r.k, r.exponent) == (0, 3)


def test_reduce_is_twisted_homomorphism():
    # reduce_at_zero is a homomorphism to Z x F_{q^2}^* twisted by the
    # Frobenius, which is conj: the valuations add, and
    # residue(xy) = residue(x)^(q^k(y)) residue(y)
    for q in (3, 5):
        alg = AlgebraParams(q)
        K = alg.residue
        rng = random.Random(35 + q)
        pairs = 0
        while pairs < 25:
            x = random_element(alg, rng, deg=1, denom=rng.randrange(2))
            y = random_element(alg, rng, deg=1, denom=rng.randrange(2))
            if x.is_zero() or y.is_zero():
                continue
            pairs += 1
            rx, ry, rxy = (reduce_at_zero(x), reduce_at_zero(y),
                           reduce_at_zero(x * y))
            assert rxy.k == rx.k + ry.k
            twisted = K.conj(rx.residue) if ry.k % 2 else rx.residue
            assert rxy.residue == K.mul(twisted, ry.residue)


def test_reduction_consistent_with_gamma_law():
    # to_gamma composes like the metacyclic law (k + k', e q^{k'} + e')
    alg = AlgebraParams(3, level=1)
    M, R = 8, 2
    rng = random.Random(36)
    for _ in range(25):
        x = random_element(alg, rng, deg=1)
        y = random_element(alg, rng, deg=1)
        if x.is_zero() or y.is_zero():
            continue
        kx, ex = reduce_at_zero(x).to_gamma(R, M)
        ky, ey = reduce_at_zero(y).to_gamma(R, M)
        kxy, exy = reduce_at_zero(x * y).to_gamma(R, M)
        assert kxy == (kx + ky) % R
        assert exy == (ex * pow(3, ky, M) + ey) % M


def test_principal_unit_membership():
    alg = AlgebraParams(3)
    F = alg.field
    one = OrderElement.one(alg)
    assert one.in_K1_infinity()
    x = one + OrderElement.i(alg).scale(RatFunc.t_power(F, -1))
    assert x.in_K1_infinity()
    assert not (one + OrderElement.i(alg)).in_K1_infinity()
    # witnesses shaped t^{-1}(t + c j + d ij) are principal units
    w = OrderElement.from_polys(
        alg, Poly.t(F), Poly.zero(F), Poly.one(F), Poly.one(F),
        t_denominator_power=1,
    )
    assert w.in_K1_infinity()
    assert not OrderElement.j(alg).in_K1_infinity()


def test_maximality_and_discriminant():
    for q in (3, 5, 7, 9):
        alg = AlgebraParams(q)
        assert maximality_certificate(alg)
        det = gram_determinant(alg)
        assert det.den.is_one() and det.num.degree == 2


def test_ramification_certificates():
    for q in (3, 5):
        alg = AlgebraParams(q)
        cert = ramification_certificate(alg, max_deg=2)
        t = Poly.t(alg.field)
        expected = [p for p in monic_irreducibles(alg.field, 2) if p != t]
        assert cert["split_places"] == expected
        for pi, (x, y) in cert["split_points"].items():
            F = alg.field
            eps = Poly.constant(F, alg.eps)
            lhs = (x * x - eps * y * y - Poly.t(F)) % pi
            assert lhs.is_zero()
        assert cert["ramified"] == ("t", "infinity")


def test_anisotropic_at_t():
    alg = AlgebraParams(3)
    assert split_certificate(alg, ResidueField(Poly.t(alg.field))) is None


@pytest.mark.parametrize("q, max_deg", [(3, 4), (5, 3), (7, 2), (9, 2)])
def test_split_point_is_the_first_pair_in_canonical_order(q, max_deg):
    # the square-root read finds the point the pair search finds, at every
    # place of degree <= max_deg, t (no point) included
    alg = AlgebraParams(q)
    for pi in monic_irreducibles(alg.field, max_deg):
        assert split_certificate(alg, ResidueField(pi)) \
            == ref_split_point(alg, pi)


def test_unit_congruence_certificate():
    for q in (3, 5):
        assert unit_congruence_certificate(AlgebraParams(q))


def test_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams(2)
    with pytest.raises(ValueError):
        AlgebraParams(4)
    with pytest.raises(ValueError):
        AlgebraParams(3, level=0)
    alg = AlgebraParams(3)
    assert alg.eps == 2
    assert AlgebraParams(7).eps == 3


def test_parse_place_compatibility():
    # CLI place strings resolve to the monic irreducibles used here
    F = gf(3)
    assert parse_poly(F, "t-1") == Poly(F, (2, 1))
    assert parse_poly(F, "t^2+1") == Poly(F, (1, 0, 1))


# -- the shared-denominator kernels against per-coordinate RatFunc formulas --


def _ref_inverse(x):
    return x.conj().scale(ref_nrd(x).inverse())


def _random_den(F, rng, places):
    """1, c*t^k, pi^k or t^k * pi^l, so coordinates disagree."""
    kind = rng.randrange(4)
    k = rng.randrange(1, 4)
    if kind == 0:
        return Poly.one(F)
    if kind == 1:
        return Poly.t_power(F, k).scale(rng.randrange(1, F.q))
    pi = places[rng.randrange(len(places))]
    pik = Poly.one(F)
    for _ in range(rng.randrange(1, 3)):
        pik = pik * pi
    return pik if kind == 2 else pik * Poly.t_power(F, k)


def _rational_element(alg, rng):
    F = alg.field
    places = [p for p in monic_irreducibles(F, 2) if p != Poly.t(F)]
    coords = []
    for _ in range(4):
        if rng.randrange(5) == 0:
            coords.append(RatFunc.zero(F))
            continue
        num = Poly(F, tuple(rng.randrange(F.q) for _ in range(rng.randrange(1, 4))))
        coords.append(RatFunc(num, _random_den(F, rng, places)))
    return OrderElement(alg, *coords)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_shared_denominator_kernels_match_per_coordinate_formulas(q):
    alg = AlgebraParams(q)
    rng = random.Random(500 + q)
    F = alg.field
    t2 = RatFunc.t_power(F, -2)
    for _ in range(60):
        x, y = _rational_element(alg, rng), _rational_element(alg, rng)
        # equal denominators on every coordinate, and mixed t-powers
        same = x.scale(t2)
        for u, v in ((x, y), (y, x), (same, y), (x, same),
                     (random_element(alg, rng, denom=1), random_element(alg, rng))):
            assert u * v == ref_mul(u, v)
        for u in (x, y, same):
            n = u.nrd()
            assert n == ref_nrd(u)
            if u.is_zero():
                continue
            assert u.inverse() == _ref_inverse(u)
            assert u.inverse(n) == _ref_inverse(u)
        assert (x * y).nrd() == x.nrd() * y.nrd()


def _shared_denominator_mul(x, y):
    """The product as OrderElement.__mul__ computed it before the fused
    pass: one Poly formula per coordinate over D1*D2."""
    eps = x.alg.eps
    (a, b, c, d), D1 = x.nums, x.den
    (e, f, g, h), D2 = y.nums, y.den
    den = D1 * D2
    return OrderElement(
        x.alg,
        RatFunc(a * e + (b * f).scale(eps)
                + (c * g - (d * h).scale(eps)).shift(1), den),
        RatFunc(a * f + b * e + (d * g - c * h).shift(1), den),
        RatFunc(a * g + c * e + (b * h - d * f).scale(eps), den),
        RatFunc(a * h + d * e + b * g - c * f, den),
    )


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_fused_product_matches_the_per_coordinate_formula(q):
    # t-power denominators (witnesses, j-powers), general ones, zero
    # coordinates, and the sixteen basis products
    alg = AlgebraParams(q)
    rng = random.Random(700 + q)
    basis = [OrderElement.one(alg), OrderElement.i(alg), OrderElement.j(alg),
             OrderElement.ij(alg)]
    elements = basis + [quaternion._j_power(alg, k) for k in (-3, -1, 2)]
    for _ in range(40):
        elements.append(random_element(alg, rng, deg=rng.randrange(4),
                                       denom=rng.randrange(4)))
        elements.append(_rational_element(alg, rng))
    for x in elements:
        for y in rng.sample(elements, 12) + basis:
            assert x * y == _shared_denominator_mul(x, y)


def _assert_normal_form(x):
    """den monic and coprime to the numerators, and the RatFunc view
    rebuilds the same element."""
    assert x.den.is_monic()
    g = x.den
    for n in x.nums:
        g = g.gcd(n)
    assert g.is_one()
    again = OrderElement(x.alg, *coords(x))
    assert again == x
    assert hash(again) == hash(x)


def _ref_t_integral(x):
    return all(r.t_valuation() >= 0 for r in coords(x))


def _ref_infinity_integral(x):
    a, b, c, d = (r.valuation_at_infinity() for r in coords(x))
    return a >= 0 and b >= 0 and c >= 1 and d >= 1


def _ref_in_K1_infinity(x):
    a, b, c, d = coords(x)
    return ((a - RatFunc.one(x.alg.field)).valuation_at_infinity() >= 1
            and all(r.valuation_at_infinity() >= 1 for r in (b, c, d)))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_elements_are_stored_in_normal_form(q):
    alg = AlgebraParams(q)
    rng = random.Random(900 + q)
    F = alg.field
    places = [p for p in monic_irreducibles(F, 2) if p != Poly.t(F)]
    pi = places[0]
    for _ in range(40):
        x, y = _rational_element(alg, rng), _rational_element(alg, rng)
        num = Poly.zero(F)
        while num.is_zero():
            num = Poly(F, tuple(rng.randrange(F.q) for _ in range(3)))
        # a general denominator and c t^k, so both normalisations run
        rs = [RatFunc(num, _random_den(F, rng, places)),
              RatFunc(num, Poly.t_power(F, rng.randrange(1, 4)).scale(
                  rng.randrange(1, F.q)))]
        results = [x, y, x * y, y * x, x + y, x - y, x - x, -x, x.conj()]
        results += [x.scale(r) for r in rs]
        results += [z.inverse() for z in (x, y, x * y) if not z.is_zero()]
        for z in results:
            _assert_normal_form(z)
            assert t_integral(z) == _ref_t_integral(z)
            assert infinity_integral(z) == _ref_infinity_integral(z)
            assert z.in_K1_infinity() == _ref_in_K1_infinity(z)
        # one element built two ways is one normal form
        pairs = [(x.scale(r).scale(r.inverse()), x) for r in rs]
        pairs.append(((x + y) - y, x))
        # a factor pi common to every numerator and the denominator
        central = OrderElement.scalar(alg, RatFunc(pi))
        pairs.append(((x * central).scale(RatFunc(Poly.one(F), pi)), x))
        if not y.is_zero():
            pairs.append(((x * y) * y.inverse(), x))
        for u, v in pairs:
            assert u == v
            assert hash(u) == hash(v)
            assert (u.nums, u.den) == (v.nums, v.den)
    _assert_normal_form(OrderElement.zero(alg))
    assert OrderElement.zero(alg).den.is_one()


def test_j_power_is_the_repeated_product():
    for q in (3, 5, 9):
        alg = AlgebraParams(q)
        j = OrderElement.j(alg)
        jinv = j.scale(RatFunc.t_power(alg.field, -1))
        assert j * jinv == OrderElement.one(alg)
        for k in range(-7, 8):
            want = OrderElement.one(alg)
            for _ in range(abs(k)):
                want = want * (j if k > 0 else jinv)
            assert quaternion._j_power(alg, k) == want


def _assert_reduction_matches_reference(reduce, ref, seed):
    """reduce against ref on elements shifted by j, j^-1 and j^-3, with
    valuations of both signs and parities seen."""
    for q in (3, 5, 7):
        alg = AlgebraParams(q)
        rng = random.Random(seed + q)
        seen = set()
        j = OrderElement.j(alg)
        jinv = j.inverse()
        for _ in range(40):
            x = _rational_element(alg, rng)
            if x.is_zero():
                continue
            for shift in (j, jinv, jinv * jinv * jinv):
                z = shift * x
                red = reduce(z)
                assert red == ref(z)
                seen.add((red.k < 0, red.k % 2))
        assert seen == {(False, 0), (False, 1), (True, 0), (True, 1)}


def test_reduce_at_zero_at_odd_and_negative_valuations():
    _assert_reduction_matches_reference(reduce_at_zero, ref_reduce_at_zero, 600)


def test_reduce_at_infinity_at_odd_and_negative_valuations():
    _assert_reduction_matches_reference(reduce_at_infinity,
                                        ref_reduce_at_infinity, 800)


def test_reductions_reject_a_norm_off_by_a_square(monkeypatch):
    # a norm t^2 (t^-2) for x = 1 asks for the residue of 1/t (of t) at the
    # place, which the integrality bounds on the numerators refuse
    alg = AlgebraParams(3)
    for reduce, where, k in ((reduce_at_zero, "t", 2),
                             (reduce_at_infinity, "infinity", -2)):
        monkeypatch.setattr(OrderElement, "nrd",
                            lambda self, k=k: RatFunc.t_power(alg.field, k))
        with pytest.raises(ReductionError,
                           match=f"fails integrality at {where}$"):
            reduce(OrderElement.one(alg))


def test_residue_field_is_shared_per_q():
    # one cached F_q(i) per q: its generator search and dlog table are
    # built once
    assert AlgebraParams(5).residue is fq2(5)
    # the shared field reduces as a private one does
    alg = AlgebraParams(5)
    private = ResidueField(fq2(5).modulus)
    rng = random.Random(5)
    for _ in range(20):
        x = _rational_element(alg, rng)
        if x.is_zero():
            continue
        red = reduce_at_zero(x)
        assert red == ref_reduce_at_zero(x)
        assert red.exponent == private.dlog(red.residue)


def test_reduce_at_zero_rejects_a_wrong_residue_norm(monkeypatch):
    # a residue whose norm disagrees with nrd(x) trips the cross-check
    alg = AlgebraParams(3)
    K = alg.residue
    monkeypatch.setattr(type(K), "norm", lambda self, u: 0)
    with pytest.raises(ReductionError, match="residue norm"):
        reduce_at_zero(OrderElement.j(alg))


# -- certificate checks that python -O keeps --------------------------------


CERTIFICATE_TAMPERING = {
    "gram_determinant": (
        lambda mp, alg: mp.setattr(OrderElement, "trd",
                                   lambda self: self.a + self.b + self.c),
        gram_determinant),
    "maximality_certificate": (
        lambda mp, alg: mp.setattr(quaternion, "gram_determinant",
                                   lambda alg: RatFunc.one(alg.field)),
        maximality_certificate),
    "ramification_certificate": (
        lambda mp, alg: mp.setattr(quaternion, "split_certificate",
                                   lambda alg, pi: None),
        ramification_certificate),
    "unit_congruence_certificate": (
        lambda mp, alg: mp.setattr(OrderElement, "in_K1_infinity",
                                   lambda self: True),
        unit_congruence_certificate),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_TAMPERING))
def test_tampered_certificates_raise_falsification(monkeypatch, name):
    tamper, check = CERTIFICATE_TAMPERING[name]
    alg = AlgebraParams(3)
    tamper(monkeypatch, alg)
    with pytest.raises(FalsificationError) as exc:
        check(alg)
    assert str(exc.value)


def test_tampered_maximality_certificate_fails_under_dash_O():
    script = (
        "import sys\n"
        "import tjl.quaternion as Q\n"
        "from tjl.cyclotomic import FalsificationError\n"
        "alg = Q.AlgebraParams(3)\n"
        "Q.gram_determinant = lambda alg: Q.RatFunc.one(alg.field)\n"
        "try:\n"
        "    Q.maximality_certificate(alg)\n"
        "except FalsificationError as exc:\n"
        "    print(sys.flags.optimize, 'Gram determinant' in str(exc))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


def test_reduce_at_infinity_takes_one_norm(monkeypatch):
    alg = AlgebraParams(5)
    rng = random.Random(77)
    j = OrderElement.j(alg)
    cases = [j, j.inverse(), j.scale(RatFunc.t_power(alg.field, -1))]
    cases += [x for x in (_rational_element(alg, rng) for _ in range(30))
              if not x.is_zero()]
    expected = [reduce_at_infinity(x) for x in cases]
    assert {red.k % 2 for red in expected} == {0, 1}
    calls = []
    real = OrderElement.nrd
    monkeypatch.setattr(OrderElement, "nrd",
                        lambda self: calls.append(self) or real(self))
    for x, red in zip(cases, expected):
        calls.clear()
        assert reduce_at_infinity(x) == red
        assert len(calls) == 1


def test_reduce_at_infinity_rejects_a_wrong_residue_norm(monkeypatch):
    # a residue whose norm disagrees with nrd(x) trips the cross-check
    alg = AlgebraParams(3)
    K = alg.residue
    monkeypatch.setattr(type(K), "norm", lambda self, u: 0)
    with pytest.raises(ReductionError, match="residue norm"):
        reduce_at_infinity(OrderElement.j(alg))
