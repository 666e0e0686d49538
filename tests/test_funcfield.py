"""Tests for finite fields, polynomials over F_q, and rational functions."""

from __future__ import annotations

import random
import subprocess
import sys
from itertools import product

import pytest

from oracles import (reduce_mod, ref_generator_walk, value_at_infinity,
                     value_at_zero, xgcd)
from tjl.cyclotomic import FalsificationError
from tjl.funcfield import (
    GF,
    INF,
    Poly,
    RatFunc,
    ResidueField,
    format_poly,
    fq2,
    gf,
    is_irreducible,
    is_prime_power,
    monic_irreducibles,
    parse_poly,
    prime_power_decomposition,
)


def test_prime_power_decomposition():
    assert prime_power_decomposition(2) == (2, 1)
    assert prime_power_decomposition(4) == (2, 2)
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(5) == (5, 1)
    assert prime_power_decomposition(6) is None
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None
    assert is_prime_power(27) and not is_prime_power(10)


def test_field_axioms_all_small_fields():
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = gf(q)
        els = range(q)
        for a in els:
            assert F.add(a, 0) == a and F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_canonical_moduli():
    # first monic irreducible in lexicographic coefficient order, constant first
    assert gf(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert gf(8).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert gf(9).modulus == (1, 0, 1)  # x^2 + 1


def test_smallest_nonsquare():
    assert gf(3).smallest_nonsquare == 2
    assert gf(5).smallest_nonsquare == 2
    assert gf(7).smallest_nonsquare == 3
    for q in (3, 5, 7, 9):
        F = gf(q)
        eps = F.smallest_nonsquare
        assert not F.is_square(eps)
        assert all(F.is_square(a) for a in range(eps))
        # exactly (q-1)/2 nonzero squares
        assert sum(1 for a in range(1, q) if F.is_square(a)) == (q - 1) // 2


def test_generator_and_orders():
    # the unit group is cyclic: some unit's powers run through all q - 1
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = gf(q)
        cyclic = False
        for g in range(1, q):
            seen = set()
            x = 1
            for _ in range(q - 1):
                seen.add(x)
                x = F.mul(x, g)
            assert x == 1   # g^(q-1) = 1
            cyclic = cyclic or seen == set(range(1, q))
        assert cyclic


def test_poly_divmod_roundtrip():
    rng = random.Random(11)
    for q in (2, 3, 5, 9):
        F = gf(q)
        for _ in range(60):
            a = Poly(F, [rng.randrange(q) for _ in range(rng.randrange(8))])
            b = Poly(F, [rng.randrange(q) for _ in range(1 + rng.randrange(5))])
            if b.is_zero():
                continue
            quo, rem = a.divmod(b)
            assert quo * b + rem == a
            assert rem.is_zero() or rem.degree < b.degree


def test_poly_xgcd_identity():
    rng = random.Random(12)
    F = gf(3)
    for _ in range(50):
        a = Poly(F, [rng.randrange(3) for _ in range(rng.randrange(7))])
        b = Poly(F, [rng.randrange(3) for _ in range(rng.randrange(7))])
        g, u, v = xgcd(a, b)
        assert u * a + v * b == g
        if not (a.is_zero() and b.is_zero()):
            assert g.is_monic()
            assert g.divides(a) and g.divides(b)
            assert (a % g).is_zero() and (b % g).is_zero()


def _evaluate(poly, x):
    """poly(x) by Horner's rule."""
    F = poly.field
    out = 0
    for c in reversed(poly.coeffs):
        out = F.add(F.mul(out, x), c)
    return out


def test_poly_evaluate_is_homomorphism():
    rng = random.Random(13)
    F = gf(5)
    for _ in range(40):
        a = Poly(F, [rng.randrange(5) for _ in range(rng.randrange(6))])
        b = Poly(F, [rng.randrange(5) for _ in range(rng.randrange(6))])
        x = rng.randrange(5)
        assert _evaluate(a * b, x) == F.mul(_evaluate(a, x), _evaluate(b, x))
        assert _evaluate(a + b, x) == F.add(_evaluate(a, x), _evaluate(b, x))


def test_monic_irreducible_counts():
    # counts must match (1/d) sum_{e|d} mu(d/e) q^e
    def necklaces(q, d):
        from math import prod

        def mu(m):
            if m == 1:
                return 1
            out, mm = 1, m
            p = 2
            while p * p <= mm:
                if mm % p == 0:
                    mm //= p
                    if mm % p == 0:
                        return 0
                    out = -out
                p += 1
            if mm > 1:
                out = -out
            return out

        divs = [e for e in range(1, d + 1) if d % e == 0]
        return sum(mu(d // e) * q**e for e in divs) // d

    for q in (2, 3, 5):
        F = gf(q)
        polys = monic_irreducibles(F, 4)
        for d in (1, 2, 3, 4):
            got = sum(1 for g in polys if g.degree == d)
            assert got == necklaces(q, d)
        assert all(g.is_monic() and is_irreducible(g) for g in polys)


def test_monic_irreducible_order():
    F = gf(3)
    got = [format_poly(g) for g in monic_irreducibles(F, 2)[:6]]
    assert got == ["t", "t+1", "t+2", "t^2+1", "t^2+t+2", "t^2+2t+2"]


def test_is_irreducible_examples():
    F = gf(3)
    assert is_irreducible(parse_poly(F, "t^2+1"))
    assert not is_irreducible(parse_poly(F, "t^2+2"))  # (t+1)(t+2)
    assert not is_irreducible(parse_poly(F, "t^2"))
    assert is_irreducible(parse_poly(F, "t"))
    F2 = gf(2)
    assert is_irreducible(parse_poly(F2, "t^2+t+1"))
    assert not is_irreducible(parse_poly(F2, "t^2+1"))
    # reducible with no factor below degree 5: a square and a product of
    # two distinct irreducibles
    polys = monic_irreducibles(F, 6)
    g = next(f for f in polys if f.degree == 5)
    h = next(f for f in polys if f.degree == 6)
    assert is_irreducible(g) and is_irreducible(h)
    assert not is_irreducible(g * g)
    assert not is_irreducible(g * h)


@pytest.mark.parametrize("q, max_deg", [(2, 6), (3, 5), (4, 3), (5, 4),
                                        (9, 3)])
def test_is_irreducible_agrees_with_the_enumeration(q, max_deg):
    # Ben-Or's gcd test against membership in the trial-division
    # enumeration, on every monic polynomial of degree <= max_deg and on a
    # non-monic multiple of each
    F = gf(q)
    irreducible = set(monic_irreducibles(F, max_deg))
    for d in range(max_deg + 1):
        for tail in product(range(q), repeat=d):
            f = Poly(F, tail + (1,))
            assert is_irreducible(f) == (f in irreducible), f
            assert is_irreducible(f.scale(q - 1)) == (f in irreducible), f


def test_parse_poly():
    F = gf(3)
    assert parse_poly(F, "t^2+2t+1").coeffs == (1, 2, 1)
    assert parse_poly(F, "t-1").coeffs == (2, 1)
    assert parse_poly(F, "t").coeffs == (0, 1)
    assert parse_poly(F, "2").coeffs == (2,)
    assert parse_poly(F, "t^3 - t").coeffs == (0, 2, 0, 1)
    assert parse_poly(F, "-t+1").coeffs == (1, 2)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_parse_poly_reads_format_poly_back(q):
    # a coefficient is a field-element index, as format_poly writes it
    F = gf(q)
    for p in monic_irreducibles(F, 2):
        assert parse_poly(F, format_poly(p)) == p, format_poly(p)


def test_parse_poly_reads_element_indices():
    F = gf(9)
    assert parse_poly(F, "t+4").coeffs == (4, 1)
    assert parse_poly(F, "4t^2").coeffs == (0, 0, 4)
    assert parse_poly(F, "t-4").coeffs == (F.neg(4), 1)
    for text in ("t+9", "t-9", "10t+1"):
        with pytest.raises(ValueError, match="not an element index 0..8"):
            parse_poly(F, text)


def test_ratfunc_field_axioms():
    rng = random.Random(14)
    F = gf(3)

    def rand_rf():
        num = Poly(F, [rng.randrange(3) for _ in range(rng.randrange(4))])
        den = Poly.zero(F)
        while den.is_zero():
            den = Poly(F, [rng.randrange(3) for _ in range(1 + rng.randrange(3))])
        return RatFunc(num, den)

    for _ in range(40):
        x, y, z = rand_rf(), rand_rf(), rand_rf()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x - x).is_zero()
        if not x.is_zero():
            assert x * x.inverse() == RatFunc.one(F)


def test_ratfunc_valuations():
    F = gf(3)
    t = Poly.t(F)
    x = RatFunc(parse_poly(F, "t^2"), parse_poly(F, "t+1"))
    assert x.valuation(t) == 2 and x.t_valuation() == 2
    assert x.valuation(parse_poly(F, "t+1")) == -1
    assert x.valuation_at_infinity() == -1
    assert RatFunc.zero(F).valuation(t) == INF
    y = RatFunc.t_power(F, -3)
    assert y.t_valuation() == -3 and y.valuation_at_infinity() == 3


def test_ratfunc_values():
    F = gf(3)
    x = RatFunc(parse_poly(F, "t+1"), parse_poly(F, "t+2"))
    assert value_at_zero(x) == F.div(1, 2)
    assert value_at_infinity(x) == 1
    y = RatFunc(parse_poly(F, "2t^2+1"), parse_poly(F, "t^2+t"))
    assert value_at_infinity(y) == 2
    z = RatFunc(parse_poly(F, "t"), parse_poly(F, "t^2+1"))
    assert value_at_zero(z) == 0 and value_at_infinity(z) == 0


def test_ratfunc_reduce_mod():
    F = gf(3)
    t = Poly.t(F)
    x = RatFunc(Poly.one(F), parse_poly(F, "1+t"))
    red = reduce_mod(x, t, Poly.t_power(F, 3))
    # 1/(1+t) = 1 - t + t^2 mod t^3
    assert red.coeffs == (1, 2, 1)
    prod = (red * parse_poly(F, "1+t")) % Poly.t_power(F, 3)
    assert prod.is_one()


def _schoolbook_mul(F, x, y):
    """(a + b i)(c + d i) = (ac + eps bd) + (ad + bc) i, on (a, b) pairs."""
    (a, b), (c, d) = x, y
    eps = F.smallest_nonsquare
    return (F.add(F.mul(a, c), F.mul(eps, F.mul(b, d))),
            F.add(F.mul(a, d), F.mul(b, c)))


def _power(K, x, k):
    """x^k in K by k multiplications."""
    out = 1
    for _ in range(k):
        out = K.mul(out, x)
    return out


def test_fq2_arithmetic_is_schoolbook_on_a_plus_qb():
    for q in (3, 5, 7):
        K, F = fq2(q), gf(q)
        for x in range(q * q):
            for y in range(q * q):
                want = _schoolbook_mul(F, divmod(x, q)[::-1],
                                       divmod(y, q)[::-1])
                assert K.mul(x, y) == K.element(*want)


def test_fq2_norm_and_frobenius():
    for q in (3, 5, 7):
        K = fq2(q)
        F = K.base
        for x in range(K.order + 1):
            assert K.conj(x) == _power(K, x, q)  # conj is the Frobenius
            a, b = x % q, x // q
            assert K.conj(x) == K.element(a, F.neg(b))
            if x:
                n = K.norm(x)
                nx = _power(K, x, q + 1)
                assert nx == K.element(n, 0)  # norm = x^(q+1)
                assert K.mul(x, K.inv(x)) == 1
            for y in range(K.order + 1):
                assert K.norm(K.mul(x, y)) == F.mul(K.norm(x), K.norm(y))


def test_fq2_generator_is_the_first_of_full_order():
    # the first element a + q b in index order whose powers, taken by
    # schoolbook a + b i products, reach every unit before 1
    for q in (3, 5, 7, 9):
        F, full = gf(q), q * q - 1
        for x in range(1, q * q):
            g = (x % q, x // q)
            power, order = g, 1
            while power != (1, 0):
                power, order = _schoolbook_mul(F, power, g), order + 1
            if order == full:
                break
        assert fq2(q).from_dlog(1) == x


def test_fq2_dlog():
    for q in (3, 5):
        K = fq2(q)
        full = q * q - 1
        assert len({K.from_dlog(k) for k in range(full)}) == full
        for x in range(1, K.order + 1):
            k = K.dlog(x)
            assert K.from_dlog(k) == x
            assert 0 <= k < full
        assert K.dlog(1) == 0
        # units of the base field sit at multiples of (q+1)
        for a in range(1, q):
            assert K.dlog(K.element(a, 0)) % (q + 1) == 0


def test_fq2_norm_surjective_onto_base_units():
    # the norm map F_{q^2}* -> F_q* is onto (kernel of size q+1)
    for q in (3, 5, 7):
        K = fq2(q)
        norms = {K.norm(x) for x in range(1, K.order + 1)}
        assert norms == set(range(1, q))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_residue_field_at_each_place_is_poly_arithmetic_mod_pi(q):
    F, rng = gf(q), random.Random(q)
    for pi in monic_irreducibles(F, 2):
        R = ResidueField(pi)
        size = q ** pi.degree
        assert R.order == size - 1
        residues = [Poly(F, cs) for cs in product(range(q),
                                                   repeat=pi.degree)]
        # the residue c_0 + c_1 t + ... is the int c_0 + c_1 q + ..., and
        # decoding an int gives back the Poly's coefficients
        assert sorted(R.index(r) for r in residues) == list(range(size))
        for r in residues:
            assert R.index(r) == sum(c * q ** k
                                     for k, c in enumerate(r.coeffs))
        for x in range(size):
            assert R.index(Poly(F, R.coeffs(x))) == x
            assert R.coeffs(x) == Poly(F, R.coeffs(x)).coeffs
        assert len({R.from_dlog(k) for k in range(R.order)}) == R.order
        # r / s read back as a Poly times s is r mod pi: for every unit s
        # over r = 1, for every r over the generator, and at random pairs
        gen = Poly(F, R.coeffs(R.from_dlog(1)))
        units = residues[1:]
        pairs = ([(Poly.one(F), s) for s in units]
                 + [(r, gen) for r in residues]
                 + [(rng.choice(residues), rng.choice(units))
                    for _ in range(100)])
        for r, s in pairs:
            quot = Poly(F, R.coeffs(R.div(R.index(r), R.index(s))))
            assert (quot * s) % pi == r
            assert R.mul(R.index(quot), R.index(s)) == R.index(r)


def test_generator_by_its_order_matches_the_walk_over_every_candidate():
    # every field a default run builds at q <= 9 (F_q(i), and F_q[t]/pi at
    # degree <= 2), and F_27 and F_81 over F_3: the same first generator,
    # so the same tables
    fields = [fq2(q) for q in (3, 5, 7, 9)]
    for q in (3, 5, 7, 9):
        fields += [ResidueField(pi) for pi in monic_irreducibles(gf(q), 2)]
    fields += [ResidueField(pi) for pi in monic_irreducibles(gf(3), 4)
               if pi.degree > 2]
    assert {R.order + 1 for R in fields} >= {9, 25, 49, 81, 27}
    for R in fields:
        assert R._exp == ref_generator_walk(R.modulus)


def test_reducible_modulus_has_no_generator():
    F = gf(3)
    with pytest.raises(FalsificationError, match="has no generator"):
        ResidueField(parse_poly(F, "t^2+2"))
    # a zero divisor passes the order test and its walk does not close; a
    # reducible modulus of any shape fails as the walk over every candidate
    # does
    for name in ("t^2", "t^2+2t+1", "t^3+t", "t^4+2", "t^3"):
        assert ref_generator_walk(parse_poly(F, name)) is None
        with pytest.raises(FalsificationError, match="has no generator"):
            ResidueField(parse_poly(F, name))


def test_reducible_modulus_fails_under_dash_O():
    script = (
        "import sys\n"
        "from tjl.cyclotomic import FalsificationError\n"
        "from tjl.funcfield import ResidueField, gf, parse_poly\n"
        "try:\n"
        "    ResidueField(parse_poly(gf(3), 't^2+2'))\n"
        "except FalsificationError as exc:\n"
        "    print(sys.flags.optimize, 'no generator' in str(exc))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


# -- the fast paths against plain references ---------------------------

FAST_PATH_QS = (2, 3, 4, 5, 7, 9)


def _rand_poly(F, rng, max_len):
    return Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(max_len + 1))])


def _ref_mul(F, a, b):
    """Schoolbook product of coefficient tuples through F.add / F.mul."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _ref_add(F, a, b):
    n = max(len(a), len(b))
    out = [F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _general_normal_form(num, den):
    """num/den reduced by Poly.gcd and made monic: the general path."""
    F = num.field
    if num.is_zero():
        return num, Poly.one(F)
    g = num.gcd(den)
    num, den = num // g, den // g
    c = F.inv(den.lead)
    return num.scale(c), den.scale(c)


def test_poly_kernels_match_references():
    rng = random.Random(31)
    for q in FAST_PATH_QS:
        F = gf(q)
        for _ in range(150):
            a, b = _rand_poly(F, rng, 7), _rand_poly(F, rng, 7)
            assert (a * b).coeffs == _ref_mul(F, a.coeffs, b.coeffs)
            assert (a + b).coeffs == _ref_add(F, a.coeffs, b.coeffs)
            assert (a - b).coeffs == _ref_add(
                F, a.coeffs, tuple(F.neg(y) for y in b.coeffs))
            assert (a - b + b) == a
            if b.is_zero():
                continue
            quo, rem = a.divmod(b)
            # q*d + r == a, checked with the reference kernels
            assert _ref_add(F, _ref_mul(F, quo.coeffs, b.coeffs),
                            rem.coeffs) == a.coeffs
            assert rem.is_zero() or rem.degree < b.degree
            assert (a % b, a // b) == (rem, quo)
        # a divisor of higher degree leaves everything in the remainder
        a = Poly(F, (1, 1))
        assert a.divmod(Poly.t_power(F, 3)) == (Poly.zero(F), a)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_poly_mod_is_the_divmod_remainder(q):
    # % builds no quotient; its remainder is divmod's, also for a divisor of
    # higher degree, a constant divisor and a monic one
    F = gf(q)
    rng = random.Random(40 + q)
    zero = Poly.zero(F)
    for _ in range(150):
        a, d = _rand_poly(F, rng, 9), _rand_poly(F, rng, 5)
        for den in (d, d.monic(), Poly.t_power(F, 1 + rng.randrange(10))):
            if den.is_zero():
                continue
            assert a % den == a.divmod(den)[1]
            if a.degree < den.degree:
                assert a % den is a
        for x in (a, zero):
            with pytest.raises(ZeroDivisionError):
                x % zero
            with pytest.raises(ZeroDivisionError):
                x.divmod(zero)


def test_poly_mul_by_constant_is_scale():
    rng = random.Random(32)
    for q in FAST_PATH_QS:
        F = gf(q)
        for _ in range(40):
            a = _rand_poly(F, rng, 6)
            for c in range(q):
                const = Poly.constant(F, c)
                assert a * const == a.scale(c) == const * a
                assert (a * const).coeffs == _ref_mul(F, a.coeffs, const.coeffs)


@pytest.mark.parametrize("q", [3, 9])
def test_poly_mul_by_zero_is_zero(q):
    F = gf(q)
    rng = random.Random(q)
    zero = Poly.zero(F)
    for a in [zero, Poly.one(F), Poly.t(F)] + [_rand_poly(F, rng, 5)
                                                for _ in range(10)]:
        assert a * zero == zero == zero * a
        assert (a * zero).coeffs == () == (zero * a).coeffs


def test_ratfunc_normal_form_matches_general_gcd():
    rng = random.Random(33)
    for q in FAST_PATH_QS:
        F = gf(q)
        dens = [Poly.one(F)]
        # den = c*t^k with c != 1 (where the field has one) and k = 0..3
        for k in range(4):
            for c in range(1, q):
                dens.append(Poly.t_power(F, k).scale(c))
        for _ in range(20):
            den = _rand_poly(F, rng, 5)
            if not den.is_zero():
                dens.append(den)
        for den in dens:
            k = den.degree if den.coeffs.count(0) == den.degree else None
            for _ in range(6):
                num = _rand_poly(F, rng, 5)
                if k is not None and not num.is_zero():
                    # v_t(num) below, equal to and above k
                    num = num.shift(rng.choice((0, k, k + 1, k + 3)))
                x = RatFunc(num, den)
                assert (x.num, x.den) == _general_normal_form(num, den)
                assert x.den.is_monic()
                assert x.num.gcd(x.den).is_one() or x.num.is_zero()


def test_ratfunc_same_denominator_sum_is_the_cross_multiplied_sum():
    rng = random.Random(34)
    for q in FAST_PATH_QS:
        F = gf(q)
        for _ in range(60):
            den = Poly.zero(F)
            while den.is_zero():
                den = _rand_poly(F, rng, 3)
            x = RatFunc(_rand_poly(F, rng, 4), den)
            # (n + p*d)/d is reduced when n/d is; with n negated, the sum
            # is the polynomial p, so the shared denominator cancels
            p = _rand_poly(F, rng, 3)
            n = x.num if rng.randrange(2) else -x.num
            y = RatFunc(n + p * x.den, x.den)
            assert x.den == y.den
            cross = RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)
            assert x + y == cross
            assert x - y == RatFunc(x.num * y.den - y.num * x.den,
                                    x.den * y.den)


def test_bad_field_arguments_raise_value_error():
    with pytest.raises(ValueError, match="characteristic-2"):
        fq2(4)


def _no_negatives(F):
    F._add = [[1] * F.q for _ in range(F.q)]
    return F._solve_neg(0)


def _only_squares(F):
    F.is_square = lambda a: True
    return F.smallest_nonsquare


def _no_generator_fq2(F):
    # 1 passes for the non-square eps, and x^2 - 1 is reducible
    F.is_square = lambda a: a != 1
    return ResidueField(Poly(F, (F.neg(F.smallest_nonsquare), 0, 1)))


@pytest.mark.parametrize("tamper", [_no_negatives, _only_squares,
                                    _no_generator_fq2])
def test_tampered_field_tables_raise_falsification(tamper):
    F = GF(5)   # a private instance: the cached gf(5) stays intact
    with pytest.raises(FalsificationError) as exc:
        tamper(F)
    assert str(exc.value)
