"""Reference computations that several test files check tjl against."""

from collections import Counter
from itertools import product

from tjl.adelic import SplitComponent, group_of, witness_set
from tjl.cyclotomic import Cyc, FalsificationError
from tjl.funcfield import INF, Poly, RatFunc, format_poly
from tjl.metacyclic import Irrep
from tjl.quaternion import (LocalReduction, OrderElement, _j_power,
                            reduce_at_infinity, reduce_at_zero)


def xgcd(a, b):
    """(g, u, v) with u*a + v*b = g monic (or zero), by extended Euclid."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = F.inv(r0.lead)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def ref_generator_walk(modulus):
    """The antilog table of F_q[x]/modulus, elements encoded as the ints
    sum c_k q^k, by the walk that tries each candidate in index order, a
    Poly product per power, until one reaches every unit before 1; None
    when none does."""
    F = modulus.field
    q, order = F.q, F.q ** modulus.degree - 1

    def index(x):
        return sum(c * q ** k for k, c in enumerate(x.coeffs))

    for g in range(1, order + 1):
        gen = Poly(F, [g // q ** k % q for k in range(modulus.degree)])
        walk, x = [1], gen
        while not x.is_one() and len(walk) < order:
            walk.append(index(x))
            x = x * gen % modulus
        if x.is_one() and len(walk) == order:
            return walk
    return None


def ref_split_point(alg, pi):
    """The first (x, y) != (0, 0) in canonical (constant-first lex) order
    with x^2 - eps y^2 = t mod pi, by trying all q^(2 deg pi) residue pairs,
    or None."""
    F = pi.field
    eps = Poly.constant(F, alg.eps)
    t = Poly.t(F)
    residues = [Poly(F, cs) for cs in product(range(F.q), repeat=pi.degree)]
    for x in residues:
        for y in residues:
            if x.coeffs or y.coeffs:  # only smooth points count
                if ((x * x - eps * y * y - t) % pi).is_zero():
                    return x, y
    return None


def reduce_mod(r, pi, power):
    """The image of the RatFunc r in F_q[t]/power (power = pi^k), by one
    extended Euclid; the denominator of r must be a unit at pi."""
    if r.is_zero():
        return Poly.zero(r.field)
    if not (r.den.valuation(pi) == 0):
        raise ValueError("denominator not a unit at the place")
    g, u, _ = xgcd(r.den, power)
    if not g.is_one():
        raise FalsificationError(
            f"denominator {format_poly(r.den)} is not invertible "
            f"modulo {format_poly(power)}")
    return (r.num * u) % power


def coords(x):
    """The four coordinates of the OrderElement x as RatFuncs."""
    return tuple(RatFunc(n, x.den) for n in x.nums)


def value_at_zero(r):
    """The value of the RatFunc r at t = 0 (ValueError at a pole)."""
    v = r.t_valuation()
    if v == INF or v > 0:
        return 0
    if v < 0:
        raise ValueError("pole at t=0")
    a = r.num.coeffs[r.num.t_valuation()]
    b = r.den.coeffs[r.den.t_valuation()]
    return r.field.div(a, b)


def value_at_infinity(r):
    """The value of the RatFunc r at infinity (ValueError at a pole)."""
    v = r.valuation_at_infinity()
    if v == INF or v > 0:
        return 0
    if v < 0:
        raise ValueError("pole at infinity")
    return r.field.div(r.num.lead, r.den.lead)


def t_integral(x):
    """Whether the OrderElement x is integral at t.  No prime divides the
    denominator and every numerator of the normal form, so this is
    whether t does not divide the denominator."""
    return x.den.coeffs[0] != 0


def infinity_integral(x):
    """Membership of x in the maximal order at infinity: every entry of
    the unramified coordinate frame (a, b, tc, td) is integral there.  A
    coordinate's valuation at infinity is deg den - deg numerator."""
    e = x.den.degree
    a, b, c, d = x.nums
    return a.degree <= e and b.degree <= e and c.degree < e and d.degree < e


def ref_mul(x, y):
    """The quaternion product by per-coordinate RatFunc formulas."""
    F = x.alg.field
    eps = RatFunc.constant(F, x.alg.eps)
    t = RatFunc.t_power(F, 1)
    a, b, c, d = coords(x)
    e, f, g, h = coords(y)
    return OrderElement(
        x.alg,
        a * e + eps * b * f + t * c * g - eps * t * d * h,
        a * f + b * e - t * c * h + t * d * g,
        a * g + c * e + eps * b * h - eps * d * f,
        a * h + d * e + b * g - c * f,
    )


def ref_nrd(x):
    """The reduced norm by a per-coordinate RatFunc formula."""
    F = x.alg.field
    eps = RatFunc.constant(F, x.alg.eps)
    t = RatFunc.t_power(F, 1)
    a, b, c, d = coords(x)
    return a * a - eps * b * b - t * c * c + eps * t * d * d


def ref_reduce_at_zero(x):
    """v_t(nrd x), and the residue of j^{-k} x, built by k products, with
    its integrality and its norm checked on a second full norm."""
    alg = x.alg
    k = ref_nrd(x).t_valuation()
    y = OrderElement.scalar(alg, RatFunc.one(alg.field))
    jinv = OrderElement.j(alg).scale(RatFunc.t_power(alg.field, -1))
    for _ in range(abs(k)):
        y = ref_mul(y, jinv if k > 0 else OrderElement.j(alg))
    y = ref_mul(y, x)
    assert t_integral(y)
    K = alg.residue
    u = K.element(value_at_zero(y.a), value_at_zero(y.b))
    assert K.norm(u) == value_at_zero(ref_nrd(y))
    return LocalReduction("zero", k, u, K.dlog(u))


def ref_reduce_at_infinity(x):
    """v_inf(nrd x), and the residue of (j/t)^{-k} x, built by k products,
    with its integrality and its norm checked on a second full norm;
    (j/t)^{-1} = j."""
    alg = x.alg
    k = ref_nrd(x).valuation_at_infinity()
    y = OrderElement.scalar(alg, RatFunc.one(alg.field))
    j_over_t = OrderElement.j(alg).scale(RatFunc.t_power(alg.field, -1))
    for _ in range(abs(k)):
        y = ref_mul(y, OrderElement.j(alg) if k > 0 else j_over_t)
    y = ref_mul(y, x)
    assert infinity_integral(y)
    K = alg.residue
    u = K.element(value_at_infinity(y.a), value_at_infinity(y.b))
    assert K.norm(u) == value_at_infinity(ref_nrd(y))
    return LocalReduction("infinity", k, u, K.dlog(u))


def ref_factorize_adele(alg, state):
    """The peeling that divides every split component by every divisor and
    multiplies the components at t and infinity by each divisor's inverse
    as it goes, on copies: state is left as it is.  Returns (class, rho,
    zero, infinity, peeled), where peeled maps each place whose component
    needed peeling to its (mat, precision) when its own peeling ended."""
    G = group_of(alg)
    comps = {pi: SplitComponent(c.sp, c.mat,
                                min(c.det_valuation() + 2, c.precision))
             for pi, c in state.split.items()}
    zero, infinity, rho = state.zero, state.infinity, OrderElement.one(alg)
    peeled = {}
    for pi in sorted(comps, key=lambda p: (p.degree, p.coeffs)):
        comp, ws = comps[pi], witness_set(alg, pi)
        while comp.det_valuation() > 0:
            if all((e % pi).is_zero() for e in comp.mat):
                x = OrderElement.scalar(alg, RatFunc(pi))
            else:
                x = ws.by_left[comp.sp.identify_left_coset(comp.mat)].element
            inv = x.inverse()
            zero, infinity, rho = zero * inv, infinity * inv, rho * inv
            for c in comps.values():
                c.right_divide(x, x.nrd())
            peeled[pi] = (comp.mat, comp.precision)
    r = reduce_at_infinity(infinity)
    gamma_f = (OrderElement.teichmuller(alg, alg.residue.inv(r.residue))
               * _j_power(alg, r.k))
    zero, infinity, rho = zero * gamma_f, infinity * gamma_f, rho * gamma_f
    assert infinity.in_K1_infinity()
    assert all(c.is_unit() for c in comps.values())
    return (reduce_at_zero(zero).to_gamma(G.R, G.M), rho, zero, infinity,
            peeled)


def ref_orthonormality(group, rows):
    """The row pairs of the all-pairs orthonormality loop: every (a, b)
    with a <= b, in lex order.  `tjl irreps` run with these pairs in place
    of metacyclic.orthonormality_pairs computes every inner product of the
    table, with no symmetry taken on trust."""
    return [(a, b) for a in range(len(rows)) for b in range(a, len(rows))]


def ref_character(group, label, g):
    """The character of label at g as the trace of the monomial model:
    the diagonal entries of Irrep.monomial(g), one term each."""
    rep = Irrep(group, label)
    perm, exps = rep.monomial(g)
    return Cyc(rep.m, Counter(x for j, (i, x) in enumerate(zip(perm, exps))
                              if i == j))


def ref_restriction(group, label):
    """The multiplicity of each chi_c, c in Z/M, in the restriction of
    label to the pairs (0, e), as a list indexed by c: the inner product
    (1/M) sum_e tr(0, e) zeta_M^(-c e), with tr(0, e) read off the diagonal
    of Irrep.monomial((0, e)) and all M f terms of each c in one exponent
    histogram, reduced once.  No root sum and no support is used."""
    M, rep = group.M, Irrep(group, label)
    step = rep.m // M  # the diagonal at k = 0 lies in Q(zeta_M)
    diagonals = [[x // step for x in rep.monomial((0, e))[1]]
                 for e in range(M)]
    return [Cyc(M, Counter((x - c * e) % M for e, xs in enumerate(diagonals)
                           for x in xs)).to_rational() / M
            for c in range(M)]
