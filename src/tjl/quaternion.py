"""Exact arithmetic in the quaternion algebra i^2 = eps, j^2 = t, ji = -ij
over the rational function field F_q(t), q odd.

The algebra is ramified exactly at the place t and at infinity (eps a
non-square makes the residue norm form anisotropic there; at every other
place the conic x^2 - eps y^2 = t has a smooth point, its y a square root
read in the log table of the residue field).  The standard order spanned by
1, i, j, ij over F_q[t] is maximal: its reduced discriminant is (t).

Reduction at a ramified place sends x to (k, u): k the valuation of nrd(x)
and u the residue after dividing out the k-th uniformizer power on the left
(j at t, j/t at infinity), read off the numerators of x with one norm and
no quaternion product (_reduce).

Elements are stored as four numerator polynomials over one monic
denominator, in the normal form that OrderElement describes, and every
operation normalises its result once, through funcfield.normal_form: over
a denominator c t^k that is a shift by the least t-valuation of the
numerators, over any other one gcd chain through the numerators that stops
as soon as it reaches a constant.
A product is one table-driven pass over the numerators, with denominator
D1*D2: each of the 16 products of basis elements is c t^s e_(x XOR y) with
c = +-1 or +-eps and s = 0 or 1, so every numerator product is added,
scaled by c and shifted by s, straight into the coefficient list of its
output numerator.  Norms and inverses are plain F_q[t] products; eps is a
scaling and t a shift.  This is exact: the normal form is unique, so every
coordinate, hash and certificate is the same as with per-coordinate
RatFunc arithmetic.
"""

from __future__ import annotations

from itertools import product

from .cyclotomic import FalsificationError, FrozenRecord, require
from .funcfield import (GF, Poly, RatFunc, ResidueField, format_poly, fq2, gf,
                        monic_irreducibles, normal_form)


class NotInvertibleError(ZeroDivisionError):
    pass


class ReductionError(ValueError):
    pass


class AlgebraParams(FrozenRecord):
    """q odd prime power, eps the canonical non-square, level N for the
    arithmetic quotient at t."""

    __slots__ = ("q", "level", "eps")

    def __init__(self, q: int, level: int = 1):
        F = gf(q)
        if F.p == 2:
            raise ValueError("the algebra needs odd characteristic")
        if level < 1:
            raise ValueError("level must be positive")
        self._set(q, level, F.smallest_nonsquare)

    def __reduce__(self):
        # eps is derived from q, so copy and pickle rebuild from (q, level)
        return AlgebraParams, (self.q, self.level)

    @property
    def field(self) -> GF:
        return gf(self.q)

    @property
    def residue(self) -> ResidueField:
        return fq2(self.q)


class LocalReduction(FrozenRecord):
    """Class of a local unit group coset: uniformizer power k and residue
    unit u in F_{q^2}^*, an element of alg.residue, with its discrete log."""

    __slots__ = ("place", "k", "residue", "exponent")

    def __init__(self, place: str, k: int, residue: int, exponent: int):
        # place is "zero" or "infinity"
        self._set(place, k, residue, exponent)

    def to_gamma(self, R: int, M: int) -> tuple[int, int]:
        return (self.k % R, self.exponent % M)


class OrderElement:
    """Quaternion (A + B i + C j + D ij) / den with A, B, C, D and den in
    F_q[t], held as the numerators `nums` = (A, B, C, D) and `den`.

    The stored form is normal: den is monic and gcd(den, A, B, C, D) = 1
    (zero is 0/1).  It is unique.  If N/M = N'/M' are both normal, then
    N M' = N' M entry by entry, so M divides every entry of N M'; as M is
    coprime to the gcd of N's entries, M | M'.  Likewise M' | M, and both
    are monic, so M = M' and then N = N'.  Equality, hashing and every
    certificate therefore compare (nums, den) exactly.

    OrderElement(alg, a, b, c, d) takes RatFunc coordinates and writes them
    over the monic lcm of their denominators, which is already normal: at
    a prime p of the lcm, the coordinate whose denominator holds the
    highest power of p keeps a numerator prime to p.  The properties .a to
    .d read the coordinates back as RatFuncs.

    Instances with denominator 1 are order elements proper; general
    rational coordinates appear in witness products and local computations.
    """

    __slots__ = ("alg", "nums", "den")

    def __init__(self, alg: AlgebraParams, a: RatFunc, b: RatFunc, c: RatFunc, d: RatFunc):
        D = a.den
        for r in (b, c, d):
            D = _lcm(D, r.den)
        self.alg = alg
        self.nums = tuple(_lift((r.num,), r.den, D)[0] for r in (a, b, c, d))
        self.den = D

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_polys(alg: AlgebraParams, a: Poly, b: Poly, c: Poly, d: Poly,
                   t_denominator_power: int = 0) -> OrderElement:
        return _normal(alg, (a, b, c, d),
                       Poly.t_power(a.field, t_denominator_power))

    @staticmethod
    def zero(alg: AlgebraParams) -> OrderElement:
        F = alg.field
        z = Poly.zero(F)
        return _element(alg, (z, z, z, z), Poly.one(F))

    @staticmethod
    def one(alg: AlgebraParams) -> OrderElement:
        return _basis_element(alg, 0)

    @staticmethod
    def i(alg: AlgebraParams) -> OrderElement:
        return _basis_element(alg, 1)

    @staticmethod
    def j(alg: AlgebraParams) -> OrderElement:
        return _basis_element(alg, 2)

    @staticmethod
    def ij(alg: AlgebraParams) -> OrderElement:
        return _basis_element(alg, 3)

    @staticmethod
    def scalar(alg: AlgebraParams, r: RatFunc) -> OrderElement:
        z = Poly.zero(alg.field)
        return _element(alg, (r.num, z, z, z), r.den)

    @staticmethod
    def teichmuller(alg: AlgebraParams, u: int) -> OrderElement:
        """The constant a + b i realizing u = a + q b of alg.residue."""
        F = alg.field
        b, a = divmod(u, alg.q)
        z = Poly.zero(F)
        return _element(alg, (Poly.constant(F, a), Poly.constant(F, b),
                              z, z), Poly.one(F))

    @property
    def a(self) -> RatFunc:
        return RatFunc(self.nums[0], self.den)

    @property
    def b(self) -> RatFunc:
        return RatFunc(self.nums[1], self.den)

    @property
    def c(self) -> RatFunc:
        return RatFunc(self.nums[2], self.den)

    @property
    def d(self) -> RatFunc:
        return RatFunc(self.nums[3], self.den)

    # -- ring structure ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderElement):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __add__(self, other: OrderElement) -> OrderElement:
        return _sum(self, other.nums, other.den)

    def __sub__(self, other: OrderElement) -> OrderElement:
        return _sum(self, tuple(-n for n in other.nums), other.den)

    def __neg__(self) -> OrderElement:
        return _element(self.alg, tuple(-n for n in self.nums), self.den)

    def __mul__(self, other: OrderElement) -> OrderElement:
        F = self.alg.field
        add, mul = F._add, F._mul
        ys = other.nums
        table = _basis_products(self.alg)
        out: tuple[list[int], ...] = ([], [], [], [])
        for x, p in enumerate(self.nums):
            p = p.coeffs
            if not p:
                continue
            for y, (z, shift, m) in enumerate(table[x]):
                r = ys[y].coeffs
                if not r:
                    continue
                a, b = (p, r) if len(p) >= len(r) else (r, p)
                acc = out[z]
                n = len(a) + len(b) - 1 + shift
                if len(acc) < n:
                    acc += [0] * (n - len(acc))
                mrow = mul[m]
                for i, cb in enumerate(b, shift):
                    if cb:
                        row = mul[mrow[cb]]
                        for ca in a:
                            acc[i] = add[acc[i]][row[ca]]
                            i += 1
        return _normal(self.alg, tuple(Poly(F, tuple(c)) for c in out),
                       self.den * other.den)

    def scale(self, r: RatFunc) -> OrderElement:
        return _normal(self.alg, tuple(n * r.num for n in self.nums),
                       self.den * r.den)

    def conj(self) -> OrderElement:
        a, b, c, d = self.nums
        return _element(self.alg, (a, -b, -c, -d), self.den)

    def nrd(self) -> RatFunc:
        eps = self.alg.eps
        a, b, c, d = self.nums
        D = self.den
        return RatFunc(a * a - (b * b).scale(eps)
                       - (c * c - (d * d).scale(eps)).shift(1), D * D)

    def trd(self) -> RatFunc:
        a = self.nums[0]
        return RatFunc(a + a, self.den)

    def is_zero(self) -> bool:
        return not any(n.coeffs for n in self.nums)

    def inverse(self, norm: RatFunc | None = None) -> OrderElement:
        """conj(x) / nrd(x); a caller that holds nrd(x) passes it as norm."""
        n = self.nrd() if norm is None else norm
        if n.is_zero():
            raise NotInvertibleError("zero has no inverse in a division algebra")
        a, b, c, d = self.nums
        # conj(x) = (a, -b, -c, -d)/den and 1/nrd(x) = n.den/n.num
        up = n.den
        down = -up
        return _normal(self.alg, (a * up, b * down, c * down, d * down),
                       self.den * n.num)

    def __repr__(self) -> str:
        return f"OrderElement({self.a}, {self.b}, {self.c}, {self.d})"

    # -- unit-group membership -----------------------------------------
    # v_inf of a coordinate is deg den - deg numerator, common factor or not

    def in_K1_infinity(self) -> bool:
        """Principal unit at infinity: congruent to 1 mod the maximal ideal."""
        e = self.den.degree
        a, b, c, d = self.nums
        return ((a - self.den).degree < e and b.degree < e and c.degree < e
                and d.degree < e)


def nrd(x: OrderElement) -> RatFunc:
    return x.nrd()


# e_x e_y = sign * eps^a * t^s * e_(x XOR y) on the basis e_0..e_3 = 1, i,
# j, ij, as (sign, a, s): from i^2 = eps, j^2 = t and ji = -ij.  Row x
# holds y = 0..3; its comment spells out e_x e_0, ..., e_x e_3.
_BASIS_PRODUCT_RULES = (
    ((1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)),     # 1, i, j, ij
    ((1, 0, 0), (1, 1, 0), (1, 0, 0), (1, 1, 0)),     # i, eps, ij, eps j
    ((1, 0, 0), (-1, 0, 0), (1, 0, 1), (-1, 0, 1)),   # j, -ij, t, -t i
    ((1, 0, 0), (-1, 1, 0), (1, 0, 1), (-1, 1, 1)),   # ij, -eps j, t i, -eps t
)

_BASIS_PRODUCTS: dict = {}


def _basis_products(alg: AlgebraParams) -> tuple:
    """Row x holds, for each y, (x XOR y, s, c): e_x e_y = c t^s e_(x XOR y)
    with c = +-1 or +-eps in F_q; built once per q, which fixes eps."""
    table = _BASIS_PRODUCTS.get(alg.q)
    if table is None:
        F = alg.field
        rows = []
        for x, rules in enumerate(_BASIS_PRODUCT_RULES):
            row = []
            for y, (sign, a, s) in enumerate(rules):
                c = alg.eps if a else 1
                row.append((x ^ y, s, F.neg(c) if sign < 0 else c))
            rows.append(tuple(row))
        table = _BASIS_PRODUCTS[alg.q] = tuple(rows)
    return table


def _is_t_power(den: Poly) -> bool:
    """Whether a monic denominator is t^k."""
    cs = den.coeffs
    return cs.count(0) == len(cs) - 1


def _lcm(p: Poly, r: Poly) -> Poly:
    """Monic lcm of two monic denominators."""
    if p.coeffs == r.coeffs or r.is_one():
        return p
    if p.is_one():
        return r
    if _is_t_power(p) and _is_t_power(r):
        return p if p.degree > r.degree else r
    return p * (r // p.gcd(r))


def _lift(nums: tuple[Poly, ...], den: Poly, D: Poly) -> tuple[Poly, ...]:
    """Numerators over den rewritten over D, a monic multiple of den."""
    if den.coeffs == D.coeffs:
        return nums
    if _is_t_power(D):  # a monic divisor of t^k is a smaller power of t
        k = D.degree - den.degree
        return tuple(n.shift(k) for n in nums)
    f = D // den
    return tuple(n * f for n in nums)


def _element(alg: AlgebraParams, nums: tuple[Poly, ...], den: Poly
             ) -> OrderElement:
    """The element nums/den, given in normal form."""
    x = object.__new__(OrderElement)
    x.alg, x.nums, x.den = alg, nums, den
    return x


def _basis_element(alg: AlgebraParams, idx: int) -> OrderElement:
    F = alg.field
    one, z = Poly.one(F), Poly.zero(F)
    return _element(alg, tuple(one if k == idx else z for k in range(4)), one)


def _normal(alg: AlgebraParams, nums: tuple[Poly, ...], den: Poly
            ) -> OrderElement:
    """The element nums/den (den nonzero) brought to normal form."""
    return _element(alg, *normal_form(nums, den))


def _sum(x: OrderElement, nums: tuple[Poly, ...], den: Poly) -> OrderElement:
    """x + nums/den, over the lcm of the two denominators."""
    D = _lcm(x.den, den)
    return _normal(x.alg, tuple(a + b for a, b in zip(_lift(x.nums, x.den, D),
                                                      _lift(nums, den, D))), D)


# -- local reductions at the two ramified places -----------------------


def _j_power(alg: AlgebraParams, k: int) -> OrderElement:
    """j^k for any integer k: t^h for k = 2h and t^h j for k = 2h + 1,
    since j^2 = t (so j^{-1} = j/t)."""
    half, odd = divmod(k, 2)  # floor division keeps odd in {0, 1}
    F = alg.field
    # t^h over 1, or 1 over t^(-h): normal either way
    num, den = Poly.t_power(F, max(half, 0)), Poly.t_power(F, max(-half, 0))
    z = Poly.zero(F)
    return _element(alg, (z, z, num, z) if odd else (num, z, z, z), den)


def reduce_at_zero(x: OrderElement) -> LocalReduction:
    """Valuation and unit residue of x in the completed algebra at t."""
    return _reduce(x, "zero")


def reduce_at_infinity(x: OrderElement) -> LocalReduction:
    """Valuation and unit residue at infinity, uniformizer j/t."""
    return _reduce(x, "infinity")


def _reduce(x: OrderElement, place: str) -> LocalReduction:
    """k = v(nrd x) and the residue u of y = P^(-k) x, P = j at t and j/t
    at infinity, read off x = (A + Bi + Cj + Dij) / den.  As j^(-2h) =
    t^(-h), (j/t)^(-2h) = t^h and j x den = tC - tD i + Aj - B ij, with
    k = 2h + s and (R0, R1, O0, O1) = (A, B, C, D), or (C, -D, A, -B) if
    s = 1, y = (R0 + R1 i) / (den t^h) + (O0 j + O1 ij) / (den t^(h+s)) at t
    and (R0 + R1 i) t^(h+s) / den + (O0 j + O1 ij) t^h / den at infinity:
    u is R0 + R1 i at t^e over den's coefficient there, e = v_t(den) + h or
    deg den - h - s, and integrality (in the frame (a, b, tc, td) at
    infinity) bounds the valuations or degrees of the four numerators."""
    if x.is_zero():
        raise ReductionError("cannot reduce zero")
    F, K = x.alg.field, x.alg.residue
    n = x.nrd()
    at_t, where = (True, "t") if place == "zero" else (False, "infinity")
    k = n.t_valuation() if at_t else n.valuation_at_infinity()
    h, s = divmod(k, 2)  # floor division keeps s in {0, 1}
    nums = x.nums[2:] + x.nums[:2] if s else x.nums  # (C, D, A, B)
    if at_t:
        v = x.den.t_valuation()
        idx, c, j_idx = v + h, x.den.coeffs[v], v + h + s
        unit = F.div(n.num.coeffs[n.num.t_valuation()],  # (nrd(x) t^-k)(0)
                     n.den.coeffs[n.den.t_valuation()])
    else:
        idx, c = x.den.degree - h - s, 1  # den is monic
        j_idx = idx + s - 1
        unit = n.num.lead  # (nrd(x) t^k)(infinity), as n.den is monic
    bounds = zip(nums, (idx, idx, j_idx, j_idx))
    integral = (all(p.t_valuation() >= b for p, b in bounds if p.coeffs)
                if at_t else all(p.degree <= b for p, b in bounds))
    if not integral:
        raise ReductionError(f"reduced element fails integrality at {where}")
    r0, r1 = (F.div(p.coeffs[idx], c) if 0 <= idx < len(p.coeffs) else 0
              for p in nums[:2])
    u = K.element(r0, r1)
    if s:
        u = K.conj(u)  # R0 + R1 i = C - D i
    if not u:
        raise ReductionError(f"unit residue vanished at {where}")
    # nrd(j) = -t and nrd(j/t) = -1/t, so nrd(y) is (-1)^k times the unit
    # part of nrd(x); it takes the value K.norm(u) at the place
    if K.norm(u) != (F.neg(unit) if s else unit):
        raise ReductionError(f"the unit part at {where} has a norm that is "
                             f"not the residue norm")
    return LocalReduction(place, k, u, K.dlog(u))


# -- maximality and ramification certificates --------------------------


def gram_determinant(alg: AlgebraParams) -> RatFunc:
    """det of trd(e_i e_j) on the basis 1, i, j, ij; equals -16 eps^2 t^2,
    so the reduced discriminant of the standard order is exactly (t)."""
    basis = [OrderElement.one(alg), OrderElement.i(alg),
             OrderElement.j(alg), OrderElement.ij(alg)]
    gram = [[(u * v).trd() for v in basis] for u in basis]
    # direct 4x4 determinant by expansion; entries are only diagonal here
    det = RatFunc.one(alg.field)
    for k in range(4):
        for l in range(4):
            if k != l and not gram[k][l].is_zero():
                raise FalsificationError(
                    f"the trace form is not diagonal on 1, i, j, ij: "
                    f"entry ({k}, {l}) is {gram[k][l]}")
        det = det * gram[k][k]
    return det


def maximality_certificate(alg: AlgebraParams) -> bool:
    F = alg.field
    det = gram_determinant(alg)
    sixteen = F.embed_int(16)
    coeff = F.neg(F.mul(sixteen, F.mul(alg.eps, alg.eps)))
    expected = RatFunc(Poly(F, (0, 0, coeff)))
    if det != expected:
        raise FalsificationError(
            f"Gram determinant {det} is not -16 eps^2 t^2 = {expected}")
    return True


def split_certificate(alg: AlgebraParams, R: ResidueField
                      ) -> tuple[Poly, Poly] | None:
    """The first (x, y) != (0, 0) in canonical (constant-first lex) order
    with x^2 - eps y^2 = t in R = F_q[t]/pi, or None if anisotropic.  A
    smooth point Hensel-lifts, so a hit certifies the algebra splits at pi.
    Per x, y^2 = w / eps, w = x^2 - t: y = 0 if w = 0, else y = +-g^(l/2)
    for l = dlog w - dlog eps even, g the generator of R's log table."""
    pi = R.modulus
    F = pi.field
    t = Poly.t(F)
    for cs in product(range(F.q), repeat=pi.degree):
        x = Poly(F, cs)
        w = R.index((x * x - t) % pi)
        if not w:
            if x.coeffs:
                return x, Poly.zero(F)
            continue
        l = R.dlog(w) - R.dlog(alg.eps)
        if l % 2 == 0:
            y = min(R.from_dlog(l // 2), R.from_dlog(l // 2 + R.order // 2),
                    key=R.coeffs)
            return x, Poly(F, R.coeffs(y))
    return None


def require_anisotropic(F: GF, eps: int) -> None:
    """x^2 - eps y^2 has only the trivial zero over F_q, checked by brute
    force over the q^2 pairs (FalsificationError naming the zeros
    otherwise)."""
    zeros = [(x, y) for x in range(F.q) for y in range(F.q)
             if F.sub(F.mul(x, x), F.mul(eps, F.mul(y, y))) == 0]
    require(zeros == [(0, 0)],
            f"norm form must be anisotropic at the ramified places; "
            f"its zeros are {zeros}")


def ramification_certificate(alg: AlgebraParams, max_deg: int = 2) -> dict:
    """Split at every monic irreducible pi != t up to max_deg; division at t
    and at infinity because eps is a non-square (residue norm form
    anisotropic, checked by brute force)."""
    F = alg.field
    t = Poly.t(F)
    split_at = []
    for pi in monic_irreducibles(F, max_deg):
        if pi == t:
            continue
        point = split_certificate(alg, ResidueField(pi))
        if point is None:
            raise FalsificationError(
                f"unexpected ramification at {format_poly(pi)}")
        split_at.append((pi, point))
    # the residue field at t is F_q, and the same form controls infinity
    require_anisotropic(F, alg.eps)
    return {
        "split_places": [p for p, _ in split_at],
        "split_points": {p: pt for p, pt in split_at},
        "ramified": ("t", "infinity"),
    }


def unit_congruence_certificate(alg: AlgebraParams) -> bool:
    """{delta in the standard order with delta in K^1 at infinity} = {1}.

    Polynomial coordinates have infinity-valuation <= 0 unless zero, so the
    congruence conditions force b = c = d = 0 and a = 1; the constant case
    is also enumerated directly over F_q^2 as an executable check.
    """
    F = alg.field
    for k in range(7):
        mono = RatFunc.t_power(F, k)
        if mono.valuation_at_infinity() != -k:
            raise FalsificationError(
                f"t^{k} has valuation {mono.valuation_at_infinity()} at "
                f"infinity, not {-k}")
    # the constant a + b i is u = a + q b, listed as (a, b)
    hits = [divmod(u, F.q)[::-1] for u in range(F.q ** 2)
            if OrderElement.teichmuller(alg, u).in_K1_infinity()]
    if hits != [(1, 0)]:
        raise FalsificationError(
            f"the principal units at infinity among the constants a + b i "
            f"are {hits}, not only 1")
    return True
