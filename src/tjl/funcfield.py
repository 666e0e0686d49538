"""Small finite fields F_q, polynomials over F_q[t], and exact rational functions.

Fields are kept tiny (q <= 9 in every supported run), so elements are plain
ints 0..q-1 whose base-p digits are the coefficients of the residue polynomial,
and all arithmetic goes through precomputed tables.  The canonical modulus for
non-prime q is the first monic irreducible in lexicographic coefficient order,
and the canonical enumeration of field elements is by that integer encoding.
GF, the coefficient field of every Poly, keeps full add and mul tables.  The
local fields of the algebra, F_q(i) = F_q[x]/(x^2 - eps) at t and infinity
and F_q[t]/pi at a split place, are one type, ResidueField: the element
sum c_k x^k is the int sum c_k q^k, and products, quotients and discrete
logs are lookups in log and antilog tables built by one walk of the powers
of a generator (Lidl and Niederreiter, Finite Fields, ch. 2 and 9); it
also gives the square roots and inverses that replace extended Euclid.

Rational functions carry exact valuations at every place (monic irreducible of
F_q[t], plus the degree valuation at infinity), so no truncated t-adic
arithmetic is needed anywhere.

Fast paths, each chosen by a property of the operands and each giving the
same result as the general code:
- a product with a constant factor c is the other factor scaled by c (c = 1
  returns it as is);
- divmod by a divisor of higher degree is (0, self) with no division, and
  `%` computes the remainder alone, building no quotient;
- normal_form, which RatFunc and the quaternions share, needs no gcd for a
  denominator 1; for c*t^k the gcd is t^min(k, v_t of each numerator), so
  normalising is a shift and a scaling; any other denominator takes one
  gcd chain that stops at the first constant;
- a sum of two RatFuncs with equal denominators adds the numerators over
  that denominator, and the result is normalised as usual.
Numerator and denominator are unique once the denominator is monic and
coprime to the numerator, so any exact way to reach that form gives the same
polynomials.
"""

from __future__ import annotations

from itertools import product

from .cyclotomic import FalsificationError, memo, require


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """Return (p, r) with q = p**r for p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p == 0:
            r = 0
            m = q
            while m % p == 0:
                m //= p
                r += 1
            return (p, r) if m == 1 else None
    return (q, 1)


def is_prime_power(q: int) -> bool:
    return prime_power_decomposition(q) is not None


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] if n > 1 else out


class GF:
    """The finite field with q elements, q = p^r a small prime power."""

    def __init__(self, q: int):
        dec = prime_power_decomposition(q)
        if dec is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.r = dec
        if self.r == 1:
            self.modulus = None
        else:
            # the first monic irreducible of degree r over F_p, in the
            # (degree, lex) order of monic_irreducibles
            self.modulus = next(g.coeffs
                                for g in monic_irreducibles(gf(self.p), self.r)
                                if g.degree == self.r)
        self._build_tables()
        self._squares = {self.mul(a, a) for a in range(q)}

    # -- construction helpers -------------------------------------------

    def _digits(self, a: int) -> tuple[int, ...]:
        p, r = self.p, self.r
        return tuple((a // p**i) % p for i in range(r))

    def _undigits(self, ds) -> int:
        return sum(int(d) % self.p * self.p**i for i, d in enumerate(ds))

    def _build_tables(self):
        q, p, r = self.q, self.p, self.r
        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = self._digits(a)
            for b in range(q):
                db = self._digits(b)
                self._add[a][b] = self._undigits(
                    (x + y) % p for x, y in zip(da, db)
                )
                if r == 1:
                    self._mul[a][b] = a * b % p
                else:
                    # the product of the residue polynomials mod the modulus
                    Fp = gf(p)
                    prod = Poly(Fp, da) * Poly(Fp, db) % Poly(Fp, self.modulus)
                    self._mul[a][b] = self._undigits(prod.coeffs)
        self._neg = [self._solve_neg(a) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break

    def _solve_neg(self, a: int) -> int:
        for b in range(self.q):
            if self._add[a][b] == 0:
                return b
        raise FalsificationError(f"{a} has no additive inverse in GF({self.q})")

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def embed_int(self, n: int) -> int:
        """Image of the rational integer n in the prime field."""
        return n % self.p

    def is_square(self, a: int) -> bool:
        return a in self._squares

    @property
    def smallest_nonsquare(self) -> int:
        """First non-square unit in the canonical enumeration; odd q only."""
        if self.p == 2:
            raise ValueError("every element of a characteristic-2 field is a square")
        for a in range(1, self.q):
            if not self.is_square(a):
                return a
        raise FalsificationError(f"GF({self.q}) has no non-square unit")

    def __repr__(self):
        return f"GF({self.q})"


@memo
def gf(q: int) -> GF:
    return GF(q)


class Poly:
    """Dense polynomial over a small finite field, coefficients constant-first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs):
        self.field = field
        if type(coeffs) is not tuple:
            coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.coeffs = coeffs if n == len(coeffs) else coeffs[:n]

    @staticmethod
    def zero(field: GF) -> Poly:
        return Poly(field, ())

    @staticmethod
    def one(field: GF) -> Poly:
        return Poly(field, (1,))

    @staticmethod
    def constant(field: GF, c: int) -> Poly:
        return Poly(field, (c,))

    @staticmethod
    def t(field: GF) -> Poly:
        return Poly(field, (0, 1))

    @staticmethod
    def t_power(field: GF, k: int) -> Poly:
        return Poly(field, (0,) * k + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        # the field by its q, as in the hash: a Poly built before the memos
        # were emptied equals one built after, over a second GF(q)
        return (
            isinstance(other, Poly)
            and self.field.q == other.field.q
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field._add
        return Poly(self.field,
                    tuple([add[x][y] for x, y in zip(a, b)]) + a[len(b):])

    def __neg__(self) -> Poly:
        neg = self.field._neg
        return Poly(self.field, tuple([neg[c] for c in self.coeffs]))

    def __sub__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        add, neg = self.field._add, self.field._neg
        diff = tuple([add[x][neg[y]] for x, y in zip(a, b)])
        if len(a) >= len(b):
            return Poly(self.field, diff + a[len(b):])
        return Poly(self.field, diff + tuple([neg[y] for y in b[len(a):]]))

    def __mul__(self, other: Poly) -> Poly:
        F = self.field
        a, b = self.coeffs, other.coeffs
        # Poly is immutable, so a zero factor is the product
        if not a:
            return self
        if not b:
            return other
        # a constant factor: the product is a scaling (or the other factor)
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        add, mul = F._add, F._mul
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                row = mul[ca]
                for j, cb in enumerate(b, i):
                    if cb:
                        out[j] = add[out[j]][row[cb]]
        return Poly(F, tuple(out))

    def scale(self, c: int) -> Poly:
        if c == 1:
            return self
        if c == 0:
            return Poly.zero(self.field)
        row = self.field._mul[c]
        return Poly(self.field, tuple([row[x] for x in self.coeffs]))

    def shift(self, k: int) -> Poly:
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def divmod(self, den: Poly) -> tuple[Poly, Poly]:
        quot = [0] * max(len(self.coeffs) - len(den.coeffs) + 1, 0)
        rem = self._remainder(den, quot)
        return Poly(self.field, tuple(quot)), rem

    def __mod__(self, den: Poly) -> Poly:
        return self._remainder(den, None)

    def _remainder(self, den: Poly, quot: list[int] | None) -> Poly:
        """self mod den; the quotient's coefficients go to quot when a
        list is passed, so a bare remainder builds no quotient."""
        F = self.field
        d = den.coeffs
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        a = self.coeffs
        dd = len(d) - 1
        if len(a) <= dd:
            return self
        add, mul, neg = F._add, F._mul, F._neg
        inv_lead = F._inv[d[-1]]
        # subtracting c*den is adding c*(-den) below the leading term,
        # which cancels
        low = [neg[c] for c in d[:-1]]
        num = list(a)
        for k in range(len(a) - 1 - dd, -1, -1):
            c = num[k + dd]
            if c:
                c = mul[c][inv_lead]
                if quot is not None:
                    quot[k] = c
                row = mul[c]
                for j, cd in enumerate(low, k):
                    if cd:
                        num[j] = add[num[j]][row[cd]]
        return Poly(F, tuple(num[:dd]))

    def __floordiv__(self, den: Poly) -> Poly:
        return self.divmod(den)[0]

    def divides(self, other: Poly) -> bool:
        return (other % self).is_zero()

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lead))

    def gcd(self, other: Poly) -> Poly:
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def valuation(self, pi: Poly) -> int:
        """Exact pi-adic valuation; raises on the zero polynomial."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        v, cur = 0, self
        while True:
            q, r = cur.divmod(pi)
            if not r.is_zero():
                return v
            v, cur = v + 1, q

    def t_valuation(self) -> int:
        if self.is_zero():
            raise ValueError("valuation of zero")
        v = 0
        while self.coeffs[v] == 0:
            v += 1
        return v

    def __repr__(self):
        return f"Poly[{self.field.q}]({format_poly(self)})"


def format_poly(poly: Poly) -> str:
    if poly.is_zero():
        return "0"
    parts = []
    for e in range(poly.degree, -1, -1):
        c = poly.coeffs[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append(f"{head}t" + (f"^{e}" if e > 1 else ""))
    return "+".join(parts)


def parse_poly(field: GF, text: str) -> Poly:
    """Parse expressions like 't^2+2t+1' or 't-1' over the given field, the
    inverse of format_poly: a coefficient c with 0 <= c < q is the field
    element of index c, negated by a leading minus (ValueError otherwise)."""
    s = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms: list[str] = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur:
            terms.append(cur)
            cur = ch if ch == "-" else ""
        elif ch in "+-" and not cur and ch == "-":
            cur = "-"
        else:
            cur += ch
    terms.append(cur)
    coeffs: dict[int, int] = {}
    for term in terms:
        if not term or term in "+-":
            raise ValueError(f"bad polynomial syntax: {text!r}")
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        if "t" in body:
            cpart, _, epart = body.partition("t")
            coeff = int(cpart) if cpart else 1
            exp = int(epart.lstrip("^")) if epart else 1
        else:
            coeff, exp = int(body), 0
        if not 0 <= coeff < field.q:
            raise ValueError(f"coefficient {coeff} of {text!r} is not an "
                             f"element index 0..{field.q - 1}")
        val = field.neg(coeff) if sign < 0 else coeff
        coeffs[exp] = field.add(coeffs.get(exp, 0), val)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Poly(field, out)


def is_irreducible(poly: Poly) -> bool:
    """Ben-Or's test: poly of degree d >= 1 is irreducible iff it has no
    factor of degree i <= d / 2, that is iff gcd(t^(q^i) - t, poly) = 1, as
    t^(q^i) - t is the product of the monic irreducibles of degree | i."""
    d = poly.degree
    if d <= 0:
        return False
    # power runs through t^(q^i) mod poly; t is reduced when the loop runs
    t = power = Poly.t(poly.field)
    for _ in range(d // 2):
        base = power
        for _ in range(poly.field.q - 1):
            power = power * base % poly
        if not (power - t).gcd(poly).is_one():
            return False
    return True


@memo
def _monic_irreducibles_cached(q: int, max_deg: int) -> tuple[Poly, ...]:
    field = gf(q)
    out: list[Poly] = []
    for d in range(1, max_deg + 1):
        for tail in product(range(q), repeat=d):
            cand = Poly(field, tuple(tail) + (1,))
            if all(not g.divides(cand) for g in out if 2 * g.degree <= d):
                out.append(cand)
    return tuple(out)


def monic_irreducibles(field: GF, max_deg: int) -> list[Poly]:
    """All monic irreducibles of degree <= max_deg, in (degree, lex) order."""
    return [g for g in _monic_irreducibles_cached(field.q, max_deg)]


def normal_form(nums: tuple[Poly, ...], den: Poly
                ) -> tuple[tuple[Poly, ...], Poly]:
    """The numerators nums over den rewritten in normal form: den monic
    and gcd(den, *nums) = 1, with den 1 when every numerator is zero.
    A denominator c*t^k is cancelled by a shift by the least t-valuation of
    a numerator; any other by one gcd chain through the numerators that
    stops as soon as it reaches a constant."""
    field = den.field
    d = den.coeffs
    if not d:
        raise ZeroDivisionError("zero denominator")
    live = [n for n in nums if n.coeffs]
    if not live:
        return nums, Poly.one(field)
    if d.count(0) == len(d) - 1:
        # den = c*t^k: the gcd is t^s, s = min(k, v_t of each numerator)
        k = len(d) - 1
        s = min(k, min(n.t_valuation() for n in live)) if k else 0
        c = field._inv[d[-1]]
        if s or c != 1:
            nums = tuple(Poly(field, n.coeffs[s:]).scale(c) for n in nums)
            den = Poly.t_power(field, k - s)
        return nums, den
    g = den
    for n in live:
        g = g.gcd(n)
        if not g.degree:
            break
    if g.degree:
        den = den // g
        nums = tuple(n // g for n in nums)
    c = field._inv[den.coeffs[-1]]
    if c != 1:
        nums = tuple(n.scale(c) for n in nums)
        den = den.scale(c)
    return nums, den


INF = float("inf")


class RatFunc:
    """Exact rational function num/den over F_q[t], den monic and coprime to num."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field)
        (self.num,), self.den = normal_form((num,), den)

    @staticmethod
    def zero(field: GF) -> RatFunc:
        return RatFunc(Poly.zero(field))

    @staticmethod
    def one(field: GF) -> RatFunc:
        return RatFunc(Poly.one(field))

    @staticmethod
    def constant(field: GF, c: int) -> RatFunc:
        return RatFunc(Poly.constant(field, c))

    @staticmethod
    def t_power(field: GF, k: int) -> RatFunc:
        if k >= 0:
            return RatFunc(Poly.t_power(field, k))
        return RatFunc(Poly.one(field), Poly.t_power(field, -k))

    @property
    def field(self) -> GF:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: RatFunc) -> RatFunc:
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: RatFunc) -> RatFunc:
        return self + (-other)

    def __mul__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RatFunc) -> RatFunc:
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def scale(self, c: int) -> RatFunc:
        return RatFunc(self.num.scale(c), self.den)

    def inverse(self) -> RatFunc:
        return RatFunc.one(self.field) / self

    def valuation(self, pi: Poly):
        """pi-adic valuation; +inf for zero."""
        if self.is_zero():
            return INF
        return self.num.valuation(pi) - self.den.valuation(pi)

    def valuation_at_infinity(self):
        """deg(den) - deg(num); +inf for zero."""
        if self.is_zero():
            return INF
        return self.den.degree - self.num.degree

    def t_valuation(self):
        if self.is_zero():
            return INF
        return self.num.t_valuation() - self.den.t_valuation()

    def __repr__(self):
        if self.den.is_one():
            return f"RatFunc({format_poly(self.num)})"
        return f"RatFunc(({format_poly(self.num)})/({format_poly(self.den)}))"


class ResidueField:
    """F_q[x]/(m), m monic irreducible of degree d over F_q.  The element
    sum c_k x^k is the int sum c_k q^k (constant first, as in a Poly), so F_q
    sits at 0..q-1 as in GF.  The generator is the first element in index
    order of order Q - 1 = q^d - 1, each candidate tested by its powers
    g^((Q-1)/r) for the primes r | Q - 1; one walk of its powers, in ints and
    the tables of F_q, fills the antilog table _exp and the log table _log,
    where products, quotients and discrete logs are lookups.  A reducible m
    has no generator (FalsificationError)."""

    def __init__(self, modulus: Poly):
        F = modulus.field
        self.base, self.modulus, self.q = F, modulus, F.q
        self.order = order = F.q ** modulus.degree - 1
        # in a field, g has order Q - 1 = order iff g^((Q-1)/r) != 1 for each
        # prime r | Q - 1; the walk then checks g^(Q-1) = 1.  When m is
        # reducible, a zero divisor passes the first test and no walk
        # closes, as the units number less than Q - 1
        cofactors = [order // r for r in _prime_divisors(order)]
        one = self._digits(1)
        gen = next(g for g in range(1, order + 1)
                   if all(self._power(self._digits(g), e) != one
                          for e in cofactors))
        exp = self._walk(gen)
        require(exp is not None,
                f"GF({F.q})[x]/({format_poly(modulus)}) has no generator")
        self._exp = exp
        self._log = {x: k for k, x in enumerate(exp)}

    def _walk(self, gen: int) -> list[int] | None:
        """[1, gen, ..., gen^(Q-2)], or None when gen^(Q-1) != 1.  x gen is
        the sum over the digits c_i of x of c_i (x^i gen), and each row
        c (x^i gen) is built once."""
        F = self.base
        add, mul = F._add, F._mul
        g = self._digits(gen)
        weights = [self.q ** i for i in range(len(g))]
        rows = [[[mul[c][v] for v in self._times(self._digits(w), g)]
                 for c in range(F.q)] for w in weights]
        exp, x, digits = [1], gen, g
        for _ in range(self.order - 1):
            exp.append(x)
            acc = rows[0][digits[0]]
            for row, c in zip(rows[1:], digits[1:]):
                acc = [add[a][b] for a, b in zip(acc, row[c])]
            digits = acc
            x = sum(c * w for c, w in zip(digits, weights))
        return exp if x == 1 else None

    def _digits(self, x: int) -> list[int]:
        """The d coefficients of the polynomial that x names, zero-padded."""
        cs = self.coeffs(x)
        return list(cs) + [0] * (self.modulus.degree - len(cs))

    def _times(self, a: list[int], b: list[int]) -> list[int]:
        """The product of two elements given as digit lists, reduced mod m
        in the tables of F_q; the log tables are built from it."""
        F = self.base
        add, mul, neg = F._add, F._mul, F._neg
        m = self.modulus.coeffs
        d = len(m) - 1
        out = [0] * (2 * d - 1)
        for i, cb in enumerate(b):
            if cb:
                row = mul[cb]
                for j, ca in enumerate(a, i):
                    out[j] = add[out[j]][row[ca]]
        for e in range(2 * d - 2, d - 1, -1):  # x^d = -(m - x^d)
            if out[e]:
                row = mul[neg[out[e]]]
                for j, c in enumerate(m[:d], e - d):
                    out[j] = add[out[j]][row[c]]
        return out[:d]

    def _power(self, x: list[int], e: int) -> list[int]:
        """x^e for e >= 1, by squaring."""
        acc = None
        while e:
            if e & 1:
                acc = x if acc is None else self._times(acc, x)
            e >>= 1
            if e:
                x = self._times(x, x)
        return acc

    def index(self, r: Poly) -> int:
        """The element of a residue r, deg r < deg m."""
        return sum(c * self.q ** k for k, c in enumerate(r.coeffs))

    def coeffs(self, x: int) -> tuple[int, ...]:
        """The coefficients of x as the Poly it names holds them."""
        out = []
        while x:
            x, c = divmod(x, self.q)
            out.append(c)
        return tuple(out)

    def element(self, a: int, b: int) -> int:
        """a + b x; in F_q(i), a + b i."""
        return a + self.q * b

    def mul(self, x: int, y: int) -> int:
        return self.from_dlog(self._log[x] + self._log[y]) if x and y else 0

    def inv(self, x: int) -> int:
        if not x:
            raise ZeroDivisionError("inverse of 0 in a residue field")
        return self.from_dlog(-self._log[x])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def conj(self, x: int) -> int:
        """The Frobenius x^q; in F_q(i) it sends a + bi to a - bi."""
        return self.from_dlog(self._log[x] * self.q) if x else 0

    def norm(self, x: int) -> int:
        """x^((q^d - 1)/(q - 1)), in F_q; in F_q(i), a^2 - eps b^2."""
        if not x:
            return 0
        return self.from_dlog(self._log[x] * (self.order // (self.q - 1)))

    def dlog(self, x: int) -> int:
        """Discrete log base the generator; x must be a unit."""
        if not x:
            raise ZeroDivisionError("dlog of 0")
        return self._log[x]

    def from_dlog(self, k: int) -> int:
        return self._exp[k % self.order]


@memo
def fq2(q: int) -> ResidueField:
    """The shared F_q(i) = F_q[x]/(x^2 - eps), eps the smallest non-square
    (odd q: smallest_nonsquare refuses characteristic 2), one per q."""
    F = gf(q)
    return ResidueField(Poly(F, (F.neg(F.smallest_nonsquare), 0, 1)))
