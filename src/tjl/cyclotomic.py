"""Exact arithmetic in cyclotomic integer rings Z[zeta_m] and their fraction fields.

A scalar of order m is a Z-linear (or Q-linear) combination of the m-th roots
of unity, stored as a sparse exponent -> coefficient map.  Addition and
multiplication happen in the group ring Z[Z/m] (exponents add mod m) and are
therefore cheap; the m-th cyclotomic polynomial enters only when a question
about the underlying complex number is asked (equality, zero, the value of a
rational scalar).  Two scalars are equal iff the difference of their
coefficient vectors is divisible by Phi_m.

A sum of many roots of unity (a character sum) is best built as an exponent
histogram, a dict or Counter from exponent mod m to count, and passed to
Cyc(m, hist) once: one scalar and one reduction modulo Phi_m, not one Cyc
per term.

No floating point is used anywhere.  Reduction modulo Phi_m is one pass over
sparse rows x^k mod Phi_m (_reduce): the rows have one to three nonzero
entries on average, so the loop is short, and it is exact for ints of any
size and for Fractions alike.  Cyc.reduced and inner_product both go through
it; inner_product hands it a bare histogram and builds no Cyc.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import attrgetter

RationalLike = int | Fraction


class OrderMismatchError(ValueError):
    """Raised when combining scalars of different cyclotomic orders."""


class NotRationalError(ValueError):
    """Raised when a scalar expected to be rational is not."""


class FalsificationError(RuntimeError):
    """An exact computation contradicts a structural prediction."""


# every module-level memo of tjl, each made by memo: emptying them all
# (cache_clear() on each) leaves tjl as a fresh process finds it
MEMOS: list = []


def memo(fn):
    """fn memoised on its arguments (an unbounded lru_cache) and registered
    in MEMOS; cache_info() counts its hits and misses.  A call that raises
    stores nothing.  Callers pass one value's arguments one way, positionally,
    so that it is stored under one key."""
    cached = functools.lru_cache(maxsize=None)(fn)
    MEMOS.append(cached)
    return cached


def require(ok: bool, message: str) -> None:
    """Raise FalsificationError(message) unless ok; unlike assert, python -O
    keeps the check."""
    if not ok:
        raise FalsificationError(message)


class Record:
    """A plain record whose fields are the names in ``__slots__``, in order.

    Equality holds only between instances of one class and compares the
    field tuples; the repr is ``Name(field=value, ...)``.  A subclass writes
    its own ``__init__`` and stores its fields with ``_set``.  A Record is
    mutable and not hashable; FrozenRecord is the hashable kind."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # cls._fields(record) is the field tuple, read in C; every
            # record has two fields or more, so attrgetter returns a tuple
            cls._fields = attrgetter(*cls.__slots__)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields
        # in order
        return type(self), self._fields(self)


class FrozenRecord(Record):
    """A Record that hashes as its field tuple and refuses assignment."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class OrderedRecord(FrozenRecord):
    """A FrozenRecord ordered by its field tuple within one class."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) < self._fields(other)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) <= self._fields(other)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) > self._fields(other)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) >= self._fields(other)
        return NotImplemented


def divisors(m: int) -> list[int]:
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


def _poly_exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide num by the monic integer polynomial den; a nonzero remainder
    falsifies the caller's divisibility claim."""
    if den[-1] != 1:
        raise FalsificationError(f"divisor {den} is not monic")
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        quot[k - dd] = c
        for j, cd in enumerate(den):
            num[k - dd + j] -= c * cd
    if any(num):
        raise FalsificationError("non-exact polynomial division")
    return quot


@memo
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Dense coefficients (constant first) of Phi_m, via exact division of x^m - 1."""
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        num = _poly_exact_div(num, cyclotomic_polynomial(d))
    return tuple(num)


@memo
def _reduction_rows(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rows x^k mod Phi_m for 0 <= k < m, each as its nonzero (j, c) pairs."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    dense: list[list[int]] = []
    for k in range(m):
        if k < d:
            row = [0] * d
            row[k] = 1
        else:
            prev = dense[k - 1]
            row = [0] + prev[: d - 1]
            lead = prev[d - 1]
            if lead:
                for j in range(d):
                    row[j] -= lead * phi[j]
        dense.append(row)
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in dense)


def _reduce(m: int, terms) -> list[RationalLike]:
    """The coefficients of sum v*zeta_m^e over the (e, v) pairs of terms,
    0 <= e < m, on the basis 1, zeta, ..., zeta^(phi(m)-1): one pass over
    the sparse rows x^e mod Phi_m.  Every reduction in this module runs
    through it."""
    rows = _reduction_rows(m)
    acc: list[RationalLike] = [0] * (len(cyclotomic_polynomial(m)) - 1)
    for e, v in terms:
        for j, c in rows[e]:
            acc[j] += v * c
    return acc


def _rational(red) -> Fraction:
    """The rational value of reduced coefficients red, else NotRationalError."""
    if any(c != 0 for c in red[1:]):
        raise NotRationalError(f"not rational: reduced form {tuple(red)}")
    return Fraction(red[0])


class Cyc:
    """An element of Q(zeta_m), exact, with sparse group-ring storage.

    Coefficients are ints or Fractions.  The operations are those of the
    ring: +, -, *, conj and ==; a scalar is scaled by an int or a Fraction,
    never divided by another scalar.  The sparse terms of the group-ring
    representative are available as .terms; the canonical reduced form
    (length phi(m), basis 1, zeta, ..., zeta^(d-1)) as .reduced(), which
    is_zero, ==, to_rational and to_json read.  A root of unity zeta_m^k is
    Cyc(m, {k: 1}).
    """

    __slots__ = ("order", "_c", "_red")
    __hash__ = None  # mutable-free but equality is modular; do not hash

    def __init__(self, order: int, coeffs: dict[int, RationalLike] | None = None):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        c: dict[int, RationalLike] = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    e %= order
                    nv = c.get(e, 0) + v
                    if nv:
                        c[e] = nv
                    elif e in c:
                        del c[e]
        self._c = c
        self._red = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(order: int) -> Cyc:
        return Cyc(order)

    @staticmethod
    def from_rational(order: int, v: RationalLike) -> Cyc:
        return Cyc(order, {0: v})

    @property
    def terms(self) -> frozenset[tuple[int, RationalLike]]:
        """The sparse group-ring terms as (exponent, coefficient) pairs: a
        hashable key, equal exactly when the representatives are."""
        return frozenset(self._c.items())

    # -- ring operations -------------------------------------------------

    def _check(self, other: Cyc) -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(self.order, other)
        if not isinstance(other, Cyc):
            return NotImplemented
        self._check(other)
        c = dict(self._c)
        for e, v in other._c.items():
            nv = c.get(e, 0) + v
            if nv:
                c[e] = nv
            elif e in c:
                del c[e]
        out = Cyc(self.order)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Cyc(self.order)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(self.order, other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Cyc(self.order)
            out = Cyc(self.order)
            out._c = {e: v * other for e, v in self._c.items()}
            return out
        if not isinstance(other, Cyc):
            return NotImplemented
        self._check(other)
        m = self.order
        c: dict[int, RationalLike] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                if e >= m:
                    e -= m
                nv = c.get(e, 0) + v1 * v2
                if nv:
                    c[e] = nv
                elif e in c:
                    del c[e]
        out = Cyc(m)
        out._c = c
        return out

    __rmul__ = __mul__

    def conj(self) -> Cyc:
        """Complex conjugation: exponent negation mod m."""
        out = Cyc(self.order)
        out._c = {(-e) % self.order: v for e, v in self._c.items()}
        return out

    # -- reduction and predicates ---------------------------------------

    def reduced(self) -> tuple[RationalLike, ...]:
        """Coefficients on the basis 1, zeta, ..., zeta^(phi(m)-1)."""
        if self._red is None:
            self._red = tuple(_reduce(self.order, self._c.items()))
        return self._red

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.reduced())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(self.order, other)
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order != other.order:
            return False
        if self._c == other._c:
            return True
        return (self - other).is_zero()

    def to_rational(self) -> Fraction:
        """Exact rational value; raises NotRationalError otherwise."""
        return _rational(self.reduced())

    def to_json(self) -> dict:
        """Canonical JSON shape: order plus reduced coefficients."""
        coeffs = [c.numerator if c.denominator == 1 else [c.numerator, c.denominator]
                  for c in self.reduced()]
        return {"order": self.order, "coeffs": coeffs}

    def __repr__(self):
        terms = ", ".join(f"{e}: {v}" for e, v in sorted(self._c.items()))
        return f"Cyc({self.order}, {{{terms}}})"


def inner_product(
    f_values: list[Cyc],
    g_values: list[Cyc],
    weights: list[int],
    group_order: int,
) -> Fraction:
    """(1/|G|) * sum_c w_c * f(c) * conj(g(c)), which must be exactly rational.

    The products w*v1*v2 are added into one dense histogram over Z/m,
    skipping the classes where f or g is zero, and the histogram goes
    through the module's one reduction modulo Phi_m (_reduce) once; no Cyc
    is built.  The three lists must have one length, else
    FalsificationError: a short character row is a defect of the table,
    not of the caller's input."""
    require(len(f_values) == len(g_values) == len(weights),
            f"mismatched lengths: {len(f_values)} and {len(g_values)} values "
            f"over {len(weights)} weights")
    if not f_values:
        return Fraction(0)
    m = f_values[0].order
    hist: list[RationalLike] = [0] * m
    for fv, gv, w in zip(f_values, g_values, weights):
        if fv.order != m or gv.order != m:
            raise OrderMismatchError(
                f"orders differ: {m} vs {fv.order}, {gv.order}")
        fc, gc = fv._c, gv._c
        if not fc or not gc:
            continue
        for e1, v1 in fc.items():
            wv1 = w * v1
            for e2, v2 in gc.items():
                # e1 - e2 lies in (-m, m), and a negative index counts
                # from the end: hist[e1 - e2] is the slot of (e1 - e2) mod m
                hist[e1 - e2] += wv1 * v2
    return _rational(_reduce(m, [(e, v) for e, v in enumerate(hist) if v])
                     ) / group_order
