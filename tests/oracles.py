"""Reference computations that several test files check tjl against."""

from tjl.cyclotomic import FalsificationError
from tjl.funcfield import Poly, RatFunc, format_poly


def reduce_mod(r, pi, power):
    """The image of the RatFunc r in F_q[t]/power (power = pi^k), by one
    extended Euclid; the denominator of r must be a unit at pi."""
    if r.is_zero():
        return Poly.zero(r.field)
    if not (r.den.valuation(pi) == 0):
        raise ValueError("denominator not a unit at the place")
    g, u, _ = r.den.xgcd(power)
    if not g.is_one():
        raise FalsificationError(
            f"denominator {format_poly(r.den)} is not invertible "
            f"modulo {format_poly(power)}")
    return (r.num * u) % power


def coords(x):
    """The four coordinates of the OrderElement x as RatFuncs."""
    return tuple(RatFunc(n, x.den) for n in x.nums)
