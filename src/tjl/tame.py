"""Level-zero dictionary between inertial parameters, their transfers, and
finite-model irreps.

A tame parameter is a Frobenius orbit of characters (size f), a Steinberg
depth d with f*d = n, and an unramified twist s mod R/f.  Irreducible
parameters (d = 1, regular orbit) extend uniquely to a global parameter that
is unramified outside 0 and infinity; restricting that extension at infinity
negates the orbit and keeps the twist.  The r-invariant is the orbit size,
normalized so the Steinberg parameter has r = 1.
"""

from __future__ import annotations

from .cyclotomic import OrderedRecord, require
from .metacyclic import (
    GroupParams,
    IrrepLabel,
    enumerate_orbits,
    gamma,
    orbit_count_of_size,
)


class TameParamError(ValueError):
    pass


class TameParam(OrderedRecord):
    """Inertial orbit of size f, Steinberg depth d (f*d = n), twist s mod R/f."""

    __slots__ = ("orbit", "d", "s")

    def __init__(self, orbit: tuple[int, ...], d: int, s: int):
        self._set(orbit, d, s)

    @property
    def f(self) -> int:
        return len(self.orbit)

    def validate(self, params: GroupParams) -> None:
        if self.f * self.d != params.n:
            raise TameParamError(
                f"orbit size {self.f} times depth {self.d} must equal n = {params.n}"
            )
        G = gamma(params.q, params.n, params.level)
        if G.frobenius_orbit(self.orbit[0]) != self.orbit:
            raise TameParamError(f"{self.orbit} is not a Frobenius orbit")
        if not 0 <= self.s < params.R // self.f:
            raise TameParamError("twist out of range")

    def to_json(self) -> dict:
        return {"orbit": list(self.orbit), "d": self.d, "s": self.s}


class GlobalTameParam(OrderedRecord):
    """A global tame parameter: a regular orbit (size n) with twist s mod N."""

    __slots__ = ("orbit", "s")

    def __init__(self, orbit: tuple[int, ...], s: int):
        self._set(orbit, s)

    def to_json(self) -> dict:
        return {"orbit": list(self.orbit), "s": self.s}


def classify_irreducibles(params: GroupParams) -> list[TameParam]:
    """All irreducible (depth-1) parameters: regular orbits with every twist."""
    G = gamma(params.q, params.n, params.level)
    out = []
    for orbit in enumerate_orbits(G):
        if len(orbit) != params.n:
            continue
        for s in range(params.R // params.n):
            out.append(TameParam(orbit, 1, s))
    out.sort()
    # independent count: necklace formula times the number of twists
    expected = orbit_count_of_size(params.q, params.n, params.n) * params.level
    require(len(out) == expected,
            f"{len(out)} irreducible parameters, the necklace count times "
            f"the twists is {expected}")
    return out


def r_value(p: TameParam) -> int:
    """Formal-dimension invariant: the orbit size (Steinberg has r = 1)."""
    return p.f


def jl_transfer(p: TameParam) -> IrrepLabel:
    """Transfer to the finite-model irrep with the same orbit and twist; its
    dimension is r_value(p)."""
    label = IrrepLabel(p.orbit, p.s)
    require(label.dim == r_value(p),
            f"the transfer of {p} has dimension {label.dim}, not r = {r_value(p)}")
    return label


def katz_special_extension(p: TameParam) -> GlobalTameParam:
    """The unique global extension of an irreducible parameter that stays
    tame; in these coordinates the transport is the identity."""
    if p.d != 1:
        raise TameParamError("only depth-1 (irreducible) parameters extend")
    return GlobalTameParam(p.orbit, p.s)


def negate_orbit(orbit: tuple[int, ...], M: int) -> tuple[int, ...]:
    return tuple(sorted((-c) % M for c in orbit))


def restrict_at_infinity(g: GlobalTameParam, params: GroupParams) -> TameParam:
    """Restriction of a global parameter at infinity: inertia there is inverse
    to inertia at zero, so the orbit negates mod M; the twist is carried over
    unchanged (fixed convention, cross-validated by the spectral pipeline)."""
    out = TameParam(negate_orbit(g.orbit, params.M), 1, g.s)
    require(out.f == len(g.orbit),
            f"restriction at infinity changes the orbit size of {g}")
    return out


def infinity_prediction(label: IrrepLabel, params: GroupParams) -> IrrepLabel:
    """Predicted infinity-side irrep for a finite-model irrep: negated orbit,
    same twist.  For regular orbits this agrees with transporting through
    katz_special_extension and restrict_at_infinity."""
    return IrrepLabel(negate_orbit(label.orbit, params.M), label.s)


def enumerate_A_tame(
    p: TameParam, params: GroupParams
) -> list[tuple[GlobalTameParam, TameParam, int]]:
    """The set of global extensions with indecomposable restriction at
    infinity, within the tame sector: exactly the special extension.

    A global extension that is tame at zero is everywhere tame, hence factors
    through the tame quotient, hence is the special one; so the list has one
    entry and the r-sum over it equals r_value(p) = n.
    """
    if p.d != 1:
        raise TameParamError("enumerate_A_tame needs an irreducible parameter")
    p.validate(params)
    g = katz_special_extension(p)
    at_inf = restrict_at_infinity(g, params)
    out = [(g, at_inf, r_value(at_inf))]
    total = sum(r for _, _, r in out)
    require(total == r_value(p) == params.n,
            f"the r-sum over A_tame({p}) is {total}, not n = {params.n}")
    return out


def tame_report(params: GroupParams) -> dict:
    """JSON-ready summary: all irreducible parameters with their transfers,
    special extensions, restrictions at infinity, and the r-sum check."""
    entries = []
    all_ok = True
    for p in classify_irreducibles(params):
        ext = enumerate_A_tame(p, params)
        (g, at_inf, r) = ext[0]
        ok = (len(ext) == 1) and (r == r_value(p))
        all_ok = all_ok and ok
        entries.append(
            {
                "parameter": p.to_json(),
                "r": r_value(p),
                "jl_label": jl_transfer(p).to_json(),
                "special_extension": g.to_json(),
                "at_infinity": at_inf.to_json(),
                "r_sum": r,
                "sum_matches": ok,
            }
        )
    G = gamma(params.q, params.n, params.level)
    return {
        "group": params.to_json(),
        "regular_orbit_count": orbit_count_of_size(params.q, params.n, params.n),
        "parameters": entries,
        "all_sums_match": all_ok,
        "gamma_order": G.order,
    }
