from __future__ import annotations

import subprocess
import sys

import pytest

import tjl.tame as tame
from tjl.cyclotomic import FalsificationError
from tjl.metacyclic import GroupParams, IrrepLabel, enumerate_irreps, gamma
from tjl.tame import (
    GlobalTameParam,
    TameParam,
    TameParamError,
    classify_irreducibles,
    enumerate_A_tame,
    infinity_prediction,
    jl_transfer,
    katz_special_extension,
    negate_orbit,
    orbit_count_of_size,
    r_value,
    restrict_at_infinity,
    tame_report,
)


def test_classification_counts_match_necklace_formula():
    for q in (2, 3, 4, 5, 7):
        for n in (1, 2, 3, 4):
            if (q, n) in ((5, 4), (7, 3), (7, 4)):
                continue  # keep the loop fast; formula already covered below
            for N in (1, 2):
                params = GroupParams(q, n, N)
                got = classify_irreducibles(params)
                assert len(got) == orbit_count_of_size(q, n, n) * N
                for p in got:
                    assert p.d == 1 and p.f == n
                    p.validate(params)


def test_doubling_orbits_mod_seven():
    params = GroupParams(2, 3, 1)
    got = classify_irreducibles(params)
    assert [p.orbit for p in got] == [(1, 2, 4), (3, 5, 6)]
    assert sum(r_value(p) for p in got) == 6
    assert all(r_value(p) == 3 for p in got)


def test_r_times_d_equals_n():
    params = GroupParams(3, 2, 1)
    for p in classify_irreducibles(params):
        assert r_value(p) * p.d == params.n
    steinberg = TameParam((0,), 2, 0)
    steinberg.validate(params)
    assert r_value(steinberg) == 1


def test_jl_transfer_injective_and_dimension():
    for (q, n) in ((2, 2), (3, 2), (2, 3), (3, 3), (5, 2)):
        for N in (1, 2):
            params = GroupParams(q, n, N)
            ps = classify_irreducibles(params)
            labels = [jl_transfer(p) for p in ps]
            assert len(set(labels)) == len(labels)
            for lab in labels:
                assert lab.dim == n
                assert lab in enumerate_irreps(gamma(q, n, N))


def test_special_extension_requires_depth_one():
    params = GroupParams(3, 2, 1)
    with pytest.raises(TameParamError):
        katz_special_extension(TameParam((0,), 2, 0))
    p = classify_irreducibles(params)[0]
    g = katz_special_extension(p)
    assert g == GlobalTameParam(p.orbit, p.s)


def test_restriction_negates_orbit():
    params = GroupParams(3, 2, 1)
    g = GlobalTameParam((1, 3), 0)
    at_inf = restrict_at_infinity(g, params)
    assert at_inf.orbit == (5, 7)
    assert at_inf.s == 0 and at_inf.d == 1

    # negation is an involution on orbits
    for q, n in ((3, 2), (2, 3), (5, 2), (3, 3)):
        prm = GroupParams(q, n, 1)
        for p in classify_irreducibles(prm):
            neg = negate_orbit(p.orbit, prm.M)
            assert negate_orbit(neg, prm.M) == p.orbit


def test_self_dual_orbit_mod_three():
    params = GroupParams(2, 2, 1)
    g = GlobalTameParam((1, 2), 0)
    assert restrict_at_infinity(g, params).orbit == (1, 2)


def test_A_set_has_exactly_one_entry_with_full_r():
    for (q, n) in ((2, 2), (3, 2), (2, 3), (3, 3), (5, 2)):
        params = GroupParams(q, n, 1)
        for p in classify_irreducibles(params):
            ext = enumerate_A_tame(p, params)
            assert len(ext) == 1
            g, at_inf, r = ext[0]
            assert r == n == r_value(p)
            assert at_inf.orbit == negate_orbit(p.orbit, params.M)
            assert at_inf.s == p.s


def test_infinity_prediction_matches_transport_on_regular_orbits():
    params = GroupParams(3, 2, 2)
    for p in classify_irreducibles(params):
        lab = jl_transfer(p)
        pred = infinity_prediction(lab, params)
        _, at_inf, _ = enumerate_A_tame(p, params)[0]
        assert pred == jl_transfer(at_inf)
    # non-regular labels still get a prediction with the same dimension
    lab = IrrepLabel((0,), 1)
    assert infinity_prediction(lab, params) == IrrepLabel((0,), 1)


def test_report_shape():
    rep = tame_report(GroupParams(2, 3, 1))
    assert rep["regular_orbit_count"] == 2
    assert rep["all_sums_match"] is True
    assert len(rep["parameters"]) == 2
    entry = rep["parameters"][0]
    assert entry["r"] == 3
    assert entry["at_infinity"]["orbit"] == sorted(
        (-c) % 7 for c in entry["parameter"]["orbit"]
    )


def test_classification_tamper_raises_falsification(monkeypatch):
    real = tame.orbit_count_of_size
    monkeypatch.setattr(tame, "orbit_count_of_size",
                        lambda q, n, d: real(q, n, d) + 1)
    with pytest.raises(FalsificationError, match="necklace count"):
        classify_irreducibles(GroupParams(3, 2, 1))


def test_classification_tamper_survives_dash_O():
    script = (
        "import sys\n"
        "import tjl.tame as tame\n"
        "from tjl.cyclotomic import FalsificationError\n"
        "real = tame.orbit_count_of_size\n"
        "tame.orbit_count_of_size = lambda q, n, d: real(q, n, d) + 1\n"
        "try:\n"
        "    tame.classify_irreducibles(tame.GroupParams(3, 2, 1))\n"
        "except FalsificationError as exc:\n"
        "    print(sys.flags.optimize, 'necklace count' in str(exc))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]
