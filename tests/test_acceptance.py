"""Acceptance gate: one test per criterion, each emitting one PASS line.

Every check is exact (integer or cyclotomic-rational equality); the only
tolerances are the stated wall-clock budgets, which are asserted.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from int_rows import matmul
from oracles import (left_translation_matrix, ramification_certificate,
                     verify_all)
from tjl.funcfield import monic_irreducibles, parse_poly, Poly
from tjl.metacyclic import (
    GroupParams,
    character_inner,
    character_table,
    chi_multiplicity,
    enumerate_irreps,
    gamma,
)
from tjl.tame import (
    TameParam,
    classify_irreducibles,
    enumerate_A_tame,
    infinity_prediction,
    negate_orbit,
    orbit_count_of_size,
    r_value,
    tame_report,
)
from tjl.quaternion import (
    AlgebraParams,
    OrderElement,
)
from tjl.adelic import (
    default_places,
    factorize_adele,
    hecke_matrix,
    synthesize_random_adele,
    verify_witness_uniqueness,
)


CENSUS = [
    (q, n, N)
    for q in (2, 3, 4, 5)
    for n in (1, 2, 3)
    for N in (1, 2)
    if q**n - 1 <= 124
]


def report(num: int, summary: str) -> None:
    print(f"[criterion {num}] PASS: {summary}")


def test_criterion_1_irrep_census():
    worst = 0.0
    for q, n, N in CENSUS:
        t0 = time.time()
        G = gamma(q, n, N)
        labels, reps, sizes, rows = character_table(G)
        assert sum(lb.dim**2 for lb in labels) == n * N * (q**n - 1) == G.order
        assert len(labels) == len(G.conjugacy_classes())
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                want = Fraction(1 if i == j else 0)
                assert character_inner(G, rows[i], rows[j], sizes) == want
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert elapsed <= 10.0, (q, n, N, elapsed)
    report(1, f"{len(CENSUS)} groups, census + exact orthonormality, "
              f"worst group {worst:.2f}s <= 10s")


def test_criterion_2_chi_multiplicity():
    pairs = 0
    for q, n, N in CENSUS:
        G = gamma(q, n, N)
        for lb in enumerate_irreps(G):
            mults = {}
            for c in range(G.M):
                m = chi_multiplicity(G, lb, c)
                assert m in (0, 1)
                mults[c] = m
                pairs += 1
            assert sum(mults.values()) == lb.dim
            assert tuple(sorted(c for c, m in mults.items() if m)) == lb.orbit
    report(2, f"{pairs} (irrep, chi) pairs: multiplicity in {{0,1}}, "
              f"sum = dim, support = orbit, all exact")


def test_criterion_3_s3_character_table():
    G = gamma(2, 2, 1)
    labels, reps, sizes, rows = character_table(G)
    table = {}
    for lb, row in zip(labels, rows):
        values = []
        for v in row:
            r = v.to_rational()
            assert r.denominator == 1
            values.append(int(r))
        key = tuple(v for _, v in sorted(zip(sizes, values)))
        table[key] = table.get(key, 0) + 1
    # classical table of the symmetric group on 3 letters, columns ordered
    # by class size 1 (identity), 2 (3-cycles), 3 (transpositions)
    classical = {(1, 1, 1): 1, (1, 1, -1): 1, (2, -1, 0): 1}
    assert sorted(sizes) == [1, 2, 3]
    assert table == classical
    report(3, "Gamma(2,2,1) table matches the S3 oracle up to permutation")


def test_criterion_4_tame_sector():
    combos = [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2)]
    checked = 0
    for q, n in combos:
        params = GroupParams(q, n, 1)
        irreducibles = classify_irreducibles(params)
        assert len(irreducibles) == orbit_count_of_size(q, n, n)
        for p in irreducibles:
            ext = enumerate_A_tame(p, params)
            assert sum(r for _, _, r in ext) == r_value(p) == n
            checked += 1
        rep = tame_report(params)
        assert rep["all_sums_match"]
        assert len(rep["parameters"]) == len(irreducibles)
    report(4, f"{checked} irreducible tame parameters over {len(combos)} "
              f"models: r-sums = n, necklace counts match")


def test_criterion_5_quaternion_arithmetic():
    rng = random.Random(20250)
    checks = 0
    for q in (3, 5):
        alg = AlgebraParams(q)
        F = alg.field

        def rand_elt():
            coords = [
                Poly(F, tuple(rng.randrange(q) for _ in range(rng.randrange(1, 5))))
                for _ in range(4)
            ]
            return OrderElement.from_polys(alg, *coords,
                                           t_denominator_power=rng.randrange(3))

        for _ in range(500):
            x, y = rand_elt(), rand_elt()
            assert (x * y).nrd() == x.nrd() * y.nrd()
            checks += 1

        cert = ramification_certificate(alg, max_deg=2)
        expected = [pi for pi in monic_irreducibles(F, 2) if pi != Poly.t(F)]
        assert cert["split_places"] == expected
        assert cert["ramified"] == ("t", "infinity")
    report(5, f"{checks} exact nrd multiplicativity checks; ramification "
              f"certificates (deg <= 2) for q in {{3,5}}")


def test_criterion_6_round_trip_bijection():
    alg = AlgebraParams(3)
    places = default_places(alg, 2)
    for pi in places:
        cert = verify_witness_uniqueness(alg, pi, depth_bound=3)
        assert cert["witnesses"] == cert["cosets"]
        assert cert["norm_degree_bound"] == 6
    rng = random.Random(2026)
    one = OrderElement.one(alg)
    for _ in range(50):
        state, cls, grand = synthesize_random_adele(alg, rng, places)
        recovered, rho = factorize_adele(alg, state)
        assert recovered == cls
        assert grand * rho == one
    report(6, f"50 synthesized round trips recover the class exactly; "
              f"witness uniqueness (degree bound 6) at "
              f"{len(places)} places")


def test_criterion_7_hecke_structure():
    t0 = time.time()
    alg = AlgebraParams(3)
    F = alg.field
    G_order = 16
    T1 = hecke_matrix(alg, parse_poly(F, "t+2"))   # t - 1 over F_3
    T2 = hecke_matrix(alg, parse_poly(F, "t+1"))
    T3 = hecke_matrix(alg, parse_poly(F, "t^2+1"))
    for T, rowsum in ((T1, 4), (T2, 4), (T3, 10)):
        assert len(T) == G_order and all(len(row) == G_order for row in T)
        assert all(type(v) is int for row in T for v in row)
        assert all(v >= 0 for row in T for v in row)
        assert all(sum(row) == rowsum for row in T)
    assert matmul(T1, T2) == matmul(T2, T1)
    assert matmul(T1, T3) == matmul(T3, T1)
    assert matmul(T2, T3) == matmul(T3, T2)
    from tjl.adelic import group_of
    G = group_of(alg)
    for g in G.elements():
        L = left_translation_matrix(alg, g)
        assert matmul(T1, L) == matmul(L, T1)
        assert matmul(T2, L) == matmul(L, T2)
        assert matmul(T3, L) == matmul(L, T3)
    elapsed = time.time() - t0
    assert elapsed <= 60.0, elapsed
    report(7, f"T_(t-1), T_(t+1) 16x16 row-sum 4, T_(t^2+1) row-sum 10, "
              f"all commutations exact, {elapsed:.2f}s <= 60s")


def test_criterion_8_full_pipeline():
    t0 = time.time()
    alg = AlgebraParams(3)
    G_params = GroupParams(3, 2, 1)
    reports = verify_all(alg)
    assert len(reports) == 7
    regular = 0
    one_dim = 0
    for rep in reports:
        lb = rep.label
        assert rep.claim_ok
        block = rep.block
        assert block.dim == lb.dim
        # cross-validation against the tame dictionary
        assert block.infinity_label == infinity_prediction(lb, G_params)
        if lb.dim == 2:
            regular += 1
            assert block.infinity_label.orbit == negate_orbit(lb.orbit, 8)
            chis = [chi for chi, _ in block.lines]
            assert len(chis) == 2 and len(set(chis)) == 2
            a_size = len(enumerate_A_tame(TameParam(lb.orbit, 1, lb.s),
                                          G_params))
            assert a_size == 1
        else:
            one_dim += 1
            assert block.dim == 1
    assert regular == 3 and one_dim == 4
    sample = {tuple(r.label.orbit): r for r in reports}
    assert sample[(1, 3)].block.infinity_label.orbit == (5, 7)
    elapsed = time.time() - t0
    assert elapsed <= 300.0, elapsed
    report(8, f"7 sigma pipelines: block counts, infinity orbits, projective "
              f"bases, tame cross-validation, {elapsed:.2f}s <= 300s")


def test_criterion_9_determinism_across_workers():
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, TJL_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "tjl.cli", "verify", "--q", "3",
             "--N", "1"],
            capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["all_claims_ok"] is True
    report(9, "verify --q 3 --N 1 byte-identical for TJL_THREADS in {1,2}")
