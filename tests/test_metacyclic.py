"""Tests for the metacyclic groups and their exact irreducible representations."""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction

import pytest

import tjl.metacyclic as metacyclic
from tjl.cyclotomic import Cyc, FalsificationError, OrderMismatchError
from tjl.metacyclic import (
    Gamma,
    Irrep,
    IrrepLabel,
    character_inner,
    character_table,
    chi_multiplicity,
    chi_restriction,
    enumerate_irreps,
    enumerate_orbits,
    gamma,
    orbit_count_of_size,
    orthonormality_pairs,
    table_symmetries,
)
from oracles import ref_character, ref_orthonormality, ref_restriction

SMALL_GROUPS = [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (2, 3, 1), (3, 2, 2), (5, 1, 2)]


def irrep_matrix(rep, g):
    """The dense expansion of rep.monomial(g), rows indexed like columns by
    basis tags."""
    perm, exps = rep.monomial(g)
    out = [[Cyc.zero(rep.m)] * rep.f for _ in range(rep.f)]
    for j, (i, x) in enumerate(zip(perm, exps)):
        out[i][j] = Cyc(rep.m, {x: 1})
    return out


def mat_mul(a, b, m):
    n = len(a)
    zero = Cyc.zero(m)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k].is_zero():
                continue
            for j in range(n):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def test_group_axioms_random():
    rng = random.Random(21)
    for q, n, level in SMALL_GROUPS:
        G = gamma(q, n, level)
        els = G.elements()
        assert len(els) == G.order == G.R * G.M
        for _ in range(80):
            g, h, k = (rng.choice(els) for _ in range(3))
            assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))
            assert G.mul(g, G.inv(g)) == G.identity
            assert G.mul(G.identity, g) == g and G.mul(g, G.identity) == g


def test_defining_relation():
    # conjugating the abelian generator by the cyclic generator is Frobenius
    for q, n, level in SMALL_GROUPS:
        G = gamma(q, n, level)
        u = (0, 1 % G.M)
        g = (1 % G.R, 0)
        assert G.conjugate(g, u) == (0, (1 * G.frob_power(-1)) % G.M)
        # u * g = g * u^q
        lhs = G.mul(u, g)
        rhs = G.mul(g, (0, q % G.M))   # g u^q
        assert lhs == rhs


def test_orbit_census_small():
    G = gamma(3, 2, 1)
    assert enumerate_orbits(G) == [(0,), (1, 3), (2, 6), (4,), (5, 7)]
    assert orbit_count_of_size(3, 2, 2) == 3
    assert orbit_count_of_size(2, 3, 3) == 2
    assert orbit_count_of_size(3, 2, 1) == 2
    assert orbit_count_of_size(5, 3, 1) == 4
    assert orbit_count_of_size(5, 3, 3) == 40


def test_irrep_count_and_dims():
    G = gamma(3, 2, 1)
    labels = enumerate_irreps(G)
    assert len(labels) == 7
    assert sorted(lab.dim for lab in labels) == [1, 1, 1, 1, 2, 2, 2]
    assert sum(lab.dim**2 for lab in labels) == 16
    for q, n, level in SMALL_GROUPS:
        G = gamma(q, n, level)
        labels = enumerate_irreps(G)
        assert sum(lab.dim**2 for lab in labels) == G.order
        assert len(labels) == len(G.conjugacy_classes())


def test_model_is_homomorphism():
    rng = random.Random(22)
    for q, n, level in [(3, 2, 1), (2, 3, 1), (3, 2, 2), (2, 2, 1)]:
        G = gamma(q, n, level)
        for label in enumerate_irreps(G):
            rep = Irrep(G, label)
            els = G.elements()
            for _ in range(6):
                g, h = rng.choice(els), rng.choice(els)
                assert mat_eq(
                    irrep_matrix(rep, G.mul(g, h)),
                    mat_mul(irrep_matrix(rep, g), irrep_matrix(rep, h),
                            rep.m),
                )
            ident = irrep_matrix(rep, G.identity)
            for i in range(rep.dim):
                for j in range(rep.dim):
                    expected = Cyc.from_rational(rep.m, Fraction(1 if i == j else 0))
                    assert ident[i][j] == expected


def test_model_relation_frobenius():
    # F^{-1} D F = D^q in every model
    for q, n, level in [(3, 2, 1), (2, 3, 1), (5, 2, 1)]:
        G = gamma(q, n, level)
        for label in enumerate_irreps(G):
            rep = Irrep(G, label)
            F = irrep_matrix(rep, (1 % G.R, 0))
            Finv = irrep_matrix(rep, G.inv((1 % G.R, 0)))
            D = irrep_matrix(rep, (0, 1 % G.M))
            Dq = irrep_matrix(rep, (0, q % G.M))
            assert mat_eq(mat_mul(mat_mul(Finv, D, rep.m), F, rep.m), Dq)


def test_character_matches_trace():
    rng = random.Random(23)
    for q, n, level in [(3, 2, 1), (2, 3, 1), (3, 2, 2)]:
        G = gamma(q, n, level)
        for label in enumerate_irreps(G):
            rep = Irrep(G, label)
            for _ in range(8):
                g = rng.choice(G.elements())
                mat = irrep_matrix(rep, g)
                tr = Cyc.zero(rep.m)
                for i in range(rep.dim):
                    tr = tr + mat[i][i]
                assert tr == rep.character(g)


def test_character_constant_on_classes():
    G = gamma(3, 2, 1)
    for label in enumerate_irreps(G):
        rep = Irrep(G, label)
        for cls in G.conjugacy_classes():
            vals = {rep.character(g).reduced() for g in cls}
            assert len(vals) == 1


def test_orthonormality_small():
    for q, n, level in [(2, 2, 1), (3, 2, 1), (2, 3, 1)]:
        G = gamma(q, n, level)
        labels, reps, sizes, values = character_table(G)
        assert sum(sizes) == G.order
        for i in range(len(labels)):
            for j in range(i, len(labels)):
                ip = character_inner(G, values[i], values[j], sizes)
                assert ip == Fraction(1 if i == j else 0)


def test_s3_character_table():
    # the group with q=2, n=2, level 1 is the symmetric group on 3 letters
    G = gamma(2, 2, 1)
    assert G.order == 6
    classes = G.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    labels, reps, sizes, values = character_table(G)
    # expected table over classes ordered (identity, 3-cycles, transpositions)
    order = sorted(range(len(classes)), key=lambda i: (sizes[i], reps[i]))
    expected_rows = {(1, 1, 1), (1, 1, -1), (2, -1, 0)}
    got_rows = set()
    for row in values:
        vals = []
        for i in order:
            v = row[i].to_rational()
            assert v.denominator == 1
            vals.append(int(v))
        got_rows.add(tuple(vals))
    assert got_rows == expected_rows


def test_chi_multiplicity_support():
    for q, n, level in [(3, 2, 1), (2, 3, 1), (3, 2, 2), (5, 1, 1)]:
        G = gamma(q, n, level)
        for label in enumerate_irreps(G):
            mults = [chi_multiplicity(G, label, c) for c in range(G.M)]
            assert set(mults) <= {0, 1}
            assert sum(mults) == label.dim
            assert {c for c, m in enumerate(mults) if m} == set(label.orbit)


def test_every_chi_covered():
    # summing multiplicities over all irreps counts each abelian character
    # once per twist: sum over labels of mult = R/f summed over the orbit of c
    G = gamma(3, 2, 1)
    for c in range(G.M):
        total = sum(
            chi_multiplicity(G, label, c) for label in enumerate_irreps(G)
        )
        f = len(G.frobenius_orbit(c))
        assert total == G.R // f


def test_distinct_characters():
    G = gamma(3, 2, 2)
    seen = set()
    for label in enumerate_irreps(G):
        rep = Irrep(G, label)
        key = tuple(rep.character(g).reduced() for g in G.elements())
        assert key not in seen
        seen.add(key)


def test_degenerate_group():
    # q=2, n=1: the abelian part is trivial, the group is cyclic of order N
    G = gamma(2, 1, 3)
    assert G.order == 3
    labels = enumerate_irreps(G)
    assert len(labels) == 3
    assert all(lab.dim == 1 for lab in labels)


def test_invalid_params():
    with pytest.raises(ValueError):
        Gamma(6, 2, 1)
    with pytest.raises(ValueError):
        Gamma(3, 0, 1)


# the acceptance grid cut to q^n - 1 <= 26, the groups of the census benchmark
CENSUS_SMALL = [(q, n, N) for q in (2, 3, 4, 5) for n in (1, 2, 3)
                for N in (1, 2) if q**n - 1 <= 26]


def naive_chi_multiplicity(G, label, c):
    """One Cyc per term: (1/M) sum_e sum_tags zeta_M^(e tag) zeta_M^(-c e)."""
    m, M = G.cyc_order, G.M
    total = Cyc.zero(m)
    for e in range(M):
        for tag in Irrep(G, label).tags:
            total = total + (Cyc(m, {(m // M) * e * tag: 1})
                             * Cyc(m, {(m // M) * -c * e: 1}))
    return total.to_rational() / M


def naive_character_inner(G, row_a, row_b, sizes):
    total = Cyc.zero(G.cyc_order)
    for size, a, b in zip(sizes, row_a, row_b):
        total = total + a * b.conj() * size
    return total.to_rational() / G.order


@pytest.mark.parametrize("q,n,level", CENSUS_SMALL)
def test_histogram_sums_match_naive_reference(q, n, level):
    G = gamma(q, n, level)
    labels, reps, sizes, rows = character_table(G)
    for label, row in zip(labels, rows):
        rep = Irrep(G, label)
        for g, value in zip(reps, row):
            mat = irrep_matrix(rep, g)
            trace = Cyc.zero(rep.m)
            for i in range(rep.dim):
                trace = trace + mat[i][i]
            assert value == trace
        for c in range(G.M):
            assert chi_multiplicity(G, label, c) == naive_chi_multiplicity(
                G, label, c)
    for ra in rows:
        for rb in rows:
            assert character_inner(G, ra, rb, sizes) == naive_character_inner(
                G, ra, rb, sizes)


def _galois(value, k):
    """sigma_k(value): zeta_m -> zeta_m^k on the group-ring terms."""
    return Cyc(value.order, {k * e: v for e, v in value.terms})


@pytest.mark.parametrize("q,n,level", CENSUS_SMALL + [(5, 3, 1)])
def test_table_symmetries_carry_the_inner_products(q, n, level):
    # brute force: each kept permutation is sigma_k value by value up to a
    # root-of-unity row lam, the image of the trivial row, and
    # <chi_pi(a), chi_pi(b)> = sigma_k(<chi_a, chi_b>) on every pair
    G = gamma(q, n, level)
    labels, reps, sizes, rows = character_table(G)
    trivial = rows.index(tuple(Cyc.from_rational(G.cyc_order, 1)
                               for _ in reps))
    inner = {(a, b): character_inner(G, rows[a], rows[b], sizes)
             for a, b in ref_orthonormality(G, rows)}
    symmetries = table_symmetries(G, rows)
    assert len(rows) == 1 or symmetries
    for k, perm in symmetries:
        assert sorted(perm) == list(range(len(rows)))
        lam = rows[perm[trivial]]
        assert all((v * v.conj()) == 1 and len(v.terms) == 1 for v in lam)
        for a, row in enumerate(rows):
            assert all(image == _galois(v, k) * t
                       for image, v, t in zip(rows[perm[a]], row, lam))
        for (a, b), value in inner.items():
            u, v = sorted((perm[a], perm[b]))
            assert inner[u, v] == value  # rational, so sigma_k fixes it


@pytest.mark.parametrize("q,n,level", CENSUS_SMALL + [(5, 3, 1)])
def test_orbit_representatives_cover_every_pair(q, n, level):
    G = gamma(q, n, level)
    rows = character_table(G)[3]
    perms = [perm for _, perm in table_symmetries(G, rows)]
    reps = orthonormality_pairs(G, rows)
    assert reps == sorted(reps)
    covered = set()
    for rep in reps:
        orbit, frontier = {rep}, [rep]
        while frontier:
            a, b = frontier.pop()
            for perm in perms:
                pair = tuple(sorted((perm[a], perm[b])))
                if pair not in orbit:
                    orbit.add(pair)
                    frontier.append(pair)
        assert min(orbit) == rep
        assert not orbit & covered
        covered |= orbit
    assert sorted(covered) == ref_orthonormality(G, rows)


@pytest.mark.parametrize("groups, computed, pairs", [
    (CENSUS_SMALL, 209, 2046), ([(5, 3, 1)], 27, 1378)])
def test_one_inner_product_per_orbit(groups, computed, pairs):
    tables = [(gamma(*g), character_table(gamma(*g))[3]) for g in groups]
    assert sum(len(orthonormality_pairs(G, rows))
               for G, rows in tables) == computed
    assert sum(len(ref_orthonormality(G, rows)) for G, rows in tables) == pairs


def test_character_inner_rejects_foreign_order():
    G = gamma(3, 2, 1)
    labels, reps, sizes, rows = character_table(G)
    foreign = [Cyc.from_rational(G.cyc_order * 2, 1)] * len(reps)
    with pytest.raises(OrderMismatchError):
        character_inner(G, rows[0], foreign, sizes)
    with pytest.raises(OrderMismatchError):
        character_inner(G, foreign, rows[0], sizes)
    with pytest.raises(OrderMismatchError):
        character_inner(G, foreign, foreign, sizes)


def _shifted_tags(self, orbit):
    return tuple((c + 1) % self.M for c in orbit)


def test_chi_multiplicity_cross_check_fails_loudly(monkeypatch):
    # shifting the model's basis tags moves one side of the cross-check
    # only: the character sum is taken over the orbit itself
    monkeypatch.setattr(Gamma, "orbit_tags", _shifted_tags)
    with pytest.raises(FalsificationError, match="basis tags"):
        chi_multiplicity(gamma(3, 2, 1), IrrepLabel((1, 3), 0), 1)


def test_chi_multiplicity_cross_check_survives_dash_O():
    script = (
        "import sys\n"
        "from tjl.cyclotomic import FalsificationError\n"
        "from tjl.metacyclic import Gamma, IrrepLabel, chi_multiplicity, "
        "gamma\n"
        "Gamma.orbit_tags = lambda self, orbit: "
        "tuple((c + 1) % self.M for c in orbit)\n"
        "try:\n"
        "    chi_multiplicity(gamma(3, 2, 1), IrrepLabel((1, 3), 0), 1)\n"
        "except FalsificationError as exc:\n"
        "    print(sys.flags.optimize, bool(str(exc)))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


def test_orbit_census_tamper_raises_falsification(monkeypatch):
    real = metacyclic.orbit_count_of_size
    monkeypatch.setattr(metacyclic, "orbit_count_of_size",
                        lambda q, n, d: real(q, n, d) + (d == n))
    with pytest.raises(FalsificationError, match="necklace count"):
        enumerate_orbits(gamma(3, 2, 1))


def test_bad_orbit_arguments_raise_value_error():
    with pytest.raises(ValueError, match="does not divide"):
        orbit_count_of_size(3, 4, 3)
    G = gamma(3, 2, 1)
    assert G.orbit_tags((1, 3)) == (1, 3)
    for bad in ((1, 2), (3, 1), (1, 3, 5)):
        with pytest.raises(ValueError, match="not a sorted Frobenius orbit"):
            G.orbit_tags(bad)


# the orders M = q^n - 1 of the acceptance grid (q in 2..5, n in 1..3,
# q^n - 1 <= 124)
GRID_ORDERS = sorted({q**n - 1 for q in (2, 3, 4, 5) for n in (1, 2, 3)
                      if q**n - 1 <= 124})


@pytest.mark.parametrize("M", GRID_ORDERS)
def test_root_sums_match_naive_sums(monkeypatch, M):
    # S_M(d) from one reduced histogram, cold and then memoised, against
    # one Cyc per term and the closed form M [d = 0 mod M]
    monkeypatch.setattr(metacyclic, "_ROOT_SUMS", {})
    for d in range(-1, 2 * M):
        naive = Cyc.zero(M)
        for e in range(M):
            naive = naive + Cyc(M, {e * d: 1})
        for _ in range(2):
            value = metacyclic._root_sum(M, d)
            assert type(value) is int
            assert value == naive.to_rational() == (M if d % M == 0 else 0)
    assert set(metacyclic._ROOT_SUMS) == {(M, d) for d in range(M)}


@pytest.mark.parametrize("first, second", [(4, 8), (8, 4)])
def test_root_sum_memo_is_keyed_by_order(monkeypatch, first, second):
    # d = 4 is 0 mod 4 but not mod 8: S_4(4) = 4 and S_8(4) = 0
    monkeypatch.setattr(metacyclic, "_ROOT_SUMS", {})
    want = {4: 4, 8: 0}
    assert metacyclic._root_sum(first, 4) == want[first]
    assert metacyclic._root_sum(second, 4) == want[second]
    assert metacyclic._root_sum(first, 4) == want[first]
    # chi_multiplicity at the groups with M = 4 and M = 8, in that order
    monkeypatch.setattr(metacyclic, "_ROOT_SUMS", {})
    for M in (first, second):
        G = gamma(*{4: (5, 1, 2), 8: (3, 2, 1)}[M])
        for label in enumerate_irreps(G):
            assert [chi_multiplicity(G, label, c) for c in range(G.M)] == [
                int(c in label.orbit) for c in range(G.M)]


@pytest.mark.parametrize("tampered, match", [(9, "not an integer"),
                                              (16, "basis tags")])
def test_tampered_root_sum_raises_falsification(monkeypatch, tampered,
                                                match):
    # S_8(0) = 8 enters the character side of every chi_c with c in the
    # orbit; 9 breaks integrality, 16 the agreement with the tags
    monkeypatch.setitem(metacyclic._ROOT_SUMS, (8, 0), tampered)
    with pytest.raises(FalsificationError, match=match):
        chi_multiplicity(gamma(3, 2, 1), IrrepLabel((1, 3), 0), 1)


def test_tampered_root_sum_survives_dash_O():
    script = (
        "import sys\n"
        "from tjl import metacyclic\n"
        "from tjl.cyclotomic import FalsificationError\n"
        "from tjl.metacyclic import IrrepLabel, chi_multiplicity, gamma\n"
        "for tampered in (9, 16):\n"
        "    metacyclic._ROOT_SUMS[(8, 0)] = tampered\n"
        "    try:\n"
        "        chi_multiplicity(gamma(3, 2, 1), IrrepLabel((1, 3), 0), 1)\n"
        "    except FalsificationError as exc:\n"
        "        print(sys.flags.optimize, bool(str(exc)))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "1", "True"]


# the 40 groups that tjl irreps accepts with q^n - 1 <= 124
IRREPS_GRID = [(q, n, N) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3, 4)
               for N in (1, 2) if q**n - 1 <= 124]


@pytest.mark.parametrize("q,n,level", IRREPS_GRID)
def test_table_values_and_restrictions_match_the_oracles(q, n, level):
    # each value, built once per key, has the exact terms of the trace of
    # the monomial model at its entry, and equal terms are one object;
    # each restriction is the naive inner product at every c of Z/M
    G = gamma(q, n, level)
    labels, reps, sizes, rows = character_table(G)
    by_terms = {}
    for label, row in zip(labels, rows):
        for g, value in zip(reps, row):
            assert value.terms == ref_character(G, label, g).terms
            assert by_terms.setdefault(value.terms, value) is value
    by_orbit = {}
    for label in labels:
        if label.orbit not in by_orbit:
            by_orbit[label.orbit] = ref_restriction(G, label)
        restriction = chi_restriction(G, label)
        assert list(restriction) == sorted(restriction)
        assert [restriction.get(c, 0) for c in range(G.M)] == by_orbit[
            label.orbit]


def test_the_restriction_support_is_computed_not_assumed(monkeypatch):
    # S_8(1) tampered to 8 or 3 puts d = 1 in the certified support, so
    # chi_0 of the orbit (1, 3) gets the character sum 8 + S_8(3) = 8, one
    # copy, or 3/8, while no tag is 0; a support taken to be {0} would
    # skip c = 0 and pass
    G, label = gamma(3, 2, 1), IrrepLabel((1, 3), 0)
    for tampered, match in ((8, "basis tags"), (3, "not an integer")):
        monkeypatch.setattr(metacyclic, "_ROOT_SUMS", {(8, 1): tampered})
        monkeypatch.setattr(metacyclic, "_ROOT_SUPPORT", {})
        with pytest.raises(FalsificationError, match=match):
            chi_multiplicity(G, label, 0)
        with pytest.raises(FalsificationError, match=match):
            chi_restriction(G, label)
        assert metacyclic._ROOT_SUPPORT[8] == {0, 1}


def test_the_restriction_support_survives_dash_O():
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "from tjl import metacyclic\n"
        "from tjl.cli import run\n"
        "from tjl.cyclotomic import FalsificationError\n"
        "from tjl.metacyclic import IrrepLabel, chi_multiplicity, gamma\n"
        "for tampered in (8, 3):\n"
        "    metacyclic._ROOT_SUMS = {(8, 1): tampered}\n"
        "    metacyclic._ROOT_SUPPORT = {}\n"
        "    try:\n"
        "        chi_multiplicity(gamma(3, 2, 1), IrrepLabel((1, 3), 0), 0)\n"
        "    except FalsificationError as exc:\n"
        "        print(sys.flags.optimize, str(exc))\n"
        "    metacyclic._ROOT_SUMS = {(8, 1): tampered}\n"
        "    metacyclic._ROOT_SUPPORT = {}\n"
        "    err = io.StringIO()\n"
        "    with redirect_stdout(io.StringIO()), redirect_stderr(err):\n"
        "        code = run(['irreps', '--q', '3', '--n', '2'])\n"
        "    print(code, json.loads(err.getvalue())['message'])\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    for line, match in zip(lines, ("basis tags", "basis tags",
                                   "not an integer", "not an integer")):
        assert line.split()[0] == "1" and match in line, line


def test_a_tag_off_the_reached_c_fails_as_the_loop_over_z_mod_m_does(
        monkeypatch):
    # one extra tag, orbit[0] + 1: every c of the orbit keeps its count,
    # and the extra c, which the orbit minus the support need not reach,
    # must still be checked; the failure is the first one in c order
    real = Gamma.orbit_tags
    monkeypatch.setattr(Gamma, "orbit_tags", lambda self, orbit: (
        real(self, orbit) + ((orbit[0] + 1) % self.M,)))
    G = gamma(3, 2, 1)
    for label in enumerate_irreps(G):
        with pytest.raises(FalsificationError, match="basis tags") as got:
            chi_restriction(G, label)
        with pytest.raises(FalsificationError) as first:
            for c in range(G.M):
                chi_multiplicity(G, label, c)
        assert str(got.value) == str(first.value)
