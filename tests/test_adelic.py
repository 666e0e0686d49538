"""Split places, canonical witnesses, Hecke matrices, and adele round trips."""

import hashlib
import json
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest

from int_rows import matmul
from oracles import (coords, reduce_mod, ref_factorize_adele,
                     ref_reduce_at_infinity, ref_reduce_at_zero, xgcd)
from tjl import adelic, cli
from tjl.funcfield import Poly, RatFunc, format_poly, gf, parse_poly
from tjl.quaternion import (AlgebraParams, OrderElement, reduce_at_infinity,
                            reduce_at_zero, require_anisotropic)
from tjl.adelic import (
    FactorizationError,
    FalsificationError,
    SearchBoundExceededError,
    SplitPlace,
    Witness,
    WitnessSet,
    default_places,
    factorize_adele,
    group_of,
    hecke_matrix,
    infinity_action,
    left_translation_matrix,
    right_translation_matrix,
    synthesize_random_adele,
    verify_action_relations,
    verify_witness_uniqueness,
    witness_set,
)


def standard_conjugator(alg):
    """A fixed determinant-one constant matrix, a unit at every finite
    place: the conjugator of a second split model, against which
    splitting-independence is checked."""
    F = alg.field
    one = Poly.one(F)
    return (one, one, one, Poly.constant(F, F.embed_int(2)))


def _random_element(alg, rng, deg=2):
    F = alg.field
    coords = []
    for _ in range(4):
        num = Poly(F, tuple(rng.randrange(F.q) for _ in range(deg + 1)))
        coords.append(RatFunc(num))
    return OrderElement(alg, *coords)


def test_split_place_determinant_is_norm():
    rng = random.Random(41)
    for q in (3, 5):
        alg = AlgebraParams(q)
        for pi in default_places(alg, 1)[:2]:
            sp = SplitPlace(alg, pi)
            P = sp.precision
            for _ in range(20):
                x = _random_element(alg, rng)
                y = _random_element(alg, rng)
                mx, my = sp.embed(x, P), sp.embed(y, P)
                assert sp.matmul(mx, my, P) == sp.embed(x * y, P)
                lhs = sp.det(mx, P)
                rhs = reduce_mod(x.nrd(), sp.pi, sp.modulus)
                assert lhs == rhs


def test_split_place_reduce_matches_reduce_mod():
    # a scalar r embeds as diag(r mod pi^P, r mod pi^P)
    rng = random.Random(43)
    for q in (3, 5):
        alg = AlgebraParams(q)
        F = alg.field
        for pi in default_places(alg, 2)[:3]:
            sp = SplitPlace(alg, pi)
            P = sp.precision
            zero = Poly.zero(F)

            def reduce(r):
                return sp.embed(OrderElement.scalar(alg, r), P)

            dens = [Poly.t_power(F, k).scale(c)
                    for k in range(4) for c in range(1, q)]
            dens += [pi + Poly.one(F), Poly(F, (2, 0, 1)) * Poly.t(F)]
            misses = hits = 0
            for den in dens:
                if (den % pi).is_zero():
                    continue
                for _ in range(3):
                    num = Poly(F, [rng.randrange(q) for _ in range(6)])
                    r = RatFunc(num, den)
                    want = reduce_mod(r, pi, sp.modulus)
                    if r.den in sp._scaled_basis:
                        hits += 1
                    else:
                        misses += 1
                    assert reduce(r) == (want, zero, zero, want)
                    # the second reduction reads the memo and agrees
                    assert r.den in sp._scaled_basis
                    assert reduce(r) == (want, zero, zero, want)
            assert hits and misses
            for bad in (pi, pi * Poly.t(F), pi * pi):
                r = RatFunc(Poly.one(F), bad)
                with pytest.raises(ValueError):
                    reduce(r)
                with pytest.raises(ValueError):
                    reduce_mod(r, pi, sp.modulus)
                assert r.den not in sp._scaled_basis


# The per-entry formulas SplitPlace used before its multiply-reduce kernel:
# products and sums of Polys, then one divmod by pi^P (or by the modulus m
# passed).  The kernel at precision k must give the same remainders mod pi^k.


def _ref_inv(a, m):
    g, u, _ = xgcd(a % m, m)
    assert g.is_one()
    return u % m


def _ref_reduce(sp, r):
    return (r.num * _ref_inv(r.den, sp.modulus)) % sp.modulus


def _ref_matmul(sp, A, B, m=None):
    m = sp.modulus if m is None else m
    a0, a1, a2, a3 = A
    b0, b1, b2, b3 = B
    return ((a0 * b0 + a1 * b2) % m, (a0 * b1 + a1 * b3) % m,
            (a2 * b0 + a3 * b2) % m, (a2 * b1 + a3 * b3) % m)


def _ref_det(sp, A, m=None):
    return (A[0] * A[3] - A[1] * A[2]) % (sp.modulus if m is None else m)


def _ref_embed(sp, elt, m=None):
    reduced = [_ref_reduce(sp, c) for c in coords(elt)]
    out = []
    for idx in range(4):
        acc = Poly.zero(sp.alg.field)
        for coeff, mat in zip(reduced, (sp.mat_one, sp.mat_i, sp.mat_j,
                                       sp.mat_k)):
            acc = acc + coeff * mat[idx]
        out.append(acc % (sp.modulus if m is None else m))
    return tuple(out)


def _old_random_unit_matrix(sp, rng, rejected):
    """The earlier _random_unit_matrix, which tested the determinant mod
    pi^P reduced mod pi; the draws it refuses go to rejected."""
    F = sp.alg.field
    span = sp.modulus.degree
    while True:
        mat = tuple(
            Poly(F, tuple(rng.randrange(F.q) for _ in range(span)))
            for _ in range(4))
        if not (sp.det(mat, sp.precision) % sp.pi).is_zero():
            return mat
        rejected.append(mat)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_random_unit_matrix_tests_det_mod_pi_like_the_full_det(q):
    # the determinant of the entries reduced mod pi decides exactly what the
    # determinant mod pi^P did, so the draws, the RNG stream and the
    # accepted matrices stay the same, at places of degree 1 and 2
    for sp in list(_kernel_models(q))[:2]:
        new, old = random.Random(800 + q), random.Random(800 + q)
        rejected = []
        for _ in range(200):
            assert (adelic._random_unit_matrix(sp, new)
                    == _old_random_unit_matrix(sp, old, rejected))
        assert new.getstate() == old.getstate()
        assert rejected


def _ref_unit_inverse(sp, n):
    unit = n / RatFunc(sp.pi_power(n.valuation(sp.pi)))
    return _ref_inv(_ref_reduce(sp, unit), sp.modulus)


def _cut(mat, m):
    return tuple(e % m for e in mat)


def _conjugated_model(alg, pi):
    """A second split model at pi: a fresh default model whose basis
    matrices are conjugated by standard_conjugator, with the defining
    relations checked again mod pi^P."""
    sp = SplitPlace(alg, pi)
    F, P = alg.field, sp.precision
    # nothing memoised yet depends on the basis matrices
    assert not sp._scaled_basis and not sp._divisor_images
    assert sp._basis_mod_pi is None
    g = standard_conjugator(alg)
    ginv = sp.scale_mat((g[3], -g[1], -g[2], g[0]),
                        sp.inv_mod(sp.det(g, P)), P)
    sp.mat_i, sp.mat_j, sp.mat_k = (sp.matmul(sp.matmul(g, m, P), ginv, P)
                                    for m in (sp.mat_i, sp.mat_j, sp.mat_k))
    sp._basis = (sp.mat_one, sp.mat_i, sp.mat_j, sp.mat_k)
    ij = sp.matmul(sp.mat_i, sp.mat_j, P)
    assert ij == sp.mat_k
    assert sp.matmul(sp.mat_i, sp.mat_i, P) == sp.scalar_mat(
        Poly.constant(F, alg.eps))
    assert sp.matmul(sp.mat_j, sp.mat_j, P) == sp.scalar_mat(Poly.t(F))
    assert sp.matmul(sp.mat_j, sp.mat_i, P) == tuple(
        (-e) % sp.modulus for e in ij)
    return sp


def _kernel_models(q):
    """Split models at the first places of degree 1 and 2, and the
    conjugated model at the first place."""
    alg = AlgebraParams(q)
    places = default_places(alg, 2)
    for deg in (1, 2):
        yield SplitPlace(alg, next(p for p in places if p.degree == deg))
    yield _conjugated_model(alg, places[0])


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_split_place_kernel_matches_per_entry_formulas(q):
    # GF(4) and GF(8) carry no algebra (odd characteristic only); GF(9)
    # runs the kernel's table arithmetic on a field that is not prime
    rng = random.Random(600 + q)
    for sp in _kernel_models(q):
        alg, F, pi, P = sp.alg, sp.alg.field, sp.pi, sp.precision
        D = sp.modulus.degree

        def poly(deg):
            return Poly(F, [rng.randrange(q) for _ in range(deg + 1)])

        # powers of t, and a denominator that is none
        dens = [Poly.t_power(F, rng.randrange(4)).scale(rng.randrange(1, q))
                for _ in range(5)] + [pi + Poly.one(F)]
        for den in dens:
            # degrees past 2D need fold rows that no reduced product reaches
            A = tuple(poly(rng.choice((D - 1, 2 * D + 3))) for _ in range(4))
            B = tuple(poly(rng.choice((0, D - 1, 2 * D))) for _ in range(4))
            elt = OrderElement(alg, *(RatFunc(poly(2 * D), den)
                                      for _ in range(4)))
            # the same formulas mod pi^k, at every precision k <= P
            for k in range(1, P + 1):
                m = sp.pi_power(k)
                products = Poly.zero(F)
                for a, b in zip(A, B):
                    products = products + a * b
                assert sp._mulsum(zip(A, B), k) == products % m
                assert sp.matmul(A, B, k) == _ref_matmul(sp, A, B, m)
                assert sp.det(A, k) == _ref_det(sp, A, m)
                assert sp.scale_mat(A, B[0], k) == _cut(
                    tuple(e * B[0] for e in A), m)
                assert sp.embed(elt, k) == _ref_embed(sp, elt, m)
            # the four scaled basis matrices of the denominator
            assert len(sp._scaled_basis[elt.den]) == 4
        for bad in (lambda r: sp.unit_inverse(r, P),
                    lambda r: sp.embed(OrderElement.scalar(alg, r), P)):
            with pytest.raises(ValueError):
                bad(RatFunc(Poly.one(F), pi * Poly.t(F)))

        # the unit part of a norm: every witness norm, a central pi and
        # elements prime to pi; the second call reads the memo
        ws = witness_set(alg, pi)
        norms = [w.element.nrd() for w in ws.witnesses]
        norms += [RatFunc(pi * pi), elt.nrd(), RatFunc(poly(2 * D), den)]
        for n in norms:
            if n.is_zero():
                continue
            want = _ref_unit_inverse(sp, n)
            for k in range(1, P + 1):
                assert sp.unit_inverse(n, k) == want % sp.pi_power(k)
            assert n.num in sp._num_inverses
            assert sp.unit_inverse(n, P) == want

        # division through the divisor memo at every k in 2..P: a witness
        # (1 digit), a central pi (2 digits) and a unit at pi (none), each
        # dividing a product by itself, against the per-entry formulas
        by = OrderElement.zero(alg)
        while by.is_zero() or by.nrd().valuation(pi):
            by = OrderElement(alg, *(RatFunc(poly(D)) for _ in range(4)))
        w = ws.witnesses[0].element
        for x in (w, OrderElement.scalar(alg, RatFunc(pi)), by):
            v = x.nrd().valuation(pi)
            inv = _ref_unit_inverse(sp, x.nrd())
            for k in range(2, P + 1):
                m = sp.pi_power(k)
                prod = _cut(_ref_matmul(sp, A, _ref_embed(sp, x)), m)
                comp = adelic.SplitComponent(sp, sp.matmul(A, sp.embed(x, k),
                                                           k), k)
                assert comp.mat == prod
                if k - v < 2:
                    with pytest.raises(FactorizationError,
                                       match="precision exhausted"):
                        comp.right_divide(x, x.nrd())
                else:
                    comp.right_divide(x, x.nrd())
                    mk = sp.pi_power(k - v)
                    quo = [e.divmod(sp.pi_power(v)) for e in
                           _ref_matmul(sp, prod, _ref_embed(sp, x.conj()), m)]
                    assert all(r.is_zero() for _, r in quo)
                    assert (comp.mat, comp.precision) == (
                        tuple((e * inv) % mk for e, _ in quo), k - v)
                # one memo entry per (divisor, precision): the same divisor
                # at two precisions is two entries
                assert {key for key in sp._divisor_images if key[0] == x} \
                    == {(x, j) for j in range(2, k + 1)}
                assert (sp.divisor_image(x, k, x.nrd())
                        is sp._divisor_images[(x, k)])

        # a component at precision 2 cuts every kernel result down to pi^2;
        # at full precision, dividing by a witness costs one digit
        for precision in (2, P):
            m = sp.pi_power(precision)
            comp = adelic.SplitComponent(sp, A, precision=precision)
            mat = _cut(_ref_matmul(sp, comp.mat, _ref_embed(sp, elt)), m)
            comp = adelic.SplitComponent(
                sp, sp.matmul(comp.mat, sp.embed(elt, precision), precision),
                precision)
            assert comp.mat == mat
            comp.right_divide(by, by.nrd())
            inv = _ref_unit_inverse(sp, by.nrd())
            mat = tuple((e * inv) % m for e in
                        _ref_matmul(sp, mat, _ref_embed(sp, by.conj())))
            assert (comp.mat, comp.precision) == (mat, precision)
        comp = adelic.SplitComponent(sp, sp.matmul(comp.mat, sp.embed(w, P),
                                                   P), P)
        comp.right_divide(w, w.nrd())
        assert (comp.mat, comp.precision) == (
            _cut(mat, sp.pi_power(P - 1)), P - 1)


def test_exhausted_component_precision_survives_dash_O():
    # dividing by a witness costs one digit; at precision 2 nothing is
    # left, and the check is no assert, so -O cannot remove it
    script = (
        "import sys\n"
        "from tjl.adelic import FactorizationError, SplitComponent, "
        "SplitPlace, witness_set\n"
        "from tjl.funcfield import parse_poly\n"
        "from tjl.quaternion import AlgebraParams\n"
        "alg = AlgebraParams(3)\n"
        "pi = parse_poly(alg.field, 't+1')\n"
        "sp = SplitPlace(alg, pi)\n"
        "w = witness_set(alg, pi).witnesses[0].element\n"
        "comp = SplitComponent(sp, sp.embed(w, 2), precision=2)\n"
        "try:\n"
        "    comp.right_divide(w, w.nrd())\n"
        "except FactorizationError as exc:\n"
        "    print(sys.flags.optimize, 'precision exhausted' in str(exc))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


def test_inv_mod_names_the_place_and_the_precision():
    alg = AlgebraParams(3)
    pi = parse_poly(alg.field, "t+1")
    sp = SplitPlace(alg, pi)
    P = sp.precision
    with pytest.raises(ZeroDivisionError,
                       match=rf"^t\^2\+t is not a unit mod pi\^{P} at t\+1$"):
        sp.inv_mod(pi * Poly.t(alg.field))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_inv_mod_is_the_extended_euclid_inverse(q):
    # Newton's lift of the residue-field inverse is the inverse mod pi^P
    # that extended Euclid finds, at every place of degree <= 2
    rng = random.Random(900 + q)
    alg = AlgebraParams(q)
    F = alg.field
    for pi in default_places(alg, 2):
        sp = SplitPlace(alg, pi)
        m, D = sp.modulus, sp.modulus.degree
        for _ in range(10):
            a = Poly(F, [rng.randrange(q)
                         for _ in range(rng.randrange(1, D + 4))])
            if (a % pi).is_zero():
                continue
            inv = sp.inv_mod(a)
            assert inv == _ref_inv(a, m)
            assert (a * inv % m).is_one()


def test_split_place_rejects_t():
    alg = AlgebraParams(3)
    with pytest.raises(ValueError):
        SplitPlace(alg, Poly.t(alg.field))


def test_witness_shifts_frozen_q3():
    alg = AlgebraParams(3)
    F = alg.field
    ws = witness_set(alg, parse_poly(F, "t-1"))
    assert sorted(ws.shifts) == [(1, 0), (1, 2), (1, 4), (1, 6)]
    ws = witness_set(alg, parse_poly(F, "t+1"))
    assert sorted(ws.shifts) == [(1, 1), (1, 3), (1, 5), (1, 7)]
    ws = witness_set(alg, parse_poly(F, "t^2+1"))
    assert Counter(ws.shifts) == Counter(
        {(0, 0): 4, (0, 4): 4, (0, 2): 1, (0, 6): 1})


def test_witness_counts_and_normalization():
    for q, max_deg in ((3, 2), (5, 1)):
        alg = AlgebraParams(q)
        for pi in default_places(alg, max_deg):
            ws = witness_set(alg, pi)
            assert len(ws.witnesses) == q ** pi.degree + 1
            for w in ws.witnesses:
                g = w.element
                assert g.in_K1_infinity()
                n = g.nrd()
                assert n.valuation(pi) == 1
                assert n.valuation_at_infinity() == 0
                assert n.t_valuation() == -pi.degree


def _coset_labels(pi, kind):
    """The labels of the q^deg(pi) + 1 right ("upper") or left ("lower")
    cosets of the degree-one double coset at pi."""
    F = pi.field
    return [("diag",)] + [(kind, Poly(F, cs).coeffs)
                          for cs in product(range(F.q), repeat=pi.degree)]


def test_witness_cosets_cover_exactly():
    alg = AlgebraParams(3)
    for name in ("t-1", "t^2+1"):
        pi = parse_poly(alg.field, name)
        ws = witness_set(alg, pi)
        assert set(ws.by_right) == set(_coset_labels(pi, "upper"))
        assert set(ws.by_left) == set(_coset_labels(pi, "lower"))


def test_witness_uniqueness_certificates():
    alg = AlgebraParams(3)
    for name in ("t-1", "t+1", "t^2+1"):
        pi = parse_poly(alg.field, name)
        cert = verify_witness_uniqueness(alg, pi, depth_bound=3)
        assert cert["cosets"] == 3 ** pi.degree + 1
        assert cert["witnesses"] == cert["cosets"]
        assert cert["norm_degree_bound"] == 6


def test_hecke_matrices_structure():
    alg = AlgebraParams(3)
    F = alg.field
    G = group_of(alg)
    mats = {name: hecke_matrix(alg, parse_poly(F, name))
            for name in ("t-1", "t+1", "t^2+1")}
    for name, T in mats.items():
        assert len(T) == 16 and all(len(row) == 16 for row in T)
        assert all(type(v) is int for row in T for v in row)
        assert all(v >= 0 for row in T for v in row)
        want = 4 if name != "t^2+1" else 10
        assert all(sum(row) == want for row in T)
        assert all(sum(col) == want for col in zip(*T))
    pairs = list(mats.values())
    for A in pairs:
        for B in pairs:
            assert matmul(A, B) == matmul(B, A)
    for g in G.elements():
        L = left_translation_matrix(alg, g)
        for T in pairs:
            assert matmul(L, T) == matmul(T, L)


def test_hecke_matrix_is_sum_of_right_translations():
    alg = AlgebraParams(3)
    T = hecke_matrix(alg, parse_poly(alg.field, "t-1"))
    mats = [right_translation_matrix(alg, (1, e)) for e in (0, 2, 4, 6)]
    S = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*mats))
    assert T == S


def test_hecke_independent_of_splitting():
    # the witnesses relabeled in a conjugated model again fill every coset
    # once, and their shifts give the same Hecke matrix
    alg = AlgebraParams(3)
    moved_a_label = False
    for name in ("t-1", "t^2+1"):
        pi = parse_poly(alg.field, name)
        ws = witness_set(alg, pi)
        conj = _conjugated_model(alg, pi)
        moved = [Witness(w.element, w.depth, *conj.coset_labels(w.element),
                         w.reduction) for w in ws.witnesses]
        moved_a_label |= any(m.right_label != w.right_label
                             for m, w in zip(moved, ws.witnesses))
        again = WitnessSet(conj, moved)
        assert set(again.by_right) == set(ws.by_right)
        mats = [right_translation_matrix(alg, g) for g in again.shifts]
        S = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*mats))
        assert hecke_matrix(alg, pi) == S
    assert moved_a_label


def _dense_action_failures(alg, act):
    """The oracle for verify_action_relations: the messages of the
    relations that the right-translation matrices of act break, in the
    order the group check tries them."""
    G = group_of(alg)
    P = right_translation_matrix(alg, act["uniformizer"])
    U = [right_translation_matrix(alg, g) for g in act["units"]]
    broken = []
    if U[0] != right_translation_matrix(alg, G.identity):
        broken.append("the infinity action breaks act(1) = 1")
    for e in range(G.M):
        for e2 in range(G.M):
            if matmul(U[e], U[e2]) != U[(e + e2) % G.M]:
                broken.append(f"the infinity action breaks act(u^{e}) "
                              f"act(u^{e2}) = act(u^{e + e2})")
        if matmul(U[e], P) != matmul(P, U[(e * alg.q) % G.M]):
            broken.append(f"the infinity action breaks "
                          f"P u^{e} = u^{e * alg.q} P")
    if matmul(P, P) != right_translation_matrix(alg, (2 % G.R, 0)):
        broken.append("the infinity action breaks P^2 = t")
    return broken


def test_infinity_action_relations():
    # the group check passes where the dense matrices break no relation
    for alg in (AlgebraParams(3), AlgebraParams(5), AlgebraParams(3, level=2)):
        assert _dense_action_failures(alg, infinity_action(alg)) == []
        verify_action_relations(alg)


def test_broken_infinity_action_is_a_falsification(monkeypatch):
    # each relation raises FalsificationError, which python -O keeps; the
    # group check fails on the first relation the dense matrices break
    alg = AlgebraParams(3)
    real = infinity_action(alg)
    units = real["units"]
    tampered = [
        ({**real, "units": [units[1]] + units[1:]}, "act(1) = 1"),
        ({**real, "units": units[:1] + units[2:] + [units[1]]}, "act(u^"),
        ({**real, "uniformizer": group_of(alg).identity}, "P u^"),
        ({**real, "uniformizer": (1, 1)}, "P^2"),
    ]
    for act, claim in tampered:
        monkeypatch.setattr(adelic, "infinity_action",
                            lambda alg, act=act: act)
        with pytest.raises(FalsificationError,
                           match=re.escape(claim)) as err:
            verify_action_relations(alg)
        assert _dense_action_failures(alg, act)[:1] == [str(err.value)]


def test_broken_infinity_action_fails_under_dash_O():
    script = (
        "import sys\n"
        "from tjl import adelic\n"
        "from tjl.cyclotomic import FalsificationError\n"
        "from tjl.quaternion import AlgebraParams\n"
        "real = adelic.infinity_action\n"
        "adelic.infinity_action = lambda alg: {**real(alg), "
        "'uniformizer': (1, 1)}\n"
        "try:\n"
        "    adelic.verify_action_relations(AlgebraParams(3))\n"
        "except FalsificationError as exc:\n"
        "    print(sys.flags.optimize, 'P^2 = t' in str(exc))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


def test_coset_reader_on_coset_representatives():
    # the right coset of (pi r; 0 1) is the column line of (r, 1), the left
    # coset of (pi 0; r 1) the row line of (r, 1); (1 0; 0 pi) is diag
    alg = AlgebraParams(3)
    F = alg.field
    pi = parse_poly(F, "t^2+1")
    sp = SplitPlace(alg, pi)
    zero, one = Poly.zero(F), Poly.one(F)
    assert sp.identify_right_coset((one, zero, zero, pi)) == ("diag",)
    assert sp.identify_left_coset((one, zero, zero, pi)) == ("diag",)
    for r in (Poly(F, c) for c in product(range(3), repeat=2)):
        assert sp.identify_right_coset((pi, r, zero, one)) == ("upper", r.coeffs)
        assert sp.identify_left_coset((pi, zero, r, one)) == ("lower", r.coeffs)
    with pytest.raises(FalsificationError, match="columns span two lines"):
        sp.identify_right_coset((one, zero, zero, one))
    with pytest.raises(FalsificationError, match="rows span two lines"):
        sp.identify_left_coset((one, zero, zero, one))
    with pytest.raises(FalsificationError, match="vanishes"):
        sp.identify_right_coset((pi, pi, zero, pi))


def _ref_coset_label(pi, vectors, kind):
    """The one line mod pi of the vectors, by xgcd per vector."""
    labels = set()
    for v0, v1 in vectors:
        v0, v1 = v0 % pi, v1 % pi
        if not v1.is_zero():
            labels.add((kind, ((v0 * _ref_inv(v1, pi)) % pi).coeffs))
        elif not v0.is_zero():
            labels.add(("diag",))
    assert len(labels) == 1
    return labels.pop()


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_two_digit_coset_labels_equal_labels_at_P_digits(q):
    # v_pi(nrd) = 1 needs two digits and the line one: the labels that
    # coset_labels reads off the numerator matrix mod pi equal those read
    # off the P-digit embedding, at every witness, in the default model and
    # in a conjugated one
    alg = AlgebraParams(q)
    for pi in default_places(alg, 2):
        ws = witness_set(alg, pi)
        conj = _conjugated_model(alg, pi)
        for sp in (ws.split, conj):
            P = sp.precision
            for w in ws.witnesses:
                A = sp.embed(w.element, P)
                assert sp.det(A, P).valuation(pi) == 1
                # the numerator matrix is den times the embedding
                M = [sum((n * B[e] for n, B in zip(w.element.nums,
                                                   sp._basis)),
                         Poly.zero(alg.field)) % pi for e in range(4)]
                assert M == [(w.element.den * e) % pi for e in A]
                want = (_ref_coset_label(pi, [(A[0], A[2]), (A[1], A[3])],
                                         "upper"),
                        _ref_coset_label(pi, [(A[0], A[1]), (A[2], A[3])],
                                         "lower"))
                assert sp.coset_labels(w.element) == want
                if sp is ws.split:
                    assert (w.right_label, w.left_label) == want
            # the labels' quotients live in the model's F_q[t]/pi
            assert sp.residue.modulus == pi
            assert sp.residue.order == q ** pi.degree - 1


def test_coset_labels_reject_determinant_valuation_two():
    # pi times a witness has det valuation 3, which two digits see as 0
    # mod pi^2; a unit has det valuation 0
    alg = AlgebraParams(3)
    for name in ("t+1", "t^2+1"):
        pi = parse_poly(alg.field, name)
        sp = SplitPlace(alg, pi)
        w = witness_set(alg, pi).witnesses[0].element
        with pytest.raises(FalsificationError,
                           match=rf"determinant valuation >= 2 at "
                                 rf"{re.escape(name)}$"):
            sp.coset_labels(OrderElement.scalar(alg, RatFunc(pi)) * w)
        with pytest.raises(FalsificationError,
                           match="determinant valuation 0"):
            sp.coset_labels(OrderElement.one(alg))


def test_coset_labels_reject_determinant_valuation_two_under_dash_O():
    script = (
        "import sys\n"
        "from tjl.adelic import FalsificationError, SplitPlace, witness_set\n"
        "from tjl.funcfield import RatFunc, parse_poly\n"
        "from tjl.quaternion import AlgebraParams, OrderElement\n"
        "alg = AlgebraParams(3)\n"
        "pi = parse_poly(alg.field, 't+1')\n"
        "w = witness_set(alg, pi).witnesses[0].element\n"
        "try:\n"
        "    SplitPlace(alg, pi).coset_labels(\n"
        "        OrderElement.scalar(alg, RatFunc(pi)) * w)\n"
        "except FalsificationError as exc:\n"
        "    print(sys.flags.optimize, 'valuation >= 2' in str(exc))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


def _tamper_mat_j(sp):
    """Negate the entry eps y of mat_j, nonzero mod pi, after the model's
    relations were checked; nothing read the basis matrices yet."""
    assert sp._basis_mod_pi is None
    a, b, c, d = sp.mat_j
    assert not (b % sp.pi).is_zero()
    sp.mat_j = (a, (-b) % sp.modulus, c, d)
    sp._basis = (sp.mat_one, sp.mat_i, sp.mat_j, sp.mat_k)


def test_a_model_breaking_det_equals_nrd_is_a_falsification():
    # the coset labels read v_pi(nrd) for v_pi(det embed); a model whose
    # determinant is not the norm mod pi^2 is refused, naming the place
    alg = AlgebraParams(3)
    for name in ("t+1", "t^2+1"):
        pi = parse_poly(alg.field, name)
        w = witness_set(alg, pi).witnesses[0].element
        assert SplitPlace(alg, pi).coset_labels(w)
        sp = SplitPlace(alg, pi)
        _tamper_mat_j(sp)
        with pytest.raises(FalsificationError,
                           match=rf"model at {re.escape(name)} breaks det "
                                 rf"embed = nrd mod pi\^2"):
            sp.coset_labels(w)
        assert sp._basis_mod_pi is None


def test_a_model_breaking_det_equals_nrd_fails_under_dash_O():
    script = (
        "import sys\n"
        "from tjl.adelic import FalsificationError, SplitPlace, witness_set\n"
        "from tjl.funcfield import parse_poly\n"
        "from tjl.quaternion import AlgebraParams\n"
        "alg = AlgebraParams(3)\n"
        "pi = parse_poly(alg.field, 't+1')\n"
        "sp = SplitPlace(alg, pi)\n"
        "a, b, c, d = sp.mat_j\n"
        "sp.mat_j = (a, (-b) % sp.modulus, c, d)\n"
        "sp._basis = (sp.mat_one, sp.mat_i, sp.mat_j, sp.mat_k)\n"
        "try:\n"
        "    sp.coset_labels(witness_set(alg, pi).witnesses[0].element)\n"
        "except FalsificationError as exc:\n"
        "    print(sys.flags.optimize, 'det embed = nrd' in str(exc))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_witness_reductions_match_the_reference_products(q):
    # the closed forms against k products by j or j/t, at every witness of
    # every place of degree <= 2; k = -deg pi at t and 0 at infinity
    alg = AlgebraParams(q)
    for pi in default_places(alg, 2):
        for w in witness_set(alg, pi).witnesses:
            gam = w.element
            assert w.reduction == reduce_at_zero(gam) \
                == ref_reduce_at_zero(gam)
            assert w.reduction.k == -pi.degree
            red = reduce_at_infinity(gam)
            assert red == ref_reduce_at_infinity(gam)
            assert (red.k, red.exponent) == (0, 0)


def test_infinity_action_commutes_with_hecke():
    alg = AlgebraParams(3)
    act = infinity_action(alg)
    mats = [right_translation_matrix(alg, g)
            for g in [act["uniformizer"]] + act["units"]]
    for name in ("t-1", "t+1", "t^2+1"):
        T = hecke_matrix(alg, parse_poly(alg.field, name))
        for A in mats:
            assert matmul(A, T) == matmul(T, A)


def test_elementary_factorizations_frozen():
    # the shifts that undo the uniformizer, the Teichmueller unit u^d
    # (g_d, the reduction of the lift of u^(-d)) and each Hecke coset at t-1
    alg = AlgebraParams(3)
    G = group_of(alg)
    act = infinity_action(alg)
    assert act["uniformizer"] == (1, 0)
    for d in range(1, 8):
        assert act["units"][d] == (0, (-d) % 8)
    pi = parse_poly(alg.field, "t-1")
    ws = witness_set(alg, pi)
    shifts = {}
    for lab in _coset_labels(pi, "upper"):
        w = ws.by_right[lab]
        assert w.element.in_K1_infinity()
        shifts[lab] = w.reduction.to_gamma(G.R, G.M)
    assert shifts == {("diag",): (1, 2), ("upper", ()): (1, 6),
                      ("upper", (1,)): (1, 4), ("upper", (2,)): (1, 0)}


def test_round_trips_recover_class():
    alg = AlgebraParams(3)
    places = default_places(alg)
    rng = random.Random(97)
    one = OrderElement.one(alg)
    for _ in range(12):
        state, cls, grand = synthesize_random_adele(alg, rng, places)
        recovered, rho = factorize_adele(alg, state)
        assert recovered == cls
        # the peeled global factor cancels the synthesized one exactly
        assert grand * rho == one
        assert state.infinity.in_K1_infinity()
        for pi, comp in state.split.items():
            assert comp.is_unit()
            # one split model per place, shared with the witness scan
            assert comp.sp is witness_set(alg, pi).split


def test_round_trips_level_two():
    alg = AlgebraParams(3, level=2)
    places = default_places(alg, 1)
    rng = random.Random(101)
    one = OrderElement.one(alg)
    for _ in range(6):
        state, cls, grand = synthesize_random_adele(alg, rng, places)
        recovered, rho = factorize_adele(alg, state)
        assert recovered == cls
        assert grand * rho == one


def test_round_trips_q5():
    alg = AlgebraParams(5)
    places = default_places(alg, 1)
    rng = random.Random(103)
    one = OrderElement.one(alg)
    for _ in range(4):
        state, cls, grand = synthesize_random_adele(alg, rng, places)
        recovered, rho = factorize_adele(alg, state)
        assert recovered == cls
        assert grand * rho == one


# sha256 over repr((gamma_rand, cls, recovered, rho)) of the first 20
# round trips at (q, level, degree bound, seed), recorded while each
# quaternion coordinate was still a RatFunc of its own.  `tjl verify`
# prints only the count, so this pins the round trip's arithmetic itself.
ROUND_TRIP_DIGESTS = {
    (5, 1, 1, 1001):
        "66bbb9be74e9dfb57e72dd93970e104a5ab35039070b7b42964173024f4e75d6",
    (3, 2, 2, 5):
        "dbb102b533f8d198e98461a0f9a4f7d6e43ee1a8ade114c3eb01212b9035dd9a",
}


@pytest.mark.parametrize("q, level, degree_bound, seed",
                         sorted(ROUND_TRIP_DIGESTS))
def test_round_trip_arithmetic_is_pinned(q, level, degree_bound, seed):
    alg = AlgebraParams(q, level=level)
    places = default_places(alg, degree_bound)
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(20):
        state, cls, grand = synthesize_random_adele(alg, rng, places)
        recovered, rho = factorize_adele(alg, state)
        digest.update(repr((grand, cls, recovered, rho)).encode())
    assert digest.hexdigest() == ROUND_TRIP_DIGESTS[q, level, degree_bound,
                                                    seed]


@pytest.mark.parametrize("q, level, degree_bound, seed",
                         sorted(ROUND_TRIP_DIGESTS))
def test_round_trip_reductions_match_the_reference_products(
        monkeypatch, q, level, degree_bound, seed):
    # every component at t and infinity that the pinned round trips reduce,
    # and the final one at infinity, against k products by j or j/t
    reduced = []
    for name in ("reduce_at_zero", "reduce_at_infinity"):
        real = getattr(adelic, name)
        monkeypatch.setattr(adelic, name, lambda x, real=real: (
            reduced.append((real, x)) or real(x)))
    alg = AlgebraParams(q, level=level)
    places = default_places(alg, degree_bound)
    rng = random.Random(seed)
    for _ in range(20):
        state, _, _ = synthesize_random_adele(alg, rng, places)
        factorize_adele(alg, state)
        reduced.append((reduce_at_infinity, state.infinity))
    ref = {reduce_at_zero: ref_reduce_at_zero,
           reduce_at_infinity: ref_reduce_at_infinity}
    parities = set()
    for red, x in reduced:
        got = red(x)
        assert got == ref[red](x)
        parities.add(got.k % 2)
    assert parities == {0, 1}


def _right_multiply(state, elt):
    """state times elt on the right, in every component."""
    state.zero, state.infinity = state.zero * elt, state.infinity * elt
    for p, c in state.split.items():
        k = c.precision
        state.split[p] = adelic.SplitComponent(
            c.sp, c.sp.matmul(c.mat, c.sp.embed(elt, k), k), k)


def test_adele_right_divide_returns_the_inverse():
    # one norm serves every component: each live one (determinant not a
    # unit) ends as if divided on its own, and each frozen one (a unit) is
    # left as it is, as are the components at t and infinity.  Each
    # divisor gets a fresh state: at P = MAX_HECKE_MODS + 2 digits a
    # synthesized component has room for a witness or a central pi, not
    # for both
    alg = AlgebraParams(5)
    places = default_places(alg, 1)
    rng = random.Random(104)
    kinds = Counter()
    for pi in places[:3]:
        for elt in (witness_set(alg, pi).witnesses[0].element,
                    OrderElement.scalar(alg, RatFunc(pi))):
            state, _, _ = synthesize_random_adele(alg, rng, places)
            _right_multiply(state, elt)  # so that elt divides every component
            zero, infinity = state.zero, state.infinity
            before = {p: (c, c.mat, c.precision, c.is_unit())
                      for p, c in state.split.items()}
            inv = state.right_divide(elt)
            assert inv == elt.inverse()
            assert state.zero is zero and state.infinity is infinity
            for p, (comp, mat, precision, frozen) in before.items():
                kinds[frozen] += 1
                assert state.split[p] is comp
                alone = adelic.SplitComponent(comp.sp, mat, precision)
                if not frozen:
                    alone.right_divide(elt, elt.nrd())
                assert (comp.mat, comp.precision) == (alone.mat,
                                                      alone.precision)
    assert kinds[True] and kinds[False]


@pytest.mark.parametrize("q, level, degree_bound",
                         [(3, 1, 2), (9, 1, 1), (3, 2, 2)])
def test_peeling_the_live_components_alone_matches_peeling_them_all(
        q, level, degree_bound):
    # the old peeling divides every component by every divisor and
    # multiplies t and infinity once per divisor: it gives the same class,
    # rho and components at t and infinity, and each component it had to
    # peel ends as it did when its own peeling ended; a unit component
    # stays as the v + 2 cut left it
    alg = AlgebraParams(q, level=level)
    places = default_places(alg, degree_bound)
    rng = random.Random(1000 * q + 10 * level + degree_bound)
    kinds = Counter()
    for _ in range(40):
        state, cls, grand = synthesize_random_adele(alg, rng, places)
        want_cls, want_rho, zero, infinity, peeled = ref_factorize_adele(
            alg, state)
        cut = {pi: adelic.SplitComponent(c.sp, c.mat, min(2, c.precision))
               for pi, c in state.split.items() if c.is_unit()}
        recovered, rho = factorize_adele(alg, state)
        assert (recovered, rho) == (want_cls, want_rho) == (cls,
                                                            grand.inverse())
        assert (state.zero, state.infinity) == (zero, infinity)
        assert set(cut) | set(peeled) == set(state.split)
        assert not set(cut) & set(peeled)
        for pi, comp in state.split.items():
            kinds[pi in cut] += 1
            want = ((cut[pi].mat, cut[pi].precision) if pi in cut
                    else peeled[pi])
            assert (comp.mat, comp.precision) == want
    assert kinds[True] and kinds[False]


# peels a witness at t+2 while the component at t+1 is a unit, first as it
# is and then with every witness norm at t+2 faked to hold t+1 once
_FROZEN_PLACE_SCRIPT = (
    "import sys\n"
    "from tjl import adelic\n"
    "from tjl.funcfield import RatFunc, parse_poly\n"
    "from tjl.quaternion import AlgebraParams, OrderElement\n"
    "alg = AlgebraParams(3)\n"
    "p1, p2 = (parse_poly(alg.field, s) for s in ('t+1', 't+2'))\n"
    "sp1, sp2 = (adelic.witness_set(alg, p).split for p in (p1, p2))\n"
    "ws = [w.element for w in adelic.witness_set(alg, p2).witnesses]\n"
    "one = OrderElement.one(alg)\n"
    "def state():\n"
    "    return adelic.AdeleState(alg, ws[0], ws[0], {\n"
    "        p1: adelic.SplitComponent(sp1, sp1.embed(one, 4)),\n"
    "        p2: adelic.SplitComponent(sp2, sp2.embed(ws[0], 4))})\n"
    "print(adelic.factorize_adele(alg, state())[0])\n"
    "for w in ws:\n"
    "    adelic._DIVISORS[(alg, w)] = (w.nrd() * RatFunc(p1), w.inverse())\n"
    "try:\n"
    "    adelic.factorize_adele(alg, state())\n"
    "except adelic.FactorizationError as exc:\n"
    "    print(sys.flags.optimize, exc)\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_divisor_that_is_no_unit_at_a_frozen_place_fails(flags):
    # the frozen component at t+1 is never multiplied, so a divisor whose
    # norm is not a unit there is caught through that norm, by no assert
    # that -O could strip
    proc = subprocess.run([sys.executable, *flags, "-c", _FROZEN_PLACE_SCRIPT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "(0, 0)",
        f"{len(flags)} a divisor has norm valuation 1 at t+1, where the "
        f"component must stay a unit"]


@pytest.mark.parametrize("q", [3, 5, 9])
def test_factorize_adele_cuts_each_component_to_v_plus_two_digits(q):
    # each peel at pi costs the pi-valuation it removes from the
    # determinant, so a component cut to v + 2 digits ends at 2 digits, and
    # one with a digit fewer runs out on its last peel
    alg = AlgebraParams(q)
    places = default_places(alg, 1)[:3]
    peeled = 0
    for trip in range(10):
        rng = random.Random(900 * q + trip)
        state, cls, grand = synthesize_random_adele(alg, rng, places)
        start = {pi: (comp.precision, comp.det_valuation())
                 for pi, comp in state.split.items()}
        recovered, rho = factorize_adele(alg, state)
        assert (recovered, grand * rho) == (cls, OrderElement.one(alg))
        for pi, comp in state.split.items():
            precision, v = start[pi]
            assert comp.precision == (2 if v + 2 < precision
                                      else precision - v)

        for pi, (precision, v) in start.items():
            if not v:
                continue
            peeled += 1
            rng = random.Random(900 * q + trip)
            state, _, _ = synthesize_random_adele(alg, rng, places)
            comp = state.split[pi]
            state.split[pi] = adelic.SplitComponent(comp.sp, comp.mat, v + 1)
            with pytest.raises(FactorizationError, match="precision exhausted"):
                factorize_adele(alg, state)
    assert peeled


def test_split_precision_is_tight_for_max_hecke_mods():
    # P = MAX_HECKE_MODS + 2: the product of MAX_HECKE_MODS witnesses at one
    # place peels at P digits and runs out of them at P - 1
    assert SplitPlace.precision == adelic.MAX_HECKE_MODS + 2
    alg = AlgebraParams(3)
    G = group_of(alg)
    one = OrderElement.one(alg)
    for name in ("t+1", "t^2+1"):
        pi = parse_poly(alg.field, name)
        sp = witness_set(alg, pi).split
        P = sp.precision
        ws = [w.element for w in witness_set(alg, pi).witnesses]
        for factors in product(ws[:3], repeat=adelic.MAX_HECKE_MODS):
            gam = one
            for w in factors:
                gam = gam * w

            def state(k):
                comp = adelic.SplitComponent(sp, sp.embed(gam, k), k)
                assert comp.det_valuation() == adelic.MAX_HECKE_MODS
                return adelic.AdeleState(alg, gam, gam, {pi: comp})

            s = state(P)
            recovered, rho = factorize_adele(alg, s)
            assert (recovered, gam * rho) == (G.identity, one)
            assert s.split[pi].precision == 2
            with pytest.raises(FactorizationError, match="precision exhausted"):
                factorize_adele(alg, state(P - 1))


def test_factorize_adele_checks_the_infinity_balance(monkeypatch):
    # the split components end as units without the infinity balance
    # gamma_f, which is checked to be a unit there: a gamma_f that picks up
    # pi / t^deg pi, a principal unit at infinity, must fail
    alg = AlgebraParams(3)
    places = default_places(alg, 1)
    for seed in range(4):
        state, cls, _ = synthesize_random_adele(alg, random.Random(seed),
                                                places)
        assert factorize_adele(alg, state)[0] == cls
        assert all(comp.is_unit() for comp in state.split.values())
    pi = places[1]
    bad = OrderElement.scalar(
        alg, RatFunc(pi, Poly.t_power(alg.field, pi.degree)))
    state, _, _ = synthesize_random_adele(alg, random.Random(0), places)
    real = adelic._j_power  # gamma_f's uniformizer power, (j/t)^(-k) = j^k
    monkeypatch.setattr(adelic, "_j_power", lambda alg, k: real(alg, k) * bad)
    with pytest.raises(FactorizationError,
                       match=rf"infinity balance has norm valuation 2 at "
                             rf"{re.escape(format_poly(pi))},"):
        factorize_adele(alg, state)


def test_level_scaling_is_invisible():
    # multiplying the component at t by t^N leaves the class unchanged
    alg = AlgebraParams(3, level=2)
    G = group_of(alg)
    x = OrderElement.teichmuller(alg, alg.residue.from_dlog(5))
    scaled = OrderElement.scalar(
        alg, RatFunc.t_power(alg.field, alg.level)) * x
    r1 = reduce_at_zero(x)
    r2 = reduce_at_zero(scaled)
    assert r1.to_gamma(G.R, G.M) == r2.to_gamma(G.R, G.M)
    assert r2.k - r1.k == 2 * alg.level


# -- the shared norm-form join and the witness scan --------------------


def _brute_force_box(alg, pi, m):
    """Every (a, b, c, d) of the search box at depth m, in product order,
    whose reduced norm a^2 - eps b^2 - t c^2 + eps t d^2 is t^{2m-deg pi} pi."""
    F = alg.field
    e0 = 2 * m - pi.degree
    if e0 < 0:
        return []
    target = Poly.t_power(F, e0) * pi
    eps = Poly.constant(F, alg.eps)
    t = Poly.t(F)
    lowers = [Poly(F, cs) for cs in product(range(F.q), repeat=m)]
    sq = [p * p for p in lowers]
    tm = Poly.t_power(F, m)
    hits = []
    for la in lowers:
        a = tm + la
        for b, b2 in zip(lowers, sq):
            ab = a * a - eps * b2
            for c, c2 in zip(lowers, sq):
                abc = ab - t * c2
                for d, d2 in zip(lowers, sq):
                    if abc + eps * t * d2 == target:
                        hits.append((a, b, c, d))
    return hits


@pytest.mark.parametrize("q, depths, max_places", [
    (3, (1, 2), None), (5, (1,), None), (9, (1,), 3), (7, (1,), None)])
def test_box_candidates_match_brute_force(q, depths, max_places):
    alg = AlgebraParams(q)
    places = default_places(alg, 2)
    if max_places is not None:
        # two degree-one places and one of degree two keep GF(9) cheap
        places = places[:max_places - 1] + places[-1:]
    for pi in places:
        for m in depths:
            got = list(adelic._box_candidates(alg, pi, m))
            assert got == _brute_force_box(alg, pi, m), (pi, m)
            target = RatFunc(Poly.t_power(alg.field, 2 * m - pi.degree) * pi)
            for a, b, c, d in got:
                assert OrderElement.from_polys(alg, a, b, c, d).nrd() == target


@pytest.mark.parametrize("q, top", [(3, 3), (5, 3), (7, 3), (9, 2)])
def test_deeper_depths_hold_only_t_multiples(q, top):
    # the lemma behind the one-depth scan: past m0 = ceil(deg pi / 2) the
    # join finds exactly t times the candidates of the depth above
    alg = AlgebraParams(q)
    t = Poly.t(alg.field)
    for pi in default_places(alg, 2):
        m0 = (pi.degree + 1) // 2
        above = list(adelic._box_candidates(alg, pi, m0))
        assert len(above) == q ** pi.degree + 1
        assert not any(all((p % t).is_zero() for p in cand) for cand in above)
        for m in range(m0 + 1, top + 1):
            deeper = list(adelic._box_candidates(alg, pi, m))
            assert len(deeper) == len(above), (pi, m)
            assert set(deeper) == {tuple(t * p for p in cand)
                                   for cand in above}, (pi, m)
            above = deeper


def test_isotropic_norm_form_is_a_falsification(monkeypatch):
    with pytest.raises(FalsificationError,
                       match="its zeros are \\[\\(0, 0\\), \\(1, 1\\)"):
        require_anisotropic(gf(3), 1)
    # the scan checks the lemma's one premise before it trusts one depth
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(adelic, "require_anisotropic",
                        lambda F, eps: require_anisotropic(F, 1))
    alg = AlgebraParams(3)
    pi = parse_poly(alg.field, "t^2+1")
    with pytest.raises(FalsificationError, match="anisotropic"):
        verify_witness_uniqueness(alg, pi)
    with pytest.raises(FalsificationError, match="anisotropic"):
        witness_set(alg, pi)


def test_isotropic_norm_form_fails_under_dash_O():
    script = (
        "import sys\n"
        "from tjl import adelic\n"
        "from tjl.cyclotomic import FalsificationError\n"
        "from tjl.funcfield import parse_poly\n"
        "from tjl.quaternion import AlgebraParams, require_anisotropic\n"
        "alg = AlgebraParams(5)\n"
        "adelic.require_anisotropic = lambda F, eps: require_anisotropic(F, 4)\n"
        "try:\n"
        "    adelic.witness_set(alg, parse_poly(alg.field, 't+1'))\n"
        "except FalsificationError as exc:\n"
        "    print(sys.flags.optimize, 'anisotropic' in str(exc))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


@pytest.mark.parametrize("q", [3, 5, 9])
@pytest.mark.parametrize("m", [1, 2])
def test_norm_table_files_each_pair_under_its_norm(q, m):
    alg = AlgebraParams(q)
    F = alg.field
    eps, t = Poly.constant(F, alg.eps), Poly.t(F)
    lows = [Poly(F, cs) for cs in product(range(q), repeat=m)]
    want: dict[tuple, list[tuple[int, int]]] = {}
    for ib, b in enumerate(lows):
        for ic, c in enumerate(lows):
            key = (eps * b * b + t * c * c).coeffs
            want.setdefault(key, []).append((ib, ic))
    assert adelic._norm_table(F, m) == want


class _RecordingDict(dict):
    """A dict that lists the keys stored in it, in order."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_norm_table_is_built_once_per_q_depth(monkeypatch):
    tables = _RecordingDict()
    monkeypatch.setattr(adelic, "_NORM_TABLES", tables)
    alg = AlgebraParams(3)
    places = default_places(alg, 2)
    for pi in places:
        list(adelic._box_candidates(alg, pi, 2))
    assert tables.stored == [(3, 2)]
    list(adelic._box_candidates(alg, places[0], 1))
    assert tables.stored == [(3, 2), (3, 1)]


def test_norm_table_past_the_row_cap_is_a_search_bound():
    alg = AlgebraParams(9)
    pi = default_places(alg, 1)[0]
    assert 9 ** 8 > adelic.TABLE_ROW_CAP
    with pytest.raises(SearchBoundExceededError, match="cap"):
        next(adelic._box_candidates(alg, pi, 4))


def test_place_past_the_row_cap_builds_no_split_model(monkeypatch):
    # the cap is checked before the model (its residue field has 3^13
    # elements) is built
    def refuse(alg, pi):
        raise AssertionError("SplitPlace built past the row cap")

    monkeypatch.setattr(adelic, "_SCANS", {})
    monkeypatch.setattr(adelic, "SplitPlace", refuse)
    alg = AlgebraParams(3)
    pi = parse_poly(alg.field, "t^13+2t^3+t^2+1")
    assert 3 ** 14 > adelic.TABLE_ROW_CAP
    with pytest.raises(SearchBoundExceededError, match="cap"):
        verify_witness_uniqueness(alg, pi, depth_bound=7)


def _fresh_caches(monkeypatch):
    monkeypatch.setattr(adelic, "_SCANS", {})


def test_uniqueness_depth_bound_ignores_cache_state(monkeypatch):
    alg = AlgebraParams(3)
    for pi in default_places(alg, 2):
        ws = witness_set(alg, pi)
        depth = max(w.depth for w in ws.witnesses)
        for bound in range(depth):
            with pytest.raises(SearchBoundExceededError):
                verify_witness_uniqueness(alg, pi, depth_bound=bound)
        cert = verify_witness_uniqueness(alg, pi, depth_bound=depth)
        assert cert["witnesses"] == len(ws.witnesses)
        assert witness_set(alg, pi).witnesses == ws.witnesses
    _fresh_caches(monkeypatch)
    pi = parse_poly(alg.field, "t^2+2t+2")
    with pytest.raises(SearchBoundExceededError, match="t\\^2\\+2t\\+2"):
        verify_witness_uniqueness(alg, pi, depth_bound=0)
    verify_witness_uniqueness(alg, pi, depth_bound=3)
    with pytest.raises(SearchBoundExceededError, match="t\\^2\\+2t\\+2"):
        verify_witness_uniqueness(alg, pi, depth_bound=0)


def test_witness_set_is_certified_once_per_place(monkeypatch):
    _fresh_caches(monkeypatch)
    scan = adelic._scan
    calls = []
    monkeypatch.setattr(adelic, "_scan",
                        lambda split: calls.append(split.pi) or scan(split))
    alg = AlgebraParams(3)
    pi = parse_poly(alg.field, "t^2+1")
    ws = witness_set(alg, pi)
    assert witness_set(alg, pi) is ws
    assert calls == [pi]
    assert verify_witness_uniqueness(alg, pi, depth_bound=4)["witnesses"] == 10
    assert calls == [pi]
    # the shifts are one tuple of reductions in the group of the algebra
    G = group_of(alg)
    assert ws.shifts == tuple(w.reduction.to_gamma(G.R, G.M)
                              for w in ws.witnesses)


def test_witness_set_cache_is_keyed_by_level():
    pi = parse_poly(AlgebraParams(3).field, "t-1")
    ws1 = witness_set(AlgebraParams(3), pi)
    ws2 = witness_set(AlgebraParams(3, level=2), pi)
    assert ws2 is not ws1
    assert ws1.split.alg == AlgebraParams(3)
    assert ws2.split.alg == AlgebraParams(3, level=2)
    assert all(w.element.alg == ws2.split.alg for w in ws2.witnesses)


def test_second_witness_in_a_coset_is_a_falsification(monkeypatch):
    box = adelic._box_candidates

    def doubled(alg, pi, m):
        for cand in box(alg, pi, m):
            yield cand
            yield cand

    _fresh_caches(monkeypatch)
    monkeypatch.setattr(adelic, "_box_candidates", doubled)
    alg = AlgebraParams(3)
    pi = parse_poly(alg.field, "t-1")
    with pytest.raises(FalsificationError, match="second witness in right"):
        verify_witness_uniqueness(alg, pi)
    with pytest.raises(FalsificationError, match="second witness in right"):
        witness_set(alg, pi)


def test_uniqueness_reports_missing_cosets_as_a_search_bound():
    alg = AlgebraParams(3)
    pi = parse_poly(alg.field, "t^2+1")
    with pytest.raises(SearchBoundExceededError,
                       match="found 0 of 10 witnesses at t\\^2\\+1"):
        verify_witness_uniqueness(alg, pi, depth_bound=0)
    # a cubic place has its witnesses at depth 2
    pi = parse_poly(alg.field, "t^3+2t+1")
    with pytest.raises(SearchBoundExceededError,
                       match="found 0 of 28 witnesses at t\\^3\\+2t\\+1 "
                             "within depth 1"):
        verify_witness_uniqueness(alg, pi, depth_bound=1)
    assert verify_witness_uniqueness(alg, pi, depth_bound=2)["witnesses"] == 28


def test_missing_witness_at_m0_is_a_falsification(monkeypatch, capsys):
    # every witness lies at depth m0, so a short count is no search bound
    box = adelic._box_candidates

    def dropped(alg, pi, m):
        cands = box(alg, pi, m)
        next(cands)
        yield from cands

    _fresh_caches(monkeypatch)
    monkeypatch.setattr(adelic, "_box_candidates", dropped)
    alg = AlgebraParams(3)
    pi = parse_poly(alg.field, "t^2+1")
    with pytest.raises(FalsificationError,
                       match="found 9 of 10 witnesses at t\\^2\\+1"):
        verify_witness_uniqueness(alg, pi, depth_bound=3)
    with pytest.raises(FalsificationError, match="found 9 of 10"):
        witness_set(alg, pi)
    assert cli.run(["verify", "--q", "3", "--degree-bound", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "falsification"
    assert "found 3 of 4 witnesses" in payload["message"]
