"""Spectral decomposition: intertwiner spaces, Hecke eigensystems, blocks,
infinity labels, and the projective basis of eigenlines."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracles import verify_all
from tjl.funcfield import parse_poly
from tjl.cyclotomic import Cyc
from tjl import cli, spectral
from tjl.metacyclic import (
    GroupParams,
    Irrep,
    IrrepLabel,
    character_inner,
    character_table,
    enumerate_irreps,
    gamma,
)
from tjl.quaternion import AlgebraParams
from tjl.adelic import (default_places, group_of, infinity_action,
                        witness_set)
from tjl.spectral import (
    EigensystemBlock,
    FalsificationError,
    HomSpace,
    decompose,
)
from tjl.tame import infinity_prediction


def _places_q3():
    F = AlgebraParams(3).field
    return [parse_poly(F, name) for name in ("t-1", "t+1", "t^2+1")]


def _dense(mono, m=8):
    """The monomial (perm, exps) over zeta_m, by default that of
    Gamma(3, 2, 1), as a dense Cyc matrix."""
    perm, exps = mono
    out = [[Cyc.zero(m)] * len(perm) for _ in perm]
    for j, (i, x) in enumerate(zip(perm, exps)):
        out[i][j] = Cyc(m, {x: 1})
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _mat_mul(a, b):
    zero = Cyc.zero(a[0][0].order)
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


# -- the per-line decomposition, kept as an oracle for decompose ---------

# the row index of each group's character table, keyed by the group
_ROW_INDEX: dict = {}


def character_row_index(group):
    """The label of each character-table row, keyed by the reduced
    coefficients of its values.  The key is canonical, unlike the sparse
    terms (zeta_8^0 + zeta_8^4 = 0 has two).  Distinct irreducible
    characters are orthonormal (Serre, Linear Representations of Finite
    Groups, section 2.3), so two equal rows are a falsification."""
    index = _ROW_INDEX.get(group)
    if index is None:
        labels, _, _, rows = character_table(group)
        index = {}
        for label, row in zip(labels, rows):
            other = index.setdefault(tuple(v.reduced() for v in row), label)
            if other is not label:
                raise FalsificationError(
                    f"the character rows of {other} and {label} are equal")
        _ROW_INDEX[group] = index
    return index


def _phi(g, R):
    """The identification of the group at infinity with the class group:
    composes the reduction anti-homomorphism with inversion.  It is a
    homomorphism because q^2 = 1 on the exponent lattice here (n = 2)."""
    return ((-g[0]) % R, g[1])


def oracle_decompose(alg, label, places):
    """The block found without centrality: every line's image under every
    Hecke operator as one histogram per row, the off-diagonal ones zero;
    lines grouped by their eigensystems, which must be one; the block's
    character on every class representative, looked up in the row
    index."""
    G = group_of(alg)
    hs = HomSpace(G, label)
    f, M, R, order = hs.f, G.M, G.R, G.cyc_order
    _, exps = hs.op_right((0, 1))
    lines = {x // (order // M): j for j, x in enumerate(exps)}
    eigen = {c: [] for c in lines}
    for pi in places:
        ops = [hs.op_right(g) for g in witness_set(alg, pi).shifts]
        for c, j in lines.items():
            rows = [Counter() for _ in range(f)]
            for op_perm, op_exps in ops:
                rows[op_perm[j]][op_exps[j]] += 1
            if any(not Cyc(order, hist).is_zero()
                   for i, hist in enumerate(rows) if i != j):
                raise FalsificationError(
                    "Hecke operator does not preserve a unit line")
            eigen[c].append(Cyc(order, rows[j]))
    keys = {c: tuple(e.reduced() for e in evs) for c, evs in eigen.items()}
    by_system = {}
    for c in sorted(lines):
        by_system.setdefault(keys[c], []).append(c)
    if len(by_system) != 1:
        raise FalsificationError(
            f"the unit lines carry {len(by_system)} Hecke eigensystems")
    (chis,) = by_system.values()
    _, reps, sizes, _ = character_table(G)
    row_index = character_row_index(G)
    block = {lines[c] for c in chis}
    char_row = []
    for rep in reps:
        op_perm, op_exps = hs.op_right(_phi(rep, R))
        if any(op_perm[j] not in block for j in block):
            raise FalsificationError(
                f"the infinity action at {rep} does not keep the "
                f"block of unit characters {chis}")
        char_row.append(Cyc(order, Counter(
            op_exps[j] for j in block if op_perm[j] == j)))
    inf_label = row_index.get(tuple(v.reduced() for v in char_row))
    if inf_label is None:
        norm = character_inner(G, char_row, char_row, sizes)
        if norm > 1:
            raise FalsificationError(
                f"block of dimension {len(chis)} is reducible at "
                f"infinity (character norm {norm})")
        raise FalsificationError(
            "block character is irreducible but matches no label")
    if inf_label.dim != len(chis):
        raise FalsificationError(
            f"block of dimension {len(chis)} matches {inf_label} of "
            f"dimension {inf_label.dim}")
    return EigensystemBlock(
        hecke_eigenvalues=eigen[chis[0]],
        lines=[(c, lines[c]) for c in chis],
        infinity_label=inf_label,
    )


@pytest.mark.parametrize("q, level", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_decompose_matches_per_line_oracle(q, level):
    # the same block: eigenvalues at every default place, lines and
    # infinity label
    alg = AlgebraParams(q, level=level)
    places = default_places(alg, 2)
    for label in enumerate_irreps(group_of(alg)):
        assert decompose(alg, label, places) \
            == oracle_decompose(alg, label, places)


def test_centrality_cache_keyed_by_algebra_and_place(fresh_memos):
    # levels 1 and 2 share q = 3 and their places; each order runs from
    # empty caches and again over the other order's entries
    def run(levels):
        out = {}
        for level in levels:
            alg = AlgebraParams(3, level=level)
            places = default_places(alg, 2)
            out[level] = [decompose(alg, label, places)
                          for label in enumerate_irreps(group_of(alg))]
        return out

    first = run((1, 2))
    # one entry per level and place, so the levels do not share one
    places = len(default_places(AlgebraParams(3), 2))
    assert spectral._central_shifts.cache_info().currsize == 2 * places
    warm = run((2, 1))
    fresh_memos()
    second = run((2, 1))
    again = run((1, 2))
    assert first == warm == second == again


def test_hom_space_dimensions():
    G = gamma(3, 2, 1)
    for label in enumerate_irreps(G):
        hs = HomSpace(G, label)
        assert hs.f == label.dim
        # basis intertwiner i takes its values in row i of each sigma(x)
        for x in G.elements():
            perm, exps = hs.sigma(x)
            assert sorted(perm) == list(range(label.dim))
            assert len(exps) == label.dim


def test_hom_space_operator_realization():
    # the old per-element checks, kept as an oracle: sigma built on normal
    # forms is the closed-form monomial everywhere, and R_g realizes the
    # right translation of every basis function
    for q in (3, 5):
        for level in (1, 2):
            G = gamma(q, 2, level)
            m = G.cyc_order
            for label in enumerate_irreps(G):
                hs = HomSpace(G, label)
                rep = Irrep(G, label)
                assert hs.f == label.dim
                for x in G.elements():
                    assert hs.sigma(x) == rep.monomial(x)
                for g in ((1, 0), (0, 1)):
                    C = _transpose(_dense(hs.op_right(g), m))
                    for x in G.elements():
                        assert _mat_mul(C, _dense(rep.monomial(G.inv(x)), m)) \
                            == _dense(rep.monomial(G.inv(G.mul(x, g))), m)


def test_right_operators_form_a_homomorphism():
    G = gamma(3, 2, 1)
    label = next(l for l in enumerate_irreps(G) if l.dim == 2)
    hs = HomSpace(G, label)
    rep = Irrep(G, label)
    import random
    rng = random.Random(11)
    els = G.elements()
    assert rep.m == 8
    for g in els:
        # the closed form is sigma(g^{-1})^T, built here from the dense model
        assert _dense(hs.op_right(g)) == _transpose(_dense(rep.monomial(
            G.inv(g))))
    for _ in range(15):
        g = els[rng.randrange(len(els))]
        h = els[rng.randrange(len(els))]
        assert _mat_mul(_dense(hs.op_right(g)), _dense(hs.op_right(h))) \
            == _dense(hs.op_right(G.mul(g, h)))


def test_eigensystem_table_q3_frozen():
    alg = AlgebraParams(3)
    places = _places_q3()
    expected = {
        ((0,), 0): ((4, 4, 10), (0,), [0]),
        ((0,), 1): ((-4, -4, 10), (0,), [0]),
        ((4,), 0): ((4, -4, 10), (4,), [4]),
        ((4,), 1): ((-4, 4, 10), (4,), [4]),
        ((1, 3), 0): ((0, 0, 0), (5, 7), [5, 7]),
        ((2, 6), 0): ((0, 0, 6), (2, 6), [2, 6]),
        ((5, 7), 0): ((0, 0, 0), (1, 3), [1, 3]),
    }
    G = group_of(alg)
    seen = {}
    for label in enumerate_irreps(G):
        b = decompose(alg, label, places)
        assert b.dim == label.dim
        evs = tuple(int(v.to_rational()) for v in b.hecke_eigenvalues)
        seen[(label.orbit, label.s)] = (
            evs, b.infinity_label.orbit, sorted(chi for chi, _ in b.lines))
        assert b.infinity_label.s == label.s
    assert seen == expected


def test_trivial_sigma_eigenvalues_are_coset_counts():
    for q in (3, 5):
        alg = AlgebraParams(q)
        G = group_of(alg)
        trivial = IrrepLabel((0,), 0)
        places = default_places(alg, 2 if q == 3 else 1)
        block = decompose(alg, trivial, places)
        for pi, v in zip(places, block.hecke_eigenvalues):
            assert v.to_rational() == q ** pi.degree + 1


def test_single_place_still_one_block():
    alg = AlgebraParams(3)
    pi = parse_poly(alg.field, "t-1")
    for label in enumerate_irreps(group_of(alg)):
        assert decompose(alg, label, [pi]).dim == label.dim


def test_claim_every_sigma_q3_levels():
    for level in (1, 2):
        alg = AlgebraParams(3, level=level)
        reports = verify_all(alg, default_places(alg, 2))
        assert len(reports) == len(enumerate_irreps(group_of(alg)))
        for r in reports:
            assert r.claim_ok
            assert r.block.dim == r.label.dim


def test_claim_every_sigma_q5():
    alg = AlgebraParams(5)
    reports = verify_all(alg, default_places(alg, 1))
    assert len(reports) == 18
    assert all(r.claim_ok for r in reports)


def test_infinity_label_matches_tame_prediction():
    for q, level in ((3, 1), (3, 2)):
        alg = AlgebraParams(q, level=level)
        G = group_of(alg)
        params = GroupParams(q, 2, level)
        for label in enumerate_irreps(G):
            block = decompose(alg, label, default_places(alg, 2))
            assert block.infinity_label == infinity_prediction(label, params)


def test_projective_basis_lines():
    alg = AlgebraParams(3)
    cases = {
        ((1, 3), 0): {5, 7},
        ((2, 6), 0): {2, 6},
        ((0,), 0): {0},
    }
    for (orbit, s), chis in cases.items():
        label = IrrepLabel(orbit, s)
        block = decompose(alg, label, _places_q3())
        assert block.dim == label.dim
        assert {chi for chi, _ in block.lines} == chis
        assert sorted(j for _, j in block.lines) == list(range(label.dim))


def test_report_json_shape():
    alg = AlgebraParams(3)
    js = cli._verify_one(alg, IrrepLabel((1, 3), 0), _places_q3())
    assert js["schema_version"] == "1"
    assert js["sigma"] == {"orbit": [1, 3], "s": 0, "dim": 2}
    assert js["dim"] == 2
    assert js["claim_ok"] is True
    assert js["infinity_dim_sum"] == 2
    assert len(js["blocks"]) == 1
    assert js["blocks"][0]["infinity_orbit"] == [5, 7]
    assert len(js["projective_basis"]) == 2
    chis = {entry["chi"] for entry in js["projective_basis"]}
    assert chis == {5, 7}


# -- checks that python -O keeps, and tamper tests that trip them --------

SIGMA = IrrepLabel((1, 3), 0)   # dim 2; U = diag(zeta^7, zeta^5) at q = 3


def test_no_assert_statements():
    # a check written as assert would vanish under python -O
    import ast
    from pathlib import Path
    import tjl
    sources = sorted(Path(tjl.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        tree = ast.parse(path.read_text())
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_decompose_reads_the_group_at_infinity_from_its_action(
        monkeypatch, q):
    # U is the image of u^-1, the Frobenius step the uniformizer's image,
    # and F^f the inverse of that image's f-th power; decompose passes
    # these three to op_right, in this order, when it names no place
    real = HomSpace.op_right
    for level in (1, 2, 3):
        alg = AlgebraParams(q, level=level)
        G = group_of(alg)
        act = infinity_action(alg)
        assert act["units"][-1] == (0, 1)
        assert act["uniformizer"] == (1, 0)
        for f in (1, 2):
            labels = [lb for lb in enumerate_irreps(G) if lb.dim == f]
            calls = []
            monkeypatch.setattr(HomSpace, "op_right",
                                lambda self, g: calls.append(g)
                                or real(self, g))
            decompose(alg, labels[0], [])
            monkeypatch.undo()
            p_f = G.identity
            for _ in range(f):
                p_f = G.mul(p_f, act["uniformizer"])
            assert calls == [(0, 1), (1, 0), ((-f) % G.R, 0)] \
                == [act["units"][-1], act["uniformizer"], G.inv(p_f)]


def _tamper_ops(monkeypatch, fakes):
    """HomSpace.op_right returns fakes[g] where given."""
    real = HomSpace.op_right
    monkeypatch.setattr(HomSpace, "op_right",
                        lambda self, g: fakes.get(g) or real(self, g))


def _extra_shifts(monkeypatch, extra):
    """Every witness set gains the given shifts; the test's fresh_memos
    leaves the centrality of no place cached."""
    real = spectral.witness_set

    class Shifted:
        def __init__(self, ws):
            self.shifts = ws.shifts + tuple(extra)

    monkeypatch.setattr(spectral, "witness_set",
                        lambda *a, **k: Shifted(real(*a, **k)))


def _tamper_table(monkeypatch, edit):
    """The cached table of Gamma(3, 2, 1) becomes edit(labels, reps, sizes,
    rows), and the oracle's row index is rebuilt from it; both revert after
    the test."""
    G = gamma(3, 2, 1)
    monkeypatch.setattr(G, "_table", edit(*character_table(G)))
    monkeypatch.setattr(sys.modules[__name__], "_ROW_INDEX", {})


def _decompose_q3(level=1, decompose=decompose):
    # every witness shift at t^2+1 lies in the abelian part, so tampering
    # with R_(1,0) leaves the Hecke operator alone
    alg = AlgebraParams(3, level=level)
    return decompose(alg, SIGMA, [parse_poly(alg.field, "t^2+1")])


def _oracle_q3():
    return _decompose_q3(decompose=oracle_decompose)


def _basis_exits_1(capsys, match):
    """basis --q 3 --sigma 1:0, whose sigma is SIGMA, reports a
    falsification on stderr and exits 1."""
    code = cli.run(["basis", "--q", "3", "--sigma", "1:0"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "falsification"
    assert match in payload["message"]


def test_tamper_unit_group_not_diagonal(monkeypatch):
    _tamper_ops(monkeypatch, {(0, 1): ((1, 0), (7, 5))})
    with pytest.raises(FalsificationError, match="does not act diagonally"):
        _decompose_q3()


def test_tamper_unit_character_multiplicity(monkeypatch):
    _tamper_ops(monkeypatch, {(0, 1): ((0, 1), (7, 7))})
    with pytest.raises(FalsificationError, match="multiplicity 2"):
        _decompose_q3()


def test_tamper_unit_character_coverage(monkeypatch):
    # at level 3 the cyclotomic order is 24 = 3 M, so exponent 16 is no
    # unit character zeta_M^c
    _tamper_ops(monkeypatch, {(0, 1): ((0, 1), (21, 16))})
    with pytest.raises(FalsificationError, match="cover 1 of 2"):
        _decompose_q3(level=3)


def test_tamper_hecke_leaves_a_line(monkeypatch, fresh_memos):
    # R_(1,0) would swap the two coordinate lines; conjugation by U takes
    # the shift (1, 0) to (1, 2), so the Hecke operator is not central
    _extra_shifts(monkeypatch, [(1, 0)])
    with pytest.raises(FalsificationError,
                       match=r"at t\^2\+1 is not central: .* by \(0, 1\)"):
        _decompose_q3()


def test_tamper_frobenius_leaves_line_set(monkeypatch):
    # lines 6 and 7: 6q = 2 mod 8 is no line
    _tamper_ops(monkeypatch, {(0, 1): ((0, 1), (7, 6))})
    with pytest.raises(FalsificationError, match="leaves the line set"):
        _decompose_q3()


def test_tamper_frobenius_mixes_lines(monkeypatch):
    _tamper_ops(monkeypatch, {(1, 0): ((0, 1), (0, 0))})
    with pytest.raises(FalsificationError, match="mixes unit lines"):
        _decompose_q3()


def test_tamper_lines_two_frobenius_orbits(monkeypatch):
    # lines 0 and 4 are Frobenius-fixed, and a fixed Frobenius step keeps
    # each: the line set is closed under c -> cq but is two orbits
    _tamper_ops(monkeypatch, {(0, 1): ((0, 1), (0, 4)),
                              (1, 0): ((0, 1), (0, 0))})
    with pytest.raises(FalsificationError,
                       match=r"\(0, 4\) are not one Frobenius orbit"):
        _decompose_q3()


def test_tamper_conjugate_lines_split(monkeypatch, fresh_memos):
    # R_(0,1) would add zeta^7 to line 7 and zeta^5 to line 5; conjugation
    # by F takes the shift (0, 1) to (0, 3), so the Hecke operator is not
    # central
    _extra_shifts(monkeypatch, [(0, 1)])
    with pytest.raises(FalsificationError,
                       match=r"at t\^2\+1 is not central: .* by \(1, 0\)"):
        _decompose_q3()


def test_tamper_hecke_not_central_exits_1(monkeypatch, capsys, fresh_memos):
    _extra_shifts(monkeypatch, [(0, 1)])
    _basis_exits_1(capsys, "is not central")


def test_tamper_hecke_not_central_under_python_O():
    script = (
        "from tjl import cli, spectral\n"
        "real = spectral.witness_set\n"
        "class Shifted:\n"
        "    def __init__(self, ws):\n"
        "        self.shifts = ws.shifts + ((0, 1),)\n"
        "spectral.witness_set = lambda *a, **k: Shifted(real(*a, **k))\n"
        "print('exit', cli.run(['basis', '--q', '3', '--sigma', '1:0']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.stdout == "exit 1\n", proc.stderr
    assert proc.stderr == (
        '{"error":"falsification","message":"the Hecke operator at t+1 is '
        'not central: its witness shifts change under conjugation by '
        '(1, 0)","schema_version":"1"}\n')


# at level 1, F^f = F^2 is the identity element: the uniformizer's image
# (1, 0) raised to the power -2 is (0, 0), so R_(0,0) is the operator whose
# scalar gives the twist of SIGMA's block


def test_tamper_block_not_invariant(monkeypatch):
    # F^f swaps the two lines of the block
    _tamper_ops(monkeypatch, {(0, 0): ((1, 0), (0, 0))})
    with pytest.raises(FalsificationError,
                       match=r"F\^2 does not keep every unit line"):
        _decompose_q3()


def test_tamper_frobenius_power_not_scalar(monkeypatch, capsys):
    _tamper_ops(monkeypatch, {(0, 0): ((0, 1), (0, 4))})
    with pytest.raises(FalsificationError,
                       match=r"by the exponents \[0, 4\], not by one scalar"):
        _decompose_q3()
    _basis_exits_1(capsys, "not by one scalar")


def test_tamper_frobenius_power_no_twist(monkeypatch, capsys):
    # with f = R = 2 the twist is zeta_8^(8 s) = 1, and zeta_8 is none
    _tamper_ops(monkeypatch, {(0, 0): ((0, 1), (1, 1))})
    with pytest.raises(FalsificationError,
                       match=r"by zeta_8\^1, not by a twist zeta_8\^\(8 s\)"):
        _decompose_q3()
    _basis_exits_1(capsys, "not by a twist")


# the row-index lookup of the oracle, tampered through the character table

BLOCK_LABEL = IrrepLabel((5, 7), 0)


def _without_block_label(labels, reps, sizes, rows):
    kept = [(lb, row) for lb, row in zip(labels, rows) if lb != BLOCK_LABEL]
    return [lb for lb, _ in kept], reps, sizes, [row for _, row in kept]


def test_tamper_block_matches_no_label(monkeypatch):
    _tamper_table(monkeypatch, _without_block_label)
    with pytest.raises(FalsificationError, match="matches no label"):
        _oracle_q3()


def test_tamper_block_reducible(monkeypatch):
    # doubled class sizes double every character norm
    def edit(labels, reps, sizes, rows):
        labels, reps, sizes, rows = _without_block_label(
            labels, reps, sizes, rows)
        return labels, reps, [2 * s for s in sizes], rows

    _tamper_table(monkeypatch, edit)
    with pytest.raises(FalsificationError, match="reducible at infinity"):
        _oracle_q3()


def test_tamper_block_matches_two_labels(monkeypatch):
    def edit(labels, reps, sizes, rows):
        row = rows[labels.index(BLOCK_LABEL)]
        return (*labels, IrrepLabel((9, 9), 0)), reps, sizes, (*rows, row)

    _tamper_table(monkeypatch, edit)
    # two equal rows are caught while the index is built, before any block
    with pytest.raises(FalsificationError, match="character rows of "
                       r"IrrepLabel\(orbit=\(5, 7\), s=0\) and "
                       r"IrrepLabel\(orbit=\(9, 9\), s=0\) are equal"):
        character_row_index(gamma(3, 2, 1))
    with pytest.raises(FalsificationError, match="are equal"):
        _oracle_q3()


def test_row_index_keys_values_not_terms(monkeypatch):
    # zeta_8^0 + zeta_8^4 = 0: the entry's terms change, its value does not
    zero = Cyc(8, {0: 1, 4: 1})
    assert zero.terms and zero == 0

    def edit(labels, reps, sizes, rows):
        i = labels.index(BLOCK_LABEL)
        row = (rows[i][0] + zero,) + tuple(rows[i][1:])
        assert row[0].terms != rows[i][0].terms and row[0] == rows[i][0]
        return labels, reps, sizes, rows[:i] + (row,) + rows[i + 1:]

    _tamper_table(monkeypatch, edit)
    assert _oracle_q3().infinity_label == BLOCK_LABEL


def test_tamper_block_label_dimension(monkeypatch):
    def edit(labels, reps, sizes, rows):
        relabel = {BLOCK_LABEL: IrrepLabel((0,), 0)}
        return [relabel.get(lb, lb) for lb in labels], reps, sizes, rows

    _tamper_table(monkeypatch, edit)
    with pytest.raises(FalsificationError, match="of dimension 1"):
        _oracle_q3()


def _bend_generator(monkeypatch, gen, bend):
    """Irrep.monomial(gen) returns (perm, bend(exps)); other elements keep
    the closed form."""
    real = Irrep.monomial

    def bent(self, g):
        perm, exps = real(self, g)
        return (perm, bend(exps)) if g == gen else (perm, exps)

    monkeypatch.setattr(Irrep, "monomial", bent)


def test_tamper_relator_u_power(monkeypatch):
    # at level 3 the cyclotomic order is 24 = 3 M, so zeta_24 is no M-th
    # root of unity
    _bend_generator(monkeypatch, (0, 1), lambda e: ((e[0] + 1) % 24, e[1]))
    with pytest.raises(FalsificationError, match="relator U\\^M = 1"):
        HomSpace(gamma(3, 2, 3), SIGMA)


def test_tamper_relator_f_power(monkeypatch):
    _bend_generator(monkeypatch, (1, 0), lambda e: ((e[0] + 1) % 8, e[1]))
    with pytest.raises(FalsificationError, match="relator F\\^R = 1"):
        HomSpace(gamma(3, 2, 1), SIGMA)


def test_tamper_relator_frobenius(monkeypatch):
    # U = diag(zeta^7, zeta^7) still has order dividing M, but F no longer
    # conjugates it to U^q = diag(zeta^5, zeta^5)
    _bend_generator(monkeypatch, (0, 1), lambda e: (e[0], e[0]))
    with pytest.raises(FalsificationError,
                       match="relator U F = F U\\^q"):
        HomSpace(gamma(3, 2, 1), SIGMA)


def test_tamper_relators_under_python_O():
    # each relator broken in turn, as in the three tests above
    script = (
        "from tjl import spectral\n"
        "from tjl.metacyclic import Irrep, IrrepLabel, gamma\n"
        "real = Irrep.monomial\n"
        "bends = [(3, (0, 1), lambda e: ((e[0] + 1) % 24, e[1])),\n"
        "         (1, (1, 0), lambda e: ((e[0] + 1) % 8, e[1])),\n"
        "         (1, (0, 1), lambda e: (e[0], e[0]))]\n"
        "for level, gen, bend in bends:\n"
        "    Irrep.monomial = lambda self, g: (\n"
        "        (real(self, g)[0], bend(real(self, g)[1])) if g == gen\n"
        "        else real(self, g))\n"
        "    try:\n"
        "        spectral.HomSpace(gamma(3, 2, level), IrrepLabel((1, 3), 0))\n"
        "    except spectral.FalsificationError as exc:\n"
        "        print('tripped:', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(
        f"tripped: the generator images break the relator {r}\n"
        for r in ("U^M = 1", "F^R = 1", "U F = F U^q"))


def test_duplicate_table_row_trips_under_python_O():
    # the oracle's row index raises, not asserts, so -O keeps the check
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_spectral import FalsificationError, character_row_index\n"
        "from tjl.metacyclic import Gamma, IrrepLabel, character_table\n"
        "G = Gamma(3, 2, 1)\n"
        "labels, reps, sizes, rows = character_table(G)\n"
        "G._table = ((*labels, IrrepLabel((9, 9), 0)), reps, sizes,\n"
        "            (*rows, rows[0]))\n"
        "try:\n"
        "    character_row_index(G)\n"
        "except FalsificationError as exc:\n"
        "    print('tripped:', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("tripped: the character rows of ")
    assert proc.stdout.endswith(" are equal\n")


def test_tamper_trips_under_python_O():
    # require is an if, not an assert, so -O keeps the check
    script = (
        "from tjl import spectral\n"
        "from tjl.funcfield import parse_poly\n"
        "from tjl.metacyclic import IrrepLabel\n"
        "from tjl.quaternion import AlgebraParams\n"
        "real = spectral.HomSpace.op_right\n"
        "spectral.HomSpace.op_right = lambda self, g: (\n"
        "    ((1, 0), (7, 5)) if g == (0, 1) else real(self, g))\n"
        "alg = AlgebraParams(3)\n"
        "try:\n"
        "    spectral.decompose(alg, IrrepLabel((1, 3), 0),\n"
        "                       [parse_poly(alg.field, 't^2+1')])\n"
        "except spectral.FalsificationError as exc:\n"
        "    print('tripped:', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("tripped: the unit group at infinity does not "
                           "act diagonally\n")
