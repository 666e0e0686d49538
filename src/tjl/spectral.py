"""Spectral decomposition of the automorphic bi-module: functions on the
class set under the commuting left translations, Hecke operators, and the
right action of the group at infinity.

The sigma-isotypic part of the left action is modeled by the intertwiner
space Hom(V_sigma, C(Gamma)); its canonical basis A^(i) sends v to the
function x -> (sigma(x^{-1}) v)_i, so every right translation R_h acts on
the basis through the closed form sigma(h^{-1})^T.  Hecke operators are
sums of those over witness reductions.  The space splits into lines under
the unit group at infinity, lines group into blocks by their exact Hecke
eigensystems, and each block must carry an irreducible representation of
the group at infinity; at level zero a single block per sigma is expected,
with orbit negated relative to sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adelic import (
    FalsificationError,
    SplitPlace,
    default_places,
    group_of,
    standard_conjugator,
    witness_set,
)
from .cyclotomic import Cyc
from .funcfield import Poly, format_poly
from .linalg import (
    Matrix,
    Vector,
    kernel_basis,
    mat_eq,
    mat_mul,
    mat_vec,
    restrict_operator,
    transpose,
)
from .metacyclic import (
    Gamma,
    GroupParams,
    Irrep,
    IrrepLabel,
    character_inner,
    character_table,
    enumerate_irreps,
)
from .quaternion import AlgebraParams
from .tame import enumerate_A_tame, infinity_prediction, TameParam

Element = tuple[int, int]


class NeedsMorePlacesError(RuntimeError):
    """The supplied places do not separate the eigensystems."""


# -- the intertwiner space --------------------------------------------


class HomSpace:
    """Basis of the space of maps V_sigma -> C(Gamma) commuting with the
    left translation action; dimension dim(sigma)."""

    def __init__(self, group: Gamma, label: IrrepLabel):
        self.group = group
        self.label = label
        self.irrep = Irrep(group, label)
        self.f = self.irrep.dim
        self.order = group.cyc_order
        els = group.elements()
        self.element_list = els
        inv_mats = {x: self.irrep.matrix(group.inv(x)) for x in els}
        # basis intertwiner i as a |Gamma| x f array of function values
        self.basis = [[[inv_mats[x][i][j] for j in range(self.f)]
                       for x in els] for i in range(self.f)]
        self._ops: dict[Element, Matrix] = {}
        self._verify_intertwining(inv_mats)
        self._verify_dimension()

    def _verify_intertwining(self, inv_mats) -> None:
        """Each basis element solves the equivariance system
        A(sigma(g) v)(x) = A(v)(g^{-1} x) for the two generators."""
        G = self.group
        for gen in ((1, 0), (0, 1)):
            sg = self.irrep.matrix(gen)
            for T in self.basis:
                lhs = mat_mul(T, sg)
                for xi, x in enumerate(self.element_list):
                    shifted = T[G.element_index(G.mul(G.inv(gen), x))]
                    assert all(a == b for a, b in zip(lhs[xi], shifted)), (
                        "intertwining system violated")

    def _verify_dimension(self) -> None:
        """The multiplicity of sigma in the left regular module is f, and
        the basis is independent (its values at the identity are the
        identity matrix)."""
        G = self.group
        idx = G.element_index(G.identity)
        for i, T in enumerate(self.basis):
            for j in range(self.f):
                want = 1 if i == j else 0
                assert T[idx][j] == Cyc.from_rational(self.order, want)
        classes = G.conjugacy_classes()
        reg = [Cyc.from_rational(self.order, G.order if len(c) == 1
                                 and c[0] == G.identity else 0)
               for c in classes]
        sig = [self.irrep.character(c[0]) for c in classes]
        mult = character_inner(G, reg, sig, [len(c) for c in classes])
        assert mult == self.f, "regular-module multiplicity mismatch"

    def op_right(self, g: Element) -> Matrix:
        """Matrix of the right translation R_g on the basis: the function
        x -> F(xg) corresponds to sigma(g^{-1})^T acting on coefficients."""
        g = (g[0] % self.group.R, g[1] % self.group.M)
        if g not in self._ops:
            self._ops[g] = transpose(self.irrep.matrix(self.group.inv(g)))
        return self._ops[g]

    def op_sum(self, shifts: list[Element]) -> Matrix:
        acc = self.op_right(shifts[0])
        for g in shifts[1:]:
            acc = [[a + b for a, b in zip(ra, rb)]
                   for ra, rb in zip(acc, self.op_right(g))]
        return acc

    def verify_operator_realization(self, g: Element) -> None:
        """Cross-check the closed form against a direct application of R_g
        to the basis functions."""
        G = self.group
        C = self.op_right(g)
        for i, T in enumerate(self.basis):
            for xi, x in enumerate(self.element_list):
                moved = T[G.element_index(G.mul(x, g))]
                for j in range(self.f):
                    acc = Cyc.zero(self.order)
                    for k in range(self.f):
                        acc = acc + C[k][i] * self.basis[k][xi][j]
                    assert acc == moved[j], "operator realization mismatch"


def hom_space(group: Gamma, label: IrrepLabel) -> HomSpace:
    return HomSpace(group, label)


# -- lines, blocks, reports -------------------------------------------


@dataclass
class SpectralLine:
    chi: int                 # unit-character exponent at infinity
    vector: Vector
    eigenvalues: list[Cyc]   # aligned with the place list


@dataclass
class EigensystemBlock:
    a: int
    places: list[Poly]
    hecke_eigenvalues: list[Cyc]
    lines: list[SpectralLine]
    infinity_label: IrrepLabel

    @property
    def dim(self) -> int:
        return len(self.lines)


@dataclass
class SpectralReport:
    label: IrrepLabel
    dim: int
    places: list[Poly]
    blocks: list[EigensystemBlock]
    claim_ok: bool
    infinity_dim_sum: int

    def to_json(self) -> dict:
        return {
            "schema_version": "1",
            "sigma": self.label.to_json(),
            "dim": self.dim,
            "places": [format_poly(p) for p in self.places],
            "blocks": [
                {
                    "a": b.a,
                    "eigenvalues": [
                        {"place": format_poly(p), "value": v.to_json()}
                        for p, v in zip(b.places, b.hecke_eigenvalues)
                    ],
                    "dim": b.dim,
                    "infinity_orbit": list(b.infinity_label.orbit),
                    "infinity_s": b.infinity_label.s,
                }
                for b in self.blocks
            ],
            "claim_ok": self.claim_ok,
            "infinity_dim_sum": self.infinity_dim_sum,
            "projective_basis": [
                {
                    "a": b.a,
                    "chi": line.chi,
                    "line_coordinates": [c.to_json() for c in line.vector],
                }
                for b in self.blocks
                for line in b.lines
            ],
        }


@dataclass
class ProjectiveBasis:
    label: IrrepLabel
    lines: list[tuple[int, int, Vector]]  # (block index a, chi, line)


def _phi(g: Element, R: int) -> Element:
    """The identification of the group at infinity with the class group:
    composes the reduction anti-homomorphism with inversion.  It is a
    homomorphism because q^2 = 1 on the exponent lattice here (n = 2)."""
    return ((-g[0]) % R, g[1])


def _zeta_power(order: int, M: int, c: int) -> Cyc:
    return Cyc.zeta(order, (order // M) * (c % M))


def decompose(alg: AlgebraParams, label: IrrepLabel,
              places: list[Poly] | None = None,
              depth_bound: int = 3) -> list[EigensystemBlock]:
    """Simultaneous eigenspace decomposition of the Hecke action on the
    sigma-isotypic intertwiner space, with each block identified as an
    irreducible representation of the group at infinity.

    With places=None, starts from all places of degree <= 2 and extends to
    degree 3 if eigensystems stay inseparable; explicitly supplied places
    are used as-is and separation failure raises NeedsMorePlacesError."""
    if places is None:
        try:
            return decompose(alg, label, default_places(alg, 2), depth_bound)
        except NeedsMorePlacesError:
            return decompose(alg, label, default_places(alg, 3), depth_bound)
    G = group_of(alg)
    hs = hom_space(G, label)
    f = hs.f
    M, R = G.M, G.R
    order = G.cyc_order

    # lines: the unit group at infinity acts through U with simple spectrum
    U = hs.op_right((0, 1))
    lines: dict[int, Vector] = {}
    for c in range(M):
        shifted = [[U[i][j] - (_zeta_power(order, M, c)
                               if i == j else Cyc.zero(order))
                    for j in range(f)] for i in range(f)]
        kern = kernel_basis(shifted)
        if len(kern) > 1:
            raise FalsificationError(
                f"unit character {c} occurs with multiplicity {len(kern)}")
        if kern:
            lines[c] = kern[0]
    if len(lines) != f:
        raise FalsificationError(
            f"unit characters cover {len(lines)} of {f} dimensions")

    # exact Hecke eigenvalue of every line at every place
    hecke_ops = []
    for pi in places:
        shifts = witness_set(alg, pi, depth_bound=depth_bound).shifts(G)
        hecke_ops.append(hs.op_sum(shifts))
    eigen: dict[int, list[Cyc]] = {}
    for c, v in lines.items():
        pivot = next(i for i, e in enumerate(v) if not e.is_zero())
        evs = []
        for pi, op in zip(places, hecke_ops):
            w = mat_vec(op, v)
            lam = w[pivot] / v[pivot]
            for a, b in zip(w, v):
                if a != lam * b:
                    raise FalsificationError(
                        "Hecke operator does not preserve a unit line")
            if not lam.is_integral():
                raise FalsificationError(
                    f"Hecke eigenvalue {lam.to_json()} at {format_poly(pi)} "
                    f"is not an algebraic integer")
            evs.append(lam)
        eigen[c] = evs

    # the Frobenius part of the infinity action permutes lines c -> cq
    P = hs.op_right((1, 0))
    for c, v in lines.items():
        w = mat_vec(P, v)
        target = (c * alg.q) % M
        if target not in lines:
            raise FalsificationError("Frobenius step leaves the line set")
        tv = lines[target]
        pivot = next(i for i, e in enumerate(tv) if not e.is_zero())
        lam = w[pivot] / tv[pivot]
        for a, b in zip(w, tv):
            if a != lam * b:
                raise FalsificationError("Frobenius step mixes unit lines")
        if [e.sort_key() for e in eigen[c]] != [e.sort_key()
                                                for e in eigen[target]]:
            raise NeedsMorePlacesError(
                "Frobenius-conjugate lines carry different eigensystems")

    # group lines into blocks by their eigensystems, in canonical order
    by_system: dict[tuple, list[int]] = {}
    for c in sorted(lines):
        key = tuple(e.sort_key() for e in eigen[c])
        by_system.setdefault(key, []).append(c)
    all_labels, reps, sizes, table = character_table(G)
    blocks: list[EigensystemBlock] = []
    for a, key in enumerate(sorted(by_system)):
        chis = by_system[key]
        basis = [lines[c] for c in chis]
        char_row = []
        for rep in reps:
            mat = restrict_operator(hs.op_right(_phi(rep, R)), basis)
            tr = mat[0][0]
            for i in range(1, len(basis)):
                tr = tr + mat[i][i]
            char_row.append(tr)
        matches = [lb for lb, row in zip(all_labels, table)
                   if all(a == b for a, b in zip(char_row, row))]
        if not matches:
            norm = character_inner(G, char_row, char_row, sizes)
            if norm > 1:
                raise NeedsMorePlacesError(
                    f"block of dimension {len(basis)} is reducible at "
                    f"infinity (character norm {norm})")
            raise FalsificationError(
                "block character is irreducible but matches no label")
        if len(matches) != 1:
            raise FalsificationError(
                f"block character matches {len(matches)} labels: {matches}")
        inf_label = matches[0]
        if inf_label.dim != len(basis):
            raise FalsificationError(
                f"block of dimension {len(basis)} matches {inf_label} of "
                f"dimension {inf_label.dim}")
        blocks.append(EigensystemBlock(
            a=a,
            places=list(places),
            hecke_eigenvalues=[eigen[chis[0]][i] for i in range(len(places))],
            lines=[SpectralLine(c, lines[c], eigen[c]) for c in chis],
            infinity_label=inf_label,
        ))
    return blocks


def verify_claim(alg: AlgebraParams, label: IrrepLabel,
                 places: list[Poly] | None = None,
                 depth_bound: int = 3) -> SpectralReport:
    """The dimension count: blocks of the sigma-decomposition carry
    irreducible representations at infinity whose dimensions sum to
    dim(sigma); cross-validated against the tame dictionary (predicted
    count of eigensystems and predicted orbit at infinity)."""
    G = group_of(alg)
    blocks = decompose(alg, label, places, depth_bound)
    used_places = blocks[0].places if blocks else (places or [])
    inf_sum = sum(b.dim for b in blocks)
    claim_ok = inf_sum == label.dim

    params = GroupParams(alg.q, 2, alg.level)
    predicted = infinity_prediction(label, params)
    for b in blocks:
        if b.infinity_label.orbit != predicted.orbit:
            raise FalsificationError(
                f"block orbit {b.infinity_label.orbit} differs from the "
                f"predicted {predicted.orbit}")
        if b.infinity_label.s != predicted.s:
            raise FalsificationError("twist convention mismatch at infinity")
    if len(label.orbit) == params.n:
        # regular orbit: the tame dictionary enumerates the global
        # extensions, predicting the eigensystem count and the r-sum
        p = TameParam(label.orbit, 1, label.s)
        ext = enumerate_A_tame(p, params)
        if len(ext) != len(blocks):
            raise FalsificationError(
                f"{len(blocks)} eigensystems but {len(ext)} predicted")
        assert sum(r for _, _, r in ext) == params.n
    else:
        # one-dimensional sector: a single eigensystem
        if len(blocks) != 1:
            raise FalsificationError(
                f"{len(blocks)} eigensystems in the abelian sector")
    if not claim_ok:
        raise FalsificationError(
            f"infinity dimensions sum to {inf_sum}, not {label.dim}")
    return SpectralReport(
        label=label,
        dim=label.dim,
        places=list(used_places),
        blocks=blocks,
        claim_ok=claim_ok,
        infinity_dim_sum=inf_sum,
    )


def verify_all(alg: AlgebraParams,
               places: list[Poly] | None = None) -> list[SpectralReport]:
    G = group_of(alg)
    return [verify_claim(alg, label, places)
            for label in enumerate_irreps(G)]


def projective_basis(alg: AlgebraParams, label: IrrepLabel,
                     places: list[Poly] | None = None) -> ProjectiveBasis:
    """Within each block, the eigenlines of the unit group at infinity:
    all one-dimensional, labeled (block, chi), jointly spanning."""
    blocks = decompose(alg, label, places)
    lines = [(b.a, line.chi, line.vector)
             for b in blocks for line in b.lines]
    assert len(lines) == label.dim
    assert len({(a, chi) for a, chi, _ in lines}) == len(lines)
    mat = [list(v) for _, _, v in lines]
    from .linalg import rank
    assert rank(mat) == label.dim, "projective lines do not span"
    return ProjectiveBasis(label, lines)


def eigenvalue_table(alg: AlgebraParams, label: IrrepLabel,
                     places: list[Poly] | None = None) -> list[dict]:
    """Exact Hecke eigenvalues per block and place; re-derived under a
    conjugated splitting to certify independence of the matrix model."""
    if places is None:
        places = default_places(alg, 2)
    blocks = decompose(alg, label, places)
    G = group_of(alg)
    for pi in places:
        base = sorted(witness_set(alg, pi).shifts(G))
        conj = SplitPlace(alg, pi, conjugator=standard_conjugator(alg))
        again = sorted(witness_set(alg, pi, split=conj).shifts(G))
        assert base == again, "witness reductions depend on the splitting"
    out = []
    for b in blocks:
        for pi, v in zip(b.places, b.hecke_eigenvalues):
            out.append({"a": b.a, "place": format_poly(pi),
                        "value": v.to_json()})
    return out


def verify_bimodule(group: Gamma) -> dict:
    """Left and right translations commute elementwise, and the commutant
    of the left action has dimension equal to the group order: the count
    of diagonal orbits on Gamma x Gamma, free hence |Gamma| of them."""
    els = group.elements()
    import random as _random
    rng = _random.Random(7)
    for _ in range(20):
        g = els[rng.randrange(len(els))]
        h = els[rng.randrange(len(els))]
        x = els[rng.randrange(len(els))]
        lhs = group.mul(group.mul(group.inv(g), x), h)
        rhs = group.mul(group.inv(g), group.mul(x, h))
        assert lhs == rhs
    seen = set()
    orbits = 0
    for x in els:
        for y in els:
            if (x, y) in seen:
                continue
            orbits += 1
            size = 0
            for g in els:
                pair = (group.mul(g, x), group.mul(g, y))
                if pair not in seen:
                    seen.add(pair)
                    size += 1
            assert size == group.order, "diagonal action is not free"
    assert orbits == group.order
    total = sum(lb.dim ** 2 for lb in enumerate_irreps(group))
    assert total == group.order
    return {"commutant_dimension": orbits, "square_sum": total}
