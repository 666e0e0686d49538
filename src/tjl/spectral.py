"""Spectral decomposition of the automorphic bi-module: functions on the
class set under the commuting left translations, Hecke operators, and the
right action of the group at infinity.

The sigma-isotypic part of the left action is modeled by the intertwiner
space Hom(V_sigma, C(Gamma)); its canonical basis A^(i) sends v to the
function x -> (sigma(x^{-1}) v)_i, so every right translation R_h acts on
the basis through sigma(h^{-1})^T.  Every sigma(g) is a monomial matrix,
held as (perm, exps): column j holds zeta_m^exps[j] in row perm[j].
Products and transposes of such matrices compose permutations and add
exponents, so the whole stage runs on integers and builds a Cyc only for
a finished sum.

Gamma = <F, U | U^M, F^R, U F = F U^q> with F = (1, 0) and U = (0, 1), and
F^k U^e = (k, e) is a normal form.  By von Dyck's theorem (Magnus, Karrass
and Solitar, Combinatorial Group Theory, section 1.4), two generator images
that satisfy the three relators define a homomorphism sigma(k, e) =
F^k U^e, and each A^(i) intertwines because sigma is one.  So the relators
on the two images are the whole intertwining proof: sigma is built on
normal forms from them, and no group element is checked on its own.

The unit group at infinity acts diagonally in the tag basis, so its lines
are coordinate lines.  A Hecke operator is a sum of right translations
over witness reductions; its action on a line is one exponent histogram
per target coordinate, and every off-diagonal histogram must vanish.  The
lines group into blocks by their exact Hecke eigensystems, and each block
must carry an irreducible representation of the group at infinity, found
by one lookup of its character row in the table's row index; at level
zero a single block per sigma is expected, with orbit negated relative to
sigma.
"""

from __future__ import annotations

from collections import Counter

from .adelic import (
    FalsificationError,
    SplitPlace,
    default_places,
    group_of,
    standard_conjugator,
    witness_set,
)
from .cyclotomic import Cyc, Record, require
from .funcfield import Poly, format_poly
from .metacyclic import (
    Gamma,
    GroupParams,
    Irrep,
    IrrepLabel,
    character_inner,
    character_row_index,
    character_table,
    enumerate_irreps,
)
from .quaternion import AlgebraParams
from .tame import enumerate_A_tame, infinity_prediction, TameParam

Element = tuple[int, int]
Monomial = tuple[tuple[int, ...], tuple[int, ...]]
Vector = list[Cyc]


class NeedsMorePlacesError(RuntimeError):
    """The supplied places do not separate the eigensystems."""


class InconsistentSystemError(ValueError):
    """An operator does not keep a subspace it must keep."""


def _compose(a: Monomial, b: Monomial, m: int) -> Monomial:
    """The product a*b: column j of b lands in row pb[j], which a sends to
    row pa[pb[j]]; the roots of unity multiply."""
    (pa, ea), (pb, eb) = a, b
    return (tuple(pa[i] for i in pb),
            tuple((ea[i] + x) % m for i, x in zip(pb, eb)))


def _transpose(a: Monomial) -> Monomial:
    perm, exps = a
    tp, te = [0] * len(perm), [0] * len(perm)
    for j, (i, x) in enumerate(zip(perm, exps)):
        tp[i], te[i] = j, x
    return tuple(tp), tuple(te)


# -- the intertwiner space --------------------------------------------


class HomSpace:
    """Basis of the space of maps V_sigma -> C(Gamma) commuting with the
    left translation action: intertwiner i takes x to row i of
    sigma(x^{-1}).  Only F = sigma(1, 0) and U = sigma(0, 1) are read from
    the irrep.  U must be diagonal, and once U^M = 1, F^R = 1 and
    U F = F U^q hold, von Dyck's theorem (see the module docstring) makes
    sigma(k, e) = F^k U^e on the normal form (k, e) a homomorphism."""

    def __init__(self, group: Gamma, label: IrrepLabel):
        self.group = group
        self.label = label
        irrep = Irrep(group, label)
        self.f = f = irrep.dim
        self.order = m = group.cyc_order
        identity = (tuple(range(f)), (0,) * f)
        F = irrep.monomial((1, 0))
        perm, self._u = irrep.monomial((0, 1))
        require(perm == identity[0], "the generator image U is not diagonal")
        require(all(x * group.M % m == 0 for x in self._u),
                "the generator images break the relator U^M = 1")
        self._f_powers = [identity]
        for _ in range(group.R - 1):
            self._f_powers.append(_compose(self._f_powers[-1], F, m))
        require(_compose(self._f_powers[-1], F, m) == identity,
                "the generator images break the relator F^R = 1")
        require(_compose((perm, self._u), F, m)
                == _compose(F, self.sigma((0, group.q)), m),
                "the generator images break the relator U F = F U^q")
        self._ops: dict[Element, Monomial] = {}

    def sigma(self, g: Element) -> Monomial:
        """sigma(k, e) = F^k U^e: U^e is diagonal, so it adds e times U's
        exponents to the columns of F^k."""
        k, e = g
        perm, exps = self._f_powers[k % self.group.R]
        m = self.order
        return perm, tuple((x + e * u) % m for x, u in zip(exps, self._u))

    def op_right(self, g: Element) -> Monomial:
        """Matrix of the right translation R_g on the basis: the function
        x -> F(xg) corresponds to sigma(g^{-1})^T acting on coefficients."""
        g = (g[0] % self.group.R, g[1] % self.group.M)
        if g not in self._ops:
            self._ops[g] = _transpose(self.sigma(self.group.inv(g)))
        return self._ops[g]


# -- lines, blocks, reports -------------------------------------------


class SpectralLine(Record):
    __slots__ = ("chi", "vector", "eigenvalues")

    def __init__(self, chi: int, vector: Vector, eigenvalues: list[Cyc]):
        # chi is the unit-character exponent at infinity; the eigenvalues
        # are aligned with the place list
        self._set(chi, vector, eigenvalues)


class EigensystemBlock(Record):
    __slots__ = ("a", "places", "hecke_eigenvalues", "lines",
                 "infinity_label")

    def __init__(self, a: int, places: list[Poly],
                 hecke_eigenvalues: list[Cyc], lines: list[SpectralLine],
                 infinity_label: IrrepLabel):
        self._set(a, places, hecke_eigenvalues, lines, infinity_label)

    @property
    def dim(self) -> int:
        return len(self.lines)


class SpectralReport(Record):
    __slots__ = ("label", "dim", "places", "blocks", "claim_ok",
                 "infinity_dim_sum")

    def __init__(self, label: IrrepLabel, dim: int, places: list[Poly],
                 blocks: list[EigensystemBlock], claim_ok: bool,
                 infinity_dim_sum: int):
        self._set(label, dim, places, blocks, claim_ok, infinity_dim_sum)

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


class ProjectiveBasis(Record):
    __slots__ = ("label", "lines")

    def __init__(self, label: IrrepLabel,
                 lines: list[tuple[int, int, Vector]]):
        # each line is (block index a, chi, line)
        self._set(label, lines)


def _phi(g: Element, R: int) -> Element:
    """The identification of the group at infinity with the class group:
    composes the reduction anti-homomorphism with inversion.  It is a
    homomorphism because q^2 = 1 on the exponent lattice here (n = 2)."""
    return ((-g[0]) % R, g[1])


def _unit_vector(f: int, j: int, order: int) -> Vector:
    return [Cyc.from_rational(order, 1 if i == j else 0) for i in range(f)]


def decompose(alg: AlgebraParams, label: IrrepLabel,
              places: list[Poly] | None = None) -> list[EigensystemBlock]:
    """Simultaneous eigenspace decomposition of the Hecke action on the
    sigma-isotypic intertwiner space, with each block identified as an
    irreducible representation of the group at infinity.

    With places=None, starts from all places of degree <= 2 and extends to
    degree 3 if eigensystems stay inseparable; explicitly supplied places
    are used as-is and separation failure raises NeedsMorePlacesError."""
    if places is None:
        try:
            return decompose(alg, label, default_places(alg, 2))
        except NeedsMorePlacesError:
            return decompose(alg, label, default_places(alg, 3))
    G = group_of(alg)
    hs = HomSpace(G, label)
    f = hs.f
    M, R = G.M, G.R
    order = G.cyc_order

    # lines: the unit group at infinity acts through U, diagonal in the tag
    # basis with simple spectrum; line c is the coordinate where U has
    # the eigenvalue zeta_M^c
    perm, exps = hs.op_right((0, 1))
    require(perm == tuple(range(f)),
            "the unit group at infinity does not act diagonally")
    lines: dict[int, int] = {}
    for c in range(M):
        on_c = [j for j, x in enumerate(exps) if x == (order // M) * c]
        if len(on_c) > 1:
            raise FalsificationError(
                f"unit character {c} occurs with multiplicity {len(on_c)}")
        if on_c:
            lines[c] = on_c[0]
    if len(lines) != f:
        raise FalsificationError(
            f"unit characters cover {len(lines)} of {f} dimensions")

    # exact Hecke eigenvalue of every line at every place: the image of
    # line j, summed over the witness shifts as one histogram per row
    eigen: dict[int, list[Cyc]] = {c: [] for c in lines}
    for pi in places:
        ops = [hs.op_right(g) for g in witness_set(alg, pi).shifts(G)]
        for c, j in lines.items():
            rows = [Counter() for _ in range(f)]
            for op_perm, op_exps in ops:
                rows[op_perm[j]][op_exps[j]] += 1
            if any(not Cyc(order, hist).is_zero()
                   for i, hist in enumerate(rows) if i != j):
                raise FalsificationError(
                    "Hecke operator does not preserve a unit line")
            eigen[c].append(Cyc(order, rows[j]))

    # the Frobenius part of the infinity action permutes lines c -> cq
    keys = {c: tuple(e.sort_key() for e in evs) for c, evs in eigen.items()}
    perm, _ = hs.op_right((1, 0))
    for c, j in lines.items():
        target = (c * alg.q) % M
        if target not in lines:
            raise FalsificationError("Frobenius step leaves the line set")
        if perm[j] != lines[target]:
            raise FalsificationError("Frobenius step mixes unit lines")
        if keys[c] != keys[target]:
            raise NeedsMorePlacesError(
                "Frobenius-conjugate lines carry different eigensystems")

    # group lines into blocks by their eigensystems, in canonical order
    by_system: dict[tuple, list[int]] = {}
    for c in sorted(lines):
        by_system.setdefault(keys[c], []).append(c)
    _, reps, sizes, _ = character_table(G)
    row_index = character_row_index(G)
    blocks: list[EigensystemBlock] = []
    for a, key in enumerate(sorted(by_system)):
        chis = by_system[key]
        block = {lines[c] for c in chis}
        char_row = []
        for rep in reps:
            op_perm, op_exps = hs.op_right(_phi(rep, R))
            if any(op_perm[j] not in block for j in block):
                raise InconsistentSystemError(
                    f"the infinity action at {rep} does not keep the "
                    f"block of unit characters {chis}")
            char_row.append(Cyc(order, Counter(
                op_exps[j] for j in block if op_perm[j] == j)))
        inf_label = row_index.get(tuple(v.reduced() for v in char_row))
        if inf_label is None:
            norm = character_inner(G, char_row, char_row, sizes)
            if norm > 1:
                raise NeedsMorePlacesError(
                    f"block of dimension {len(chis)} is reducible at "
                    f"infinity (character norm {norm})")
            raise FalsificationError(
                "block character is irreducible but matches no label")
        if inf_label.dim != len(chis):
            raise FalsificationError(
                f"block of dimension {len(chis)} matches {inf_label} of "
                f"dimension {inf_label.dim}")
        blocks.append(EigensystemBlock(
            a=a,
            places=list(places),
            hecke_eigenvalues=[eigen[chis[0]][i] for i in range(len(places))],
            lines=[SpectralLine(c, _unit_vector(f, lines[c], order), eigen[c])
                   for c in chis],
            infinity_label=inf_label,
        ))
    return blocks


def verify_claim(alg: AlgebraParams, label: IrrepLabel,
                 places: list[Poly] | None = None) -> SpectralReport:
    """The dimension count: blocks of the sigma-decomposition carry
    irreducible representations at infinity whose dimensions sum to
    dim(sigma); cross-validated against the tame dictionary (predicted
    count of eigensystems and predicted orbit at infinity).  A wrong
    eigensystem count sets claim_ok false; a wrong orbit or twist at
    infinity raises."""
    blocks = decompose(alg, label, places)
    inf_sum = sum(b.dim for b in blocks)

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
        count_ok = len(ext) == len(blocks)
        require(sum(r for _, _, r in ext) == params.n,
                f"the tame r-sum of {label} is not n = {params.n}")
    else:
        # one-dimensional sector: a single eigensystem
        count_ok = len(blocks) == 1
    return SpectralReport(
        label=label,
        dim=label.dim,
        places=list(blocks[0].places),
        blocks=blocks,
        claim_ok=count_ok and inf_sum == label.dim,
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
    require(len(lines) == label.dim,
            f"{len(lines)} projective lines for dimension {label.dim}")
    require(len({(a, chi) for a, chi, _ in lines}) == len(lines),
            "two projective lines carry the same (block, chi) label")
    # coordinate lines span exactly when their coordinates are distinct
    supports = {tuple(j for j, c in enumerate(v) if not c.is_zero())
                for _, _, v in lines}
    require(len(supports) == label.dim
            and all(len(s) == 1 for s in supports),
            "projective lines do not span")
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
        require(base == again, f"witness reductions at {format_poly(pi)} "
                f"depend on the splitting")
    out = []
    for b in blocks:
        for pi, v in zip(b.places, b.hecke_eigenvalues):
            out.append({"a": b.a, "place": format_poly(pi),
                        "value": v.to_json()})
    return out


def verify_bimodule(group: Gamma) -> dict:
    """Left and right translations commute elementwise, and the commutant
    of the left action has dimension equal to the group order: the count
    of diagonal orbits on Gamma x Gamma, free hence |Gamma| of them.
    Both actions are generated by the two generators, so commuting on
    every pair of generators at every x is commuting everywhere."""
    els = group.elements()
    gens = ((1 % group.R, 0), (0, 1 % group.M))
    for g in gens:
        for h in gens:
            for x in els:
                lhs = group.mul(group.mul(group.inv(g), x), h)
                rhs = group.mul(group.inv(g), group.mul(x, h))
                if lhs != rhs:
                    raise FalsificationError(
                        f"left translation by {g} and right translation "
                        f"by {h} do not commute at {x}")
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
            require(size == group.order, "diagonal action is not free")
    require(orbits == group.order,
            f"{orbits} diagonal orbits, not |Gamma| = {group.order}")
    total = sum(lb.dim ** 2 for lb in enumerate_irreps(group))
    require(total == group.order,
            f"irrep dimensions square-sum to {total}, not {group.order}")
    return {"commutant_dimension": orbits, "square_sum": total}
