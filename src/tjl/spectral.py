"""Spectral decomposition of the automorphic bi-module: functions on the
class set under the commuting left translations, Hecke operators, and the
right action of the group at infinity.

The sigma-isotypic part of the left action is modeled by the intertwiner
space Hom(V_sigma, C(Gamma)); its canonical basis A^(i) sends v to the
function x -> (sigma(x^{-1}) v)_i, so every right translation R_h acts on
the basis through sigma(h^{-1})^T.  Every sigma(g) is a monomial matrix,
held as (perm, exps): column j holds zeta_m^exps[j] in row perm[j].
Products of such matrices compose permutations and add exponents, and
conjugates negate exponents, so the whole stage runs on integers and
builds a Cyc only for a finished sum.

Gamma = <F, U | U^M, F^R, U F = F U^q> with F = (1, 0) and U = (0, 1), and
F^k U^e = (k, e) is a normal form.  By von Dyck's theorem (Magnus, Karrass
and Solitar, Combinatorial Group Theory, section 1.4), two generator images
that satisfy the three relators define a homomorphism sigma(k, e) =
F^k U^e, and each A^(i) intertwines because sigma is one.  So the relators
on the two images are the whole intertwining proof: sigma is built on
normal forms from them, and no group element is checked on its own.

The unit group at infinity acts diagonally in the tag basis, so its lines
are coordinate lines, and the Frobenius step of the action permutes them
in one cycle.  A Hecke operator is the sum h_pi of the right translations
over the multiset S_pi of witness shifts at pi.  S_pi is invariant under
conjugation by F and by U, checked once per (algebra, place), so h_pi is
central in Z[Gamma].  Then sigma(h_pi) commutes with sigma(U), diagonal
with simple spectrum, and so is diagonal; and it commutes with sigma(F),
which cycles the lines, so its diagonal entries are equal.  By Schur's
lemma T_pi acts on the sigma-isotypic part by one scalar: one diagonal
entry, a histogram over the shifts whose Frobenius part f = dim(sigma)
divides.  The whole part is one block, labelled by Clifford theory (Serre,
Linear Representations of Finite Groups, section 8.2, Proposition 25): an
irreducible representation of Gamma = Z/M x| Z/R is fixed by the Frobenius
orbit of its characters of Z/M, here the lines, and by the scalar through
which F^f acts on them, a twist zeta_m^((m/sm) s) with sm = R/f.  The
lines are sigma's basis tags negated, and so is the orbit at infinity.
"""

from __future__ import annotations

from collections import Counter

from .adelic import (
    FalsificationError,
    default_places,
    group_of,
    witness_set,
)
from .cyclotomic import Cyc, Record, require
from .funcfield import Poly, format_poly
from .metacyclic import (
    Gamma,
    GroupParams,
    Irrep,
    IrrepLabel,
    enumerate_irreps,
)
from .quaternion import AlgebraParams
from .tame import enumerate_A_tame, infinity_prediction, TameParam

Element = tuple[int, int]
Monomial = tuple[tuple[int, ...], tuple[int, ...]]
Vector = list[Cyc]


def _compose(a: Monomial, b: Monomial, m: int) -> Monomial:
    """The product a*b: column j of b lands in row pb[j], which a sends to
    row pa[pb[j]]; the roots of unity multiply."""
    (pa, ea), (pb, eb) = a, b
    return (tuple(pa[i] for i in pb),
            tuple((ea[i] + x) % m for i, x in zip(pb, eb)))


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

    def sigma(self, g: Element) -> Monomial:
        """sigma(k, e) = F^k U^e: U^e is diagonal, so it adds e times U's
        exponents to the columns of F^k."""
        k, e = g
        perm, exps = self._f_powers[k % self.group.R]
        m = self.order
        return perm, tuple((x + e * u) % m for x, u in zip(exps, self._u))

    def op_right(self, g: Element) -> Monomial:
        """Matrix of the right translation R_g on the basis: the function
        x -> F(xg) corresponds to sigma(g^{-1})^T acting on coefficients.
        sigma is a homomorphism into monomial matrices with roots of unity
        as entries, so sigma(g^{-1}) = sigma(g)^{-1} is the conjugate
        transpose of sigma(g), and sigma(g^{-1})^T its entrywise
        conjugate."""
        perm, exps = self.sigma(g)
        m = self.order
        return perm, tuple(-x % m for x in exps)


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


# S_pi as a histogram of shifts, once its invariance under conjugation by
# both generators holds, keyed by (alg, pi)
_CENTRAL: dict = {}


def _central_shifts(alg: AlgebraParams, pi: Poly) -> tuple:
    """The witness shifts at pi as (shift, multiplicity) pairs, certified
    invariant under conjugation by F = (1, 0) and U = (0, 1), so that the
    Hecke operator at pi is central in Z[Gamma]."""
    found = _CENTRAL.get((alg, pi))
    if found is None:
        G = group_of(alg)
        hist = Counter(witness_set(alg, pi).shifts)
        for gen in ((1, 0), (0, 1)):
            require(Counter({G.conjugate(gen, g): n for g, n in hist.items()})
                    == hist,
                    f"the Hecke operator at {format_poly(pi)} is not "
                    f"central: its witness shifts change under conjugation "
                    f"by {gen}")
        found = _CENTRAL[(alg, pi)] = tuple(hist.items())
    return found


def decompose(alg: AlgebraParams, label: IrrepLabel,
              places: list[Poly]) -> list[EigensystemBlock]:
    """The Hecke eigensystem of the sigma-isotypic intertwiner space, as
    one block labelled by an irreducible representation of the group at
    infinity (module docstring).

    The unit group at infinity must act diagonally with simple spectrum,
    and its lines must form one Frobenius orbit under the Frobenius step.
    At each place the Hecke operator must be central; its eigenvalue is
    then the diagonal entry at one line.  F^f must act on the lines by one
    scalar that is a twist, which with the orbit names the block's label."""
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
    step = order // M
    on: dict[int, list[int]] = {}
    for j, x in enumerate(exps):
        if x % step == 0:
            on.setdefault(x // step, []).append(j)
    for c in sorted(on):
        if len(on[c]) > 1:
            raise FalsificationError(
                f"unit character {c} occurs with multiplicity {len(on[c])}")
    lines = {c: on_c[0] for c, on_c in on.items()}
    if len(lines) != f:
        raise FalsificationError(
            f"unit characters cover {len(lines)} of {f} dimensions")

    # the Frobenius part of the infinity action permutes lines c -> cq, in
    # one cycle
    perm, _ = hs.op_right((1, 0))
    for c, j in lines.items():
        target = (c * alg.q) % M
        if target not in lines:
            raise FalsificationError("Frobenius step leaves the line set")
        if perm[j] != lines[target]:
            raise FalsificationError("Frobenius step mixes unit lines")
    orbit = tuple(sorted(lines))
    require(G.frobenius_orbit(orbit[0]) == orbit,
            f"the unit lines {orbit} are not one Frobenius orbit")

    # one eigenvalue per place: the diagonal entry at line j0 of the
    # central Hecke operator, from the shifts whose Frobenius part f divides
    j0 = lines[orbit[0]]
    eigenvalues = []
    for pi in places:
        hist: Counter = Counter()
        for g, n in _central_shifts(alg, pi):
            if g[0] % f == 0:
                hist[hs.op_right(g)[1][j0]] += n
        eigenvalues.append(Cyc(order, hist))

    # the label: F^f keeps every line and acts on them by zeta_m^x, which
    # must be the twist zeta_m^((m/sm) s) of the irreducible with this orbit
    # and some s mod sm
    sm = R // f
    perm, exps = hs.op_right(_phi((f, 0), R))
    require(all(perm[j] == j for j in lines.values()),
            f"F^{f} does not keep every unit line of {orbit}")
    xs = {exps[j] for j in lines.values()}
    require(len(xs) == 1,
            f"F^{f} acts on the unit lines of {orbit} by the exponents "
            f"{sorted(xs)}, not by one scalar")
    x, = xs
    require(x % (order // sm) == 0,
            f"F^{f} acts on the unit lines of {orbit} by zeta_{order}^{x}, "
            f"not by a twist zeta_{order}^({order // sm} s)")
    return [EigensystemBlock(
        a=0,
        places=list(places),
        hecke_eigenvalues=eigenvalues,
        lines=[SpectralLine(c, _unit_vector(f, lines[c], order), eigenvalues)
               for c in orbit],
        infinity_label=IrrepLabel(orbit, x // (order // sm)),
    )]


def verify_claim(alg: AlgebraParams, label: IrrepLabel,
                 places: list[Poly]) -> SpectralReport:
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
    """verify_claim for every irrep of the class group; with places=None,
    the places of degree <= 2."""
    if places is None:
        places = default_places(alg, 2)
    return [verify_claim(alg, label, places)
            for label in enumerate_irreps(group_of(alg))]


def projective_basis(alg: AlgebraParams, label: IrrepLabel,
                     places: list[Poly]) -> ProjectiveBasis:
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
