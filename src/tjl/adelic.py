"""Adelic factorization for the quaternion algebra: split-place models,
canonical witness sets, Hecke matrices, the action at infinity, and
round-trip recovery of double-coset classes.

The class set at level N is the finite group Gamma(q, 2, N): an adele class
is determined by the reduction of its component at t, because every finitely
supported modification is realized by a unique globally defined witness.
Witnesses are normalized to be principal units at infinity; the search box
at denominator depth m (gamma = t^{-m} w, coordinates of w of degree <= m
with monic leading a-part, nrd(w) = t^{2m - deg pi} pi) is exactly that
normalization.  Every witness at pi has depth m0 = ceil(deg pi / 2).  Write
w = a + bi + cj + dij, so nrd(w) = a^2 - eps b^2 - t(c^2 - eps d^2).  As
x^2 - eps y^2 has only the zero (0, 0) over F_q, t | nrd(w) forces
a(0) = b(0) = 0, and then t^2 | nrd(w) forces c(0) = d(0) = 0, that is
t | w.  So each candidate of depth m > m0 is t times one of depth m - 1,
and none of depth m0 is a t-multiple, as pi(0) != 0.  This is the
ramification of the algebra at t: the local maximal order of the division
algebra (eps, t) has a maximal ideal P with P^2 = tO (Vigneras,
Arithmetique des algebres de quaternions, LNM 800, ch. II; Voight,
Quaternion Algebras, GTM 288, ch. 13).  Each place scans depth m0 alone,
with the anisotropy checked by brute force, and per-coset uniqueness is a
checked claim (FalsificationError), not an assumption.  A depth bound
thus bounds no search; verify_witness_uniqueness alone checks one.

The box is searched by one meet-in-the-middle join.  nrd(w) = target reads
a^2 - target + eps t d^2 = eps b^2 + t c^2; the right side depends only on
(q, m), as q fixes eps, so its q^{2m} values are hashed once, keyed by
their coefficient tuples, into a dict shared by every place, and each place
looks up its (a, d) values there, one d of each pair {d, -d}.  Each place
is scanned, labelled in its one split model and certified once, into one
WitnessSet, which witness_set keeps and verify_witness_uniqueness reads.

At a split place the algebra maps to 2x2 matrices through a Hensel-lifted
point of x^2 - eps y^2 = t; witnesses are sorted into the q^deg + 1 right
(and left) cosets of the degree-one elementary double coset by line-matching
mod pi.  A Hecke matrix, as int rows, counts the right translations by the
witness reductions; the infinity action sends the uniformizer and the
Teichmueller units to group elements acting by right translation too.

The model is built mod pi^P (P = MAX_HECKE_MODS + 2 = 4, the most digits
a peeling reads), but its arithmetic works mod pi^k for the precision k
each caller passes: the multiply-reduce kernel folds high coefficients back
along rows t^e mod pi^k kept per k, and an embedding entry is one kernel
call over the coordinate numerators and the basis matrices scaled by each
inverse denominator.  The model's log-table field ResidueField(pi) holds
every residue fact: the point's residue, the inverses mod pi that Newton
steps lift to pi^P, and the slope v0/v1 that names a line mod pi.  Coset
labels read a witness's numerators at 1 digit and its norm at 2.  An adele
component computes at its own precision, which a division by norm
valuation v lowers by v; each divisor's image, embed(conj x) times the
inverse of the unit part of nrd x, is computed once per model and
precision.  A synthesized adele starts at P digits; factorize_adele cuts
each component to the v + 2 digits its peeling uses, and a component whose
determinant is a unit is frozen: a divisor multiplies only the live ones,
and for each frozen one its norm is checked to be a unit there, as
det(A x^{-1}) = det(A) / nrd(x) (the proofs are in its docstring).  The
components at t and infinity are multiplied once, by the peeled product
and by the infinity balance.  The round trips of `tjl verify --q 5
--degree-bound 1 --depth-bound 1 --round-trips 120 --seed 1001` make 165
component divisions (532 when every component took every divisor).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from operator import getitem

from .cyclotomic import FalsificationError, FrozenRecord, memo, require
from .funcfield import (Poly, RatFunc, ResidueField, format_poly, gf,
                        monic_irreducibles)
from .metacyclic import Gamma, gamma
from .quaternion import (
    AlgebraParams,
    LocalReduction,
    OrderElement,
    _j_power,
    reduce_at_infinity,
    reduce_at_zero,
    require_anisotropic,
    split_certificate,
)

Element = tuple[int, int]

Mat = tuple[Poly, Poly, Poly, Poly]  # row-major 2x2 over F_q[t] / pi^P


class SearchBoundExceededError(RuntimeError):
    """A search bound is too small: exit 3.  hint says what lifts it, a
    larger --depth-bound, or nothing where the bound is a fixed cap."""

    def __init__(self, message: str, hint: str):
        super().__init__(message)
        self.hint = hint


class FactorizationError(ValueError):
    pass


MAX_HECKE_MODS = 2  # Hecke modifications per synthesized adele, at most


class SplitPlace:
    """Matrix model of the algebra at a split place pi.  The model is built
    mod pi^P; its arithmetic works mod pi^k for the precision k <= P that
    each caller passes."""

    # P: a synthesized component is ks embed(gamma_rand) with ks a unit, so
    # its determinant has valuation v = v_pi(nrd gamma_rand) <= MAX_HECKE_MODS
    # (each witness factor adds 1, every other factor 0), and peeling it
    # reads v + 2 digits (factorize_adele)
    precision = MAX_HECKE_MODS + 2

    def __init__(self, alg: AlgebraParams, pi: Poly):
        if pi == Poly.t(alg.field):
            raise ValueError("the algebra does not split at t")
        self.alg = alg
        self.pi = pi
        P = self.precision
        self.field = F = alg.field
        self.residue = ResidueField(pi)  # certifies F_q[t]/pi a field
        self._pi_powers = [Poly.one(F)]
        self.modulus = self.pi_power(P)
        # k -> its fold rows: row e - D holds t^e mod pi^k (D = deg pi^k <=
        # e) as its nonzero (j, c) pairs; _mulsum folds each high
        # coefficient along its row
        self._fold_rows: dict[int, list[list[tuple[int, int]]]] = {}
        # den -> den^{-1} times the four basis matrices, mod pi^P: one
        # embedding entry is one _mulsum over these; the denominators met
        # are few (powers of t, mostly)
        self._scaled_basis: dict[Poly, tuple[Mat, ...]] = {}
        # num -> (num / pi^v_pi(num))^{-1} mod pi^P; the norms divided by
        # repeat (witness norms, pi^2)
        self._num_inverses: dict[Poly, Poly] = {}
        # the basis matrices mod pi, for the coset labels
        self._basis_mod_pi: tuple[Mat, ...] | None = None
        # (divisor x, k) -> (v_pi(nrd x), embed(conj x) times the inverse of
        # the unit part of nrd x, mod pi^k): the divisors are the witnesses
        # and the central pi's, and right_divide reads each one again
        self._divisor_images: dict[tuple[OrderElement, int],
                                   tuple[int, Mat]] = {}
        x, y = self._hensel_point()
        zero, one = Poly.zero(F), Poly.one(F)
        self.mat_one: Mat = (one, zero, zero, one)
        self.mat_i: Mat = (zero, Poly.constant(F, alg.eps), one, zero)
        self.mat_j: Mat = (x, y.scale(alg.eps) % self.modulus,
                           (-y) % self.modulus, (-x) % self.modulus)
        self.mat_k: Mat = self.matmul(self.mat_i, self.mat_j, P)
        # the basis matrices of 1, i, j, ij, in coordinate order
        self._basis = (self.mat_one, self.mat_i, self.mat_j, self.mat_k)
        # model sanity: the defining relations hold mod pi^P
        t = Poly.t(F)
        anti = self.matmul(self.mat_j, self.mat_i, P)
        if (self.matmul(self.mat_i, self.mat_i, P)
                != self.scalar_mat(Poly.constant(F, alg.eps))
                or self.matmul(self.mat_j, self.mat_j, P) != self.scalar_mat(t)
                or anti != tuple((-e) % self.modulus for e in self.mat_k)):
            raise FalsificationError(
                f"the matrix model at {format_poly(pi)} breaks the relations "
                f"i^2 = eps, j^2 = t, ji = -ij")

    # -- ring helpers --------------------------------------------------

    def _hensel_point(self) -> tuple[Poly, Poly]:
        """The residue point of split_certificate lifted mod pi^P by Newton
        steps in x, or in y when x is 0 mod pi."""
        alg, F, m = self.alg, self.field, self.modulus
        base = split_certificate(alg, self.residue)
        if base is None:
            raise FalsificationError(
                f"the algebra is ramified at {format_poly(self.pi)}")
        x, y = base
        eps = Poly.constant(F, alg.eps)
        two = Poly.constant(F, F.embed_int(2))
        for _ in range(self.precision + 2):
            err = (x * x - eps * y * y - Poly.t(F)) % m
            if err.is_zero():
                return x, y
            if base[0].coeffs:
                x = (x - err * self.inv_mod(two * x)) % m
            else:
                y = (y + err * self.inv_mod(two * eps * y)) % m
        raise FalsificationError(
            f"the Hensel lift at {format_poly(self.pi)} did not converge")

    def pi_power(self, k: int) -> Poly:
        """pi^k, each power built once."""
        powers = self._pi_powers
        while len(powers) <= k:
            powers.append(powers[-1] * self.pi)
        return powers[k]

    def inv_mod(self, a: Poly) -> Poly:
        """a^{-1} mod pi^P: its inverse mod pi, lifted by Newton steps
        w <- w (2 - a w), each of which doubles the digits."""
        a = a % self.modulus
        R, P = self.residue, self.precision
        u = R.index(a % self.pi)
        if not u:
            raise ZeroDivisionError(
                f"{format_poly(a)} is not a unit mod pi^{P} at "
                f"{format_poly(self.pi)}")
        w = Poly(self.field, R.coeffs(R.inv(u)))
        two = Poly.constant(self.field, self.field.embed_int(2))
        for _ in range((P - 1).bit_length()):
            w = self._mulsum(((w, two - self._mulsum(((a, w),), P)),), P)
        return w

    def _mulsum(self, pairs, k: int) -> Poly:
        """The sum of a*b mod pi^k over the pairs (a, b) of Polys.  Every
        product lands in one coefficient list (a constant factor is one
        scaled pass), each coefficient of degree e >= D = deg pi^k is folded
        back along the row t^e mod pi^k, and one Poly is built at the end."""
        add, mul = (field := self.field)._add, field._mul
        out: list[int] = []
        for a, b in pairs:
            a, b = a.coeffs, b.coeffs
            if len(a) < len(b):
                a, b = b, a
            if not b:
                continue
            n = len(a) + len(b) - 1
            if len(out) < n:
                out += [0] * (n - len(out))
            for i, cb in enumerate(b):
                if cb:
                    row = mul[cb]
                    for ca in a:
                        out[i] = add[out[i]][row[ca]]
                        i += 1
        D = k * self.pi.degree
        if len(out) > D:
            rows = self._rows_to(k, len(out) - 1)
            for e in range(D, len(out)):
                c = out[e]
                if c:
                    row = mul[c]
                    for j, r in rows[e - D]:
                        out[j] = add[out[j]][row[r]]
            del out[D:]
        return Poly(field, tuple(out))

    def _rows_to(self, k: int, top: int) -> list[list[tuple[int, int]]]:
        """The fold rows t^e mod pi^k for D = deg pi^k <= e <= top, built
        once per model and precision and grown on demand."""
        rows = self._fold_rows.setdefault(k, [])
        modulus = self.pi_power(k)
        D = modulus.degree
        if D + len(rows) <= top:
            F = self.field
            add, mul = F._add, F._mul
            low = [F._neg[c] for c in modulus.coeffs[:D]]  # t^D
            cur = [0] * D
            for j, c in (rows[-1] if rows else [(D - 1, 1)]):
                cur[j] = c
            while D + len(rows) <= top:
                c = cur[-1]
                cur = [0] + cur[:-1]  # times t, with c t^D left over
                if c:
                    row = mul[c]
                    cur = [add[x][row[y]] for x, y in zip(cur, low)]
                rows.append([(j, c) for j, c in enumerate(cur) if c])
        return rows

    def unit_inverse(self, r: RatFunc, k: int) -> Poly:
        """The inverse mod pi^k of the unit part r / pi^v, v = v_pi(r), of r
        whose denominator is a unit at pi (ValueError otherwise).  The
        inverse of each numerator's unit part is computed once per model."""
        if (r.den % self.pi).is_zero():
            raise ValueError("denominator not a unit at the place")
        inv = self._num_inverses.get(r.num)
        if inv is None:
            unit = r.num // self.pi_power(r.num.valuation(self.pi))
            inv = self._num_inverses[r.num] = self.inv_mod(unit)
        return self._mulsum(((r.den, inv),), k)

    def divisor_image(self, elt: OrderElement, k: int,
                      norm: RatFunc) -> tuple[int, Mat]:
        """(v, D) with v = v_pi(nrd elt) and D = embed(conj elt) times the
        inverse of the unit part of norm = nrd elt, mod pi^k: A elt^{-1} is
        (A D mod pi^k) / pi^v, mod pi^(k - v).  Computed once per divisor
        and precision."""
        key = (elt, k)
        image = self._divisor_images.get(key)
        if image is None:
            v = norm.valuation(self.pi)
            if v < 0:
                raise FactorizationError(
                    f"cannot divide by an element whose norm has valuation "
                    f"{v} at {format_poly(self.pi)}")
            image = self._divisor_images[key] = (v, self.scale_mat(
                self.embed(elt.conj(), k), self.unit_inverse(norm, k), k))
        return image

    def scalar_mat(self, c: Poly) -> Mat:
        z = Poly.zero(self.field)
        c = c % self.modulus
        return (c, z, z, c)

    def scale_mat(self, A: Mat, c: Poly, k: int) -> Mat:
        """c A mod pi^k."""
        return tuple(self._mulsum(((e, c),), k) for e in A)

    def matmul(self, A: Mat, B: Mat, k: int) -> Mat:
        """A B mod pi^k."""
        a0, a1, a2, a3 = A
        b0, b1, b2, b3 = B
        s = self._mulsum
        return (s(((a0, b0), (a1, b2)), k), s(((a0, b1), (a1, b3)), k),
                s(((a2, b0), (a3, b2)), k), s(((a2, b1), (a3, b3)), k))

    def det(self, A: Mat, k: int) -> Poly:
        """det A mod pi^k."""
        return self._mulsum(((A[0], A[3]), (-A[1], A[2])), k)

    def embed(self, elt: OrderElement, k: int) -> Mat:
        """The matrix of elt mod pi^k; denominators must be prime to pi.
        Entry e is one _mulsum over the pairs (numerator idx of elt,
        den^{-1} times entry e of basis matrix idx) of the nonzero
        numerators, den the one denominator of elt."""
        cols = [(num, s) for num, s in zip(elt.nums, self._scaled(elt.den))
                if num.coeffs]
        return tuple(self._mulsum([(num, s[e]) for num, s in cols], k)
                     for e in range(4))

    def _scaled(self, den: Poly) -> tuple[Mat, ...]:
        """den^{-1} times the four basis matrices, mod pi^P, for a
        denominator that is a unit at pi (ValueError otherwise); computed
        once per model."""
        scaled = self._scaled_basis.get(den)
        if scaled is None:
            if (den % self.pi).is_zero():
                raise ValueError("denominator not a unit at the place")
            inv = self.inv_mod(den)
            scaled = self._scaled_basis[den] = tuple(
                self.scale_mat(B, inv, self.precision) for B in self._basis)
        return scaled

    # -- coset structure of the degree-one double coset ----------------

    def coset_labels(self, elt: OrderElement) -> tuple[tuple, tuple]:
        """The right and left cosets of the degree-one double coset that
        contain the witness elt = (A + Bi + Cj + Dij) / den (den a unit at
        pi): its lines mod pi are those of den embed(elt) = A B_1 + B B_i +
        C B_j + D B_ij, and nrd(elt) is det embed(elt) mod pi^2."""
        r = elt.nrd().num % self.pi_power(2)
        v = r.valuation(self.pi) if r.coeffs else ">= 2"
        if v != 1:
            raise FalsificationError(
                f"witness {elt} has determinant valuation {v} at "
                f"{format_poly(self.pi)}")
        cols = list(zip(elt.nums, self._label_basis()))
        mat = tuple(self._mulsum([(n, B[e]) for n, B in cols], 1)
                    for e in range(4))
        return self.identify_right_coset(mat), self.identify_left_coset(mat)

    def _label_basis(self) -> tuple[Mat, ...]:
        """The basis matrices mod pi, once per model, after checking that
        det(a B_1 + b B_i + c B_j + d B_ij) = a^2 - eps b^2 - t c^2
        + eps t d^2 mod pi^2, 10 coefficients of quadratic forms."""
        if self._basis_mod_pi is None:
            F, B, eps, pi = self.field, self._basis, self.alg.eps, self.pi
            diag = ((1,), (F.neg(eps),), (0, F.neg(1)), (0, eps))
            for x, y in combinations_with_replacement(range(4), 2):
                X, Y = B[x], B[y]
                # the coefficient of a_x a_y: det X, or its polarisation
                pairs = [(X[0], Y[3]), (-X[1], Y[2])]
                if x != y:
                    pairs += [(Y[0], X[3]), (-Y[1], X[2])]
                want = diag[x] if x == y else ()
                if self._mulsum(pairs, 2).coeffs != want:
                    raise FalsificationError(
                        f"the matrix model at {format_poly(pi)} breaks "
                        f"det embed = nrd mod pi^2")
            self._basis_mod_pi = tuple(tuple(e % pi for e in M) for M in B)
        return self._basis_mod_pi

    def _coset_label(self, vectors, what: str, kind: str) -> tuple:
        """The coset named by the one line over O/pi that the vectors
        nonzero mod pi span: ("diag",) for the line of (1, 0), else
        (kind, the coefficients of v0/v1 mod pi), the quotient read in the
        residue field."""
        pi, R = self.pi, self.residue
        labels = set()
        for v0, v1 in vectors:
            v0, v1 = R.index(v0 % pi), R.index(v1 % pi)
            if not v1:
                if v0:
                    labels.add(("diag",))
                continue
            labels.add((kind, R.coeffs(R.div(v0, v1))))
        if not labels:
            raise FalsificationError(f"matrix vanishes mod {format_poly(pi)}")
        if len(labels) > 1:
            raise FalsificationError(
                f"{what} span two lines mod {format_poly(pi)}")
        return labels.pop()

    def identify_right_coset(self, A: Mat) -> tuple:
        """The right coset hK containing the primitive non-unit A,
        determined by the common line of the columns of A mod pi."""
        return self._coset_label([(A[0], A[2]), (A[1], A[3])], "columns",
                                 "upper")

    def identify_left_coset(self, A: Mat) -> tuple:
        """The left coset Kh containing A, read off the row line mod pi."""
        return self._coset_label([(A[0], A[1]), (A[2], A[3])], "rows", "lower")


# -- canonical witness sets -------------------------------------------


class Witness(FrozenRecord):
    __slots__ = ("element", "depth", "right_label", "left_label", "reduction")

    def __init__(self, element: OrderElement, depth: int, right_label: tuple,
                 left_label: tuple, reduction: LocalReduction):
        self._set(element, depth, right_label, left_label, reduction)


class WitnessSet:
    """The certified witnesses at the place of a split model: one in each
    right and one in each left coset.  Every witness has depth
    m0 = ceil(deg pi / 2), so a second one or a missing one falsifies the
    claim."""

    def __init__(self, split: SplitPlace, witnesses: list[Witness]):
        alg, pi = split.alg, split.pi
        self.split = split
        self.witnesses = witnesses
        self.by_right: dict[tuple, Witness] = {}
        self.by_left: dict[tuple, Witness] = {}
        for w in witnesses:
            for side, index, label in (("right", self.by_right, w.right_label),
                                       ("left", self.by_left, w.left_label)):
                if label in index:
                    raise FalsificationError(
                        f"second witness in {side} coset {label} at "
                        f"{format_poly(pi)}")
                index[label] = w
        want = alg.field.q ** pi.degree + 1
        require(len(witnesses) == want,
                f"found {len(witnesses)} of {want} witnesses at "
                f"{format_poly(pi)}, where depth {(pi.degree + 1) // 2} holds "
                f"all of them")
        # the witness reductions in group_of(alg), the one group that reads
        # them
        G = group_of(alg)
        self.shifts = tuple(w.reduction.to_gamma(G.R, G.M) for w in witnesses)


# -- the norm-form join -------------------------------------------------
#
# A polynomial of degree < m is named by the index of its coefficient tuple
# in product(range(q), repeat=m), whose first coordinate, the constant term,
# varies slowest.

# q^(2m) rows.  Building a table raises the peak RSS by about 120 bytes a
# row, a tuple of two indices in a list under one key (measured with CPython
# 3.11 on x86-64 Linux: 61 MiB for the 531441 rows of q=9, m=3, built in
# 2.1 s; 12 MiB for the 117649 of q=7, m=3), so the cap stands for about
# 480 MiB.  For odd q <= 9 the largest table under it has 531441 rows (q=9,
# m=3, and q=3, m=6).  Only depth m0 = ceil(deg pi / 2) is joined, so the
# cap bites only where q^(2 m0) > 2^22: at places of degree >= 7 for q = 7
# and 9, >= 9 for q = 5 and >= 13 for q = 3.
TABLE_ROW_CAP = 1 << 22


@memo
def _norm_table(q: int, m: int) -> dict[tuple, list[tuple[int, int]]]:
    """The coefficients of eps*b^2 + t*c^2 -> the index pairs (ib, ic) of
    the (b, c) of degree < m behind them, in increasing order, for the eps
    of GF(q); shared by every place."""
    F = gf(q)
    eps = F.smallest_nonsquare
    lows = (Poly(F, cs) for cs in product(range(q), repeat=m))
    squares = [p * p for p in lows]
    tcs = [p.shift(1) for p in squares]
    table: dict[tuple, list[tuple[int, int]]] = {}
    for ib, b2 in enumerate(squares):
        eb = b2.scale(eps)
        for ic, tc in enumerate(tcs):
            table.setdefault((eb + tc).coeffs, []).append((ib, ic))
    return table


def _require_table_rows(q: int, m: int) -> None:
    """The norm-form table at depth m fits under the row cap."""
    if q ** (2 * m) > TABLE_ROW_CAP:
        raise SearchBoundExceededError(
            f"the norm-form table at depth {m} needs {q ** (2 * m)} rows, "
            f"more than the cap {TABLE_ROW_CAP}",
            f"the norm-form table row cap {TABLE_ROW_CAP} is fixed")


def _box_candidates(alg: AlgebraParams, pi: Poly, m: int):
    """All (a, b, c, d) with a = t^m + lower, deg b, c, d < m and
    nrd = t^{2m - deg pi} * pi, in product order of (a, b, c, d).

    Meet in the middle: a^2 - nrd + eps*t*d^2 = eps*b^2 + t*c^2, so every
    pair (a, d) is looked up in the shared (b, c) table of _norm_table.
    d and -d give one key, so each pair {d, -d} is probed once, and a probe
    adds two coefficient tuples padded to the 2m coefficients below t^{2m}
    and builds no Poly."""
    F = alg.field
    q = F.q
    e0 = 2 * m - pi.degree
    if e0 < 0:
        return
    _require_table_rows(q, m)
    get = _norm_table(q, m).get
    lows = [Poly(F, cs) for cs in product(range(q), repeat=m)]
    tm = Poly.t_power(F, m)
    tops = [tm + p for p in lows]
    target = Poly.t_power(F, e0) * pi  # monic of degree 2m
    pad = (0,) * (2 * m)
    # the coefficients of eps*t*d^2, padded to 2m -> the indices of d, -d
    etd2: dict[tuple, list[int]] = {}
    for id_, p in enumerate(lows):
        key = ((p * p).scale(alg.eps).shift(1).coeffs + pad)[:2 * m]
        etd2.setdefault(key, []).append(id_)
    hits = []
    for ia, a in enumerate(tops):
        # the add rows of a^2 - target, whose t^{2m} terms cancel
        rows = [F._add[x] for x in ((a * a - target).coeffs + pad)[:2 * m]]
        for d, ids in etd2.items():
            key = tuple(map(getitem, rows, d))
            while key and not key[-1]:
                key = key[:-1]
            for ib, ic in get(key, ()):
                hits += [(ia, ib, ic, id_) for id_ in ids]
    for ia, ib, ic, id_ in sorted(hits):
        yield tops[ia], lows[ib], lows[ic], lows[id_]


def _scan(split: SplitPlace) -> list[Witness]:
    """Every normalized candidate of depth m0 = ceil(deg pi / 2) at the
    place of split, labeled by its cosets in split and reduced at t."""
    alg, pi = split.alg, split.pi
    m = (pi.degree + 1) // 2
    # every deeper depth holds only t-multiples of these (module docstring)
    require_anisotropic(alg.field, alg.eps)
    found = []
    for (a, b, c, d) in _box_candidates(alg, pi, m):
        gam = OrderElement.from_polys(alg, a, b, c, d, t_denominator_power=m)
        if not gam.in_K1_infinity():
            raise FalsificationError(
                f"witness {gam} at {format_poly(pi)} is not a principal "
                f"unit at infinity")
        right, left = split.coset_labels(gam)
        found.append(Witness(gam, m, right, left, reduce_at_zero(gam)))
    return found


@memo
def witness_set(alg: AlgebraParams, pi: Poly) -> WitnessSet:
    """The canonical witnesses for the degree-one modification at pi:
    gamma = t^{-m} w with nrd(w) = t^{2m - deg pi} * pi, gamma a principal
    unit at infinity, all of depth m0 = ceil(deg pi / 2), so no depth bound
    applies (verify_witness_uniqueness checks one).  Exactly one witness
    per right coset and per left coset of the split model; the set and its
    model, the one split model at pi, are kept per place once certified;
    a failed certification is not kept, so it raises on every call."""
    _require_table_rows(alg.field.q, (pi.degree + 1) // 2)
    split = SplitPlace(alg, pi)
    return WitnessSet(split, _scan(split))


def verify_witness_uniqueness(alg: AlgebraParams, pi: Poly,
                              depth_bound: int = 3) -> dict:
    """Certify that the normalized witnesses of norm degree up to
    2 * depth_bound hit each coset exactly once.  The scan of depth m0 is
    exhaustive, and the ramification at t proves every deeper depth empty
    (module docstring).  tjl checks a depth bound here alone: one below m0
    finds no witness (SearchBoundExceededError), before any scan."""
    cosets = alg.field.q ** pi.degree + 1
    if depth_bound < (pi.degree + 1) // 2:
        raise SearchBoundExceededError(
            f"found 0 of {cosets} witnesses at {format_poly(pi)} within "
            f"depth {depth_bound}", "raise --depth-bound")
    return {"cosets": cosets,
            "witnesses": len(witness_set(alg, pi).witnesses),
            "norm_degree_bound": 2 * depth_bound}


# -- translation and Hecke matrices, the action at infinity ------------


Rows = tuple[tuple[int, ...], ...]  # a |Gamma| x |Gamma| int matrix


def group_of(alg: AlgebraParams) -> Gamma:
    return gamma(alg.q, 2, alg.level)


def _count_rows(G: Gamma, images) -> Rows:
    """Row x counts the group elements images(x) by their columns."""
    rows = []
    for x in G.elements():
        row = [0] * G.order
        for y in images(x):
            row[G.element_index(y)] += 1
        rows.append(tuple(row))
    return tuple(rows)


def hecke_matrix(alg: AlgebraParams, pi: Poly) -> Rows:
    """Sum of the right translations by the witness reductions at pi: a
    nonnegative integer matrix with all row sums q^{deg pi} + 1, commuting
    with every left translation."""
    G = group_of(alg)
    shifts = witness_set(alg, pi).shifts
    return _count_rows(G, lambda x: [G.mul(x, g) for g in shifts])


@memo
def infinity_action(alg: AlgebraParams) -> dict:
    """Right action of the local group at infinity on the class set, by
    right translation: the uniformizer by p, the reduction of its witness
    j, and the Teichmueller unit of exponent e by g_e, the reduction of the
    Teichmueller lift of u^{-e}.  Products are reversed:
    act(h) act(h') = act(h' h).  Built once per algebra: every command
    checks its relations, and decompose reads it once per sigma."""
    G = group_of(alg)

    def image(w: OrderElement) -> Element:
        return reduce_at_zero(w).to_gamma(G.R, G.M)

    return {"uniformizer": image(OrderElement.j(alg)),
            "units": [image(OrderElement.teichmuller(
                alg, alg.residue.from_dlog((-e) % G.M)))
                for e in range(G.M)]}


def verify_action_relations(alg: AlgebraParams) -> None:
    """The infinity action reverses products and satisfies the local
    commutation rule (uniformizer) u = u^q (uniformizer); its square is
    the central scalar t.  Right translation is faithful and
    R_a R_b = R_(ab), so each matrix relation is a group identity.

    The units are cyclic, generated by u, so M + 3 checks suffice:
    act(1) = 1 and act(u^e) = act(u^(e-1)) act(u) for 0 < e <= M make
    act(u^e) = act(u)^e with act(u)^M = 1, hence
    act(u^e) act(u^e2) = act(u^(e+e2)) for every pair; and P u = u^q P
    then gives P u^e = u^(eq) P for every e."""
    G = group_of(alg)
    act = infinity_action(alg)
    p, g = act["uniformizer"], act["units"]

    require(g[0] == G.identity, "the infinity action breaks act(1) = 1")
    for e in range(1, G.M + 1):
        require(G.mul(g[e - 1], g[1]) == g[e % G.M],
                f"the infinity action breaks act(u^{e - 1}) act(u^1) "
                f"= act(u^{e})")
    # act(u) act(P) = act(P u) = act(u^q P) = act(P) act(u^q)
    require(G.mul(g[1], p) == G.mul(p, g[alg.q % G.M]),
            f"the infinity action breaks P u^1 = u^{alg.q} P")
    require(G.mul(p, p) == (2 % G.R, 0), "the infinity action breaks P^2 = t")


def default_places(alg: AlgebraParams, max_deg: int = 2) -> list[Poly]:
    t = Poly.t(alg.field)
    return [p for p in monic_irreducibles(alg.field, max_deg) if p != t]


# -- adele states and round-trip recovery ------------------------------


class SplitComponent:
    """A component at a split place: 2x2 matrix entries known mod
    pi^precision, with the precision shrinking by the norm valuation on
    every division.  All its arithmetic runs mod pi^precision."""

    def __init__(self, sp: SplitPlace, mat: Mat, precision: int | None = None):
        self.sp = sp
        self.precision = sp.precision if precision is None else precision
        modulus = sp.pi_power(self.precision)
        self.mat = tuple(e % modulus for e in mat)
        self._valuation: int | None = None  # v_pi(det mat), once per mat

    def det_valuation(self) -> int:
        if self._valuation is not None:
            return self._valuation
        d = self.sp.det(self.mat, self.precision)
        if d.is_zero():
            raise FactorizationError(
                f"component precision exhausted at {format_poly(self.sp.pi)}: "
                f"the determinant vanishes mod pi^{self.precision}")
        v = d.valuation(self.sp.pi)
        if v >= self.precision:
            raise FactorizationError(
                f"determinant valuation {v} at {format_poly(self.sp.pi)} "
                f"exceeds the precision {self.precision}")
        self._valuation = v
        return v

    def is_unit(self) -> bool:
        return self.det_valuation() == 0

    def right_divide(self, elt: OrderElement, norm: RatFunc) -> None:
        """Multiply by elt^{-1} on the right, norm = nrd(elt); pi-valuation
        v of the norm costs v digits of precision."""
        sp, k = self.sp, self.precision
        v, image = sp.divisor_image(elt, k, norm)
        num = sp.matmul(self.mat, image, k)
        if v:
            # entries of degree < deg pi^k: the quotients by pi^v are
            # reduced mod pi^(k - v) already; the image's unit factor is a
            # unit mod pi^v, so it leaves the remainder test unchanged
            piv = sp.pi_power(v)
            shifted = []
            for e in num:
                quo, rem = e.divmod(piv)
                if not rem.is_zero():
                    raise FactorizationError(
                        f"division at {format_poly(sp.pi)} leaves the coset "
                        f"structure")
                shifted.append(quo)
            num = tuple(shifted)
            self.precision = k - v
            if k - v < 2:
                raise FactorizationError(
                    f"component precision exhausted at {format_poly(sp.pi)}: "
                    f"{k - v} digits left")
        self.mat, self._valuation = num, None


@memo
def _divisor(alg: AlgebraParams,
             x: OrderElement) -> tuple[RatFunc, OrderElement]:
    """(nrd x, x^{-1}) for AdeleState.right_divide, whose divisors in
    factorize_adele are the witnesses and the central pi's of the places.
    alg is in the key because OrderElement equality ignores it."""
    n = x.nrd()
    return n, x.inverse(n)


class AdeleState:
    """Finite data of an adele: exact components at t and infinity, matrix
    components at the tracked split places."""

    def __init__(self, alg: AlgebraParams, zero: OrderElement,
                 infinity: OrderElement, split: dict[Poly, SplitComponent]):
        self.alg = alg
        self.zero = zero
        self.infinity = infinity
        self.split = split

    def right_divide(self, elt: OrderElement) -> OrderElement:
        """Divide the split components on the right by elt and return
        elt^{-1}; nrd(elt) and elt^{-1} are computed once per divisor.  A
        component whose determinant is a unit is frozen: A elt^{-1} stays a
        unit exactly when nrd(elt) is one at its place (det(A x^{-1}) =
        det(A) / nrd(x)), which is checked in place of the product.  The
        components at t and infinity are left to the caller."""
        n, inv = _divisor(elt.alg, elt)
        for pi, comp in self.split.items():
            if comp.is_unit():
                _require_unit_norm(n, pi, "a divisor")
            else:
                comp.right_divide(elt, n)
        return inv


def _require_unit_norm(norm: RatFunc, pi: Poly, what: str) -> None:
    """A factor of norm `norm` keeps a unit component at pi a unit: pi
    divides neither the numerator nor the denominator of the norm."""
    if (norm.num % pi).is_zero() or (norm.den % pi).is_zero():
        raise FactorizationError(
            f"{what} has norm valuation {norm.valuation(pi)} at "
            f"{format_poly(pi)}, where the component must stay a unit")


def synthesize_random_adele(alg: AlgebraParams, rng, places: list[Poly]
                            ) -> tuple[AdeleState, Element, OrderElement]:
    """A random adele assembled from a known class, random local units, and
    a random product of elementary global factors; returns the state, the
    class the factorization must recover, and the global factor."""
    G = group_of(alg)
    F = alg.field
    K = alg.residue
    splits = {pi: witness_set(alg, pi).split for pi in places}

    k0 = rng.randrange(G.R)
    e0 = rng.randrange(G.M)
    lift = OrderElement.scalar(
        alg, RatFunc.t_power(F, alg.level * rng.randrange(3)))
    lift = lift * _j_power(alg, k0)
    lift = lift * OrderElement.teichmuller(alg, K.from_dlog(e0))

    # principal unit at t: 1 + j * (polynomial element)
    small = OrderElement.from_polys(
        alg, *[Poly(F, tuple(rng.randrange(F.q) for _ in range(2)))
               for _ in range(4)])
    kappa0 = OrderElement.one(alg) + OrderElement.j(alg) * small

    # principal unit at infinity: (t + a, b, c, d) / t, 1 + O(1/t) in every
    # coordinate
    a, b, c, d = (rng.randrange(F.q) for _ in range(4))
    kinf = OrderElement.from_polys(
        alg, Poly(F, (a, 1)), *(Poly.constant(F, x) for x in (b, c, d)),
        t_denominator_power=1)
    if not kinf.in_K1_infinity():
        raise FalsificationError(
            f"synthesized infinity unit {kinf} is not principal")

    factors: list[OrderElement] = []
    for _ in range(rng.randrange(MAX_HECKE_MODS + 1)):
        pi = places[rng.randrange(len(places))]
        ws = witness_set(alg, pi)
        factors.append(ws.witnesses[rng.randrange(len(ws.witnesses))].element)
    factors.append(OrderElement.teichmuller(
        alg, K.from_dlog(rng.randrange(G.M))))
    factors.append(_j_power(alg, rng.randrange(-2, 3)))
    gamma_rand = factors[0]
    for fac in factors[1:]:
        gamma_rand = gamma_rand * fac

    comps = {}
    for pi, sp in splits.items():
        ks = _random_unit_matrix(sp, rng)
        P = sp.precision
        comps[pi] = SplitComponent(
            sp, sp.matmul(ks, sp.embed(gamma_rand, P), P))
    state = AdeleState(
        alg,
        zero=lift * kappa0 * gamma_rand,
        infinity=kinf * gamma_rand,
        split=comps,
    )
    return state, (k0 % G.R, e0), gamma_rand


def _random_unit_matrix(sp: SplitPlace, rng) -> Mat:
    """A random matrix mod pi^P whose determinant is a unit.  Only det mod
    pi decides that, so it is taken at one digit."""
    F = sp.field
    span = sp.modulus.degree
    while True:
        mat = tuple(Poly(F, [rng.randrange(F.q) for _ in range(span)])
                    for _ in range(4))
        if sp.det(mat, 1).coeffs:
            return mat


def factorize_adele(alg: AlgebraParams, state: AdeleState
                    ) -> tuple[Element, OrderElement]:
    """Recover the class of an adele by peeling split-place valuations with
    canonical witnesses, then balancing infinity.  Returns the class and
    the accumulated global factor rho applied on the right.  The
    components at t and infinity end multiplied by rho, each once: infinity
    by the product of the peeled divisors' inverses and then by the
    infinity balance gamma_f, t by rho, and the one at infinity ends a
    principal unit.  Each split component ends a unit.

    A split component whose determinant is a unit is frozen: no later
    factor multiplies it.  As det(A x^{-1}) = det(A) / nrd(x) and
    det(A embed(gamma_f)) = det(A) nrd(gamma_f) mod pi^k, each product
    would stay a unit exactly when the factor's norm is one at pi, which is
    checked instead (AdeleState.right_divide for the divisors).  So a
    divisor multiplies only the live components, at most MAX_HECKE_MODS of
    them, and a live one freezes when its own peeling brings v to 0.

    Each component is first cut down to v + 2 digits, v the pi-valuation of
    its determinant, when it holds more.  That is all the peeling needs:
    every division at pi by an element of norm valuation w lowers both the
    precision and v by exactly w, so precision - v stays 2.  A witness at
    pi costs 1 digit, a central pi costs 2, and a division at another place
    costs 0, its norm being a unit at pi.  Peeling ends at v = 0 with the
    2 digits that right_divide's precision check asks for; when v > 0, one
    digit fewer makes the last division at pi fail that check.
    Every decision reads the matrix mod pi or its determinant's valuation
    below the precision, so the cut changes no choice."""
    G = group_of(alg)
    for pi, comp in state.split.items():
        v = comp.det_valuation()
        if v + 2 < comp.precision:
            state.split[pi] = cut = SplitComponent(comp.sp, comp.mat, v + 2)
            cut._valuation = v  # det mod pi^(v + 2) has valuation v too
    rho = None  # the product of the peeled divisors' inverses, in order
    for pi in sorted(state.split.keys(), key=lambda p: (p.degree, p.coeffs)):
        comp = state.split[pi]
        ws = witness_set(alg, pi)
        guard = 0
        while comp.det_valuation() > 0:
            guard += 1
            if guard > 16:
                raise FactorizationError(f"peeling at {pi} does not terminate")
            if all((e % pi).is_zero() for e in comp.mat):
                x = OrderElement.scalar(alg, RatFunc(pi))
            else:
                x = ws.by_left[comp.sp.identify_left_coset(comp.mat)].element
            inv = state.right_divide(x)
            rho = inv if rho is None else rho * inv
    # balance infinity with a global Teichmueller times (j/t)^(-k) = j^k,
    # as j/t = j^(-1)
    if rho is not None:
        state.infinity = state.infinity * rho
    r = reduce_at_infinity(state.infinity)
    K = alg.residue
    gamma_f = OrderElement.teichmuller(alg, K.inv(r.residue)) \
        * _j_power(alg, r.k)
    state.infinity = state.infinity * gamma_f
    rho = gamma_f if rho is None else rho * gamma_f
    state.zero = state.zero * rho
    n = gamma_f.nrd()
    for pi in state.split:
        _require_unit_norm(n, pi, "the infinity balance")
    if not state.infinity.in_K1_infinity():
        raise FactorizationError(
            "the balanced component at infinity is not a principal unit")
    return reduce_at_zero(state.zero).to_gamma(G.R, G.M), rho
