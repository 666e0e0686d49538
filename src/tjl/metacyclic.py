"""Metacyclic groups Z/(nN) acting on Z/(q^n - 1) and their exact irreps.

Elements are pairs (k, e) with k mod R = nN and e mod M = q^n - 1, multiplied
by (k, e) * (k', e') = (k + k', e * q^k' + e').  The cyclic part acts through
the Frobenius e -> q e, so irreducible representations are indexed by
Frobenius orbits on Z/M together with a twist s mod R/f (f = orbit size).
Each irrep is realised by explicit monomial matrices over the cyclotomic ring,
so characters, multiplicities and intertwiners are all exact.

A character table is built once per distinct value: the value of the irrep
(orbit, s) at the class of (k, e) is 0 unless f | k, and otherwise a root of
unity zeta_m^twist, set by s and k / f, times sum_{j<f} zeta_M^(e c_0 q^j),
c_0 = orbit[0], so f, the twist and e c_0 mod M fix it (Irrep.character_key).  The restriction of an
irrep to the pairs (0, e) is certified at each c of Z/M both by the basis
tags and by the character sum (1/M) sum_{c' in orbit} S_M(c' - c) of root
sums S_M(d) = sum_e zeta_M^(e d).  The support D = {d : S_M(d) != 0} is
read off the exact sums of all d once per M; the sum is taken at the c of
the orbit minus D, and it is 0 term by term at every other c, where no tag
may lie (chi_restriction).

Orthonormality of a character table is decided by one exact inner product
per orbit of row pairs (orthonormality_pairs) under the row permutations the
table certifies itself (table_symmetries): the Galois maps zeta -> zeta^k and
the twists by linear characters, each kept only if it maps every row, value
for value, to a row and the row map is a bijection.  Such a map sends
<chi_a, chi_b> to its Galois conjugate, so the first failing or non-rational
pair is the first pair of its orbit, the one that is computed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import (
    Cyc,
    FalsificationError,
    FrozenRecord,
    OrderedRecord,
    OrderMismatchError,
    divisors,
    inner_product,
    memo,
    require,
)
from .funcfield import is_prime_power

Element = tuple[int, int]


def mobius(m: int) -> int:
    if m == 1:
        return 1
    out, mm, p = 1, m, 2
    while p * p <= mm:
        if mm % p == 0:
            mm //= p
            if mm % p == 0:
                return 0
            out = -out
        p += 1
    if mm > 1:
        out = -out
    return out


def orbit_count_of_size(q: int, n: int, d: int) -> int:
    """Number of Frobenius orbits on Z/(q^n - 1) of size exactly d (d | n)."""
    if n % d:
        raise ValueError(f"orbit size {d} does not divide n = {n}")
    total = sum(mobius(d // e) * (q**e - 1) for e in divisors(d))
    require(total % d == 0,
            f"the necklace sum {total} for size {d} is not divisible by {d}")
    return total // d


class GroupParams(FrozenRecord):
    __slots__ = ("q", "n", "level")

    def __init__(self, q: int, n: int, level: int = 1):
        if not is_prime_power(q):
            raise ValueError(f"q = {q} must be a prime power")
        if n < 1 or level < 1:
            raise ValueError("n and the level must be positive")
        self._set(q, n, level)

    @property
    def M(self) -> int:
        return self.q**self.n - 1

    @property
    def R(self) -> int:
        return self.n * self.level

    @property
    def order(self) -> int:
        return self.M * self.R

    def to_json(self) -> dict:
        return {"q": self.q, "n": self.n, "N": self.level}


class Gamma:
    """The group of pairs (k mod nN, e mod q^n - 1) under the twisted law."""

    def __init__(self, q: int, n: int, level: int = 1):
        self.params = GroupParams(q, n, level)
        self.q = q
        self.n = n
        self.level = level
        self.M = self.params.M
        self.R = self.params.R
        self.order = self.params.order
        # ambient cyclotomic order: all character values live in this ring
        self.cyc_order = lcm(self.M, self.R)
        self._elements: list[Element] | None = None
        self._index: dict[Element, int] | None = None
        self._classes: list[tuple[Element, ...]] | None = None
        self._table: tuple | None = None

    # -- group law -------------------------------------------------------

    @property
    def identity(self) -> Element:
        return (0, 0)

    def frob_power(self, k: int) -> int:
        """q^k mod M, using that q has order n modulo M."""
        if self.M == 1:
            return 0
        return pow(self.q, k % self.n, self.M)

    def mul(self, g: Element, h: Element) -> Element:
        k1, e1 = g
        k2, e2 = h
        return ((k1 + k2) % self.R, (e1 * self.frob_power(k2) + e2) % self.M)

    def inv(self, g: Element) -> Element:
        k, e = g
        return ((-k) % self.R, (-e * self.frob_power(-k)) % self.M)

    def conjugate(self, g: Element, x: Element) -> Element:
        """g x g^{-1}."""
        return self.mul(self.mul(g, x), self.inv(g))

    def elements(self) -> list[Element]:
        if self._elements is None:
            self._elements = [
                (k, e) for k in range(self.R) for e in range(self.M)
            ]
            self._index = {g: i for i, g in enumerate(self._elements)}
        return self._elements

    def element_index(self, g: Element) -> int:
        self.elements()
        return self._index[g]

    def conjugacy_classes(self) -> list[tuple[Element, ...]]:
        """Brute-force conjugacy classes, each sorted, in order of least element."""
        if self._classes is not None:
            return self._classes
        gens = [(1 % self.R, 0), (0, 1 % self.M)]
        gens += [self.inv(g) for g in gens]
        seen: set[Element] = set()
        classes: list[tuple[Element, ...]] = []
        for x in self.elements():
            if x in seen:
                continue
            # closure under conjugation by generators = full conjugacy class
            block = {x}
            frontier = [x]
            while frontier:
                y = frontier.pop()
                for g in gens:
                    z = self.conjugate(g, y)
                    if z not in block:
                        block.add(z)
                        frontier.append(z)
            seen |= block
            classes.append(tuple(sorted(block)))
        self._classes = classes
        return classes

    # -- Frobenius orbits and irrep labels -------------------------------

    def _frobenius_walk(self, c: int) -> tuple[int, ...]:
        """c mod M, qc, q^2 c, ... up to the first repeat."""
        M = self.M
        c %= M
        walk = [c]
        x = c * self.q % M
        while x != c:
            walk.append(x)
            x = x * self.q % M
        return tuple(walk)

    def frobenius_orbit(self, c: int) -> tuple[int, ...]:
        return tuple(sorted(self._frobenius_walk(c)))

    def orbit_tags(self, orbit: tuple[int, ...]) -> tuple[int, ...]:
        """The orbit in Frobenius order starting from its least element."""
        tags = self._frobenius_walk(orbit[0])
        if tuple(sorted(tags)) != orbit:
            raise ValueError(f"{orbit} is not a sorted Frobenius orbit "
                             f"mod {self.M}")
        return tags

    def __repr__(self):
        return f"Gamma(q={self.q}, n={self.n}, level={self.level})"


@memo
def gamma(q: int, n: int, level: int) -> Gamma:
    return Gamma(q, n, level)


def enumerate_orbits(group: Gamma) -> list[tuple[int, ...]]:
    """All Frobenius orbits on Z/M, as sorted tuples, ordered by least element."""
    M = group.M
    seen: set[int] = set()
    orbits: list[tuple[int, ...]] = []
    for c in range(M):
        if c in seen:
            continue
        orb = group.frobenius_orbit(c)
        seen.update(orb)
        orbits.append(orb)
    # orbit sizes divide n, and the census matches the necklace counts
    bad = [orb for orb in orbits if group.n % len(orb)]
    require(not bad, f"orbits {bad} have sizes that do not divide n = {group.n}")
    for d in divisors(group.n):
        expected = orbit_count_of_size(group.q, group.n, d)
        got = sum(1 for orb in orbits if len(orb) == d)
        require(got == expected,
                f"{got} Frobenius orbits of size {d}, the necklace count "
                f"is {expected}")
    return orbits


class IrrepLabel(OrderedRecord):
    """An irrep: a Frobenius orbit (sorted tuple) plus a twist s mod R/f."""

    __slots__ = ("orbit", "s")

    def __init__(self, orbit: tuple[int, ...], s: int):
        self._set(orbit, s)

    @property
    def dim(self) -> int:
        return len(self.orbit)

    def to_json(self) -> dict:
        return {"orbit": list(self.orbit), "s": self.s, "dim": self.dim}


def enumerate_irreps(group: Gamma) -> list[IrrepLabel]:
    """All irrep labels, sorted by (orbit, s); one of dimension f per orbit
    of size f and twist s mod R/f."""
    labels = []
    for orbit in enumerate_orbits(group):
        f = len(orbit)
        require(group.R % f == 0,
                f"orbit size {f} does not divide R = {group.R}")
        for s in range(group.R // f):
            labels.append(IrrepLabel(orbit, s))
    labels.sort()
    total = sum(lab.dim**2 for lab in labels)
    require(total == group.order,
            f"irrep dimensions square-sum to {total}, not {group.order}")
    return labels


class Irrep:
    """Monomial model of the irrep with the given label.

    Basis vectors are tagged by the orbit in Frobenius order (c, qc, q^2 c,
    ...); the abelian generator acts diagonally through those tags and the
    cyclic generator permutes them, picking up the twist on wraparound.
    """

    def __init__(self, group: Gamma, label: IrrepLabel):
        self.group = group
        self.label = label
        self.tags = group.orbit_tags(label.orbit)
        self.f = len(self.tags)
        self.s = label.s
        self.s_modulus = group.R // self.f
        self.m = group.cyc_order

    @property
    def dim(self) -> int:
        return self.f

    def monomial(self, g: Element) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The representing matrix as (perm, exps): column j holds
        zeta_m^exps[j] in row perm[j], exponents reduced mod m.  The tag
        of column j picks the abelian character, and the twist is paid
        once per wraparound of the cyclic shift."""
        k, e = g
        k %= self.group.R
        f, m, M, sm = self.f, self.m, self.group.M, self.s_modulus
        perm = tuple((j + k) % f for j in range(f))
        exps = tuple(((m // sm) * (self.s * ((j + k) // f) % sm)
                      + (m // M) * (e * self.tags[j] % M)) % m
                     for j in range(f))
        return perm, exps

    def character_key(self, g: Element) -> tuple[int, int] | None:
        """What the trace of monomial(g) depends on besides f: None where it
        is zero (f does not divide k), else (twist, x) with x = e c_0 mod M
        for c_0 = orbit[0].  The trace is then zeta_m^twist times the sum
        over the orbit of zeta_M^(e c), and e c runs through the x q^j,
        j < f, so irreps of one dimension share their values by key."""
        k, e = g
        k %= self.group.R
        if k % self.f:
            return None
        sm = self.s_modulus
        return ((self.m // sm) * (self.s * (k // self.f) % sm),
                e * self.label.orbit[0] % self.group.M)

    def character(self, g: Element) -> Cyc:
        """Trace of monomial(g), by the closed formula of character_key:
        the twist times the sum of zeta_M^(x q^j) over j < f."""
        key = self.character_key(g)
        if key is None:
            return Cyc.zero(self.m)
        twist, x = key
        M, m = self.group.M, self.m
        return Cyc(m, Counter(twist + (m // M) * (x * self.group.frob_power(j)
                                                  % M)
                              for j in range(self.f)))

    def __repr__(self):
        return f"Irrep({self.group!r}, orbit={self.label.orbit}, s={self.s})"


@memo
def _root_sum(M: int, d: int) -> Fraction | int:
    """S_M(d) = sum over e in Z/M of zeta_M^(e d), 0 <= d < M, exactly: its
    exponent histogram reduced modulo Phi_M once.  It must be rational,
    else NotRationalError; an integer value is kept as an int."""
    value = Cyc(M, Counter(e * d % M for e in range(M))).to_rational()
    return value.numerator if value.denominator == 1 else value


@memo
def _root_support(M: int) -> frozenset[int]:
    """The d in Z/M with S_M(d) != 0, certified by the exact root sums of
    every d in Z/M (_root_sum)."""
    return frozenset(d for d in range(M) if _root_sum(M, d))


def _multiplicity(M: int, label: IrrepLabel, tags: tuple[int, ...],
                  support: frozenset[int], c_exp: int) -> int:
    """The multiplicity of chi_{c_exp}, 0 <= c_exp < M, in the restriction
    of label, by the count of tags equal to c_exp, which the character sum
    must confirm.  The sum is (1/M) sum_{c in orbit} S_M(c - c_exp); where
    no c - c_exp lies in the certified support it is 0 term by term."""
    by_tags = tags.count(c_exp)
    total = 0
    if any((c - c_exp) % M in support for c in label.orbit):
        total = sum(_root_sum(M, (c - c_exp) % M) for c in label.orbit)
    if total % M:
        raise FalsificationError(
            f"multiplicity of chi_{c_exp} in {label} is {Fraction(total, M)}, "
            f"not an integer")
    if by_tags * M != total:
        raise FalsificationError(
            f"multiplicity of chi_{c_exp} in {label}: {by_tags} basis tags "
            f"but character sum {Fraction(total, M)}")
    return by_tags


def chi_multiplicity(group: Gamma, label: IrrepLabel, c_exp: int) -> int:
    """Multiplicity of the abelian character e -> zeta_M^(c_exp * e) in the
    restriction of the irrep to the normal subgroup of pairs (0, e).

    Computed two independent ways, which must agree: the count of basis tags
    of the monomial model (group.orbit_tags) equal to c_exp, and the exact
    character inner product (1/M) sum_e sum_{c in orbit} zeta_M^(e c)
    zeta_M^(-c_exp e) = (1/M) sum_{c in orbit} S_M(c - c_exp).  That sum
    is taken, over f memoised root sums (_root_sum), only when some
    c - c_exp lies in the support of the root sums (_root_support), which
    is certified once per M from all M of them; otherwise every term is 0,
    and so must the tag count be.
    """
    M = group.M
    return _multiplicity(M, label, group.orbit_tags(label.orbit),
                         _root_support(M), c_exp % M)


def chi_restriction(group: Gamma, label: IrrepLabel) -> dict[int, int]:
    """The restriction of the irrep to the pairs (0, e), as the nonzero
    multiplicities {c: chi_multiplicity(group, label, c)}, c increasing.

    The multiplicity is certified both ways at each c of the orbit minus
    the root-sum support and at each basis tag; at every other c the
    character sum is 0 term by term and no tag equals c, so both ways give
    0 there.  The c are taken in increasing order, so a failure is the one
    that the loop over every c of Z/M meets first."""
    M = group.M
    tags = group.orbit_tags(label.orbit)
    support = _root_support(M)
    reached = {(c - d) % M for c in label.orbit for d in support}
    out = {}
    for c in sorted(reached.union(tags)):
        mult = _multiplicity(M, label, tags, support, c)
        if mult:
            out[c] = mult
    return out


def character_table(group: Gamma):
    """(labels, class representatives, class sizes, value matrix), as
    tuples, computed once per group."""
    if group._table is None:
        labels = tuple(enumerate_irreps(group))
        classes = group.conjugacy_classes()
        reps = tuple(cls[0] for cls in classes)
        sizes = tuple(len(cls) for cls in classes)
        # a table holds few distinct values (195 in the 3885 entries of the
        # groups with q^n - 1 <= 26): each is built once, for the first
        # entry of its key (f, character_key), and entries with equal
        # sparse terms share one Cyc
        by_key: dict[tuple, Cyc] = {}
        distinct: dict[frozenset, Cyc] = {}
        values = []
        for lab in labels:
            rep = Irrep(group, lab)
            row = []
            for g in reps:
                key = (rep.f, rep.character_key(g))
                v = by_key.get(key)
                if v is None:
                    v = rep.character(g)
                    v = by_key[key] = distinct.setdefault(v.terms, v)
                row.append(v)
            values.append(tuple(row))
        group._table = labels, reps, sizes, tuple(values)
    return group._table


def character_inner(
    group: Gamma, row_a: list[Cyc], row_b: list[Cyc], sizes: list[int]
) -> Fraction:
    """(1/|G|) sum over classes of size * a * conj(b); every value must lie
    in Q(zeta_m) for m = group.cyc_order."""
    if row_a and row_a[0].order != group.cyc_order:
        raise OrderMismatchError(
            f"character values of order {row_a[0].order} in a group of "
            f"cyclotomic order {group.cyc_order}")
    return inner_product(row_a, row_b, sizes, group.order)


def _unit_generators(m: int) -> list[int]:
    """Generators of (Z/m)^x: each unit in increasing order that lies
    outside the subgroup the earlier ones generate."""
    subgroup = {1 % m}
    gens = []
    for k in range(2, m):
        if k in subgroup or gcd(k, m) != 1:
            continue
        gens.append(k)
        # <H, k> is the union of the cosets H k^i, H abelian
        powers, x = [1], k
        while x not in subgroup:
            powers.append(x)
            x = x * k % m
        subgroup = {h * p % m for h in subgroup for p in powers}
    return gens


def table_symmetries(group: Gamma, rows) -> list[tuple[int, tuple[int, ...]]]:
    """Row permutations certified on the table itself, as (k, perm) pairs:
    the value at class c of row perm[a] is sigma_k of the value of row a
    times lam(c), for a row lam whose values are roots of unity, so
    <chi_perm[a], chi_perm[b]> = sigma_k(<chi_a, chi_b>) with
    sigma_k: zeta_m -> zeta_m^k (m = group.cyc_order).

    The candidates are the Galois maps sigma_k for generators k of
    (Z/m)^x (exponents e -> k e mod m, lam = 1) and the twists by the rows
    whose every value is one root of unity zeta_m^t with coefficient 1
    (exponents e -> e + t class by class, k = 1).  A twist row is not tried
    when the twists kept before it carry the trivial row to it: it lies in
    the group they generate.  A candidate is kept only if it sends each
    row, value for value and by exact term equality, to a row of the table,
    and the row map is a bijection.  A table with a value of another order,
    or with rows of different lengths, gets no symmetry.  Each distinct
    value is mapped once per Galois map, and once per shift of a class it
    occurs in for a twist."""
    m = group.cyc_order
    values = {id(v): v for row in rows for v in row}
    if (any(v.order != m for v in values.values())
            or len({len(row) for row in rows}) > 1):
        return []
    # rows as tuples of indices into the distinct values, keyed by terms
    index_of: dict[frozenset, int] = {}
    by_id = {key: index_of.setdefault(v.terms, len(index_of))
             for key, v in values.items()}
    keyed = [tuple(map(by_id.__getitem__, map(id, row))) for row in rows]
    row_of = {key: a for a, key in enumerate(keyed)}
    terms = list(index_of)
    width = len(keyed[0]) if keyed else 0

    def mapped(exponent, among) -> list[int | None]:
        """At each value index i in among, the index of the value i with
        its exponents e sent to exponent(e); None where that is no value
        of the table, and at the indices not in among."""
        image = [None] * len(terms)
        for i in among:
            image[i] = index_of.get(frozenset((exponent(e), v)
                                              for e, v in terms[i]))
        return image

    def certified(images) -> tuple[int, ...] | None:
        """The row map sending row a to the row whose value index at class
        c is images[c][i], for i the value index of row a there, if every
        image is a row and the map is a bijection."""
        perm = tuple(row_of.get(tuple(map(list.__getitem__, images, key)))
                     for key in keyed)
        if None in perm or len(set(perm)) != len(perm):
            return None
        return perm

    kept = []
    for k in _unit_generators(m):
        perm = certified([mapped(lambda e: k * e % m, range(len(terms)))]
                         * width)
        if perm is not None:
            kept.append((k, perm))

    roots = {i: e for i, t in enumerate(terms) if len(t) == 1
             for e, v in t if v == 1}
    columns = [set(column) for column in zip(*keyed)]
    twists: list[tuple[int, ...]] = []
    trivial = row_of.get((index_of.get(frozenset({(0, 1)})),) * width)
    reached = set() if trivial is None else {trivial}
    for a, key in enumerate(keyed):
        if a in reached or not all(i in roots for i in key):
            continue
        # the values of class c are shifted by the exponent of row a there
        among: dict[int, set[int]] = {}
        for i, column in zip(key, columns):
            among.setdefault(roots[i], set()).update(column)
        by_shift = {t: mapped(lambda e: (e + t) % m, indices)
                    for t, indices in among.items()}
        perm = certified([by_shift[roots[i]] for i in key])
        if perm is None:
            continue
        kept.append((1, perm))
        twists.append(perm)
        frontier = list(reached)
        while frontier:
            b = frontier.pop()
            for twist in twists:
                if twist[b] not in reached:
                    reached.add(twist[b])
                    frontier.append(twist[b])
    return kept


def orthonormality_pairs(group: Gamma, rows) -> list[tuple[int, int]]:
    """The lex-first pair (a, b), a <= b, of each orbit of row pairs under
    the permutations of table_symmetries, in lex order.

    Each orbit's pairs have inner products sigma(z) for one z, so they are
    all rational or all not; a rational one is fixed by sigma, and every
    pair of the orbit is diagonal or none is.  So the first pair, in lex
    order, whose inner product is not rational or not the Kronecker delta
    is the first pair of its orbit: computing these pairs alone finds it."""
    perms = [perm for _, perm in table_symmetries(group, rows)]
    n = len(rows)
    seen = bytearray(n * n)
    out = []
    for a in range(n):
        for b in range(a, n):
            if seen[a * n + b]:
                continue
            out.append((a, b))
            seen[a * n + b] = 1
            frontier = [(a, b)]
            while frontier:
                x, y = frontier.pop()
                for perm in perms:
                    u, v = perm[x], perm[y]
                    if u > v:
                        u, v = v, u
                    if not seen[u * n + v]:
                        seen[u * n + v] = 1
                        frontier.append((u, v))
    return out
