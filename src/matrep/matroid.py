"""Matroids, lattices of flats, Mobius/Whitney data and matroid maps.

A matroid is given by its family of independent sets.  The ranks of all
subsets are tabulated once by a subset-lattice DP over bitmasks, and that
table is what the module reads: the matroid axioms are checked on it as it
is filled, and ranks, the weakness of maps and a second table, the closure
of every subset, are read off it; flats, joins and Mobius values are read
off the closures.  Desk scale is small ground sets (n <= 12,
``MAX_ELEMENTS``), where exactness beats cleverness.

Maps between matroids follow the usual zero-element convention: every
ground set is silently extended by the reserved label "o", maps send o to
o, and deleting an element is the map sending it to o.  The label o never
participates in rank computations.
"""

from __future__ import annotations

import functools
import itertools

from .labels import label_key, sort_labels

ZERO = "o"

# At the cap, U6,12 builds and checks its rank table in about 0.02 s, and
# its closures, lattice and Mobius values take about 0.02 s more:
# `matrep info U6,12` runs about 0.25 s wall on one core of an Intel Xeon
# server
MAX_ELEMENTS = 12


class MatroidError(ValueError):
    pass


class NotEquicardinal(MatroidError):
    pass


class ExchangeFailure(MatroidError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotIntersectionClosed(MatroidError):
    pass


class NotMatroidal(MatroidError):
    pass


class UnknownElement(MatroidError):
    pass


class KOutOfRange(MatroidError):
    pass


class NotSurjective(MatroidError):
    pass


def _require_small(n: int) -> None:
    """Refuse a ground set of n elements over ``MAX_ELEMENTS``, before
    anything is built over its subsets."""
    if n > MAX_ELEMENTS:
        raise MatroidError(f"ground set has {n} elements, over the cap {MAX_ELEMENTS}")


def _bits(m) -> list:
    """The one-bit masks inside m."""
    return [1 << i for i in range(m.bit_length()) if m >> i & 1]


def _largest_independent(table, is_ind, m) -> int:
    """An independent mask inside m of rank r(m), dropping bits that keep the rank."""
    while not is_ind[m]:
        m ^= next(low for low in _bits(m) if table[m ^ low] == table[m])
    return m


class _RankTable:
    """Ranks and closures read off ``_rank_table``, the rank of every mask
    of the sorted ``elements``, and ``_closures``, the closure of every
    mask.  A matroid fills both tables, and its lattice of flats reads the
    same ones: the lattice keeps the tables, not the matroid, which keeps
    the lattice."""

    def _subset(self, m) -> frozenset:
        return frozenset(e for i, e in enumerate(self.elements) if m >> i & 1)

    def _mask(self, subset) -> int:
        m = 0
        for e in subset:
            i = self._index.get(e)
            if i is None:
                raise UnknownElement(f"{e!r} is not in the ground set")
            m |= 1 << i
        return m

    def rank(self, subset) -> int:
        return self._rank_table[self._mask(subset)]

    def closure(self, subset) -> frozenset:
        return self._subset(self._closures[self._mask(subset)])

    @functools.cached_property
    def _closures(self) -> list:
        """The closure of each mask m: the bits that leave r(m) unchanged.
        A bit b of m that keeps r(m) lies in the closure of m - b, which
        then equals the closure of m, so only the other masks are scanned."""
        table = self._rank_table
        bits = _bits(len(table) - 1)
        closures = [0] * len(table)
        for m, r in enumerate(table):
            low = m & -m
            if low and table[m ^ low] == r:
                closures[m] = closures[m ^ low]
            else:
                closures[m] = sum(bit for bit in bits if table[m | bit] == r)
        return closures


class Matroid(_RankTable):
    def __init__(self, elements, independents):
        elems = set(elements)
        _require_small(len(elems))
        if ZERO in elems:
            raise MatroidError(f"the label {ZERO!r} is reserved for the zero element")
        self.elements = tuple(sort_labels(elems))
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.independents = frozenset(frozenset(s) for s in independents)
        self._rank_table = self._tabulate_ranks()
        self.rank_total = self._rank_table[(1 << len(self.elements)) - 1]
        self._lattice = None

    def _tabulate_ranks(self):
        """r(S), the size of a largest independent subset of each mask S,
        in a pass that checks the rank axioms in their local form (Oxley,
        Matroid Theory, 1.3): the empty set is independent, the family is
        closed under subsets, and elements a, b that each leave r(S)
        unchanged leave r(S+a+b) unchanged, which is the exchange axiom."""
        if frozenset() not in self.independents:
            raise MatroidError("the empty set must be independent")
        size = 1 << len(self.elements)
        is_ind = bytearray(size)
        for s in self.independents:
            is_ind[self._mask(s)] = 1
        table = [0] * size
        failure = None
        for m in range(1, size):
            lows = _bits(m)
            if is_ind[m]:
                if not all(is_ind[m ^ low] for low in lows):
                    subset = sort_labels(self._subset(m))
                    raise MatroidError(f"independents not closed under subsets at {subset}")
                table[m] = len(lows)
                continue
            table[m] = r = max(table[m ^ low] for low in lows)
            # m = S+a+b breaks the axiom when a and b each lower r(m) but
            # S keeps r(m) - 1; an independent m never does, by heredity
            if failure is None:
                drops = itertools.combinations([low for low in lows if table[m ^ low] < r], 2)
                failure = next(((m ^ a ^ b, m) for a, b in drops if table[m ^ a ^ b] == r - 1), None)
        if failure is not None:
            # x and y are largest independent subsets of S and of S+a+b: an
            # e in y - x lies in S, is a or is b, and none of them extends x
            x, y = (self._subset(_largest_independent(table, is_ind, m)) for m in failure)
            raise ExchangeFailure(f"exchange fails for {sort_labels(x)} and {sort_labels(y)}", witness=(x, y))
        return table

    def lattice(self) -> "GeometricLattice":
        if self._lattice is None:
            self._lattice = GeometricLattice(self)
        return self._lattice

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.elements == other.elements
            and self.independents == other.independents
        )

    def __hash__(self):
        return hash((self.elements, self.independents))

    def __repr__(self):
        return f"Matroid(rank {self.rank_total} on {len(self.elements)} elements)"


class GeometricLattice(_RankTable):
    """Flats of a matroid ordered by containment, graded by rank.

    Meets are intersections, joins are closures of unions.  The flats of a
    matroid form a geometric lattice (Oxley, Matroid Theory, 1.7): they are
    closed under intersection, the lattice is semimodular and every flat is
    the join of the atoms below it.  These are theorems about every valid
    Matroid, so construction does not check them.
    """

    def __init__(self, matroid: Matroid):
        self.elements = matroid.elements
        self._index = matroid._index
        self._rank_table = matroid._rank_table
        self._closures = matroid._closures
        self.rank_total = matroid.rank_total
        flats = (self._subset(m) for m, closed in enumerate(self._closures) if m == closed)
        self.flats = tuple(sorted(flats, key=lambda f: (self.rank(f), label_key(f))))
        self.rank_of = {f: self.rank(f) for f in self.flats}
        self.bottom = self.flats[0]
        self.top = frozenset(self.elements)
        self.atoms = tuple(f for f in self.flats if self.rank_of[f] == 1)
        self.coatoms = tuple(f for f in self.flats if self.rank_of[f] == self.rank_total - 1)
        self._mobius = None
        self._covers = None

    def join(self, p, q) -> frozenset:
        return self.closure(p | q)

    def join_all(self, flats) -> frozenset:
        acc = frozenset()
        for f in flats:
            acc = acc | f
        return self.closure(acc)

    def covers(self) -> tuple:
        """Pairs p < q of flats with rank(q) = rank(p) + 1, computed once."""
        if self._covers is None:
            by_rank: dict[int, list] = {}
            for f in self.flats:
                by_rank.setdefault(self.rank_of[f], []).append(f)
            self._covers = tuple(
                (p, q) for p in self.flats for q in by_rank.get(self.rank_of[p] + 1, ()) if p < q
            )
        return self._covers

    def atoms_below(self, p):
        return tuple(a for a in self.atoms if a <= p)

    def mobius(self) -> dict:
        """Mobius values mu(bottom, p), by Rota's closure theorem ("On the
        foundations of combinatorial theory I", 1964): mu(bottom, p) is the
        sum of (-1)^|S - bottom| over the sets S between the bottom and p
        whose closure is p, so one pass over the closure table finds them
        all."""
        if self._mobius is None:
            loops = self._closures[0]
            flat_of = {self._mask(f): f for f in self.flats}
            mu = dict.fromkeys(self.flats, 0)
            for m, closed in enumerate(self._closures):
                if m & loops == loops:
                    mu[flat_of[closed]] += -1 if bin(m ^ loops).count("1") % 2 else 1
            self._mobius = mu
        return self._mobius

    def whitney(self) -> "WhitneyVector":
        mu = self.mobius()
        w = [0] * (self.rank_total + 1)
        for f in self.flats:
            w[self.rank_of[f]] += abs(mu[f])
        return WhitneyVector(tuple(w))

    def __repr__(self):
        return f"GeometricLattice({len(self.flats)} flats, rank {self.rank_total})"


class WhitneyVector:
    """Whitney numbers of the first kind, w[k] = sum of |mu| over rank-k flats."""

    def __init__(self, w: tuple):
        self.w = w

    def __getitem__(self, k):
        return self.w[k]

    def dominates(self, other: "WhitneyVector") -> bool:
        """Degree by degree, a degree missing on one side counting as 0."""
        return all(a >= b for a, b in itertools.zip_longest(self.w, other.w, fillvalue=0))

    def as_list(self):
        return list(self.w)


def whitney_first(matroid: Matroid) -> WhitneyVector:
    return matroid.lattice().whitney()


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid: every subset of size at most r is independent."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    elements = range(1, n + 1)
    independents = itertools.chain.from_iterable(
        itertools.combinations(elements, k) for k in range(r + 1)
    )
    return Matroid(elements, independents)


def matroid_from_bases(elements, bases) -> Matroid:
    elements = set(elements)
    _require_small(len(elements))
    bases = [frozenset(b) for b in bases]
    if not bases:
        raise NotEquicardinal("at least one basis is required")
    size = len(bases[0])
    for b in bases:
        if len(b) != size:
            raise NotEquicardinal(f"bases {sort_labels(bases[0])} and {sort_labels(b)} differ in size")
        if not b <= elements:
            raise UnknownElement(f"basis {sort_labels(b)} leaves the ground set")
    independents = set()
    for b in bases:
        for k in range(len(b) + 1):
            independents.update(itertools.combinations(b, k))
    return Matroid(elements, independents)


def matroid_from_flats(elements, flats) -> Matroid:
    """Reconstruct a matroid from its family of flats.

    The family must contain the ground set and be closed under
    intersections.  The closure of a set is then the meet of the flats
    containing it, and a set is independent when none of its elements lies
    in the closure of the others.  Validity is established by a round
    trip: the flats of the result must be exactly the given family.
    """
    elems = frozenset(elements)
    _require_small(len(elems))
    family = {frozenset(f) for f in flats}
    if elems not in family:
        raise NotIntersectionClosed("the ground set (empty intersection) must be a flat")
    stray = [f for f in family if not f <= elems]
    if stray:
        raise UnknownElement(f"flat {sort_labels(min(stray, key=label_key))} leaves the ground set")
    order = sort_labels(elems)
    bit = {e: 1 << i for i, e in enumerate(order)}
    masks = {sum(map(bit.__getitem__, f)) for f in family}
    # meet[m], the meet of the flats containing m, from the supersets of m
    # down: each flat strictly above m contains m plus some bit
    full = (1 << len(order)) - 1
    meet = [full] * (full + 1)
    for m in range(full, -1, -1):
        if m in masks:
            meet[m] = m
        else:
            for b in bit.values():
                if not m & b:
                    meet[m] &= meet[m | b]
    missing = next((m for m, closed in enumerate(meet) if m == closed and m not in masks), None)
    if missing is not None:
        lost = [e for e in order if bit[e] & missing]
        raise NotIntersectionClosed(f"missing intersection {lost}")
    independents = [
        [e for e in order if bit[e] & m]
        for m in range(full + 1)
        if not any(meet[m ^ b] & b for b in bit.values() if m & b)
    ]
    try:
        matroid = Matroid(elems, independents)
    except MatroidError as exc:
        raise NotMatroidal(f"derived independence system is not a matroid: {exc}") from exc
    if set(matroid.lattice().flats) != family:
        raise NotMatroidal("flat family does not round-trip")
    return matroid


def truncate(matroid: Matroid, k: int) -> Matroid:
    """Rank function clamped at rank_total - k."""
    if not 0 <= k <= matroid.rank_total:
        raise KOutOfRange(f"truncation order {k} outside 0..{matroid.rank_total}")
    bound = matroid.rank_total - k
    return Matroid(
        matroid.elements, (s for s in matroid.independents if len(s) <= bound)
    )


class SetMap:
    """A map between ground sets extended by o, with o mapped to o."""

    def __init__(self, source: Matroid, target: Matroid, assignment):
        a = dict(assignment)
        a.setdefault(ZERO, ZERO)
        if a[ZERO] != ZERO:
            raise MatroidError("the zero element must map to itself")
        allowed_values = set(target.elements) | {ZERO}
        for e in source.elements:
            if e not in a:
                raise MatroidError(f"assignment not total: missing {e!r}")
            if a[e] not in allowed_values:
                raise UnknownElement(f"{e!r} maps outside the target ground set")
        for key in a:
            if key != ZERO and key not in source._index:
                raise UnknownElement(f"assignment key {key!r} is not a source element")
        self.source = source
        self.target = target
        self.assignment = {e: a[e] for e in source.elements}
        self.assignment[ZERO] = ZERO

    @classmethod
    def identity(cls, source: Matroid, target: Matroid | None = None) -> "SetMap":
        target = source if target is None else target
        return cls(source, target, {e: e for e in source.elements})

    def __call__(self, e):
        return self.assignment[e]

    def image_set(self, subset) -> frozenset:
        return frozenset(self.assignment[e] for e in subset) - {ZERO}

    def is_surjective(self) -> bool:
        return self.image_set(self.source.elements) >= frozenset(self.target.elements)


class MapClassification:
    """What ``classify_map`` found about a map of ground sets."""

    def __init__(
        self, is_weak: bool, is_strong: bool, is_surjective: bool, is_non_annihilating: bool
    ):
        self.is_weak = is_weak
        self.is_strong = is_strong
        self.is_surjective = is_surjective
        self.is_non_annihilating = is_non_annihilating


def classify_map(f: SetMap) -> MapClassification:
    """Weakness via the rank inequality on all subsets, strength via flat
    preimages, plus surjectivity and the atoms-to-atoms condition."""
    src, tgt = f.source, f.target
    image = [0]  # image[m], the target mask of the image of source mask m
    for e in src.elements:
        bit = tgt._mask(f.image_set((e,)))
        image += [m | bit for m in image]
    weak = all(tgt._rank_table[i] <= r for i, r in zip(image, src._rank_table))
    strong = True
    for flat in tgt.lattice().flats:
        pre = frozenset(e for e in src.elements if f(e) in flat or f(e) == ZERO)
        if src.closure(pre) != pre:
            strong = False
            break
    surjective = f.is_surjective()
    non_annihilating = all(
        tgt.rank(tgt.closure(f.image_set(a))) == 1 for a in src.lattice().atoms
    )
    return MapClassification(weak, strong, surjective, non_annihilating)


class FlatMap:
    """An order-preserving map between lattices of flats."""

    def __init__(self, source_lattice, target_lattice, assignment):
        self.source_lattice = source_lattice
        self.target_lattice = target_lattice
        self.assignment = dict(assignment)
        for p in source_lattice.flats:
            if p not in self.assignment:
                raise MatroidError(f"flat map not total at {sort_labels(p)}")
        for p, q in source_lattice.covers():
            if not self.assignment[p] <= self.assignment[q]:
                raise MatroidError(f"flat map is not order-preserving at {sort_labels(p)} < {sort_labels(q)}")

    def __call__(self, p):
        return self.assignment[p]

    def then(self, other: "FlatMap") -> "FlatMap":
        return FlatMap(
            self.source_lattice,
            other.target_lattice,
            {p: other.assignment[self.assignment[p]] for p in self.assignment},
        )


def induced_flat_map(f: SetMap) -> FlatMap:
    """The flat map p -> closure of the image of p, for a weak map."""
    if not classify_map(f).is_weak:
        raise MatroidError("induced flat maps are defined for weak maps")
    src_lat = f.source.lattice()
    tgt_lat = f.target.lattice()
    assignment = {p: f.target.closure(f.image_set(p)) for p in src_lat.flats}
    return FlatMap(src_lat, tgt_lat, assignment)


def factor_through_truncation(f: SetMap):
    """Factor a surjective weak map through the truncation by the rank drop."""
    cls = classify_map(f)
    if not cls.is_weak:
        raise MatroidError("factorization applies to weak maps")
    if not cls.is_surjective:
        raise NotSurjective("factorization applies to surjective maps")
    k = f.source.rank_total - f.target.rank_total
    truncated = truncate(f.source, k)
    id_k = SetMap(f.source, truncated, {e: e for e in f.source.elements})
    tau_k = SetMap(truncated, f.target, dict(f.assignment))
    return id_k, tau_k
