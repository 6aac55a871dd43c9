"""Posets, order complexes, and (homotopy) colimits of inclusion diagrams.

Only inclusion diagrams are supported: the complex at a larger poset
element is a subcomplex of the complex at a smaller one, all structure maps
being the literal inclusions inside a shared vertex universe.  The homotopy
colimit of such a diagram is modeled combinatorially as the order complex
of the Grothendieck poset of pairs (element, nonempty simplex); for a
one-element poset this is the barycentric subdivision of the carried
complex, and in general it is the canonical subdivision of the usual
mapping-cylinder construction.

A poset given by outside pairs is sorted by ``label_key`` and closed once.
A Grothendieck poset is handed over already sorted, as its cover relation,
and builds its up-sets only if asked.  Order complexes are enumerated
along covers, and the part of a hocolim over an up-set of the diagram
poset is the order complex of the matching up-set of the Grothendieck
poset, so no chain is cut or tested for maximality.
"""

from __future__ import annotations

import functools

from .complexes import SimplicialComplex, SimplicialMap
from .labels import sort_labels


class DiagramError(ValueError):
    pass


class NotInclusionDiagram(DiagramError):
    pass


class NaturalityFailure(DiagramError):
    pass


class FinitePoset:
    """The order generated by ``relations``: a <= b when a chain of pairs
    leads from a to b.  The pairs may be the whole order, its covers or any
    relation in between; a cycle breaks antisymmetry and is refused."""

    def __init__(self, elements, relations):
        self.elements = tuple(sort_labels(set(elements)))
        succ = {x: set() for x in self.elements}
        below = {x: set() for x in self.elements}
        for a, b in relations:
            if a not in succ or b not in succ:
                raise DiagramError(f"relation uses unknown element {a!r} or {b!r}")
            if a != b:
                succ[a].add(b)
                below[b].add(a)
        # Up-sets and covers in reverse topological order; elements on or
        # below a cycle are never ready.  Every cover is a generating pair,
        # so x is covered by the direct successors above no other one.
        waiting = {x: len(bs) for x, bs in succ.items()}
        ready = [x for x, n in waiting.items() if not n]
        up, covers = {}, []
        while ready:
            x = ready.pop()
            direct = succ[x]
            up[x] = frozenset({x}).union(*(up[y] for y in direct))
            covers.extend((x, y) for y in direct if not any(y in up[z] for z in direct if z != y))
            for a in below[x]:
                waiting[a] -= 1
                if not waiting[a]:
                    ready.append(a)
        stuck = [x for x in self.elements if x not in up]
        if stuck:
            raise DiagramError(f"antisymmetry fails: {stuck[0]!r} lies on or below a cycle")
        self._up = up
        self._covers = tuple(covers)

    @classmethod
    def _from_covers(cls, elements, covers) -> "FinitePoset":
        """The poset whose elements and cover relation are handed over,
        with nothing sorted or checked; up-sets are built on first use.

        ``elements`` must be distinct and sorted by ``label_key``, and
        ``covers`` must be exactly the cover relation of an acyclic relation
        on them, as a construction that knows both hands them over.
        """
        poset = cls.__new__(cls)
        poset.elements = tuple(elements)
        poset._covers = tuple(covers)
        return poset

    @functools.cached_property
    def _up(self) -> dict:
        return FinitePoset(self.elements, self._covers)._up

    @classmethod
    def from_leq(cls, elements, leq) -> "FinitePoset":
        elements = list(elements)
        pairs = [(a, b) for a in elements for b in elements if leq(a, b)]
        return cls(elements, pairs)

    def leq(self, a, b) -> bool:
        if a not in self._up:
            raise DiagramError(f"unknown element {a!r}")
        return b in self._up[a]

    def covers(self) -> tuple:
        """Pairs (lower, upper) with nothing strictly between."""
        return self._covers

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.elements, tuple(self._up[x] for x in self.elements)))

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"


def order_complex(poset: FinitePoset) -> SimplicialComplex:
    """The complex of chains of the poset.

    Its facets are the maximal chains, and a chain is maximal exactly when
    it climbs by cover relations from a minimal element to a maximal one
    (Bjorner, "Topological methods", 1995), so the facets are enumerated as
    cover paths and no chain is tested for maximality.  The complex takes
    them as they are, and the poset's sorted elements as its vertex order.
    """
    upper = {x: [] for x in poset.elements}
    minimal = set(poset.elements)
    for a, b in poset.covers():
        upper[a].append(b)
        minimal.discard(b)
    facets = []

    def extend(chain):
        last = chain[-1]
        if not upper[last]:
            facets.append(frozenset(chain))
            return
        for y in upper[last]:
            chain.append(y)
            extend(chain)
            chain.pop()

    for x in minimal:
        extend([x])
    return SimplicialComplex._known(facets, poset.elements)


class InclusionDiagram:
    """A poset-indexed family of subcomplexes of one ambient vertex universe.

    Larger poset elements carry smaller complexes: D(p) is a subcomplex of
    D(q) whenever p >= q, checked on covering pairs.
    """

    def __init__(self, poset: FinitePoset, space_at):
        self.poset = poset
        self.space_at = dict(space_at)
        for p in poset.elements:
            if p not in self.space_at:
                raise DiagramError(f"no complex assigned to {p!r}")
        for lower, upper in poset.covers():
            if not self.space_at[upper].is_subcomplex_of(self.space_at[lower]):
                raise NotInclusionDiagram(
                    f"complex at {upper!r} is not a subcomplex of the one at {lower!r}"
                )

    @classmethod
    def _known(cls, poset: FinitePoset, space_at) -> "InclusionDiagram":
        """The diagram with the complexes ``space_at`` over ``poset``, with
        nothing checked.

        ``space_at`` must give a complex at every element of ``poset``, the
        one at each upper cover a subcomplex of the one below it, as a
        construction that knows its inclusions hands them over.
        """
        diagram = cls.__new__(cls)
        diagram.poset = poset
        diagram.space_at = dict(space_at)
        return diagram

    def space(self, p) -> SimplicialComplex:
        return self.space_at[p]

    @functools.cached_property
    def _hocolim(self) -> "Hocolim":
        gr = grothendieck_poset(self)
        return Hocolim(order_complex(gr), gr)

    def __eq__(self, other):
        return (
            isinstance(other, InclusionDiagram)
            and self.poset == other.poset
            and self.space_at == other.space_at
        )

    def __repr__(self):
        return f"InclusionDiagram({len(self.poset.elements)} elements)"


def grothendieck_poset(diagram: InclusionDiagram) -> FinitePoset:
    """Pairs (p, simplex of D(p)), ordered componentwise.

    Comparing simplices across different poset elements is meaningful
    because the diagram is an inclusion diagram.  Elements carrying the
    empty complex contribute nothing.  It is generated by (p, s) < (p, s + v)
    and by (p, s) < (q, s) for covers p < q with s in D(q), and these pairs
    are exactly its covers: a chain of other such pairs from (p, s) to
    (p, s + v) or to (q, s) would have to pass strictly between p and q or
    between s and s + v.  So the poset is handed over as its covers, with
    the pairs already in ``label_key`` order: elements p in the diagram
    poset's order, and the simplices of D(p) as sorted tuples of D(p)'s
    vertex ranks, in lexicographic order.
    """
    elements, covers = [], []
    pair_of = {}  # p -> simplex of D(p) -> the pair (p, simplex)
    for p in diagram.poset.elements:
        space = diagram.space(p)
        order = space._vertex_order()
        ranked = sorted(s for ss in space._ranked().values() for s in ss if s)
        by_rank = {s: (p, frozenset(map(order.__getitem__, s))) for s in ranked}
        elements.extend(by_rank.values())
        for s, pair in by_rank.items():
            if len(s) > 1:
                covers.extend((by_rank[s[:i] + s[i + 1 :]], pair) for i in range(len(s)))
        pair_of[p] = {pair[1]: pair for pair in by_rank.values()}
    for p, q in diagram.poset.covers():
        covers.extend((pair_of[p][t], pair) for t, pair in pair_of[q].items())
    return FinitePoset._from_covers(elements, covers)


class Hocolim:
    """The order complex of a diagram's Grothendieck poset, kept with that
    poset.  Each vertex is a pair (p, simplex of D(p)), so its diagram
    element is its first entry."""

    def __init__(self, complex: SimplicialComplex, poset: FinitePoset):
        self.complex = complex
        self.poset = poset

    def over_upset(self, keep) -> SimplicialComplex:
        """The full subcomplex on the vertices (p, s) with ``keep(p)``,
        where the elements p that ``keep`` selects form an up-set.

        A full subcomplex of an order complex is the order complex of the
        induced subposet, and an up-set keeps the covers of its poset, so
        it is built along those covers with no chain cut or filtered.
        """
        elements = [v for v in self.poset.elements if keep(v[0])]
        covers = [(a, b) for a, b in self.poset.covers() if keep(a[0])]
        return order_complex(FinitePoset._from_covers(elements, covers))


def hocolim(diagram: InclusionDiagram) -> Hocolim:
    """Combinatorial homotopy colimit: order complex of the Grothendieck poset.

    It is computed once per diagram and kept on it, since a diagram is not
    mutated after construction; maps between the same diagrams then share
    their hocolims and the homology reductions cached on them.
    """
    return diagram._hocolim


def colim(diagram: InclusionDiagram) -> SimplicialComplex:
    """Colimit of an inclusion diagram: the union inside the shared universe."""
    facets = []
    for p in diagram.poset.elements:
        facets.extend(diagram.space(p).facets)
    return SimplicialComplex(facets)


class DiagramMorphism:
    """A poset map with componentwise simplicial maps, natural on covers."""

    def __init__(self, source: InclusionDiagram, target: InclusionDiagram, poset_map, components):
        self.source = source
        self.target = target
        self.poset_map = dict(poset_map)
        self.components = dict(components)
        for p in source.poset.elements:
            if p not in self.poset_map:
                raise DiagramError(f"poset map not total at {p!r}")
            if self.poset_map[p] not in set(target.poset.elements):
                raise DiagramError(f"poset map leaves the target poset at {p!r}")
            if p not in self.components:
                raise DiagramError(f"no component at {p!r}")
        for lower, upper in source.poset.covers():
            if not target.poset.leq(self.poset_map[lower], self.poset_map[upper]):
                raise DiagramError(
                    f"poset map is not order-preserving at {lower!r} < {upper!r}"
                )
        for p in source.poset.elements:
            comp = self.components[p]
            if comp.source != source.space(p):
                raise DiagramError(f"component at {p!r} has the wrong source")
            if comp.target != target.space(self.poset_map[p]):
                raise DiagramError(f"component at {p!r} has the wrong target")
        for lower, upper in source.poset.covers():
            small = source.space(upper)  # included into source.space(lower)
            for v in small.vertices:
                if self.components[lower](v) != self.components[upper](v):
                    raise NaturalityFailure(
                        f"square at {lower!r} < {upper!r} fails on vertex {v!r}"
                    )


def induced_map(morphism: DiagramMorphism) -> SimplicialMap:
    """The simplicial map between hocolims: (p, s) -> (f(p), component(s))."""
    src = hocolim(morphism.source)
    tgt = hocolim(morphism.target)
    vertex_map = {}
    for v in src.complex.vertices:
        p, s = v
        comp = morphism.components[p]
        vertex_map[v] = (morphism.poset_map[p], comp.image_simplex(s))
    return SimplicialMap(src.complex, tgt.complex, vertex_map)


def homotopic_pair_check(m1: DiagramMorphism, m2: DiagramMorphism) -> bool:
    """Whether two inclusion-component morphisms are pointwise comparable.

    Callers use a True answer to justify comparing induced homology maps,
    which must then agree.
    """
    if m1.source != m2.source or m1.target != m2.target:
        raise DiagramError("morphisms do not share source and target")
    for m in (m1, m2):
        for p, comp in m.components.items():
            if not comp.is_inclusion():
                raise DiagramError(f"component at {p!r} is not an inclusion")
    tgt = m1.target.poset
    f, g = m1.poset_map, m2.poset_map
    ps = m1.source.poset.elements
    return all(tgt.leq(g[p], f[p]) for p in ps) or all(tgt.leq(f[p], g[p]) for p in ps)
