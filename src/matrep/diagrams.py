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

The order complex subdivides the prodsimplicial model of the hocolim, a
complex of cells (chain of elements, simplex of the space at its top),
which has the same homotopy type and far fewer cells.  Every hocolim
complex carries that model as its cells, and its Betti numbers are read
there (``complexes.reduced_betti``).
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
        self._up, covers = _close(self.elements, relations)
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
        return _close(self.elements, self._covers)[0]

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


def _close(elements, relations):
    """Up-sets and covers of the order that ``relations`` generate on
    ``elements``, both in reverse topological order: each element comes
    after every element above it."""
    succ = {x: set() for x in elements}
    below = {x: set() for x in elements}
    for a, b in relations:
        if a not in succ or b not in succ:
            raise DiagramError(f"relation uses unknown element {a!r} or {b!r}")
        if a != b:
            succ[a].add(b)
            below[b].add(a)
    # Elements on or below a cycle are never ready.  Every cover is a
    # generating pair, so x is covered by the direct successors above no
    # other one.
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
    stuck = [x for x in elements if x not in up]
    if stuck:
        raise DiagramError(f"antisymmetry fails: {stuck[0]!r} lies on or below a cycle")
    return up, covers


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
    # depth first, with the upper covers still to try at each step of the
    # chain; labels are never None
    chain, untried = [], [iter(minimal)]
    while untried:
        y = next(untried[-1], None)
        if y is None:
            untried.pop()
            if chain:
                chain.pop()
        elif upper[y]:
            chain.append(y)
            untried.append(iter(upper[y]))
        else:
            facets.append(frozenset(chain + [y]))
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
        return Hocolim(self)

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
    element is its first entry.

    The complex, and each one read off it over an up-set, carries the
    diagram's prodsimplicial model over the same elements as its cells,
    where ``complexes.reduced_betti`` reads its Betti numbers.  For that
    the hocolim keeps the diagram's spaces and covers, not the diagram,
    which keeps the hocolim.
    """

    def __init__(self, diagram: InclusionDiagram):
        self.poset = grothendieck_poset(diagram)
        self._space_at = diagram.space_at
        self._covers = diagram.poset.covers()
        self.complex = order_complex(self.poset)
        self.complex._cells = functools.partial(_prodsimplicial_cells, self._space_at, self._covers)

    def over_upset(self, keep) -> SimplicialComplex:
        """The full subcomplex on the vertices (p, s) with ``keep(p)``,
        where the elements p that ``keep`` selects form an up-set.

        A full subcomplex of an order complex is the order complex of the
        induced subposet, and an up-set keeps the covers of its poset, so
        it is built along those covers with no chain cut or filtered.  Its
        cells are those of the diagram over the up-set.
        """
        elements = [v for v in self.poset.elements if keep(v[0])]
        covers = [(a, b) for a, b in self.poset.covers() if keep(a[0])]
        komplex = order_complex(FinitePoset._from_covers(elements, covers))
        space_at = {p: space for p, space in self._space_at.items() if keep(p)}
        komplex._cells = functools.partial(_prodsimplicial_cells, space_at, self._covers)
        return komplex


def _prodsimplicial_cells(space_at, covers):
    """The cells per dimension of the prodsimplicial model of the hocolim
    of the inclusion diagram with spaces ``space_at``, whose covers are the
    pairs in ``covers`` between its elements, and their boundary, in the
    form ``complexes._reduce_down`` takes.

    A cell (c, t) is a chain c = p0 < ... < pk of elements and a nonempty
    simplex t of D(pk), the smallest space on the chain; its dimension is
    k + dim t.  Its boundary is the sum over i of (-1)^i (c - pi) x t, plus
    (-1)^k c x (the boundary of t), leaving out the terms whose chain or
    simplex would be empty, and a 0-cell has augmentation 1.  Dropping pk
    keeps t a simplex, since D(pk) lies in D(pk-1).  The order complex of
    the Grothendieck poset subdivides this model, so the two have the same
    homotopy type (Welker-Ziegler-Zivaljevic, "Homotopy colimits -
    comparison lemmas for combinatorial applications", 1999; Kozlov,
    "Combinatorial Algebraic Topology", 2008).

    Chains are tuples of element numbers, and simplices sorted tuples of
    vertex numbers shared by all the spaces.  The chains starting at p are
    p alone and p followed by each chain starting above p, so they are
    built top-down from the up-sets of the covers.
    """
    live = [p for p, space in space_at.items() if not space.is_empty]
    number = {p: i for i, p in enumerate(live)}
    vertex = {}
    simplices = []
    for p in live:
        space = space_at[p]
        vertex_number = [vertex.setdefault(v, len(vertex)) for v in space._vertex_order()]
        simplices.append(
            [tuple(sorted(map(vertex_number.__getitem__, s))) for d, ss in space._ranked().items() if d >= 0 for s in ss]
        )
    up, _ = _close(live, [(p, q) for p, q in covers if p in number and q in number])
    cells = {-1: {(): 0}}
    chains = {}
    for p, above in up.items():  # every element above p comes first
        i = number[p]
        chains[i] = [(i,)] + [(i,) + c for j in sorted(number[q] for q in above if q != p) for c in chains[j]]
        for c in chains[i]:
            for t in simplices[c[-1]]:
                index = cells.setdefault(len(c) + len(t) - 2, {})
                index[c, t] = len(index)
    return cells, _cell_boundary


def _cell_boundary(cell, row) -> dict:
    """The boundary of a cell of ``_prodsimplicial_cells`` as a sparse
    column over the indices ``row`` of the cells one dimension down."""
    if not cell:  # the empty cell
        return {}
    c, t = cell
    k = len(c) - 1
    column = {}
    if k:
        for i in range(k + 1):
            column[row[c[:i] + c[i + 1 :], t]] = -1 if i % 2 else 1
    if len(t) > 1:
        for j in range(len(t)):
            column[row[c, t[:j] + t[j + 1 :]]] = -1 if (k + j) % 2 else 1
    elif not k:
        column[row[()]] = 1
    return column


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
