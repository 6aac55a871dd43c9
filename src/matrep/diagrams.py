"""Posets, order complexes, and (homotopy) colimits of inclusion diagrams.

Only inclusion diagrams are supported: the complex at a larger poset
element is a subcomplex of the complex at a smaller one, all structure maps
being the literal inclusions inside a shared vertex universe.  The homotopy
colimit of such a diagram is modeled combinatorially as the order complex
of the Grothendieck poset of pairs (element, nonempty simplex); for a
one-element poset this is the barycentric subdivision of the carried
complex, and in general it is the canonical subdivision of the usual
mapping-cylinder construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, SimplicialMap
from .labels import label_key, sort_labels


class DiagramError(ValueError):
    pass


class NotInclusionDiagram(DiagramError):
    pass


class NaturalityFailure(DiagramError):
    pass


class FinitePoset:
    def __init__(self, elements, leq_pairs, *, closed=False):
        self.elements = tuple(sort_labels(set(elements)))
        index = set(self.elements)
        up = {x: {x} for x in self.elements}
        for a, b in leq_pairs:
            if a not in index or b not in index:
                raise DiagramError(f"relation uses unknown element {a!r} or {b!r}")
            up[a].add(b)
        if not closed:
            changed = True
            while changed:
                changed = False
                for x in self.elements:
                    extra = set()
                    for y in up[x]:
                        extra |= up[y]
                    if not extra <= up[x]:
                        up[x] |= extra
                        changed = True
        for x in self.elements:
            for y in up[x]:
                if y != x and x in up[y]:
                    raise DiagramError(f"antisymmetry fails at {x!r}, {y!r}")
        self._up = {x: frozenset(s) for x, s in up.items()}
        self._covers = None

    @classmethod
    def from_leq(cls, elements, leq) -> "FinitePoset":
        elements = list(elements)
        pairs = [(a, b) for a in elements for b in elements if leq(a, b)]
        return cls(elements, pairs, closed=True)

    def leq(self, a, b) -> bool:
        if a not in self._up:
            raise DiagramError(f"unknown element {a!r}")
        return b in self._up[a]

    def lt(self, a, b) -> bool:
        return a != b and self.leq(a, b)

    def up_set(self, x) -> frozenset:
        if x not in self._up:
            raise DiagramError(f"unknown element {x!r}")
        return self._up[x]

    def down_set(self, x) -> frozenset:
        return frozenset(y for y in self.elements if self.leq(y, x))

    def minimal_elements(self):
        return tuple(x for x in self.elements if all(not self.lt(y, x) for y in self.elements))

    def maximal_elements(self):
        return tuple(x for x in self.elements if all(not self.lt(x, y) for y in self.elements))

    def covers(self) -> tuple:
        """Pairs (lower, upper) with nothing strictly between, computed once
        per poset object."""
        if self._covers is None:
            out = []
            for x in self.elements:
                above = self._up[x] - {x}
                higher = set()  # strictly above some element of ``above``
                for y in above:
                    higher |= self._up[y] - {y}
                out.extend((x, y) for y in above - higher)
            self._covers = tuple(out)
        return self._covers

    def restrict(self, subset) -> "FinitePoset":
        keep = set(subset)
        unknown = keep - set(self.elements)
        if unknown:
            raise DiagramError(f"unknown elements {sorted(map(repr, unknown))}")
        pairs = [(a, b) for a in keep for b in self._up[a] if b in keep]
        return FinitePoset(keep, pairs, closed=True)

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.elements, tuple(sorted(self._up.items(), key=lambda kv: label_key(kv[0])))))

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"


def order_complex(poset: FinitePoset) -> SimplicialComplex:
    """The complex of chains of the poset.

    Its facets are the maximal chains, and a chain is maximal exactly when
    it climbs by cover relations from a minimal element to a maximal one
    (Bjorner, "Topological methods", 1995), so the facets are enumerated as
    cover paths and no chain is tested for maximality.
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
    return SimplicialComplex(facets)


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

    def space(self, p) -> SimplicialComplex:
        return self.space_at[p]

    def restrict(self, subset) -> "InclusionDiagram":
        keep = set(subset)
        return InclusionDiagram(
            self.poset.restrict(keep), {p: self.space_at[p] for p in keep}
        )

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
    empty complex contribute nothing.
    """
    elements = []
    for p in diagram.poset.elements:
        for s in sorted(diagram.space(p).nonempty_simplices(), key=label_key):
            elements.append((p, s))
    return FinitePoset.from_leq(
        elements,
        lambda a, b: diagram.poset.leq(a[0], b[0]) and a[1] <= b[1],
    )


@dataclass
class Hocolim:
    complex: SimplicialComplex
    provenance: dict  # hocolim vertex -> poset element


def hocolim(diagram: InclusionDiagram) -> Hocolim:
    """Combinatorial homotopy colimit: order complex of the Grothendieck poset."""
    gr = grothendieck_poset(diagram)
    komplex = order_complex(gr)
    provenance = {v: v[0] for v in gr.elements}
    return Hocolim(komplex, provenance)


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
