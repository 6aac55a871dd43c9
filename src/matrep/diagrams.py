"""Posets and (homotopy) colimits of inclusion diagrams.

Only inclusion diagrams are supported: the complex at a larger poset
element is a subcomplex of the complex at a smaller one, all structure maps
being the literal inclusions inside a shared vertex universe.  The homotopy
colimit of such a diagram is modeled combinatorially as the order complex
of the Grothendieck poset of pairs (element, nonempty simplex); for a
one-element poset this is the barycentric subdivision of the carried
complex, and in general it is the canonical subdivision of the usual
mapping-cylinder construction.

A poset given by outside pairs is sorted by ``label_key`` and closed once;
one whose covers its construction knows is handed over as them and builds
its up-sets only if asked.  A hocolim's facets are enumerated along
covers, so no chain is cut or tested for maximality.

A hocolim complex numbers its Grothendieck poset once, elements in
``label_key`` order and covers as pairs of numbers
(``_grothendieck_numbers``), and builds no poset of labels.  Its vertices
and facets (the cover paths) are labelled from the numbers when read, and
its export names the numbered elements and labels neither; flats that
share one space object share its listing and names.  Its part over an
up-set of the diagram poset is the hocolim of the diagram over that
up-set, whose Grothendieck poset is the matching up-set of the whole one.

The order complex subdivides the prodsimplicial model of the hocolim, a
complex of cells (chain of elements, simplex of the space at its top),
which has the same homotopy type and far fewer cells.  Every hocolim
complex carries that model as its cells, built from the diagram's spaces
and covers alone, and its Betti numbers are read there
(``complexes.reduced_betti``).  When the diagram has a least element m
with a nonempty space, as Y and every up-set complex of T do, the model
collapses onto D(m) (``HocolimComplex._cells``), and the hocolim is read on
D(m)'s own simplicial model instead; the complexes that share that space
share its model, so its Betti numbers are reduced once.

Its faces are counted from the diagram too, so face counts, ``dim`` and
``is_empty`` build nothing.  Each simplex (p0, s0) < ... < (pj, sj) of the
order complex lies in the interior of exactly one cell (c, t): c is the
chain of its distinct p's and t = sj, since a cell's interior holds the
chains that use every element of c and end at t.  So f_j is the sum over
the cells of the chains of j + 1 elements inside one, which depends only
on the length of c and the size of t (``_hocolim_face_counts``).

A diagram morphism induces a map of hocolims (``HocolimMap``) whose chain
map is written once, on cells named as (chain of elements, vertex labels):
each end names its cells so, whichever model it has
(``HocolimComplex._terms``), and its homology map builds neither end's
vertices or facets.
"""

from __future__ import annotations

import functools
import itertools
import math

from .complexes import ChainModel, SimplicialComplex, _sorted_with_sign
from .labels import format_label, sort_labels


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


def _cover_paths(n, covers):
    """The maximal chains of the poset on 0, ..., n - 1 whose cover
    relation is the pairs of numbers ``covers``: the paths that climb by
    covers from an element with no lower cover to one with no upper cover,
    each as a tuple of numbers.  A chain is maximal exactly when it climbs
    so (Bjorner, "Topological methods", 1995), so no chain is tested for
    maximality."""
    upper = [[] for _ in range(n)]
    minimal = [True] * n
    for a, b in covers:
        upper[a].append(b)
        minimal[b] = False
    # depth first, with the upper covers still to try at each step of the
    # path
    path, untried = [], [itertools.compress(range(n), minimal)]
    while untried:
        i = next(untried[-1], None)
        if i is None:
            untried.pop()
            if path:
                path.pop()
        elif upper[i]:
            path.append(i)
            untried.append(iter(upper[i]))
        else:
            yield (*path, i)


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


def _grothendieck_numbers(space_at, covers):
    """The Grothendieck poset of the inclusion diagram with spaces
    ``space_at``, in the order of its poset's elements, and covers
    ``covers``, by number.

    Its elements are the pairs (p, nonempty simplex s of D(p)), ordered
    componentwise, which is meaningful because the diagram is an inclusion
    diagram; elements p carrying the empty complex contribute nothing.  It
    is generated by (p, s) < (p, s + v) and by (p, s) < (q, s) for covers
    p < q with s in D(q), and these pairs are exactly its covers: a chain
    of other such pairs from (p, s) to (p, s + v) or to (q, s) would have
    to pass strictly between p and q or between s and s + v.

    The elements are numbered in ``label_key`` order: elements p in the
    diagram poset's order, and the nonempty simplices s of D(p) as sorted
    tuples of D(p)'s vertex ranks, in lexicographic order.  Returns the
    runs (p, D(p), those tuples), one list of tuples per distinct space,
    and the covers as pairs of numbers.  A distinct space is listed once,
    and the covers between two distinct spaces are matched once, however
    many elements share them.
    """
    listed = {}  # id(space) -> (its nonempty simplices, their numbers, covers among them)
    runs, first, numbered, count = [], {}, [], 0
    for p, space in space_at.items():
        if id(space) not in listed:
            simplices = sorted(s for ss in space._ranked().values() for s in ss if s)
            index = {s: j for j, s in enumerate(simplices)}
            inside = [(index[s[:i] + s[i + 1 :]], j) for j, s in enumerate(simplices) if len(s) > 1 for i in range(len(s))]
            listed[id(space)] = simplices, index, inside
        simplices, _, inside = listed[id(space)]
        runs.append((p, space, simplices))
        numbered.extend((count + a, count + b) for a, b in inside)
        first[p] = count
        count += len(simplices)
    matched = {}  # (id(D(p)), id(D(q))) -> the number in D(p) of each simplex of D(q)
    for p, q in covers:
        lower, upper = space_at[p], space_at[q]
        key = id(lower), id(upper)
        if key not in matched:
            shift = [lower._rank_of[v] for v in upper._vertex_order()]
            index = listed[id(lower)][1]
            matched[key] = [index[tuple(map(shift.__getitem__, t))] for t in listed[id(upper)][0]]
        numbered.extend((first[p] + a, first[q] + b) for b, a in enumerate(matched[key]))
    return runs, numbered


class HocolimComplex(SimplicialComplex):
    """The order complex of a diagram's Grothendieck poset, built only as
    far as it is read.

    It keeps the diagram's spaces, in the order of its poset's elements,
    and its covers, and numbers the Grothendieck elements and their covers
    once, when first asked (``_grothendieck_numbers``).  Its vertices are
    the numbered elements labelled (p, simplex), in ``label_key`` order,
    and its facets the cover paths on the numbers, labelled; reading the
    vertices lists no facet.  Its export reads the numbers too.  Its face
    counts and its prodsimplicial model read the spaces and the up-sets of
    the live elements alone, found once (``_live_upsets``).  Its chain
    model (``_cells``) is that model, or D(m)'s own simplicial model when a
    least live element m exists; a model keeps its reductions, so Betti
    numbers and homology maps reduce it at most once each way.
    """

    def __init__(self, space_at, covers):
        self._space_at = space_at  # in the order of the diagram poset's elements
        self._covers = covers

    @functools.cached_property
    def _numbered(self) -> tuple:
        return _grothendieck_numbers(self._space_at, self._covers)

    @functools.cached_property
    def _order(self) -> tuple:
        faces = {}  # id(space) -> its simplices as vertex sets
        order = []
        for p, space, simplices in self._numbered[0]:
            if id(space) not in faces:
                vertex = space._vertex_order()
                faces[id(space)] = [frozenset(map(vertex.__getitem__, s)) for s in simplices]
            order.extend((p, s) for s in faces[id(space)])
        return tuple(order)

    @functools.cached_property
    def _vertices(self) -> frozenset:
        return frozenset(self._order)

    @functools.cached_property
    def _facets(self) -> frozenset:
        order = self._order
        paths = _cover_paths(len(order), self._numbered[1])
        return frozenset(frozenset(map(order.__getitem__, path)) for path in paths)

    @functools.cached_property
    def _live(self) -> tuple:
        return _live_upsets(self._space_at, self._covers)

    @functools.cached_property
    def _face_counts(self) -> dict:
        return _hocolim_face_counts(self._space_at, *self._live)

    def face_counts(self) -> dict:
        """Simplices per dimension, counted from the spaces and covers
        (``_hocolim_face_counts``) with no simplex listed."""
        return dict(self._face_counts)

    def to_doc(self) -> dict:
        """``SimplicialComplex.to_doc``, read from the spaces and covers by
        number, with no vertex labelled and no facet set built.

        A vertex (p, s) is named "(" + name(p) + "," + name(s) + ")", the
        name of s built once per distinct space from its vertices' names in
        rank order, and the facets are its cover paths
        (``_grothendieck_numbers``, ``_cover_paths``).  Each distinct name
        is ranked once in string order, so sorting each facet, and then
        the facets, as tuples of ranks is sorting them as lists of names.
        """
        runs, covers = self._numbered
        names, named = [], {}  # id(space) -> its simplices' names
        for p, space, simplices in runs:
            if id(space) not in named:
                vertex = [format_label(v) for v in space._vertex_order()]
                named[id(space)] = ["{" + ",".join(map(vertex.__getitem__, s)) + "}" for s in simplices]
            flat = "(" + format_label(p) + ","
            names.extend(flat + s + ")" for s in named[id(space)])
        ordered = sorted(set(names))
        position = {name: r for r, name in enumerate(ordered)}
        rank = [position[name] for name in names]
        facets = sorted(tuple(sorted(map(rank.__getitem__, path))) for path in _cover_paths(len(names), covers))
        return {"vertices": names, "facets": [list(map(ordered.__getitem__, f)) for f in facets]}

    @property
    def dim(self) -> int:
        return max(self._face_counts, default=-1)

    @property
    def is_empty(self) -> bool:
        return not self._face_counts

    def __repr__(self):
        return f"HocolimComplex({self._face_counts.get(0, 0)} vertices, dimension {self.dim})"

    @functools.cached_property
    def _least(self):
        """The least live element, or None when there is none.

        Live elements form a down-set, so a live element's lower covers are
        live, and the live elements with no lower cover are the minimal
        ones; when there is one, it is the least.
        """
        upper = {q for _, q in self._covers}
        minimal = [p for p, space in self._space_at.items() if not space.is_empty and p not in upper]
        return minimal[0] if len(minimal) == 1 else None

    @functools.cached_property
    def _prodsimplicial(self) -> tuple:
        """The prodsimplicial model and its vertex -> number map."""
        cells, vertex = _prodsimplicial_cells(self._space_at, *self._live)
        return ChainModel(cells, _cell_boundary), vertex

    def _cells(self) -> ChainModel:
        """Its chain model: with a least live element m, D(m)'s own
        simplicial model, and otherwise the prodsimplicial model.

        Every space lies in D(m), so the cells over a simplex t are the
        chains of the elements whose space holds t, a down-set that holds
        m.  Pairing each chain without m with the chain that adds it
        matches them all but the chain (m), fiber by fiber, and the fibers'
        matchings glue into one acyclic matching (Kozlov, "Combinatorial
        Algebraic Topology", 2008, 11.10).  Its critical cells ((m), t) have
        the boundary (m) x (the boundary of t), so the Morse complex is
        D(m)'s simplicial chain complex (Forman, "Morse theory for cell
        complexes", 1998).
        """
        if self._least is not None:
            return self._space_at[self._least]._simplicial
        return self._prodsimplicial[0]

    @functools.cached_property
    def _terms(self) -> tuple:
        """cell -> (chain of elements, vertex labels), and back: (chain,
        labels) -> (cell, sign), or None when they name no cell, as when
        an element or a vertex repeats.  On D(m)'s simplices s is named
        ((m), s), and the lookup sends ((q), s) to s and longer chains to 0:
        that projection kills the cone pairs of ``_cells``, undoes
        s -> ((m), s), and is a chain map, since the two ends of an edge
        (q0, q1) x s meet s with opposite signs.
        """
        if self._least is None:
            live, vertex = self._live[0], self._prodsimplicial[1]
            label, number = list(vertex), {p: i for i, p in enumerate(live)}

            def name(cell):
                c, t = cell
                return [live[i] for i in c], [label[v] for v in t]

            def find(chain, labels):
                c = tuple(map(number.__getitem__, chain))
                if len(set(c)) < len(c):
                    return None
                hit = _sorted_with_sign([vertex[v] for v in labels])
                return None if hit is None else ((c, hit[0]), hit[1])

        else:
            least, space = self._least, self._space_at[self._least]
            label, rank = space._vertex_order(), space._rank_of

            def name(s):
                return [least], [label[r] for r in s]

            def find(chain, labels):
                return None if len(chain) > 1 else _sorted_with_sign([rank[v] for v in labels])

        return name, find


class Hocolim:
    """The hocolim of a diagram: the order complex of its Grothendieck
    poset, a ``HocolimComplex``.  Each vertex is a pair (p, simplex of
    D(p)), so its diagram element is its first entry.

    The complex keeps the diagram's spaces and covers, not the diagram,
    which keeps the hocolim, and so does each complex read off it over an
    up-set.
    """

    def __init__(self, diagram: InclusionDiagram):
        poset = diagram.poset
        self.complex = HocolimComplex({p: diagram.space(p) for p in poset.elements}, poset.covers())

    def over_upset(self, keep) -> HocolimComplex:
        """The full subcomplex on the vertices (p, s) with ``keep(p)``,
        where the elements p that ``keep`` selects form an up-set.

        A full subcomplex of an order complex is the order complex of the
        induced subposet, and the Grothendieck poset of the diagram over an
        up-set is that subposet: an up-set keeps the covers of its poset.
        So it is the hocolim of the diagram over the up-set, whose spaces
        and covers are cut here and nothing else.
        """
        whole = self.complex
        space_at = {p: space for p, space in whole._space_at.items() if keep(p)}
        return HocolimComplex(space_at, [(p, q) for p, q in whole._covers if p in space_at and q in space_at])


def _live_upsets(space_at, covers):
    """The elements of the inclusion diagram with spaces ``space_at`` and
    covers ``covers`` whose space is not empty, and their up-sets among
    them in reverse topological order (``_close``).

    The space of an element above an empty one is empty, so these elements
    form a down-set, and the covers between them are its covers.
    """
    live = [p for p, space in space_at.items() if not space.is_empty]
    alive = set(live)
    up, _ = _close(live, [(p, q) for p, q in covers if p in alive and q in alive])
    return live, up


def _hocolim_face_counts(space_at, live, up) -> dict:
    """Dimension -> the number of simplices of the order complex of the
    Grothendieck poset of the inclusion diagram with spaces ``space_at``,
    none of them listed; ``live`` and ``up`` are the diagram's elements
    with a nonempty space and their up-sets (``_live_upsets``).

    Each simplex lies inside exactly one prodsimplicial cell, so f_j is the
    sum over the elements q, chain lengths a and simplex sizes b of (the
    chains of a elements with top q) * (the simplices of D(q) with b
    vertices) * ``_interior_chains(a, b, j)``.
    """
    ending = {p: {1: 1} for p in live}  # p -> a -> chains of a elements with top p
    for p, above in reversed(up.items()):  # every element below p comes first
        for q in above - {p}:
            for a, n in ending[p].items():
                ending[q][a + 1] = ending[q].get(a + 1, 0) + n
    weight = {}  # (a, b) -> the sum over q of chains times simplices
    for q in live:
        for d, f in space_at[q].face_counts().items():
            for a, n in ending[q].items():
                weight[a, d + 1] = weight.get((a, d + 1), 0) + n * f
    counts = {}
    for (a, b), w in weight.items():
        for j in range(a - 1, a + b - 1):
            counts[j] = counts.get(j, 0) + w * _interior_chains(a, b, j)
    return {j: counts[j] for j in sorted(counts)}


@functools.cache
def _interior_chains(a, b, j) -> int:
    """The chains of j + 1 elements of [a] x (the nonempty faces of a
    (b-1)-simplex), strictly increasing in the product order, that meet
    every level of [a] and end at (a, the whole simplex): the simplices of
    dimension j inside a prodsimplicial cell of a chain of a elements and
    a simplex of b vertices.  It is nonzero exactly for a-1 <= j <= a+b-2.

    The chain's distinct faces form a chain of m faces ending at the whole
    simplex, an ordered partition of its b vertices into m blocks, of
    which there are m! S(b, m).  Each of its j steps climbs a level, a face
    or both: C(j, a-1) ways to place the a-1 level steps, and C(a-1,
    m+a-j-2) ways to choose those of them that climb a face too, so that
    the other j-a+1 steps climb a face alone.
    """
    return math.comb(j, a - 1) * sum(
        math.comb(a - 1, m + a - j - 2) * _surjections(b, m) for m in range(max(1, j + 2 - a), min(b, j + 1) + 1)
    )


def _surjections(b, m) -> int:
    """m! S(b, m), the maps of a b-set onto an m-set, by inclusion-exclusion."""
    return sum((-1) ** i * math.comb(m, i) * (m - i) ** b for i in range(m + 1))


def _prodsimplicial_cells(space_at, live, up):
    """The prodsimplicial model of the hocolim of the inclusion diagram
    with spaces ``space_at``, whose elements with a nonempty space and
    their up-sets are ``live`` and ``up`` (``_live_upsets``): its cells
    per dimension, in the form ``complexes._reduce_down`` takes with
    ``_cell_boundary``, and the vertex -> number map.  A chain holds the
    elements by their number in ``live``.

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
    number = {p: i for i, p in enumerate(live)}
    vertex = {}
    listed = {}  # id(space) -> its nonempty simplices by vertex number
    for p in live:
        space = space_at[p]
        if id(space) not in listed:
            vertex_number = [vertex.setdefault(v, len(vertex)) for v in space._vertex_order()]
            listed[id(space)] = [
                tuple(sorted(map(vertex_number.__getitem__, s))) for d, ss in space._ranked().items() if d >= 0 for s in ss
            ]
    simplices = [listed[id(space_at[p])] for p in live]
    cells = {-1: {(): 0}}
    chains = {}
    for p, above in up.items():  # every element above p comes first
        i = number[p]
        chains[i] = [(i,)] + [(i,) + c for j in sorted(number[q] for q in above if q != p) for c in chains[j]]
        for c in chains[i]:
            for t in simplices[c[-1]]:
                index = cells.setdefault(len(c) + len(t) - 2, {})
                index[c, t] = len(index)
    return cells, vertex


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


class HocolimMap:
    """The map of hocolims induced by a diagram morphism: a poset map g and,
    at each element p, a vertex map f_p of D(p), the f_p agreeing wherever
    the spaces are included.

    A vertex (p, s) goes to (g(p), f_p(s)), and a prodsimplicial cell
    (c, t) to +-(g(c), f(t)), f the component at the top of the chain c,
    or to 0 when g repeats an element of c or f is not injective on t; the
    sign is that of sorting f(t)'s vertex numbers.  This is the cross
    product of the normalized chain maps of g on the simplex of the chain
    and of f on t (Hatcher, "Algebraic Topology", 2002, 3.B), so the
    homology map reads the cells of both ends and neither end's poset or
    facets.
    """

    def __init__(self, source: HocolimComplex, target: HocolimComplex, poset_map, components):
        self.source = source
        self.target = target
        self.poset_map = poset_map
        self.components = components

    def _chain_map(self):
        """The map on cells, in the form ``complexes.HomologyMap`` takes.

        Each end names its cells as (chain of elements, vertex labels)
        (``HocolimComplex._terms``), whichever model it has.  A source cell
        named (c, t) goes to the target cell named (g(c), f(t)), f the
        component at the top of c, with the sign of finding it, or to 0
        when the target names no such cell.
        """
        (name, _), (_, find) = self.source._terms, self.target._terms
        g, f = self.poset_map, self.components

        def image(cell):
            if not cell:  # the empty cell
                return (), 1
            chain, labels = name(cell)
            return find([g[p] for p in chain], map(f[chain[-1]], labels))

        return self.source._cells(), self.target._cells(), image


def induced_map(morphism: DiagramMorphism) -> HocolimMap:
    """The map of hocolims (p, s) -> (f(p), component(s)).  It is
    simplicial, since the morphism is order-preserving, its components are
    simplicial and its squares commute, so nothing is checked again."""
    return HocolimMap(
        hocolim(morphism.source).complex, hocolim(morphism.target).complex, morphism.poset_map, morphism.components
    )


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
