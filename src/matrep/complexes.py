"""Finite abstract simplicial complexes with exact rational homology.

A complex is immutable and determined by its facets.  The empty complex
(no vertices) is valid and distinct from the one-point complex; every
complex contains the empty simplex, which makes the reduced-homology and
``S^{-1}`` join conventions uniform: the empty complex has a single reduced
Betti number 1 in degree -1 and is the unit for joins.

Vertex labels are ints, strings, tuples or frozensets.  A complex sorts its
vertices by ``label_key`` once, on first use, and stores one table of
simplices per dimension, each a rank tuple mapped to its index in sorted
order; rank order is ``label_key`` order because the key is injective.
Boundary matrices, face counts, simplex lookups and homology maps work on
that table, and labels are put back only for callers that ask for them
(``simplices_by_dim``).  A hocolim counts its faces, and reads its
dimension off them, from its diagram instead, and lists no simplex; its
vertices and facets are labelled from its numbered Grothendieck poset,
and no poset of labels is built for it (``diagrams``).  Constructions
that know their facets are maximal and their vertices sorted (joins of
copies of a complex) hand both to a private constructor that keeps them
as given, so they filter no facet list and key no vertex.

A chain model (``ChainModel``) is one value: cells per degree, their
boundary, and a top-down column reduction with clearing made at most once
untracked, for Betti numbers, and at most once tracked, for canonical
homology bases.  Every complex keeps its simplices as one model
(``_simplicial``).  Its Betti numbers are read on ``_cells()``: a plain
complex's simplices, and for a hocolim (T, its up-set complexes, Y) its
prodsimplicial cell model from ``diagrams``, with far fewer cells than it
has simplices, or, over a diagram with a least element, that element's
space's own simplicial model, which every complex read on that space
shares, reductions included.  ``HomologyMap`` reads the tracked reduction
of the models its map names: the simplices for a ``SimplicialMap``, each
end's ``_cells()`` for a map of hocolims.
"""

from __future__ import annotations

import functools
import itertools
import types

from .labels import format_label, sort_labels
from . import linalg

# At the cap a complex's simplex table holds about two million simplices:
# U4,5 x S1's exported T, 1,001,220 simplices, is read back and its Betti
# numbers computed by `matrep betti` in about 16 s at a 525 MB peak on one
# core of an Intel Xeon server
MAX_SIMPLICES = 2**21


class NotSimplicial(ValueError):
    """A vertex map sends some simplex outside the target complex."""


class SimplicialComplex:
    # computed on first use and kept on the object
    _vertices = None
    _order = None
    _simplices = None

    def __init__(self, facets=()):
        self._facets = _maximal_faces(facets)

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls._known((), ())

    @classmethod
    def _known(cls, facets, order) -> "SimplicialComplex":
        """The complex whose facets are exactly ``facets`` and whose vertex
        order is ``order``, with nothing checked or filtered.

        ``facets`` must be distinct, nonempty, pairwise incomparable
        frozensets, and ``order`` must hold their vertices sorted by
        ``label_key``, as a construction that knows both hands them over.
        """
        komplex = cls.__new__(cls)
        komplex._facets = frozenset(facets)
        komplex._order = tuple(order)
        komplex._vertices = frozenset(komplex._order)
        return komplex

    @property
    def facets(self) -> frozenset:
        return self._facets

    @property
    def vertices(self) -> frozenset:
        if self._vertices is None:
            self._vertices = frozenset().union(*self._facets)
        return self._vertices

    def _vertex_order(self) -> tuple:
        """The vertices sorted by ``label_key``, sorted once per complex."""
        if self._order is None:
            self._order = tuple(sort_labels(self.vertices))
        return self._order

    @property
    def dim(self) -> int:
        return max((len(f) for f in self._facets), default=0) - 1

    @property
    def is_empty(self) -> bool:
        return not self._facets

    @functools.cached_property
    def _rank_of(self) -> dict:
        """Vertex -> its index in ``_vertex_order()``."""
        return {v: i for i, v in enumerate(self._vertex_order())}

    def _ranked(self) -> dict:
        """Dimension -> {simplex: index}, each simplex a tuple of vertex
        ranks and the tuples in sorted order, indexed from 0; the complex's
        one stored simplex table.  Dimension -1 holds ``()``.

        Rank order is ``label_key`` order, so these tuples sort as the
        ``label_key`` tuples of their vertices would.
        """
        if self._simplices is None:
            rank = self._rank_of
            seen = set()
            for f in self._facets:
                if 2 ** len(f) - 1 > MAX_SIMPLICES:
                    raise ValueError(
                        f"a facet of {len(f)} vertices has {_power_less_one(2, len(f))} faces, over the budget {MAX_SIMPLICES}"
                    )
                ranks = sorted(map(rank.__getitem__, f))
                for k in range(1, len(f) + 1):
                    seen.update(itertools.combinations(ranks, k))
                if len(seen) > MAX_SIMPLICES:
                    raise ValueError(f"the complex has at least {len(seen)} simplices, over the budget {MAX_SIMPLICES}")
            by_dim: dict[int, dict] = {-1: {(): 0}}
            for s in sorted(seen):
                index = by_dim.setdefault(len(s) - 1, {})
                index[s] = len(index)
            self._simplices = by_dim
        return self._simplices

    @functools.cached_property
    def _simplicial(self) -> "ChainModel":
        """The simplices of ``_ranked()`` as one chain model."""
        return ChainModel(self._ranked(), _simplex_boundary)

    def _cells(self) -> "ChainModel":
        """The chain model its Betti numbers are read on: its simplices,
        which hocolims replace with a smaller model (``diagrams``)."""
        return self._simplicial

    def simplices_by_dim(self) -> dict:
        """Sorted simplices per dimension, as tuples of vertex labels;
        dimension -1 holds the empty simplex."""
        order = self._vertex_order()
        return {k: [tuple(map(order.__getitem__, s)) for s in ss] for k, ss in self._ranked().items()}

    def has_simplex(self, s) -> bool:
        """Whether the vertices ``s`` span a nonempty simplex, looked up in
        the table of ``_ranked()``."""
        try:
            ranks = tuple(sorted(map(self._rank_of.__getitem__, s)))
        except KeyError:  # s holds a label that is no vertex of the complex
            return False
        return bool(ranks) and ranks in self._ranked().get(len(ranks) - 1, ())

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return all(other.has_simplex(f) for f in self._facets)

    def face_counts(self) -> dict:
        return {k: len(ss) for k, ss in self._ranked().items() if k >= 0}

    def to_doc(self) -> dict:
        name = {v: format_label(v) for v in self._vertex_order()}
        facets = sorted(sorted(name[v] for v in f) for f in self._facets)
        return {"vertices": list(name.values()), "facets": facets}

    @classmethod
    def from_doc(cls, doc: dict) -> "SimplicialComplex":
        komplex = cls(frozenset(f) for f in doc["facets"])
        extra = set(doc.get("vertices", ())) - set(komplex.vertices)
        if extra:
            raise ValueError(f"vertices missing from facets: {sorted(extra)}")
        return komplex

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self._facets)} facets)"


def _maximal_faces(faces) -> frozenset:
    """The inclusion-maximal nonempty faces among ``faces``.

    Two distinct faces of one size never contain each other, so the faces
    are taken by size, largest first, and each is tested only against the
    larger faces kept that hold its vertex in the fewest of them; a size's
    faces join that index once all of them are tested.
    """
    cleaned = {frozenset(f) for f in faces} - {frozenset()}
    maximal = []
    containing = {}  # vertex -> the faces kept so far that hold it
    no_faces = itertools.repeat(())
    for _, group in itertools.groupby(sorted(cleaned, key=len, reverse=True), key=len):
        kept = list(group)
        if containing:  # else these are the largest faces, all maximal
            kept = [f for f in kept if not any(map(f.issubset, min(map(containing.get, f, no_faces), key=len)))]
        for f in kept:
            for v in f:
                containing.setdefault(v, []).append(f)
        maximal.extend(kept)
    return frozenset(maximal)


def sphere(d: int) -> SimplicialComplex:
    """S^d as the boundary of the (d+1)-simplex; d = -1 is the empty complex."""
    if d < -1:
        raise ValueError("sphere dimension must be >= -1")
    if d == -1:
        return SimplicialComplex.empty()
    verts = range(d + 2)
    return SimplicialComplex(itertools.combinations(verts, d + 1))


def copies_complex(x: SimplicialComplex, indices) -> SimplicialComplex:
    """Join of disjoint copies of x, one per index, vertices (index, v).

    No indices yields the empty complex, the join unit.  A join with more
    than ``MAX_SIMPLICES`` nonempty simplices is refused before any facet
    is listed: each simplex picks a face of each copy, the empty one
    included.
    """
    idx = sorted(set(indices))
    if not idx or x.is_empty:
        return SimplicialComplex.empty()
    refuse_oversized_join(x, len(idx))
    facets = []
    for choice in itertools.product(x.facets, repeat=len(idx)):
        facets.append(frozenset((i, v) for i, f in zip(idx, choice) for v in f))
    # joins of facets of disjoint copies are maximal and distinct
    return SimplicialComplex._known(facets, [(i, v) for i in idx for v in x._vertex_order()])


def refuse_oversized_join(x: SimplicialComplex, copies: int) -> None:
    """Refuse a join of ``copies`` copies of x with more than
    ``MAX_SIMPLICES`` nonempty simplices, counted and not listed: each
    simplex picks a face of each copy, the empty one included."""
    faces = sum(map(len, x._ranked().values()))
    # past the budget's bit length a nonempty x, with two faces or more,
    # is over it, so the power is never computed in full
    if faces ** min(copies, MAX_SIMPLICES.bit_length() + 1) - 1 > MAX_SIMPLICES:
        raise ValueError(
            f"a join of {copies} copies has {_power_less_one(faces, copies)} simplices, over the budget {MAX_SIMPLICES}"
        )


def _power_less_one(base: int, n: int) -> str:
    """base^n - 1 in full, or as the power when it has thousands of digits,
    which would take long to compute and which ``str`` refuses to print."""
    return f"{base}^{n} - 1" if n * base.bit_length() > 12_000 else str(base**n - 1)


class BettiVector:
    """Reduced Betti numbers as a sparse degree -> rank mapping.

    Equality ignores zero entries, so vectors of different lengths compare
    mathematically.  Degree -1 appears exactly for the empty complex.
    """

    def __init__(self, counts=None):
        self._counts = {int(k): int(v) for k, v in dict(counts or {}).items() if v}

    def __getitem__(self, k: int) -> int:
        return self._counts.get(k, 0)

    def degrees(self):
        return sorted(self._counts)

    def items(self):
        return sorted(self._counts.items())

    def __add__(self, other: "BettiVector") -> "BettiVector":
        counts = dict(self._counts)
        for k, v in other._counts.items():
            counts[k] = counts.get(k, 0) + v
        return BettiVector(counts)

    def scale(self, n: int) -> "BettiVector":
        return BettiVector({k: n * v for k, v in self._counts.items()})

    def join_with(self, other: "BettiVector") -> "BettiVector":
        """Betti vector of a join: b_k = sum over i+j = k-1 of b_i * b_j."""
        counts: dict[int, int] = {}
        for i, vi in self._counts.items():
            for j, vj in other._counts.items():
                k = i + j + 1
                counts[k] = counts.get(k, 0) + vi * vj
        return BettiVector(counts)

    def dominates(self, other: "BettiVector") -> bool:
        degs = set(self._counts) | set(other._counts)
        return all(self[k] >= other[k] for k in degs)

    def to_doc(self) -> dict:
        return {str(k): v for k, v in self.items()}

    def __eq__(self, other):
        return isinstance(other, BettiVector) and self._counts == other._counts

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in self.items())
        return "BettiVector({" + inner + "})"


def _simplex_boundary(s, row) -> dict:
    """The boundary of a simplex of rank tuples as a sparse column over the
    indices ``row`` of the simplices one dimension down; a vertex's
    boundary is the empty simplex."""
    return {row[s[:i] + s[i + 1 :]]: -1 if i % 2 else 1 for i in range(len(s))}


# The tracked part of every column reduced for its rank only, and of every
# boundary pivot in a reduction table; elimination only reads a pivot's
# parts, so one read-only mapping serves them all.
_UNTRACKED = types.MappingProxyType({})


def _reduce_down(cells: dict, boundary, track: bool) -> dict:
    """Degree -> (pivots, cycles) of the augmented chain complex whose
    k-cells are the keys of ``cells[k]``, each mapped to its index from 0
    in insertion order, degree -1 holding the one empty cell, and in which
    ``boundary(c, row)`` is the boundary of a k-cell c as a sparse column
    over the indices ``row``, that is ``cells[k - 1]``, of the (k-1)-cells.

    The boundary matrices are reduced from the top degree down with
    clearing (Chen-Kerber, "Persistent homology computation with a twist",
    2011): a k-cell that is the pivot of a reduced (k+1)-column has a
    column that reduces to zero, so that column is never built.
    ``pivots`` holds the reduced (k+1)-columns by pivot, and ``cycles``
    maps the index of each k-cell whose column reduces to zero and is not
    cleared to its tracked column: with ``track``, a cycle with entry 1 at
    that index, and otherwise nothing.  Either way ``len(cycles)`` is the
    k-th reduced Betti number.
    """
    data, above = {}, {}
    for k in range(max(cells), -2, -1):
        row = cells.get(k - 1, {})
        kept = [(c, j) for c, j in cells.get(k, {}).items() if j not in above]
        pairs = ((boundary(c, row), {j: 1} if track else _UNTRACKED) for c, j in kept)
        pivots, found = linalg.reduce_columns(pairs)
        data[k] = (above, {kept[i][1]: z for i, z in found.items()})
        above = pivots
    return data


class ChainModel:
    """A chain complex in the form ``_reduce_down`` takes, its ``cells``
    and their ``boundary``, reduced at most once without tracking, for
    its Betti numbers, and at most once with, for homology maps."""

    def __init__(self, cells: dict, boundary):
        self.cells = cells
        self.boundary = boundary

    @functools.cached_property
    def betti(self) -> BettiVector:
        """Exact reduced Betti numbers over the rationals; only ranks are
        kept, so there is no homology basis."""
        return _betti(_reduce_down(self.cells, self.boundary, False))

    @functools.cached_property
    def _tracked(self) -> dict:
        """Degree -> (pivots, cycles) of the model reduced with tracking.

        The k-cells whose columns reduce to zero and are not cleared index
        the homology basis, and ``cycles`` maps each to its tracked column,
        a representative cycle with entry 1 at that index.  Following the
        given cell order makes the basis canonical: equal models get equal
        representatives.

        ``pivots`` holds the reduced (k+1)-columns and the representatives
        by pivot, the latter tracked as themselves, so reducing a k-cycle
        against it leaves minus its coordinates in the homology basis.
        """
        data = {}
        for k, (above, cycles) in _reduce_down(self.cells, self.boundary, True).items():
            table = {row: (column, _UNTRACKED) for row, (column, _) in above.items()}
            table.update((j, (z, {j: 1})) for j, z in cycles.items())
            data[k] = (table, cycles)
        return data


def _betti(reduction: dict) -> BettiVector:
    return BettiVector({k: len(cycles) for k, (_, cycles) in reduction.items()})


def reduced_betti(komplex: SimplicialComplex) -> BettiVector:
    """Exact reduced Betti numbers over the rationals of the complex's
    chain model (``_cells``), reduced once per model."""
    return komplex._cells().betti


class SimplicialMap:
    """A vertex map whose images of simplices are simplices of the target."""

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex, vertex_map):
        vm = dict(vertex_map)
        missing = source.vertices - set(vm)
        if missing:
            raise ValueError(f"vertex map not total, missing {sort_labels(missing)[:3]}")
        stray = {vm[v] for v in source.vertices} - target.vertices
        if stray:
            raise NotSimplicial(f"images outside target: {sort_labels(stray)[:3]}")
        for f in source.facets:
            image = frozenset(vm[v] for v in f)
            if not target.has_simplex(image):
                raise NotSimplicial(f"facet {sort_labels(f)} maps to a non-simplex")
        self.source = source
        self.target = target
        self.vertex_map = {v: vm[v] for v in source.vertices}

    @classmethod
    def identity(cls, komplex: SimplicialComplex) -> "SimplicialMap":
        return cls(komplex, komplex, {v: v for v in komplex.vertices})

    def __call__(self, v):
        return self.vertex_map[v]

    def is_inclusion(self) -> bool:
        return all(self.vertex_map[v] == v for v in self.vertex_map)

    def _chain_map(self):
        """The map on simplices, in the form ``HomologyMap`` takes: the
        simplicial model of each end, and the image of a source simplex as
        (target simplex, sign), or None when it is degenerate."""
        rank = self.target._rank_of
        image_rank = [rank[self.vertex_map[v]] for v in self.source._vertex_order()]

        def image(s):
            return _sorted_with_sign([image_rank[r] for r in s])

        return self.source._simplicial, self.target._simplicial, image


def _sorted_with_sign(images):
    """(sorted images, sign of the sorting permutation), or None when two
    images coincide: the normalized chain map of a vertex map on one
    simplex."""
    if len(set(images)) < len(images):
        return None
    inversions = sum(a > b for a, b in itertools.combinations(images, 2))
    return tuple(sorted(images)), -1 if inversions % 2 else 1


def _rank(matrix) -> int:
    ncols = len(matrix[0]) if matrix else 0
    pairs = (({r: row[c] for r, row in enumerate(matrix) if row[c]}, {}) for c in range(ncols))
    return len(linalg.reduce_columns(pairs)[0])


class HomologyMap:
    """Induced maps on reduced rational homology, one matrix per degree.

    The chain model of each end is reduced with tracking: simplices for a
    ``SimplicialMap``, each end's cells for a map of hocolims
    (``diagrams.HocolimMap``); the map says which through ``_chain_map``.
    Entries are the kernel's exact values: ints, or ``Fraction``s where a
    pivot is not +-1.  Bases are canonical per model, so matrices of
    different maps between the same complexes can be compared and
    multiplied entrywise; bases of different models of one complex differ.
    Column j of a matrix holds the coordinates of the image of the j-th
    source representative, found by reducing it against the target's
    pivots.
    """

    def __init__(self, f):
        self.map = f
        source, target, image = f._chain_map()
        image = functools.cache(image)  # representatives share cells
        src, tgt = source._tracked, target._tracked
        self.source_betti = _betti(src)
        self.target_betti = _betti(tgt)
        self.matrices = {}
        for k in range(-1, max(max(src), max(tgt)) + 1):
            src_reps = src.get(k, ({}, {}))[1]
            pivots, tgt_reps = tgt.get(k, ({}, {}))
            cells = list(source.cells[k]) if src_reps else ()
            row = target.cells.get(k, {})
            cols = []
            for j in sorted(src_reps):
                column = {}
                for index, c in src_reps[j].items():
                    hit = image(cells[index])
                    if hit is not None:
                        t = row[hit[0]]
                        column[t] = column.get(t, 0) + hit[1] * c
                column = {t: v for t, v in column.items() if v}
                _, cycles = linalg.reduce_columns([(column, {})], pivots)
                assert 0 in cycles, "image of a cycle is not a cycle"
                cols.append(cycles[0])
            self.matrices[k] = [[-col.get(r, 0) for col in cols] for r in sorted(tgt_reps)]

    def matrix(self, k: int):
        return self.matrices.get(k, [])

    def is_surjective(self) -> bool:
        return all(_rank(m) == len(m) for m in self.matrices.values())


def homology_map(f) -> HomologyMap:
    return HomologyMap(f)


def compose_matrices(outer: HomologyMap, inner: HomologyMap) -> dict:
    """Degreewise product H(outer) * H(inner) of composable homology maps."""
    out = {}
    for k in set(outer.matrices) | set(inner.matrices):
        a = outer.matrices.get(k, [])
        b = inner.matrices.get(k, [])
        cols = inner.source_betti[k]
        # an empty middle homology group gives zero sums: the composite is zero
        out[k] = [
            [sum(row[j] * b[j][c] for j in range(len(b))) for c in range(cols)]
            for row in a
        ]
    return out
