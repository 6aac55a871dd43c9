"""Independent oracles the tests check library results against.

Each oracle recomputes a quantity by a different route than the library:
ranks by direct enumeration of the stored independent family, Mobius values
by signed chain counting and by the defining recursion over every flat,
boundary matrices from the labelled simplices, matrix ranks by a
self-contained prime-field elimination, weak maps by the
injective-preimage definition, maximal chains
of a poset by enumerating its subsets, the faces of an order complex by
counting chains up the covers of its poset, covers by testing every triple,
Grothendieck posets by comparing every pair of elements, the exchange axiom
on every two sizes, lattice covers by comparing every pair of flats,
simplex orders and exports by sorting every simplex through ``label_key``,
suspended join powers as built complexes rather than by Betti arithmetic,
matroids of GF(p) matrices by ranking every set of columns, induced
representation maps as simplicial maps of order complexes, checked on
every facet, vertex maps of hocolim maps listed vertex by vertex,
equivariance on the order complex Y rather than on the diagram's spaces,
ranks of homology matrices by plain rational elimination,
free simplicial actions by testing every simplex, the arrangement of atom subcomplexes
through the built subcomplexes and every pair of closed sets, the
geometric lattice axioms with joins as least upper bounds among the flats,
and simplex membership through every face of every facet.

The reference constructions below them (joins, disjoint unions, full
subcomplexes, restricted posets and diagrams, composites of simplicial
maps, the face diagram of a complex) build through the checking constructors what the library builds
along known covers or as joins of copies.  Last come two constructions
that only tests call, kept here with their tests: the order complex of a
poset and the rank witness of a surjective weak map.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from matrep.complexes import SimplicialComplex, SimplicialMap
from matrep.diagrams import FinitePoset, InclusionDiagram, _cover_paths
from matrep.labels import label_key, sort_labels
from matrep.matroid import ZERO, MatroidError, NotSurjective, classify_map


def brute_rank(matroid, subset) -> int:
    """max |Y| over independent Y inside subset, straight off the family."""
    subset = frozenset(subset)
    return max(len(i) for i in matroid.independents if i <= subset)


def brute_closure(matroid, subset) -> frozenset:
    subset = frozenset(subset)
    r = brute_rank(matroid, subset)
    return frozenset(
        e for e in matroid.elements if brute_rank(matroid, subset | {e}) == r
    )


def mobius_by_chain_counting(lattice) -> dict:
    """mu(bottom, p) as the signed count of chains from bottom to p."""
    flats = lattice.flats
    counts = {}
    for p in flats:
        if p == lattice.bottom:
            counts[p] = 1
            continue
        total = 0
        strictly_between = [q for q in flats if lattice.bottom < q < p]
        # chains bottom < x_1 < ... < x_k = p, signed by (-1)^k
        def chains_to(top, length):
            if length == 1:
                return 1 if lattice.bottom < top else 0
            return sum(
                chains_to(q, length - 1) for q in strictly_between if q < top
            )

        for k in range(1, len(strictly_between) + 2):
            total += (-1) ** k * chains_to(p, k)
        counts[p] = total
    return counts


def mobius_by_recursion(lattice) -> dict:
    """mu(bottom, p) = -(the sum of mu(bottom, q) over every flat q < p)."""
    mu = {}
    for p in lattice.flats:  # sorted by rank, so all q < p come first
        mu[p] = 1 if p == lattice.bottom else -sum(mu[q] for q in mu if q < p)
    return mu


def gf_rank(rows, ncols, p=997) -> int:
    """Plain-python rank over GF(p); independent of the library routines."""
    mat = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def rational_rank(matrix) -> int:
    """Exact rank of a dense matrix of ints and Fractions by plain
    elimination over the rationals."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def boundary_columns(komplex, k: int):
    """The degree-k boundary matrix as sparse columns, one per k-simplex,
    from the labelled simplices; degree 0 is the augmentation."""
    by_dim = komplex.simplices_by_dim()
    row = {s: i for i, s in enumerate(by_dim.get(k - 1, []))}
    return [{row[s[:i] + s[i + 1 :]]: (-1) ** i for i in range(len(s))} for s in by_dim.get(k, [])]


def boundary_rows(komplex, k: int):
    """The degree-k boundary matrix as sparse rows, with its column count."""
    columns = boundary_columns(komplex, k)
    rows = [dict() for _ in komplex.simplices_by_dim().get(k - 1, [])]
    for j, column in enumerate(columns):
        for i, value in column.items():
            rows[i][j] = value
    return rows, len(columns)


def betti_by_gf_rank(komplex) -> dict:
    """Reduced Betti numbers via the independent GF(p) rank above."""
    by_dim = komplex.simplices_by_dim()
    ranks = {}
    for k in range(0, komplex.dim + 1):
        rows, ncols = boundary_rows(komplex, k)
        ranks[k] = gf_rank(rows, ncols)
    out = {}
    for k in range(-1, komplex.dim + 1):
        n_k = len(by_dim.get(k, ()))
        b = n_k - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if b:
            out[k] = b
    return out


def maximal_chains_by_brute_force(poset) -> set:
    """Maximal chains of a finite poset: every subset that is a chain,
    kept when no other chain strictly contains it."""
    chains = [
        frozenset(c)
        for k in range(1, len(poset.elements) + 1)
        for c in itertools.combinations(poset.elements, k)
        if all(poset.leq(a, b) or poset.leq(b, a) for a, b in itertools.combinations(c, 2))
    ]
    return {c for c in chains if not any(c < d for d in chains)}


def chain_counts(poset) -> dict:
    """Dimension j -> the chains of j + 1 elements of the poset, the faces
    of its order complex, counted without listing them: the chains whose
    least element is x are x alone and x before each chain whose least
    element lies strictly above x, found by climbing the covers."""
    upper = {x: [] for x in poset.elements}
    for a, b in poset.covers():
        upper[a].append(b)
    above, starting = {}, {}

    def strictly_above(x):
        if x not in above:
            above[x] = set(upper[x]).union(*map(strictly_above, upper[x]))
        return above[x]

    def chains_from(x):
        if x not in starting:
            counts = {0: 1}
            for y in strictly_above(x):
                for j, n in chains_from(y).items():
                    counts[j + 1] = counts.get(j + 1, 0) + n
            starting[x] = counts
        return starting[x]

    total = {}
    for x in poset.elements:
        for j, n in chains_from(x).items():
            total[j] = total.get(j, 0) + n
    return dict(sorted(total.items()))


def covers_by_definition(poset) -> set:
    """Pairs a < b with no c strictly between, tested on every triple."""
    elements = poset.elements

    def lt(a, b):
        return a != b and poset.leq(a, b)

    return {
        (a, b)
        for a in elements
        for b in elements
        if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in elements)
    }


def grothendieck_poset_by_definition(diagram):
    """Pairs (p, nonempty simplex s of D(p)), with (p, s) <= (q, t) exactly
    when p <= q and s is a face of t, tested on every pair of pairs."""
    elements = [
        (p, s) for p in diagram.poset.elements for s in nonempty_simplices(diagram.space(p))
    ]
    return FinitePoset.from_leq(
        elements, lambda a, b: diagram.poset.leq(a[0], b[0]) and a[1] <= b[1]
    )


def weak_by_definition(setmap) -> bool:
    """The injectivity/independence definition of a weak map."""
    src, tgt = setmap.source, setmap.target
    for k in range(len(src.elements) + 1):
        for combo in itertools.combinations(src.elements, k):
            images = [setmap(e) for e in combo]
            if ZERO in images or len(set(images)) < len(images):
                continue
            if frozenset(images) in tgt.independents and frozenset(combo) not in src.independents:
                return False
    return True


def all_set_maps(source, target):
    """Every map of ground sets extended by o (o fixed)."""
    from matrep.matroid import SetMap

    values = list(target.elements) + [ZERO]
    for assignment in itertools.product(values, repeat=len(source.elements)):
        yield SetMap(source, target, dict(zip(source.elements, assignment)))


def sorted_flats(flats):
    return sorted(flats, key=label_key)


def exchange_failures_by_definition(family) -> set:
    """Pairs (x, y) with |x| < |y| and no e in y - x keeping x + e in the
    family, tested on every two sets of every two sizes."""
    return {
        (x, y)
        for x in family
        for y in family
        if len(x) < len(y) and not any(x | {e} in family for e in y - x)
    }


def lattice_covers_by_definition(lattice) -> list:
    """Pairs p < q of flats one rank apart, comparing every pair of flats."""
    return [
        (p, q)
        for p in lattice.flats
        for q in lattice.flats
        if lattice.rank_of[q] == lattice.rank_of[p] + 1 and p < q
    ]


def simplices_by_definition(komplex) -> dict:
    """Every face of every facet, grouped by dimension, each simplex and
    each dimension sorted through ``label_key``."""
    seen = set()
    for f in komplex.facets:
        verts = sort_labels(f)
        for k in range(len(f) + 1):
            seen.update(itertools.combinations(verts, k))
    by_dim = {-1: [()]}
    for s in seen:
        if s:
            by_dim.setdefault(len(s) - 1, []).append(s)
    for ss in by_dim.values():
        ss.sort(key=lambda s: tuple(label_key(v) for v in s))
    return by_dim


def format_label_by_definition(x) -> str:
    """A label's string, formatting the elements of a frozenset in
    ``label_key`` order."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return "(" + ",".join(format_label_by_definition(e) for e in x) + ")"
    return "{" + ",".join(format_label_by_definition(e) for e in sort_labels(x)) + "}"


def to_doc_by_definition(komplex) -> dict:
    """The export: sorted formatted vertices and sorted formatted facets."""
    fmt = format_label_by_definition
    return {
        "vertices": [fmt(v) for v in sort_labels(komplex.vertices)],
        "facets": sorted(sorted(fmt(v) for v in f) for f in komplex.facets),
    }


def layer_by_construction(x, e, k):
    """The k-fold suspension of the e-fold join power of x, built: the
    join of e copies of x with k copies of S^0."""
    from matrep.complexes import copies_complex, sphere

    return join(copies_complex(x, range(e)), copies_complex(sphere(0), range(k)))


def matroid_of_columns(columns, p=2):
    """The column matroid of a matrix over GF(p), columns given as tuples;
    a set of columns is independent when its rank is its size."""
    from matrep.matroid import Matroid

    elements = list(range(1, len(columns) + 1))
    independents = [
        frozenset(combo)
        for r in range(len(columns) + 1)
        for combo in itertools.combinations(elements, r)
        if gf_rank([dict(enumerate(columns[e - 1])) for e in combo], len(columns[0]), p) == r
    ]
    return Matroid(elements, independents)


def induced_map_by_morphism(tau, im_m, im_n, x, y, f_x):
    """The map T_x(M) -> T_y(N) induced by a weak map, on the order
    complexes: the morphism of the diagrams of both sides restricted to the
    flats other than the bottom, with the flat map of tau (rerouted when it
    annihilates an atom) on the posets and f_x applied copywise as one
    checked simplicial map per flat, and then the vertex map
    (p, s) -> (g(p), f_p(s)) of its hocolims as a ``SimplicialMap``, checked
    on every facet of T.  Its homology map reduces simplices."""
    from matrep.diagrams import DiagramMorphism, hocolim
    from matrep.engstrom import (
        NotAdmissible,
        build_diagram,
        is_admissible,
        reroute_annihilating,
    )
    from matrep.matroid import classify_map, induced_flat_map

    l, lp = im_m.immersion, im_n.immersion
    if l.rho != lp.rho or not is_admissible(tau, l, lp):
        raise NotAdmissible("the weak map does not respect the immersions")
    if classify_map(tau).is_non_annihilating:
        g = induced_flat_map(tau)
    else:
        g = reroute_annihilating(tau)
    lat_m, lat_n = im_m.matroid.lattice(), im_n.matroid.lattice()
    if any(not l(p) <= lp(g(p)) for p in lat_m.flats if p != lat_m.bottom):
        raise NotAdmissible("the rerouted image violates the immersions")
    d_m = restrict_diagram(build_diagram(im_m, x), [p for p in lat_m.flats if p != lat_m.bottom])
    d_n = restrict_diagram(build_diagram(im_n, y), [p for p in lat_n.flats if p != lat_n.bottom])
    components = {}
    for p in d_m.poset.elements:
        space = d_m.space(p)
        vertex_map = {(i, v): (i, f_x(v)) for i, v in space.vertices}
        components[p] = SimplicialMap(space, d_n.space(g(p)), vertex_map)
    poset_map = {p: g(p) for p in d_m.poset.elements}
    DiagramMorphism(d_m, d_n, poset_map, components)
    source, target = hocolim(d_m).complex, hocolim(d_n).complex
    vertex_map = {(p, s): (poset_map[p], frozenset(map(components[p], s))) for p, s in source.vertices}
    return SimplicialMap(source, target, vertex_map)


def hocolim_vertex_map(hmap) -> dict:
    """The vertex map (p, s) -> (g(p), f_p(s)) of a ``HocolimMap``, listed
    on every vertex of its source, which builds the source's poset."""
    g, f = hmap.poset_map, hmap.components
    return {(p, s): (g[p], frozenset(map(f[p], s))) for p, s in hmap.source.vertices}


def check_equivariance_on_y(action, tau, im_m, im_n, x) -> bool:
    """``check_equivariance`` on the order complexes: the copywise lift of
    each non-identity element to Y of each side, listed on Y's vertices and
    checked simplicial and free on Y's facets, and the induced map checked
    to commute with the lifts on every vertex of T."""
    from matrep.engstrom import _check_simplicial_and_free, _representation_map, build_representation

    if action.complex != x:
        raise ValueError("action must act on the template complex")
    reps = [build_representation(im, x) for im in (im_m, im_n)]
    rmap = _representation_map(tau, im_m.immersion, im_n.immersion, reps[0].T, reps[1].T, SimplicialMap.identity(x))
    vertex_map = hocolim_vertex_map(rmap)
    for perm in action.nonidentity_elements():
        lifts = []
        for rep in reps:
            lift = {(p, s): (p, frozenset((i, perm[v]) for i, v in s)) for p, s in rep.Y.vertices}
            _check_simplicial_and_free(rep.Y, lift)
            lifts.append(lift)
        lift_m, lift_n = lifts
        if any(vertex_map[lift_m[v]] != lift_n[vertex_map[v]] for v in rmap.source.vertices):
            return False
    return True


def check_simplicial_and_free_by_simplices(komplex, perm):
    """Raise NotSimplicial if the vertex map ``perm`` sends a simplex of the
    complex outside it, and otherwise NotFree if it fixes one setwise,
    testing every nonempty simplex."""
    from matrep.complexes import NotSimplicial
    from matrep.engstrom import NotFree

    simplices = [s for k, ss in komplex.simplices_by_dim().items() if k >= 0 for s in ss]
    images = [frozenset(map(perm.__getitem__, s)) for s in simplices]
    universe = nonempty_simplices(komplex)
    for s, image in zip(simplices, images):
        if image not in universe:
            raise NotSimplicial(f"permutation breaks simplex {list(s)}")
    for s, image in zip(simplices, images):
        if image == frozenset(s):
            raise NotFree(f"permutation fixes simplex {list(s)} setwise")


def closed_atom_sets_by_subcomplexes(rep) -> set:
    """The closed sets of atoms, read off the vertex sets of the built atom
    subcomplexes: each intersection of atom subcomplexes is closed up to
    every atom subcomplex containing it, with the empty set always closed."""
    atoms = sort_labels(rep.atom_subcomplexes)
    vertex_sets = {a: rep.atom_subcomplexes[a].vertices for a in atoms}
    closed = {frozenset()}
    for k in range(1, len(atoms) + 1):
        for combo in itertools.combinations(atoms, k):
            meet = rep.T.vertices
            for a in combo:
                meet = meet & vertex_sets[a]
            closed.add(frozenset(b for b in atoms if meet <= vertex_sets[b]))
    return closed


def arrangement_matches_lattice_by_definition(rep) -> bool:
    """Whether the closed sets of atoms, ordered by containment, are
    isomorphic to the lattice of flats under atom set -> join of its atoms
    (bottom for the empty set): that map must be a bijection onto the
    flats, its inverse must be atoms-below, and it must preserve and
    reflect the order on every pair of closed sets."""
    lat = rep.lattice
    closed = closed_atom_sets_by_subcomplexes(rep)
    forward = {s: lat.join_all(s) if s else lat.bottom for s in closed}
    if sorted_flats(forward.values()) != sorted_flats(lat.flats):
        return False
    if {frozenset(lat.atoms_below(f)) for f in lat.flats} != closed:
        return False
    return all((s <= t) == (forward[s] <= forward[t]) for s in closed for t in closed)


def geometric_lattice_violations(lattice) -> list:
    """Where the flats fail to form a geometric lattice, with joins taken as
    least upper bounds in the flat family, not as closures: a pair whose
    intersection is no flat, a pair breaking semimodularity, or a flat that
    is not the join of the atoms below it."""
    flats = set(lattice.flats)
    rank = lattice.rank_of

    def join(subsets):
        union = frozenset().union(*subsets)
        return min((f for f in flats if union <= f), key=len)

    out = []
    for p, q in itertools.combinations(lattice.flats, 2):
        if p & q not in flats:
            out.append(("intersection", p, q))
        elif rank[p] + rank[q] < rank[p & q] + rank[join([p, q])]:
            out.append(("semimodular", p, q))
    for f in lattice.flats:
        if join([a for a in lattice.atoms if a <= f]) != f:
            out.append(("atomistic", f))
    return out


def nonempty_simplices(komplex) -> set:
    """Every nonempty face of every facet, as a frozenset."""
    return {
        frozenset(face)
        for f in komplex.facets
        for k in range(1, len(f) + 1)
        for face in itertools.combinations(f, k)
    }


def relabel_disjoint(a, b):
    """Both complexes, each vertex v renamed (0, v) in a and (1, v) in b
    when they share a vertex, as they are otherwise."""
    if not a.vertices & b.vertices:
        return a, b
    return tuple(
        SimplicialComplex(frozenset((i, v) for v in f) for f in c.facets) for i, c in enumerate((a, b))
    )


def join(a, b):
    """Simplicial join; the empty complex is the unit and is returned unchanged."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    a2, b2 = relabel_disjoint(a, b)
    return SimplicialComplex(fa | fb for fa in a2.facets for fb in b2.facets)


def disjoint_union(a, b):
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    a2, b2 = relabel_disjoint(a, b)
    return SimplicialComplex(set(a2.facets) | set(b2.facets))


def full_subcomplex(komplex, keep_vertices):
    """Subcomplex on the simplices entirely inside ``keep_vertices``."""
    keep = frozenset(keep_vertices)
    return SimplicialComplex(f & keep for f in komplex.facets)


def restrict_poset(poset, subset):
    """The induced subposet on ``subset``, closed from every pair."""
    keep = set(subset)
    return FinitePoset(keep, ((a, b) for a in keep for b in keep if poset.leq(a, b)))


def restrict_diagram(diagram, subset):
    """The diagram over the induced subposet on ``subset``."""
    keep = set(subset)
    return InclusionDiagram(restrict_poset(diagram.poset, keep), {p: diagram.space(p) for p in keep})


def compose(f, g):
    """The simplicial map first f, then g."""
    assert f.target.is_subcomplex_of(g.source), "maps not composable"
    return SimplicialMap(f.source, g.target, {v: g(f(v)) for v in f.source.vertices})


def two_triangle_complex():
    """Two triangles glued along an edge; contractible."""
    return SimplicialComplex([(1, 2, 3), (1, 3, 4)])


def face_diagram(komplex):
    """The diagram over the face poset (reverse inclusion) whose colimit
    glues the closed simplices back into the complex."""
    faces = sorted(nonempty_simplices(komplex), key=lambda s: (len(s), sorted(s)))
    poset = FinitePoset.from_leq(faces, lambda a, b: b <= a)
    return InclusionDiagram(poset, {f: SimplicialComplex([f]) for f in faces})


def order_complex(poset: FinitePoset) -> SimplicialComplex:
    """The complex of chains of the poset.

    Its facets are the maximal chains, the cover paths (``_cover_paths``),
    so no chain is tested for maximality.  The complex takes them as they
    are, and the poset's sorted elements as its vertex order.
    """
    elements = poset.elements
    number = {x: i for i, x in enumerate(elements)}
    covers = [(number[a], number[b]) for a, b in poset.covers()]
    facets = [frozenset(map(elements.__getitem__, path)) for path in _cover_paths(len(elements), covers)]
    return SimplicialComplex._known(facets, elements)


def surjection_rank_witness(f, flat) -> frozenset:
    """A source flat over ``flat`` with equal rank, for surjective weak maps.

    Greedily picks the lexicographically smallest maximal independent subset
    of the target flat and closes its (lexicographically smallest) preimage.
    A weak map raises no rank, so that preimage is independent, its closure
    has the flat's rank, and the closure's image closes to the flat.
    """
    cls = classify_map(f)
    if not cls.is_weak:
        raise MatroidError("rank witnesses exist for weak maps")
    if not cls.is_surjective:
        raise NotSurjective("rank witnesses exist for surjective maps")
    tgt = f.target
    flat = frozenset(flat)
    if tgt.closure(flat) != flat:
        raise MatroidError(f"{sort_labels(flat)} is not a flat of the target")
    basis = []
    for y in sort_labels(flat):
        if frozenset(basis) | {y} in tgt.independents:
            basis.append(y)
    lifted = []
    for y in basis:
        pre = sort_labels(e for e in f.source.elements if f(e) == y)
        lifted.append(pre[0])
    return f.source.closure(lifted)
