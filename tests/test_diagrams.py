import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matrep import diagrams
from matrep.catalog import contrast_diagrams
from matrep.complexes import (
    BettiVector,
    SimplicialComplex,
    SimplicialMap,
    compose_matrices,
    copies_complex,
    homology_map,
    reduced_betti,
    sphere,
)
from matrep.diagrams import (
    DiagramError,
    DiagramMorphism,
    FinitePoset,
    InclusionDiagram,
    NaturalityFailure,
    NotInclusionDiagram,
    colim,
    hocolim,
    homotopic_pair_check,
    induced_map,
)
from matrep.labels import sort_labels

from oracles import (
    chain_counts,
    compose,
    covers_by_definition,
    face_diagram,
    full_subcomplex,
    grothendieck_poset_by_definition,
    hocolim_vertex_map,
    maximal_chains_by_brute_force,
    order_complex,
    restrict_diagram,
    restrict_poset,
    simplices_by_definition,
    to_doc_by_definition,
    two_triangle_complex,
)


def bv(counts):
    return BettiVector(counts)


def chain_poset(n):
    return FinitePoset(range(n), [(i, i + 1) for i in range(n - 1)])


def test_poset_axioms():
    p = chain_poset(3)
    assert p.leq(0, 2) and not p.leq(2, 0)
    with pytest.raises(ValueError):
        FinitePoset([1, 2], [(1, 2), (2, 1)])


def test_poset_queries():
    p = FinitePoset(["p", "q", "q2"], [("q", "p"), ("q2", "p")])
    assert {x for x in p.elements if p.leq("q", x)} == {"q", "p"}
    below = {x: {y for y in p.elements if y != x and p.leq(y, x)} for x in p.elements}
    assert {x for x in p.elements if not below[x]} == {"q", "q2"}
    assert {x for x in p.elements if all(x not in below[y] for y in p.elements)} == {"p"}
    assert sorted(p.covers()) == [("q", "p"), ("q2", "p")]
    assert p.covers() is p.covers()
    restricted = restrict_poset(p, {"q", "q2"})
    assert not restricted.leq("q", "q2")


def test_order_complex_shapes():
    solid = order_complex(chain_poset(3))
    assert solid.facets == frozenset({frozenset({0, 1, 2})})
    antichain = FinitePoset(range(4), [])
    points = order_complex(antichain)
    assert points.dim == 0 and len(points.vertices) == 4
    wedge = order_complex(FinitePoset(["p", "q", "q2"], [("q", "p"), ("q2", "p")]))
    assert wedge.facets == frozenset({frozenset({"p", "q"}), frozenset({"p", "q2"})})
    assert order_complex(FinitePoset([], [])).is_empty


@st.composite
def random_posets(draw, max_size=7):
    """Up to ``max_size`` elements; each relation i < j (i < j as integers)
    kept at random, then closed transitively by FinitePoset."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FinitePoset(range(n), [pair for pair, keep in zip(pairs, kept) if keep])


@settings(max_examples=80, deadline=None)
@given(poset=random_posets())
@example(poset=FinitePoset([], []))
@example(poset=FinitePoset(range(5), []))
@example(poset=FinitePoset(range(6), [(0, 3), (1, 3), (1, 4), (2, 4), (3, 5)]))
def test_order_complex_facets_are_maximal_chains(poset):
    assert set(poset.covers()) == covers_by_definition(poset)
    assert order_complex(poset).facets == maximal_chains_by_brute_force(poset)


def test_cyclic_relation_is_refused():
    with pytest.raises(DiagramError):
        FinitePoset(range(3), [(0, 1), (1, 2), (2, 0)])


@st.composite
def random_inclusion_diagrams(draw):
    """Posets on up to 5 elements; D(p) is the full subcomplex of one random
    complex on the vertices that no q <= p removes, so D(q) contains D(p)."""
    poset = draw(random_posets(max_size=5))
    vertices = frozenset(range(3))
    komplex = SimplicialComplex(
        draw(st.lists(st.frozensets(st.sampled_from(sorted(vertices)), min_size=1), max_size=3))
    )
    removed = {p: draw(st.frozensets(st.sampled_from(sorted(vertices)))) for p in poset.elements}
    spaces = {
        p: full_subcomplex(
            komplex,
            vertices.difference(*(removed[q] for q in poset.elements if poset.leq(q, p)))
        )
        for p in poset.elements
    }
    return InclusionDiagram(poset, spaces)


def numbered_grothendieck_poset(komplex) -> FinitePoset:
    """The Grothendieck poset that a hocolim complex numbers: its vertices
    in their order, ordered by its numbered covers, labelled; the checking
    constructor sorts and closes it anew."""
    order = komplex._vertex_order()
    return FinitePoset(order, [(order[a], order[b]) for a, b in komplex._numbered[1]])


@settings(max_examples=60, deadline=None)
@given(diagram=random_inclusion_diagrams())
def test_grothendieck_poset_matches_definition(diagram):
    """A hocolim complex's vertices, numbered covers and facets are the
    elements, covers and maximal chains of the Grothendieck poset by
    definition."""
    reference = grothendieck_poset_by_definition(diagram)
    assume(len(reference.elements) <= 14)  # the chain oracle enumerates subsets
    komplex = hocolim(diagram).complex
    gr = numbered_grothendieck_poset(komplex)
    assert komplex._vertex_order() == gr.elements == reference.elements
    assert all(gr.leq(a, b) == reference.leq(a, b) for a in gr.elements for b in gr.elements)
    assert set(gr.covers()) == covers_by_definition(reference)
    assert komplex.facets == maximal_chains_by_brute_force(reference)


@settings(max_examples=60, deadline=None)
@given(diagram=random_inclusion_diagrams())
def test_hocolim_face_counts_equal_chains_of_the_definition(diagram):
    """On any poset, with empty spaces too, the faces counted from the
    diagram equal the chains of the Grothendieck poset by definition and
    the simplices listed off the order complex."""
    hc = hocolim(diagram).complex
    counts = hc.face_counts()
    assert counts == chain_counts(grothendieck_poset_by_definition(diagram))
    assert counts == SimplicialComplex.face_counts(hc)
    assert (hc.dim, hc.is_empty) == (SimplicialComplex.dim.fget(hc), SimplicialComplex.is_empty.fget(hc))


NESTED_LABELS = st.recursive(
    st.integers(min_value=0, max_value=3) | st.sampled_from(["a", "b"]),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=2),
    max_leaves=4,
)


@st.composite
def nested_label_complexes(draw):
    """Up to six facets on up to six distinct nested labels."""
    labels = draw(st.lists(NESTED_LABELS, min_size=1, max_size=6, unique=True))
    facets = st.frozensets(st.sampled_from(labels), min_size=1, max_size=3)
    return SimplicialComplex(draw(st.lists(facets, max_size=6)))


@settings(max_examples=80, deadline=None)
@given(
    komplex=st.one_of(
        nested_label_complexes(),
        random_posets().map(order_complex),
        random_inclusion_diagrams().map(lambda d: hocolim(d).complex),
    ),
    data=st.data(),
)
def test_vertex_order_matches_label_key_sort(komplex, data):
    """Simplex orders and exports, of a complex and of a full subcomplex
    that inherits its vertex order, equal those sorted through label_key."""
    verts = sort_labels(komplex.vertices)
    kept = data.draw(st.lists(st.booleans(), min_size=len(verts), max_size=len(verts)))
    sub = full_subcomplex(komplex, (v for v, keep in zip(verts, kept) if keep))
    for each in (komplex, sub):
        assert each.simplices_by_dim() == simplices_by_definition(each)
        assert each.to_doc() == to_doc_by_definition(each)
    inclusion = SimplicialMap(sub, komplex, {v: v for v in sub.vertices})
    identity = homology_map(SimplicialMap.identity(komplex))
    assert homology_map(inclusion).matrices == compose_matrices(identity, homology_map(inclusion))


@settings(max_examples=60, deadline=None)
@given(diagram=random_inclusion_diagrams(), data=st.data())
def test_trusted_grothendieck_poset_equals_checked_one(diagram, data):
    """A hocolim complex numbers its Grothendieck elements sorted and lists
    each cover once; labelled, they must be the poset that FinitePoset
    sorts and closes from every pair, and each of its up-set complexes the
    full subcomplex of its hocolim."""
    reference = grothendieck_poset_by_definition(diagram)
    komplex = hocolim(diagram).complex
    order, covers = komplex._vertex_order(), komplex._numbered[1]
    assert order == tuple(sort_labels(set(order)))
    assert len(set(covers)) == len(covers)
    assert {(order[a], order[b]) for a, b in covers} == covers_by_definition(reference)
    gr = numbered_grothendieck_poset(komplex)
    assert all(gr.leq(a, b) == reference.leq(a, b) for a in gr.elements for b in gr.elements)
    assert gr == reference and hash(gr) == hash(reference)

    hc = hocolim(diagram)
    assert hc.complex == SimplicialComplex(hc.complex.facets)
    if diagram.poset.elements:
        least = data.draw(st.sampled_from(diagram.poset.elements))
        upset = {p for p in diagram.poset.elements if diagram.poset.leq(least, p)}
        sub = hc.over_upset(lambda p: p in upset)
        cut = full_subcomplex(hc.complex, (v for v in hc.complex.vertices if v[0] in upset))
        assert sub == cut
        assert sub._vertex_order() == cut._vertex_order()


@settings(max_examples=60, deadline=None)
@given(
    poset=random_posets(),
    x=nested_label_complexes(),
    indices=st.sets(st.integers(min_value=0, max_value=4), max_size=3),
)
def test_trusted_complexes_equal_checked_ones(poset, x, indices):
    """Order complexes and joins of copies keep their facets and vertex
    order as built; both must be what the checking constructor and a
    label_key sort make of the same facets."""
    for komplex in (order_complex(poset), copies_complex(x, indices)):
        assert komplex == SimplicialComplex(komplex.facets)
        assert komplex.vertices == SimplicialComplex(komplex.facets).vertices
        assert komplex._vertex_order() == tuple(sort_labels(komplex.vertices))


def test_inclusion_diagram_validation():
    p = chain_poset(2)
    good = InclusionDiagram(p, {0: sphere(1), 1: full_subcomplex(sphere(1), {0, 1})})
    assert good.space(1).is_subcomplex_of(good.space(0))
    with pytest.raises(NotInclusionDiagram):
        InclusionDiagram(p, {0: sphere(1), 1: SimplicialComplex([("x",)])})


def test_grothendieck_poset_counts():
    p = chain_poset(1)
    d = InclusionDiagram(p, {0: sphere(1)})
    assert len(hocolim(d).complex.vertices) == 6  # 3 vertices + 3 edges


def test_hocolim_is_built_once_per_diagram():
    d = InclusionDiagram(chain_poset(2), {0: sphere(1), 1: sphere(0)})
    assert hocolim(d) is hocolim(d)


def test_hocolim_over_point_preserves_betti():
    for komplex in (sphere(1), two_triangle_complex()):
        d = InclusionDiagram(FinitePoset(["x"], []), {"x": komplex})
        assert reduced_betti(hocolim(d).complex) == reduced_betti(komplex)


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 4) for b in range(1, 5)])
def test_chains_inside_a_cell_by_enumeration(a, b):
    """The simplices inside one prodsimplicial cell, of a chain of a
    elements and a simplex of b vertices, listed one by one: the chains of
    [a] x (the nonempty faces of the simplex) that meet every level and end
    at the top."""
    faces = [frozenset(s) for k in range(1, b + 1) for s in itertools.combinations(range(b), k)]
    elements = [(level, t) for level in range(a) for t in faces]
    below = {x: [y for y in elements if y != x and y[0] <= x[0] and y[1] <= x[1]] for x in elements}
    counts = {}

    def descend(x, length, levels):
        if len(levels) == a:
            counts[length - 1] = counts.get(length - 1, 0) + 1
        for y in below[x]:
            descend(y, length + 1, levels | {y[0]})

    descend((a - 1, frozenset(range(b))), 1, {a - 1})
    assert min(counts) == a - 1 and max(counts) == a + b - 2
    assert {j: diagrams._interior_chains(a, b, j) for j in range(a + b + 1)} == {
        j: counts.get(j, 0) for j in range(a + b + 1)
    }


def test_face_counts_dim_and_betti_numbers_find_the_live_upsets_once(monkeypatch):
    """A hocolim complex's face counts, dimension and cells all read its
    live elements and their up-sets, which it finds once."""
    calls = []
    original = diagrams._live_upsets

    def live_upsets(space_at, covers):
        calls.append(space_at)
        return original(space_at, covers)

    monkeypatch.setattr(diagrams, "_live_upsets", live_upsets)
    d = InclusionDiagram(chain_poset(3), {0: sphere(1), 1: sphere(0), 2: SimplicialComplex.empty()})
    hc = hocolim(d).complex
    assert hc.face_counts() == SimplicialComplex.face_counts(hc) and hc.dim == 1
    assert reduced_betti(hc) == bv({1: 1})
    assert len(calls) == 1


def test_hocolim_empty_diagram():
    d = InclusionDiagram(FinitePoset([], []), {})
    assert hocolim(d).complex.is_empty
    assert hocolim(d).complex.face_counts() == {} and hocolim(d).complex.dim == -1
    assert colim(d).is_empty


def test_empty_spaces_contribute_nothing():
    p = chain_poset(2)
    d = InclusionDiagram(p, {0: sphere(0), 1: SimplicialComplex.empty()})
    hc = hocolim(d)
    assert reduced_betti(hc.complex) == bv({0: 1})
    assert {v[0] for v in hc.complex.vertices} == {0}


def test_contrast_diagrams_betti():
    first, second, _ = contrast_diagrams()
    sphere2 = bv({2: 1})
    assert reduced_betti(colim(first)) == sphere2
    assert reduced_betti(colim(second)) == bv({})
    assert reduced_betti(hocolim(first).complex) == sphere2
    assert reduced_betti(hocolim(second).complex) == sphere2


def test_contrast_morphism_induces_h2_isomorphism():
    _, _, morphism = contrast_diagrams()
    hm = homology_map(induced_map(morphism))
    assert hm.matrix(2) == [[1]]
    assert hm.source_betti == hm.target_betti == bv({2: 1})


def test_face_diagram_colim_reconstructs_complex():
    delta = two_triangle_complex()
    d = face_diagram(delta)
    assert colim(d) == delta
    assert reduced_betti(hocolim(d).complex) == reduced_betti(delta)


def test_restrict_diagram():
    first, _, _ = contrast_diagrams()
    assert restrict_diagram(first, first.poset.elements) == first
    only_top = restrict_diagram(first, {"p"})
    assert reduced_betti(hocolim(only_top).complex) == bv({1: 1})
    empty = restrict_diagram(first, ())
    assert hocolim(empty).complex.is_empty


def test_induced_map_identity():
    first, _, _ = contrast_diagrams()
    ident = DiagramMorphism(
        first,
        first,
        {p: p for p in first.poset.elements},
        {p: SimplicialMap.identity(first.space(p)) for p in first.poset.elements},
    )
    m = induced_map(ident)
    assert all(hocolim_vertex_map(m)[v] == v for v in m.source.vertices)


def test_induced_map_respects_composition():
    first, second, morphism = contrast_diagrams()
    ident = DiagramMorphism(
        second,
        second,
        {p: p for p in second.poset.elements},
        {p: SimplicialMap.identity(second.space(p)) for p in second.poset.elements},
    )
    one = induced_map(morphism)
    composed = DiagramMorphism(
        first,
        second,
        dict(morphism.poset_map),
        {p: compose(morphism.components[p], ident.components[morphism.poset_map[p]]) for p in first.poset.elements},
    )
    first_map, second_map = hocolim_vertex_map(one), hocolim_vertex_map(induced_map(ident))
    assert hocolim_vertex_map(induced_map(composed)) == {v: second_map[first_map[v]] for v in one.source.vertices}


def test_naturality_failure_detected():
    circle = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])
    cone = SimplicialComplex([("a", "b", "d"), ("b", "c", "d"), ("a", "c", "d")])
    poset = FinitePoset(["lo", "hi"], [("lo", "hi")])
    diagram = InclusionDiagram(poset, {"lo": cone, "hi": circle})
    # rotate the circle but fix the cone: the square cannot commute
    rotate = SimplicialMap(circle, circle, {"a": "b", "b": "c", "c": "a"})
    with pytest.raises(NaturalityFailure):
        DiagramMorphism(
            diagram,
            diagram,
            {"lo": "lo", "hi": "hi"},
            {"lo": SimplicialMap.identity(cone), "hi": rotate},
        )


def test_homotopic_pair_check():
    circle = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])
    cone = SimplicialComplex([("a", "b", "d"), ("b", "c", "d"), ("a", "c", "d")])
    poset = FinitePoset(["lo", "hi"], [("lo", "hi")])
    diagram = InclusionDiagram(poset, {"lo": cone, "hi": circle})
    ident = DiagramMorphism(
        diagram,
        diagram,
        {"lo": "lo", "hi": "hi"},
        {"lo": SimplicialMap.identity(cone), "hi": SimplicialMap.identity(circle)},
    )
    assert homotopic_pair_check(ident, ident)
    # slide the top element down; components stay inclusions
    lowered = DiagramMorphism(
        diagram,
        diagram,
        {"lo": "lo", "hi": "lo"},
        {
            "lo": SimplicialMap.identity(cone),
            "hi": SimplicialMap(circle, cone, {v: v for v in circle.vertices}),
        },
    )
    assert homotopic_pair_check(ident, lowered)
    # and the two induced maps agree on homology, as the check promises
    h1 = homology_map(induced_map(ident))
    h2 = homology_map(induced_map(lowered))
    assert h1.matrices == h2.matrices


def test_homotopic_pair_check_incomparable():
    circle = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])
    poset = FinitePoset(["x", "y"], [])
    diagram = InclusionDiagram(poset, {"x": circle, "y": circle})
    def constant_to(element):
        return DiagramMorphism(
            diagram,
            diagram,
            {"x": element, "y": element},
            {p: SimplicialMap.identity(circle) for p in ("x", "y")},
        )
    swap = DiagramMorphism(
        diagram,
        diagram,
        {"x": "y", "y": "x"},
        {p: SimplicialMap.identity(circle) for p in ("x", "y")},
    )
    ident = DiagramMorphism(
        diagram,
        diagram,
        {"x": "x", "y": "y"},
        {p: SimplicialMap.identity(circle) for p in ("x", "y")},
    )
    assert not homotopic_pair_check(ident, swap)
