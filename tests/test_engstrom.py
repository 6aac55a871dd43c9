import functools
import gc
import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matrep import complexes, diagrams, engstrom, labels, matroid
from matrep.catalog import (
    five_point_immersion,
    five_point_matroid,
    identity_map,
    rank3_chain,
    representation_instances,
    swap_action_on_s0,
)
from matrep.complexes import (
    BettiVector,
    NotSimplicial,
    SimplicialComplex,
    SimplicialMap,
    copies_complex,
    homology_map,
    reduced_betti,
    sphere,
)
from matrep.diagrams import FinitePoset, Hocolim, InclusionDiagram, hocolim
from matrep.engstrom import (
    GroupAction,
    ImmersedMatroid,
    Immersion,
    InvalidImmersion,
    NoAtomInImage,
    NotAdmissible,
    NotFree,
    Representation,
    _check_simplicial_and_free,
    _closed_atom_sets,
    arrangement_flats,
    arrangement_matches_lattice,
    build_diagram,
    build_representation,
    canonical_immersion,
    check_equivariance,
    expected_betti,
    immersed,
    induced_representation_map,
    is_admissible,
    reroute_annihilating,
    validate_immersion,
    verify_stability,
    verify_strict_decrease,
    verify_surjectivity,
    verify_xarrangement,
)
from matrep.matroid import SetMap, classify_map, induced_flat_map, uniform

from oracles import (
    arrangement_matches_lattice_by_definition,
    chain_counts,
    check_equivariance_on_y,
    check_simplicial_and_free_by_simplices,
    closed_atom_sets_by_subcomplexes,
    full_subcomplex,
    hocolim_vertex_map,
    induced_map_by_morphism,
    matroid_of_columns,
    rational_rank,
    restrict_diagram,
    to_doc_by_definition,
)
from test_diagrams import numbered_grothendieck_poset, random_inclusion_diagrams


def bv(counts):
    return BettiVector(counts)


def test_canonical_immersion_values():
    m = uniform(2, 3)
    l2 = canonical_immersion(m, 2)
    lat = m.lattice()
    assert all(l2(a) == frozenset({1}) for a in lat.atoms)
    assert l2(lat.top) == frozenset()
    assert l2(lat.bottom) == frozenset({1, 2})
    l3 = canonical_immersion(m, 3)
    assert all(l3(a) == frozenset({1, 2}) for a in lat.atoms)
    with pytest.raises(InvalidImmersion):
        canonical_immersion(m, 1)


def test_validate_immersion():
    ok, witness = validate_immersion(five_point_immersion())
    assert ok and witness is None
    ok, _ = validate_immersion(canonical_immersion(uniform(3, 4), 4))
    assert ok
    bad = canonical_immersion(uniform(2, 3), 2).as_dict()
    bad[frozenset({1})] = frozenset({1, 2})  # atom at full size: rank reversal fails
    from matrep.engstrom import Immersion

    not_ok, why = validate_immersion(Immersion.from_dict(uniform(2, 3), 2, bad))
    assert not not_ok and "rank reversal" in why


def test_validate_immersion_refuses_a_value_at_a_non_flat():
    """Every flat's value is checked first, so a stray value is named only
    when the flats' values are all valid."""
    from matrep.engstrom import Immersion

    m = uniform(2, 3)
    values = canonical_immersion(m, 2).as_dict()
    stray = Immersion.from_dict(m, 2, {**values, frozenset({1, 2}): frozenset({7})})
    assert validate_immersion(stray) == (False, "value at [1, 2], which is not a flat")
    values[frozenset({1})] = frozenset({1, 2})
    ok, why = validate_immersion(Immersion.from_dict(m, 2, {**values, frozenset({1, 2}): frozenset()}))
    assert not ok and "rank reversal" in why


def test_immersed_matroid_validates():
    from matrep.engstrom import Immersion

    m = uniform(2, 3)
    broken = canonical_immersion(m, 2).as_dict()
    broken[frozenset({1})] = frozenset({2})
    broken[frozenset({2})] = frozenset({1})
    with pytest.raises(InvalidImmersion):
        # order reversal against the bottom flat fails
        ImmersedMatroid(m, Immersion.from_dict(m, 2, {**broken, frozenset(): frozenset({1})}))


def test_admissibility():
    from matrep.engstrom import Immersion

    m = uniform(2, 3)
    l_hat = canonical_immersion(m, 2)
    assert is_admissible(identity_map(m, m), l_hat, l_hat)
    m34, n, _ = rank3_chain()
    assert is_admissible(identity_map(m34, n), canonical_immersion(m34, 3), canonical_immersion(n, 3))
    rotated = Immersion.from_dict(
        m, 2, {f: frozenset(3 - i for i in s) for f, s in l_hat.as_dict().items()}
    )
    ok, _ = validate_immersion(rotated)
    assert ok
    assert not is_admissible(identity_map(m, m), l_hat, rotated)


def test_immersion_is_its_mapping():
    from matrep.engstrom import Immersion

    m = uniform(2, 3)
    l_hat = canonical_immersion(m, 2)
    mapping = l_hat.as_dict()
    backwards = Immersion(m, 2, reversed(list(mapping.items())))
    assert backwards == l_hat == Immersion.from_dict(m, 2, mapping)
    assert hash(backwards) == hash(l_hat)
    assert backwards({1}) == l_hat(frozenset({1})) == frozenset({1})
    assert backwards != Immersion(m, 3, mapping)


@pytest.mark.parametrize("entry", ["is_admissible", "induced_representation_map", "verify_strict_decrease"])
def test_every_entry_refuses_immersions_of_different_rho(entry):
    m, n = uniform(3, 4), uniform(2, 4)
    tau, im_m, im_n = identity_map(m, n), immersed(m, rho=3), immersed(n, rho=4)
    call = {
        "is_admissible": lambda: is_admissible(tau, im_m.immersion, im_n.immersion),
        "induced_representation_map": lambda: induced_representation_map(tau, im_m, im_n, sphere(0)),
        "verify_strict_decrease": lambda: verify_strict_decrease(tau, im_m, im_n, sphere(0)),
    }[entry]
    with pytest.raises(NotAdmissible, match="share rho"):
        call()


def test_build_diagram_spaces():
    m = uniform(2, 3)
    d = build_diagram(immersed(m), sphere(0))
    lat = m.lattice()
    atom = lat.atoms[0]
    assert len(d.space(atom).vertices) == 2
    assert d.space(lat.top).is_empty
    assert reduced_betti(d.space(lat.bottom)) == bv({1: 1})
    ex = ImmersedMatroid(five_point_matroid(), five_point_immersion())
    dex = build_diagram(ex, sphere(0))
    four_cycle = dex.space(frozenset({3}))
    assert reduced_betti(four_cycle) == bv({1: 1})
    assert {i for (i, _) in four_cycle.vertices} == {1, 3}
    with pytest.raises(ValueError):
        build_diagram(ex, SimplicialComplex.empty())


def test_large_diagrams_stay_within_the_simplex_budget():
    """The joins of copies at rho = 6 of U6,12 over S0 and of U6,7 over S1
    are built, not refused."""
    for m, x in [(uniform(6, 12), sphere(0)), (uniform(6, 7), sphere(1))]:
        d = build_diagram(immersed(m, rho=6), x)
        assert len(d.space(m.lattice().bottom).facets) == len(x.facets) ** 6


def test_representation_shapes():
    rep = build_representation(immersed(uniform(2, 3)), sphere(1))
    assert reduced_betti(rep.T) == bv({0: 2, 1: 3})
    rep24 = build_representation(immersed(uniform(2, 4)), sphere(0))
    assert reduced_betti(rep24.T) == bv({0: 7})
    # Y contracts onto the bottom space, a full join power
    for name, im, template in representation_instances()[:4]:
        rep = build_representation(im, template)
        assert reduced_betti(rep.Y) == reduced_betti(copies_complex(template, range(im.rho)))


def test_atom_subcomplexes_cover_t():
    rep = build_representation(immersed(uniform(2, 3)), sphere(0))
    for sub in rep.atom_subcomplexes.values():
        assert sub.is_subcomplex_of(rep.Y)
        assert sub.is_subcomplex_of(rep.T)
    union = SimplicialComplex(
        f for sub in rep.atom_subcomplexes.values() for f in sub.facets
    )
    assert union == rep.T


def test_atom_subcomplex_is_upset_hocolim():
    im = immersed(uniform(2, 3))
    rep = build_representation(im, sphere(0))
    diagram = build_diagram(im, sphere(0))
    lat = im.matroid.lattice()
    atom = lat.atoms[0]
    restricted = hocolim(restrict_diagram(diagram, [f for f in lat.flats if atom <= f]))
    assert restricted.complex == rep.atom_subcomplexes[atom]


def test_representation_equals_cut_from_whole_lattice():
    # T is built over the lattice minus its bottom; it and every subcomplex
    # over a flat must equal the full subcomplexes of the whole-lattice
    # hocolim Y over the same vertices, and Y is built only when read
    for name, im, template in representation_instances():
        rep = build_representation(im, template)
        assert "Y" not in vars(rep), name
        lat = im.matroid.lattice()
        hc = hocolim(build_diagram(im, template))

        def cut(keep):
            return full_subcomplex(hc.complex, (v for v in hc.complex.vertices if keep(v[0])))

        assert rep.T == cut(lambda p: p != lat.bottom), name
        for a in lat.atoms:
            sub = rep.atom_subcomplexes[a]
            assert sub == cut(lambda p: a <= p), name
            # built along the covers of its up-set, it must also be T's cut,
            # vertex order included
            t_cut = full_subcomplex(rep.T, (v for v in rep.T.vertices if a <= v[0]))
            assert sub == t_cut and sub._vertex_order() == t_cut._vertex_order(), name
        for f in lat.flats:
            if f != lat.bottom:
                assert rep.upset_complex(f) == cut(lambda p: f <= p), name
        assert rep.Y == hc.complex, name


def test_u34_over_s1_constructed():
    # built, not only predicted by expected_betti; the face counts are those
    # of the export pinned when T was still cut from the whole-lattice Y
    rep = build_representation(immersed(uniform(3, 4)), sphere(1))
    assert reduced_betti(rep.T) == bv({1: 3, 2: 6, 3: 4})
    assert rep.T.face_counts() == {0: 228, 1: 1236, 2: 1872, 3: 864}


def test_vertex_keys_are_not_recomputed(monkeypatch):
    """Each complex keys its vertices once and derived complexes inherit
    the order: the homology of T and of its atom subcomplexes keys nothing,
    and exporting T keys each vertex once, not once per facet."""
    original = labels.label_key
    calls, depth = [], [0]

    def counting(x):
        if not depth[0]:
            calls.append(x)
        depth[0] += 1
        try:
            return original(x)
        finally:
            depth[0] -= 1

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "matrep" and getattr(module, "label_key", None) is original:
            monkeypatch.setattr(module, "label_key", counting)
    rep = build_representation(immersed(uniform(4, 5), rho=4), sphere(0))
    calls.clear()
    reduced_betti(rep.T)
    for sub in rep.atom_subcomplexes.values():
        reduced_betti(sub)
    assert calls == []
    rep.T.to_doc()
    assert 0 < len(calls) < len(rep.T.facets)


def test_construction_route_trusts_what_it_knows(monkeypatch):
    """Building T and its atom subcomplexes, its Betti numbers and its face
    counts filter no facet list and key no vertex of T."""
    im, x = immersed(uniform(4, 5), rho=4), sphere(0)
    expected = expected_betti(im, x)
    original_key, original_filter = labels.label_key, complexes._maximal_faces
    keyed, filtered = [], []

    def counting_key(label):
        keyed.append(label)
        return original_key(label)

    def counting_filter(faces):
        filtered.append(faces)
        return original_filter(faces)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "matrep":
            continue
        if getattr(module, "label_key", None) is original_key:
            monkeypatch.setattr(module, "label_key", counting_key)
        if getattr(module, "_maximal_faces", None) is original_filter:
            monkeypatch.setattr(module, "_maximal_faces", counting_filter)
    rep = build_representation(im, x)
    assert reduced_betti(rep.T) == expected
    assert rep.T.face_counts()[0] == 230
    # the atom subcomplexes are built on first read, each as its up-set's
    for a, sub in rep.atom_subcomplexes.items():
        assert sub is rep.upset_complex(a)
        reduced_betti(sub)
    for f in rep.lattice.flats:
        reduced_betti(rep.upset_complex(f))
    assert filtered == []
    assert keyed and not rep.T.vertices.intersection(keyed)


def count_reductions(monkeypatch) -> tuple:
    """The reductions from here on, in order: the boundary function of each
    model reduced with tracking for a homology map, cells or simplices, and
    the cells of each model reduced untracked for its Betti numbers."""
    tracked, untracked = [], []
    original = complexes._reduce_down

    def counting(cells, boundary, track):
        if track:
            tracked.append(boundary)
        else:
            untracked.append(cells)
        return original(cells, boundary, track)

    monkeypatch.setattr(complexes, "_reduce_down", counting)
    return tracked, untracked


def test_expected_betti_reduces_only_the_template(monkeypatch):
    x = sphere(1)
    tracked, untracked = count_reductions(monkeypatch)
    assert expected_betti(immersed(uniform(4, 5)), x) == bv({2: 4, 3: 10, 4: 10, 5: 5})
    assert expected_betti(immersed(uniform(2, 3), rho=6), x) == bv({8: 2, 9: 3})
    assert tracked == [] and len(untracked) == 1 and untracked[0] is x._simplicial.cells


def test_xarrangement_builds_each_upset_complex_once(monkeypatch):
    """Y and every up-set complex have a least element, so each is read
    on that element's space, and the complexes that share a space share
    one model and one reduction of it: 6 reductions on U4,5 x S0 and on
    U4,8 x S0 at rho = 4, where one per complex made 28 and 95."""
    original = Hocolim.over_upset
    built = []

    def counting(self, keep):
        built.append(original(self, keep))
        return built[-1]

    monkeypatch.setattr(Hocolim, "over_upset", counting)
    tracked, untracked = count_reductions(monkeypatch)
    for n in (5, 8):
        im, x = immersed(uniform(4, n), rho=4), sphere(0)
        rep = build_representation(im, x)
        for calls in (built, tracked, untracked):
            calls.clear()
        assert verify_xarrangement(rep, x).all_pass
        upper_flats = [f for f in rep.lattice.flats if f != rep.lattice.bottom]
        # x's simplices, then each distinct model of Y and the up-set
        # complexes once, untracked
        models = {id(k._cells().cells) for k in [rep.Y] + [rep.upset_complex(f) for f in upper_flats]}
        assert tracked == [] and untracked[0] is x._simplicial.cells
        assert len(untracked) == len(set(map(id, untracked))) == len(models) + 1 == 6
        assert models == set(map(id, untracked[1:]))
        assert len(built) == len(upper_flats)
        assert {id(rep.upset_complex(f)) for f in upper_flats} == set(map(id, built))


def test_u45_over_s1_betti_from_cells_under_a_second():
    # T has about a million simplices; its prodsimplicial model has 3,930
    # cells, and T's simplices are never listed
    im, x = immersed(uniform(4, 5), rho=4), sphere(1)
    rep = build_representation(im, x)
    start = time.perf_counter()
    betti = reduced_betti(rep.T)
    assert time.perf_counter() - start < 1.0
    assert betti == expected_betti(im, x) == bv({2: 4, 3: 10, 4: 10, 5: 5})
    assert rep.T._simplices is None and "_simplicial" not in vars(rep.T)
    assert "_facets" not in vars(rep.T)


def test_u56_over_s1_betti_from_cells_under_two_seconds():
    # T's Grothendieck poset has 20,580 elements and its order complex is
    # out of reach; T is never built, and its 49,020 cells are
    im, x = immersed(uniform(5, 6), rho=5), sphere(1)
    start = time.perf_counter()
    betti = reduced_betti(build_representation(im, x).T)
    assert time.perf_counter() - start < 2.0
    assert betti == expected_betti(im, x)


def flat_map_morphism(d_m, d_n, flat_map):
    """The diagram morphism d_m -> d_n of a flat map, with inclusions of
    spaces as its components."""
    from matrep.diagrams import DiagramMorphism

    poset_map = {p: flat_map(p) for p in d_m.poset.elements}
    components = {}
    for p in d_m.poset.elements:
        src = d_m.space(p)
        components[p] = SimplicialMap(src, d_n.space(poset_map[p]), {v: v for v in src.vertices})
    return DiagramMorphism(d_m, d_n, poset_map, components)


def test_betti_numbers_and_homology_maps_build_no_poset_or_facet(refuse_to_build_t):
    """T's Betti numbers and the homology maps of a weak map and of a
    diagram morphism read prodsimplicial cells only: no Grothendieck poset
    and no order complex is built."""
    m, n, l = rank3_chain()
    s0 = sphere(0)
    assert reduced_betti(build_representation(immersed(m), s0).T) == expected_betti(immersed(m), s0)
    hm = homology_map(induced_representation_map(identity_map(m, n), immersed(m), immersed(n), s0))
    assert hm.target_betti == expected_betti(immersed(n), s0) and hm.is_surjective()
    d_m, d_l = build_diagram(immersed(m), s0), build_diagram(immersed(l), s0)
    morphism = flat_map_morphism(d_m, d_l, induced_flat_map(identity_map(m, l)))
    assert homology_map(diagrams.induced_map(morphism)).is_surjective()


def test_refuse_to_build_t_sees_every_poset_build(refuse_to_build_t):
    """The no-T tests hold only if every labelled read of a hocolim goes
    through ``HocolimComplex._order`` or ``_facets``: reading T's vertices,
    an up-set complex's vertices or Y's facets each trips the fixture."""
    rep = build_representation(immersed(uniform(3, 4)), sphere(0))
    atom = rep.lattice.atoms[0]
    for read in (lambda: rep.T.vertices, lambda: rep.upset_complex(atom).vertices, lambda: rep.Y.facets):
        with pytest.raises(pytest.fail.Exception):
            read()


def test_export_builds_no_poset_or_facet(monkeypatch, refuse_to_build_t):
    """T's export reads the diagram's spaces and covers, so it builds no
    Grothendieck poset or order complex, and equals the export of the same
    complexes made once building them is allowed again."""
    rep = build_representation(immersed(uniform(3, 4)), sphere(1))
    komplexes = [rep.T, rep.upset_complex(rep.lattice.atoms[0])]
    docs = [komplex.to_doc() for komplex in komplexes]
    for komplex in komplexes:
        assert "_order" not in vars(komplex) and "_facets" not in vars(komplex)
    monkeypatch.undo()
    for komplex, doc in zip(komplexes, docs):
        assert doc == SimplicialComplex.to_doc(komplex) == komplex.to_doc()


def test_vertices_export_and_facets_number_t_once(monkeypatch):
    """T's vertices, its export and its facets all read one numbering of
    its Grothendieck poset (``_grothendieck_numbers``), made on the first
    read."""
    rep = build_representation(immersed(uniform(3, 4)), sphere(0))
    numbered, original = [], diagrams._grothendieck_numbers

    def counting(space_at, covers):
        if space_at == rep.T._space_at:
            numbered.append(covers)
        return original(space_at, covers)

    monkeypatch.setattr(diagrams, "_grothendieck_numbers", counting)
    assert len(rep.T.vertices) == rep.T.face_counts()[0]
    doc = rep.T.to_doc()
    assert len(rep.T.facets) == len(doc["facets"])
    assert len(numbered) == 1


def test_pipeline_leaves_no_cycles_to_the_collector():
    """Building T, its Betti numbers, its export and a homology map leave
    no matrep object in a reference cycle: each is freed by reference
    counting as soon as it is dropped."""

    def run():
        rep = build_representation(immersed(uniform(4, 5), rho=4), sphere(0))
        reduced_betti(rep.T)
        rep.T.to_doc()
        m, n, _ = rank3_chain()
        homology_map(induced_representation_map(identity_map(m, n), immersed(m), immersed(n), sphere(0)))

    def from_matrep(obj):
        module = obj.__module__ if callable(obj) and hasattr(obj, "__code__") else type(obj).__module__
        return str(module).split(".")[0] == "matrep"

    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        cyclic = [type(obj).__qualname__ for obj in gc.garbage if from_matrep(obj)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert cyclic == []


@st.composite
def column_immersions(draw):
    """Column matroids of up to five random GF(2) or GF(3) columns of
    length three, immersed at rho = rank or rank + 1 with their bits
    permuted at random, and S^0 or S^1 as the template.  Over S^1 rho
    stays at most 3, where T has at most a few thousand simplices."""
    p = draw(st.sampled_from([2, 3]))
    column = st.tuples(*[st.integers(min_value=0, max_value=p - 1)] * 3)
    m = matroid_of_columns(draw(st.lists(column, min_size=1, max_size=5)), p=p)
    k = draw(st.sampled_from([0, 1]))
    rho = m.rank_total + draw(st.integers(min_value=0, max_value=1))
    assume(k == 0 or rho <= 3)
    bits = draw(st.permutations(range(1, rho + 1)))
    l = permuted_immersion(canonical_immersion(m, rho), dict(zip(range(1, rho + 1), bits)))
    return ImmersedMatroid(m, l), sphere(k)


def assert_boundary_of_boundary_vanishes(komplex):
    model = komplex._cells()
    cells, boundary = model.cells, model.boundary
    for k in range(max(cells), 0, -1):
        down = list(cells[k - 1])
        for cell in cells[k]:
            total = {}
            for r, v in boundary(cell, cells[k - 1]).items():
                for r2, v2 in boundary(down[r], cells[k - 2]).items():
                    total[r2] = total.get(r2, 0) + v * v2
            assert not any(total.values()), cell


@settings(max_examples=40, deadline=None)
@given(instance=column_immersions())
def test_cellular_betti_equals_simplicial(instance):
    """T and every up-set complex get their Betti numbers from the
    prodsimplicial model, a chain complex; the simplicial reduction of the
    same complex must agree."""
    im, x = instance
    rep = build_representation(im, x)
    lat = rep.lattice
    for komplex in [rep.T] + [rep.upset_complex(f) for f in lat.flats if f != lat.bottom]:
        assert_boundary_of_boundary_vanishes(komplex)
        cellular = reduced_betti(komplex)
        assert "_simplicial" not in vars(komplex) and komplex._simplices is None
        assert cellular == komplex._simplicial.betti


def test_betti_numbers_after_a_homology_map_come_from_the_cells(monkeypatch):
    """A homology map into T keeps the tracked reduction of T's cells on
    their model and lists none of T's simplices; T's Betti numbers are
    reduced from the same cells, untracked, once."""
    m, n, _ = rank3_chain()
    s0 = sphere(0)
    hm = homology_map(induced_representation_map(identity_map(m, n), immersed(m), immersed(n), s0))
    expected = expected_betti(immersed(n), s0)
    target = hm.map.target
    model = target._cells()
    assert "_tracked" in vars(model) and "betti" not in vars(model)
    assert "_simplicial" not in vars(target) and target._simplices is None
    read = []
    original = complexes._reduce_down

    def reduce_down(cells, boundary, track):
        read.append((cells, boundary, track))
        return original(cells, boundary, track)

    monkeypatch.setattr(complexes, "_reduce_down", reduce_down)
    assert reduced_betti(target) == hm.target_betti == expected
    assert reduced_betti(target) is model.betti
    assert len(read) == 1 and read[0][0] is model.cells
    assert read[0][1:] == (diagrams._cell_boundary, False)


def hocolim_complexes(rep) -> list:
    """T, Y and every up-set complex of a representation."""
    lat = rep.lattice
    return [rep.T, rep.Y] + [rep.upset_complex(f) for f in lat.flats if f != lat.bottom]


def reduced_euler(counts) -> int:
    return sum((-1) ** j * f for j, f in counts.items()) - 1


def test_face_counts_and_dim_build_no_poset_facet_or_table(monkeypatch, refuse_to_build_t):
    """A hocolim complex counts its faces, and reads its dimension and
    emptiness, from its diagram; the counts equal those of the simplices
    listed off the order complex once building it is allowed again."""
    rep = build_representation(immersed(uniform(4, 5), rho=4), sphere(0))
    komplexes = hocolim_complexes(rep)
    counted = [(k.face_counts(), k.dim, k.is_empty, repr(k)) for k in komplexes]
    for komplex in komplexes:
        assert komplex._simplices is None
        assert "_order" not in vars(komplex) and "_facets" not in vars(komplex)
    assert counted[0][0] == {0: 230, 1: 880, 2: 680}
    assert counted[0][1:] == (2, False, "HocolimComplex(230 vertices, dimension 2)")
    monkeypatch.undo()
    for komplex, (counts, dim, is_empty, _) in zip(komplexes, counted):
        assert counts == SimplicialComplex.face_counts(komplex)
        assert dim == SimplicialComplex.dim.fget(komplex)
        assert is_empty == SimplicialComplex.is_empty.fget(komplex)


@settings(max_examples=40, deadline=None)
@given(instance=column_immersions())
def test_counted_faces_equal_listed_faces(instance):
    """Two routes to the faces of T, Y and every up-set complex: counted
    from the diagram, and counted as chains of the Grothendieck poset,
    besides listed off T's order complex; and the reduced Euler
    characteristic of the counts equals that of the Betti numbers reduced
    on the cells.  Y is not listed: over S^1 it has some 2 * 10^5
    simplices."""
    im, x = instance
    rep = build_representation(im, x)
    for komplex in hocolim_complexes(rep):
        counts = komplex.face_counts()
        betti = reduced_betti(komplex)
        assert komplex._simplices is None
        assert reduced_euler(counts) == sum((-1) ** k * b for k, b in betti.items())
        assert counts == chain_counts(numbered_grothendieck_poset(komplex))
    assert rep.T.face_counts() == SimplicialComplex.face_counts(rep.T)


def exported_hocolims(instance) -> list:
    """T, the up-set complex of an atom and, over S^0, Y of a
    representation; over S^1 Y has some 2 * 10^4 facets, too many for the
    export oracle."""
    im, x = instance
    rep = build_representation(im, x)
    return [rep.T] + [rep.upset_complex(a) for a in rep.lattice.atoms[:1]] + ([rep.Y] if x.dim == 0 else [])


def diagram_hocolims(diagram) -> list:
    """The hocolim of a diagram and its parts over the up-set of each
    element."""
    whole, poset = hocolim(diagram), diagram.poset
    return [whole.complex] + [whole.over_upset(lambda q, p=p: poset.leq(p, q)) for p in poset.elements]


@settings(max_examples=40, deadline=None)
@given(
    komplexes=st.one_of(
        column_immersions().map(exported_hocolims), random_inclusion_diagrams().map(diagram_hocolims)
    )
)
@example(
    komplexes=diagram_hocolims(
        InclusionDiagram(
            FinitePoset(range(3), [(0, 1), (0, 2)]),
            {0: sphere(1), 1: SimplicialComplex([(0,)]), 2: SimplicialComplex.empty()},
        )
    )
)
def test_hocolim_exports_equal_the_export_by_definition(komplexes):
    """A hocolim complex exports itself from its spaces and covers by
    number; the export equals the one read off its vertices and facets."""
    for komplex in komplexes:
        assert komplex.to_doc() == to_doc_by_definition(komplex)


@pytest.mark.parametrize(
    "r, n, k, betti",
    [(5, 6, 1, bv({3: 5, 4: 15, 5: 20, 6: 15, 7: 6})), (6, 12, 0, bv({4: 2047}))],
)
def test_counted_faces_out_of_listing_reach_agree_with_the_formula(r, n, k, betti):
    # T has 4.2 * 10^8 simplices over U5,6 x S1 and 6.2 * 10^6 over U6,12 x S0
    im = immersed(uniform(r, n))
    counts = build_representation(im, sphere(k)).T.face_counts()
    assert expected_betti(im, sphere(k)) == betti
    assert reduced_euler(counts) == sum((-1) ** d * b for d, b in betti.items())


def test_formula_agreement_all_instances():
    for name, im, template in representation_instances():
        rep = build_representation(im, template)
        assert reduced_betti(rep.T) == expected_betti(im, template), name


def test_expected_betti_values():
    assert expected_betti(immersed(uniform(3, 4)), sphere(1)) == bv({1: 3, 2: 6, 3: 4})
    assert expected_betti(immersed(uniform(2, 4)), sphere(0)) == bv({0: 7})
    ex = ImmersedMatroid(five_point_matroid(), five_point_immersion())
    assert expected_betti(ex, sphere(0)) == bv({1: 11})


def test_immersion_independence():
    ex = five_point_matroid()
    documented = ImmersedMatroid(ex, five_point_immersion())
    hat = ImmersedMatroid(ex, canonical_immersion(ex, 3))
    assert documented.immersion != hat.immersion
    t1 = reduced_betti(build_representation(documented, sphere(0)).T)
    t2 = reduced_betti(build_representation(hat, sphere(0)).T)
    assert t1 == t2 == bv({1: 11})


@settings(max_examples=20, deadline=None)
@given(instance=column_immersions())
def test_betti_numbers_of_t_do_not_depend_on_the_immersion(instance):
    """Every permutation of the bits of the canonical immersion of a
    random GF(2) or GF(3) column matroid gives T the same Betti numbers,
    those of the formula."""
    im, x = instance
    canonical, rho = canonical_immersion(im.matroid, im.rho), im.rho
    bettis = {
        reduced_betti(
            build_representation(
                ImmersedMatroid(im.matroid, permuted_immersion(canonical, dict(zip(range(1, rho + 1), bits)))), x
            ).T
        )
        for bits in itertools.permutations(range(1, rho + 1))
    }
    assert bettis == {expected_betti(im, x)}


def test_arrangement_flats_poset():
    rep = build_representation(immersed(uniform(2, 3)), sphere(0))
    poset = arrangement_flats(rep)
    # bottom, three single atoms, the full set
    assert len(poset.elements) == 5
    assert arrangement_matches_lattice(rep)
    single = build_representation(immersed(uniform(1, 1)), sphere(0))
    assert len(arrangement_flats(single).elements) == 2


GF2_COLUMNS = st.lists(
    st.tuples(*[st.integers(min_value=0, max_value=1)] * 3), min_size=1, max_size=5
)


@settings(max_examples=30, deadline=None)
@given(columns=GF2_COLUMNS)
def test_random_gf2_matroids_construction_equals_formula(columns):
    """Column matroids of random GF(2) matrices of rank 0 to 3, with loops
    and parallel columns, at their canonical immersion over S^0."""
    m = matroid_of_columns(columns, p=2)
    im, x = immersed(m), sphere(0)
    rep = build_representation(im, x)
    assert reduced_betti(rep.T) == expected_betti(im, x)
    assert arrangement_matches_lattice(rep)


@st.composite
def random_immersions(draw):
    """Column matroids of random GF(2) matrices, immersed at rho = rank to
    rank + 2 flat by flat from the top down: each flat gets the union of
    the values at its upper covers, padded with randomly chosen bits."""
    m = matroid_of_columns(draw(GF2_COLUMNS), p=2)
    lat = m.lattice()
    rho = m.rank_total + draw(st.integers(min_value=0, max_value=2))
    above = {f: [] for f in lat.flats}
    for p, q in lat.covers():
        above[p].append(q)
    value = {}
    for f in sorted(lat.flats, key=lambda f: -lat.rank_of[f]):
        required = frozenset().union(*(value[q] for q in above[f]))
        size = rho - lat.rank_of[f]
        assume(len(required) <= size)
        extra = [i for i in draw(st.permutations(range(1, rho + 1))) if i not in required]
        value[f] = required | frozenset(extra[: size - len(required)])
    return ImmersedMatroid(m, Immersion.from_dict(m, rho, value))


@settings(max_examples=40, deadline=None)
@given(
    im=random_immersions(),
    x=st.sampled_from([sphere(0), sphere(1), SimplicialComplex([(0, 1), (2,)])]),
)
def test_build_diagram_covers_are_inclusions(im, x):
    """``build_diagram`` does not check its inclusions; they hold."""
    diagram = build_diagram(im, x)
    for lower, upper in diagram.poset.covers():
        assert diagram.space(upper).is_subcomplex_of(diagram.space(lower))


@settings(max_examples=40, deadline=None)
@given(
    im=random_immersions(),
    x=st.sampled_from([sphere(0), sphere(1), SimplicialComplex([(0, 1), (2,)])]),
)
def test_flats_with_one_immersion_value_share_one_space(im, x):
    """``build_diagram`` builds one space per distinct immersion value: two
    flats hold the same object exactly when their values are equal, and
    each space equals the join of copies built for its flat alone."""
    diagram = build_diagram(im, x)
    l = im.immersion
    for p in diagram.poset.elements:
        assert diagram.space(p) == copies_complex(x, l(p))
        for q in diagram.poset.elements:
            assert (diagram.space(p) is diagram.space(q)) == (l(p) == l(q))


def test_representation_trusts_its_inclusions(monkeypatch):
    monkeypatch.setattr(
        SimplicialComplex, "is_subcomplex_of", lambda self, other: pytest.fail("checked an inclusion")
    )
    rep = build_representation(immersed(uniform(3, 4)), sphere(0))
    assert reduced_betti(rep.T) == bv({1: 13})


def test_arrangement_matches_lattice_catalog():
    for name, im, template in representation_instances():
        if im.rho == im.matroid.rank_total:
            rep = build_representation(im, template)
            assert arrangement_matches_lattice(rep), name


def permuted_immersion(immersion, perm):
    """``immersion`` with each bit i renamed perm[i], again rank- and
    order-reversing."""
    return Immersion.from_dict(
        immersion.matroid,
        immersion.rho,
        {f: frozenset(perm[i] for i in s) for f, s in immersion.as_dict().items()},
    )


def holding_hocolim_of(a, b):
    """``a``'s representation holding ``b``'s hocolim in place of its own,
    with T cut at ``a``'s bottom.  It is broken on purpose, since
    ``Representation`` builds its own hocolim: where the loops differ, T
    is not a full subcomplex of the Y it holds, and both arrangement
    routes must still agree."""
    rep = Representation.__new__(Representation)
    rep.immersed, rep.template, rep.hocolim = a.immersed, a.template, b.hocolim
    bottom = a.lattice.bottom
    rep.T = b.hocolim.over_upset(lambda p: p != bottom)
    rep._upsets = {bottom: rep.T}
    return rep


def arrangement_instances():
    """The catalog at rho = rank; column matroids of random GF(2) matrices
    at rho = rank or rank + 1, their bits permuted at random; and mismatched
    pairs, a representation of one of these matroids holding the hocolim of
    another on the same ground set."""
    reps = [
        build_representation(im, x)
        for _, im, x in representation_instances()
        if im.rho == im.matroid.rank_total
    ]
    rng, s0 = random.Random(10), sphere(0)
    genuine = []
    for _ in range(24):
        columns = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(rng.randint(1, 5))]
        m = matroid_of_columns(columns)
        rho = m.rank_total + rng.randint(0, 1)
        bits = rng.sample(range(1, rho + 1), rho)
        l = permuted_immersion(canonical_immersion(m, rho), dict(zip(range(1, rho + 1), bits)))
        genuine.append(build_representation(ImmersedMatroid(m, l), s0))
    reps.extend(genuine)
    for a, b in itertools.permutations(genuine, 2):
        m, n = a.immersed.matroid, b.immersed.matroid
        if m.elements == n.elements and m != n:
            reps.append(holding_hocolim_of(a, b))
    return reps


def test_arrangement_check_agrees_with_definition():
    outcomes = []
    for rep in arrangement_instances():
        assert _closed_atom_sets(rep) == closed_atom_sets_by_subcomplexes(rep)
        outcomes.append(arrangement_matches_lattice(rep))
        assert outcomes[-1] == arrangement_matches_lattice_by_definition(rep)
    assert True in outcomes and False in outcomes


def test_arrangement_check_builds_no_subcomplex(monkeypatch):
    rep = build_representation(immersed(uniform(3, 4)), sphere(0))
    monkeypatch.setattr(Hocolim, "over_upset", lambda self, keep: pytest.fail("built an up-set complex"))
    assert arrangement_matches_lattice(rep)
    assert "atom_subcomplexes" not in vars(rep)


def test_reroute_annihilating():
    m = uniform(2, 3)
    tau = SetMap(m, m, {1: 1, 2: 2, 3: "o"})
    rerouted = reroute_annihilating(tau)
    assert rerouted(frozenset({3})) == frozenset({1})
    assert rerouted(frozenset({1})) == frozenset({1})
    ident = identity_map(m, m)
    from matrep.matroid import induced_flat_map

    assert reroute_annihilating(ident).assignment == induced_flat_map(ident).assignment
    everything_to_zero = SetMap(m, m, {1: "o", 2: "o", 3: "o"})
    with pytest.raises(NoAtomInImage):
        reroute_annihilating(everything_to_zero)


def test_reroute_stays_order_preserving_with_loops():
    # element 1 maps to o; flats above the killed atom must still map above
    # the rerouting atom, which forces joins rather than a pointwise patch
    m = uniform(3, 4)
    tau = SetMap(m, m, {1: "o", 2: 2, 3: 3, 4: 4})
    rerouted = reroute_annihilating(tau)
    lat = m.lattice()
    for p, q in lat.covers():
        assert rerouted(p) <= rerouted(q)
    assert rerouted(frozenset({1})) == frozenset({2})
    assert rerouted(frozenset({1, 3})) == m.closure({2, 3})


def test_induced_map_identity_is_identity():
    m = uniform(2, 3)
    rmap = induced_representation_map(identity_map(m, m), immersed(m), immersed(m), sphere(0))
    assert all(hocolim_vertex_map(rmap)[v] == v for v in rmap.source.vertices)


def test_induced_map_surjective_on_homology():
    m, n, l = rank3_chain()
    s0 = sphere(0)
    rmap = induced_representation_map(identity_map(m, n), immersed(m), immersed(n), s0)
    hm = homology_map(rmap)
    assert len(hm.matrix(1)) == 11 and len(hm.matrix(1)[0]) == 13
    assert hm.is_surjective()
    assert verify_surjectivity(identity_map(m, n), immersed(m), immersed(n), s0)
    assert verify_surjectivity(identity_map(n, l), immersed(n), immersed(l), s0)
    assert verify_surjectivity(identity_map(m, m), immersed(m), immersed(m), s0)


def test_induced_map_with_annihilating_tau_lands_in_target():
    m = uniform(2, 3)
    tau = SetMap(m, m, {1: 1, 2: 2, 3: "o"})
    rmap = induced_representation_map(tau, immersed(m), immersed(m), sphere(0))
    rep = build_representation(immersed(m), sphere(0))
    assert set(hocolim_vertex_map(rmap).values()) <= set(rep.T.vertices)


def test_induced_map_rejects_inadmissible():
    from matrep.engstrom import Immersion

    m = uniform(2, 3)
    l_hat = canonical_immersion(m, 2)
    rotated = Immersion.from_dict(
        m, 2, {f: frozenset(3 - i for i in s) for f, s in l_hat.as_dict().items()}
    )
    with pytest.raises(NotAdmissible):
        induced_representation_map(
            identity_map(m, m),
            ImmersedMatroid(m, l_hat),
            ImmersedMatroid(m, rotated),
            sphere(0),
        )


def test_induced_map_with_template_map():
    # collapse the target template S^1 (triangle) onto one of its vertices is
    # not simplicial on edges; use the inclusion S^0 -> S^1 instead
    m = uniform(2, 3)
    s0, s1 = sphere(0), sphere(1)
    f_x = SimplicialMap(s0, s1, {0: 0, 1: 1})
    rmap = induced_representation_map(
        identity_map(m, m), immersed(m), immersed(m), s0, s1, f_x
    )
    hm = homology_map(rmap)
    # T over S^0 is a wedge of five 0-spheres; over S^1 of three circles and
    # two 0-spheres; the image of H_0 stays inside H_0
    assert hm.source_betti == bv({0: 5})
    assert hm.target_betti == bv({0: 2, 1: 3})




def reversed_immersion(immersion):
    """The immersion i -> rho + 1 - i of ``immersion``, also rank- and
    order-reversing; against a canonical one it is rarely admissible."""
    rho = immersion.rho
    return permuted_immersion(immersion, {i: rho + 1 - i for i in range(1, rho + 1)})


@st.composite
def weak_map_instances(draw):
    """A weak map tau: M -> N of uniform or GF(2) or GF(3) column
    matroids, immersions of M and N at one rho, either
    canonical or reversed, and an injective template map f_x: x -> y,
    S0 -> S0, S1 -> S1 or S0 -> S1.  Over S1 the ranks stay at most 2."""
    s0, s1 = sphere(0), sphere(1)
    x, y = draw(st.sampled_from([(s0, s0), (s0, s0), (s1, s1), (s0, s1)]))
    small = y == s1
    if draw(st.booleans()):
        # every set map U(r, n) -> U(r', n') with r' <= r is weak
        n = draw(st.integers(1, 3 if small else 4))
        r = draw(st.integers(1, min(n, 2 if small else 3)))
        n_prime = draw(st.integers(1, 3))
        top = min(r, n_prime)
        m, t = uniform(r, n), uniform(top - draw(st.integers(0, top)), n_prime)
        values = list(t.elements) + ["o"]
        assignment = {e: draw(st.sampled_from(values)) for e in m.elements}
    else:
        # M's columns over GF(2) or GF(3) are N's columns pulled back along
        # the map, o to the zero column, plus an extra entry over S0: ranks
        # can only drop
        p = draw(st.sampled_from([2, 3]))
        entry = st.integers(0, p - 1)
        target = draw(st.lists(st.tuples(entry, entry).filter(any), min_size=1, max_size=3))
        pulled = draw(st.lists(st.integers(0, len(target)), min_size=1, max_size=4))
        columns = [
            (target[j] if j < len(target) else (0, 0)) + (() if small else (draw(entry),))
            for j in pulled
        ]
        m, t = matroid_of_columns(columns, p), matroid_of_columns(target, p)
        assignment = {e: j + 1 if j < len(target) else "o" for e, j in zip(m.elements, pulled)}
    rho = max(m.rank_total, t.rank_total) + 1 - draw(st.integers(0, 1))
    l, l_prime = canonical_immersion(m, rho), canonical_immersion(t, rho)
    if draw(st.booleans()):
        l = reversed_immersion(l)
    if draw(st.booleans()):
        l_prime = reversed_immersion(l_prime)
    # an injective vertex map from S0 or S1 into S1, or from S0 to S0, is simplicial
    images = draw(st.permutations(sorted(y.vertices)))
    f_x = SimplicialMap(x, y, dict(zip(sorted(x.vertices), images)))
    return SetMap(m, t, assignment), ImmersedMatroid(m, l), ImmersedMatroid(t, l_prime), x, y, f_x


def _outcome(route, *args):
    """The vertex map of a route's map and the facts of its homology map
    that no choice of basis changes: the Betti numbers of both ends, the
    matrix rank per degree and surjectivity; or the type of the refusal."""
    try:
        rmap = route(*args)
    except (NotAdmissible, NoAtomInImage) as refusal:
        return type(refusal)
    hm = homology_map(rmap)
    ranks = {k: rational_rank(matrix) for k, matrix in hm.matrices.items()}
    vertex_map = rmap.vertex_map if isinstance(rmap, SimplicialMap) else hocolim_vertex_map(rmap)
    return vertex_map, hm.source_betti, hm.target_betti, ranks, hm.is_surjective()


def rerouted_past_the_immersion():
    """A weak map whose rerouted flat map raises the rank of a line: the
    atom {4} of the line {2, 3, 4} goes to the bottom and is rerouted to
    {1}, so the line goes to the rank-3 top, outside the immersion."""
    m = matroid_of_columns([(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    n = matroid_of_columns([(0, 0, 1), (1, 0, 0), (0, 1, 0)])
    s0 = sphere(0)
    tau = SetMap(m, n, {1: 1, 2: 2, 3: 3, 4: "o"})
    return tau, immersed(m), immersed(n), s0, s0, SimplicialMap.identity(s0)


@settings(max_examples=40, deadline=None)
@given(instance=weak_map_instances())
@example(instance=rerouted_past_the_immersion())
def test_induced_map_agrees_with_diagram_morphism_route(instance):
    """The map of a weak map, whose homology map reduces prodsimplicial
    cells, has the vertex map, refusals and basis-free homology of the
    simplicial map of order complexes, checked on every facet of T, whose
    homology map reduces simplices.  The two models' homology bases
    differ, so matrices are not compared entrywise."""
    assert classify_map(instance[0]).is_weak
    assert _outcome(induced_representation_map, *instance) == _outcome(
        induced_map_by_morphism, *instance
    )


@settings(max_examples=40, deadline=None)
@given(instance=weak_map_instances())
def test_induced_flat_map_never_raises_rank(instance):
    g = induced_flat_map(instance[0])
    source, target = g.source_lattice, g.target_lattice
    assert all(target.rank_of[g(p)] <= source.rank_of[p] for p in source.flats)


@pytest.mark.parametrize("assignment", [{1: 1, 2: 2, 3: 3}, {1: 1, 2: 2, 3: "o"}])
def test_induced_map_classifies_tau_once(count_calls, assignment):
    calls = count_calls(matroid, "classify_map")
    m = uniform(2, 3)
    tau = SetMap(m, m, assignment)
    induced_representation_map(tau, immersed(m), immersed(m), sphere(0))
    assert len(calls) == 1


@pytest.mark.parametrize("verify", [verify_surjectivity, verify_strict_decrease])
def test_verifiers_classify_tau_once(count_calls, verify):
    calls = count_calls(matroid, "classify_map")
    tau = identity_map(uniform(3, 4), uniform(2, 4))
    assert verify(tau, immersed(uniform(3, 4), rho=3), immersed(uniform(2, 4), rho=3), sphere(0))
    assert calls == [tau]


def test_strict_decrease():
    s0 = sphere(0)
    tau = identity_map(uniform(3, 4), uniform(2, 4))
    assert verify_strict_decrease(tau, immersed(uniform(3, 4), rho=3), immersed(uniform(2, 4), rho=3), s0)
    assert expected_betti(immersed(uniform(3, 4), rho=3), s0) == bv({1: 13})
    assert expected_betti(immersed(uniform(2, 4), rho=3), s0) == bv({1: 7})
    tau2 = identity_map(uniform(2, 4), uniform(1, 4))
    assert verify_strict_decrease(tau2, immersed(uniform(2, 4), rho=2), immersed(uniform(1, 4), rho=2), s0)
    with pytest.raises(ValueError):
        verify_strict_decrease(
            identity_map(uniform(2, 3), uniform(2, 3)),
            immersed(uniform(2, 3)),
            immersed(uniform(2, 3)),
            s0,
        )


def test_stability():
    s0 = sphere(0)
    im3 = immersed(uniform(2, 3), rho=3)
    assert verify_stability(im3, s0)
    assert reduced_betti(build_representation(im3, s0).T) == bv({1: 5})
    im4 = immersed(uniform(2, 3), rho=4)
    assert verify_stability(im4, s0)
    assert reduced_betti(build_representation(im4, s0).T) == bv({2: 5})
    assert verify_stability(immersed(uniform(2, 3)), s0)  # rho = rank: trivial


def test_stability_refuses_rank_zero():
    # T of a rank-0 matroid is S^{-1} at every rho, so no join with the
    # extra power of x can match it
    loop = matroid_of_columns([(0, 0)])
    with pytest.raises(ValueError, match="rank >= 1"):
        verify_stability(immersed(loop, rho=1), sphere(0))


def test_group_action_validation():
    square = SimplicialComplex([(0, 1), (1, 2), (2, 3), (3, 0)])
    rotation = GroupAction(square, [{0: 1, 1: 2, 2: 3, 3: 0}])
    assert rotation.order == 4
    with pytest.raises(NotFree):
        GroupAction(square, [{0: 0, 1: 3, 2: 2, 3: 1}])  # reflection fixes 0 and 2
    with pytest.raises(NotSimplicial):
        GroupAction(square, [{0: 1, 1: 0, 2: 2, 3: 3}])  # sends edge 12 to a diagonal


@settings(max_examples=80, deadline=None)
@given(
    facets=st.lists(
        st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_facet_and_cycle_checks_agree_with_every_simplex(facets, data):
    """Facets onto facets and no cycle inside a facet decide simpliciality
    and freeness as testing every simplex does."""
    vertices = sorted(set().union(*facets))
    perm = dict(zip(vertices, data.draw(st.permutations(vertices))))
    if data.draw(st.booleans()):  # close the facets under perm, which makes it simplicial
        facets = {frozenset(f) for f in facets}
        while True:
            images = {frozenset(map(perm.__getitem__, f)) for f in facets}
            if images <= facets:
                break
            facets |= images
    komplex = SimplicialComplex(facets)
    outcomes = []
    for check in (_check_simplicial_and_free, check_simplicial_and_free_by_simplices):
        try:
            check(komplex, perm)
            outcomes.append(None)
        except (NotSimplicial, NotFree) as refusal:
            outcomes.append(type(refusal))
    assert outcomes[0] == outcomes[1]


def test_equivariance_builds_no_diagram_hocolim_or_map(count_calls):
    """Equivariance is decided on the template: no diagram, hocolim or map
    of hocolims is built, so no representation either."""
    built = [
        count_calls(module, name)
        for module, name in [(engstrom, "build_diagram"), (diagrams, "hocolim"), (diagrams, "HocolimMap")]
    ]
    m, n, _ = rank3_chain()
    s0 = sphere(0)
    assert check_equivariance(swap_action_on_s0(), identity_map(m, n), immersed(m), immersed(n), s0)
    assert built == [[], [], []]


def tampered(action, extra):
    """``action`` with the vertex permutation ``extra`` among its
    non-identity elements, unchecked, as a faulty caller could hand it
    over."""
    elements = action.nonidentity_elements() + [extra]
    action.nonidentity_elements = lambda: elements
    return action


def equivariance_outcome(check, *args):
    """What an equivariance check returns, or the type of its refusal."""
    try:
        return check(*args)
    except (NotSimplicial, NotFree, NotAdmissible, NoAtomInImage) as refusal:
        return type(refusal)


def test_equivariance_agrees_with_y_route_on_the_catalog():
    """The check on the diagrams' spaces and the one on the order complexes
    Y return the same on the catalog chain, and refuse alike an action
    whose identity is listed as a non-identity element, a permutation of a
    path that is not simplicial, and an inadmissible weak map."""
    s0, path = sphere(0), SimplicialComplex([(0, 1), (1, 2)])
    m, n, l = rank3_chain()
    u = uniform(2, 3)
    rotated = Immersion.from_dict(
        u, 2, {f: frozenset(3 - i for i in s) for f, s in canonical_immersion(u, 2).as_dict().items()}
    )
    cases = [
        (swap_action_on_s0, identity_map(a, b), immersed(a), immersed(b), s0)
        for a, b in [(m, m), (m, n), (n, l), (m, l)]
    ]
    m_to_n = (identity_map(m, n), immersed(m), immersed(n))
    cases += [
        (lambda: tampered(swap_action_on_s0(), {0: 0, 1: 1}), *m_to_n, s0),
        (lambda: tampered(GroupAction(path, []), {0: 1, 1: 0, 2: 2}), *m_to_n, path),
        (swap_action_on_s0, identity_map(u, u), immersed(u), ImmersedMatroid(u, rotated), s0),
    ]
    outcomes = []
    for action, *args in cases:
        outcomes.append(equivariance_outcome(check_equivariance, action(), *args))
        assert outcomes[-1] == equivariance_outcome(check_equivariance_on_y, action(), *args)
    assert outcomes == [True] * 4 + [NotFree, NotSimplicial, NotAdmissible]


@st.composite
def identity_weak_maps(draw, max_rho):
    """The identity M -> N of column matroids over GF(2) or GF(3), N's
    columns M's with the last coordinate dropped, so every dependence of
    M holds in N; immersions of both at one rho, canonical or reversed,
    rho M's rank or one more, and at most ``max_rho``."""
    p = draw(st.sampled_from([2, 3]))
    entry = st.integers(0, p - 1)
    columns = draw(st.lists(st.tuples(entry, entry, entry), min_size=1, max_size=4))
    m = matroid_of_columns(columns, p)
    n = matroid_of_columns([c[:2] for c in columns], p)
    assume(m.rank_total <= max_rho)
    rho = m.rank_total + draw(st.integers(0, min(1, max_rho - m.rank_total)))
    l, l_prime = canonical_immersion(m, rho), canonical_immersion(n, rho)
    if draw(st.booleans()):
        l = reversed_immersion(l)
    if draw(st.booleans()):
        l_prime = reversed_immersion(l_prime)
    return identity_map(m, n), ImmersedMatroid(m, l), ImmersedMatroid(n, l_prime)


CYCLE4 = SimplicialComplex([(0, 1), (1, 2), (2, 3), (3, 0)])

# the actions drawn for the template, each with the largest rho it is
# checked at: the swap of S0, the Z/3 rotation of S1, the antipodal Z/2 on
# a 4-cycle, and two of them with a faulty element slipped in, a
# reflection of S1 that fixes a vertex and a vertex swap of the 4-cycle
# that breaks an edge.  Y of the larger templates at rho = 3 has
# thousands of facets, and the check on it takes about a second.
ACTIONS = [
    (swap_action_on_s0, 4),
    (lambda: GroupAction(sphere(1), [{0: 1, 1: 2, 2: 0}]), 2),
    (lambda: GroupAction(CYCLE4, [{0: 2, 1: 3, 2: 0, 3: 1}]), 2),
    (lambda: tampered(GroupAction(sphere(1), [{0: 1, 1: 2, 2: 0}]), {0: 0, 1: 2, 2: 1}), 2),
    (lambda: tampered(GroupAction(CYCLE4, [{0: 2, 1: 3, 2: 0, 3: 1}]), {0: 1, 1: 0, 2: 2, 3: 3}), 2),
]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equivariance_agrees_with_y_route_on_random_weak_maps(data):
    action, max_rho = data.draw(st.sampled_from(ACTIONS))
    tau, im_m, im_n = data.draw(identity_weak_maps(max_rho))
    x = action().complex
    assert classify_map(tau).is_weak
    assert equivariance_outcome(check_equivariance, action(), tau, im_m, im_n, x) == (
        equivariance_outcome(check_equivariance_on_y, action(), tau, im_m, im_n, x)
    )


def test_checks_read_the_diagram_not_t(request):
    """The equivariance, arrangement and x-arrangement checks return the
    same with the building of Grothendieck posets and order complexes
    refused as without."""
    s0 = sphere(0)
    m, n, l = rank3_chain()
    instances = [(im, x) for _, im, x in representation_instances()]
    instances.append((immersed(uniform(4, 5), rho=4), s0))

    def run():
        out = [
            check_equivariance(swap_action_on_s0(), identity_map(a, b), immersed(a), immersed(b), s0)
            for a, b in [(m, m), (m, n), (n, l), (m, l)]
        ]
        for im, x in instances:
            out.append(arrangement_matches_lattice(build_representation(im, x)))
            out.append(vars(verify_xarrangement(build_representation(im, x), x)))
        return out

    expected = run()
    request.getfixturevalue("refuse_to_build_t")
    assert run() == expected


def test_equivariance_catalog():
    action = swap_action_on_s0()
    s0 = sphere(0)
    m, n, l = rank3_chain()
    assert check_equivariance(action, identity_map(m, m), immersed(m), immersed(m), s0)
    assert check_equivariance(action, identity_map(m, n), immersed(m), immersed(n), s0)
    assert check_equivariance(action, identity_map(n, l), immersed(n), immersed(l), s0)


def test_xarrangement_report_minimal_rho():
    s0 = sphere(0)
    rep = build_representation(immersed(uniform(2, 3)), s0)
    report = verify_xarrangement(rep, s0)
    assert report.all_pass
    ex = ImmersedMatroid(five_point_matroid(), five_point_immersion())
    report_ex = verify_xarrangement(build_representation(ex, s0), s0)
    assert report_ex.all_pass


def test_xarrangement_builds_no_order_complex(monkeypatch):
    """verify_xarrangement reads the dimensions of Y and of the up-set
    complexes off their face counts, so it labels no hocolim's vertices or
    facets, which would build its order complex, and reports what it
    reports when it may."""
    instances = [(im, x) for _, im, x in representation_instances()]
    instances.append((immersed(uniform(4, 5), rho=4), sphere(0)))

    def reports():
        return [verify_xarrangement(build_representation(im, x), x) for im, x in instances]

    allowed = reports()
    assert all(report.all_pass for report in allowed)

    def refuse(*args):
        pytest.fail("built an order complex")

    for name in ("_order", "_facets"):
        monkeypatch.setattr(diagrams.HocolimComplex, name, property(refuse))
    assert [vars(report) for report in reports()] == [vars(report) for report in allowed]


def test_xarrangement_above_minimal_rho():
    # At rho above the rank, T is a suspension of the minimal representation.
    # Betti vectors and dimensions cannot tell that suspension apart from a
    # genuine arrangement, so every check in the report still passes; the
    # distinction lives at a finer level than this report measures.
    s0 = sphere(0)
    rep = build_representation(immersed(uniform(2, 3), rho=3), s0)
    report = verify_xarrangement(rep, s0)
    assert report.all_pass
    assert len(report.codimension_drops_ok) == 6


def test_functoriality_on_homology():
    from matrep.complexes import compose_matrices

    m, n, l = rank3_chain()
    s0 = sphere(0)
    h_mn = homology_map(induced_representation_map(identity_map(m, n), immersed(m), immersed(n), s0))
    h_nl = homology_map(induced_representation_map(identity_map(n, l), immersed(n), immersed(l), s0))
    h_ml = homology_map(induced_representation_map(identity_map(m, l), immersed(m), immersed(l), s0))
    product = compose_matrices(h_nl, h_mn)
    for k in set(h_ml.matrices) | set(product):
        assert h_ml.matrices.get(k, []) == product.get(k, [])


def test_identity_weak_maps_give_identity_matrices():
    for name, im, template in representation_instances():
        m = im.matroid
        hm = homology_map(induced_representation_map(identity_map(m, m), im, im, template))
        assert hm.source_betti == hm.target_betti == expected_betti(im, template), name
        for k, matrix in hm.matrices.items():
            size = hm.source_betti[k]
            assert matrix == [[int(i == j) for j in range(size)] for i in range(size)], name


@st.composite
def composable_weak_maps(draw):
    """Weak maps tau1: M -> N and tau2: N -> L of column matroids over GF(2)
    or GF(3), canonically immersed at their largest rank, with S^0 as the
    template.  L's columns are nonzero, and each matroid's columns are those
    of its images under the map with one more entry: the rank of an image
    is never larger, and no element, so no atom, goes to the bottom.
    Canonical immersions are admissible for any weak map, which never
    raises the rank of a flat."""
    p = draw(st.sampled_from([2, 3]))
    entry = st.integers(0, p - 1)
    columns = [draw(st.lists(st.tuples(entry, entry).filter(any), min_size=1, max_size=3))]
    maps = []
    for size in (3, 4):
        images = draw(st.lists(st.integers(0, len(columns[0]) - 1), min_size=1, max_size=size))
        columns.insert(0, [columns[0][j] + (draw(entry),) for j in images])
        maps.insert(0, {e: j + 1 for e, j in enumerate(images, 1)})
    m, n, l = (matroid_of_columns(c, p) for c in columns)
    rho = max(m.rank_total, n.rank_total, l.rank_total)
    tau1, tau2 = SetMap(m, n, maps[0]), SetMap(n, l, maps[1])
    tau21 = SetMap(m, l, {e: tau2(tau1(e)) for e in m.elements})
    return [immersed(matroid, rho) for matroid in (m, n, l)], tau1, tau2, tau21


@settings(max_examples=25, deadline=None)
@given(instance=composable_weak_maps())
def test_homology_maps_of_weak_maps_compose_on_cells(instance):
    """H(tau2) H(tau1) = H(tau2 tau1) on the cells.  The flat map of
    tau2 tau1 lies below the composite of the flat maps, so the two diagram
    morphisms they give are a homotopic pair and must agree on homology."""
    from matrep.complexes import compose_matrices
    from matrep.diagrams import homotopic_pair_check

    (im_m, im_n, im_l), tau1, tau2, tau21 = instance
    s0 = sphere(0)
    h1 = homology_map(induced_representation_map(tau1, im_m, im_n, s0))
    h2 = homology_map(induced_representation_map(tau2, im_n, im_l, s0))
    h21 = homology_map(induced_representation_map(tau21, im_m, im_l, s0))
    product = compose_matrices(h2, h1)
    for k in set(h21.matrices) | set(product):
        assert h21.matrices.get(k, []) == product.get(k, []), k
    lat_m, lat_l = im_m.matroid.lattice(), im_l.matroid.lattice()
    d_m = restrict_diagram(build_diagram(im_m, s0), [p for p in lat_m.flats if p != lat_m.bottom])
    d_l = restrict_diagram(build_diagram(im_l, s0), [p for p in lat_l.flats if p != lat_l.bottom])
    direct = flat_map_morphism(d_m, d_l, induced_flat_map(tau21))
    composed = flat_map_morphism(d_m, d_l, induced_flat_map(tau1).then(induced_flat_map(tau2)))
    assert homotopic_pair_check(direct, composed)


def test_composite_flat_maps_are_homotopic_pair(monkeypatch, refuse_to_build_t):
    # the direct flat map of a composite sits below the composite of the
    # flat maps, so the two diagram morphisms induce homotopic maps; their
    # homology matrices must then be equal.  Both maps run between the same
    # two diagrams, so they share two hocolims and two reductions.
    from matrep.diagrams import homotopic_pair_check, induced_map

    m, _, l = rank3_chain()
    _, n, _ = rank3_chain()
    s0 = sphere(0)
    d_m = build_diagram(immersed(m), s0)
    d_l = build_diagram(immersed(l), s0)
    direct = induced_flat_map(identity_map(m, l))
    composed = induced_flat_map(identity_map(m, n)).then(induced_flat_map(identity_map(n, l)))
    m1 = flat_map_morphism(d_m, d_l, direct)
    m2 = flat_map_morphism(d_m, d_l, composed)
    assert homotopic_pair_check(m1, m2)
    tracked, untracked = count_reductions(monkeypatch)
    h1 = homology_map(induced_map(m1))
    h2 = homology_map(induced_map(m2))
    assert h1.matrices == h2.matrices
    # each of the two Y's gets one tracked reduction, of its cells, which
    # both maps read; the bottom flat is each Y's least element, so its
    # cells are the simplices of the bottom's space.  No Grothendieck
    # element is labelled (the fixture) and no Betti numbers are reduced
    # apart from them
    assert untracked == [] and tracked == [complexes._simplex_boundary] * 2
    for end in ("source", "target"):
        assert getattr(h1.map, end) is getattr(h2.map, end)


@st.composite
def meet_diagrams(draw):
    """An inclusion diagram over a meet-semilattice, as its spaces in poset
    order, its covers, its order, its meet and its template x: the lattice
    diagram of a ``column_immersions()`` draw, or a chain 0 < ... < k whose
    spaces join at most three copies of S^0 or S^1, fewer up the chain."""
    if draw(st.booleans()):
        im, x = draw(column_immersions())
        diagram = build_diagram(im, x)
        spaces = {p: diagram.space(p) for p in diagram.poset.elements}
        return spaces, diagram.poset.covers(), frozenset.issubset, frozenset.intersection, x
    x = sphere(draw(st.sampled_from([0, 1])))
    sizes = sorted(draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5)), reverse=True)
    spaces = {i: copies_complex(x, range(1, n + 1)) for i, n in enumerate(sizes)}
    return spaces, [(i, i + 1) for i in range(len(sizes) - 1)], int.__le__, min, x


class UpsetHocolims:
    """The hocolims of a ``meet_diagrams()`` diagram over its up-sets, one
    complex per up-set, and its meet morphisms: p -> p meet f with the
    copywise vertex map (i, v) -> (i, phi(v)) of x.  D(p) lies in D(p meet
    f), and any vertex map of S^0 or S^1 to itself is simplicial, so each
    is a diagram morphism."""

    def __init__(self, family):
        self.spaces, self.covers, self.leq, self.meet, self.x = family
        self.top = functools.reduce(lambda p, q: q if self.leq(p, q) else p, self.spaces)
        self._complexes = {}

    def upset(self, generators) -> diagrams.HocolimComplex:
        keep = frozenset(p for p in self.spaces if any(self.leq(q, p) for q in generators))
        if keep not in self._complexes:
            spaces = {p: space for p, space in self.spaces.items() if p in keep}
            covers = [(p, q) for p, q in self.covers if p in keep and q in keep]
            self._complexes[keep] = diagrams.HocolimComplex(spaces, covers)
        return self._complexes[keep]

    def map(self, source, target, f, phi) -> diagrams.HocolimMap:
        poset_map = {p: self.meet(p, f) for p in source._space_at}
        return diagrams.HocolimMap(source, target, poset_map, dict.fromkeys(poset_map, lambda v: (v[0], phi[v[1]])))


def full_model(komplex) -> diagrams.HocolimComplex:
    """The same hocolim read on its prodsimplicial model
    (``_prodsimplicial_cells`` with ``_cell_boundary``) even when it has a
    least element."""
    full = diagrams.HocolimComplex(komplex._space_at, komplex._covers)
    full._least = None
    return full


def assert_least_element_models_agree(hocolims, maps):
    """Each map (source, target, f, phi) of ``hocolims`` has the Betti
    numbers and the rank of every homology matrix that it has between the
    full models, and the first two compose to the third on the models
    that the complexes choose."""
    fulls = {}
    homology = []
    for source, target, f, phi in maps:
        h = homology_map(hocolims.map(source, target, f, phi))
        ends = [fulls.setdefault(id(k), full_model(k)) for k in (source, target)]
        oracle = homology_map(hocolims.map(*ends, f, phi))
        assert (h.source_betti, h.target_betti) == (oracle.source_betti, oracle.target_betti)
        assert reduced_betti(source) == reduced_betti(ends[0]) and reduced_betti(target) == reduced_betti(ends[1])
        for k in set(h.matrices) | set(oracle.matrices):
            assert rational_rank(h.matrix(k)) == rational_rank(oracle.matrix(k)), k
        homology.append(h)
    product = complexes.compose_matrices(homology[1], homology[0])
    for k in set(homology[2].matrices) | set(product):
        assert homology[2].matrices.get(k, []) == product.get(k, []), k


@st.composite
def composable_meet_maps(draw):
    """Up-sets U, V, W of a ``meet_diagrams()`` diagram and meet morphisms
    U -> V -> W and their composite U -> W, as ``UpsetHocolims`` and the
    three maps (source, target, f, phi).  Each up-set is generated by the
    image of the one before, up to two more elements and, half of the
    time, the upper covers of the bottom; f is the top half of the time.
    So ends with and without a least element both come up."""
    hocolims = UpsetHocolims(draw(meet_diagrams()))
    elements = list(hocolims.spaces)
    vertices = hocolims.x._vertex_order()

    def some(least, most):  # a random choice of elements, not biased to the first ones
        return draw(st.permutations(elements))[: draw(st.integers(min_value=least, max_value=most))]

    uppers = {q for _, q in hocolims.covers}
    atoms = [q for p, q in hocolims.covers if p not in uppers]  # the upper covers of the bottom
    complexes_, steps = [hocolims.upset(some(1, 2))], []
    for _ in range(2):
        f = draw(st.sampled_from(elements)) if draw(st.booleans()) else hocolims.top
        phi = dict(zip(vertices, draw(st.lists(st.sampled_from(vertices), min_size=len(vertices), max_size=len(vertices)))))
        complexes_.append(hocolims.upset([hocolims.meet(p, f) for p in complexes_[-1]._space_at] + some(0, 2) + draw(st.sampled_from([[], atoms]))))
        steps.append((f, phi))
    (f1, phi1), (f2, phi2) = steps
    u, v, w = complexes_
    composite = hocolims.meet(f1, f2), {a: phi2[phi1[a]] for a in vertices}
    return hocolims, [(u, v, f1, phi1), (v, w, f2, phi2), (u, w, *composite)]


@settings(max_examples=60, deadline=None)
@given(instance=composable_meet_maps())
def test_homology_maps_on_least_element_models_match_the_full_model(instance):
    """Hocolims with a least live element are read on its space's
    simplices, the others on their prodsimplicial cells.  Over random
    up-sets U -> V -> W of lattices and chains, with random meet morphisms
    between them, Betti numbers and homology ranks equal those of the full
    models, and H(g2 g1) = H(g2) H(g1) on the chosen models."""
    assert_least_element_models_agree(*instance)


def test_least_element_models_cover_the_four_pairings():
    """On U3,4 x S0, up(a) -> up({a, b}) -> T -> Y runs collapsed -> full
    -> full -> collapsed, and up(a) -> Y and up(a) -> T close the four
    pairings of collapsed and full ends.  The maps are inclusions, some
    followed by the swap of S^0."""
    im, x = immersed(uniform(3, 4)), sphere(0)
    diagram = build_diagram(im, x)
    hocolims = UpsetHocolims(({p: diagram.space(p) for p in diagram.poset.elements}, diagram.poset.covers(), frozenset.issubset, frozenset.intersection, x))
    lat = im.matroid.lattice()
    a, b = lat.atoms[:2]
    up_a, up_ab, t, y = (hocolims.upset(g) for g in ([a], [a, b], lat.atoms, [lat.bottom]))
    assert [k._least for k in (up_a, up_ab, t, y)] == [a, None, None, lat.bottom]
    top, swap, same = lat.top, {0: 1, 1: 0}, {0: 0, 1: 1}
    assert_least_element_models_agree(hocolims, [(up_a, up_ab, top, swap), (up_ab, t, top, same), (up_a, t, top, swap)])
    assert_least_element_models_agree(hocolims, [(t, y, top, swap), (y, y, top, swap), (t, y, top, same)])
    assert_least_element_models_agree(hocolims, [(up_a, t, top, same), (t, y, top, swap), (up_a, y, top, swap)])


HOMOLOGY_MATRICES = Path(__file__).resolve().parent / "data" / "homology_matrices.json"


def pinned_homology_maps() -> dict:
    """Name -> homology map, for the maps whose matrices
    ``data/homology_matrices.json`` pins: the maps of
    ``test_least_element_models_cover_the_four_pairings``, the catalog
    chain funcM -> funcN -> funcL over S^0, the simplicial map of that
    chain's first weak map on the order complexes, and a circle wrapped
    twice around a triangle."""
    im, x = immersed(uniform(3, 4)), sphere(0)
    diagram = build_diagram(im, x)
    hocolims = UpsetHocolims(({p: diagram.space(p) for p in diagram.poset.elements}, diagram.poset.covers(), frozenset.issubset, frozenset.intersection, x))
    lat = im.matroid.lattice()
    a, b = lat.atoms[:2]
    ends = dict(zip(["up(a)", "up(a,b)", "T", "Y"], (hocolims.upset(g) for g in ([a], [a, b], lat.atoms, [lat.bottom]))))
    swap, same = {0: 1, 1: 0}, {0: 0, 1: 1}
    pairs = [
        ("up(a)", "up(a,b)", swap), ("up(a,b)", "T", same), ("up(a)", "T", swap), ("up(a)", "T", same),
        ("T", "Y", swap), ("T", "Y", same), ("Y", "Y", swap), ("up(a)", "Y", swap),
    ]
    maps = {}
    for s, t, phi in pairs:
        name = f"U3,4 x S0 {s} -> {t}{' swapped' if phi is swap else ''}"
        maps[name] = homology_map(hocolims.map(ends[s], ends[t], lat.top, phi))
    chain = dict(zip("MNL", rank3_chain()))
    for s, t in ("MN", "NL", "ML"):
        tau, im_s, im_t = identity_map(chain[s], chain[t]), immersed(chain[s]), immersed(chain[t])
        maps[f"func{s} -> func{t} x S0"] = homology_map(induced_representation_map(tau, im_s, im_t, x))
    tau = identity_map(chain["M"], chain["N"])
    ims = immersed(chain["M"]), immersed(chain["N"])
    maps["funcM -> funcN x S0 on order complexes"] = homology_map(induced_map_by_morphism(tau, *ims, x, x, SimplicialMap.identity(x)))
    hexagon = SimplicialComplex((i, (i + 1) % 6) for i in range(6))
    maps["hexagon wrapped twice on a triangle"] = homology_map(SimplicialMap(hexagon, sphere(1), {i: i % 3 for i in range(6)}))
    return maps


def homology_doc(h) -> dict:
    """A homology map's Betti numbers and matrices, each entry as the
    string of its exact value (an int or a ``Fraction``)."""
    return {
        "source_betti": h.source_betti.to_doc(),
        "target_betti": h.target_betti.to_doc(),
        "matrices": {str(k): [[str(v) for v in row] for row in m] for k, m in sorted(h.matrices.items())},
    }


def test_homology_matrices_equal_their_pins():
    """Homology bases are canonical per model, so the matrices of these
    maps are fixed entry by entry; the pins were written by
    ``homology_doc`` before homology maps read one chain-model value, and
    a change that moves a basis or an entry fails here."""
    pins = json.loads(HOMOLOGY_MATRICES.read_text())
    docs = {name: homology_doc(h) for name, h in pinned_homology_maps().items()}
    assert docs == pins
    assert any(len(row) > 1 for doc in docs.values() for m in doc["matrices"].values() for row in m)


@settings(max_examples=60, deadline=None)
@given(instance=column_immersions())
def test_xarrangement_holds_on_random_immersions(instance):
    """Y and the up-set complexes of random GF(2)/GF(3) matroids, under
    permuted immersions, intersect like join powers of x."""
    im, x = instance
    assert verify_xarrangement(build_representation(im, x), x).all_pass


def test_colim_agrees_with_hocolim_on_full_lattice_diagrams():
    # over the whole lattice the bottom carries the largest space, so the
    # union collapses to it and both constructions read off the join power
    from matrep.diagrams import colim

    for name, im, template in representation_instances()[:4]:
        diagram = build_diagram(im, template)
        left = reduced_betti(colim(diagram))
        right = reduced_betti(hocolim(diagram).complex)
        assert left == right == reduced_betti(copies_complex(template, range(im.rho))), name
