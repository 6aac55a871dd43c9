import gc
import itertools
import random
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matrep import complexes, diagrams, labels, matroid
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
from matrep.diagrams import Hocolim, hocolim
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
    check_simplicial_and_free_by_simplices,
    closed_atom_sets_by_subcomplexes,
    full_subcomplex,
    induced_map_by_morphism,
    matroid_of_columns,
    restrict_diagram,
)


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


def count_reductions(count_calls) -> tuple:
    """The complexes whose homology is reduced from here on, in order: the
    tracked simplicial reductions of ``HomologyMap``, and the untracked
    reductions of their cells behind ``reduced_betti``."""
    simplicial = count_calls(complexes, "_reduction", lambda komplex: komplex._reduction is None)
    cellular = count_calls(complexes, "reduced_betti", lambda komplex: komplex._betti_numbers is None)
    return simplicial, cellular


def test_expected_betti_reduces_only_the_template(count_calls):
    x = sphere(1)
    simplicial, cellular = count_reductions(count_calls)
    assert expected_betti(immersed(uniform(4, 5)), x) == bv({2: 4, 3: 10, 4: 10, 5: 5})
    assert expected_betti(immersed(uniform(2, 3), rho=6), x) == bv({8: 2, 9: 3})
    assert simplicial == [] and cellular == [x]


def test_xarrangement_builds_each_upset_complex_once(monkeypatch, count_calls):
    im, x = immersed(uniform(4, 5), rho=4), sphere(0)
    rep = build_representation(im, x)
    original = Hocolim.over_upset
    built = []

    def counting(self, keep):
        built.append(original(self, keep))
        return built[-1]

    monkeypatch.setattr(Hocolim, "over_upset", counting)
    simplicial, cellular = count_reductions(count_calls)
    assert verify_xarrangement(rep, x).all_pass
    upper_flats = [f for f in rep.lattice.flats if f != rep.lattice.bottom]
    # x, Y and each up-set complex once, the last two on their cell models;
    # no tracked reduction
    assert simplicial == [] and cellular[0] is x
    assert len(cellular) == len(set(map(id, cellular))) == len(upper_flats) + 2 == 28
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
    assert rep.T._simplices is None and rep.T._reduction is None


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
    cells, boundary = komplex._cells()
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
        assert komplex._reduction is None and komplex._simplices is None
        assert cellular == complexes._betti(complexes._reduction(komplex))


def test_betti_numbers_after_a_homology_map_come_from_the_cells(monkeypatch):
    """A homology map into T caches T's simplicial reduction; T's Betti
    numbers are still reduced from its prodsimplicial cells, once."""
    m, n, _ = rank3_chain()
    s0 = sphere(0)
    hm = homology_map(induced_representation_map(identity_map(m, n), immersed(m), immersed(n), s0))
    target = hm.map.target
    assert target._reduction is not None and target._betti_numbers is None
    read = []
    original = target._cells

    def cells():
        read.append(original())
        return read[-1]

    monkeypatch.setattr(target, "_cells", cells)
    assert reduced_betti(target) == hm.target_betti == expected_betti(immersed(n), s0)
    assert reduced_betti(target) is target._betti_numbers
    assert [boundary for _, boundary in read] == [diagrams._cell_boundary]


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
            reps.append(Representation(a.immersed, s0, b.hocolim))
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
    assert all(rmap.vertex_map[v] == v for v in rmap.source.vertices)


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
    assert set(rmap.vertex_map.values()) <= set(rep.T.vertices)


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


NONZERO_GF2_PAIR = st.sampled_from([(1, 0), (0, 1), (1, 1)])
BIT = st.integers(min_value=0, max_value=1)


def reversed_immersion(immersion):
    """The immersion i -> rho + 1 - i of ``immersion``, also rank- and
    order-reversing; against a canonical one it is rarely admissible."""
    rho = immersion.rho
    return permuted_immersion(immersion, {i: rho + 1 - i for i in range(1, rho + 1)})


@st.composite
def weak_map_instances(draw):
    """A weak map tau: M -> N, immersions of M and N at one rho, either
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
        # M's columns are N's columns pulled back along the map, o to the
        # zero column, plus an extra bit over S0: ranks can only drop
        target = draw(st.lists(NONZERO_GF2_PAIR, min_size=1, max_size=3))
        pulled = draw(st.lists(st.integers(0, len(target)), min_size=1, max_size=4))
        columns = [
            (target[j] if j < len(target) else (0, 0)) + (() if small else (draw(BIT),))
            for j in pulled
        ]
        m, t = matroid_of_columns(columns), matroid_of_columns(target)
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
    """The vertex map and homology matrices of a route's map, or the type
    of the refusal."""
    try:
        rmap = route(*args)
    except (NotAdmissible, NoAtomInImage) as refusal:
        return type(refusal)
    return rmap.vertex_map, homology_map(rmap).matrices


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
    """Reading the map off T gives the vertex map, homology matrices and
    refusals of the map of hocolims of a diagram morphism."""
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


def test_equivariance_builds_one_hocolim_per_side(count_calls):
    built = count_calls(diagrams, "grothendieck_poset")
    m, n, _ = rank3_chain()
    s0 = sphere(0)
    assert check_equivariance(swap_action_on_s0(), identity_map(m, n), immersed(m), immersed(n), s0)
    assert len(built) == 2


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


def test_composite_flat_maps_are_homotopic_pair(count_calls):
    # the direct flat map of a composite sits below the composite of the
    # flat maps, so the two diagram morphisms induce homotopic maps; their
    # homology matrices must then be equal.  Both maps run between the same
    # two diagrams, so they share two hocolims and two reductions.
    from matrep.diagrams import DiagramMorphism, homotopic_pair_check, induced_map
    from matrep.matroid import induced_flat_map

    m, _, l = rank3_chain()
    _, n, _ = rank3_chain()
    s0 = sphere(0)
    d_m = build_diagram(immersed(m), s0)
    d_l = build_diagram(immersed(l), s0)
    direct = induced_flat_map(identity_map(m, l))
    composed = induced_flat_map(identity_map(m, n)).then(induced_flat_map(identity_map(n, l)))

    def morphism_for(flat_map):
        poset_map = {p: flat_map(p) for p in d_m.poset.elements}
        components = {}
        for p in d_m.poset.elements:
            src = d_m.space(p)
            components[p] = SimplicialMap(src, d_l.space(poset_map[p]), {v: v for v in src.vertices})
        return DiagramMorphism(d_m, d_l, poset_map, components)

    m1 = morphism_for(direct)
    m2 = morphism_for(composed)
    assert homotopic_pair_check(m1, m2)
    built = count_calls(diagrams, "grothendieck_poset")
    reduced = count_reductions(count_calls)
    h1 = homology_map(induced_map(m1))
    h2 = homology_map(induced_map(m2))
    assert h1.matrices == h2.matrices
    # each of the two Y's gets one tracked reduction, and no Betti numbers
    # are reduced apart from them
    simplicial, cellular = reduced
    assert len(built) == 2 and len(simplicial) == 2 and cellular == []
    assert {id(y) for y in simplicial} == {id(h1.map.source), id(h1.map.target)}


def test_colim_agrees_with_hocolim_on_full_lattice_diagrams():
    # over the whole lattice the bottom carries the largest space, so the
    # union collapses to it and both constructions read off the join power
    from matrep.diagrams import colim

    for name, im, template in representation_instances()[:4]:
        diagram = build_diagram(im, template)
        left = reduced_betti(colim(diagram))
        right = reduced_betti(hocolim(diagram).complex)
        assert left == right == reduced_betti(copies_complex(template, range(im.rho))), name
