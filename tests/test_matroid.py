import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matrep
from matrep.catalog import (
    catalog_matroid,
    catalog_names,
    five_point_matroid,
    identity_map,
    rank3_chain,
)
from matrep.matroid import (
    ExchangeFailure,
    GeometricLattice,
    KOutOfRange,
    Matroid,
    MatroidError,
    NotEquicardinal,
    NotIntersectionClosed,
    NotMatroidal,
    NotSurjective,
    SetMap,
    UnknownElement,
    classify_map,
    factor_through_truncation,
    induced_flat_map,
    matroid_from_bases,
    matroid_from_flats,
    truncate,
    uniform,
    whitney_first,
)

from oracles import (
    all_set_maps,
    brute_closure,
    brute_rank,
    exchange_failures_by_definition,
    geometric_lattice_violations,
    lattice_covers_by_definition,
    matroid_of_columns,
    mobius_by_chain_counting,
    mobius_by_recursion,
    sorted_flats,
    surjection_rank_witness,
    weak_by_definition,
)

FIVE_POINT_FLATS = {
    frozenset(),
    frozenset({1, 2}),
    frozenset({3}),
    frozenset({4}),
    frozenset({5}),
    frozenset({1, 2, 3, 4}),
    frozenset({1, 2, 5}),
    frozenset({3, 5}),
    frozenset({4, 5}),
    frozenset({1, 2, 3, 4, 5}),
}


def test_matroid_from_bases_uniform():
    m = matroid_from_bases([1, 2, 3], [{1, 2}, {1, 3}, {2, 3}])
    assert m == uniform(2, 3)
    m34 = matroid_from_bases(range(1, 5), itertools.combinations(range(1, 5), 3))
    assert m34 == uniform(3, 4)


def test_matroid_from_bases_rejects_unequal_sizes():
    with pytest.raises(NotEquicardinal):
        matroid_from_bases([1, 2], [{1}, {2}, {1, 2}])


def test_matroid_from_bases_rejects_exchange_failure():
    with pytest.raises(ExchangeFailure) as info:
        matroid_from_bases([1, 2, 3, 4], [{1, 2}, {3, 4}])
    assert info.value.witness is not None


def down_closure(tops) -> set:
    return {frozenset(c) for t in tops for k in range(len(t) + 1) for c in itertools.combinations(t, k)}


@st.composite
def subset_closed_families(draw):
    """Every subset of up to four random sets over at most five elements."""
    elements = range(draw(st.integers(min_value=1, max_value=5)))
    tops = draw(st.lists(st.frozensets(st.sampled_from(elements)), min_size=1, max_size=4))
    return elements, down_closure(tops)


@settings(max_examples=100, deadline=None)
@given(drawn=subset_closed_families())
@example(drawn=(range(4), down_closure([{1, 2, 3}, {0}])))  # fails on sizes 1, 2 only
def test_exchange_checked_on_consecutive_sizes(drawn):
    elements, family = drawn
    failures = exchange_failures_by_definition(family)
    if not failures:
        assert Matroid(elements, family).independents == family
        return
    with pytest.raises(ExchangeFailure) as info:
        Matroid(elements, family)
    assert info.value.witness in failures


def subset_closed_families_on(n):
    """Every nonempty subset-closed family of subsets of range(n): each mask,
    in increasing order, is dropped or kept, and kept only where every mask
    one smaller was kept."""
    families = [[]]
    for m in range(1 << n):
        below = [m ^ (1 << i) for i in range(n) if m >> i & 1]
        families += [f + [m] for f in families if all(b in f for b in below)]
    return [{frozenset(i for i in range(n) if m >> i & 1) for m in f} for f in families if f]


def test_axioms_checked_on_every_small_subset_closed_family():
    accepted = []
    for n in range(5):
        families = subset_closed_families_on(n)
        assert len(families) == [1, 2, 5, 19, 167][n]
        count = 0
        for family in families:
            failures = exchange_failures_by_definition(family)
            if not failures:
                assert Matroid(range(n), family).independents == family
                count += 1
                continue
            with pytest.raises(ExchangeFailure) as info:
                Matroid(range(n), family)
            assert info.value.witness in failures
        accepted.append(count)
    assert accepted == [1, 2, 5, 16, 68]  # labeled matroids, OEIS A058673


def test_exchange_witness_at_the_cap():
    with pytest.raises(ExchangeFailure) as info:
        matroid_from_bases(range(1, 13), [range(1, 7), range(7, 13)])
    family = down_closure([range(1, 7), range(7, 13)])
    assert len(family) == 127
    assert info.value.witness in exchange_failures_by_definition(family)


@pytest.mark.parametrize("family", [[(1, 2)], [(), (1, 2)], [(), (1,), (1, 2)]])
def test_family_must_hold_the_empty_set_and_be_subset_closed(family):
    with pytest.raises(MatroidError) as info:
        Matroid([1, 2], family)
    assert type(info.value) is MatroidError


def test_zero_label_is_reserved():
    with pytest.raises(MatroidError):
        Matroid(["o", "a"], [(), ("a",)])


def test_matroid_from_flats_five_point_example():
    m = matroid_from_flats(range(1, 6), FIVE_POINT_FLATS)
    assert m == five_point_matroid()
    assert m.rank_total == 3
    assert len(m.lattice().flats) == 10
    assert set(five_point_matroid().lattice().flats) == FIVE_POINT_FLATS


def test_matroid_from_flats_rank3_chain_member():
    _, _, l = rank3_chain()
    assert l.rank_total == 3
    assert len(l.lattice().flats) == 8


def test_matroid_from_flats_requires_ground_set():
    with pytest.raises(NotIntersectionClosed):
        matroid_from_flats([1, 2], [frozenset(), frozenset({1})])


def test_matroid_from_flats_requires_intersections():
    with pytest.raises(NotIntersectionClosed):
        matroid_from_flats([1, 2, 3], [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 2, 3})])


def test_missing_intersection_is_named_alike_under_every_hash_seed():
    """The refusal names the first missing meet in mask order, here the
    empty intersection of {a, b} and {c, d}, whatever the string hashes."""
    src = str(Path(matrep.__file__).resolve().parents[1])
    probe = (
        "from matrep.matroid import matroid_from_flats\n"
        "try:\n"
        "    matroid_from_flats('abcd', ['ab', 'bc', 'cd', 'ad', 'abcd'])\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert outs == {"NotIntersectionClosed missing intersection []\n"}


def test_refusals_name_sets_alike_under_every_hash_seed():
    """Refusals print sets of string labels in label order, and a stray
    flat is the first one in label order, whatever the string hashes."""
    src = str(Path(matrep.__file__).resolve().parents[1])
    probe = (
        "from matrep.engstrom import ImmersedMatroid, Immersion, canonical_immersion\n"
        "from matrep.matroid import matroid_from_bases, matroid_from_flats\n"
        "m = matroid_from_bases('abc', ['ab', 'ac', 'bc'])\n"
        "values = canonical_immersion(m, 2).as_dict()\n"
        "values[frozenset('abc')] = frozenset({1})\n"
        "for build in (\n"
        "    lambda: matroid_from_flats('abc', ['abc', 'xy', 'zw']),\n"
        "    lambda: matroid_from_bases('abc', ['ab', 'abc']),\n"
        "    lambda: ImmersedMatroid(m, Immersion.from_dict(m, 2, values)),\n"
        "):\n"
        "    try:\n"
        "        build()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert outs == {
        "UnknownElement flat ['w', 'z'] leaves the ground set\n"
        "NotEquicardinal bases ['a', 'b'] and ['a', 'b', 'c'] differ in size\n"
        "InvalidImmersion rank reversal fails at ['a', 'b', 'c']\n"
    }


def test_matroid_from_flats_rejects_non_matroidal_family():
    with pytest.raises(NotMatroidal):
        matroid_from_flats([1, 2, 3], [frozenset(), frozenset({1}), frozenset({1, 2, 3})])


def test_uniform_shapes():
    lat = uniform(2, 3).lattice()
    assert len(lat.atoms) == 3 and lat.top == frozenset({1, 2, 3})
    lat34 = uniform(3, 4).lattice()
    # boolean lattice up to rank 2, then the top
    assert [sum(1 for f in lat34.flats if lat34.rank_of[f] == k) for k in range(4)] == [1, 4, 6, 1]
    lat0 = uniform(0, 2).lattice()
    assert lat0.flats == (frozenset({1, 2}),)


def test_rank_against_brute_force():
    for name in ("U2,3", "U3,4", "explicit"):
        m = catalog_matroid(name)
        for k in range(len(m.elements) + 1):
            for combo in itertools.combinations(m.elements, k):
                assert m.rank(combo) == brute_rank(m, combo)


def test_rank_examples():
    assert uniform(2, 3).rank({1, 2, 3}) == 2
    assert five_point_matroid().rank({1, 2}) == 1
    assert five_point_matroid().rank(()) == 0
    with pytest.raises(UnknownElement):
        uniform(2, 3).rank({9})


def test_closure_examples():
    assert five_point_matroid().closure({1}) == frozenset({1, 2})
    assert uniform(2, 3).closure({1, 2}) == brute_closure(uniform(2, 3), {1, 2}) == frozenset({1, 2, 3})


def test_closure_properties_exhaustive():
    for name in ("U2,4", "explicit", "funcN"):
        m = catalog_matroid(name)
        elements = list(m.elements)
        for k in range(len(elements) + 1):
            for combo in itertools.combinations(elements, k):
                x = frozenset(combo)
                cx = m.closure(x)
                assert x <= cx
                assert m.closure(cx) == cx
        for x in map(frozenset, itertools.combinations(elements, 2)):
            for y_extra in elements:
                y = x | {y_extra}
                assert m.closure(x) <= m.closure(y)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_monotone_random(data):
    m = catalog_matroid(data.draw(st.sampled_from(list(catalog_names()))))
    elements = list(m.elements)
    x = frozenset(data.draw(st.sets(st.sampled_from(elements))))
    y = x | frozenset(data.draw(st.sets(st.sampled_from(elements))))
    assert m.closure(x) <= m.closure(y)
    assert m.rank(x) <= len(x)


def test_lattice_counts():
    assert len(uniform(2, 4).lattice().flats) == 6
    assert len(five_point_matroid().lattice().flats) == 10
    assert len(uniform(1, 1).lattice().flats) == 2


def test_lattice_covers_match_definition():
    for name in catalog_names():
        lat = catalog_matroid(name).lattice()
        assert lat.covers() == tuple(lattice_covers_by_definition(lat)), name
        assert lat.covers() is lat.covers()


def test_lattice_semimodular_and_atomic():
    # construction checks neither property, as both are theorems for the
    # flats of a matroid; check them on the catalog and every truncation
    for name in catalog_names():
        m = catalog_matroid(name)
        for k in range(m.rank_total + 1):
            lat = truncate(m, k).lattice()
            assert geometric_lattice_violations(lat) == [], (name, k)
            for p, q in itertools.combinations(lat.flats, 2):
                assert lat.rank_of[p] + lat.rank_of[q] >= lat.rank_of[p & q] + lat.rank_of[lat.join(p, q)]


@st.composite
def column_matroids(draw):
    """Column matroids of up to five random GF(2) or GF(3) columns of
    length three, loops and parallel columns included."""
    p = draw(st.sampled_from([2, 3]))
    column = st.tuples(*[st.integers(min_value=0, max_value=p - 1)] * 3)
    return matroid_of_columns(draw(st.lists(column, min_size=1, max_size=5)), p=p)


@settings(max_examples=40, deadline=None)
@given(m=column_matroids(), data=st.data())
def test_flats_form_a_geometric_lattice(m, data):
    k = data.draw(st.integers(min_value=0, max_value=m.rank_total))
    assert geometric_lattice_violations(truncate(m, k).lattice()) == []


@settings(max_examples=40, deadline=None)
@given(m=column_matroids())
def test_matroid_from_flats_round_trips(m):
    assert matroid_from_flats(m.elements, m.lattice().flats) == m


@settings(max_examples=40, deadline=None)
@given(m=column_matroids())
def test_closure_table_against_brute_force(m):
    lat = m.lattice()
    for k in range(len(m.elements) + 1):
        for combo in itertools.combinations(m.elements, k):
            assert m.closure(combo) == lat.closure(combo) == brute_closure(m, combo)


def test_lattice_makes_no_join(monkeypatch):
    calls = []
    original = GeometricLattice.join

    def counting(self, p, q):
        calls.append((p, q))
        return original(self, p, q)

    monkeypatch.setattr(GeometricLattice, "join", counting)
    assert len(uniform(4, 8).lattice().flats) == 1 + 8 + 28 + 56 + 1
    assert calls == []


def test_mobius_against_chain_counting_oracle():
    for name in ("U2,3", "U2,4", "funcN", "funcL"):
        lat = catalog_matroid(name).lattice()
        assert lat.mobius() == mobius_by_chain_counting(lat)


def test_mobius_by_closures_matches_recursion_on_catalog():
    for name in catalog_names():
        m = catalog_matroid(name)
        for k in range(m.rank_total + 1):
            lat = truncate(m, k).lattice()
            assert lat.mobius() == mobius_by_recursion(lat), (name, k)


@settings(max_examples=60, deadline=None)
@given(m=column_matroids())
def test_mobius_by_closures_matches_recursion(m):
    # loops and parallel columns included, so the bottom flat may be nonempty
    lat = m.lattice()
    assert lat.mobius() == mobius_by_recursion(lat)


def test_mobius_examples():
    lat24 = uniform(2, 4).lattice()
    mu = lat24.mobius()
    assert all(mu[a] == -1 for a in lat24.atoms)
    assert mu[lat24.top] == 3
    _, n, _ = rank3_chain()
    assert n.lattice().mobius()[frozenset({2, 3, 4})] == 2


def test_mobius_recursion_identity():
    for name in catalog_names():
        lat = catalog_matroid(name).lattice()
        mu = lat.mobius()
        for p in lat.flats:
            if p != lat.bottom:
                assert sum(mu[q] for q in lat.flats if q <= p) == 0
            assert mu[p] != 0


def test_whitney_vectors():
    assert whitney_first(uniform(3, 4)).as_list() == [1, 4, 6, 3]
    assert whitney_first(rank3_chain()[2]).as_list() == [1, 3, 3, 1]
    assert whitney_first(uniform(1, 5)).as_list() == [1, 1]
    assert whitney_first(five_point_matroid()).as_list() == [1, 4, 5, 2]


def test_whitney_uniform_closed_form():
    # w_i = C(n, i) below the top rank, w_r = C(n-1, r-1)
    from math import comb

    for r, n in [(2, 3), (2, 4), (3, 4), (3, 5)]:
        w = whitney_first(uniform(r, n))
        assert w.as_list() == [1] + [comb(n, i) for i in range(1, r)] + [comb(n - 1, r - 1)]


def test_truncate():
    assert truncate(uniform(3, 4), 1) == uniform(2, 4)
    m = five_point_matroid()
    assert truncate(m, 0) == m
    assert truncate(m, m.rank_total).rank_total == 0
    with pytest.raises(KOutOfRange):
        truncate(m, 4)


def test_truncate_flats():
    m = five_point_matroid()
    t = truncate(m, 1)
    expected = {f for f in m.lattice().flats if m.rank(f) < 2} | {frozenset(m.elements)}
    assert set(t.lattice().flats) == expected


def test_classify_map_examples():
    m, n, _ = rank3_chain()
    cls = classify_map(identity_map(m, n))
    assert cls.is_weak and cls.is_surjective and not cls.is_strong
    ident = classify_map(identity_map(m, m))
    assert ident.is_weak and ident.is_strong and ident.is_surjective
    u23 = uniform(2, 3)
    to_zero = SetMap(u23, u23, {1: "o", 2: "o", 3: "o"})
    cls0 = classify_map(to_zero)
    assert cls0.is_weak and not cls0.is_non_annihilating


SMALL_PAIRS = [
    (uniform(2, 2), uniform(1, 2)),
    (uniform(2, 3), uniform(2, 2)),
    (uniform(1, 2), uniform(2, 3)),
]


def test_weak_characterizations_agree_exhaustively():
    for src, tgt in SMALL_PAIRS:
        for setmap in all_set_maps(src, tgt):
            weak = weak_by_definition(setmap)
            assert classify_map(setmap).is_weak == weak
            if not weak:
                with pytest.raises(MatroidError):
                    induced_flat_map(setmap)


def test_induced_flat_map_examples():
    m, n, l = rank3_chain()
    ml = induced_flat_map(identity_map(m, l))
    assert ml(frozenset({3, 4})) == frozenset({3, 4})
    composed = induced_flat_map(identity_map(m, n)).then(induced_flat_map(identity_map(n, l)))
    assert composed(frozenset({3, 4})) == frozenset({2, 3, 4})
    ident = induced_flat_map(identity_map(m, m))
    assert all(ident(p) == p for p in m.lattice().flats)


def test_whitney_monotone_under_surjective_weak_maps():
    m, n, l = rank3_chain()
    pairs = [(m, n), (n, l), (m, l), (uniform(3, 4), uniform(2, 4))]
    for name in catalog_names():
        src = catalog_matroid(name)
        pairs.extend((src, truncate(src, k)) for k in range(1, src.rank_total + 1))
    for src, tgt in pairs:
        cls = classify_map(identity_map(src, tgt))
        assert cls.is_weak and cls.is_surjective
        assert whitney_first(src).dominates(whitney_first(tgt))
    assert not whitney_first(uniform(2, 4)).dominates(whitney_first(uniform(3, 4)))


def test_truncation_whitney_inequality():
    for name in ("U3,4", "explicit", "funcN", "funcL"):
        m = catalog_matroid(name)
        r = m.rank_total
        w = whitney_first(m)
        for n in range(1, r):
            wt = whitney_first(truncate(m, r - n))
            assert all(w[k] == wt[k] for k in range(n))
            assert w[n] >= wt[n]


def assert_order_isomorphism(g):
    """g is a bijection onto the target flats that preserves and reflects
    containment."""
    flats = g.source_lattice.flats
    assert sorted_flats(g(p) for p in flats) == sorted_flats(g.target_lattice.flats)
    assert all((p <= q) == (g(p) <= g(q)) for p in flats for q in flats)


def test_strong_maps_give_order_isomorphisms():
    # surjective strong maps between equal-rank catalog matroids
    for name in ("U2,3", "U3,4", "explicit"):
        m = catalog_matroid(name)
        assert_order_isomorphism(induced_flat_map(identity_map(m, m)))
    relabel = SetMap(uniform(2, 3), uniform(2, 3), {1: 2, 2: 3, 3: 1})
    assert classify_map(relabel).is_strong
    assert_order_isomorphism(induced_flat_map(relabel))


def test_factor_through_truncation():
    f = identity_map(uniform(3, 4), uniform(2, 4))
    id_k, tau_k = factor_through_truncation(f)
    assert classify_map(id_k).is_weak and classify_map(tau_k).is_weak
    assert id_k.target == uniform(2, 4)
    assert all(tau_k(e) == e for e in tau_k.source.elements)
    equal = identity_map(uniform(2, 3), uniform(2, 3))
    id_0, tau_0 = factor_through_truncation(equal)
    assert id_0.target == uniform(2, 3)
    deep = identity_map(uniform(3, 4), uniform(1, 4))
    id_2, tau_2 = factor_through_truncation(deep)
    assert classify_map(id_2).is_weak and classify_map(tau_2).is_weak
    assert id_2.target.rank_total == 1
    non_surjective = SetMap(uniform(2, 3), uniform(2, 3), {1: 1, 2: 1, 3: 1})
    with pytest.raises(NotSurjective):
        factor_through_truncation(non_surjective)


def test_factorization_composes_back():
    f = identity_map(uniform(3, 4), uniform(2, 4))
    id_k, tau_k = factor_through_truncation(f)
    assert id_k.target == tau_k.source
    assert {e: tau_k(id_k(e)) for e in f.assignment} == f.assignment


def test_surjection_rank_witness():
    m, n, _ = rank3_chain()
    f = identity_map(m, n)
    assert surjection_rank_witness(f, frozenset({2, 3, 4})) == frozenset({2, 3})
    assert surjection_rank_witness(f, n.lattice().bottom) == m.lattice().bottom
    top_witness = surjection_rank_witness(f, n.lattice().top)
    assert m.rank(top_witness) == n.rank_total


def test_surjection_rank_witness_all_flats():
    """The witness is a source flat of the target flat's rank whose image
    closes to it, for the chain maps and for every surjective weak map of
    the exhaustive small pairs; nothing re-checks this at run time."""
    m, n, l = rank3_chain()
    maps = [identity_map(m, n), identity_map(n, l)]
    for src, tgt in SMALL_PAIRS:
        maps.extend(f for f in all_set_maps(src, tgt) if classify_map(f).is_weak and classify_map(f).is_surjective)
    assert len(maps) > 2
    for f in maps:
        fm = induced_flat_map(f)
        for flat in f.target.lattice().flats:
            w = surjection_rank_witness(f, flat)
            assert f.source.closure(w) == w
            assert fm(w) == flat
            assert f.source.rank(w) == f.target.rank(flat)
