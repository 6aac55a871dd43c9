import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matrep.complexes import (
    BettiVector,
    NotSimplicial,
    SimplicialComplex,
    SimplicialMap,
    compose_matrices,
    copies_complex,
    homology_map,
    reduced_betti,
    sphere,
)
import matrep
from matrep import linalg
from matrep.engstrom import _layer_betti
from matrep.labels import format_label, label_formatter

from oracles import (
    betti_by_gf_rank,
    boundary_columns,
    boundary_rows,
    compose,
    disjoint_union,
    full_subcomplex,
    gf_rank,
    join,
    layer_by_construction,
    nonempty_simplices,
    two_triangle_complex,
)


def bv(counts):
    return BettiVector(counts)


def euler_characteristic(komplex):
    return sum((-1) ** k * n for k, n in komplex.face_counts().items())


def test_sphere_shapes():
    s0 = sphere(0)
    assert len(s0.vertices) == 2 and s0.dim == 0
    s1 = sphere(1)
    assert reduced_betti(s1) == bv({1: 1})
    empty = sphere(-1)
    assert empty.is_empty
    assert reduced_betti(empty) == bv({-1: 1})
    with pytest.raises(ValueError):
        sphere(-2)


def test_empty_vs_point():
    point = SimplicialComplex([[0]])
    assert SimplicialComplex.empty() != point
    assert reduced_betti(point) == bv({})


def test_facets_are_normalized():
    k = SimplicialComplex([(1, 2), (1,), (2, 3), (2,)])
    assert k.facets == frozenset({frozenset({1, 2}), frozenset({2, 3})})


def test_join_examples():
    four_cycle = join(sphere(0), sphere(0))
    assert reduced_betti(four_cycle) == bv({1: 1})
    a = two_triangle_complex()
    assert join(a, SimplicialComplex.empty()) == a
    assert join(SimplicialComplex.empty(), a) == a
    assert reduced_betti(join(sphere(0), sphere(1))) == bv({2: 1})


def test_iterated_join():
    assert reduced_betti(copies_complex(sphere(0), range(2))) == bv({1: 1})
    relabeled = copies_complex(two_triangle_complex(), range(1))
    assert reduced_betti(relabeled) == bv({})
    assert len(relabeled.vertices) == 4
    assert copies_complex(sphere(0), range(0)).is_empty


def test_join_powers_are_spheres():
    for d in range(5):
        expected = bv({d - 1: 1})
        assert reduced_betti(copies_complex(sphere(0), range(d))) == expected


def test_suspension():
    # the k-fold suspension is the join with k copies of S^0
    def suspension(a, k):
        return join(a, copies_complex(sphere(0), range(k)))

    assert reduced_betti(suspension(sphere(0), 1)) == bv({1: 1})
    a = two_triangle_complex()
    assert suspension(a, 0) == a
    assert reduced_betti(suspension(SimplicialComplex.empty(), 2)) == bv({1: 1})


def test_disjoint_union():
    assert reduced_betti(disjoint_union(sphere(0), sphere(0))) == bv({0: 3})
    a = two_triangle_complex()
    assert disjoint_union(a, SimplicialComplex.empty()) == a
    assert reduced_betti(disjoint_union(sphere(1), sphere(1))) == bv({0: 1, 1: 2})


def test_reduced_betti_examples():
    assert reduced_betti(sphere(1)) == bv({1: 1})
    assert reduced_betti(join(sphere(0), sphere(0))) == bv({1: 1})
    assert reduced_betti(two_triangle_complex()) == bv({})


def test_betti_against_gf_oracle():
    instances = [
        sphere(1),
        join(sphere(0), sphere(1)),
        copies_complex(sphere(0), range(3)),
        two_triangle_complex(),
        disjoint_union(sphere(1), sphere(0)),
    ]
    for komplex in instances:
        assert dict(reduced_betti(komplex).items()) == betti_by_gf_rank(komplex)


def test_prime_field_fast_path_matches_rationals():
    """The kernel's rank over Q against the oracle's rank over GF(997)."""
    complexes = [
        sphere(2),
        copies_complex(sphere(0), range(3)),
        join(sphere(1), sphere(0)),
        two_triangle_complex(),
    ]
    for komplex in complexes:
        for k in range(0, komplex.dim + 1):
            rows, ncols = boundary_rows(komplex, k)
            pivots, _ = linalg.reduce_columns((c, {}) for c in boundary_columns(komplex, k))
            assert len(pivots) == gf_rank(rows, ncols)


def test_reduce_columns_scales_non_unit_pivots_exactly():
    """Pivot entries 2 and -3 are scaled to 1 by exact Fractions, in the
    column and in its tracked part, and a later column reduces to zero
    against them, leaving its cycle."""
    columns = [
        ({0: 1, 3: 2}, {0: 1}),
        ({1: 6, 2: -3}, {1: 1}),
        ({0: 2, 3: 4}, {5: 1}),
    ]
    pivots, cycles = linalg.reduce_columns(columns)
    assert pivots == {
        3: ({0: Fraction(1, 2), 3: 1}, {0: Fraction(1, 2)}),
        2: ({1: -2, 2: 1}, {1: Fraction(-1, 3)}),
    }
    for column, tracked in pivots.values():
        assert all(type(v) is Fraction for v in [*column.values(), *tracked.values()])
    assert cycles == {2: {5: 1, 0: -2}}


def test_import_loads_no_unneeded_modules():
    """``import matrep`` loads neither numpy nor the stdlib modules the
    package does without: ``dataclasses`` (which loads ``inspect``), and
    ``fractions``, which the kernel imports at its first non-unit pivot."""
    src = str(Path(matrep.__file__).resolve().parents[1])
    unneeded = ["numpy", "dataclasses", "inspect", "fractions"]
    probe = f"import sys, matrep; print([m for m in {unneeded!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_euler_characteristic_matches_betti():
    instances = [
        sphere(0),
        sphere(1),
        sphere(2),
        join(sphere(0), sphere(1)),
        two_triangle_complex(),
        disjoint_union(sphere(1), sphere(1)),
    ]
    for komplex in instances:
        betti = reduced_betti(komplex)
        alt = sum((-1) ** k * betti[k] for k in range(0, komplex.dim + 1))
        assert alt + 1 == euler_characteristic(komplex)


JOIN_TEST_FAMILY = {
    "S-1": sphere(-1),
    "S0": sphere(0),
    "S1": sphere(1),
    "two-triangle": two_triangle_complex(),
}


def test_join_betti_formula_on_family():
    for a_name, b_name in itertools.product(JOIN_TEST_FAMILY, repeat=2):
        a, b = JOIN_TEST_FAMILY[a_name], JOIN_TEST_FAMILY[b_name]
        assert reduced_betti(join(a, b)) == reduced_betti(a).join_with(reduced_betti(b))


def test_join_associative_up_to_relabeling():
    family = list(JOIN_TEST_FAMILY.values())
    for a, b, c in itertools.combinations(family, 3):
        left = reduced_betti(join(join(a, b), c))
        right = reduced_betti(join(a, join(b, c)))
        assert left == right


# random complexes on at most six vertices
FACET_LISTS = st.lists(
    st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
    min_size=0,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(facets=FACET_LISTS)
def test_random_complex_euler_identity(facets):
    komplex = SimplicialComplex(facets)
    betti = reduced_betti(komplex)
    assert dict(betti.items()) == betti_by_gf_rank(komplex)
    alt = sum((-1) ** k * betti[k] for k in range(0, max(komplex.dim, 0) + 1))
    if komplex.is_empty:
        assert betti == bv({-1: 1})
    else:
        assert alt + 1 == euler_characteristic(komplex)


@settings(max_examples=60, deadline=None)
@given(
    facets=FACET_LISTS,
    probe=st.frozensets(st.integers(min_value=0, max_value=7) | st.just("a"), max_size=4),
)
def test_has_simplex_matches_faces_of_facets(facets, probe):
    """Lookups of vertex sets, some holding labels that are no vertex of
    the complex, against every face of every facet."""
    komplex = SimplicialComplex(facets)
    simplices = nonempty_simplices(komplex)
    assert komplex.has_simplex(probe) == (probe in simplices)
    assert all(komplex.has_simplex(s) for s in simplices)
    # dimension -1 of the simplex table holds (), which is no simplex here
    assert not komplex.has_simplex(())


@settings(max_examples=40, deadline=None)
@given(facets=FACET_LISTS, kept=st.sets(st.integers(min_value=0, max_value=5)))
def test_random_homology_maps_are_functorial(facets, kept):
    komplex = SimplicialComplex(facets)
    h_id = homology_map(SimplicialMap.identity(komplex))
    assert h_id.source_betti == reduced_betti(komplex)
    for k, matrix in h_id.matrices.items():
        b = h_id.source_betti[k]
        assert matrix == [[int(r == c) for c in range(b)] for r in range(b)]
    assert h_id.target_betti == h_id.source_betti

    sub = full_subcomplex(komplex, kept)
    incl = SimplicialMap(sub, komplex, {v: v for v in sub.vertices})
    composed = homology_map(compose(incl, SimplicialMap.identity(komplex)))
    assert composed.matrices == compose_matrices(h_id, homology_map(incl))

    # a point has no reduced homology: a constant map is onto, and zero, so
    # one-to-one only from an acyclic complex
    point = SimplicialComplex([["c"]])
    constant = homology_map(SimplicialMap(komplex, point, {v: "c" for v in komplex.vertices}))
    assert constant.is_surjective()
    assert constant.target_betti == bv({})
    assert all(matrix == [] for matrix in constant.matrices.values())


@settings(max_examples=40, deadline=None)
@given(facets=FACET_LISTS, e=st.integers(min_value=0, max_value=3), k=st.integers(min_value=0, max_value=2))
def test_layer_betti_matches_construction(facets, e, k):
    """The formula side's Betti arithmetic (Kunneth for joins) against the
    suspended join power built as a complex and reduced."""
    x = SimplicialComplex(facets)
    assume(len(x.vertices) <= 5)
    # keep the built layer small: its simplices are products of the factors'
    assume((len(nonempty_simplices(x)) + 1) ** e * 3**k <= 10000)
    layer = layer_by_construction(x, e, k)
    assert _layer_betti(reduced_betti(x), e, k) == reduced_betti(layer)
    assert e * (x.dim + 1) - 1 == layer_by_construction(x, e, 0).dim
    assert layer.dim == e * (x.dim + 1) - 1 + k


def test_betti_vector_arithmetic():
    a = bv({0: 1, 1: 2})
    b = bv({1: 1})
    assert a + b == bv({0: 1, 1: 3})
    assert a.scale(3) == bv({0: 3, 1: 6})
    assert bv({-1: 1}).join_with(a) == a  # the empty complex is the join unit
    assert [a[k] for k in range(3)] == [1, 2, 0]
    assert a.dominates(b) and not b.dominates(a)


def test_simplicial_map_validation():
    s1 = sphere(1)
    with pytest.raises(NotSimplicial):
        SimplicialMap(s1, sphere(0), {0: 0, 1: 1, 2: 1})
    ident = SimplicialMap.identity(s1)
    assert ident.is_inclusion()
    with pytest.raises(ValueError):
        SimplicialMap(s1, s1, {0: 0})


def test_homology_map_identity_and_constant():
    s1 = sphere(1)
    ident = homology_map(SimplicialMap.identity(s1))
    assert ident.matrix(1) == [[Fraction(1)]]
    point = SimplicialComplex([["c"]])
    constant = homology_map(SimplicialMap(s1, point, {v: "c" for v in s1.vertices}))
    assert constant.matrix(1) == []
    assert constant.target_betti == bv({})


def test_homology_map_fold():
    double = disjoint_union(sphere(0), sphere(0))
    fold = SimplicialMap(double, sphere(0), {v: v[1] for v in double.vertices})
    hm = homology_map(fold)
    matrix = hm.matrix(0)
    assert len(matrix) == 1 and len(matrix[0]) == 3
    assert hm.is_surjective()


def test_homology_map_composition_is_matrix_product():
    double = disjoint_union(sphere(0), sphere(0))
    include = SimplicialMap(sphere(0), double, {0: (0, 0), 1: (0, 1)})
    fold = SimplicialMap(double, sphere(0), {v: v[1] for v in double.vertices})
    h_include = homology_map(include)
    h_fold = homology_map(fold)
    composed = homology_map(compose(include, fold))
    product = compose_matrices(h_fold, h_include)
    for k in set(composed.matrices) | set(product):
        assert composed.matrices.get(k, []) == product.get(k, [])


def test_export_round_trip():
    for komplex in (sphere(1), two_triangle_complex(), join(sphere(0), sphere(0))):
        doc = komplex.to_doc()
        again = SimplicialComplex.from_doc(doc)
        assert reduced_betti(again) == reduced_betti(komplex)
        assert again.to_doc() == doc


def test_export_is_deterministic():
    a = copies_complex(sphere(0), range(2)).to_doc()
    b = copies_complex(sphere(0), range(2)).to_doc()
    assert a == b


def test_label_formatter_keeps_ints_and_bools_apart():
    fmt = label_formatter()
    assert fmt(frozenset({(1, "a"), (0, frozenset({2, 1}))})) == "{(0,{1,2}),(1,a)}"
    assert fmt(1) == "1" and fmt((1, "a")) == "(1,a)"
    with pytest.raises(TypeError):
        fmt(True)
    with pytest.raises(TypeError):
        format_label(True)
