"""Built-in instances used by the verification suites and the CLI.

Everything here is constructed from first principles (independent sets or
flat families), so acceptance runs need no external data files.
"""

from __future__ import annotations

import re

from .complexes import SimplicialComplex, SimplicialMap, sphere
from .diagrams import DiagramMorphism, FinitePoset, InclusionDiagram
from .engstrom import GroupAction, Immersion, ImmersedMatroid, immersed
from .matroid import Matroid, SetMap, matroid_from_flats, uniform


def five_point_matroid() -> Matroid:
    """A rank-3 matroid on [5] with a doubled point and one dependent triple.

    Its ten flats make it the smallest catalog member whose lattice is not
    uniform; the companion immersion below is the standard worked example.
    """
    independents = [
        (),
        (1,), (2,), (3,), (4,), (5,),
        (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
        (1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5), (3, 4, 5),
    ]
    return Matroid(range(1, 6), independents)


def five_point_immersion() -> Immersion:
    """The documented 3-immersion of the five-point matroid.

    Atom values are {1,2}, {1,3}, {1,3}, {2,3}; the values on higher flats
    are forced by order- and rank-reversal.
    """
    m = five_point_matroid()
    mapping = {
        frozenset(): frozenset({1, 2, 3}),
        frozenset({1, 2}): frozenset({1, 2}),
        frozenset({3}): frozenset({1, 3}),
        frozenset({4}): frozenset({1, 3}),
        frozenset({5}): frozenset({2, 3}),
        frozenset({1, 2, 3, 4}): frozenset({1}),
        frozenset({1, 2, 5}): frozenset({2}),
        frozenset({3, 5}): frozenset({3}),
        frozenset({4, 5}): frozenset({3}),
        frozenset({1, 2, 3, 4, 5}): frozenset(),
    }
    return Immersion.from_dict(m, 3, mapping)


def rank3_chain() -> tuple[Matroid, Matroid, Matroid]:
    """Three rank-3 matroids on [4], weakly ordered by the identity map.

    M is uniform; N glues 2,3,4 into a plane; L additionally doubles 3,4.
    The identity maps M -> N -> L are surjective weak maps, and the chain is
    the standard witness that flat maps do not compose on the nose.
    """
    m = uniform(3, 4)
    n_flats = [(), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4), (2, 3, 4), (1, 2, 3, 4)]
    l_flats = [(), (1,), (2,), (3, 4), (1, 2), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4)]
    n = matroid_from_flats(range(1, 5), n_flats)
    l = matroid_from_flats(range(1, 5), l_flats)
    return m, n, l


CATALOG_MATROIDS = {
    "U1,2": lambda: uniform(1, 2),
    "U2,3": lambda: uniform(2, 3),
    "U2,4": lambda: uniform(2, 4),
    "U3,4": lambda: uniform(3, 4),
    "explicit": five_point_matroid,
    "funcM": lambda: rank3_chain()[0],
    "funcN": lambda: rank3_chain()[1],
    "funcL": lambda: rank3_chain()[2],
}


def catalog_matroid(name: str) -> Matroid:
    match = re.fullmatch(r"U(\d+),(\d+)", name)
    if match:
        return uniform(int(match.group(1)), int(match.group(2)))
    if name in CATALOG_MATROIDS:
        return CATALOG_MATROIDS[name]()
    raise KeyError(f"unknown catalog matroid {name!r}")


def catalog_names() -> list[str]:
    return sorted(CATALOG_MATROIDS)


def identity_map(source: Matroid, target: Matroid) -> SetMap:
    return SetMap.identity(source, target)


def representation_instances() -> list[tuple[str, ImmersedMatroid, SimplicialComplex]]:
    """The instances over which construction and formula are compared."""
    _, n, l = rank3_chain()
    s0, s1 = sphere(0), sphere(1)
    return [
        ("U2,3 x S0", immersed(uniform(2, 3)), s0),
        ("U2,4 x S0", immersed(uniform(2, 4)), s0),
        ("U3,4 x S0", immersed(uniform(3, 4)), s0),
        ("explicit x S0", ImmersedMatroid(five_point_matroid(), five_point_immersion()), s0),
        ("funcN x S0", immersed(n), s0),
        ("funcL x S0", immersed(l), s0),
        ("U2,3 x S1", immersed(uniform(2, 3)), s1),
        ("U2,4 x S1", immersed(uniform(2, 4)), s1),
    ]


def _circle_and_cones():
    circle = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])
    cone_d = SimplicialComplex([("a", "b", "d"), ("b", "c", "d"), ("a", "c", "d")])
    cone_e = SimplicialComplex([("a", "b", "e"), ("b", "c", "e"), ("a", "c", "e")])
    return circle, cone_d, cone_e


def contrast_diagrams():
    """Two diagrams over the poset q < p > q' telling colim and hocolim apart.

    The circle at the top includes into two disks below.  Constant maps are
    encoded as mapping cylinders: each disk is a cone over the circle.  In
    the first diagram the cone apexes differ, so the union is a suspension
    of the circle; in the second both poset elements carry the *same* cone
    (shared vertices), so the union collapses to one contractible cone while
    the homotopy colimit still suspends the circle.

    Returns (first, second, morphism collapsing the first onto the second).
    """
    circle, cone_d, cone_e = _circle_and_cones()
    poset = FinitePoset(["p", "q", "q2"], [("q", "p"), ("q2", "p")])
    first = InclusionDiagram(poset, {"p": circle, "q": cone_d, "q2": cone_e})
    second = InclusionDiagram(poset, {"p": circle, "q": cone_d, "q2": cone_d})
    collapse = SimplicialMap(
        cone_e, cone_d, {"a": "a", "b": "b", "c": "c", "e": "d"}
    )
    morphism = DiagramMorphism(
        first,
        second,
        {"p": "p", "q": "q", "q2": "q2"},
        {
            "p": SimplicialMap.identity(circle),
            "q": SimplicialMap.identity(cone_d),
            "q2": collapse,
        },
    )
    return first, second, morphism


def swap_action_on_s0():
    """The two-element antipodal action on the 0-sphere."""
    s0 = sphere(0)
    return GroupAction(s0, [{0: 1, 1: 0}])
