"""The benchmark's workloads: instances that call matrep and check its answers.

Each instance builds fresh matrep objects from plain data (or from the
fixed catalog), so per-object caches such as `Matroid.lattice()` and
`SimplicialComplex.simplices_by_dim()` are paid on every pass, as one CLI
invocation pays them.  An instance returns the list of answers that
disagree with the benchmark's own (oracle.py); an empty list means the
instance was completed and verified.

Homology maps are checked only on facts that do not depend on the choice
of homology bases: Betti numbers, matrix ranks, surjectivity, and equality
of two matrices between the same pair of complexes.

Why these workloads (see README.md for the numbers behind them):
- represent: builds T and its Betti numbers; `diagrams` (the order complex
  of the Grothendieck poset) does almost all of the work, dense `linalg`
  none.
- maps: homology maps induced by weak maps; dense `Fraction` `linalg`
  dominates while the posets stay small.
- matroids (run by hand, not listed in BENCHMARK.json): the matroid
  layer alone (validation, lattice, Mobius, weak maps); no topology, so
  topology changes must leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import permuted_immersion, profiled_table, window_table
from oracle import (
    RankTable,
    betti_closed_form,
    fraction_rank,
    grothendieck_size,
    join_power_betti,
)

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())


@dataclass
class Instance:
    name: str
    run: Callable[[], list]
    # sizes the traced run accepts for the instance's Grothendieck posets:
    # over the whole lattice, or over the lattice minus its bottom
    grothendieck: tuple = ()


@dataclass
class Workload:
    small: list
    large: list


def export_digest(komplex) -> str:
    """sha256 of T exported as `matrep represent --out` writes it."""
    text = json.dumps(komplex.to_doc(), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def betti_of(betti) -> dict:
    return dict(betti.items())


# GF(2) columns for the catalog matroids, so their answers come from the
# benchmark's own rank tables and not from matrep
CATALOG_TABLES = {
    "U2,3": RankTable.uniform(2, 3),
    "U2,4": RankTable.uniform(2, 4),
    "U3,4": RankTable.uniform(3, 4),
    "funcM": RankTable.uniform(3, 4),
    "funcN": RankTable.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)], 2),
    "funcL": RankTable.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)], 2),
    "explicit": RankTable.from_columns([(1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 2),
}


def independent_family(table: RankTable) -> set:
    return {frozenset(s) for s in table.independents()}


# ---------------------------------------------------------------- represent


def represent(mr, name, make, table, rho, k, expect=None) -> Instance:
    """build_representation, then T's Betti numbers against the closed form,
    the formula side, the predicted vertex count and, where pinned, the
    export digest; the arrangement check when rho equals the rank."""
    expect = betti_closed_form(table.whitney(), rho, k) if expect is None else expect
    vertices = grothendieck_size(table, rho, k, with_bottom=False)
    family = independent_family(table)
    pin = PINS.get(name)

    def run():
        im, x = make()
        problems = []
        if set(im.matroid.independents) != family:
            problems.append("input matroid differs from the benchmark's rank table")
        rep = mr.build_representation(im, x)
        got = betti_of(mr.reduced_betti(rep.T))
        if got != expect:
            problems.append(f"betti(T) {got} != closed form {expect}")
        formula = betti_of(mr.expected_betti(im, x))
        if formula != expect:
            problems.append(f"expected_betti {formula} != closed form {expect}")
        if len(rep.T.vertices) != vertices:
            problems.append(f"T has {len(rep.T.vertices)} vertices, predicted {vertices}")
        if pin is not None:
            counts = {str(d): c for d, c in rep.T.face_counts().items()}
            if counts != pin["face_counts"]:
                problems.append(f"face counts {counts} != pinned {pin['face_counts']}")
            if export_digest(rep.T) != pin["sha256"]:
                problems.append("T export differs from the pinned sha256")
        if rho == table.rank and not mr.arrangement_matches_lattice(rep):
            problems.append("arrangement does not recover the lattice")
        return problems

    sizes = tuple(grothendieck_size(table, rho, k, with_bottom=b) for b in (True, False))
    return Instance(name, run, sizes)


def catalog_represent(mr) -> list:
    """The eight catalog.representation_instances(), each built on its own."""
    cat = mr.catalog

    def uniform_at_rank(r, n):
        return lambda: mr.immersed(mr.uniform(r, n))

    makers = [
        ("U2,3", "S0", uniform_at_rank(2, 3)),
        ("U2,4", "S0", uniform_at_rank(2, 4)),
        ("U3,4", "S0", uniform_at_rank(3, 4)),
        ("explicit", "S0", lambda: mr.ImmersedMatroid(cat.five_point_matroid(), cat.five_point_immersion())),
        ("funcN", "S0", lambda: mr.immersed(cat.rank3_chain()[1])),
        ("funcL", "S0", lambda: mr.immersed(cat.rank3_chain()[2])),
        ("U2,3", "S1", uniform_at_rank(2, 3)),
        ("U2,4", "S1", uniform_at_rank(2, 4)),
    ]
    out = []
    for matroid_name, template, make_im in makers:
        table = CATALOG_TABLES[matroid_name]
        k = int(template[1:])

        def make(make_im=make_im, k=k):
            return make_im(), mr.sphere(k)

        out.append(represent(mr, f"{matroid_name} x {template}", make, table, table.rank, k))
    return out


def seeded_represent(mr, name, table, rho, k, rng) -> Instance:
    n = table.n
    independents = table.independents()
    immersion = permuted_immersion(table, rho, rng.sample(range(1, rho + 1), rho))

    def make():
        m = mr.Matroid(range(1, n + 1), independents)
        values = {frozenset(f): frozenset(s) for f, s in immersion.items()}
        return mr.ImmersedMatroid(m, mr.Immersion.from_dict(m, rho, values)), mr.sphere(k)

    return represent(mr, name, make, table, rho, k)


def uniform_represent(mr, r, n, rho, k) -> Instance:
    def make():
        return mr.immersed(mr.uniform(r, n), rho=rho), mr.sphere(k)

    return represent(mr, f"U{r},{n} x S{k} rho={rho}", make, RankTable.uniform(r, n), rho, k)


def represent_workload(mr, seed) -> Workload:
    rng = random.Random(f"{seed}/represent")
    seeded = [
        seeded_represent(mr, f"GF({q}) r3 n{n} #{i} x S0", profiled_table(rng, q, 3, n), 3, 0, rng)
        for i in range(2)
        for q, n in [(2, 5), (3, 5), (2, 6), (3, 6)]
    ]
    # U3,4 x S1 (34-36 s per pass at the seed commit) is left out: one sample
    # per run cannot be made steady on a shared host; see README.md
    large = [uniform_represent(mr, *args) for args in [(4, 5, 4, 0), (2, 3, 4, 0)]]
    return Workload(catalog_represent(mr) + seeded, large)


# --------------------------------------------------------------------- maps


def check_surjection(h, source, target) -> list:
    """Betti numbers of both ends against the closed forms, and full row
    rank in every degree (a surjection on homology)."""
    problems = []
    if betti_of(h.source_betti) != source:
        problems.append(f"source betti {betti_of(h.source_betti)} != {source}")
    if betti_of(h.target_betti) != target:
        problems.append(f"target betti {betti_of(h.target_betti)} != {target}")
    for d, b in target.items():
        rank = fraction_rank(h.matrix(d))
        if rank != b:
            problems.append(f"degree {d}: matrix rank {rank}, target betti {b}")
    if not h.is_surjective():
        problems.append("is_surjective() is False")
    return problems


def chain_maps(mr) -> list:
    """funcM -> funcN -> funcL and the direct funcM -> funcL; the last one
    also checks functoriality against compose_matrices of the latest maps
    of the first two (bases are canonical per complex, so any run's maps
    compose)."""
    betti = {
        name: betti_closed_form(CATALOG_TABLES[name].whitney(), 3, 0)
        for name in ("funcM", "funcN", "funcL")
    }
    done = {}

    def instance(src, tgt):
        def run():
            m, n, l = mr.catalog.rank3_chain()
            objs = {"funcM": m, "funcN": n, "funcL": l}
            a, b = objs[src], objs[tgt]
            tau = mr.SetMap.identity(a, b)
            h = mr.homology_map(
                mr.induced_representation_map(tau, mr.immersed(a), mr.immersed(b), mr.sphere(0))
            )
            problems = check_surjection(h, betti[src], betti[tgt])
            if (src, tgt) != ("funcM", "funcL"):
                done[src, tgt] = h
                return problems
            h_mn = done.get(("funcM", "funcN"))
            h_nl = done.get(("funcN", "funcL"))
            if h_mn is None or h_nl is None:
                return problems + ["functoriality: a factor map was never computed"]
            product = mr.complexes.compose_matrices(h_nl, h_mn)
            for d in set(h.matrices) | set(product):
                if h.matrices.get(d, []) != product.get(d, []):
                    problems.append(f"functoriality fails in degree {d}")
            return problems

        return Instance(f"chain {src}->{tgt}", run)

    return [instance("funcM", "funcN"), instance("funcN", "funcL"), instance("funcM", "funcL")]


def strict_decrease(mr) -> Instance:
    source = betti_closed_form(RankTable.uniform(3, 4).whitney(), 3, 0)
    target = betti_closed_form(RankTable.uniform(2, 4).whitney(), 3, 0)

    def run():
        im_m = mr.immersed(mr.uniform(3, 4), rho=3)
        im_n = mr.immersed(mr.uniform(2, 4), rho=3)
        tau = mr.SetMap.identity(im_m.matroid, im_n.matroid)
        problems = []
        if not mr.verify_strict_decrease(tau, im_m, im_n, mr.sphere(0)):
            problems.append("verify_strict_decrease is False")
        for im, want in ((im_m, source), (im_n, target)):
            got = betti_of(mr.expected_betti(im, mr.sphere(0)))
            if got != want:
                problems.append(f"expected_betti {got} != closed form {want}")
        return problems

    return Instance("strict decrease U3,4->U2,4 rho=3", run)


def equivariance(mr) -> list:
    def instance(src, tgt):
        def run():
            m, n, l = mr.catalog.rank3_chain()
            objs = {"funcM": m, "funcN": n, "funcL": l}
            a, b = objs[src], objs[tgt]
            ok = mr.check_equivariance(
                mr.catalog.swap_action_on_s0(), mr.SetMap.identity(a, b),
                mr.immersed(a), mr.immersed(b), mr.sphere(0),
            )
            return [] if ok else ["check_equivariance is False"]

        return Instance(f"swap equivariance {src}->{tgt}", run)

    return [instance("funcM", "funcM"), instance("funcM", "funcN"), instance("funcN", "funcL")]


def truncation_map(mr, name, table, rng) -> Instance:
    """The identity of a seeded GF(2) matroid onto its truncation by one,
    with the same permuted immersion on both sides (at rho = rank)."""
    rho = table.rank
    trunc = table.truncation(1)
    source = betti_closed_form(table.whitney(), rho, 0)
    target = betti_closed_form(trunc.whitney(), rho, 0)
    n = table.n
    independents, trunc_independents = table.independents(), trunc.independents()
    perm = rng.sample(range(1, rho + 1), rho)
    values = {t: permuted_immersion(t, rho, perm) for t in (table, trunc)}

    def immersion(m, t):
        mapping = {frozenset(f): frozenset(s) for f, s in values[t].items()}
        return mr.ImmersedMatroid(m, mr.Immersion.from_dict(m, rho, mapping))

    def run():
        m = mr.Matroid(range(1, n + 1), independents)
        t = mr.Matroid(range(1, n + 1), trunc_independents)
        tau = mr.SetMap(m, t, {e: e for e in range(1, n + 1)})
        rmap = mr.induced_representation_map(tau, immersion(m, table), immersion(t, trunc), mr.sphere(0))
        return check_surjection(mr.homology_map(rmap), source, target)

    return Instance(name, run)


def composite_pair(mr) -> Instance:
    """The direct and the composed flat maps funcM -> funcL over the full
    lattices: a homotopic pair, so their homology matrices are equal.  Both
    Y are join powers S^0 * S^0 * S^0 = S^2 and the maps are isomorphisms."""
    sphere2 = join_power_betti(3, 0)

    def run():
        m, n, l = mr.catalog.rank3_chain()
        s0 = mr.sphere(0)
        d_m = mr.build_diagram(mr.immersed(m), s0)
        d_l = mr.build_diagram(mr.immersed(l), s0)
        direct = mr.induced_flat_map(mr.SetMap.identity(m, l))
        composed = mr.induced_flat_map(mr.SetMap.identity(m, n)).then(
            mr.induced_flat_map(mr.SetMap.identity(n, l))
        )

        def morphism(flat_map):
            poset_map = {p: flat_map(p) for p in d_m.poset.elements}
            components = {
                p: mr.SimplicialMap(
                    d_m.space(p), d_l.space(poset_map[p]), {v: v for v in d_m.space(p).vertices}
                )
                for p in d_m.poset.elements
            }
            return mr.DiagramMorphism(d_m, d_l, poset_map, components)

        m1, m2 = morphism(direct), morphism(composed)
        problems = [] if mr.homotopic_pair_check(m1, m2) else ["homotopic_pair_check is False"]
        h1 = mr.homology_map(mr.induced_map(m1))
        h2 = mr.homology_map(mr.induced_map(m2))
        for h in (h1, h2):
            problems += check_surjection(h, sphere2, sphere2)
        if h1.matrices != h2.matrices:
            problems.append("homotopic maps have different homology matrices")
        return problems

    return Instance("composite pair funcM->funcL (full lattices)", run)


def maps_workload(mr, seed) -> Workload:
    rng = random.Random(f"{seed}/maps")
    seeded = [
        truncation_map(mr, f"GF(2) r{r} n{n} -> truncation", profiled_table(rng, 2, r, n), rng)
        for r, n in [(3, 4), (3, 5), (2, 4), (2, 5)]
    ]
    small = chain_maps(mr) + [strict_decrease(mr)] + equivariance(mr) + seeded
    return Workload(small, [composite_pair(mr)])


# ----------------------------------------------------------------- matroids


def matroid_pipeline(mr, name, table, whitney=None) -> Instance:
    """Independent sets -> Matroid -> lattice, Mobius, Whitney -> truncation
    by one -> classify_map and induced_flat_map of the identity onto it ->
    factor_through_truncation."""
    n = table.n
    independents = table.independents()
    whitney = list(table.whitney()) if whitney is None else whitney
    trunc = table.truncation(1)
    trunc_whitney = list(trunc.whitney())
    trunc_family = independent_family(trunc)
    n_flats = len(table.flats())
    images = [
        (frozenset(table.elements(f)), frozenset(trunc.elements(trunc.closure(f))))
        for f in table.flats()
    ]

    def run():
        m = mr.Matroid(range(1, n + 1), independents)
        lattice = m.lattice()
        problems = []
        if len(lattice.flats) != n_flats:
            problems.append(f"{len(lattice.flats)} flats, expected {n_flats}")
        if sum(lattice.mobius().values()) != 0:
            problems.append("Mobius values do not sum to zero")
        if lattice.whitney().as_list() != whitney:
            problems.append(f"whitney {lattice.whitney().as_list()} != {whitney}")
        t = mr.truncate(m, 1)
        if set(t.independents) != trunc_family:
            problems.append("truncation has the wrong independent sets")
        if t.lattice().whitney().as_list() != trunc_whitney:
            problems.append(f"truncation whitney != {trunc_whitney}")
        f = mr.SetMap.identity(m, t)
        cls = mr.classify_map(f)
        if not (cls.is_weak and cls.is_strong and cls.is_surjective and cls.is_non_annihilating):
            problems.append(f"identity onto the truncation classified as {cls}")
        flat_map = mr.induced_flat_map(f)
        if any(flat_map(p) != image for p, image in images):
            problems.append("induced flat map differs from closure in the truncation")
        id_k, tau_k = mr.factor_through_truncation(f)
        if set(id_k.target.independents) != trunc_family or tau_k.target != t:
            problems.append("factorization does not pass through the truncation")
        return problems

    return Instance(name, run)


def matroids_workload(mr, seed) -> Workload:
    rng = random.Random(f"{seed}/matroids")
    small = [
        matroid_pipeline(mr, f"GF({q}) r{r} n{n}", profiled_table(rng, q, r, n))
        for q, r, n in [
            (2, 3, 6), (3, 3, 6), (2, 3, 7), (3, 3, 7), (2, 4, 7), (3, 4, 7), (2, 4, 8), (3, 4, 8)
        ]
    ]
    large = [
        matroid_pipeline(mr, "U4,10", RankTable.uniform(4, 10)),
        matroid_pipeline(mr, "U5,10", RankTable.uniform(5, 10)),
        matroid_pipeline(mr, "GF(3) r5 n10", window_table(rng, 3, 5, 10, 516, 528)),
    ]
    return Workload(small, large)


WORKLOADS = {
    "represent": represent_workload,
    "maps": maps_workload,
    "matroids": matroids_workload,
}
