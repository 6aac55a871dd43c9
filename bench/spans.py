"""The traced run: spans around calls into matrep's five computing layers.

The wrappers are installed from the benchmark's own files.  Each target
is a public function or constructor, named "module:qualname"; the module
is the layer.  A module-level function is replaced in every matrep module
that imported it by name, so calls between layers are seen too.  A target
that does not exist (a later change may delete it) is skipped, and its
span name then records nothing.

Spans are kept in memory as tuples and written out at the end.  Each
carries its parent span, the benchmark instance it ran under, and its self
time: duration minus the time covered by its children and by the
benchmark's own counting.  `labels`, `catalog` and `cli` are not wrapped:
`label_key` runs once per label and would swamp the trace, so its cost
lands in its callers' self time.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

# layer -> group -> targets; a group's name becomes "<layer>.<group>.self_s"
LAYERS = {
    "matroid": {
        "build": [
            "Matroid.__init__",
            "uniform",
            "matroid_from_bases",
            "matroid_from_flats",
        ],
        "lattice": [
            "GeometricLattice.__init__",
            "GeometricLattice.mobius",
            "GeometricLattice.whitney",
            "GeometricLattice.covers",
            "whitney_first",
        ],
        "maps": [
            "classify_map",
            "induced_flat_map",
            "truncate",
            "factor_through_truncation",
            "SetMap.__init__",
            "FlatMap.__init__",
            "FlatMap.then",
        ],
    },
    "engstrom": {
        "expected_betti": ["expected_betti"],
        "other": [
            "canonical_immersion",
            "validate_immersion",
            "immersed",
            "is_admissible",
            "copies_complex",
            "build_diagram",
            "build_representation",
            "arrangement_flats",
            "arrangement_matches_lattice",
            "reroute_annihilating",
            "induced_representation_map",
            "verify_strict_decrease",
            "check_equivariance",
            "GroupAction.__init__",
        ],
    },
    "diagrams": {
        "poset": [
            "FinitePoset.__init__",
            "FinitePoset.from_leq",
            "FinitePoset.covers",
            "FinitePoset.restrict",
            "grothendieck_poset",
        ],
        "order_complex": ["order_complex"],
        "other": [
            "InclusionDiagram.__init__",
            "InclusionDiagram.restrict",
            "hocolim",
            "colim",
            "DiagramMorphism.__init__",
            "induced_map",
            "homotopic_pair_check",
        ],
    },
    "complexes": {
        "simplices": [
            "SimplicialComplex.__init__",
            "SimplicialComplex.simplices_by_dim",
            "SimplicialComplex.full_subcomplex",
        ],
        "reduced_betti": ["reduced_betti"],
        "homology_map": [
            "homology_map",
            "HomologyMap.__init__",
            "HomologyMap.is_surjective",
            "HomologyMap.is_injective",
            "compose_matrices",
        ],
        "other": [
            "sphere",
            "join",
            "iterated_join",
            "suspension_iter",
            "disjoint_union",
            "SimplicialMap.__init__",
        ],
    },
    "linalg": {
        "sparse_rank": ["sparse_rank"],
        "dense": [
            "rref",
            "nullspace",
            "independent_columns",
            "solve_columns",
            "dense_rank",
            "matmul",
        ],
        "other": ["rank_mod_p"],
    },
}

# groups reported as "<layer>.<group>.self_s"; the rest only feed the layer totals
REPORTED_GROUPS = [
    "diagrams.order_complex",
    "diagrams.poset",
    "complexes.simplices",
    "complexes.reduced_betti",
    "linalg.sparse_rank",
    "complexes.homology_map",
    "linalg.dense",
    "matroid.build",
    "matroid.lattice",
    "matroid.maps",
]

COUNTERS = [
    "diagrams.grothendieck_elements",
    "diagrams.hocolim_facets",
    "complexes.simplices",
    "complexes.homology_dim",
    "matroid.flats",
    "matroid.independents",
]


def _betti_total(betti) -> int:
    return sum(v for _, v in betti.items())


def _face_counts(komplex, out):
    for d, count in komplex.face_counts().items():
        out[f"complexes.simplices.d{d}"] += count
        out["complexes.simplices"] += count


def _count_betti(result, args, out):
    _face_counts(args[0], out)
    out["complexes.homology_dim"] += _betti_total(result)


def _count_homology_map(result, args, out):
    hm = args[0]
    _face_counts(hm.map.source, out)
    _face_counts(hm.map.target, out)
    out["complexes.homology_dim"] += _betti_total(hm.source_betti) + _betti_total(hm.target_betti)


# span name -> function(result, args, counter) adding exact counts after the call
COUNTING = {
    "diagrams:grothendieck_poset": lambda r, a, c: c.update(
        {"diagrams.grothendieck_elements": len(r.elements)}
    ),
    "diagrams:hocolim": lambda r, a, c: c.update(
        {"diagrams.hocolim_facets": len(r.complex.facets)}
    ),
    "complexes:reduced_betti": _count_betti,
    "complexes:HomologyMap.__init__": _count_homology_map,
    "matroid:GeometricLattice.__init__": lambda r, a, c: c.update(
        {"matroid.flats": len(a[0].flats)}
    ),
    "matroid:Matroid.__init__": lambda r, a, c: c.update(
        {"matroid.independents": len(a[0].independents)}
    ),
}


class Tracer:
    """Spans and counters for one traced pass; install() patches matrep."""

    def __init__(self):
        self.spans = []  # (id, parent, instance, name, start, end, self_s)
        self.per_instance = collections.defaultdict(collections.Counter)
        self.instance = None
        self.missing = []
        self._stack = []  # [span id, children's time]
        self._next_id = 0
        self._counting = False
        self._restore = []
        self._group_of = {}

    def _wrap(self, name, fn):
        tracer = self
        count = COUNTING.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._counting:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            end = None
            counted = 0.0
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if count is not None:
                    tracer._counting = True
                    try:
                        count(result, args, tracer.per_instance[tracer.instance])
                    finally:
                        tracer._counting = False
                    counted = time.perf_counter() - end
                return result
            finally:
                if end is None:  # the call raised
                    end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    (sid, parent, tracer.instance, name, start, end, end - start - frame[1])
                )
                if tracer._stack:
                    tracer._stack[-1][1] += end - start + counted

        return traced

    def install(self, package):
        self.missing = []
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer, groups in LAYERS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for group, targets in groups.items():
                for target in targets:
                    name = f"{layer}:{target}"
                    self._group_of[name] = f"{layer}.{group}"
                    if module is None or not self._patch(module, target, name, modules):
                        self.missing.append(name)

    def _patch(self, module, target, name, modules) -> bool:
        owner_name, _, attr = target.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            elif callable(raw):
                replacement = self._wrap(name, raw)
            else:
                return False
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, raw))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        replacement = self._wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, replacement)
                    self._restore.append((m, key, original))
        return True

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self) -> dict:
        """Per-layer self times and call counts, reported groups, counters."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for group in REPORTED_GROUPS:
            out[f"{group}.self_s"] = 0.0
        expected = []  # expected_betti spans; only the outermost count
        for _, _, _, name, start, end, self_s in self.spans:
            layer = name.partition(":")[0]
            group = self._group_of[name]
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.calls"] += 1
            if group in REPORTED_GROUPS:
                out[f"{group}.self_s"] += self_s
            if name == "engstrom:expected_betti":
                expected.append((start, end))
        out["engstrom.expected_betti.total_s"] = sum(
            end - start
            for start, end in expected
            if not any(s < start and end < e for s, e in expected)
        )
        totals = collections.Counter()
        for counter in self.per_instance.values():
            totals.update(counter)
        for name in COUNTERS:
            out[name] = totals[name]
        return out

    def dump(self) -> dict:
        return {
            "missing_targets": self.missing,
            "span_fields": ["id", "parent", "instance", "name", "start", "end", "self_s"],
            "spans": self.spans,
            "instances": {str(k): dict(v) for k, v in self.per_instance.items()},
        }
