"""Command-line front end.

Documents are JSON with sorted keys.  A matroid document carries a name, a
ground set of string labels and exactly one of bases / independents /
flats, plus an optional rho and an optional immersion, which needs rho;
a rho alone selects the canonical immersion.  A map document names its
endpoints and lists the assignment, including "o" -> "o".

Every command's report is one JSON object, {schema, command, inputs,
results, timing_ms}, which ``main`` alone builds, times and prints; it
echoes the command and inputs and is byte-identical across runs apart from
``timing_ms``.  An input error prints one line to stderr and no report.

Exit codes: 0 all checks pass, 2 property violation, 3 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import time

from . import catalog
from .complexes import (
    MAX_SIMPLICES,
    BettiVector,
    SimplicialComplex,
    compose_matrices,
    homology_map,
    reduced_betti,
    refuse_oversized_join,
    sphere,
)
from .diagrams import colim, hocolim
from .engstrom import (
    ImmersedMatroid,
    Immersion,
    InvalidImmersion,
    arrangement_matches_lattice,
    build_representation,
    check_equivariance,
    expected_betti,
    immersed,
    induced_representation_map,
    verify_stability,
    verify_strict_decrease,
    verify_surjectivity,
)
from .labels import format_label, sort_labels
from .matroid import (
    Matroid,
    MatroidError,
    SetMap,
    classify_map,
    induced_flat_map,
    matroid_from_bases,
    matroid_from_flats,
    truncate,
    uniform,
    whitney_first,
)

REPORT_SCHEMA = "matrep-report/1"


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise InputError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: a document is a JSON object, not a {type(doc).__name__}")
    return doc


@contextlib.contextmanager
def _json_out(path):
    """A writer of one JSON document with sorted keys to ``path``, or None
    without a path.  The file is opened on entry, so a path that cannot be
    written is refused before the document is built; an ``OSError`` in
    opening, writing or closing it is an input error that names it."""
    if not path:
        yield None
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc

    def write(doc):
        try:
            with fh:  # closed here, so a failed flush is caught too
                json.dump(doc, fh, sort_keys=True, indent=2)
        except OSError as exc:
            raise InputError(f"{path}: {exc.strerror}") from exc

    with fh:
        yield write


def _read(path: str, parse):
    """``parse`` of the document at ``path``; its input errors name the file."""
    doc = _load_json(path)
    try:
        return parse(doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list")
    return value


def _labels(value, what: str) -> list:
    """A list of document labels: strings or integers, never floats or
    booleans, which no label order covers."""
    if any(type(v) not in (int, str) for v in _list(value, what)):
        raise InputError(f"{what} must hold only strings and integers")
    return value


def _printed_apart(labels: list, what: str) -> list:
    """``labels``, refused if two different ones print alike, as 1 and "1"
    do: reports and exports could not tell them apart."""
    seen = {}
    for label in labels:
        name = format_label(label)
        if seen.setdefault(name, label) != label:
            raise InputError(f"{what} has labels {seen[name]!r} and {label!r}, which both print as {name}")
    return labels


def matroid_from_doc(doc: dict) -> tuple[Matroid, Immersion | int | None]:
    """The matroid of a document, and the immersion it lists, or else its
    rho alone, which selects the canonical immersion, or else None."""
    if "elements" not in doc:
        raise InputError("matroid document needs an 'elements' field")
    elements = _printed_apart(_labels(doc["elements"], "'elements'"), "'elements'")
    kinds = [k for k in ("bases", "independents", "flats") if k in doc]
    if len(kinds) != 1:
        raise InputError("matroid document needs exactly one of bases/independents/flats")
    kind = kinds[0]
    family = [frozenset(_labels(s, f"each of {kind!r}")) for s in _list(doc[kind], repr(kind))]
    try:
        if kind == "bases":
            matroid = matroid_from_bases(elements, family)
        elif kind == "independents":
            matroid = Matroid(elements, family)
        else:
            matroid = matroid_from_flats(elements, family)
    except MatroidError as exc:
        raise InputError(f"invalid matroid document: {exc}") from exc
    rho = doc.get("rho")
    if rho is not None and type(rho) is not int:
        raise InputError("'rho' must be an integer")
    if "immersion" not in doc:
        if rho is not None and rho < matroid.rank_total:
            raise InputError(f"need rho >= {matroid.rank_total}")
        return matroid, rho
    if rho is None:
        raise InputError("an immersion needs an explicit 'rho'")
    mapping = {}
    for entry in _list(doc["immersion"], "'immersion'"):
        if not isinstance(entry, dict) or not {"flat", "bits"} <= entry.keys():
            raise InputError("each immersion entry needs a 'flat' and its 'bits'")
        bits = _list(entry["bits"], "'bits'")
        if any(type(b) is not int for b in bits):
            raise InputError("'bits' must hold only integers")
        flat = frozenset(_labels(entry["flat"], "'flat'"))
        if flat in mapping:
            raise InputError(f"the immersion lists the flat {sort_labels(flat)} twice")
        mapping[flat] = frozenset(bits)
    return matroid, Immersion.from_dict(matroid, rho, mapping)


def matroid_to_doc(matroid: Matroid, name: str) -> dict:
    return {
        "name": name,
        "elements": [format_label(e) for e in matroid.elements],
        "independents": sorted(
            sorted(format_label(e) for e in s) for s in matroid.independents
        ),
    }


def resolve_matroid(name_or_path: str) -> tuple[Matroid, Immersion | int | None]:
    """A builtin catalog name, or a path to a matroid document."""
    try:
        return catalog.catalog_matroid(name_or_path), None
    except KeyError:
        pass
    return _read(name_or_path, matroid_from_doc)


def complex_from_doc(doc: dict) -> SimplicialComplex:
    """The complex of a document whose labels are checked here: the complex
    keys them only when it first sorts them."""
    facets = _list(doc.get("facets"), "a complex document's 'facets'")
    labels = [v for facet in facets for v in _labels(facet, "each facet")]
    _printed_apart(labels + _labels(doc.get("vertices", []), "'vertices'"), "the complex")
    return SimplicialComplex.from_doc(doc)


def resolve_complex(name_or_path: str) -> SimplicialComplex:
    """A template S<d>, or a path to a complex document.  S^d has
    2^(d+2) - 2 nonempty simplices, and every command that takes a complex
    lists them, so a sphere over ``MAX_SIMPLICES`` is refused before any
    facet is listed."""
    match = re.fullmatch(r"S(-?\d+)", name_or_path)
    if match:
        d = int(match.group(1))
        # past the budget's bit length the count is over it, so the power
        # is never computed in full
        if 2 ** min(d + 2, MAX_SIMPLICES.bit_length() + 1) - 2 > MAX_SIMPLICES:
            raise InputError(f"S{d} has 2^{d + 2} - 2 nonempty simplices, over the budget {MAX_SIMPLICES}")
        return sphere(d)
    return _read(name_or_path, complex_from_doc)


def map_from_doc(doc: dict, matroids: dict) -> SetMap:
    """The map of a document whose source and target are names in
    ``matroids`` or in the catalog."""
    for key in ("source", "target", "assignment"):
        if key not in doc:
            raise InputError(f"map document needs a '{key}' field")
    names = doc["source"], doc["target"]
    if any(type(name) is not str for name in names):
        raise InputError("map document names its source and target by strings")
    try:
        source, target = (matroids[n] if n in matroids else catalog.catalog_matroid(n) for n in names)
    except KeyError as exc:
        raise InputError("map document references unknown matroid names") from exc
    if not isinstance(doc["assignment"], dict):
        raise InputError("map document's 'assignment' must be an object")
    # documents carry string labels; resolve them against the ground sets
    src_by_name = {format_label(e): e for e in source.elements}
    tgt_by_name = {format_label(e): e for e in target.elements}
    tgt_by_name["o"] = "o"
    assignment = {}
    for key, value in doc["assignment"].items():
        if key == "o":
            if value != "o":
                raise InputError("map documents must send o to o")
            continue
        if key not in src_by_name or type(value) is not str or value not in tgt_by_name:
            raise InputError(f"map document uses unknown label {key!r} or {value!r}")
        assignment[src_by_name[key]] = tgt_by_name[value]
    try:
        return SetMap(source, target, assignment)
    except MatroidError as exc:
        raise InputError(f"invalid map document: {exc}") from exc


def _flat_doc(flat) -> list:
    return [format_label(e) for e in sort_labels(flat)]


# Each command returns its echo, its inputs, its results and its exit code,
# and prints nothing: main builds, times and prints the report.


def cmd_info(args) -> tuple:
    matroid, _ = resolve_matroid(args.matroid)
    lat = matroid.lattice()
    mu = lat.mobius()
    results = {
        "rank": matroid.rank_total,
        "num_elements": len(matroid.elements),
        "num_flats": len(lat.flats),
        "whitney": whitney_first(matroid).as_list(),
        "mobius": [[_flat_doc(f), mu[f]] for f in lat.flats],
    }
    return ["info", args.matroid], {"matroid": args.matroid}, results, 0


def cmd_lattice(args) -> tuple:
    matroid, _ = resolve_matroid(args.matroid)
    lat = matroid.lattice()
    results = {
        "flats": [
            {"flat": _flat_doc(f), "rank": lat.rank_of[f]} for f in lat.flats
        ],
        "covers": [[_flat_doc(p), _flat_doc(q)] for p, q in lat.covers()],
    }
    return ["lattice", args.matroid], {"matroid": args.matroid}, results, 0


def cmd_whitney(args) -> tuple:
    matroid, _ = resolve_matroid(args.matroid)
    results = {"whitney": whitney_first(matroid).as_list()}
    return ["whitney", args.matroid], {"matroid": args.matroid}, results, 0


def cmd_truncate(args) -> tuple:
    matroid, _ = resolve_matroid(args.matroid)
    truncated = truncate(matroid, args.k)
    doc = matroid_to_doc(truncated, f"T^{args.k}({args.matroid})")
    with _json_out(args.out) as write:
        if write:
            write(doc)
    results = {"rank": truncated.rank_total, "document": doc}
    return ["truncate", args.matroid, str(args.k)], {"matroid": args.matroid}, results, 0


def cmd_check_map(args) -> tuple:
    matroids = {entry: resolve_matroid(entry)[0] for entry in args.matroids or []}
    setmap = _read(args.map, lambda doc: map_from_doc(doc, matroids))
    cls = classify_map(setmap)
    results = {
        "is_weak": cls.is_weak,
        "is_strong": cls.is_strong,
        "is_surjective": cls.is_surjective,
        "is_non_annihilating": cls.is_non_annihilating,
    }
    return ["check-map", args.map], {"map": args.map}, results, 0


def cmd_represent(args) -> tuple:
    matroid, chosen = resolve_matroid(args.matroid)
    template = resolve_complex(args.template)
    listed = isinstance(chosen, Immersion) and args.rho is None
    rho = chosen.rho if listed else next(r for r in (args.rho, chosen, matroid.rank_total) if r is not None)
    # the bottom flat carries the join of rho copies of the template, so an
    # oversized rho is refused before any immersion is built
    refuse_oversized_join(template, rho)
    if listed:
        # a listed immersion is checked here, not while its document is read
        try:
            im = ImmersedMatroid(matroid, chosen)
        except InvalidImmersion as exc:
            raise InputError(f"{args.matroid}: {exc}") from exc
    else:
        im = immersed(matroid, rho)
    with _json_out(args.out) as write:
        rep = build_representation(im, template)
        constructed = reduced_betti(rep.T)
        expected = expected_betti(im, template)
        if write:
            write(rep.T.to_doc())
    results = {
        "rho": im.rho,
        "betti_constructed": constructed.to_doc(),
        "betti_expected": expected.to_doc(),
        "agreement": constructed == expected,
        "face_counts": {str(k): v for k, v in rep.T.face_counts().items()},
    }
    inputs = {"matroid": args.matroid, "template": args.template, "rho": im.rho}
    return ["represent", args.matroid, args.template], inputs, results, 0 if results["agreement"] else 2


def cmd_betti(args) -> tuple:
    komplex = resolve_complex(args.complex)
    results = {"betti": reduced_betti(komplex).to_doc()}
    return ["betti", args.complex], {"complex": args.complex}, results, 0


def cmd_export(args) -> tuple:
    matroid, _ = resolve_matroid(args.matroid)
    doc = matroid_to_doc(matroid, args.matroid)
    with _json_out(args.out) as write:
        write(doc)
    return ["export", args.matroid], {"matroid": args.matroid}, {"written": args.out}, 0


def _check(name: str, passed: bool, details: dict) -> dict:
    return {"check": name, "passed": bool(passed), "details": details}


def _verify_formula() -> list[dict]:
    out = []
    for name, im, template in catalog.representation_instances():
        rep = build_representation(im, template)
        constructed = reduced_betti(rep.T)
        expected = expected_betti(im, template)
        out.append(
            _check(
                f"formula[{name}]",
                constructed == expected,
                {"constructed": constructed.to_doc(), "expected": expected.to_doc()},
            )
        )
    return out


def _verify_mobius() -> list[dict]:
    out = []
    for name in catalog.catalog_names():
        lat = catalog.catalog_matroid(name).lattice()
        mu = lat.mobius()
        nonvanishing = all(mu[f] != 0 for f in lat.flats)
        identity_ok = True
        for atom in lat.atoms:
            rhs = -sum(mu[q] for q in lat.coatoms if not atom <= q)
            if mu[lat.top] != rhs:
                identity_ok = False
        out.append(
            _check(
                f"mobius[{name}]",
                nonvanishing and identity_ok,
                {"nonvanishing": nonvanishing, "coatom_identity": identity_ok},
            )
        )
    return out


def _verify_whitney() -> list[dict]:
    m, n, l = catalog.rank3_chain()
    wm, wn, wl = whitney_first(m), whitney_first(n), whitney_first(l)
    ok = wm.dominates(wn) and wn.dominates(wl)
    return [
        _check(
            "whitney-monotone[funcM>=funcN>=funcL]",
            ok,
            {"w": [wm.as_list(), wn.as_list(), wl.as_list()]},
        )
    ]


def _verify_surjectivity() -> list[dict]:
    m, n, l = catalog.rank3_chain()
    s0 = sphere(0)
    out = []
    for label, src, tgt in [("funcM->funcN", m, n), ("funcN->funcL", n, l)]:
        ok = verify_surjectivity(
            catalog.identity_map(src, tgt), immersed(src), immersed(tgt), s0
        )
        out.append(_check(f"surjectivity[{label}]", ok, {}))
    return out


def _verify_strict_decrease() -> list[dict]:
    tau = catalog.identity_map(uniform(3, 4), uniform(2, 4))
    im_m = immersed(uniform(3, 4), rho=3)
    im_n = immersed(uniform(2, 4), rho=3)
    s0 = sphere(0)
    ok = verify_strict_decrease(tau, im_m, im_n, s0)
    b_m = expected_betti(im_m, s0)
    b_n = expected_betti(im_n, s0)
    return [
        _check(
            "strict-decrease[U3,4->U2,4 rho=3]",
            ok,
            {"source": b_m.to_doc(), "target": b_n.to_doc()},
        )
    ]


def _verify_functoriality() -> list[dict]:
    m, n, l = catalog.rank3_chain()
    s0 = sphere(0)
    t_mn = catalog.identity_map(m, n)
    t_nl = catalog.identity_map(n, l)
    t_ml = catalog.identity_map(m, l)
    h_mn = homology_map(induced_representation_map(t_mn, immersed(m), immersed(n), s0))
    h_nl = homology_map(induced_representation_map(t_nl, immersed(n), immersed(l), s0))
    h_ml = homology_map(induced_representation_map(t_ml, immersed(m), immersed(l), s0))
    product = compose_matrices(h_nl, h_mn)
    matrices_ok = all(h_ml.matrices.get(k, []) == product.get(k, []) for k in set(h_ml.matrices) | set(product))
    direct = induced_flat_map(t_ml)
    composed = induced_flat_map(t_mn).then(induced_flat_map(t_nl))
    differ_at = [
        _flat_doc(p)
        for p in m.lattice().flats
        if direct(p) != composed(p)
    ]
    return [
        _check(
            "functoriality[funcM->funcN->funcL]",
            matrices_ok and bool(differ_at),
            {"flat_maps_differ_at": differ_at},
        )
    ]


def _verify_stability() -> list[dict]:
    s0 = sphere(0)
    out = []
    for rho, degree, expected in [(3, 1, 5), (4, 2, 5)]:
        im = immersed(uniform(2, 3), rho=rho)
        rep = build_representation(im, s0)
        betti = reduced_betti(rep.T)
        ok = verify_stability(im, s0) and betti[degree] == expected
        out.append(
            _check(f"stability[U2,3 rho={rho}]", ok, {"betti": betti.to_doc()})
        )
    return out


def _verify_arrangement_flats() -> list[dict]:
    out = []
    for name, im, template in catalog.representation_instances():
        if im.rho != im.matroid.rank_total:
            continue
        rep = build_representation(im, template)
        ok = arrangement_matches_lattice(rep)
        out.append(_check(f"arrangement-flats[{name}]", ok, {}))
    return out


def _verify_equivariance() -> list[dict]:
    m, n, l = catalog.rank3_chain()
    action = catalog.swap_action_on_s0()
    s0 = sphere(0)
    out = []
    for label, src, tgt in [
        ("id[funcM]", m, m),
        ("funcM->funcN", m, n),
        ("funcN->funcL", n, l),
    ]:
        ok = check_equivariance(
            action, catalog.identity_map(src, tgt), immersed(src), immersed(tgt), s0
        )
        out.append(_check(f"equivariance[{label}]", ok, {}))
    return out


def _verify_appendix() -> list[dict]:
    first, second, morphism = catalog.contrast_diagrams()
    betti = {
        "colim_first": reduced_betti(colim(first)),
        "colim_second": reduced_betti(colim(second)),
        "hocolim_first": reduced_betti(hocolim(first).complex),
        "hocolim_second": reduced_betti(hocolim(second).complex),
    }
    sphere2 = BettiVector({2: 1})
    ok = (
        betti["colim_first"] == sphere2
        and betti["colim_second"] == BettiVector()
        and betti["hocolim_first"] == sphere2
        and betti["hocolim_second"] == sphere2
    )
    return [
        _check(
            "appendix-demo",
            ok,
            {k: v.to_doc() for k, v in betti.items()},
        )
    ]


VERIFY_SUITES = {
    "formula": _verify_formula,
    "surjectivity": _verify_surjectivity,
    "strict_decrease": _verify_strict_decrease,
    "functoriality": _verify_functoriality,
    "whitney_monotone": _verify_whitney,
    "mobius": _verify_mobius,
    "stability": _verify_stability,
    "arrangement_flats": _verify_arrangement_flats,
    "equivariance": _verify_equivariance,
    "appendix_demo": _verify_appendix,
}


def cmd_verify(args) -> tuple:
    selected = [name for name in VERIFY_SUITES if getattr(args, name)]
    if args.all or not selected:
        selected = list(VERIFY_SUITES)
    checks = []
    for name in selected:
        checks.extend(VERIFY_SUITES[name]())
    passed = all(c["passed"] for c in checks)
    return ["verify"] + selected, {}, {"checks": checks, "passed": passed}, 0 if passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matrep",
        description="Topological representations of matroids and their weak maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="rank, flats, Whitney and Mobius data")
    p.add_argument("matroid")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("lattice", help="flats with ranks and covering pairs")
    p.add_argument("matroid")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("whitney", help="Whitney numbers of the first kind")
    p.add_argument("matroid")
    p.set_defaults(func=cmd_whitney)

    p = sub.add_parser("truncate", help="truncate a matroid")
    p.add_argument("matroid")
    p.add_argument("k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("check-map", help="classify a map document")
    p.add_argument("map")
    p.add_argument("--matroids", nargs="*")
    p.set_defaults(func=cmd_check_map)

    p = sub.add_parser("represent", help="build a representation and export T")
    p.add_argument("matroid")
    p.add_argument("template", help="S0, S1, Sd or a complex document path")
    p.add_argument("--rho", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("betti", help="reduced Betti numbers of a complex document")
    p.add_argument("complex")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("export", help="write a catalog matroid as a document")
    p.add_argument("matroid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", help="run verification suites on the catalog")
    for name in VERIFY_SUITES:
        p.add_argument(f"--{name.replace('_', '-')}", action="store_true")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command and print its report, timed from the parsed
    arguments to the command's return; an input error prints no report and
    exits 3."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        command, inputs, results, code = args.func(args)
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    report = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing_ms": round(1000 * (time.perf_counter() - started), 3),
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
