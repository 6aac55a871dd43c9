import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from matrep import catalog, cli, engstrom
from matrep.complexes import MAX_SIMPLICES, sphere
from matrep.matroid import MAX_ELEMENTS, uniform


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    run_cli.last_err = captured.err
    return code, report


def test_info_builtin(capsys):
    code, report = run_cli(capsys, "info", "U3,4")
    assert code == 0
    assert report["results"]["whitney"] == [1, 4, 6, 3]
    assert report["results"]["rank"] == 3


def test_info_five_point(capsys):
    code, report = run_cli(capsys, "info", "explicit")
    assert code == 0
    assert report["results"]["num_flats"] == 10
    assert report["results"]["whitney"] == [1, 4, 5, 2]


def test_info_refuses_oversized_ground_set(capsys):
    code, report = run_cli(capsys, "info", "U3,40")
    assert code == 3 and report is None
    assert "40" in run_cli.last_err and str(MAX_ELEMENTS) in run_cli.last_err


GROUND_30 = [str(i) for i in range(30)]


@pytest.mark.parametrize(
    "doc",
    [{"elements": GROUND_30, "bases": [GROUND_30]}, {"elements": GROUND_30, "flats": [[], GROUND_30]}],
    ids=["bases", "flats"],
)
def test_oversized_documents_are_refused_before_subsets(tmp_path, capsys, doc):
    # each would otherwise enumerate 2^30 subsets before the cap is checked
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, report = run_cli(capsys, "info", str(path))
    assert time.perf_counter() - started < 1
    assert code == 3 and report is None
    assert "30 elements" in run_cli.last_err and str(MAX_ELEMENTS) in run_cli.last_err


@pytest.mark.parametrize(
    "command, count",
    [(["represent", "U2,3", "S0", "--rho", "30"], 3**30 - 1), (["betti", "simplex.json"], 2**30 - 1)],
    ids=["join-of-30-copies", "30-vertex-facet"],
)
def test_oversized_complexes_are_refused_before_their_simplices(tmp_path, monkeypatch, capsys, command, count):
    # a join of 30 copies of S0, or a facet on 30 vertices, would otherwise
    # list its simplices until memory runs out
    (tmp_path / "simplex.json").write_text(json.dumps({"facets": [list(range(30))]}))
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    code, report = run_cli(capsys, *command)
    assert time.perf_counter() - started < 1
    assert code == 3 and report is None
    assert str(count) in run_cli.last_err and str(MAX_SIMPLICES) in run_cli.last_err


U23_IMMERSION = [
    {"flat": [], "bits": [1, 2]},
    {"flat": ["1"], "bits": [1]},
    {"flat": ["2"], "bits": [1]},
    {"flat": ["3"], "bits": [1]},
    {"flat": ["1", "2", "3"], "bits": []},
]


@pytest.mark.parametrize(
    "entry, named",
    [({"flat": ["1"], "bits": [2]}, "lists the flat ['1'] twice"), ({"flat": ["1", "2"], "bits": [7]}, "['1', '2'], which is not a flat")],
    ids=["repeated-flat", "non-flat"],
)
def test_immersion_documents_are_checked_entry_by_entry(tmp_path, capsys, entry, named):
    # a second value at a flat would silently win, and one at a non-flat
    # would never be read
    path = tmp_path / "u23.json"
    bases = [["1", "2"], ["1", "3"], ["2", "3"]]
    path.write_text(json.dumps({"elements": ["1", "2", "3"], "bases": bases, "rho": 2, "immersion": U23_IMMERSION + [entry]}))
    code, report = run_cli(capsys, "represent", str(path), "S0")
    assert code == 3 and report is None
    assert f"input error: {path}: " in run_cli.last_err and named in run_cli.last_err


@pytest.mark.parametrize(
    "command, code, named",
    [
        (["represent", "U2,3", "S0", "--rho", "100000000"], 3, ["3^100000000 - 1", str(MAX_SIMPLICES)]),
        (["represent", "U2,3", "S0", "--rho", "1000000"], 3, ["3^1000000 - 1", str(MAX_SIMPLICES)]),
        (["represent", "rho.json", "S0"], 3, ["3^100000000 - 1", str(MAX_SIMPLICES)]),
        (["info", "rho.json"], 0, []),
        (["betti", "facet.json"], 3, ["2^20000 - 1", str(MAX_SIMPLICES)]),
        (["info", "U2,100000000"], 3, ["100000000 elements", f"cap {MAX_ELEMENTS}"]),
        (["betti", "S20000"], 3, ["2^20002 - 2", str(MAX_SIMPLICES)]),
        (["represent", "U2,3", "S20000"], 3, ["2^20002 - 2", str(MAX_SIMPLICES)]),
    ],
    ids=[
        "rho-1e8",
        "rho-1e6",
        "document-rho-represent",
        "document-rho-info",
        "20000-vertex-facet",
        "uniform-on-1e8-elements",
        "betti-of-S20000",
        "represent-on-S20000",
    ],
)
def test_oversized_rho_and_facets_fail_cleanly_in_bounded_memory(tmp_path, command, code, named):
    """Under a 2 GB address-space limit, a rho whose join of copies is over
    the budget is refused before any immersion is built, info never builds
    one, a uniform matroid or a sphere over its cap or budget is refused
    before its ground set or facets are listed, and counts too long to
    print are named as powers."""
    resource = pytest.importorskip("resource")
    bases = [["1", "2"], ["1", "3"], ["2", "3"]]
    (tmp_path / "rho.json").write_text(json.dumps({"elements": ["1", "2", "3"], "bases": bases, "rho": 100_000_000}))
    (tmp_path / "facet.json").write_text(json.dumps({"facets": [list(range(20_000))]}))
    limit = 2 * 1024**3

    started = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "matrep.cli", *command],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - started < 1
    assert run.returncode == code, run.stderr
    assert all(name in run.stderr for name in named), run.stderr


def test_the_largest_sphere_within_the_budget_resolves():
    # S19 has 2^21 - 2 nonempty simplices, S20 has 2^22 - 2
    assert 2**21 - 2 <= MAX_SIMPLICES < 2**22 - 2
    assert cli.resolve_complex("S19").dim == 19
    with pytest.raises(cli.InputError, match=rf"S20 has 2\^22 - 2 nonempty simplices, over the budget {MAX_SIMPLICES}"):
        cli.resolve_complex("S20")


def test_the_simplex_budget_admits_the_export_of_u45_s1():
    """`matrep betti` on U4,5 x S1's exported T lists its 1,001,220
    simplices, of at most 6 vertices each, within the budget; the count is
    read off the diagram here, with no simplex listed."""
    t = engstrom.build_representation(engstrom.immersed(uniform(4, 5)), sphere(1)).T
    assert sum(t.face_counts().values()) == 1_001_220 <= MAX_SIMPLICES
    assert 2 ** (t.dim + 1) - 1 <= MAX_SIMPLICES


def test_info_report_deterministic(capsys):
    _, first = run_cli(capsys, "info", "U2,3")
    _, second = run_cli(capsys, "info", "U2,3")
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_lattice_and_whitney(capsys):
    code, report = run_cli(capsys, "lattice", "U2,4")
    assert code == 0
    assert len(report["results"]["flats"]) == 6
    code, report = run_cli(capsys, "whitney", "funcL")
    assert report["results"]["whitney"] == [1, 3, 3, 1]


def test_matroid_document_round_trip(tmp_path, capsys):
    out = tmp_path / "explicit.json"
    code, _ = run_cli(capsys, "export", "explicit", "--out", str(out))
    assert code == 0
    code, report = run_cli(capsys, "info", str(out))
    assert code == 0
    assert report["results"]["num_flats"] == 10


def test_matroid_document_from_flats(tmp_path, capsys):
    doc = {
        "name": "triangle",
        "elements": ["a", "b", "c"],
        "flats": [[], ["a"], ["b"], ["c"], ["a", "b", "c"]],
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "info", str(path))
    assert code == 0
    assert report["results"]["rank"] == 2


def test_malformed_document_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run_cli(capsys, "info", str(path))
    assert code == 3
    assert "line" in run_cli.last_err
    code, _ = run_cli(capsys, "info", str(tmp_path / "missing.json"))
    assert code == 3


@pytest.mark.parametrize("command", [["betti"], ["info"]], ids=["betti", "info"])
def test_a_directory_is_refused_naming_it(tmp_path, capsys, command):
    code, report = run_cli(capsys, *command, str(tmp_path))
    assert code == 3 and report is None
    assert f"input error: {tmp_path}: " in run_cli.last_err


def test_a_document_not_in_utf8_is_refused_naming_it(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"elements": ["\u00e9"], "bases": [["\u00e9"]]}'.encode("latin-1"))
    code, report = run_cli(capsys, "info", str(path))
    assert code == 3 and report is None
    assert f"input error: {path}: not UTF-8" in run_cli.last_err


@pytest.mark.parametrize(
    "command",
    [["represent", "U2,3", "S0"], ["export", "U2,3"], ["truncate", "U2,3", "1"]],
    ids=["represent", "export", "truncate"],
)
def test_an_out_path_in_a_missing_directory_is_refused_naming_it(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.json"
    code, report = run_cli(capsys, *command, "--out", str(out))
    assert code == 3 and report is None and not out.exists()
    assert f"input error: {out}: " in run_cli.last_err


def test_an_unwritable_out_path_is_refused_before_t_is_built(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        pytest.fail("built T for an --out path that cannot be written")

    monkeypatch.setattr(cli, "build_representation", refuse)
    out = tmp_path / "missing" / "T.json"
    code, report = run_cli(capsys, "represent", "U4,5", "S1", "--out", str(out))
    assert code == 3 and report is None and not out.exists()
    assert f"input error: {out}: " in run_cli.last_err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses every write")
def test_a_failed_write_is_refused_naming_the_path(capsys):
    # the error surfaces when the written document is flushed, after the
    # file was opened without one
    code, report = run_cli(capsys, "export", "explicit", "--out", "/dev/full")
    assert code == 3 and report is None
    assert "input error: /dev/full: " in run_cli.last_err


MATROID_DOC ={"elements": ["1", "2"], "bases": [["1"], ["2"]]}
MAP_DOC = {"source": "U1,2", "target": "U1,2", "assignment": {"1": "2", "2": "1", "o": "o"}}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("betti", {"vertices": ["1"]}),
        ("betti", {"facets": [[1.5, 2]]}),
        ("betti", {"facets": [[True, 2]]}),
        ("betti", {"facets": [["1"]], "vertices": [["1"]]}),
        ("betti", {"facets": 3}),
        ("betti", [["1", "2"]]),
        ("info", [1, 2]),
        ("info", {"elements": ["1"], "bases": [GROUND_30]}),
        ("info", dict(MATROID_DOC, elements=[1.5, 2])),
        ("info", dict(MATROID_DOC, elements=[True, "2"])),
        ("info", dict(MATROID_DOC, bases=[[["1"]]])),
        ("info", dict(MATROID_DOC, bases=5)),
        ("info", dict(MATROID_DOC, rho=[2])),
        ("info", dict(MATROID_DOC, rho=2, immersion=[{"flat": []}])),
        ("info", dict(MATROID_DOC, rho=2, immersion=[[[], [1, 2]]])),
        ("info", dict(MATROID_DOC, rho=2, immersion=[{"flat": [[]], "bits": [1, 2]}])),
        ("check-map", [MAP_DOC]),
        ("check-map", dict(MAP_DOC, source=["U1,2"])),
        ("check-map", dict(MAP_DOC, assignment=[["1", "2"]])),
        ("check-map", dict(MAP_DOC, assignment={"1": ["2"], "2": "1"})),
        ("info", dict(MATROID_DOC, rho=1, immersion=[{"flat": [], "bits": ["x"]}])),
    ],
)
def test_malformed_documents_exit_3_naming_the_file(tmp_path, capsys, command, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, command, str(path))
    assert code == 3 and report is None
    assert str(path) in run_cli.last_err


def test_labels_that_print_alike_are_refused(tmp_path, capsys):
    doc = {"elements": [1, "1"], "independents": [[], [1], ["1"], [1, "1"]]}
    path = tmp_path / "alike.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "info", str(path))
    assert code == 3 and report is None
    assert str(path) in run_cli.last_err
    assert "1 and '1'" in run_cli.last_err


@pytest.mark.parametrize("doc", [{"facets": [[1], ["1"]]}, {"facets": [[1]], "vertices": ["1"]}])
def test_complex_labels_that_print_alike_are_refused(tmp_path, capsys, doc):
    path = tmp_path / "alike.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "T.json"
    code, report = run_cli(capsys, "represent", "U2,3", str(path), "--out", str(out))
    assert code == 3 and report is None and not out.exists()
    assert str(path) in run_cli.last_err
    assert "1 and '1'" in run_cli.last_err


def test_document_requires_one_family(tmp_path, capsys):
    doc = {"name": "x", "elements": ["a"], "bases": [["a"]], "flats": [[]]}
    path = tmp_path / "double.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(capsys, "info", str(path))
    assert code == 3


def test_check_map(tmp_path, capsys):
    doc = {
        "source": "U3,4",
        "target": "funcN",
        "assignment": {"1": "1", "2": "2", "3": "3", "4": "4", "o": "o"},
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "check-map", str(path))
    assert code == 0
    results = report["results"]
    assert results["is_weak"] and results["is_surjective"] and not results["is_strong"]


def test_check_map_rejects_moved_zero(tmp_path, capsys):
    doc = {
        "source": "U2,3",
        "target": "U2,3",
        "assignment": {"1": "1", "2": "2", "3": "3", "o": "1"},
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(capsys, "check-map", str(path))
    assert code == 3


def test_represent_and_betti_round_trip(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, report = run_cli(capsys, "represent", "U2,4", "S0", "--out", str(out))
    assert code == 0
    assert report["results"]["betti_constructed"] == {"0": 7}
    assert report["results"]["agreement"] is True
    code, betti_report = run_cli(capsys, "betti", str(out))
    assert code == 0
    assert betti_report["results"]["betti"] == {"0": 7}


def test_represent_with_s1(tmp_path, capsys):
    code, report = run_cli(capsys, "represent", "U2,3", "S1")
    assert code == 0
    assert report["results"]["betti_constructed"] == {"0": 2, "1": 3}


def test_represent_with_custom_template(tmp_path, capsys):
    template = {"vertices": ["1", "2", "3", "4"], "facets": [["1", "2", "3"], ["1", "3", "4"]]}
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(template))
    code, report = run_cli(capsys, "represent", "U2,3", str(path))
    assert code == 0
    assert report["results"]["agreement"] is True


def test_represent_rank_zero_matroid(tmp_path, capsys):
    # every element a loop: no atoms, so T is the empty complex S^{-1}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"elements": ["1"], "independents": [[]]}))
    code, report = run_cli(capsys, "represent", str(path), "S0")
    assert code == 0
    assert report["results"]["agreement"] is True
    assert report["results"]["betti_constructed"] == {"-1": 1}


@pytest.mark.parametrize(
    "doc_rho, options, code, betti",
    [(3, [], 0, {"1": 5}), (3, ["--rho", "2"], 0, {"0": 5}), (1, [], 3, None)],
)
def test_represent_document_rho(tmp_path, capsys, doc_rho, options, code, betti):
    # a rho without an immersion selects the canonical one; --rho overrides
    # it, and a rho below the rank is refused
    path = tmp_path / "u23.json"
    bases = [["1", "2"], ["1", "3"], ["2", "3"]]
    path.write_text(json.dumps({"elements": ["1", "2", "3"], "bases": bases, "rho": doc_rho}))
    got, report = run_cli(capsys, "represent", str(path), "S0", *options)
    assert got == code
    assert (report and report["results"]["betti_constructed"]) == betti


def test_represent_builds_no_t(monkeypatch, capsys, refuse_to_build_t):
    """Without --out, represent reads T's Betti numbers off its cells and
    counts its faces from the diagram, so neither its Grothendieck poset
    nor any facet or simplex of it is built."""
    built = []

    def recording(*args):
        built.append(engstrom.build_representation(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_representation", recording)
    code, report = run_cli(capsys, "represent", "U4,5", "S1")
    assert code == 0
    # the counts of the order complex as listed before faces were counted
    assert report["results"]["face_counts"] == {
        "0": 2250, "1": 40530, "2": 189480, "3": 362880, "4": 308880, "5": 97200
    }
    start = time.perf_counter()
    code, report = run_cli(capsys, "represent", "U5,6", "S1", "--rho", "5")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    betti = {int(k): v for k, v in report["results"]["betti_constructed"].items()}
    assert betti == {3: 5, 4: 15, 5: 20, 6: 15, 7: 6}
    counts = {int(k): v for k, v in report["results"]["face_counts"].items()}
    # the reduced Euler characteristic, from the faces and from the Betti numbers
    assert sum((-1) ** j * f for j, f in counts.items()) - 1 == sum((-1) ** k * b for k, b in betti.items())
    for rep in built:
        assert rep.T._simplices is None
        assert "_order" not in rep.T.__dict__ and "_facets" not in rep.T.__dict__


def pinned_represent_arguments(name, tmp_path):
    """The represent arguments of a benchmark pin such as "U3,4 x S1 rho=3".
    The pin of the five-point matroid uses its documented immersion, so it
    is handed over in a matroid document."""
    matroid, template, rho = re.fullmatch(r"(\S+) x (S\d+)(?: rho=(\d+))?", name).groups()
    if matroid != "explicit":
        return [matroid, template] + (["--rho", rho] if rho else [])
    m, immersion = catalog.five_point_matroid(), catalog.five_point_immersion()
    doc = {
        "elements": sorted(m.elements),
        "independents": [sorted(s) for s in m.independents],
        "rho": immersion.rho,
        "immersion": [{"flat": sorted(f), "bits": sorted(b)} for f, b in immersion.as_dict().items()],
    }
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    return [str(path), template]


def test_represent_exports_match_the_benchmark_pins(tmp_path, capsys):
    """`represent --out` writes, byte for byte, the export of T pinned in
    bench/pins.json, and reports the pinned face counts."""
    pins = json.loads((Path(__file__).resolve().parent.parent / "bench" / "pins.json").read_text())
    assert len(pins) == 11
    out = tmp_path / "t.json"
    for name, pin in pins.items():
        code, report = run_cli(capsys, "represent", *pinned_represent_arguments(name, tmp_path), "--out", str(out))
        assert code == 0, name
        assert report["results"]["face_counts"] == pin["face_counts"], name
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin["sha256"], name


def test_represent_export_of_u45_s1_is_pinned(tmp_path, capsys, refuse_to_build_t):
    """`represent U4,5 S1 --out` writes T's 115,560 facets, read from the
    diagram with no Grothendieck poset or order complex built, byte for
    byte as the export listed off T's order complex did."""
    out = tmp_path / "t.json"
    code, _ = run_cli(capsys, "represent", "U4,5", "S1", "--out", str(out))
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "2a0d3dd6aade74fb916b74e96961bcf261354bc155402cd11bb78fcabbd1fd25"


def test_truncate_command(tmp_path, capsys):
    out = tmp_path / "trunc.json"
    code, report = run_cli(capsys, "truncate", "U3,4", "1", "--out", str(out))
    assert code == 0
    assert report["results"]["rank"] == 2
    code, info = run_cli(capsys, "info", str(out))
    assert info["results"]["whitney"] == [1, 4, 3]


def test_verify_selected_suites(capsys):
    code, report = run_cli(capsys, "verify", "--mobius", "--whitney-monotone", "--appendix-demo")
    assert code == 0
    assert report["results"]["passed"] is True
    names = {c["check"] for c in report["results"]["checks"]}
    assert any(name.startswith("mobius") for name in names)
    assert "appendix-demo" in names


def test_verify_functoriality_notes_flat_map_mismatch(capsys):
    code, report = run_cli(capsys, "verify", "--functoriality")
    assert code == 0
    check = report["results"]["checks"][0]
    assert check["details"]["flat_maps_differ_at"] == [["3", "4"]]


def test_verify_all_matches_golden(capsys):
    # tests/data/verify_all.json holds the report of `matrep verify --all`
    # with its timing removed; every other field must stay byte-identical
    golden = Path(__file__).parent / "data" / "verify_all.json"
    code, report = run_cli(capsys, "verify", "--all")
    assert code == 0
    report.pop("timing_ms")
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == golden.read_text()


IDENTITY_MAP_DOC = {"source": "funcM", "target": "funcN", "assignment": {"1": "1", "2": "2", "3": "3", "4": "4", "o": "o"}}

# each command, run in order in one directory, with the files it writes
PINNED_COMMANDS = [
    (["info", "U3,4"], []),
    (["lattice", "explicit"], []),
    (["whitney", "funcL"], []),
    (["truncate", "U3,4", "1", "--out", "t.json"], ["t.json"]),
    (["check-map", "map.json"], []),
    (["represent", "U2,4", "S0", "--out", "T.json"], ["T.json"]),
    (["betti", "T.json"], []),
    (["export", "explicit", "--out", "m.json"], ["m.json"]),
    (["verify", "--mobius", "--functoriality"], []),
    (["represent", "funcN", "S1"], []),
    (["info", "U3,40"], []),
]


def pinned_reports(directory, capsys):
    """Each pinned command's report without ``timing_ms``, its exit code,
    its stderr and the sha256 of each file it writes, run in
    ``directory`` so that echoed paths are relative.  Each report must be
    printed as ``json.dumps(report, sort_keys=True, indent=2)``."""
    (directory / "map.json").write_text(json.dumps(IDENTITY_MAP_DOC))
    runs = []
    for argv, written in PINNED_COMMANDS:
        code = cli.main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out) if captured.out else None
        if report is not None:
            assert captured.out == json.dumps(report, sort_keys=True, indent=2) + "\n", argv
            assert isinstance(report.pop("timing_ms"), float), argv
        files = {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in written}
        runs.append({"argv": argv, "code": code, "report": report, "stderr": captured.err, "files": files})
    return runs


def test_every_subcommand_report_matches_golden(tmp_path, monkeypatch, capsys):
    # tests/data/cli_reports.json holds what pinned_reports returned on the
    # tree that added it; reports, exit codes, errors and written files must
    # stay byte-identical
    monkeypatch.chdir(tmp_path)
    golden = Path(__file__).parent / "data" / "cli_reports.json"
    got = json.dumps(pinned_reports(tmp_path, capsys), sort_keys=True, indent=2) + "\n"
    assert got == golden.read_text()
