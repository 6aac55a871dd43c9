"""matrep benchmark: time to a verified answer, end to end and per layer.

    python3 bench/run.py --workload represent --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; matrep is imported from its `src/`.  One
process, one thread, closed loop with one caller: each instance starts
when the previous answer has been checked.

--trace 0 measures for --seconds, giving half of the time to large-tier
passes and half to small-tier cycles, with fresh-process `import matrep`
runs spread over it.  Every instance is timed on its own.  It reports
the sum of the large-tier instances' upper-quartile times, small-tier
instances per second of the sum of their upper-quartile times (scaled by
the share verified), the median import time and the peak resident set.
--trace 1 runs one large pass and one small cycle, each instance once
untraced and once with spans around matrep's layers (spans.py), reports
per-layer self times and counters, and writes the spans to bench/out/.

Every instance is checked against answers computed without matrep
(oracle.py).  A wrong answer or an exception fails that instance only;
failed and attempted instances are counted.  Before measuring, a
self-check feeds the checker a wrong expected Betti vector, a wrong
Whitney vector and an instance that raises, and requires all three to be
counted as failures.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import RankTable, betti_closed_form
from spans import Tracer
from workloads import WORKLOADS, Instance, matroid_pipeline, represent, uniform_represent

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 15
IMPORT_PROBE = "import time; t = time.perf_counter(); import matrep; print(time.perf_counter() - t)"


def load_matrep():
    """Import matrep from this checkout's src/, and nowhere else."""
    if not (SRC / "matrep" / "__init__.py").is_file():
        sys.exit(f"bench: no matrep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import matrep
    import matrep.catalog  # noqa: F401  (the catalog is not re-exported)

    if Path(matrep.__file__).resolve().parent != SRC / "matrep":
        sys.exit(f"bench: imported matrep from {matrep.__file__}, not from {SRC}")
    return matrep


def setup_seconds(n: int) -> list:
    """n fresh-process `import matrep` times, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=HERE.parent, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout))
    return samples


class Tally:
    """Attempted and failed instances, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, inst, tracer=None) -> bool:
        self.attempted += 1
        if tracer is not None:
            tracer.instance = inst.name
        try:
            problems = inst.run()
        except Exception as exc:  # an instance that raises fails alone
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if tracer is not None:
            # zero when no Grothendieck poset was built through the public function
            size = tracer.per_instance[tracer.instance]["diagrams.grothendieck_elements"]
            if size and inst.grothendieck and size not in inst.grothendieck:
                problems = problems + [
                    f"Grothendieck poset has {size} elements, predicted {inst.grothendieck}"
                ]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{inst.name}: {'; '.join(problems)}")
        return not problems


def self_check(mr) -> list:
    """Feed the checker corrupted answers; return what it failed to catch."""
    u23 = RankTable.uniform(2, 3)
    off_betti = {d: b + 1 for d, b in betti_closed_form(u23.whitney(), 2, 0).items()}
    off_whitney = [w + (i == 1) for i, w in enumerate(u23.whitney())]

    def make():
        return mr.immersed(mr.uniform(2, 3)), mr.sphere(0)

    def raises():
        mr.Matroid([1, 2], [(), (1,), (3,)])  # 3 is not an element
        return []

    cases = [
        (represent(mr, "U2,3 x S0", make, u23, 2, 0, expect=off_betti), "off-by-one Betti"),
        (matroid_pipeline(mr, "U2,3", u23, whitney=off_whitney), "off-by-one Whitney"),
        (Instance("raises", raises), "an exception inside an instance"),
        (uniform_represent(mr, 2, 3, 2, 0), None),
    ]
    tally = Tally()
    missed = [why for inst, why in cases if tally.run(inst) != (why is None)]
    if (tally.attempted, tally.failed) != (4, 3):
        missed.append(f"{tally.failed} of {tally.attempted} failed, expected 3 of 4")
    return missed


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)} median {statistics.median(values):.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} max {max(values):.4f}"


def upper_quartile(times) -> float:
    """Inclusive upper quartile; a single time is its own quartile."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def timed_run(tally, inst, times) -> bool:
    """Run one instance and append its wall time to `times`."""
    t0 = time.perf_counter()
    ok = tally.run(inst)
    times.append(time.perf_counter() - t0)
    return ok


def measure(workload, seconds, tally) -> dict:
    """Large-tier passes and small-tier cycles for `seconds`, giving each
    tier half of the time: a large pass runs whenever the large tier has
    had no more time than the small one and a pass as long as the last one
    still ends in time; otherwise a small cycle runs.  SETUP_SAMPLES
    fresh-process imports are spread over the run.

    Every instance does the same work on each repeat, so each is timed on
    its own and the tiers report sums of the instances' upper-quartile
    times: large_s the sum over the large tier, small_ips the small-tier
    instances divided by the sum over the small tier.  The host is shared
    and loaded most of the time, with quieter spells of varying length;
    the upper quartile is the time under that load, while a median or a
    minimum moves with how much of the run fell into a quiet spell."""
    setup_seconds(1)  # the first import may write bytecode caches
    large_times = [[] for _ in workload.large]
    small_times = [[] for _ in workload.small]
    setup, passes = [], []
    small_tried = small_verified = cycles = 0
    small_time = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while not passes or not cycles or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        if not passes or (sum(passes) <= small_time and t0 + passes[-1] <= deadline):
            for inst, times in zip(workload.large, large_times):
                timed_run(tally, inst, times)
            passes.append(time.perf_counter() - t0)
        else:
            for inst, times in zip(workload.small, small_times):
                small_verified += timed_run(tally, inst, times)
            small_time += time.perf_counter() - t0
            small_tried += len(workload.small)
            cycles += 1
        # one fresh-process import for each 1/SETUP_SAMPLES of the run gone
        due = SETUP_SAMPLES * min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup) < due:
            setup += setup_seconds(1)
    setup += setup_seconds(max(0, SETUP_SAMPLES - len(setup)))
    large_s = sum(upper_quartile(times) for times in large_times)
    small_s = sum(upper_quartile(times) for times in small_times)
    print(f"setup (fresh import matrep) seconds: {quartiles(setup)}")
    print(
        f"large tier ({len(workload.large)} instances) seconds per pass: {quartiles(passes)}; "
        f"sum of instance upper quartiles {large_s:.4f}"
    )
    print(
        f"small tier ({len(workload.small)} instances): {cycles} cycles, "
        f"{small_verified} of {small_tried} verified; sum of instance upper quartiles {small_s:.4f} s"
    )
    return {
        "large_s": (large_s, "s"),
        "small_ips": (len(workload.small) * small_verified / small_tried / small_s, "instances/s"),
        "setup_s": (statistics.median(setup), "s"),
    }


def traced(workload, tally, out_path) -> dict:
    """Each instance runs untraced and then traced, back to back, so the
    overhead ratio compares runs made under the same machine conditions."""
    tracer = Tracer()
    untraced = with_spans = 0.0
    for inst in workload.large + workload.small:
        t0 = time.perf_counter()
        tally.run(inst)
        t1 = time.perf_counter()
        tracer.install("matrep")
        try:
            t2 = time.perf_counter()
            tally.run(inst, tracer)
            t3 = time.perf_counter()
        finally:
            tracer.uninstall()
        untraced += t1 - t0
        with_spans += t3 - t2
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = with_spans / untraced
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps({"metrics": metrics, **tracer.dump()}))
    print(f"untraced {untraced:.3f} s, traced {with_spans:.3f} s, {len(tracer.spans)} spans")
    if tracer.missing:
        print(f"targets not found (recorded as zero): {', '.join(sorted(set(tracer.missing)))}")
    units = {"self_s": "s", "total_s": "s", "overhead_ratio": "ratio"}
    return {k: (v, units.get(k.rpartition(".")[2], "count")) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mr = load_matrep()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](mr, args.seed)
    missed = self_check(mr)
    print(f"self-check: {'ok' if not missed else 'MISSED ' + '; '.join(missed)}")

    tally = Tally()
    if args.trace:
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = traced(workload, tally, out)
    else:
        metrics = measure(workload, args.seconds, tally)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"error_rate: {tally.failed}/{tally.attempted}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and not missed,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
