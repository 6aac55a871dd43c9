"""Every name the benchmark reads off the package still resolves.

The scripts in bench/ reach the library as ``mr`` (the ``matrep`` package)
and ``cat`` (``matrep.catalog``); a name removed from the library would make
them fail only when the benchmark runs, so each ``mr.<name>``,
``mr.<module>.<name>`` and ``cat.<name>`` they use is resolved here.
"""

import re
from pathlib import Path

import matrep
import matrep.catalog

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_names_resolve_on_matrep():
    roots = {"mr": matrep, "cat": matrep.catalog}
    used = set()
    for path in sorted(BENCH.glob("*.py")):
        for root, chain in re.findall(r"\b(mr|cat)((?:\.[A-Za-z_]\w*)+)", path.read_text()):
            target = roots[root]
            for attr in chain[1:].split("."):
                assert hasattr(target, attr), f"{path.name} uses {root}{chain}"
                target = getattr(target, attr)
            used.add(root + chain)
    assert len(used) >= 20
