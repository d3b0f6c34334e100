"""Verdict time, homology time and peak memory of the side-d triangles.

Run from the root of a checkout:

    python3 scripts/scaling.py --label change --out BENCH_scaling.json

For each side d the triangle (0,0), (d,0), (0,d) (genus (d-1)(d-2)/2) is
decided by ``check_networkgenset`` in a fresh interpreter, ``REPEAT``
times.  Each run records the verdict's wall time, the time spent inside
``surface.homology_basis`` during it (the first call does the work, later
calls read the cache) and the process's peak resident set size.  A row holds
the medians of the times, the largest peak RSS and every run.  The rows go
under ``--label`` in the ``--out`` JSON file, together with the commit and
the host they were measured on; other labels in the file are kept, so that
one file can hold the rows of two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SIDES = tuple(range(6, 47, 4))
REPEAT = 3


def measure(d: int) -> dict:
    """One verdict on the side-d triangle, in this process."""
    sys.path.insert(0, str(SRC))
    from vanishingcycles import surface
    from vanishingcycles.lattice import Polygon
    from vanishingcycles.verify import check_networkgenset

    homology_s = 0.0
    original = surface.homology_basis

    def timed(S):
        nonlocal homology_s
        start = time.perf_counter()
        try:
            return original(S)
        finally:
            homology_s += time.perf_counter() - start

    # the package binds the function by name in several modules
    for name, module in list(sys.modules.items()):
        if name.startswith("vanishingcycles"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, timed)

    P = Polygon(((0, 0), (d, 0), (0, d)))
    start = time.perf_counter()
    report = check_networkgenset(P)
    verdict_s = time.perf_counter() - start
    return {
        "g": report.g,
        "classified": report.classification is not None,
        "verdict_s": verdict_s,
        "homology_basis_s": homology_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def row(d: int) -> dict:
    runs = []
    for _ in range(REPEAT):
        out = subprocess.run([sys.executable, __file__, "--one", str(d)],
                             check=True, capture_output=True, text=True)
        runs.append(json.loads(out.stdout))
    return {
        "side": d,
        "g": runs[0]["g"],
        "classified": runs[0]["classified"],
        "verdict_s": round(statistics.median(r["verdict_s"] for r in runs), 4),
        "homology_basis_s": round(
            statistics.median(r["homology_basis_s"] for r in runs), 4),
        "peak_rss_mb": round(max(r["peak_rss_mb"] for r in runs), 1),
        "runs": runs,
    }


def commit() -> str:
    out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--one", type=int, help="measure the side-d triangle once, "
                    "in this process, and print the run as JSON")
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_scaling.json")
    args = ap.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return

    rows = []
    for d in SIDES:
        rows.append(row(d))
        r = rows[-1]
        print(f"side {d:3d}  g {r['g']:4d}  verdict {r['verdict_s']:8.3f} s  "
              f"homology {r['homology_basis_s']:8.3f} s  "
              f"peak RSS {r['peak_rss_mb']:6.1f} MB", file=sys.stderr)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = {
        "commit": commit(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "repeat": REPEAT,
        "rows": rows,
    }
    args.out.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
