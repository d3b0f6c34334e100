"""The benchmark tracer's size readers, applied to real results.

``bench/tracer.py`` reads a work count off the result of some traced
functions (``SIZES``), but only when a run traces; these tests apply each
reader here, so that a reshaped result fails the test suite rather than a
traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from vanishingcycles.lattice import Polygon  # noqa: E402
from vanishingcycles.network import build_network  # noqa: E402
from vanishingcycles.surface import inflate  # noqa: E402

TRIANGLE6 = Polygon(((0, 0), (6, 0), (0, 6)))


def test_every_size_reader_reads_a_real_result():
    net = build_network(TRIANGLE6)
    S = inflate(net)
    matrix = [[2, 4, 4], [-6, 6, 12]]
    calls = {
        "network.build_network": ((TRIANGLE6,), 28),  # 10 circles, 18 segments
        "surface.inflate": ((net,), 56),  # two arcs per crossing
        "surface.homology_basis": ((S,), 28),  # one chord per curve
        "intlinalg.smith_normal_form": ((matrix,), 3),
    }
    assert set(calls) == set(tracer.SIZES)
    for name, (args, size) in calls.items():
        mod, fn = name.split(".")
        result = getattr(importlib.import_module(f"vanishingcycles.{mod}"), fn)(*args)
        assert tracer.SIZES[name](args, result) == size, name
