"""Self-tests of the benchmark: run with ``python3 -m pytest bench``."""

import dataclasses
import importlib
import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from vanishingcycles.lattice import Polygon  # noqa: E402
from vanishingcycles import verify  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bindings():
    return {(key, attr): value
            for key, m in sys.modules.items() if key.startswith("vanishingcycles")
            for attr, value in vars(m).items() if callable(value)}


def test_tracer_restores_every_wrapped_function():
    for mod in tracer.TRACED:
        importlib.import_module(f"vanishingcycles.{mod}")
    before = _bindings()
    try:
        with tracer.Tracer() as t:
            wrapped = {k for k, v in _bindings().items() if before.get(k) is not v}
            verify.check_networkgenset(Polygon(((0, 0), (6, 0), (0, 6))))
            raise RuntimeError("leave the block by an error")
    except RuntimeError:
        pass
    assert {k[1] for k in wrapped} == {fn for fns in tracer.TRACED.values() for fn in fns}
    assert _bindings() == before
    assert {row[0] for row in t.spans} >= {"verify.check_networkgenset",
                                           "surface.homology_basis"}


def test_checker_rejects_wrong_g_or_r():
    report = verify.check_networkgenset(Polygon(((0, 0), (6, 0), (0, 6))))
    assert workloads.report_problems(report, 10, 3, True) == []
    assert workloads.report_problems(dataclasses.replace(report, g=11), 10, 3, True)
    assert workloads.report_problems(dataclasses.replace(report, r=1), 10, 3, True)
    assert workloads.report_problems(
        dataclasses.replace(report, classification=None), 10, 3, True)


def test_family_closed_forms_match_interior_counts():
    for label, vertices, g, r in workloads.PIPELINE_FAMILIES:
        assert len(workloads.interior_points(vertices)) == g, label
        assert workloads.adjoint_modulus(vertices) == r, label
    assert workloads.orthogonal_order(3, 0) == 40320
    assert workloads.orthogonal_order(3, 1) == 51840
    assert workloads.orbit_census(3) == {0: 36, 1: 28}


def test_names_use_only_the_allowed_characters():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))


def test_emitted_metrics_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    loop = run.Loop()
    for item in workloads.model_relations(workloads.random.Random(1))[-2:]:
        loop.run(len(loop.latencies), item)
    assert loop.ok == 2
    emitted = run.end_to_end(loop, "model-relations", 90, 0.1)
    assert list(emitted) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert emitted[m["name"]]["unit"] == m["unit"]
    per_layer = tracer.per_layer_metrics([], set(), {}, 0.0)
    assert list(per_layer) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert per_layer[m["name"]]["unit"] == m["unit"]
