"""Golden reports: ``report_json`` on a fixed set of polygons, byte for byte.

``tests/data/reports.json`` holds, for every input, its vertices and either
its report or the class name of the exception it raises.  The inputs are the
27 polygons of the acceptance suite's filling corpus, the four benchmark
pipeline families with their (x, y) -> (y, x) mirror images, and one
hyperelliptic, one low-genus and one empty-adjoint refusal.

A change that alters reports on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and says so in its change notes.
"""

import json
import pathlib

from test_acceptance import _filling_corpus

from vanishingcycles.lattice import Polygon
from vanishingcycles.verify import report_json

GOLDEN = pathlib.Path(__file__).parent / "data" / "reports.json"

PIPELINE_FAMILIES = (
    ((0, 0), (7, 0), (0, 7)),
    ((0, 0), (8, 0), (0, 8)),
    ((0, 0), (5, 0), (5, 5), (0, 5)),
    ((0, 0), (7, 0), (7, 4), (0, 4)),
)

REFUSALS = (
    ((0, 0), (4, 0), (4, 2), (0, 2)),   # hyperelliptic
    ((0, 0), (4, 0), (0, 4)),           # genus 3, below the floor
    ((0, 0), (1, 0), (0, 1)),           # empty inner hull
)


def golden_inputs() -> list:
    """Vertex tuples of every golden input, in file order."""
    inputs = [P.vertices for P in _filling_corpus()]
    for vs in PIPELINE_FAMILIES:
        inputs += [vs, tuple((y, x) for x, y in vs)]
    return inputs + list(REFUSALS)


def _entry(vertices) -> dict:
    out = {"vertices": [list(v) for v in vertices]}
    try:
        out["report"] = report_json(Polygon(tuple(vertices)))
    except Exception as exc:  # the class name is the recorded outcome
        out["raises"] = type(exc).__name__
    return out


def test_golden_inputs_are_the_stored_inputs():
    data = json.loads(GOLDEN.read_text())
    assert [e["vertices"] for e in data] == \
        [[list(v) for v in vs] for vs in golden_inputs()]


def test_reports_match_the_golden_file():
    for stored in json.loads(GOLDEN.read_text()):
        assert _entry(stored["vertices"]) == stored, stored["vertices"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_entry(vs) for vs in golden_inputs()],
                                 indent=1) + "\n")
