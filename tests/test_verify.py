"""End-to-end verdict layer: gates, hypotheses, classification, decisions."""

import json
import math
import random
import sys
from collections import Counter

import pytest

from vanishingcycles import intlinalg, lattice, network, surface

from vanishingcycles.lattice import (
    Polygon,
    UnimodularMap,
    adjoint_divisibility,
    genus,
)
from vanishingcycles.spin import (
    MarkedCurve,
    ModulusMismatch,
    canonical_spin,
    marked_network_curve,
    twist,
)
from vanishingcycles.network import build_network
from vanishingcycles.surface import inflate
from vanishingcycles.verify import (
    EVEN_VERDICT,
    HYPOTHESES,
    ODD_VERDICT,
    GatesNotPassed,
    VerifyError,
    check_networkgenset,
    classify,
    even_genus_threshold,
    genus_gates,
    is_vanishing_cycle,
    report_json,
)

TRIANGLE6 = Polygon(((0, 0), (6, 0), (0, 6)))
SQUARE4 = Polygon(((0, 0), (4, 0), (4, 4), (0, 4)))


# --- numerical gates ----------------------------------------------------------

def test_gates_for_the_running_example():
    gates = genus_gates(10, 3)
    assert gates.divides and gates.small_modulus and gates.genus_floor
    assert gates.even_threshold is None and gates.above_threshold
    assert gates.passed and gates.failures() == []


def test_even_thresholds():
    assert even_genus_threshold(2) == 3
    assert even_genus_threshold(4) == 13
    assert even_genus_threshold(6) == 7
    assert even_genus_threshold(8) == 21
    assert even_genus_threshold(10) == 11
    with pytest.raises(VerifyError):
        even_genus_threshold(3)
    with pytest.raises(VerifyError):
        even_genus_threshold(0)


def test_gates_modulus_two_and_four():
    g2 = genus_gates(9, 2)
    assert g2.even_threshold == 3 and g2.passed
    assert genus_gates(13, 4).passed
    g12 = genus_gates(12, 4)
    assert not g12.passed
    msgs = " ".join(g12.failures())
    assert "does not divide" in msgs and "threshold 13" in msgs


def test_gates_individual_failures():
    assert not genus_gates(10, 4).divides          # 18 not divisible by 4
    assert not genus_gates(5, 4).small_modulus     # 4 is not < 4
    assert not genus_gates(3, 1).genus_floor
    with pytest.raises(VerifyError):
        genus_gates(5, 0)
    with pytest.raises(VerifyError):
        genus_gates(-1, 2)


# --- full pipeline on the running example -------------------------------------

@pytest.fixture(scope="module")
def side6_report():
    return check_networkgenset(TRIANGLE6)


def test_side6_hypotheses_all_hold(side6_report):
    rep = side6_report
    assert rep.g == 10 and rep.r == 3 and rep.hyperelliptic is False
    assert rep.gates.passed
    assert all(rep.hypotheses[k] is True for k in HYPOTHESES)
    assert rep.passed


def test_side6_network_evidence(side6_report):
    ev = side6_report.evidence
    assert ev["curves"] == 28
    assert "network_connected" not in ev and ev["network_betti"] == 1
    assert ev["reduced_tree"] and ev["reduced_betti"] == 0
    assert "network_fills" not in ev and ev["relative_filling"]
    assert ev["euler"] == -18 and ev["faces"] == 10
    assert ev["arcs"] == 56 and ev["vertices"] == 28
    assert ev["configuration_size"] == 9


def test_side6_classification_is_the_full_stabilizer(side6_report):
    assert side6_report.classification == ODD_VERDICT
    assert "full stabilizer" in side6_report.classification
    assert side6_report.classification.endswith("[Mod : Γ] finite")
    assert classify(TRIANGLE6) == ODD_VERDICT


def test_side6_axis_warning_present(side6_report):
    assert any("first axis" in w for w in side6_report.warnings)


def test_even_modulus_square():
    rep = check_networkgenset(SQUARE4)
    assert rep.g == 9 and rep.r == 2
    assert all(rep.hypotheses[k] is True for k in HYPOTHESES)
    assert rep.classification == EVEN_VERDICT
    assert "full stabilizer" not in rep.classification
    assert rep.classification.endswith("[Mod : Γ] finite")
    assert any("left open" in w for w in rep.warnings)


def test_verdict_parity_is_consistent():
    for P in (TRIANGLE6, SQUARE4, Polygon(((0, 0), (7, 0), (0, 7))),
              Polygon(((0, 0), (5, 0), (5, 5), (0, 5)))):
        rep = check_networkgenset(P)
        if rep.classification is None:
            continue
        assert ("full stabilizer" in rep.classification) == (rep.r % 2 == 1)


# --- refusals -----------------------------------------------------------------

def test_hyperelliptic_refusal_is_not_an_error():
    rep = check_networkgenset(Polygon(((0, 0), (4, 0), (4, 2), (0, 2))))
    assert rep.hyperelliptic is True
    assert rep.classification is None and not rep.passed
    assert rep.r is None
    assert all(rep.hypotheses[k] is None for k in HYPOTHESES)
    assert any("hyperelliptic" in w for w in rep.warnings)


def test_low_genus_refusal():
    rep = check_networkgenset(Polygon(((0, 0), (4, 0), (0, 4))))
    assert rep.g == 3 and rep.r == 1
    assert rep.classification is None
    assert any("below the floor" in w for w in rep.warnings)
    assert all(rep.hypotheses[k] is None for k in HYPOTHESES)


def test_degenerate_hull_refusals():
    for verts, gval in ((((0, 0), (1, 0), (0, 1)), 0),
                        (((0, 0), (3, 0), (0, 3)), 1)):
        rep = check_networkgenset(Polygon(verts))
        assert rep.g == gval and rep.r is None
        assert rep.classification is None
        assert any("not two-dimensional" in w for w in rep.warnings)


def test_classify_raises_on_refusals():
    with pytest.raises(GatesNotPassed):
        classify(Polygon(((0, 0), (4, 0), (0, 4))))
    with pytest.raises(GatesNotPassed):
        classify(Polygon(((0, 0), (4, 0), (4, 2), (0, 2))))


# --- vanishing-cycle decisions --------------------------------------------------

@pytest.fixture(scope="module")
def side6_marked():
    net = build_network(TRIANGLE6)
    S = inflate(TRIANGLE6, net)
    spin = canonical_spin(TRIANGLE6, net, S)
    return [marked_network_curve(S, spin, c) for c in net.curve_list()]


def test_network_curves_are_vanishing_cycles(side6_report, side6_marked):
    for mc in side6_marked:
        assert is_vanishing_cycle(mc, TRIANGLE6, report=side6_report)


def test_twist_orbit_images_are_vanishing_cycles(side6_report, side6_marked):
    rng = random.Random(2026)
    for _ in range(40):
        d = rng.choice(side6_marked)
        for _ in range(rng.randint(1, 4)):
            d = twist(d, rng.choice(side6_marked))
        assert is_vanishing_cycle(d, TRIANGLE6, report=side6_report)


def test_nonzero_value_classes_are_rejected(side6_report, side6_marked):
    base = side6_marked[0]
    shifted = MarkedCurve(base.h, base.phi + 1, base.r)
    assert not is_vanishing_cycle(shifted, TRIANGLE6, report=side6_report)
    assert not is_vanishing_cycle(MarkedCurve(base.h, 2, base.r),
                                  TRIANGLE6, report=side6_report)


def test_even_and_zero_classes_are_rejected(side6_report, side6_marked):
    base = side6_marked[0]
    doubled = MarkedCurve(tuple(2 * x for x in base.h), 0, base.r)
    assert not is_vanishing_cycle(doubled, TRIANGLE6, report=side6_report)
    zero = MarkedCurve((0,) * len(base.h), 0, base.r)
    assert not is_vanishing_cycle(zero, TRIANGLE6, report=side6_report)


def test_decision_rejects_curves_of_another_structure(side6_report, side6_marked):
    base = side6_marked[0]
    assert base.r == side6_report.r == 3
    with pytest.raises(ModulusMismatch):
        is_vanishing_cycle(MarkedCurve(base.h, 0, 7), TRIANGLE6,
                           report=side6_report)
    with pytest.raises(ModulusMismatch):
        is_vanishing_cycle(MarkedCurve((1, 0), 0, base.r), TRIANGLE6,
                           report=side6_report)


def test_decision_requires_passing_gates():
    probe = MarkedCurve((1, 0, 0, 0, 0, 0), 0, 1)
    with pytest.raises(GatesNotPassed):
        is_vanishing_cycle(probe, Polygon(((0, 0), (4, 0), (0, 4))))


def test_decision_rejects_a_report_of_another_polygon(side6_report,
                                                     side6_marked):
    curve = side6_marked[0]
    genus_one = Polygon(((0, 0), (3, 0), (0, 3)))
    with pytest.raises(VerifyError):
        is_vanishing_cycle(curve, genus_one, report=side6_report)
    with pytest.raises(VerifyError):
        is_vanishing_cycle(curve, SQUARE4, report=side6_report)
    # a unimodular image of the side-6 triangle shares its report
    image = Polygon(((3, -2), (9, -2), (9, 4)))
    assert is_vanishing_cycle(curve, image, report=side6_report)


def test_side10_triangle_classifies_odd():
    report = check_networkgenset(Polygon(((0, 0), (10, 0), (0, 10))))
    assert (report.g, report.r) == (36, 7)
    assert report.classification == ODD_VERDICT


def count_calls(monkeypatch, original, record=lambda *args: True):
    """Replace ``original`` in every library namespace that binds it by a
    wrapper that keeps the arguments of each call for which ``record`` holds
    (``record`` sees the arguments before the call)."""
    calls = []

    def counted(*args, **kwargs):
        if record(*args):
            calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "vanishingcycles" or name.startswith("vanishingcycles."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_side8_verdict_computes_each_fact_once(monkeypatch):
    # counts, not times: a recomputation reintroduced anywhere on the
    # verdict path changes one of them
    smith = count_calls(monkeypatch, intlinalg.smith_normal_form)
    normalizations = count_calls(monkeypatch, lattice.canonical_form)
    inflations = count_calls(monkeypatch, surface.inflate)
    segment_passes = count_calls(monkeypatch, network.check_network_invariants,
                                 lambda net: not net._segments_checked)
    scan = Polygon._scan
    interior_scans = Counter()
    scanned = []  # keeps each polygon alive, so that no id is reused

    def counted_scan(self, strict):
        if strict:
            scanned.append(self)
            interior_scans[id(self)] += 1
        return scan(self, strict)

    monkeypatch.setattr(Polygon, "_scan", counted_scan)
    report = check_networkgenset(Polygon(((0, 0), (8, 0), (0, 8))))
    assert report.classification == ODD_VERDICT
    assert len(smith) == 0
    assert len(normalizations) == 1
    assert len(inflations) == 2
    assert len(segment_passes) == 2
    assert scanned and max(interior_scans.values()) == 1


# --- plane-curve and product corpus ---------------------------------------------

def test_triangle_corpus_genus_and_modulus():
    for d in range(4, 9):
        P = Polygon(((0, 0), (d, 0), (0, d)))
        assert genus(P) == (d - 1) * (d - 2) // 2
        assert adjoint_divisibility(P) == d - 3
        rep = check_networkgenset(P)
        assert rep.g == (d - 1) * (d - 2) // 2
        assert rep.r == d - 3


def test_rectangle_corpus_genus_and_modulus():
    for a in range(3, 8):
        for b in range(3, 8):
            P = Polygon(((0, 0), (a, 0), (a, b), (0, b)))
            assert genus(P) == (a - 1) * (b - 1)
            assert adjoint_divisibility(P) == math.gcd(a - 2, b - 2)
    rep = check_networkgenset(Polygon(((0, 0), (5, 0), (5, 3), (0, 3))))
    assert rep.g == 8 and rep.r == 1 and rep.classification == ODD_VERDICT


# --- report schema and determinism ----------------------------------------------

def test_report_json_schema(side6_report):
    data = side6_report.to_json()
    assert list(data) == ["polygon", "g", "r", "hypotheses",
                          "classification", "warnings"]
    assert list(data["hypotheses"]) == list(HYPOTHESES)
    assert isinstance(data["polygon"], list)
    assert all(len(v) == 2 for v in data["polygon"])
    assert isinstance(data["warnings"], list)
    json.dumps(data)  # serializable


def test_reports_identical_across_unimodular_images():
    rng = random.Random(77)
    for P in (TRIANGLE6, SQUARE4):
        baseline = report_json(P)
        for _ in range(4):
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            m = UnimodularMap(((1, a), (0, 1)), (rng.randint(-5, 5),
                                                 rng.randint(-5, 5)))
            m2 = UnimodularMap(((1, 0), (b, 1)), (0, 0))
            verts = tuple(m2.apply(m.apply(v)) for v in P.vertices)
            assert report_json(Polygon(verts)) == baseline


def test_text_rendering_mentions_key_fields(side6_report):
    text = side6_report.to_text()
    assert "genus: 10" in text and "modulus: 3" in text
    assert "H4: True" in text and "classification:" in text
