"""Pipeline verdicts: genus gates, hypothesis checks, classification.

This module strings the geometric layers together.  Given a convex lattice
polygon it normalizes the input, reads off the genus and the adjoint
divisibility, evaluates the numerical gates under which the twist-group
classification applies, checks the four structural hypotheses on the curve
network, and — when everything holds — emits the classification verdict for
the stabilizer of the invariant spin structure.

Hypotheses (reported individually, failures aggregated, never raised):

* ``H1`` — every network curve is admissible for the canonical structure:
  value zero and a primitive homology class.
* ``H2`` — the network contains the distinguished chain configuration read
  along the first axis of the normalized polygon.
* ``H3`` — the network has a curve meeting the omitted segment curve in
  exactly one point.
* ``H4`` — the reduced network (the first circle removed) has a tree
  intersection graph and still fills the complement of the omitted segment
  curve.

Refusals (hyperelliptic input, genus at most four, degenerate adjoint) are
reported through warnings with no classification; they are not errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .lattice import (
    DegenerateDimension,
    Polygon,
    adjoint,
    adjoint_divisibility,
    canonical_form,
    genus,
)
from .network import (
    BCurve,
    ConfigurationUnavailable,
    NetworkError,
    build_network,
    dn_configuration,
    geometric_intersection,
    graph_stats,
    intersection_graph,
    subnetwork_nprime,
)
from .spin import (
    MarkedCurve,
    ModulusMismatch,
    SpinError,
    canonical_spin,
    is_admissible,
    marked_network_curve,
)
from .surface import (
    SurfaceError,
    inflate,
    relative_filling,
)


class VerifyError(ValueError):
    """Base error for the verdict layer."""


class GatesNotPassed(VerifyError):
    """A verdict was requested for input outside the classification window."""


HYPOTHESES = ("H1", "H2", "H3", "H4")

ODD_VERDICT = "Γ = Mod[φ] (full stabilizer); [Mod : Γ] finite"
EVEN_VERDICT = "Γ finite-index in Mod, contains T_φ; [Mod : Γ] finite"

_AXIS_NOTE = ("curve coordinates and the distinguished configuration are read "
              "along the first axis of the normalized polygon")
_EVEN_NOTE = ("even modulus: the checks certify that the subgroup has finite "
              "index and contains the twists above; whether it is the full "
              "stabilizer of the structure is left open here")


def even_genus_threshold(r: int) -> int:
    """Minimal genus at which the even-modulus classification is asserted."""
    if r < 2 or r % 2:
        raise VerifyError(f"threshold is defined for even moduli >= 2, got {r}")
    d = r // 2
    k = 6 if d == 2 else 5 if d == 4 else 2
    return k * d + 1


@dataclass(frozen=True)
class GenusGates:
    """Record of the numerical conditions gating the classification."""

    g: int
    r: int
    divides: bool          # r | 2g - 2
    small_modulus: bool    # r < g - 1
    genus_floor: bool      # g >= 5
    even_threshold: Optional[int]   # minimal genus for even r, None when odd
    above_threshold: bool  # g >= even_threshold (vacuously true for odd r)

    @property
    def passed(self) -> bool:
        return (self.divides and self.small_modulus and self.genus_floor
                and self.above_threshold)

    def failures(self) -> list:
        out = []
        if not self.divides:
            out.append(f"modulus {self.r} does not divide 2g-2 = {2 * self.g - 2}")
        if not self.small_modulus:
            out.append(f"modulus {self.r} is not smaller than g-1 = {self.g - 1}")
        if not self.genus_floor:
            out.append(f"genus {self.g} is below the floor 5")
        if not self.above_threshold:
            out.append(f"genus {self.g} is below the even-modulus threshold "
                       f"{self.even_threshold}")
        return out


def genus_gates(g: int, r: int) -> GenusGates:
    """Evaluate the numerical gates for genus ``g`` and modulus ``r``."""
    if g < 0 or r < 1:
        raise VerifyError(f"need g >= 0 and r >= 1, got g={g}, r={r}")
    threshold = even_genus_threshold(r) if r % 2 == 0 else None
    return GenusGates(
        g=g,
        r=r,
        divides=(2 * g - 2) % r == 0,
        small_modulus=r < g - 1,
        genus_floor=g >= 5,
        even_threshold=threshold,
        above_threshold=(threshold is None or g >= threshold),
    )


@dataclass
class VerificationReport:
    """Aggregated outcome of the full pipeline on one polygon."""

    polygon: tuple
    g: int
    r: Optional[int]
    hyperelliptic: Optional[bool]
    gates: Optional[GenusGates]
    hypotheses: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)
    classification: Optional[str] = None
    warnings: tuple = ()

    @property
    def passed(self) -> bool:
        return self.classification is not None

    def to_json(self) -> dict:
        return {
            "polygon": [list(v) for v in self.polygon],
            "g": self.g,
            "r": self.r,
            "hypotheses": {k: self.hypotheses.get(k) for k in HYPOTHESES},
            "classification": self.classification,
            "warnings": list(self.warnings),
        }

    def to_text(self) -> str:
        lines = [f"polygon: {list(self.polygon)}",
                 f"genus: {self.g}",
                 f"modulus: {self.r}"]
        if self.gates is not None:
            lines.append(f"gates passed: {self.gates.passed}")
        for k in HYPOTHESES:
            lines.append(f"{k}: {self.hypotheses.get(k)}")
        for key in sorted(self.evidence):
            lines.append(f"{key}: {self.evidence[key]}")
        lines.append(f"classification: {self.classification}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _refusal(Q: Polygon, g: int, r, hyper, gates, warnings) -> VerificationReport:
    return VerificationReport(
        polygon=Q.vertices,
        g=g,
        r=r,
        hyperelliptic=hyper,
        gates=gates,
        hypotheses={k: None for k in HYPOTHESES},
        evidence={},
        classification=None,
        warnings=tuple(warnings),
    )


def _normalized(P: Polygon) -> Polygon:
    """The polygon in the coordinates of its report."""
    try:
        return canonical_form(P)[0]
    except DegenerateDimension:
        # Normalization anchors on the inner hull, so it is undefined for the
        # refusal inputs; they are reported in the given coordinates.
        return P


def check_networkgenset(P: Polygon) -> VerificationReport:
    """Run the full pipeline on ``P`` and aggregate every check into a report.

    The input is normalized first, so unimodularly equivalent polygons yield
    identical reports.  Failures of individual hypotheses are recorded, not
    raised; refusals (hyperelliptic, low genus, degenerate adjoint) come back
    as warnings with no classification.
    """
    Q = _normalized(P)
    g = genus(Q)
    adj = adjoint(Q)

    if adj.kind != "polygon":
        hyper = adj.kind == "segment"
        if hyper:
            msg = ("the inner hull is one-dimensional, so the generic curve is "
                   "hyperelliptic; the hypotheses exclude this case")
        else:
            what = "empty" if adj.kind == "empty" else "a single point"
            msg = (f"the inner hull is {what}, not two-dimensional; "
                   "no modulus or network is defined")
        return _refusal(Q, g, None, hyper, None, [msg])

    r = adjoint_divisibility(Q)
    gates = genus_gates(g, r)
    if not gates.passed:
        notes = [f"outside the classification window: {reason}"
                 for reason in gates.failures()]
        return _refusal(Q, g, r, False, gates, notes)

    hypotheses = {k: None for k in HYPOTHESES}
    evidence = {}
    warnings = [_AXIS_NOTE]

    try:
        # Q is normalized, so its adjoint corner sits at the origin along
        # the axes
        net = build_network(Q, (0, 0))
        S = inflate(Q, net)
        spin = canonical_spin(Q, net, S)
    except (NetworkError, SurfaceError, SpinError) as exc:
        warnings.append(f"pipeline construction failed: {exc}")
        return _refusal(Q, g, r, False, gates, warnings)

    _, betti, _ = graph_stats(intersection_graph(net))
    evidence.update({
        "curves": len(net),
        "network_betti": betti,
        "euler": S.euler(),
        "faces": len(S.faces),
        "arcs": len(S.arcs),
        "vertices": len(S.vertices),
    })

    hypotheses["H1"] = all(
        is_admissible(marked_network_curve(S, spin, c)) for c in net.curve_list()
    )

    dn = None
    try:
        dn = dn_configuration(net)
        hypotheses["H2"] = True
    except ConfigurationUnavailable as exc:
        hypotheses["H2"] = False
        warnings.append(f"no distinguished configuration: {exc}")

    if dn is not None:
        omitted = BCurve(dn.b_segment)
        hypotheses["H3"] = (dn.d in net and omitted not in net
                            and geometric_intersection(dn.d, omitted) == 1)
        nprime = subnetwork_nprime(net)
        np_connected, np_betti, np_tree = graph_stats(intersection_graph(nprime))
        rel = relative_filling(Q, nprime, dn.b_segment)
        hypotheses["H4"] = np_tree and rel
        evidence.update({
            "reduced_connected": np_connected,
            "reduced_betti": np_betti,
            "reduced_tree": np_tree,
            "relative_filling": rel,
            "configuration_size": dn.n,
        })
    else:
        hypotheses["H3"] = False
        hypotheses["H4"] = False

    classification = None
    if all(hypotheses[k] is True for k in HYPOTHESES):
        classification = ODD_VERDICT if r % 2 else EVEN_VERDICT
        if r % 2 == 0:
            warnings.append(_EVEN_NOTE)
    else:
        failed = [k for k in HYPOTHESES if hypotheses[k] is not True]
        warnings.append("hypotheses not established: " + ", ".join(failed))

    return VerificationReport(
        polygon=Q.vertices,
        g=g,
        r=r,
        hyperelliptic=False,
        gates=gates,
        hypotheses=hypotheses,
        evidence=evidence,
        classification=classification,
        warnings=tuple(warnings),
    )


def classify(P: Polygon) -> str:
    """Return the verdict string for ``P``; raise when the gates fail.

    Odd modulus: the twist subgroup is the full stabilizer of the invariant
    structure.  Even modulus: the checks certify finite index and membership
    of the distinguished twists; the verdict never claims more.
    """
    report = check_networkgenset(P)
    if report.classification is None:
        raise GatesNotPassed("; ".join(report.warnings) or "verification failed")
    return report.classification


def is_vanishing_cycle(c: MarkedCurve, P: Polygon,
                       report: Optional[VerificationReport] = None) -> bool:
    """Decide whether the marked curve class is realized by a vanishing cycle.

    Requires the polygon to pass the full verification (pass a precomputed
    ``report`` to skip recomputation).  The answer is the admissibility of
    the class: value zero and primitive.  A report of another polygon raises
    ``VerifyError``; a curve under another modulus, or of another genus,
    raises ``ModulusMismatch``.
    """
    if report is None:
        report = check_networkgenset(P)
    elif report.polygon != _normalized(P).vertices:
        raise VerifyError(
            f"the report is for the polygon {list(report.polygon)}, "
            f"not for {list(P.vertices)}")
    if report.classification is None:
        raise GatesNotPassed("; ".join(report.warnings) or "verification failed")
    if c.r != report.r or len(c.h) != 2 * report.g:
        raise ModulusMismatch(
            f"curve of modulus {c.r} and length {len(c.h)} does not live on "
            f"the genus-{report.g} surface of modulus {report.r}")
    return is_admissible(c)


def report_json(P: Polygon) -> str:
    """Serialized report; identical bytes for unimodularly equivalent input."""
    return json.dumps(check_networkgenset(P).to_json(), indent=2, sort_keys=False)
