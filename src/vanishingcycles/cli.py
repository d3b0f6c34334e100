"""Command-line front end: polygon JSON in; reports, network JSON, SVG out.

Commands
--------
analyze    lattice summary (genus, modulus, inner hull, normal form)
network    construct the curve network and emit its JSON export
verify     run the full hypothesis pipeline and emit the report
render     draw the polygon, the shaded inner hull, and the network in the
           doubled-surface picture as a deterministic SVG 1.1 figure
relations  run the exact twist-relation suite (braid, chain, forked chain,
           square-transvection, wedge-kernel and closure checks)
orbits     mod-2 quadratic forms: orbit census, group orders, stabilizer
           data

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Dict, List, Optional, Sequence

from .lattice import (
    LatticeError,
    NoUnimodularNormalization,
    Polygon,
    adjoint,
    adjoint_divisibility,
    canonical_form,
    genus,
    is_smooth,
    polygon_from_json,
)
from .network import (
    ACurve,
    NetworkError,
    build_network,
    dn_configuration,
    network_to_json,
)
from .spin import MarkedCurve, QuadraticFormZ2
from .symp import (
    apply_word,
    model_chain,
    model_dn,
    quadratic_form_orbits,
    sp_mod2_bfs_order,
    sp_mod2_order,
    sp_q_stabilizer_bruteforce,
    square_transvection_identity,
    verify_braid,
    verify_chain,
    verify_dn,
    word_matrix,
)
from .wedge import contraction, generators_K, lemma_next_closure, wedge
from .verify import check_networkgenset

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2

# Presentation constants (documented in --help).
SCALE = 48          # pixels per lattice unit
MARGIN = 24         # pixels around each panel
CIRCLE_RADIUS = 0.25  # lattice units, matching the doubling construction
BACK_OFFSET = 0.08  # perpendicular offset of the dashed back-copy stroke

CLAUSE_COLORS = {
    0: "#777777",   # user-assembled curves
    1: "#2255aa",   # circles at inner lattice points
    2: "#1d8a99",   # the hull-top segment
    3: "#4477cc",   # the closing segment
    4: "#224488",   # segments on lines through the anchor
}
CONFIG_COLOR = "#87cefa"   # highlighted distinguished configuration
OMITTED_COLOR = "#cc2222"  # the segment curve left out of the network
HULL_FILL = "#c6dbef"

_COLOR_DOC = (
    "SVG legend: clause 1 circles %s, clause 2 hull-top segment %s, "
    "clause 3 closing segment %s, clause 4 anchor-line segments %s; the "
    "distinguished configuration is highlighted %s and the omitted segment "
    "curve is drawn %s.  Back-copy strokes are dashed; circles have radius "
    "1/4 lattice unit."
    % (CLAUSE_COLORS[1], CLAUSE_COLORS[2], CLAUSE_COLORS[3],
       CLAUSE_COLORS[4], CONFIG_COLOR, OMITTED_COLOR)
)


class CliInputError(ValueError):
    """Raised for unreadable, malformed, or geometrically invalid input."""


# --- plumbing -------------------------------------------------------------------


def _load_polygon(path: Optional[str]) -> Polygon:
    if not path:
        raise CliInputError("this command needs --input pointing at polygon JSON")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"malformed JSON in {path}: {exc}") from exc
    try:
        return polygon_from_json(data)
    except (LatticeError, KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"invalid polygon data: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _format(data: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, indent=2)
    lines = []
    for key, value in data.items():
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


# --- analyze --------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    P = _load_polygon(args.input)
    adj = adjoint(P)
    summary = {
        "vertices": [list(v) for v in P.vertices],
        "genus": genus(P),
        "inner_hull": adj.kind,
        "hyperelliptic": adj.kind == "segment",
        "smooth": is_smooth(P),
    }
    if adj.kind == "polygon":
        summary["modulus"] = adjoint_divisibility(P)
        try:
            Q, _ = canonical_form(P)
            summary["normal_form"] = [list(v) for v in Q.vertices]
        except NoUnimodularNormalization:
            # some inner-hull corner is not unimodular
            summary["normal_form"] = None
    else:
        summary["modulus"] = None
        summary["normal_form"] = None
    _emit(_format(summary, args.format), args.out)
    return EXIT_OK


# --- network --------------------------------------------------------------------


def _build(P: Polygon):
    try:
        return build_network(P)
    except NetworkError as exc:
        raise CliInputError(f"no network for this polygon: {exc}") from exc


def _cmd_network(args) -> int:
    net = _build(_load_polygon(args.input))
    data = network_to_json(net)
    if args.format == "json":
        _emit(json.dumps(data, indent=2), args.out)
    else:
        lines = [f"polygon: {data['polygon']['vertices']}",
                 f"modulus: {data['r']}",
                 f"curves: {len(data['curves'])}"]
        for entry in data["curves"]:
            lines.append(f"  {entry['type']} {entry['data']} "
                         f"(clause {entry['clause']})")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# --- verify ---------------------------------------------------------------------


def _cmd_verify(args) -> int:
    try:
        report = check_networkgenset(_load_polygon(args.input))
    except NoUnimodularNormalization as exc:
        raise CliInputError(f"cannot verify this polygon: {exc}") from exc
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2), args.out)
    else:
        _emit(report.to_text(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


# --- render ---------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Panel:
    """World-to-page transform for one drawing panel (y axis flipped)."""

    def __init__(self, poly: Polygon, x_shift: float):
        xs = [v[0] for v in poly.vertices]
        ys = [v[1] for v in poly.vertices]
        self.minx, self.maxy = min(xs), max(ys)
        self.x_shift = x_shift
        self.width = (max(xs) - min(xs)) * SCALE + 2 * MARGIN
        self.height = (max(ys) - min(ys)) * SCALE + 2 * MARGIN

    def to_page(self, p) -> tuple:
        return (self.x_shift + MARGIN + (p[0] - self.minx) * SCALE,
                MARGIN + (self.maxy - p[1]) * SCALE)

    def path(self, points) -> str:
        parts = []
        for i, p in enumerate(points):
            x, y = self.to_page(p)
            parts.append(f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}")
        return " ".join(parts) + " Z"


def _trimmed_segment(seg, interior: set) -> tuple:
    """Front-copy chord of a segment curve, stopped at the circles."""
    (ax, ay), (bx, by) = seg.endpoints()
    dx, dy = bx - ax, by - ay
    length = (dx * dx + dy * dy) ** 0.5
    ux, uy = dx / length, dy / length
    if (ax, ay) in interior:
        ax, ay = ax + ux * CIRCLE_RADIUS, ay + uy * CIRCLE_RADIUS
    if (bx, by) in interior:
        bx, by = bx - ux * CIRCLE_RADIUS, by - uy * CIRCLE_RADIUS
    return (ax, ay), (bx, by), (-uy, ux)


def _segment_strokes(panel: _Panel, seg, interior: set, color: str,
                     css: str, width: float) -> List[str]:
    (ax, ay), (bx, by), (nx, ny) = _trimmed_segment(seg, interior)
    x1, y1 = panel.to_page((ax, ay))
    x2, y2 = panel.to_page((bx, by))
    ox, oy = nx * BACK_OFFSET * SCALE, -ny * BACK_OFFSET * SCALE
    front = (f'<line class="{css} front" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
             f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{color}" '
             f'stroke-width="{_fmt(width)}" />')
    back = (f'<line class="{css} back" x1="{_fmt(x1 + ox)}" y1="{_fmt(y1 + oy)}" '
            f'x2="{_fmt(x2 + ox)}" y2="{_fmt(y2 + oy)}" stroke="{color}" '
            f'stroke-width="{_fmt(width * 0.8)}" stroke-dasharray="6 4" />')
    return [front, back]


def render_svg(P: Polygon) -> str:
    """Two deterministic panels: the polygon with its shaded inner hull, and
    the doubled-surface picture of the curve network (solid front strokes,
    dashed back strokes, circles of radius 1/4)."""
    net = _build(P)
    Q = net.polygon
    hull = net.adjoint_polygon
    dn = dn_configuration(net)
    highlighted = set(dn.curves())

    left = _Panel(Q, 0.0)
    right = _Panel(Q, left.width + MARGIN)
    width = int(left.width + MARGIN + right.width)
    height = int(max(left.height, right.height))
    interior = set(hull.lattice_points())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<desc>Left: the polygon with its shaded inner hull. Right: the "
        "curve network on the doubled surface; dashed strokes are the back "
        "copy.</desc>",
        f'<rect width="{width}" height="{height}" fill="white" />',
    ]

    # Left panel: polygon, lattice points, shaded inner hull.
    parts.append(f'<path class="outline" d="{left.path(Q.vertices)}" '
                 f'fill="none" stroke="#333333" stroke-width="2" />')
    parts.append(f'<path class="inner-hull" d="{left.path(hull.vertices)}" '
                 f'fill="{HULL_FILL}" fill-opacity="0.75" '
                 f'stroke="#6699bb" stroke-width="1.5" />')
    for p in Q.lattice_points():
        x, y = left.to_page(p)
        parts.append(f'<circle class="lattice-dot" cx="{_fmt(x)}" '
                     f'cy="{_fmt(y)}" r="2.50" fill="#333333" />')

    # Right panel: the network in the doubled-surface picture.
    parts.append(f'<path class="outline" d="{right.path(Q.vertices)}" '
                 f'fill="none" stroke="#333333" stroke-width="2" />')
    for curve in net.curve_list():
        clause = net.clauses[curve]
        color = CLAUSE_COLORS.get(clause, CLAUSE_COLORS[0])
        if isinstance(curve, ACurve):
            if curve in highlighted:
                color = CONFIG_COLOR
            x, y = right.to_page(curve.point)
            css = "a-curve config" if curve in highlighted else "a-curve"
            parts.append(f'<circle class="{css}" cx="{_fmt(x)}" cy="{_fmt(y)}" '
                         f'r="{_fmt(CIRCLE_RADIUS * SCALE)}" fill="none" '
                         f'stroke="{color}" stroke-width="2.5" />')
        else:
            css = "b-curve config" if curve in highlighted else "b-curve"
            color = CONFIG_COLOR if curve in highlighted else color
            stroke_width = 3.0 if curve in highlighted else 2.0
            parts.extend(_segment_strokes(right, curve.segment, interior,
                                          color, css, stroke_width))
    parts.extend(_segment_strokes(right, dn.b_segment, interior,
                                  OMITTED_COLOR, "b-omitted", 2.0))
    parts.append("</svg>")
    return "\n".join(parts)


def _cmd_render(args) -> int:
    svg = render_svg(_load_polygon(args.input))
    _emit(svg, args.out)
    return EXIT_OK


# --- relations ------------------------------------------------------------------


def _basis_marked(dim: int, idx: int, r: int = 2) -> MarkedCurve:
    return MarkedCurve(tuple(1 if k == idx else 0 for k in range(dim)), 0, r)


def _relations_suite(seed: int) -> Dict[str, bool]:
    results: Dict[str, bool] = {}
    results["braid_dual_pair"] = verify_braid(_basis_marked(4, 0),
                                              _basis_marked(4, 1))
    for n in range(2, 7):
        chain, boundary = model_chain(n)
        results[f"chain_{n}"] = verify_chain(chain, boundary)
    for n in range(3, 10):
        config, boundary = model_dn(n)
        results[f"forked_chain_{n}"] = verify_dn(config, boundary)
    results["square_transvection_g3"] = square_transvection_identity(
        (1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, -1), (0, 0, 0, 0, 1, 0))

    rng = random.Random(seed)
    ok = True
    chain, _ = model_chain(4)
    for _ in range(20):
        word = [chain[rng.randrange(len(chain))] for _ in range(5)]
        target = chain[rng.randrange(len(chain))]
        moved = apply_word(word, target)
        expected = word_matrix(word).apply(target.h)
        ok = ok and tuple(expected) == moved.h
    results["word_action_consistency"] = ok

    z = tuple(1 if k == 0 else 0 for k in range(6))  # x_1
    good = True
    for i in (1, 2):  # handles not containing x_1
        xi = tuple(1 if k == 2 * i else 0 for k in range(6))
        yi = tuple(1 if k == 2 * i + 1 else 0 for k in range(6))
        good = good and contraction(wedge(z, xi, yi)) == z
    distinct = wedge((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                     (0, 0, 0, 0, 1, 0))
    results["contraction_basis_identities"] = (good and
                                               contraction(distinct) == (0,) * 6)
    kernel = generators_K(5, 3)
    results["kernel_generators_vanish"] = all(
        all(c % 3 == 0 for c in contraction(k)) for k in kernel)
    results["span_closure_even"] = lemma_next_closure(5, 0)
    results["span_closure_odd"] = lemma_next_closure(5, 1)
    return results


def _cmd_relations(args) -> int:
    results = _relations_suite(args.seed)
    payload = {"checks": results, "all_passed": all(results.values())}
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"{name}: {'pass' if good else 'FAIL'}"
                 for name, good in results.items()]
        lines.append(f"all passed: {payload['all_passed']}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if payload["all_passed"] else EXIT_VERIFICATION_FAILED


# --- orbits ---------------------------------------------------------------------


def _orbit_results() -> dict:
    census = quadratic_form_orbits(2)
    even_form = QuadraticFormZ2((1, 1, 1, 1))
    odd_form = QuadraticFormZ2((1, 1, 1, 0))
    even_stab = sp_q_stabilizer_bruteforce(2, even_form)
    odd_stab = sp_q_stabilizer_bruteforce(2, odd_form)
    return {
        "orbit_census_g2": {"even": census[0], "odd": census[1]},
        "group_orders": {"g1": sp_mod2_order(1), "g2": sp_mod2_order(2),
                         "g3": sp_mod2_order(3)},
        "bfs_order_g2": sp_mod2_bfs_order(2),
        "stabilizers_g2": {
            "even": {"order": even_stab[0],
                     "generated_by_anisotropic": even_stab[1]},
            "odd": {"order": odd_stab[0],
                    "generated_by_anisotropic": odd_stab[1]},
        },
    }


def _cmd_orbits(args) -> int:
    results = _orbit_results()
    if args.format == "json":
        _emit(json.dumps(results, indent=2), args.out)
    else:
        lines = [
            f"quadratic forms, 4 variables: {results['orbit_census_g2']['even']} "
            f"even / {results['orbit_census_g2']['odd']} odd (2 orbits)",
            f"group orders mod 2 (g=1,2,3): {results['group_orders']['g1']}, "
            f"{results['group_orders']['g2']}, {results['group_orders']['g3']}",
            f"order generated by all transvections, g=2: "
            f"{results['bfs_order_g2']}",
            f"even stabilizer: order {results['stabilizers_g2']['even']['order']}, "
            "anisotropic transvections generate: "
            f"{results['stabilizers_g2']['even']['generated_by_anisotropic']}",
            f"odd stabilizer: order {results['stabilizers_g2']['odd']['order']}, "
            "anisotropic transvections generate: "
            f"{results['stabilizers_g2']['odd']['generated_by_anisotropic']}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# --- dispatch -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcycles",
        description=("Curve networks, invariant structures and "
                     "vanishing-cycle verdicts from convex lattice polygons."),
        epilog=_COLOR_DOC + "  Exit codes: 0 success, 1 verification "
               "failure, 2 invalid input.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs: Sequence[tuple] = (
        ("analyze", _cmd_analyze, "summarize the lattice data of a polygon"),
        ("network", _cmd_network, "construct the curve network as JSON"),
        ("verify", _cmd_verify, "run the hypothesis pipeline and report"),
        ("render", _cmd_render, "draw the polygon, hull and network as SVG"),
        ("relations", _cmd_relations, "run the exact twist-relation suite"),
        ("orbits", _cmd_orbits, "mod-2 form orbits, orders, stabilizers"),
    )
    # each command registers only the options it reads
    for name, func, help_text in specs:
        cmd = sub.add_parser(name, help=help_text, epilog=_COLOR_DOC)
        if name not in ("relations", "orbits"):
            cmd.add_argument("--input", help="path to polygon JSON")
        cmd.add_argument("--out", help="write output to this path")
        if name != "render":
            cmd.add_argument("--format", choices=("json", "text"),
                             default="json", help="output format")
        if name == "relations":
            cmd.add_argument("--seed", type=int, default=2026,
                             help="seed for randomized checks")
        cmd.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
