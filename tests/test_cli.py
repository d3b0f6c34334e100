"""Command-line plumbing: exit codes, formats, SVG determinism, round-trips."""

import json

import pytest

from vanishingcycles.cli import main, render_svg, CLAUSE_COLORS
from vanishingcycles.lattice import Polygon
from vanishingcycles.network import build_network, network_from_json, network_to_json

TRIANGLE6 = {"vertices": [[0, 0], [6, 0], [0, 6]]}


@pytest.fixture
def poly6(tmp_path):
    path = tmp_path / "poly6.json"
    path.write_text(json.dumps(TRIANGLE6))
    return str(path)


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


# --- analyze --------------------------------------------------------------------

def test_analyze_summary(poly6, capsys):
    assert main(["analyze", "--input", poly6]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["genus"] == 10
    assert data["modulus"] == 3
    assert data["inner_hull"] == "polygon"
    assert data["smooth"] is True
    assert data["hyperelliptic"] is False
    assert data["normal_form"] == [[-1, -1], [5, -1], [-1, 5]]


def test_analyze_text_format(poly6, capsys):
    assert main(["analyze", "--input", poly6, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "genus: 10" in out and "modulus: 3" in out


def test_analyze_degenerate_is_still_a_summary(tmp_path, capsys):
    path = _write(tmp_path, "small.json", {"vertices": [[0, 0], [3, 0], [0, 3]]})
    assert main(["analyze", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["genus"] == 1 and data["modulus"] is None


# an inner-hull corner at (1, 7) spans a cone of determinant 2
NO_NORMAL_FORM = {"vertices": [[0, 8], [3, 3], [7, 4], [7, 8]]}


def test_analyze_without_unimodular_normal_form(tmp_path, capsys):
    path = _write(tmp_path, "corner.json", NO_NORMAL_FORM)
    assert main(["analyze", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["inner_hull"] == "polygon" and data["smooth"] is False
    assert data["genus"] == 20 and data["modulus"] == 1
    assert data["normal_form"] is None


# --- exit code 2: invalid input ---------------------------------------------------

def test_malformed_json_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "broken.json", "{ not json")
    assert main(["analyze", "--input", path]) == 2
    assert "malformed" in capsys.readouterr().err


def test_collinear_vertices_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.json",
                  {"vertices": [[0, 0], [1, 1], [2, 2], [0, 3]]})
    assert main(["analyze", "--input", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_exits_2(capsys):
    assert main(["verify"]) == 2
    assert "--input" in capsys.readouterr().err


def test_nonexistent_file_exits_2(capsys):
    assert main(["analyze", "--input", "/nonexistent/nowhere.json"]) == 2
    capsys.readouterr()


def test_degenerate_adjoint_exits_2_where_required(tmp_path, capsys):
    path = _write(tmp_path, "unit.json", {"vertices": [[0, 0], [1, 0], [0, 1]]})
    assert main(["network", "--input", path]) == 2
    assert main(["render", "--input", path]) == 2
    capsys.readouterr()


def test_verify_without_unimodular_normal_form_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "corner.json", NO_NORMAL_FORM)
    assert main(["verify", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not unimodular" in captured.err


def test_unknown_flags_and_commands_rejected(poly6):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", poly6, "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # each command registers only the options it reads; render always
    # writes SVG
    for argv in (["render", "--input", poly6, "--format", "json"],
                 ["relations", "--input", poly6],
                 ["orbits", "--input", poly6],
                 ["verify", "--input", poly6, "--seed", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# --- verify ---------------------------------------------------------------------

def test_verify_side6_passes(poly6, capsys):
    assert main(["verify", "--input", poly6]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["polygon", "g", "r", "hypotheses",
                          "classification", "warnings"]
    assert data["g"] == 10 and data["r"] == 3
    assert all(data["hypotheses"][k] for k in ("H1", "H2", "H3", "H4"))
    assert "full stabilizer" in data["classification"]


def test_verify_failure_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "low.json", {"vertices": [[0, 0], [4, 0], [0, 4]]})
    assert main(["verify", "--input", path]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] is None


def test_verify_hyperelliptic_exits_1_with_warning(tmp_path, capsys):
    path = _write(tmp_path, "strip.json",
                  {"vertices": [[0, 0], [4, 0], [4, 2], [0, 2]]})
    assert main(["verify", "--input", path, "--format", "text"]) == 1
    assert "hyperelliptic" in capsys.readouterr().out


# --- network --------------------------------------------------------------------

def test_network_json_round_trip(poly6, capsys):
    assert main(["network", "--input", poly6]) == 0
    data = json.loads(capsys.readouterr().out)
    net = network_from_json(data)
    assert net == build_network(Polygon(((0, 0), (6, 0), (0, 6))))
    assert network_to_json(net) == data


def test_network_curve_entries_have_clauses(poly6, capsys):
    assert main(["network", "--input", poly6]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["curves"]) == 28
    assert {entry["clause"] for entry in data["curves"]} == {1, 2, 3, 4}
    assert all(entry["type"] in ("A", "B") for entry in data["curves"])


# --- render ---------------------------------------------------------------------

def test_render_side6_figure(poly6, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert main(["render", "--input", poly6, "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
    assert svg.count('class="a-curve') == 10
    assert 'class="inner-hull"' in svg
    assert 'stroke-dasharray' in svg           # dashed back copies
    assert f'r="{0.25 * 48:.2f}"' in svg       # circle radius 1/4 lattice unit
    assert 'config' in svg                     # highlighted configuration
    assert 'b-omitted' in svg                  # the red segment outside the network
    capsys.readouterr()


def test_render_is_deterministic():
    P = Polygon(((0, 0), (6, 0), (0, 6)))
    assert render_svg(P) == render_svg(P)
    sheared = Polygon(((0, 0), (6, 0), (6, 6)))  # unimodular image
    assert render_svg(sheared) == render_svg(P)


def test_render_highlight_uses_distinct_colors():
    svg = render_svg(Polygon(((0, 0), (6, 0), (0, 6))))
    assert "#87cefa" in svg and "#cc2222" in svg
    assert CLAUSE_COLORS[1] in svg


# --- relations and orbits ---------------------------------------------------------

def test_relations_suite_passes(capsys):
    assert main(["relations", "--seed", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_passed"] is True
    assert data["checks"]["chain_2"] and data["checks"]["forked_chain_9"]
    assert data["checks"]["square_transvection_g3"]
    assert data["checks"]["span_closure_even"] and data["checks"]["span_closure_odd"]


def test_orbits_enumeration(capsys):
    assert main(["orbits"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["orbit_census_g2"] == {"even": 10, "odd": 6}
    assert data["group_orders"] == {"g1": 6, "g2": 720, "g3": 1451520}
    assert data["bfs_order_g2"] == 720
    assert data["stabilizers_g2"]["odd"] == {
        "order": 120, "generated_by_anisotropic": True}
    assert data["stabilizers_g2"]["even"]["order"] == 72


def test_out_flag_writes_file(poly6, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--input", poly6, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["g"] == 10
    capsys.readouterr()


def test_help_documents_presentation_and_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "0 success, 1 verification" in out
    assert "radius" in out and "dashed" in out
