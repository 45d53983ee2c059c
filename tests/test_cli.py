"""CLI behaviour: subcommands, output schema, exit codes, and the README's
command lines."""

import argparse
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from latcurve import cli
from latcurve.cli import main
from latcurve.counting import CountReport

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_both_json(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--poly", "x*y - 12", "--box", "12", "--method", "both"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 6
    assert payload["oracle_total"] == 6
    assert payload["warnings"] == []
    assert {"parameters", "total", "oracle_total", "branches", "exceptions", "warnings"} <= set(payload)
    for br in payload["branches"]:
        assert {"domain", "orientation", "pieces"} <= set(br)


def test_count_brute_method(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--poly", "x - y^2", "--box", "100", "--method", "brute"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 10
    assert payload["branches"] == []
    assert payload["exceptions"] == [[k * k, k] for k in range(1, 11)]


def test_count_brute_method_csv(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--poly", "x - y^2", "--box", "100", "--method", "brute", "--out", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["x,y,curve_index"] + [f"{k * k},{k},-1" for k in range(1, 11)]


def test_count_report_not_ok_exit_1(capsys, monkeypatch):
    """A report that is not ok is still printed, and the exit status is 1."""

    def mismatch(*args, **kwargs):
        return CountReport(
            parameters={"poly": "x*y - 12", "N": 12},
            total=5,
            oracle_total=6,
            per_branch=[],
            exceptions=[],
            warnings=["oracle mismatch: pipeline 5 vs sweep 6"],
            ok=False,
        )

    monkeypatch.setattr(cli, "determinant_method_count", mismatch)
    code, out, err = run_cli(capsys, "count", "--poly", "x*y - 12", "--box", "12")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert (payload["total"], payload["oracle_total"]) == (5, 6)
    assert payload["warnings"] == ["oracle mismatch: pipeline 5 vs sweep 6"]


def test_count_csv(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--poly", "x*y - 12", "--box", "12", "--out", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,curve_index"
    pts = {tuple(map(int, line.split(",")[:2])) for line in lines[1:]}
    assert pts == {(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)}


def test_count_with_explicit_parameters(capsys):
    code, out, _ = run_cli(
        capsys,
        "count", "--poly", "x - y^2", "--box", "50",
        "--method", "detm", "--ell", "4", "--delta", "1/2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"]["ell"] == 4
    assert payload["parameters"]["delta"] == "1/2"
    assert payload["total"] == 7


def test_count_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--poly", "x + z", "--box", "5")
    assert code == 2
    assert "error" in err


def test_count_line_factor_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--poly", "(x - 3)*(y - x)", "--box", "10")
    assert code == 2
    assert "line" in err


def test_count_line_factor_same_error_for_every_method(capsys):
    """The line check runs before the oracle and the decomposition, so each
    method prints the same `error:` line and exits 2."""
    for poly, message in (
        ("(x - 3)*(y - x)", "vertical line x = 3 lies inside the box"),
        ("(y - 2)*(x - y^2)", "horizontal line y = 2 lies inside the box"),
    ):
        for method in ("brute", "detm", "both"):
            code, out, err = run_cli(capsys, "count", "--poly", poly, "--box", "10", "--method", method)
            assert (code, out, err) == (2, "", f"error: {message}\n"), (poly, method)


def test_count_repeated_factor_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--poly", "(x*y - 2)*(x - 30)^2", "--box", "10")
    assert code == 2
    assert "repeated factor" in err


def test_count_bad_delta_exit_2(capsys):
    # 1/1000 parses, but delta * N < 1 at N = 10
    for delta in ("1/0", "abc", "1/1000"):
        code, out, err = run_cli(capsys, "count", "--poly", "x - y^2", "--box", "10", "--delta", delta)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (("hk", "--poly", "x - y", "--k", "0"), "kmax must be >= 1"),
        (("hk", "--poly", "3", "--k", "2"), "curve must be nonconstant"),
        (("jarnik", "--H", "0"), "H must be >= 1"),
        (("count", "--poly", "x - y^2", "--box", "0", "--method", "brute"), "box size must be >= 1"),
        (("count", "--poly", "x - y^2", "--box", "0", "--method", "both"), "box size must be >= 1"),
        (("count", "--poly", "x - y^2", "--box", "10", "--ell", "1"), "ell must be at least the curve degree"),
    ],
)
def test_rejected_arguments_exit_2(capsys, argv, message):
    """An argument out of its range prints one `error:` line, nothing on
    stdout, and exits 2."""
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_count_internal_fault_is_not_an_input_error(monkeypatch):
    """Only the documented input errors exit 2; any other `ValueError`, such
    as a bracket with lo > hi, propagates."""

    def fault(*args, **kwargs):
        raise ValueError("lo > hi")

    monkeypatch.setattr(cli, "determinant_method_count", fault)
    with pytest.raises(ValueError, match="lo > hi"):
        main(["count", "--poly", "x*y - 12", "--box", "12"])


def test_jarnik_points(capsys):
    code, out, _ = run_cli(capsys, "jarnik", "--H", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 7
    assert payload["Q_t"] == 13
    assert payload["points"][0] == [0, 0]
    assert payload["points"][-1] == [13, 13]


def test_jarnik_function(capsys):
    code, out, _ = run_cli(capsys, "jarnik", "--H", "2", "--emit", "function")
    assert code == 0
    payload = json.loads(out)
    assert payload["strictly_convex"] is True
    assert len(payload["segments"]) == payload["t"]


def test_jarnik_function_output_is_pinned(capsys):
    """The smoothed graph of H = 5, byte for byte: its segments and its
    convexity certificate, pinned by the SHA-256 of the JSON."""
    code, out, _ = run_cli(capsys, "jarnik", "--H", "5", "--emit", "function")
    assert code == 0 and json.loads(out)["strictly_convex"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == "ddf8b2c01842daac109aa0c0b9d99e7f171f849502f25166cacad2c37afd7c89"


def test_hk_output(capsys):
    code, out, _ = run_cli(capsys, "hk", "--poly", "y^2 - x^3", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "H_1 = -3*x^2"
    assert lines[1] == "H_2 = 18*x^4 - 24*x*y^2"


def test_hk_builds_high_orders_without_recursion(capsys):
    """H_1..H_k come from one loop, so a large k needs no stack depth."""
    code, out, _ = run_cli(capsys, "hk", "--poly", "x - y", "--k", "1500")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1500 and all(line.startswith(f"H_{k} = ") for k, line in enumerate(lines, start=1))


def test_cover_points_file(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("1 1\n2 4\n# a comment\n3 9\n")
    code, out, _ = run_cli(capsys, "cover", "--points", str(path), "--degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["curves"]) == 1
    assert len(payload["assignment"]) == 3


def test_cover_malformed_file(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("1 2 3\n")
    code, _, err = run_cli(capsys, "cover", "--points", str(path), "--degree", "1")
    assert code == 2


def test_count_output_is_deterministic(capsys):
    args = ("count", "--poly", "x^2 + y^2 - 65", "--box", "20")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def readme_cli_lines() -> list[list[str]]:
    """The argument lists of the `latcurve ...` lines in the README's CLI block."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("latcurve ")]


def test_readme_cli_lines_parse():
    """Every README command line parses, and the README shows every subcommand."""
    parser = cli.build_parser()
    lines = readme_cli_lines()
    for argv in lines:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(argv)}")
    (subcommands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[1] for argv in lines} == set(subcommands)
