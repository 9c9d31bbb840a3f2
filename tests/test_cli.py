"""End-to-end command-line behavior: goldens, formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import jsonschema
import pytest

from formalcalc import cli, qpoly
from formalcalc.faadibruno import umbral_shift
from formalcalc.jsonio import fraction_from_json, load_schema
from formalcalc.report import VerifyReport

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(cli.__file__).resolve().parents[1]  # the directory that holds the package


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("NO_COLOR", None)
    env.pop("FORMALCALC_COLOR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "formalcalc.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_golden_expand_log():
    result = run_cli("expand", "--expr", "log(x)", "--order", "3")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "expand_log.txt").read_text()


def test_golden_verify_lubell():
    result = run_cli("verify", "lubell", "--max", "8")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "verify_lubell.txt").read_text()


def test_golden_umbral():
    result = run_cli("umbral", "--B", "1,0", "--depth", "3")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "umbral_b10.txt").read_text()


# Rendering corpus: each command is stored as <name>.txt (text), <name>.tex (latex)
# and <name>.json (json).
CORPUS = {
    "expand_rational": (
        "expand", "--expr",
        "2/3*x^(r+1/2)*l_1(x)^(-r-1/3) + (2/3*r + 1/2)*l_2(x)^(-2*r+s-1)",
        "--order", "3",
    ),
    "expand_mixed": (
        "expand", "--expr", "(r - s)*x^2 - r^2*exp(x) + 3*l_-2(x)^(1/2)", "--order", "3",
    ),
    "fdb_order4": ("faa-di-bruno", "--order", "4"),
    "umbral_b12": ("umbral", "--B", "1,2,-1/3", "--depth", "5"),
    "stirling_max6": ("stirling-table", "--max", "6"),
    "verify_lubell6": ("verify", "lubell", "--max", "6"),
    "lift_xr_log": ("lift", "--expr", "x^r*log(x)", "--order", "3"),
}


@pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("latex", "tex"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_corpus(name, fmt, suffix):
    result = run_cli("--format", fmt, *CORPUS[name])
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{name}.{suffix}").read_text()


def test_latex_goldens_have_no_double_superscript():
    double = re.compile(r"\^\{(?:[^{}]|\{[^{}]*\})*\}\^\{")
    for path in sorted(GOLDEN.glob("*.tex")):
        assert not double.search(path.read_text()), path.name


def test_engine_and_closed_form_agree_bytewise():
    for expr in ("x^r", "log(x)^2", "l_2(x)^r", "3*x^2*log(x)"):
        via_engine = run_cli("expand", "--expr", expr, "--order", "4")
        via_formula = run_cli("expand", "--expr", expr, "--order", "4", "--via", "closed-form")
        assert via_engine.returncode == 0
        assert via_formula.returncode == 0
        assert via_engine.stdout == via_formula.stdout, expr


def test_closed_form_answers_a_deep_tower_index():
    """One enumerated part per tower level: l_1000 must not exhaust the recursion limit,
    and the y^2 row of l_300 walks its 301 chains, not every tuple of drops."""
    for expr, order in (("l_1000(x)", "1"), ("l_300(x)^r", "2")):
        via_engine = run_cli("expand", "--expr", expr, "--order", order)
        via_formula = run_cli("expand", "--expr", expr, "--order", order, "--via", "closed-form")
        assert via_formula.returncode == 0, via_formula.stderr
        assert via_formula.stderr == ""
        assert via_engine.returncode == 0
        assert via_formula.stdout == via_engine.stdout, expr


def test_lift_command():
    result = run_cli("lift", "--expr", "log(x)", "--order", "4")
    assert result.returncode == 0
    assert result.stdout.strip() == "log(x) + y"


def test_stirling_table_text():
    result = run_cli("stirling-table", "--max", "4")
    assert result.returncode == 0
    assert result.stdout == (
        " 1\n"
        " 0  1\n"
        " 0  1  1\n"
        " 0  2  3  1\n"
        " 0  6 11  6  1\n"
    )


def test_faa_di_bruno_command():
    result = run_cli("faa-di-bruno", "--order", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "z^0: y_0"
    assert lines[1] == "z^1: y_1*x_1"
    assert lines[2] == "z^2: 1/2*y_2*x_1^2 + 1/2*y_1*x_2"


def test_verify_subcommands_pass():
    assert run_cli("verify", "s-identity", "--max-k", "4").returncode == 0
    assert run_cli("verify", "intertwine", "--max-index", "3", "--trials", "3").returncode == 0
    assert run_cli("verify", "automorphism", "--trials", "3", "--order", "3").returncode == 0
    assert run_cli("verify", "faa-di-bruno", "--trials", "3").returncode == 0


def test_usage_errors_exit_2():
    assert run_cli("expand", "--expr", "x").returncode == 2  # missing --order
    assert run_cli("nonsense").returncode == 2
    assert run_cli("verify").returncode == 2


def test_parse_errors_exit_2_with_diagnostic():
    result = run_cli("expand", "--expr", "l_2(x", "--order", "2")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "formalcalc:" in result.stderr


def test_negative_order_rejected():
    for command in ("expand", "lift"):
        result = run_cli(command, "--expr", "x", "--order", "-1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "formalcalc: --order must be at least 0\n"
    assert run_cli("stirling-table", "--max", "-2").returncode == 2


def test_command_bounds_are_usage_errors():
    """Every command reports a bound in the sweeps' one form, before any work."""
    for args, least in (
        (("stirling-table", "--max", "-2"), 0),
        (("faa-di-bruno", "--order", "-1"), 0),
        (("umbral", "--B", "1,0", "--depth", "0"), 1),
        (("umbral", "--B", "1,q", "--depth", "0"), 1),
    ):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert result.stdout == ""
        assert result.stderr == f"formalcalc: {args[-2]} must be at least {least}\n"


def test_zero_case_sweeps_are_usage_errors():
    for args, least in (
        (("verify", "automorphism", "--trials", "-1"), 1),
        (("verify", "faa-di-bruno", "--trials", "0"), 1),
        (("verify", "s-identity", "--max-k", "0"), 1),
        (("verify", "s-identity", "--max-n", "0"), 1),
        (("verify", "automorphism", "--order", "-1"), 0),
        (("verify", "automorphism", "--max-index", "-1", "--trials", "2"), 0),
        (("verify", "faa-di-bruno", "--order", "-1"), 0),
        (("verify", "faa-di-bruno", "--degree", "-1"), 0),
        (("verify", "intertwine", "--max-index", "-1", "--trials", "3"), 0),
        (("verify", "intertwine", "--max-index", "-1", "--trials", "0"), 0),
        (("verify", "lubell", "--max", "0", "--pair-sum", "0"), 1),
        (("verify", "lubell", "--pair-sum", "-5", "--max", "2"), 1),
        (("verify", "intertwine", "--trials", "-4"), 1),
    ):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr == f"formalcalc: {args[2]} must be at least {least}\n"


def test_deep_nesting_is_a_usage_error():
    result = run_cli("expand", "--expr", "(" * 3000 + "x" + ")" * 3000, "--order", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("formalcalc: line 1, column ")
    assert "nested deeper than" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "flag, weights, depth",
    [
        (("--B", "1,2"), (1, 2), 60),
        (("--B=1/2,3,-2/7",), (Fraction(1, 2), 3, Fraction(-2, 7)), 40),
    ],
)
def test_umbral_deep(flag, weights, depth):
    result = run_cli("umbral", *flag, "--depth", str(depth))
    assert result.returncode == 0, result.stderr
    images = umbral_shift(weights, depth).images
    assert result.stdout.splitlines() == [
        f"x^{k} -> {qpoly.to_string(image)}" for k, image in enumerate(images)
    ]


def test_umbral_bad_weights():
    result = run_cli("umbral", "--B", "1,q", "--depth", "2")
    assert result.returncode == 2
    assert result.stderr
    result = run_cli("umbral", "--B", "0,1", "--depth", "2")
    assert result.returncode == 2
    result = run_cli("umbral", "--B", ",", "--depth", "2")
    assert result.returncode == 2
    assert result.stderr == "formalcalc: no weight given\n"
    result = run_cli("umbral", "--B", "1/0", "--depth", "2")
    assert result.returncode == 2
    assert result.stderr == "formalcalc: could not read weights from '1/0'\n"
    assert "Traceback" not in result.stderr
    # an empty entry beside a given one would move every later weight down a place
    for weights, position in (("1,,2", 2), ("1,2,", 3), (",1", 1), ("1, ,2", 2)):
        result = run_cli("umbral", "--B", weights, "--depth", "2")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"formalcalc: weight {position} of {weights!r} is empty\n"


@pytest.mark.parametrize("fmt", ("text", "json", "latex"))
def test_umbral_prints_integers_past_the_str_limit(fmt):
    """1e5000 is a 5,001-digit weight: every format prints it in full."""
    result = run_cli("--format", fmt, "umbral", "--B", "1e5000", "--depth", "2")
    assert result.returncode == 0, result.stderr
    assert "1" + "0" * 5000 in result.stdout
    if fmt == "json":
        doc = json.loads(result.stdout)
        assert fraction_from_json(doc["weights"][0]) == Fraction(10**5000)


def test_umbral_reads_back_a_weight_past_the_str_limit():
    """The 5,001-digit weight that ``--B 1e5000`` prints reads back to the same output,
    and a weight of 4,400 digits over 3 is read too."""
    digits = "1" + "0" * 5000
    for fmt in ("text", "json"):
        short = run_cli("--format", fmt, "umbral", "--B", "1e5000", "--depth", "1")
        long = run_cli("--format", fmt, "umbral", "--B", digits, "--depth", "1")
        assert long.returncode == short.returncode == 0, long.stderr
        assert long.stdout == short.stdout
    assert cli.main(["umbral", "--B", "1" * 4400 + "/3", "--depth", "1"]) == 0


def test_weight_exponent_cap(capsys):
    """An exponent past 9999 is refused before Fraction builds 10^exponent."""
    for weights in ("1e999999", "1,2E-10000", "1e+0010000"):
        start = perf_counter()
        assert cli.main(["umbral", "--B", weights, "--depth", "2"]) == 2
        assert perf_counter() - start < 1.0
        assert "exponent above the cap 9999" in capsys.readouterr().err
    assert cli.main(["umbral", "--B", "1e9999,1e-09999", "--depth", "2"]) == 0


def test_expand_reads_a_literal_past_the_int_digit_limit():
    ones = "1" * 4400
    result = run_cli("expand", "--expr", f"{ones}*x", "--order", "1")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{ones}*x + {ones}*y\n"


def test_index_past_the_int_digit_limit_is_a_usage_error():
    result = run_cli("expand", "--expr", "l_" + "1" * 4400 + "(x)", "--order", "1")
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "formalcalc: line 1, column 1: index has too many digits\n"


def test_index_past_the_tower_cap_is_a_usage_error():
    """The closure check costs the square of the index, so a huge one is refused at parse time."""
    start = perf_counter()
    result = run_cli("expand", "--expr", "l_99999999999(x)", "--order", "0")
    assert perf_counter() - start < 2.0
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == (
        "formalcalc: line 1, column 1: index above the cap 2000 in absolute value\n"
    )
    assert run_cli("expand", "--expr", "l_2000(x)", "--order", "0").stdout == "l_2000(x)\n"


def test_closed_form_refuses_exponential_tower():
    result = run_cli("expand", "--expr", "exp(x)", "--order", "2", "--via", "closed-form")
    assert result.returncode == 2
    assert "engine-only" in result.stderr


def test_verify_failure_exits_1(monkeypatch, capsys):
    """Exit code 1 is reserved for a sweep that actually found a counterexample."""
    failing = VerifyReport("lubell", False, 7, "fabricated for the exit-code path")
    monkeypatch.setattr("formalcalc.combinatorics.verify_lubell", lambda **kw: failing)
    code = cli.main(["verify", "lubell"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_json_outputs_validate():
    schema = load_schema()
    for args in (
        ("expand", "--expr", "x^r", "--order", "3"),
        ("lift", "--expr", "x", "--order", "2"),
        ("stirling-table", "--max", "5"),
        ("verify", "lubell", "--max", "4"),
        ("faa-di-bruno", "--order", "3"),
        ("umbral", "--B", "1,1", "--depth", "3"),
    ):
        result = run_cli("--format", "json", *args)
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        jsonschema.validate(doc, schema)


def test_latex_output_smoke():
    result = run_cli("--format", "latex", "expand", "--expr", "l_2(x)", "--order", "1")
    assert result.returncode == 0
    assert result.stdout.startswith("\\[")
    assert "\\ell_{2}" in result.stdout
    result = run_cli("--format", "latex", "stirling-table", "--max", "3")
    assert result.returncode == 0
    assert "\\begin{array}" in result.stdout


def test_color_env_knobs():
    plain = run_cli("verify", "lubell", "--max", "4")
    assert "\x1b[" not in plain.stdout  # pipes are not ttys
    forced = run_cli("verify", "lubell", "--max", "4", env_extra={"FORMALCALC_COLOR": "1"})
    assert "\x1b[32m" in forced.stdout
    vetoed = run_cli(
        "verify", "lubell", "--max", "4",
        env_extra={"FORMALCALC_COLOR": "1", "NO_COLOR": "1"},
    )
    assert "\x1b[" not in vetoed.stdout


def test_main_in_process_matches_subprocess(capsys):
    code = cli.main(["expand", "--expr", "log(x)", "--order", "3"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "expand_log.txt").read_text()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, finished",
    [
        (("expand", "--expr", "x^(r)", "--order", "3"), None),  # small: may finish first
        (("stirling-table", "--max", "300"), False),  # 28 MB: always cut short
        (("--format", "json", "stirling-table", "--max", "300"), False),  # streamed, cut mid-way
    ],
    ids=["expand", "stirling-table", "json-stirling-table"],
)
def test_closed_stdout_is_not_a_counterexample(argv, finished, unbuffered):
    """A reader that closes the pipe after the first bytes gets no traceback and no exit 1."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "formalcalc.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(5)) == 5
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    proc.wait(timeout=60)
    assert stderr == b""
    assert proc.returncode != 1
    # 0 when the command finished before the pipe closed, else 141 (128 + SIGPIPE)
    assert proc.returncode == 141 if finished is False else proc.returncode in (0, 141)
