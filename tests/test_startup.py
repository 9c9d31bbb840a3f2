"""Start-up footprint: ``import formalcalc`` loads no submodule, and each CLI
command imports only the modules it runs.  Every case runs in a fresh
interpreter and reads ``sys.modules`` after the command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import formalcalc

SRC = Path(formalcalc.__file__).resolve().parents[1]  # the directory that holds the package

_PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("formalcalc", "dataclasses"))))
"""

_RUN = """
from formalcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main({argv!r})
"""


def _loaded(body: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body)],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(json.loads(result.stdout))


def test_import_formalcalc_loads_no_submodule():
    assert _loaded("import formalcalc") == {"formalcalc"}


def test_every_public_name_resolves_and_star_binds_it():
    namespace: dict = {}
    exec("from formalcalc import *", namespace)
    for name in formalcalc.__all__:
        assert namespace[name] is getattr(formalcalc, name), name
    assert set(formalcalc.__all__) <= set(dir(formalcalc))
    with pytest.raises(AttributeError):
        formalcalc.no_such_name


# argv -> the formalcalc submodules the command may not load; None: only the CLI itself
CASES = {
    "help": (["--help"], None),
    "malformed": (["expand", "--order", "two"], None),
    "below-minimum": (["expand", "--expr", "x", "--order", "-1"], None),
    "stirling-text": (["stirling-table", "--max", "5"], {"algebra", "parser"}),
    "expand-engine": (
        ["expand", "--expr", "log(x)^2", "--order", "3"],
        {"faadibruno", "checks", "expansions", "jsonio", "latexio"},
    ),
    "expand-closed-form-json": (
        ["--format", "json", "expand", "--expr", "x^r", "--order", "2", "--via", "closed-form"],
        {"faadibruno", "checks", "latexio"},
    ),
    "lift-latex": (["--format", "latex", "lift", "--expr", "x", "--order", "2"], {"jsonio", "faadibruno"}),
    "verify-lubell": (["verify", "lubell", "--max", "3"], {"algebra", "parser", "jsonio"}),
    "verify-automorphism": (
        ["verify", "automorphism", "--trials", "1", "--order", "1"],
        {"parser", "faadibruno", "qpoly"},
    ),
    "verify-intertwine": (
        ["verify", "intertwine", "--max-index", "1", "--trials", "1"],
        {"parser", "faadibruno", "qpoly"},
    ),
    "fdb-json": (["--format", "json", "faa-di-bruno", "--order", "2"], {"parser", "latexio"}),
    "umbral-latex": (["--format", "latex", "umbral", "--B", "1,1", "--depth", "2"], {"parser", "jsonio"}),
}


@pytest.mark.parametrize("argv, banned", CASES.values(), ids=CASES)
def test_command_loads_only_what_it_runs(argv, banned):
    loaded = _loaded(_RUN.format(argv=argv))
    assert "dataclasses" not in loaded
    if banned is None:
        assert loaded == {"formalcalc", "formalcalc.cli"}
    else:
        assert not {f"formalcalc.{name}" for name in banned} & loaded
