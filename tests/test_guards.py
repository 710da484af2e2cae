"""Size guards and ``OMCP_GUARD_OVERRIDE``, their one override.

The override raises every default below its value and never lowers one;
a value that is not an integer is a clean usage error naming the
variable.  ``test_om_core.py::test_size_guard`` runs a 13-element
cocircuit scan under it.  Every 2^n scan of the command line stops on
its guard before the first step of the scan.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omcp
from omcp.cli import main
from omcp.guards import DUALITY_ELEMENTS, SizeGuardError, check, resolve


def _cli(argv, env) -> subprocess.CompletedProcess:
    src = str(Path(omcp.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "omcp.cli", *argv],
        env={**env, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )


def _lcp_instance(tmp_path, n: int, corner: int) -> str:
    """An n x n diagonal M with ``corner`` at M[0][0] and 2 elsewhere on the diagonal."""
    m = [[str(corner if i == j == 0 else 2 * (i == j)) for j in range(n)] for i in range(n)]
    path = tmp_path / "lcp.json"
    path.write_text(json.dumps({"M": m, "q": ["-1"] * n}))
    return str(path)


def _cocircuits_instance(tmp_path) -> str:
    path = tmp_path / "om.json"
    path.write_text(json.dumps({"ground": ["a", "b"], "circuits": ["+-", "-+"]}))
    return str(path)


def test_override_raises_a_default(monkeypatch):
    with pytest.raises(SizeGuardError):
        check(13, DUALITY_ELEMENTS, "ground-set size")
    monkeypatch.setenv("OMCP_GUARD_OVERRIDE", "13")
    assert resolve(DUALITY_ELEMENTS) == 13
    check(13, DUALITY_ELEMENTS, "ground-set size")
    with pytest.raises(SizeGuardError):
        check(14, DUALITY_ELEMENTS, "ground-set size")


def test_override_never_lowers_a_default(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("OMCP_GUARD_OVERRIDE", "1")
    assert resolve(DUALITY_ELEMENTS) == DUALITY_ELEMENTS
    check(DUALITY_ELEMENTS, DUALITY_ELEMENTS, "ground-set size")
    assert main(["om", "cocircuits", _cocircuits_instance(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"cocircuits": ["++", "--"]}


def test_non_integer_override_exits_cleanly(tmp_path):
    proc = _cli(
        ["om", "cocircuits", _cocircuits_instance(tmp_path)],
        {**os.environ, "OMCP_GUARD_OVERRIDE": "abc"},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "OMCP_GUARD_OVERRIDE" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "command",
    [
        ["lcp", "check-p"],
        ["reduce", "klaus"],
        ["lcp", "orient"],
        ["om", "degeneracy"],
        ["om", "solve-omcp"],
    ],
    ids=["check-p", "klaus", "orient", "degeneracy", "solve-omcp"],
)
def test_exhaustive_scans_stop_at_the_guard(tmp_path, command):
    env = {k: v for k, v in os.environ.items() if k != "OMCP_GUARD_OVERRIDE"}
    proc = _cli([*command, _lcp_instance(tmp_path, 17, 2)], env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("size guard:") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_adversary_run_stops_at_the_game_guard():
    env = {k: v for k, v in os.environ.items() if k != "OMCP_GUARD_OVERRIDE"}
    proc = _cli(["adversary", "run", "--n", "8"], env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("size guard:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_override_lets_the_p_matrix_scan_run(tmp_path):
    proc = _cli(
        ["lcp", "check-p", _lcp_instance(tmp_path, 17, 0)],
        {**os.environ, "OMCP_GUARD_OVERRIDE": "17"},
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["p_matrix"] is False
