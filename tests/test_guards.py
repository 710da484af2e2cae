"""``OMCP_GUARD_OVERRIDE``, the one override of the size guards.

It raises every default below its value and never lowers one; a value
that is not an integer is a clean usage error naming the variable.
``test_om_core.py::test_size_guard`` runs a 13-element cocircuit scan
under it.
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
    src = str(Path(omcp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "omcp.cli", "om", "cocircuits", _cocircuits_instance(tmp_path)],
        env={**os.environ, "PYTHONPATH": src, "OMCP_GUARD_OVERRIDE": "abc"},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "OMCP_GUARD_OVERRIDE" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
