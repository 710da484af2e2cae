import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omcp

from omcp.cli import main
from conftest import (
    EXT_CIRCUITS,
    EXT_DEGENERATE_CIRCUITS,
    NON_PM_CIRCUITS,
    PM_CIRCUITS,
)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def om_file(tmp_path, circuits, ground, n=1, name="om.json"):
    return write(tmp_path, name, {"n": n, "ground": ground, "circuits": circuits})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_om_check_axioms(tmp_path, capsys):
    path = om_file(tmp_path, EXT_CIRCUITS, ["s1", "t1", "q"])
    code, report = run(capsys, ["om", "check-axioms", path])
    assert code == 0 and report == {"valid": True}

    bad = om_file(tmp_path, ["++"], ["s1", "t1"], name="bad.json")
    code, report = run(capsys, ["om", "check-axioms", bad])
    assert code == 2 and report["valid"] is False and report["axiom"] == "C1"

    empty = write(tmp_path, "free.json", {"ground": ["a", "b"], "circuits": []})
    code, report = run(capsys, ["om", "check-axioms", empty])
    assert code == 0


def test_om_cocircuits(tmp_path, capsys):
    path = om_file(tmp_path, PM_CIRCUITS, ["s1", "t1"])
    code, report = run(capsys, ["om", "cocircuits", path])
    assert code == 0 and report == {"cocircuits": ["+-", "-+"]}


def test_om_pmatroid_check(tmp_path, capsys):
    good = om_file(tmp_path, PM_CIRCUITS, ["s1", "t1"], name="p.json")
    code, report = run(capsys, ["om", "pmatroid-check", good])
    assert code == 0 and report == {"p_matroid": True}

    bad = om_file(tmp_path, NON_PM_CIRCUITS, ["s1", "t1"], name="np.json")
    code, report = run(capsys, ["om", "pmatroid-check", bad])
    assert code == 2
    assert report["certificate"] == {"kind": "MV1", "circuit": "+-"}


def test_om_solve_and_degeneracy(tmp_path, capsys):
    ext = om_file(tmp_path, EXT_CIRCUITS, ["s1", "t1", "q"], name="ext.json")
    code, report = run(capsys, ["om", "solve-omcp", ext])
    assert code == 0 and report == {"kind": "M1", "circuit": "0++"}

    deg = om_file(tmp_path, EXT_DEGENERATE_CIRCUITS, ["s1", "t1", "q"], name="deg.json")
    code, report = run(capsys, ["om", "solve-omcp", deg])
    assert code == 0 and report == {"kind": "M1", "circuit": "00+"}

    code, report = run(capsys, ["om", "degeneracy", deg])
    assert code == 0 and report == {"degenerate": True, "witness": ["s1"]}
    code, report = run(capsys, ["om", "degeneracy", ext])
    assert code == 0 and report == {"degenerate": False, "witness": None}


def test_om_solve_not_found(tmp_path, capsys):
    path = write(tmp_path, "lcp.json", {"M": [["-1"]], "q": ["-1"]})
    code, report = run(capsys, ["om", "solve-omcp", path])
    assert code == 2 and report == {"kind": "NotFound"}


def test_reduce_klaus(tmp_path, capsys):
    ext = om_file(tmp_path, EXT_CIRCUITS, ["s1", "t1", "q"], name="ext.json")
    code, report = run(capsys, ["reduce", "klaus", ext])
    assert code == 0
    assert report["outmaps"] == ["+", "-"] and report["sink"] == "1"

    deg = om_file(tmp_path, EXT_DEGENERATE_CIRCUITS, ["s1", "t1", "q"], name="deg.json")
    out_path = str(tmp_path / "uso.json")
    code, report = run(capsys, ["reduce", "klaus", deg, "--partial", "--emit-uso", out_path])
    assert code == 0
    assert report["outmaps"] == ["0", "0"]
    assert report["unoriented_faces"] == [{"spanned": [0], "fixed": {}}]
    emitted = json.loads((tmp_path / "uso.json").read_text())
    assert emitted == {"n": 1, "outmaps": ["0", "0"]}


@pytest.mark.parametrize(
    "command",
    [
        ["reduce", "klaus"],
        ["reduce", "back-map", "--sink", "0"],
        ["om", "solve-omcp"],
        ["om", "degeneracy"],
    ],
    ids=["klaus", "back-map", "solve-omcp", "degeneracy"],
)
def test_instance_without_q_is_rejected(tmp_path, capsys, command):
    path = om_file(tmp_path, NON_PM_CIRCUITS, ["s1", "t1"])
    assert main([*command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance has no extension element q\n"


def test_reduce_back_map(tmp_path, capsys):
    ext = om_file(tmp_path, EXT_CIRCUITS, ["s1", "t1", "q"], name="ext.json")
    code, report = run(capsys, ["reduce", "back-map", ext, "--sink", "1"])
    assert code == 0 and report == {"kind": "M1", "circuit": "0++"}

    bad = write(tmp_path, "bad.json", {"M": [["-1"]], "q": ["-1"]})
    code, report = run(capsys, ["reduce", "back-map", bad, "--uv1", "0", "1"])
    assert code == 2 and report["kind"] == "MV3"


def test_uso_commands(tmp_path, capsys):
    uso = write(tmp_path, "uso.json", {"n": 2, "outmaps": ["-+", "--", "++", "+-"]})
    code, report = run(capsys, ["uso", "check", uso])
    assert code == 0 and report == {"uso": True}

    code, report = run(capsys, ["uso", "solve", uso, "--algo", "ordered-scan"])
    assert code == 0 and report["sink"] == "01"

    code, report = run(capsys, ["uso", "holt-klee", uso])
    assert code == 0 and report["value"] >= 1

    bad = write(tmp_path, "bad.json", {"n": 1, "outmaps": ["+", "+"]})
    code, report = run(capsys, ["uso", "check", bad])
    assert code == 2 and report["certificate"]["kind"] == "UV1"

    code, report = run(capsys, ["uso", "enumerate", "--n", "2"])
    assert code == 0 and report == {"n": 2, "count": 12}


def test_uso_solve_names_the_zero_cube_sink_by_the_empty_string(tmp_path, capsys):
    uso = write(tmp_path, "zero.json", {"outmaps": [""]})
    code, report = run(capsys, ["uso", "solve", uso])
    assert code == 0 and report["sink"] == ""


@pytest.mark.parametrize("n", ["-1", "4"])
def test_uso_enumerate_rejects_n_outside_range(capsys, n):
    assert main(["uso", "enumerate", "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: enumeration needs n in 0..3, got n={n}\n"


def test_uso_emit_dot(tmp_path, capsys):
    uso = write(tmp_path, "uso.json", {"n": 1, "outmaps": ["+", "-"]})
    dot_path = str(tmp_path / "o.dot")
    code, _ = run(capsys, ["uso", "check", uso, "--emit-dot", dot_path])
    assert code == 0
    text = (tmp_path / "o.dot").read_text()
    assert '"0" -> "1"' in text and text.startswith("digraph")


def test_adversary_run(tmp_path, capsys):
    transcript_path = str(tmp_path / "t.json")
    argv = [
        "adversary", "run", "--n", "3", "--algo", "jump",
        "--seed", "7", "--emit-transcript", transcript_path,
    ]
    code, report = run(capsys, argv)
    assert code == 0
    assert report["query_count"] >= 3 and report["lower_bound_met"]
    transcript = json.loads((tmp_path / "t.json").read_text())
    assert len(transcript["transcript"]) == report["query_count"]

    # identical seeds give byte-identical reports
    code2, report2 = run(capsys, argv)
    assert report2 == report


def test_lcp_commands(tmp_path, capsys):
    good = write(tmp_path, "m.json", {"M": [["2", "0"], ["0", "3"]], "q": ["1", "1"]})
    code, report = run(capsys, ["lcp", "check-p", good])
    assert code == 0 and report["p_matrix"] is True

    bad = write(tmp_path, "bad.json", {"M": [["0", "1"], ["1", "0"]], "q": ["1", "1"]})
    code, report = run(capsys, ["lcp", "check-p", bad])
    assert code == 2 and report["witness"] == [0]

    small = write(tmp_path, "small.json", {"M": [["1"]], "q": ["-1"]})
    code, report = run(capsys, ["lcp", "to-omcp", small])
    assert code == 0
    assert report["ground"] == ["s1", "t1", "q"]
    assert "0++" in report["circuits"]

    degenerate = write(tmp_path, "deg.json", {"M": [["1"]], "q": ["0"]})
    code, report = run(capsys, ["lcp", "orient", degenerate, "--total"])
    assert code == 0
    assert report["outmaps"] == ["0", "0"] and report["completed"] == ["-", "+"]

    qfile = write(tmp_path, "q.json", {"q": ["-1"]})
    code, report = run(capsys, ["lcp", "orient", small, "--q", qfile])
    assert code == 0 and report["outmaps"] == ["+", "-"]


def test_cli_error_paths(tmp_path, capsys):
    assert main(["om", "check-axioms", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["om", "check-axioms", str(garbled)]) == 1
    capsys.readouterr()
    assert main(["om"]) == 1  # missing subcommand
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cli_round_trip_reparse(tmp_path, capsys):
    ext = om_file(tmp_path, EXT_CIRCUITS, ["s1", "t1", "q"], name="e.json")
    code, report = run(capsys, ["lcp", "to-omcp", write(tmp_path, "l.json", {"M": [["1"]], "q": ["-1"]})])
    path = write(tmp_path, "again.json", report)
    code2, report2 = run(capsys, ["om", "solve-omcp", path])
    assert code2 == 0 and report2 == {"kind": "M1", "circuit": "0++"}


DATA = Path(__file__).parent / "data"
I2 = [[1, 0], [0, 1]]
# Both +0+ and -0+ are circuits, so this is no oriented matroid; only --no-validate loads it.
NON_MATROID = {"n": 1, "ground": ["s1", "t1", "q"],
               "circuits": ["++0", "--0", "+0+", "-0-", "-0+", "+0-", "0++", "0--"]}
NON_PM_BASE = {"n": 1, "ground": ["s1", "t1"], "circuits": ["+-", "-+"]}
# The base's cocircuits are ++ and --; giving both the value + is not sign-odd.
SIGN_EVEN_TABLE = {"base": NON_PM_BASE, "table": {"++": "+", "--": "+"}}
LCP3 = json.loads((DATA / "lcp3_generic.json").read_text())

MALFORMED = [
    pytest.param(["uso", "check"], {"n": 2, "outmaps": []}, id="uso-check-no-outmaps"),
    pytest.param(["om", "solve-omcp"], [1, 2], id="solve-omcp-array"),
    pytest.param(["reduce", "klaus"], [1, 2], id="klaus-array"),
    pytest.param(["om", "solve-omcp"], {"n": 1, "ground": 5}, id="solve-omcp-int-ground"),
    pytest.param(["reduce", "klaus"], {"n": 1, "ground": 5}, id="klaus-int-ground"),
    pytest.param(["reduce", "klaus"], {"M": 5, "q": [1]}, id="klaus-int-M"),
    pytest.param(["lcp", "check-p"], {"M": 5, "q": [1]}, id="check-p-int-M"),
    pytest.param(["reduce", "klaus"], {"M": [[1]], "q": 5}, id="klaus-int-q"),
    pytest.param(["om", "cocircuits"], {"ground": ["a", "b"], "circuits": 5}, id="cocircuits-int-circuits"),
    pytest.param(["uso", "solve", "--algo", "jump"], {"n": 1, "outmaps": ["+", "+"]}, id="uso-solve-jump-no-sink"),
    pytest.param(["uso", "solve", "--algo", "ordered-scan"], {"n": 1, "outmaps": ["+", "+"]}, id="uso-solve-ordered-scan-no-sink"),
    pytest.param(["uso", "holt-klee"], {"outmaps": [""]}, id="holt-klee-0-cube"),
    pytest.param(["lcp", "orient"], {"M": I2, "q": [1]}, id="orient-short-q"),
    pytest.param(["lcp", "orient"], {"M": [[1, 0, 2], [0, 1, 3]], "q": [1, 1]}, id="orient-non-square-M"),
    pytest.param(["lcp", "orient"], {"M": I2, "q": [1, 1, 1]}, id="orient-long-q"),
    pytest.param(["lcp", "orient", "--q", str(DATA / "lcp3_generic.json")], {"M": I2, "q": [1, 1]}, id="orient-qfile-wrong-length"),
    pytest.param(["lcp", "orient"], json.loads((DATA / "lcp3_singular.json").read_text()), id="orient-singular-basis"),
    pytest.param(["om", "solve-omcp", "--no-validate"], NON_MATROID, id="solve-omcp-non-matroid"),
    pytest.param(["om", "degeneracy", "--no-validate"], NON_MATROID, id="degeneracy-non-matroid"),
    pytest.param(["reduce", "klaus", "--no-validate"], NON_MATROID, id="klaus-non-matroid"),
    pytest.param(["reduce", "back-map", "--no-validate", "--sink", "0"], NON_MATROID, id="back-map-non-matroid"),
    pytest.param(["reduce", "back-map", "--sink", "0100"], LCP3, id="back-map-long-vertex"),
    pytest.param(["reduce", "back-map", "--sink", "0b100"], LCP3, id="back-map-prefixed-vertex"),
    pytest.param(["reduce", "back-map", "--sink", "1_00"], LCP3, id="back-map-underscore-vertex"),
    pytest.param(["reduce", "back-map", "--uv1", "001", "1001"], LCP3, id="back-map-long-uv1-vertex"),
    pytest.param(["om", "cocircuits", "--no-validate"], NON_MATROID, id="cocircuits-non-matroid"),
    pytest.param(["reduce", "klaus"], {"base": NON_PM_BASE, "atoms": 5}, id="klaus-int-atoms"),
    pytest.param(["reduce", "klaus"], {"base": NON_PM_BASE, "atoms": [5]}, id="klaus-int-atom"),
    pytest.param(["reduce", "klaus"], {"base": NON_PM_BASE, "table": 5}, id="klaus-int-table"),
    pytest.param(["reduce", "klaus"], {"base": NON_PM_BASE, "atoms": [["s1", {}]]}, id="klaus-object-atom-sign"),
    pytest.param(["reduce", "klaus"], {"base": NON_PM_BASE, "atoms": [[["x"], "+"]]}, id="klaus-list-atom-element"),
    pytest.param(["reduce", "klaus"], SIGN_EVEN_TABLE, id="klaus-sign-even-table"),
    pytest.param(["om", "solve-omcp"], SIGN_EVEN_TABLE, id="solve-omcp-sign-even-table"),
    pytest.param(["reduce", "klaus"], {"M": [["1/0"]], "q": [1]}, id="klaus-zero-denominator"),
    pytest.param(["lcp", "check-p"], {"M": [["1/0"]], "q": [1]}, id="check-p-zero-denominator"),
    pytest.param(["reduce", "klaus"], {"M": [[True]], "q": [1]}, id="klaus-bool-entry"),
    pytest.param(["lcp", "check-p"], {"M": [[True]], "q": [1]}, id="check-p-bool-entry"),
]


@pytest.mark.parametrize("command, data", MALFORMED)
def test_malformed_input_exits_cleanly(tmp_path, command, data):
    path = write(tmp_path, "bad.json", data)
    src = str(Path(omcp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "omcp.cli", *command, path],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "argv, field",
    [
        pytest.param(["om", "pmatroid-check", str(DATA / "lcp3_generic.json")], "ground",
                     id="pmatroid-check-on-lcp"),
        pytest.param(["lcp", "check-p", str(DATA / "omcp3_nonp.json")], "M",
                     id="check-p-on-explicit"),
        pytest.param(["lcp", "orient", "--q", "QFILE", str(DATA / "lcp3_generic.json")], "q",
                     id="orient-qfile-without-q"),
    ],
)
def test_missing_field_is_named(tmp_path, capsys, argv, field):
    qfile = write(tmp_path, "noq.json", {"M": I2})
    code = main([qfile if a == "QFILE" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: missing field '{field}'\n"


@pytest.mark.parametrize("group", ["om", "reduce", "uso", "adversary", "lcp"])
def test_unknown_subcommand_exits_1(tmp_path, capsys, group):
    """argparse rejects the name before any handler runs; its usage message
    is two lines, so these are not MALFORMED cases."""
    code = main([group, "no-such-subcommand", write(tmp_path, "x.json", {})])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "invalid choice: 'no-such-subcommand'" in captured.err
    assert "Traceback" not in captured.err


def test_shared_parser_keeps_no_state_between_calls(capsys):
    """``main`` builds its parser once; a sequence of calls in one process
    prints what the golden file or a fresh process prints for each."""
    data = Path(__file__).parent / "data"
    golden = {
        tuple(c["argv"]): (c["exit"], c["stdout"])
        for c in json.loads((data / "golden_cli.json").read_text(encoding="utf-8"))
    }
    src = str(Path(omcp.__file__).resolve().parents[1])
    path = str(data / "lcp5_degenerate.json")
    calls = [
        ["reduce", "back-map", path],  # neither --sink nor --uv1: exit 1
        ["reduce", "klaus", "--partial", path],
        ["reduce", "klaus", path],
        ["reduce", "back-map", path, "--uv1", "00000", "00001"],
        ["reduce", "back-map", path, "--sink", "10111"],
    ]
    for argv in calls:
        code = main(argv)
        got = (code, capsys.readouterr().out)
        key = tuple(a.replace(str(data), "DATA") for a in argv)
        if key in golden:
            expected = golden[key]
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "omcp.cli", *argv],
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=60,
            )
            expected = (proc.returncode, proc.stdout)
        assert got == expected, argv
    # A bad call after good ones still fails.
    assert main(["reduce", "back-map", path]) == 1
