"""Fuzzing the CLI on malformed instance files.

Each example takes a valid instance for a subcommand that reads a file and
replaces one or two of its values (a leaf, or a whole list or object) by
an arbitrary JSON value.  Whatever the input, ``cli.main`` must return
exit code 0, 1 or 2 without raising, and an exit-1 run must explain
itself in one stderr line.  The search is derandomized and keeps no
example database, so every run checks the same inputs.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from omcp.cli import main

from conftest import EXT_CIRCUITS, PM_CIRCUITS

EXT = {"n": 1, "ground": ["s1", "t1", "q"], "circuits": EXT_CIRCUITS}
PM_BASE = {"n": 1, "ground": ["s1", "t1"], "circuits": PM_CIRCUITS}
ATOMS = {"base": PM_BASE, "atoms": [["s1", "+"], ["t1", "-"]]}
TABLE = {"base": PM_BASE, "table": {"+-": "+", "-+": "-"}}
LCP = {"M": [["2", "1"], ["0", "1/2"]], "q": ["-1", 1]}
USO = {"n": 2, "outmaps": ["-+", "--", "++", "+-"]}

# FILE is the mutated instance; LCP_FILE is an unmutated copy of LCP.
ORACLE_COMMANDS = [
    ["om", "solve-omcp", "FILE"],
    ["om", "degeneracy", "FILE"],
    ["reduce", "klaus", "FILE"],
    ["reduce", "klaus", "--partial", "FILE"],
    ["reduce", "back-map", "FILE", "--sink", "01"],
    ["reduce", "back-map", "FILE", "--uv1", "0", "1"],
]
CASES = (
    [(argv, inst) for argv in ORACLE_COMMANDS for inst in (EXT, ATOMS, TABLE, LCP)]
    + [
        (["om", command, "FILE"], EXT)
        for command in ("check-axioms", "cocircuits", "pmatroid-check")
    ]
    + [
        (["uso", command, "FILE"], USO)
        for command in ("check", "solve", "holt-klee")
    ]
    + [
        (["lcp", command, "FILE"], LCP)
        for command in ("check-p", "to-omcp", "orient")
    ]
    + [(["lcp", "orient", "LCP_FILE", "--q", "FILE"], {"q": ["1", "-1"]})]
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.sampled_from(["", "+", "-", "0", "++", "+-0", "s1", "t1", "q", "1/0", "1/2", "x"]),
    st.text(max_size=3),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
)


def paths(value, prefix=()):
    """Paths to every value nested inside ``value``, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def mutated_cases(draw):
    argv, instance = draw(st.sampled_from(CASES))
    data = copy.deepcopy(instance)
    for _ in range(draw(st.integers(1, 2))):
        *head, last = draw(st.sampled_from(list(paths(data))))
        parent = data
        for key in head:
            parent = parent[key]
        parent[last] = draw(VALUES)
    return argv, data


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_cases())
def test_cli_survives_mutated_instances(tmp_path, case):
    argv, data = case
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    lcp_path = tmp_path / "lcp.json"
    lcp_path.write_text(json.dumps(LCP))
    argv = [{"FILE": str(path), "LCP_FILE": str(lcp_path)}.get(a, a) for a in argv]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        message = err.getvalue()
        assert message.count("\n") == 1
        assert message.startswith(("error:", "size guard:"))
