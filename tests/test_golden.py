"""Byte-for-byte CLI output on committed instances.

``data/golden_cli.json`` holds, per command, the argv (``DATA`` stands for
this directory), the exit code and the exact stdout.  The two n=5 P-LCPs
share ``M = plcp.random_p_matrix(5, Random(2302))``: ``lcp5_generic`` has
a zero-free random q and is non-degenerate, ``lcp5_degenerate`` has
q = (0, 3, 0, -2, 0).  ``loc2_lex`` and ``loc2_degenerate`` extend the
explicit base [I | -M] with M = [[2, 1], [-1, 3]] by the localizations
[t1 -, s2 +] and [t2 -]; the second is degenerate.  ``omcp3_nonp`` is
``lcp to-omcp`` of ``lcp3_nonp``, and ``uso3_generic`` is the
``--emit-uso`` output of the generic P-LCP ``lcp3_generic``.
``lcp2_two_singular`` has two singular complementary sets, {s2, t1} at
vertex 10 and {t1, t2} at vertex 11; its cases also pin stderr, so the
error names the least failing vertex in vertex order.  ``uso6_nonp`` is a
recursively combed USO of the 6-cube (each level joins two random USOs by
parallel edges along its first dimension), drawn from ``random.Random(8)``,
with the edge of vertex 011111 along dimension 0 reversed; its
``uso check`` case pins a UV1 pair that differs in four dimensions,
dimension 0 among them.  The expected outputs were recorded once and are
never regenerated: any change to the exact arithmetic, to the reduction
or to the pair check that alters a sign or a witness shows up here.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from omcp.cli import main

DATA = Path(__file__).parent / "data"
CASES = json.loads((DATA / "golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_is_byte_identical(case):
    argv = [a.replace("DATA", str(DATA)) for a in case["argv"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == case["exit"]
    assert buf.getvalue() == case["stdout"]


@pytest.mark.parametrize(
    "case", [c for c in CASES if "stderr" in c], ids=lambda c: " ".join(c["argv"])
)
def test_cli_error_is_byte_identical(case):
    argv = [a.replace("DATA", str(DATA)) for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
    assert err.getvalue() == case["stderr"]
