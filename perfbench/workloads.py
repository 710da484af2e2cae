"""The three workloads: seeded inputs, one instance's run, and its output check.

Inputs are generated by the benchmark's parent process from ``--seed`` and
written to a work directory; the workload process loads them during
set-up, runs instances in a closed loop and checks every output after the
timed loop.  Runs call ``omcp`` through module attributes
(``cube.find_sw_violation``, never a name bound at import), so a tracer
that replaces those attributes sees every call.  ``omcp`` is imported
inside the functions: importing it is part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

MANIFEST = "inputs.json"


class CheckFailed(Exception):
    """An instance's output is wrong."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    n: int  # instance size (largest size for the mixed corpus)
    pool: int  # distinct inputs generated; the timed loop cycles through them
    traced: int  # instances in a traced run and in the output digest
    generate: Callable[[int, str, int, int], None]  # (seed, directory, n, pool)
    load: Callable[[str], list]
    run: Callable[[object], object]  # returns a JSON-serializable output
    check: Callable[[object, object], None]  # raises CheckFailed


def import_omcp(src: Path) -> None:
    """Import ``omcp`` from ``src``, never from an installed copy."""
    sys.path.insert(0, str(src))
    import omcp

    if not Path(omcp.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"omcp was imported from {omcp.__file__}, not from {src}")


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cli(argv: list[str]) -> list:
    """[exit code, stdout] of one in-process ``omcp`` command."""
    from omcp import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return [code, buf.getvalue()]


def _vertex_basis(bits: str) -> frozenset[str]:
    return frozenset(
        f"t{i + 1}" if b == "1" else f"s{i + 1}" for i, b in enumerate(bits)
    )


def _expect_lcp_solution(m, q, basis: frozenset[str]) -> None:
    from omcp import plcp

    solution = plcp.basic_solution(m, q, basis)
    expect(solution is not None, "basis at the sink is singular")
    expect(plcp.is_lcp_solution(m, q, *solution), "basic solution at the sink is not an LCP solution")


# -- lcp-reduce ---------------------------------------------------------------


def _generate_lcp(seed: int, directory: str, n: int, pool: int) -> None:
    from omcp import plcp

    rng = random.Random(seed)
    files = []
    for k in range(pool):
        m = plcp.random_p_matrix(n, rng)
        q = plcp.random_q(n, rng)
        name = f"lcp-{k:03d}.json"
        _write_json(os.path.join(directory, name), plcp.PlcpInstance(m, q).to_json_dict())
        files.append(name)
    _write_json(os.path.join(directory, MANIFEST), {"files": files})


def _load_files(directory: str) -> list:
    manifest = _read_json(os.path.join(directory, MANIFEST))
    return [os.path.join(directory, f) for f in manifest["files"]]


def _run_lcp(path: str) -> list:
    out = _cli(["reduce", "klaus", path])
    if out[0] != 0 or not json.loads(out[1]).get("uso"):
        return out
    sink = json.loads(out[1])["sink"]
    return out + _cli(["reduce", "back-map", path, "--sink", sink])


def _check_lcp(path: str, output: list) -> None:
    from omcp import plcp, pmatroid, realize, signs

    expect(len(output) == 4 and output[0] == 0 and output[2] == 0, "exit codes")
    report = json.loads(output[1])
    expect(report["uso"] is True, "reduced orientation is not a USO")
    inst = plcp.PlcpInstance.from_json_dict(_read_json(path))
    ground = signs.GroundSet.complementary(inst.n, with_q=True)
    cert = pmatroid.certificate_from_json(json.loads(output[3]), ground)
    expect(isinstance(cert, pmatroid.M1), "back-map of the sink is not M1")
    oracle = realize.RealizedOM(realize.plcp_matrix(inst.matrix, inst.q), ground)
    expect(pmatroid.verify_certificate(cert, oracle), "M1 does not verify")
    _expect_lcp_solution(inst.matrix, inst.q, _vertex_basis(report["sink"]))


# -- adversary ----------------------------------------------------------------


def _generate_adversary(seed: int, directory: str, n: int, pool: int) -> None:
    rng = random.Random(seed)
    seeds = [rng.getrandbits(48) for _ in range(pool)]
    _write_json(os.path.join(directory, MANIFEST), {"n": n, "seeds": seeds})


def _load_adversary(directory: str) -> list:
    manifest = _read_json(os.path.join(directory, MANIFEST))
    return [(manifest["n"], s) for s in manifest["seeds"]]


def _run_adversary(inp) -> list:
    from omcp import adversary, pmatroid

    n, seed = inp
    base = adversary.random_uniform_base(n, random.Random(seed))
    games = []
    for algo in ("ordered-scan", "jump"):
        result = adversary.run_game(algo, adversary.AdversaryState(base))
        degenerate, _ = pmatroid.is_degenerate(result.oracle, n)
        transcript = [[v, list(out)] for v, out in result.transcript]
        games.append([algo, result.query_count, result.sink, transcript, degenerate])
    return games


def _check_adversary(inp, output: list) -> None:
    n, _ = inp
    expect(len(output) == 2, "two games per base")
    for _, query_count, _, _, degenerate in output:
        expect(query_count >= n, "game ended in fewer than n queries")
        expect(degenerate is False, "finalized oracle is degenerate")


# -- degenerate-corpus --------------------------------------------------------


def _draw_q(m, n: int, style: int, rng: random.Random) -> tuple:
    """The five q styles of the structural corpus; all but the last degenerate."""
    from omcp import plcp

    if style == 0:
        return tuple(Fraction(0) for _ in range(n))
    if style == 1:
        i = rng.randrange(n)
        return tuple(-m.entries[r][i] for r in range(n))
    if style == 2:
        i = rng.randrange(n)
        return tuple(Fraction(int(r == i)) for r in range(n))
    if style == 3:
        return tuple(Fraction(0) if rng.random() < 0.4 else v for v in plcp.random_q(n, rng))
    return plcp.random_q(n, rng)


def _generate_corpus(seed: int, directory: str, n: int, pool: int) -> None:
    """Per dimension 2..n in turn: two degenerate P-LCPs, then one non-P LCP.

    The P-LCPs take the five q styles in turn.  With the classes in equal
    shares the median instance would sit on the boundary between the n=3
    P-LCPs and the slower n=3 non-P LCPs and jump between them from seed to
    seed; the 2:1 mix puts it inside the n=3 P-LCP class.
    """
    from omcp import plcp, realize

    rng = random.Random(seed)
    instances = []
    styles = 0
    for k in range(pool):
        dim = 2 + (k // 3) % (n - 1)
        if k % 3 < 2:
            kind = "p"
            m = plcp.random_p_matrix(dim, rng)
            q = _draw_q(m, dim, styles % 5, rng)
            styles += 1
        else:
            kind = "non-p"
            while True:
                m = realize.RationalMatrix.from_rows(
                    [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
                )
                if not plcp.is_p_matrix(m)[0]:
                    break
            q = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        instances.append({
            "kind": kind,
            "M": m.to_json_rows(),
            "q": [str(v) for v in q],
            "refill_seed": rng.getrandbits(32),
        })
    _write_json(os.path.join(directory, MANIFEST), {"instances": instances})


def _load_corpus(directory: str) -> list:
    from omcp import realize

    manifest = _read_json(os.path.join(directory, MANIFEST))
    return [
        (
            d["kind"],
            realize.RationalMatrix.from_rows(d["M"]),
            realize.parse_vector(d["q"]),
            d["refill_seed"],
        )
        for d in manifest["instances"]
    ]


def _run_corpus(inp) -> dict:
    from omcp import cube, pmatroid, realize, reduction, signs

    kind, m, q, refill_seed = inp
    n = m.rows
    if kind == "non-p":
        explicit = realize.omcp_from_plcp(m, q)
        orientation = reduction.klaus_orientation(explicit, n).materialize()
        violation = cube.find_sw_violation(orientation)
        if violation is None:
            cert = reduction.map_back_sink(explicit, cube.sink_vertex(orientation), n)
        else:
            cert = reduction.map_back_uv1(explicit, *violation, n)
        return {
            "certificate": pmatroid.certificate_to_json(cert),
            "verified": pmatroid.verify_certificate(cert, explicit),
        }

    oracle = realize.RealizedOM(
        realize.plcp_matrix(m, q), signs.GroundSet.complementary(n, with_q=True)
    )
    ppu = reduction.klaus_orientation(oracle, n, partial=True).materialize()
    partially_sw, _ = cube.is_partially_sw(ppu)
    faces = cube.unoriented_faces(ppu)
    uso = cube.is_uso_exhaustive(cube.complete_downward(ppu))
    rng = random.Random(refill_seed)
    refilled = ppu
    for face in faces:
        flips = [d for d in range(face.dim) if rng.random() < 0.5]
        refilled = cube.refill_hypervertex(
            refilled, face, cube.mirrored_down_orientation(face.dim, flips)
        )
    return {
        "outmaps": ppu.to_outmaps(),
        "faces": [[sorted(f.spanned), [list(x) for x in f.fixed]] for f in faces],
        "partially_sw": partially_sw,
        "uso": uso,
        "refill_uso": cube.is_uso_exhaustive(refilled),
    }


def _check_corpus(inp, output: dict) -> None:
    from omcp import plcp, pmatroid, realize

    kind, m, q, _ = inp
    n = m.rows
    if kind == "non-p":
        expect(output["verified"] is True, "certificate failed its self-check")
        explicit = realize.omcp_from_plcp(m, q)
        cert = pmatroid.certificate_from_json(output["certificate"], explicit.ground)
        expect(pmatroid.verify_certificate(cert, explicit), "certificate does not verify")
        if isinstance(cert, pmatroid.MV3):
            # criterion 7's brute-force confirmation of a violation
            sign_reversing = pmatroid.find_sign_reversing_circuit(explicit.minor_delete("q"))
            missing = pmatroid.check_complementary_bases(explicit, n)
            expect(sign_reversing is not None or missing is not None, "MV3 not confirmed")
        elif isinstance(cert, pmatroid.M1):
            c = cert.circuit
            basis = frozenset(
                t if c.sign_of(t) != 0 else s for s, t in explicit.ground.pairs
            )
            _expect_lcp_solution(m, q, basis)
        else:
            expect(isinstance(cert, pmatroid.MV2), "unexpected certificate kind")
        return

    expect(output["partially_sw"] is True, "partial orientation is not partially SW")
    expect(output["uso"] is True, "downward completion is not a USO")
    expect(output["refill_uso"] is True, "refilled orientation is not a USO")
    outmaps = output["outmaps"]
    expect(outmaps == plcp.plcp_ppu(m, q).to_outmaps(), "reduction differs from the direct LCP orientation")
    completed = [
        "".join(
            ("+" if format(v, f"0{n}b")[i] == "1" else "-") if c == "0" else c
            for i, c in enumerate(row)
        )
        for v, row in enumerate(outmaps)
    ]
    sinks = [v for v, row in enumerate(completed) if row == "-" * n]
    expect(len(sinks) == 1, "completed orientation has no unique sink")
    _expect_lcp_solution(m, q, _vertex_basis(format(sinks[0], f"0{n}b")))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lcp-reduce-n8",
            n=8, pool=48, traced=8,
            generate=_generate_lcp, load=_load_files, run=_run_lcp, check=_check_lcp,
        ),
        Workload(
            "adversary-n6",
            n=6, pool=256, traced=4,
            generate=_generate_adversary, load=_load_adversary, run=_run_adversary,
            check=_check_adversary,
        ),
        Workload(
            "degenerate-corpus",
            n=4, pool=500, traced=500,
            generate=_generate_corpus, load=_load_corpus, run=_run_corpus,
            check=_check_corpus,
        ),
    )
}
