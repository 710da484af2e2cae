"""Command-line drivers for the whole pipeline.

Exit codes: 0 for a valid result or solution certificate, 2 when the
result is a violation certificate (or a failed check), 1 for usage and
I/O errors.  All reports are JSON on stdout; identical invocations with
identical seeds produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import adversary as adv
from . import cube, plcp, pmatroid, reduction
from .extend import ExtensionOM, Localization, validate_localization
from .guards import SizeGuardError
from .om import ExplicitOM, check_circuit_axioms
from .pmatroid import certificate_to_json
from .realize import RationalMatrix, RealizedOM, omcp_from_plcp, plcp_matrix
from .signs import GroundSet


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _lcp_oracle(data: dict) -> RealizedOM:
    """(M, q) instance data -> circuit oracle realized by [I | -M | -q]."""
    inst = plcp.PlcpInstance.from_json_dict(data)
    return RealizedOM(plcp_matrix(inst.matrix, inst.q),
                      GroundSet.complementary(inst.n, with_q=True))


def _load_oracle(path: str, validate: bool):
    """Instance file -> circuit oracle with an extension element q;
    explicit circuits, a localization or an (M, q) pair."""
    data = _read_json(path)
    if "M" in data:
        return _lcp_oracle(data)
    if "base" in data:
        base_om = ExplicitOM.from_json_dict(data["base"], validate=validate)
        sigma = Localization.from_json_dict(base_om, data)
        if validate:
            result = validate_localization(sigma)
            if not result.valid:
                detail = f": {result.violation!r}" if result.violation else ""
                raise ValueError(f"invalid localization: {result.reason}{detail}")
        oracle = ExtensionOM(sigma)
    else:
        oracle = ExplicitOM.from_json_dict(data, validate=validate)
    if oracle.ground.q is None:
        raise ValueError("instance has no extension element q")
    return oracle


def _load_explicit(path: str, validate: bool) -> ExplicitOM:
    return ExplicitOM.from_json_dict(_read_json(path), validate=validate)


def _orientation_dot(o: cube.Orientation) -> str:
    lines = ["digraph cube {"]
    n = o.n
    for v in o.vertices():
        plus, zero = o.outmap(v)
        for i in range(n):
            if cube.vertex_bit(v, i, n):
                continue
            w = cube.flip_vertex(v, i, n)
            a, b = cube.vertex_name(v, n), cube.vertex_name(w, n)
            if cube.vertex_bit(zero, i, n):
                lines.append(f'  "{a}" -> "{b}" [dir=none, style=dashed];')
            elif cube.vertex_bit(plus, i, n):
                lines.append(f'  "{a}" -> "{b}";')
            else:
                lines.append(f'  "{b}" -> "{a}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- om -------------------------------------------------------------------


def cmd_om(args) -> int:
    if args.om_command == "check-axioms":
        instance = _load_explicit(args.instance, validate=False)
        violation = check_circuit_axioms(instance.circuits)
        if violation is None:
            _emit({"valid": True})
            return 0
        _emit(
            {
                "valid": False,
                "axiom": violation.axiom,
                "witnesses": [w.encode() for w in violation.witnesses],
                "element": violation.element,
            }
        )
        return 2

    if args.om_command == "cocircuits":
        instance = _load_explicit(args.instance, validate=not args.no_validate)
        cocircuits = sorted(c.encode() for c in instance.cocircuits())
        _emit({"cocircuits": cocircuits})
        return 0

    if args.om_command == "pmatroid-check":
        instance = _load_explicit(args.instance, validate=not args.no_validate)
        target = instance
        if instance.ground.q is not None:
            target = instance.minor_delete(instance.ground.q)
        result = pmatroid.is_p_matroid(target)
        if result.is_p:
            _emit({"p_matroid": True})
            return 0
        report: dict = {"p_matroid": False, "s_is_basis": result.s_is_basis}
        if result.sign_reversing is not None:
            report["certificate"] = certificate_to_json(
                pmatroid.MV1(result.sign_reversing)
            )
        _emit(report)
        return 2

    if args.om_command == "solve-omcp":
        oracle = _load_oracle(args.instance, validate=not args.no_validate)
        n = oracle.ground.n_pairs
        cert = pmatroid.solve_omcp_bruteforce(oracle, n)
        if cert is None:
            _emit({"kind": "NotFound"})
            return 2
        _emit(certificate_to_json(cert))
        return 0 if isinstance(cert, pmatroid.M1) else 2

    # degeneracy, the only subcommand left
    oracle = _load_oracle(args.instance, validate=not args.no_validate)
    degenerate, witness = pmatroid.is_degenerate(oracle, oracle.ground.n_pairs)
    _emit({"degenerate": degenerate, "witness": sorted(witness) if witness else None})
    return 0


# -- reduce ---------------------------------------------------------------


def cmd_reduce(args) -> int:
    oracle = _load_oracle(args.instance, validate=not args.no_validate)
    n = oracle.ground.n_pairs

    if args.reduce_command == "klaus":
        orientation = reduction.klaus_orientation(
            oracle, n, partial=args.partial
        ).materialize()
        report: dict = {"n": n, "outmaps": orientation.to_outmaps()}
        if args.partial:
            faces = cube.unoriented_faces(orientation)
            report["unoriented_faces"] = [
                {
                    "spanned": sorted(f.spanned),
                    "fixed": {str(d): b for d, b in f.fixed},
                }
                for f in faces
            ]
        else:
            violation = cube.find_sw_violation(orientation)
            if violation is None:
                report["uso"] = True
                report["sink"] = cube.vertex_name(cube.sink_vertex(orientation), n)
            else:
                report["uso"] = False
        if args.emit_uso:
            _write_json(args.emit_uso, orientation.to_json_dict())
        if args.emit_dot:
            with open(args.emit_dot, "w", encoding="utf-8") as fh:
                fh.write(_orientation_dot(orientation))
        _emit(report)
        return 0

    # back-map, the only subcommand left
    if args.sink is not None:
        cert = reduction.map_back_sink(oracle, cube.vertex_from_name(args.sink, n), n)
    else:
        v, w = args.uv1
        cert = reduction.map_back_uv1(
            oracle, cube.vertex_from_name(v, n), cube.vertex_from_name(w, n), n
        )
    _emit(certificate_to_json(cert))
    return 0 if isinstance(cert, pmatroid.M1) else 2


# -- uso ------------------------------------------------------------------


def cmd_uso(args) -> int:
    if args.uso_command == "enumerate":
        usos = cube.enumerate_usos(args.n)
        report: dict = {"n": args.n, "count": len(usos)}
        if args.list:
            report["usos"] = [o.to_outmaps() for o in usos]
        _emit(report)
        return 0

    orientation = cube.Orientation.from_json_dict(_read_json(args.instance))

    if args.uso_command == "check":
        if args.emit_dot:
            with open(args.emit_dot, "w", encoding="utf-8") as fh:
                fh.write(_orientation_dot(orientation))
        violation = cube.find_sw_violation(orientation)
        if violation is None:
            _emit({"uso": True})
            return 0
        cert = pmatroid.UV1(orientation.n, *violation)
        _emit({"uso": False, "certificate": certificate_to_json(cert)})
        return 2

    if args.uso_command == "solve":
        sink, count = cube.sink_find(args.algo, orientation)
        _emit(
            {
                "sink": cube.vertex_name(sink, orientation.n),
                "queries": count,
                "algo": args.algo,
            }
        )
        return 0

    # holt-klee, the only subcommand left
    value = cube.holt_klee_value(orientation)
    _emit({"value": value, "holt_klee": value >= orientation.n})
    return 0


# -- adversary ------------------------------------------------------------


def cmd_adversary(args) -> int:
    rng = random.Random(args.seed)
    base = adv.random_uniform_base(args.n, rng)
    state = adv.AdversaryState(base)
    result = adv.run_game(args.algo, state)
    report = {
        "n": args.n,
        "algo": args.algo,
        "seed": args.seed,
        "query_count": result.query_count,
        "sink": cube.vertex_name(result.sink, args.n),
        "lower_bound_met": result.query_count >= args.n,
    }
    if args.emit_transcript:
        _write_json(
            args.emit_transcript,
            {
                "n": args.n,
                "transcript": [
                    {
                        "vertex": cube.vertex_name(v, args.n),
                        "outmap": cube.outmap_name(answer, args.n),
                    }
                    for v, answer in result.transcript
                ],
            },
        )
    _emit(report)
    return 0


# -- lcp ------------------------------------------------------------------


def cmd_lcp(args) -> int:
    data = _read_json(args.instance)

    if args.lcp_command == "check-p":
        matrix = RationalMatrix.from_rows(data["M"])
        ok, witness = plcp.is_p_matrix(matrix)
        _emit({"p_matrix": ok, "witness": list(witness) if witness else None})
        return 0 if ok else 2

    if args.lcp_command == "to-omcp":
        inst = plcp.PlcpInstance.from_json_dict(data)
        instance = omcp_from_plcp(inst.matrix, inst.q)
        out = instance.to_json_dict()
        if args.output:
            _write_json(args.output, out)
        _emit(out)
        return 0

    # orient, the only subcommand left
    if args.q:
        data["q"] = _read_json(args.q)["q"]
    oracle = _lcp_oracle(data)
    n = oracle.ground.n_pairs
    orientation = reduction.klaus_orientation(oracle, n, partial=True).materialize()
    report = {"n": n, "outmaps": orientation.to_outmaps()}
    if args.total:
        report["completed"] = cube.complete_downward(orientation).to_outmaps()
    _emit(report)
    return 0


# -- parser ---------------------------------------------------------------


NO_VALIDATE_HELP = "skip circuit-axiom and localization validation on load"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it;
    parsing keeps no state in the parser, so every call starts clean."""
    parser = argparse.ArgumentParser(
        prog="omcp",
        description="Oriented-matroid complementarity toolbox",
    )
    top = parser.add_subparsers(dest="command", required=True)

    p_om = top.add_parser("om", help="explicit oriented-matroid operations")
    om_sub = p_om.add_subparsers(dest="om_command", required=True)
    for name in ("check-axioms", "cocircuits", "pmatroid-check", "solve-omcp", "degeneracy"):
        sp = om_sub.add_parser(name)
        sp.add_argument("instance")
        sp.add_argument("--no-validate", action="store_true", help=NO_VALIDATE_HELP)
    p_om.set_defaults(fn=cmd_om)

    p_red = top.add_parser("reduce", help="cube-orientation reduction and back-mapping")
    red_sub = p_red.add_subparsers(dest="reduce_command", required=True)
    sp = red_sub.add_parser("klaus")
    sp.add_argument("instance")
    sp.add_argument("--partial", action="store_true",
                    help="keep degenerate half-edges unoriented")
    sp.add_argument("--emit-uso", metavar="OUT")
    sp.add_argument("--emit-dot", metavar="OUT")
    sp.add_argument("--no-validate", action="store_true", help=NO_VALIDATE_HELP)
    sp = red_sub.add_parser("back-map")
    sp.add_argument("instance")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--sink", metavar="V")
    group.add_argument("--uv1", nargs=2, metavar=("V", "W"))
    sp.add_argument("--no-validate", action="store_true", help=NO_VALIDATE_HELP)
    p_red.set_defaults(fn=cmd_reduce)

    p_uso = top.add_parser("uso", help="unique-sink-orientation operations")
    uso_sub = p_uso.add_subparsers(dest="uso_command", required=True)
    sp = uso_sub.add_parser("check")
    sp.add_argument("instance")
    sp.add_argument("--emit-dot", metavar="OUT")
    sp = uso_sub.add_parser("solve")
    sp.add_argument("instance")
    sp.add_argument("--algo", default="jump", choices=sorted(cube.ALGORITHMS))
    sp = uso_sub.add_parser("holt-klee")
    sp.add_argument("instance")
    sp = uso_sub.add_parser("enumerate")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--list", action="store_true")
    p_uso.set_defaults(fn=cmd_uso)

    p_adv = top.add_parser("adversary", help="query lower-bound games")
    adv_sub = p_adv.add_subparsers(dest="adv_command", required=True)
    sp = adv_sub.add_parser("run")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--algo", default="jump", choices=sorted(cube.ALGORITHMS))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--emit-transcript", metavar="OUT")
    p_adv.set_defaults(fn=cmd_adversary)

    p_lcp = top.add_parser("lcp", help="linear complementarity front end")
    lcp_sub = p_lcp.add_subparsers(dest="lcp_command", required=True)
    sp = lcp_sub.add_parser("check-p")
    sp.add_argument("instance")
    sp = lcp_sub.add_parser("to-omcp")
    sp.add_argument("instance")
    sp.add_argument("-o", "--output", metavar="OUT")
    sp = lcp_sub.add_parser("orient", help="print the partial Klaus orientation, "
                            "the same one as 'reduce klaus --partial'")
    sp.add_argument("instance")
    sp.add_argument("--q", metavar="QFILE")
    sp.add_argument("--total", action="store_true",
                    help="also report the downward completion")
    p_lcp.set_defaults(fn=cmd_lcp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:  # a required JSON field is absent
        print(f"error: missing field {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
