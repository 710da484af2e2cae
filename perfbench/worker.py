"""Workload process: set up, run instances in a closed loop, check outputs.

Started by ``run.py`` with the generated inputs.  It imports ``omcp`` from
the checkout's ``src/``, loads the inputs and prints ``ready`` (set-up is
over), then, unless ``--mode setup``:

* ``timed``: one client sends the next instance as soon as the previous one
  finished, until ``--seconds`` have passed; every output is checked after
  the loop.
* ``traced``: the first ``Workload.traced`` instances run once plainly and
  once with the tracer installed; both passes are checked and must agree.

The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, CheckFailed, Workload, import_omcp

SRC = Path(__file__).resolve().parent.parent / "src"


def _attempt(wl: Workload, inp):
    """Output of one instance, or None when it raised."""
    try:
        return wl.run(inp)
    except Exception:  # noqa: BLE001 - a failed instance is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None


def _record(tally: Counter, index: int, out) -> None:
    """Count one output of input ``index``; None stands for an instance that raised."""
    tally[(index, None if out is None else json.dumps(out, sort_keys=True))] += 1


def _tally(outputs: list, start: int, n_inputs: int) -> Counter:
    """Tally of outputs that came from instances ``start``, ``start + 1``, ..."""
    tally: Counter = Counter()
    for i, out in enumerate(outputs, start):
        _record(tally, i % n_inputs, out)
    return tally


def _count_failures(wl: Workload, inputs: list, tally: Counter) -> int:
    """Check each distinct output of each input once; a failure counts every copy."""
    failed = 0
    for (index, text), count in tally.items():
        if text is None:
            failed += count
            continue
        try:
            wl.check(inputs[index], json.loads(text))
        except CheckFailed as exc:
            print(f"input {index}: check failed: {exc}", file=sys.stderr)
            failed += count
        except Exception:  # noqa: BLE001 - a check that raises is a failure
            traceback.print_exc(file=sys.stderr)
            failed += count
    return failed


def _digest(outputs: list) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(json.dumps(out, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def timed(wl: Workload, inputs: list, seconds: float) -> dict:
    """Closed loop for ``seconds``.

    Outputs are kept as a tally of distinct outputs per input, plus the
    digest prefix, so memory does not grow with the number of instances.
    """
    samples: list[float] = []
    tally: Counter = Counter()
    prefix: list = []
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    while True:
        i = len(samples)
        t0 = clock()
        out = _attempt(wl, inputs[i % len(inputs)])
        t1 = clock()
        samples.append(t1 - t0)
        _record(tally, i % len(inputs), out)
        if i < wl.traced:
            prefix.append(out)
        if t1 >= deadline:
            break
    wall = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(samples)
    failed = _count_failures(wl, inputs, tally)
    # The digest covers a fixed prefix; a slow run finishes it untimed.
    extra = [_attempt(wl, inputs[i % len(inputs)]) for i in range(attempted, wl.traced)]
    extra_failed = _count_failures(wl, inputs, _tally(extra, attempted, len(inputs)))
    # The median is reported, not gated.  On a shared VM the CPU can switch
    # between speeds 1.7x apart for tens of seconds at a time; the median
    # instance of a run then lands in one speed or the other, while the
    # throughput averages over the whole loop.
    info = {
        "instance_ms.p50": statistics.median(samples) * 1000,
        "instance_ms.samples": attempted,
        "failed_frac": failed / attempted,
        "digest": _digest(prefix + extra),
    }
    if attempted >= 100:
        info["instance_ms.p90"] = statistics.quantiles(samples, n=10)[-1] * 1000
    return {
        "correct": failed == 0 and extra_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "instances_per_s": (attempted - failed) / wall,
            "peak_rss_mb": peak_rss_mb,
        },
        "info": info,
    }


def traced(wl: Workload, inputs: list, trace_file: str, header: dict) -> dict:
    from tracing import LAYERS, Tracer

    batch = [inputs[i % len(inputs)] for i in range(wl.traced)]
    clock = time.perf_counter
    t0 = clock()
    plain = [_attempt(wl, inp) for inp in batch]
    plain_s = clock() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = clock()
        observed = [_attempt(wl, inp) for inp in batch]
        traced_s = clock() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    tracer.write(trace_file, header)

    mismatched = sum(a != b for a, b in zip(plain, observed))
    if mismatched:
        print(f"{mismatched} outputs changed under tracing", file=sys.stderr)
    failed = _count_failures(wl, inputs, _tally(plain, 0, len(inputs))) + mismatched
    shares = {layer: metrics[f"{layer}.self_s"] / traced_s for layer in LAYERS}
    return {
        "correct": failed == 0,
        "attempted": 2 * len(batch),
        "failed": failed,
        "metrics": metrics,
        "info": {
            "instances": len(batch),
            "traced_s": traced_s,
            "self_share": shares,
            "spans": len(tracer.names),
            "digest": _digest(plain),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, help="directory of generated inputs")
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-file", help="where the traced mode writes its spans")
    parser.add_argument("--seed", type=int, default=0, help="recorded in the trace header")
    args = parser.parse_args()

    import_omcp(SRC)
    wl = WORKLOADS[args.workload]
    inputs = wl.load(args.inputs)
    print("ready", flush=True)

    if args.mode == "setup":
        return 0
    if args.mode == "timed":
        result = timed(wl, inputs, args.seconds)
    else:
        header = {"workload": wl.name, "seed": args.seed}
        result = traced(wl, inputs, args.trace_file, header)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
