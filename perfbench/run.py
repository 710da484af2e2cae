"""Benchmark of the omcp pipeline: three seeded workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it uses the checkout's ``src/omcp``
and nothing installed.  The inputs are generated from ``--seed`` into
``.perfbench/`` at the checkout root.

``--trace 0`` runs one workload process that runs instances in a closed
loop, one client, for ``--seconds``; set-up is the median over fresh
processes that import ``omcp`` and load the inputs, started before and
after that loop.
``--trace 1`` measures the import times and runs a fixed batch of
instances twice, plainly and under the per-layer tracer, writing the spans
to ``.perfbench/traces/``.

Every output is checked.  The line before the last is ``{"info": ...}``
(sample counts, the failure fraction, the tail latency where a run has
enough samples, the output digest, layer shares); the last line is the
result object.  The exit code is non-zero when the benchmark itself
cannot run, for example when the checkout holds no ``src/omcp``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

SETUP_RUNS = 3  # fresh set-up processes before and again after the timed loop
IMPORT_PROBES = 3
RUN_LIMIT_S = 170.0  # every child is killed before the run exceeds this

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Starts the workload processes of one benchmark run."""

    def __init__(self, workload: str, inputs: str, deadline: float):
        self.workload = workload
        self.inputs = inputs
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run time limit reached")
        return left

    def _cmd(self, mode: str, *extra: str) -> list[str]:
        return [sys.executable, str(WORKER), "--workload", self.workload,
                "--inputs", self.inputs, "--mode", mode, *extra]

    def setup_seconds(self) -> float:
        """Wall time from starting a workload process until it is ready."""
        start = time.perf_counter()
        proc = subprocess.Popen(self._cmd("setup"), stdout=subprocess.PIPE, env=self.env)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], self._remaining())
            line = proc.stdout.readline() if readable else b""
            ready = time.perf_counter()
            proc.wait(self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("set-up process failed")
        return ready - start

    def import_seconds(self) -> tuple[float, float]:
        """(omcp, networkx) cumulative import times from ``-X importtime``."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import omcp"],
            env=self.env, capture_output=True, text=True, timeout=self._remaining(),
        )
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("omcp", "networkx"):
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        return cumulative["omcp"], cumulative.get("networkx", 0.0)

    def work(self, mode: str, *extra: str) -> dict:
        """Result object printed by a timed or traced workload process."""
        proc = subprocess.run(
            self._cmd(mode, *extra), env=self.env, stdout=subprocess.PIPE, text=True,
            timeout=self._remaining(),
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload process exited with {proc.returncode}")
        return json.loads(lines[-1])


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "omcp" / "__init__.py").is_file():
        print(f"perfbench: no omcp sources at {SRC}", file=sys.stderr)
        return 2
    from tracing import PER_LAYER_UNITS
    from workloads import WORKLOADS, import_omcp

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    import_omcp(SRC)

    WORK.mkdir(exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    try:
        wl.generate(args.seed, inputs, wl.n, wl.pool)
        runner = Runner(wl.name, inputs, deadline)
        if args.trace == 0:
            runner.setup_seconds()  # warm-up: byte-compiles the sources once
            setups = [runner.setup_seconds() for _ in range(SETUP_RUNS)]
            result = runner.work("timed", "--seconds", str(args.seconds))
            setups += [runner.setup_seconds() for _ in range(SETUP_RUNS)]
            result["metrics"]["setup_s"] = statistics.median(setups)
            metrics = _with_units(result["metrics"], END_TO_END_UNITS)
        else:
            probes = [runner.import_seconds() for _ in range(IMPORT_PROBES)]
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            trace_file = traces / f"{wl.name}-seed{args.seed}.jsonl"
            result = runner.work("traced", "--trace-file", str(trace_file),
                                 "--seed", str(args.seed))
            result["metrics"]["import.omcp_s"] = statistics.median(p[0] for p in probes)
            result["metrics"]["import.networkx_s"] = statistics.median(p[1] for p in probes)
            result["info"]["trace_file"] = str(trace_file.relative_to(ROOT))
            metrics = _with_units(result["metrics"], PER_LAYER_UNITS)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    print(json.dumps({"info": {"workload": wl.name, "seed": args.seed, **result["info"]}}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
