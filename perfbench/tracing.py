"""Per-layer spans and counts, recorded from outside the ``omcp`` package.

The tracer replaces layer entry points (module functions and class
methods) with wrappers that record one span per call: name, start, end
and the span that was open when the call began.  Names that other
``omcp`` modules bound with ``from ... import``, and function values held
in module-level dicts such as ``cube.ALGORITHMS``, are replaced too, so
every call path reaches a wrapper.  ``uninstall`` restores the originals.

A layer's self time is the total duration of its spans minus the time
covered by their direct child spans.  ``signs``, ``guards`` and ``plcp``
carry no entry points: their time lands in the self time of the caller.
Small helpers called from the innermost loops (vertex bit access,
``Orientation.outmap``, ``RationalMatrix`` accessors) are left unwrapped
for the same reason and to keep the tracing overhead low.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# layer -> entry points in omcp.<layer>; "Class.method" names a method.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "linalg": ("mat_rank", "det", "solve", "invert", "kernel_vector_of_columns"),
    "realize": (
        "circuits_from_matrix", "is_generic", "plcp_matrix", "omcp_from_plcp",
        "hstack", "negated",
        "RealizedOM.query", "RealizedOM.fundamental_circuit",
        "RealizedOM.fundamental_cocircuit", "RealizedOM.is_basis",
        "RealizedOM.is_independent", "RealizedOM.is_uniform",
        "RealizedOM.cocircuits", "RealizedOM.circuit_set", "RealizedOM.to_explicit",
    ),
    "extend": (
        "extension_fundamental_circuit", "materialize_extension",
        "validate_localization", "lex_localization",
        "ExtensionOM.query", "ExtensionOM.fundamental_circuit",
        "Localization.evaluate", "Localization.compose", "Localization.to_table",
    ),
    "om": (
        "check_circuit_axioms", "load_instance",
        "ExplicitOM.query", "ExplicitOM.fundamental_circuit",
        "ExplicitOM.fundamental_cocircuit", "ExplicitOM.is_basis",
        "ExplicitOM.is_independent", "ExplicitOM.is_uniform",
        "ExplicitOM.cocircuits", "ExplicitOM.minor_delete", "ExplicitOM.dual",
    ),
    "reduction": (
        "orient_vertex_total", "orient_vertex_partial", "klaus_orientation",
        "map_back_sink", "map_back_uv1",
    ),
    "cube": (
        "find_sw_violation", "is_uso_exhaustive", "is_partially_sw",
        "complete_downward", "unoriented_faces", "is_hypervertex",
        "refill_hypervertex", "source_vertex", "sink_vertex", "holt_klee_value",
        "ordered_scan", "jump_with_fallback", "sink_find", "enumerate_usos",
        "all_down_orientation", "mirrored_down_orientation",
        "Orientation.materialize", "Orientation.to_outmaps",
        "Orientation.from_outmaps", "Orientation.from_json_dict",
    ),
    "pmatroid": (
        "certificate_to_json", "certificate_from_json", "is_sign_reversing",
        "find_sign_reversing_circuit", "is_p_matroid", "check_complementary_bases",
        "verify_mv3_pair", "solve_omcp_bruteforce", "is_degenerate",
        "verify_m1", "verify_mv1", "verify_mv2", "verify_mv3", "verify_u1",
        "verify_uv1", "verify_certificate",
    ),
    "adversary": (
        "run_game", "random_uniform_base", "ss_forcing_run",
        "AdversaryState.answer", "AdversaryState.finalize", "SSState.answer",
    ),
    "cli": ("main",),
}

LAYERS = tuple(ENTRY_POINTS)

# Return values that carry counts: span name -> value extracted from the result.
RESULT_COUNTS = {
    "adversary.run_game": ("adversary.game_queries", lambda result: result.query_count),
}

# Calls of these spans, summed, give the "<metric>" count.
CALL_COUNTS = {
    "linalg.invert.calls": ("linalg.invert",),
    "linalg.det.calls": ("linalg.det",),
    "linalg.solve.calls": ("linalg.solve",),
    "linalg.rank.calls": ("linalg.mat_rank", "linalg.kernel_vector_of_columns"),
    "realize.query.calls": ("realize.RealizedOM.query",),
    "realize.cocircuit.calls": ("realize.RealizedOM.fundamental_cocircuit",),
    "realize.is_generic.calls": ("realize.is_generic",),
    "extend.query.calls": ("extend.ExtensionOM.query",),
    "extend.evaluate.calls": ("extend.Localization.evaluate",),
    "om.query.calls": ("om.ExplicitOM.query",),
    "reduction.vertices": ("reduction.orient_vertex_total", "reduction.orient_vertex_partial"),
    "pmatroid.verify.calls": ("pmatroid.verify_certificate",),
    "adversary.answer.calls": ("adversary.AdversaryState.answer",),
}

# Inclusive time of these spans, summed, gives the "<metric>" duration.
SPAN_SECONDS = {
    "cube.sw_check.s": "cube.find_sw_violation",
    "cube.partial_sw.s": "cube.is_partially_sw",
    "cube.uso_exhaustive.s": "cube.is_uso_exhaustive",
    "pmatroid.is_degenerate.s": "pmatroid.is_degenerate",
    "adversary.base.s": "adversary.random_uniform_base",
}

# Counts that must repeat exactly for a given seed.
DETERMINISTIC = tuple(CALL_COUNTS) + tuple(name for name, _ in RESULT_COUNTS.values()) + (
    "cube.jump.fallbacks",
)

# Every per-layer metric with its unit; the import times are measured by
# the parent process, the tracing overhead by the workload process.
PER_LAYER_UNITS: dict[str, str] = {
    **{name: "count" for name in DETERMINISTIC},
    **{name: "s" for name in SPAN_SECONDS},
    "realize.factorizations_per_query": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "import.omcp_s": "s",
    "import.networkx_s": "s",
    "trace.overhead_frac": "ratio",
}


def _entry(layer: str, attr: str):
    """(owner object, attribute name) of one entry point."""
    module = importlib.import_module(f"omcp.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


class Tracer:
    """Spans kept in flat lists; one tracer per process, single-threaded."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = [-1]
        self.result_counts: Counter = Counter()
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.span_names)
        self.span_names.append(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter
        result_count = RESULT_COUNTS.get(name)
        counts = self.result_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if result_count is not None:
                counts[result_count[0]] += result_count[1](result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point and rebind every reference to it in omcp."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        entries = [
            (f"{layer}.{attr}", *_entry(layer, attr))
            for layer, attrs in ENTRY_POINTS.items()
            for attr in attrs
        ]
        # Listed after _entry has imported every layer module.
        modules = [m for k, m in sys.modules.items() if k == "omcp" or k.startswith("omcp.")]
        for span_name, owner, key in entries:
            raw = vars(owner)[key]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span_name, raw.__func__))
            else:
                wrapped = self._wrap(span_name, raw)
            self._rebind(owner, key, raw, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if name.startswith("__"):
                        continue
                    if value is raw:
                        self._rebind(module, name, raw, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is raw:
                                self._rebind_item(value, k, raw, wrapped)

    def _rebind(self, owner, name, raw, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._undo.append(lambda: setattr(owner, name, raw))

    def _rebind_item(self, mapping, key, raw, wrapped) -> None:
        mapping[key] = wrapped
        self._undo.append(lambda: mapping.__setitem__(key, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, inclusive span seconds and self seconds."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        span_names = self.span_names
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        fallbacks = 0
        for i in range(n):
            name = span_names[self.names[i]]
            calls[name] += 1
            inclusive[name] += durations[i]
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
                if (name == "cube.ordered_scan"
                        and span_names[self.names[parent]] == "cube.jump_with_fallback"):
                    fallbacks += 1
        self_s = Counter()
        for i in range(n):
            layer = span_names[self.names[i]].split(".", 1)[0]
            self_s[layer] += durations[i] - child_time[i]

        out: dict[str, float] = {}
        for metric, spans in CALL_COUNTS.items():
            out[metric] = sum(calls[s] for s in spans)
        for metric, span in SPAN_SECONDS.items():
            out[metric] = inclusive[span]
        for metric, _ in RESULT_COUNTS.values():
            out[metric] = self.result_counts[metric]
        out["cube.jump.fallbacks"] = fallbacks
        queries = out["realize.query.calls"] + out["realize.cocircuit.calls"]
        out["realize.factorizations_per_query"] = (
            out["linalg.invert.calls"] / queries if queries else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def write(self, path: str, header: dict) -> None:
        """Spans as JSON lines: a header, then [name, start, end, parent] per span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "span_names": self.span_names}) + "\n")
            for i in range(len(self.names)):
                fh.write(json.dumps([
                    self.names[i],
                    round(self.starts[i] - origin, 9),
                    round(self.ends[i] - origin, 9),
                    self.parents[i],
                ]) + "\n")
