"""Timed execution of benchmark ops, with optional span tracing.

An op is a list of steps, each one call into a public tensorperm function.
Untraced, only the op as a whole is timed. Traced, every step becomes a span
(id, name, start, end, parent, op id, size) kept in memory and written out
when the run ends; per-layer metrics are derived from those spans.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

MODULES = ("index_algebra", "perm_matrix", "matrix_core", "gellmann", "formats", "cli")


@dataclass
class Step:
    """One call into the package. ``fn`` receives the op's context dict and
    its result is stored there under ``key``. ``size`` (elements or bytes the
    call handles) is an int or a function of the context, evaluated after the
    call, outside the timed region."""

    name: str
    fn: Callable[[dict], object]
    key: str = ""
    size: int | Callable[[dict], int] = 0


@dataclass
class Op:
    """One benchmark operation.

    ``steps`` is the op as a user would call it; ``parts`` is the same work
    split into the public calls it is made of, run when traced (defaults to
    ``steps``). ``check`` returns True when the result matches the
    benchmark's own expectation. ``replays``, called only when traced, gives
    extra (root name, steps) calls that attribute time to layers the op
    reaches out of sight, such as inside a subprocess; they are not part of
    the op's time.
    """

    kind: str
    steps: list[Step]
    check: Callable[[dict], bool]
    parts: list[Step] | None = None
    replays: Callable[[], list[tuple[str, list[Step]]]] | None = None
    spec_key: tuple | None = None
    expected_exit: int | None = None


def run_steps(steps: list[Step], ctx: dict) -> None:
    for s in steps:
        ctx[s.key or s.name] = s.fn(ctx)


class Tracer:
    """In-memory span recorder. A span is
    (span id, name, start ns, end ns, parent id or -1, op id, size)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int, int]] = []
        self._next = 0

    def run(self, root: str, op_id: int, steps: list[Step], ctx: dict) -> None:
        """``run_steps`` under a root span, with one child span per step."""
        rid = self._next
        self._next += 1
        children = []
        t0 = perf_counter_ns()
        try:
            for s in steps:
                a = perf_counter_ns()
                ctx[s.key or s.name] = s.fn(ctx)
                children.append((s, a, perf_counter_ns()))
        finally:
            self.spans.append((rid, root, t0, perf_counter_ns(), -1, op_id, 0))
            for s, a, b in children:
                size = s.size(ctx) if callable(s.size) else s.size
                self.spans.append((self._next, s.name, a, b, rid, op_id, size))
                self._next += 1

    def write(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "size")
        with open(path, "w", encoding="ascii") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def module_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in MODULES else "bench"


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the time its children cover.
    Children of one parent run one after another, so they never overlap."""
    covered: dict[int, int] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0) for sid, _, start, end, _, _, _ in spans}


def _stats(spans) -> dict[str, list[tuple[int, int]]]:
    by_name: dict[str, list[tuple[int, int]]] = {}
    for _, name, start, end, parent, _, size in spans:
        if parent >= 0:
            by_name.setdefault(name, []).append((end - start, size))
    return by_name


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _p50(scale_ns: float, *names):
    return lambda st: _median(d for n in names for d, _ in st.get(n, ())) / scale_ns


def _calls(name):
    return lambda st: float(len(st.get(name, ())))


def _per_unit(name):
    return lambda st: _median(d / s for d, s in st.get(name, ()) if s > 0)


def _bytes(prefix):
    return lambda st: float(sum(s for n, calls in st.items() if n.startswith(prefix) for _, s in calls))


_PERM_CALLS = ("build_delta", "build_elementary_sum", "build_stride_rule", "closure_check",
               "classify_tcm", "commutation_conjugation_check", "is_permutation_matrix")
_FORMATS = ("write_perm", "parse_perm", "write_matrix_market", "parse_matrix_market",
            "write_decomposition")
_CLI_COMMANDS = ("gen", "apply", "verify", "classify", "decompose")
# gen perm (N = 10800) costs about four times gen mm (N = 360) in process,
# so their replays are reported apart.
_CLI_MAIN = ("gen.perm", "gen.mm", "apply", "verify", "classify", "decompose")

# (metric, unit, function of the per-name span statistics); the metrics that
# need whole-run counts are added in layer_metrics. BENCHMARK.json records
# which way each one is better.
SPAN_METRICS = [
    ("index_algebra.induced_index_perm.cold.p50_ms", "ms",
     _p50(1e6, "index_algebra.induced_index_perm.cold")),
    ("index_algebra.induced_index_perm.cold.calls", "count",
     _calls("index_algebra.induced_index_perm.cold")),
    ("index_algebra.induced_index_perm.cold.ns_per_elem", "ns/elem",
     _per_unit("index_algebra.induced_index_perm.cold")),
    ("index_algebra.induced_index_perm.warm.p50_us", "us",
     _p50(1e3, "index_algebra.induced_index_perm.warm")),
    ("index_algebra.induced_index_perm.warm.calls", "count",
     _calls("index_algebra.induced_index_perm.warm")),
    ("index_algebra.IndexPerm.apply.ndarray.ns_per_elem", "ns/elem",
     _per_unit("index_algebra.IndexPerm.apply.ndarray")),
    ("index_algebra.IndexPerm.apply.list.ns_per_elem", "ns/elem",
     _per_unit("index_algebra.IndexPerm.apply.list")),
    ("index_algebra.IndexPerm.init.ns_per_elem", "ns/elem",
     _per_unit("index_algebra.IndexPerm.init")),
    ("perm_matrix.TensorPermSpec.p50_us", "us", _p50(1e3, "perm_matrix.TensorPermSpec")),
    *[m for call in _PERM_CALLS for m in (
        (f"perm_matrix.{call}.p50_ms", "ms", _p50(1e6, f"perm_matrix.{call}")),
        (f"perm_matrix.{call}.calls", "count", _calls(f"perm_matrix.{call}")))],
    ("matrix_core.kron.p50_us", "us", _p50(1e3, "matrix_core.kron")),
    ("gellmann.generalized_gellmann.p50_ms", "ms", _p50(1e6, "gellmann.generalized_gellmann")),
    ("gellmann.decompose_swap.p50_ms", "ms", _p50(1e6, "gellmann.decompose_swap")),
    *[(f"formats.{call}.ns_per_byte", "ns/B", _per_unit(f"formats.{call}")) for call in _FORMATS],
    ("formats.bytes_written", "B", _bytes("formats.write_")),
    ("formats.bytes_parsed", "B", _bytes("formats.parse_")),
    ("cli.startup.p50_ms", "ms", _p50(1e6, "cli.startup")),
    ("cli.subprocess.p50_ms", "ms", _p50(1e6, *(f"cli.subprocess.{c}" for c in _CLI_COMMANDS))),
    *[(f"cli.main.{c}.p50_ms", "ms", _p50(1e6, f"cli.main.{c}")) for c in _CLI_MAIN],
]


def layer_metrics(spans, repeat_share: float, exit_mismatch: int, overhead_pct: float) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    st = _stats(spans)
    out = {name: (fn(st), unit) for name, unit, fn in SPAN_METRICS}
    selfs = self_times(spans)
    total = sum(end - start for _, _, start, end, parent, _, _ in spans if parent < 0) or 1
    share = dict.fromkeys((*MODULES, "bench"), 0)
    for sid, name, *_ in spans:
        share[module_of(name)] += selfs[sid]
    out["index_algebra.repeat_share"] = (repeat_share, "ratio")
    out["cli.exit_code_mismatch"] = (float(exit_mismatch), "count")
    for m in MODULES:
        out[f"layer.{m}.self_share"] = (share[m] / total, "ratio")
    out["trace.glue_share"] = (share["bench"] / total, "ratio")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["trace.spans"] = (float(len(spans)), "count")
    return out
