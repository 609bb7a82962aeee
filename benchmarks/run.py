"""Benchmark of the tensorperm package, one workload per run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else. A run sets up (imports, inputs, warm-up), then
runs one client in a closed loop for ``--seconds`` (the implicit-cold
stream is fixed-length and paced over the run), checking every op against
the benchmark's own expectation. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it give each metric by name and a ``detail`` JSON line with the
environment, the tail percentile and its sample count, and any failures.
Traced runs also write their spans to ``.bench_run/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is first imported, here and in every
# child process: one client and no extra threads on a 2-core machine.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
# setup_s is the median of this many set-ups: the run's own and the rest in
# fresh processes, spread evenly over the measured loop. A single set-up
# swings by 1.5x with the host's speed, which drifts over seconds on a shared
# host, so set-ups taken back to back all land in one such stretch.
SETUP_RUNS = 6
# A fixed-length stream starts op i no earlier than i / length * PACE of the
# way through the run, so it samples the machine's speed, which drifts over
# seconds on a shared host, across the run as a timed workload does. The
# rest of the run leaves room for the last op and for a slow stretch.
PACE = 0.9
# Stops at p99: a ladder step that a run crosses as its op count varies
# (p99.9 needs about 10^4 ops) makes the tail jump between runs.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99)
TAIL_MIN_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print {\"setup_s\": ...} and exit (used for the set-up samples)")
    return p.parse_args(argv)


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    above it (the median when there are too few samples for any)."""
    q = 0.5
    for cand in TAIL_LADDER:
        if sum(1 for v in sorted_values if v > percentile(sorted_values, cand)) >= TAIL_MIN_BEYOND:
            q = cand
    value = percentile(sorted_values, q)
    return value, q, sum(1 for v in sorted_values if v > value)


def measure(wl, seconds: float, tracer, setup_sample=None):
    """Closed loop, one client: the next op starts when the last one is
    checked. Traced runs trace every other op, so the untraced ones in
    between give the tracing overhead. With ``setup_sample``, the loop stops
    SETUP_RUNS - 1 times at evenly spaced points to call it, one call at a
    time, and its clock stops meanwhile."""
    from tracing import run_steps

    ops = []  # (kind, latency ns, traced)
    failed = exit_mismatch = repeats = with_spec = 0
    errors = []
    seen = set(wl.setup_keys)
    inputs = hashlib.sha256()
    start = time.perf_counter()
    deadline = start + seconds
    stops = SETUP_RUNS - 1 if setup_sample else 0
    due = [start + seconds * (k + 0.5) / stops for k in range(stops)]
    samples = []
    for i, op in enumerate(wl.ops()):
        if due and time.perf_counter() >= due[0]:
            t = time.perf_counter()
            samples.append(setup_sample())
            pause = time.perf_counter() - t
            start, deadline = start + pause, deadline + pause
            due = [d + pause for d in due[1:]]
        if i and time.perf_counter() >= deadline:
            break
        if wl.length:
            time.sleep(max(0.0, start + i / wl.length * PACE * seconds - time.perf_counter()))
        traced = tracer is not None and i % 2 == 1
        ctx: dict = {}
        err = None
        t0 = time.perf_counter_ns()
        try:
            if traced:
                tracer.run(f"op.{op.kind}", i, op.parts or op.steps, ctx)
            else:
                run_steps(op.steps, ctx)
        except Exception as exc:  # counted as a failed op, the run goes on
            err = exc
        dt = time.perf_counter_ns() - t0
        ok = False
        if err is None:
            try:
                ok = bool(op.check(ctx))
            except Exception as exc:
                err = exc
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {i} {op.kind}: "
                              + (f"{type(err).__name__}: {err}" if err else "wrong result"))
        proc = ctx.get("proc")
        if op.expected_exit is not None and (proc is None or proc.returncode != op.expected_exit):
            exit_mismatch += 1
        if op.spec_key is not None:
            with_spec += 1
            repeats += op.spec_key in seen
            seen.add(op.spec_key)
        ops.append((op.kind, dt, traced))
        inputs.update(repr((op.kind, op.spec_key)).encode())
        if traced and op.replays is not None:
            for root, steps in op.replays():
                try:
                    tracer.run(root, i, steps, {})
                except Exception as exc:
                    if len(errors) < 5:
                        errors.append(f"op {i} {root}: {type(exc).__name__}: {exc}")
    samples += [setup_sample() for _ in due]  # a fixed stream may end early
    return {
        "ops": ops,
        "setup_samples": samples,
        "failed": failed,
        "exit_mismatch": exit_mismatch,
        "repeat_share": repeats / with_spec if with_spec else 0.0,
        "errors": errors,
        "wall_s": time.perf_counter() - start,
        "inputs_sha256": inputs.hexdigest(),
    }


def overhead_pct(ops) -> float:
    """Median over op kinds of (traced p50 / untraced p50 - 1), in percent."""
    by_kind: dict = {}
    for kind, dt, traced in ops:
        by_kind.setdefault(kind, ([], []))[traced].append(dt)
    ratios = sorted(percentile(sorted(t), 0.5) / percentile(sorted(u), 0.5)
                    for u, t in by_kind.values() if u and t)
    return 100 * (percentile(ratios, 0.5) - 1) if ratios else 0.0


def setup_sample(args) -> float:
    """One set-up of the same workload and seed in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(argv + (["--tiny"] if args.tiny else []), capture_output=True,
                          text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None outside
    a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "tensorperm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas = None
    return {
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    t_setup = time.perf_counter()
    if not (SRC / "tensorperm" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'tensorperm'} not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import tensorperm

    if Path(tensorperm.__file__).resolve().parent != (SRC / "tensorperm").resolve():
        print(f"error: tensorperm imported from {tensorperm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = cls(args.seed, args.tiny, str(ROOT), str(work))
        wl.setup()
        setup_s = time.perf_counter() - t_setup
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = tracing.Tracer() if args.trace else None
        res = measure(wl, args.seconds, tracer, None if args.trace else lambda: setup_sample(args))
        peak_rss_mb = wl.peak_rss_kib() / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = res["ops"]
    attempted, failed = len(ops), res["failed"]
    lat_ms = sorted(dt / 1e6 for _, dt, _ in ops)
    by_kind: dict = {}
    for kind, dt, _ in ops:
        by_kind.setdefault(kind, []).append(dt / 1e6)
    tail_ms, tail_q, beyond = tail(lat_ms)
    detail = {
        "workload": args.workload,
        "env": environment(args.seed),
        "measured_wall_s": res["wall_s"],
        "inputs_sha256": res["inputs_sha256"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "op_tail_ms": {"percentile": 100 * tail_q, "samples": attempted, "beyond": beyond},
        "ops_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "p50_ms_by_kind": {k: percentile(sorted(v), 0.5) for k, v in sorted(by_kind.items())},
        "errors": res["errors"],
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, res["repeat_share"], res["exit_mismatch"],
                                        overhead_pct(ops))
        trace_path = RUN_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        samples = [setup_s, *res["setup_samples"]]
        detail["setup_samples_s"] = samples
        values = {
            "setup_s": percentile(sorted(samples), 0.5),
            "ops_per_s": attempted / (sum(dt for _, dt, _ in ops) / 1e9),
            "op_p50_ms": percentile(lat_ms, 0.5),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": peak_rss_mb,
            "success_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
