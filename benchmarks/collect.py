"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

For every workload it runs ``run.py`` once per seed, one run at a time, with
the ``run_seconds`` of BENCHMARK.json, and reports per metric the median, the
quartiles and the spread (interquartile range over median). With ``--trace 0``
it marks each end-to-end spread that is not below a third of the metric's
bound. ``--out`` writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                  capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            detail = next((json.loads(ln[7:]) for ln in lines if ln.startswith("detail ")), {})
            result = json.loads(lines[-1])
            result["detail"] = detail
            runs.append(result)
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']}",
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
            flag = ""
            if name in bounds and spread >= bounds[name] / 3:
                flag = f"  <-- spread above bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {name:52s} median {med:12.6g}  spread {spread:7.4f}{flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
