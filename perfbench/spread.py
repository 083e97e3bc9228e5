"""Run the benchmark on seeds 1-10 and summarise each end-to-end metric.

    python3 perfbench/spread.py [--workload NAME ...] [--out FILE]

For every workload (all of them unless --workload names some) it makes ten
untraced runs, one per seed, each in its own process and of the
run_seconds that BENCHMARK.json sets. For each end-to-end metric it prints
the median, the quartiles from statistics.quantiles(values, n=4) and the
spread (q3 - q1) / median, next to the metric's bound. It then makes one
traced run at the reference seed. --out writes all of it as JSON, in the
schema of baseline.json, which holds the first such summary.
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
SEEDS = list(range(1, 11))
TRACE_SEED = 11


def run_once(command: list[str], name: str, seed: int, seconds: int, trace: int):
    """(environment block, result object) of one run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr, file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    if not res["correct"]:
        print(f"{name} seed {seed} trace {trace}: incorrect output\n{proc.stdout}",
              file=sys.stderr)
    return json.loads(lines[0])["env"], res


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {
        "about": (f"end_to_end: one untraced run per seed and workload with median, quartiles "
                  f"and spread (q3-q1)/median of each metric. per_layer_seed{TRACE_SEED}: "
                  f"the metrics of one traced run per workload at seed {TRACE_SEED}."),
        "run_seconds": seconds, "seeds": SEEDS, "env": None,
        "end_to_end": {}, f"per_layer_seed{TRACE_SEED}": {},
    }
    ok = True
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            out = run_once(bench["command"], name, seed, seconds, 0)
            if out is None:
                return 1
            env, res = out
            ok &= res["correct"]
            summary["env"] = summary["env"] or env
            for key, m in res["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        summary["end_to_end"][name] = {}
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary["end_to_end"][name][key] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{name:16} {key:12} median {med:10.5g} q1 {q1:10.5g} q3 {q3:10.5g} "
                  f"spread {spread:7.4f} bound {bounds[key]}", flush=True)
        out = run_once(bench["command"], name, TRACE_SEED, seconds, 1)
        if out is None:
            return 1
        ok &= out[1]["correct"]
        summary[f"per_layer_seed{TRACE_SEED}"][name] = out[1]["metrics"]
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
