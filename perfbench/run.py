"""Benchmark of the priordp evaluators, run from the root of a source checkout.

    python3 perfbench/run.py --workload table_chain --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Each workload runs its fixed job list of `priordp` commands in-process through
`priordp.cli.main(argv)`, on inputs generated from --seed, for --seconds
seconds (at least one pass), and checks every output. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with --trace 1 they are the per-layer ones from tracing.py,
measured on traced passes that alternate with untraced ones.

Exit code 0 means a result was printed; 2 means priordp could not be imported
from <checkout>/src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
WORKLOADS = ("table_chain", "synthetic_sweep", "oracle_survey", "gaussian_enum")
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import priordp.cli; print(time.perf_counter() - t)")


def import_priordp() -> None:
    """Import priordp from this checkout only."""
    sys.path.insert(0, str(SRC))
    import priordp
    import workloads  # noqa: F401  (imports priordp's modules)

    if not Path(priordp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"priordp resolved to {priordp.__file__}, not under {SRC}")


def import_seconds() -> float:
    """Median time to import priordp in a fresh interpreter, as a user pays it."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment(extra: dict[str, str], loadavg: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    env = {k: os.environ.get(k) for k in ("PDP_THREADS", *BLAS_VARS)}
    env.update(extra)
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "env": env,
        "loadavg_at_start": list(loadavg),
    }


class Run:
    """One workload at one seed: set-up, timed passes and checks."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        import workloads

        self.wl = workloads
        self.name, self.seed, self.tiny = name, seed, tiny
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[str, dict] | None = None
        self.reference = None
        if seed == workloads.REFERENCE_SEED and not tiny and REFERENCE.exists():
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(name)
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.setup_obj = None
        self._saved_env = dict(os.environ)

    def setup(self) -> float:
        """Median seconds of input generation, writing and one warm-up job."""
        times = []
        for rep in range(SETUP_REPEATS):
            d = self.dir / f"setup{rep}"
            shutil.rmtree(d, ignore_errors=True)
            t0 = time.perf_counter()
            d.mkdir(parents=True)
            self.setup_obj = self.wl.MAKERS[self.name](self.seed, d, self.tiny)
            os.environ.update(self.setup_obj.env)
            codes = {job.id: self.wl.run_job(job) for job in self.setup_obj.warmup}
            times.append(time.perf_counter() - t0)
            self._record(self.setup_obj.warmup, codes, compare=False)
        return statistics.median(times)

    def one_pass(self) -> tuple[float, float, dict[str, dict]]:
        """Run the job list once; (wall s, cpu s, outputs). Checks run after timing."""
        jobs = self.setup_obj.jobs
        codes = {}
        c0, t0 = time.process_time(), time.perf_counter()
        for job in jobs:
            codes[job.id] = self.wl.run_job(job)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return wall, cpu, self._record(jobs, codes, compare=True)

    def _record(self, jobs, codes, compare: bool) -> dict[str, dict]:
        outputs, errs = {}, {}
        for job in jobs:
            self.attempted += 1
            code, err = codes[job.id]
            if code is None:
                errs[job.id] = [f"raised {err}"]
                continue
            try:
                outputs[job.id] = self.wl.read_output(job, code)
            except (OSError, ValueError, KeyError) as exc:
                errs[job.id] = [f"exit {code}, unreadable output: {exc} {err}"]
        for jid, e in self.wl.check_pass(jobs, outputs).items():
            errs.setdefault(jid, []).extend(e)
        if compare:
            for job in jobs:
                if job.id not in outputs:
                    continue
                if self.reference is not None:
                    errs.setdefault(job.id, []).extend(self.wl.check_reference(
                        job, outputs[job.id], self.reference[job.id]))
                if self.first is not None and outputs[job.id] != self.first.get(job.id):
                    errs.setdefault(job.id, []).append("output differs from the first pass")
            if self.first is None:
                self.first = outputs
        for jid, e in errs.items():
            if e:
                self.failures.append(f"{jid}: {'; '.join(e)}")
        return outputs

    def close(self) -> None:
        """Restore the environment the set-up changed and delete the inputs."""
        os.environ.clear()
        os.environ.update(self._saved_env)
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result object (plus env and notes)."""
    import tracing

    loadavg = os.getloadavg()
    run = Run(name, seed, tiny)
    try:
        setup_s = run.setup() + (0.0 if trace else import_seconds())
        walls, cpus, traced_walls, layer = [], [], [], []
        tracer = tracing.Tracer() if trace else None
        t_end = time.perf_counter() + seconds
        # start another pass only if it is likely to end near the deadline
        while (not walls or (trace and not traced_walls)
               or time.perf_counter() + 0.5 * statistics.median(walls) < t_end):
            if trace and len(traced_walls) < len(walls):
                tracer.spans.clear()
                tracer.wrap()
                try:
                    wall, _, outputs = run.one_pass()
                finally:
                    tracer.unwrap()
                traced_walls.append(wall)
                m = tracing.layer_metrics(tracer.spans)
                m["oracle.undershoot_nodes"] = sum(
                    not r[4] for o in outputs.values() for r in o.get("rows", []))
                layer.append(m)
            else:
                wall, cpu, _ = run.one_pass()
                walls.append(wall)
                cpus.append(cpu)
        if trace:
            metrics = {}
            for key, (unit, _, _) in tracing.LAYER_METRICS.items():
                if key in tracing.EXACT_COUNTS:
                    vals = {m[key] for m in layer if key in m}
                    if len(vals) > 1:
                        run.failures.append(f"{key} differs between traced passes: {vals}")
                    value = layer[0].get(key, 0)
                elif key == "process.cpu_s":
                    value = statistics.median(cpus)
                elif key == "trace.overhead_frac":
                    value = statistics.median(traced_walls) / statistics.median(walls) - 1.0
                else:
                    value = statistics.median(m[key] for m in layer)
                metrics[key] = {"value": value, "unit": unit}
            notes = tracer.notes
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            notes = []
        env = environment(run.setup_obj.env, loadavg)
    finally:
        run.close()
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
        "walls": walls + traced_walls,
        "failures": run.failures,
        "notes": notes,
        "env": env,
    }


def _print_metrics(name: str, res: dict) -> None:
    for key, m in res["metrics"].items():
        print(f"{name:16} {key:40} {m['value']:.6g} {m['unit']}")
    print(f"{name:16} {'error_rate':40} {res['failed'] / res['attempted']:.6g} ratio")


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
        rows.append((name, res))
    for name, res in rows:
        _print_metrics(name, res)
    print(json.dumps(total))
    return 0


def write_reference() -> int:
    """Store the outputs of one pass at the reference seed (run after a
    deliberate change of results only)."""
    import workloads

    ref = {}
    for name in WORKLOADS:
        run = Run(name, workloads.REFERENCE_SEED)
        run.reference = None
        try:
            run.setup()
            _, _, outputs = run.one_pass()
        finally:
            run.close()
        if run.failures:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        ref[name] = {jid: workloads.reference_entry(o) for jid, o in outputs.items()}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite reference.json from the reference seed and exit")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_reference:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    try:
        import_priordp()
    except ImportError as exc:
        print(f"error: cannot import priordp from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "env": res["env"], "walls": res["walls"],
                      "notes": res["notes"], "failures": res["failures"][:20]}))
    _print_metrics(args.workload, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
