"""The benchmark's four workloads: seeded inputs, the fixed job list each one
runs through `priordp.cli.main(argv)`, and the checks on every output.

Why each workload is there:

- table_chain: the distribution edge source (whg -> marginal + scipy
  logsumexp) dominates; full and fast chain searches on correlated binary
  tables plus one ternary table under a signed query, which runs the
  axis-flip path of transform_linear_query.
- synthetic_sweep: the experiment command over hash-keyed synthetic edges;
  EdgeMap.values dominates, and its thread pool is the only parallel path.
- oracle_survey: oracle-check on small skewed tables; the brute-force
  oracle dominates and the same whg search runs many times at small n, so
  per-search set-up cost shows here. Exit 4 (chain below oracle) is a
  legitimate outcome that stays in the corpus whenever the seed draws it.
- gaussian_enum: the only workload for model_gaussian (all-adversary
  enumeration) and for the numeric Gaussian oracle.

Instance shapes (n, domain sizes) are fixed per workload so every seed asks
for the same amount of work; the seed draws the probabilities, widths,
correlations and covariances. Instances are never picked by outcome.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from priordp import cli
from priordp.model_discrete import distribution_to_json
from priordp.synth import gen_discrete_corr

REFERENCE_SEED = 11
LEAK_TOL = 1e-9  # reference leakages and the oracle's own pass tolerance
FAST_TOL = 1e-12  # fast >= full - FAST_TOL on the same table
GAUSS_TOL = 1e-3  # closed form vs numeric oracle
CSV_HEADER = ["averCorr", "layer", "mean_leakage", "var_leakage", "algorithm", "seed_count"]


@dataclass
class Job:
    id: str
    argv: list[str]
    kind: str  # "report", "oracle" or "experiment"
    out: Path
    info: dict = field(default_factory=dict)


@dataclass
class Setup:
    jobs: list[Job]
    warmup: list[Job]
    env: dict[str, str] = field(default_factory=dict)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _widths_layer1(domains, coeffs=None) -> float:
    coeffs = coeffs if coeffs is not None else [1.0] * len(domains)
    return max(abs(a) * (max(d) - min(d)) for a, d in zip(coeffs, domains))


def _table_job(jid, table, path, mode, workdir, info, query=None):
    out = workdir / f"{jid.replace('/', '_')}.out.json"
    argv = ["analyze-discrete", path, "--mode", mode, "--out", str(out)]
    if query is not None:
        argv.append(f"--query={query}")  # the = form: the value may start with "-"
    return Job(jid, argv, "report", out, {"table": table, "mode": mode, **info})


def table_chain(seed: int, workdir: Path, tiny: bool = False) -> Setup:
    rng = np.random.default_rng([seed, 1])
    n = 4 if tiny else 7
    jobs = []
    for corr in (0.2, 0.5, 0.8):
        dist = gen_discrete_corr(n, corr, 2, seed=int(rng.integers(2**31)))
        table = f"bin{corr}"
        path = _write(workdir / f"{table}.json", distribution_to_json(dist))
        info = {"n": n, "layer1": _widths_layer1(dist.domains)}
        for mode in ("full", "fast"):
            jobs.append(_table_job(f"{mode}/{table}", table, path, mode, workdir, info))
    m = 3 if tiny else 6
    dist = gen_discrete_corr(m, 0.5, 3, seed=int(rng.integers(2**31)))
    coeffs = rng.choice([0.5, 1.0, 1.5, 2.0], m) * rng.choice([-1.0, 1.0], m)
    coeffs[0] = -abs(coeffs[0])  # at least one flipped axis
    query = ",".join(f"{c:g}" for c in coeffs)
    path = _write(workdir / "ternary.json", distribution_to_json(dist))
    info = {"n": m, "layer1": _widths_layer1(dist.domains, coeffs)}
    for mode in ("full", "fast"):
        jobs.append(_table_job(f"{mode}/ternary", "ternary", path, mode, workdir, info, query))
    return Setup(jobs, [_warmup(jobs[-1])])


def synthetic_sweep(seed: int, workdir: Path, tiny: bool = False) -> Setup:
    rng = np.random.default_rng([seed, 2])
    n = 6 if tiny else 14
    corrs = ["0.2", "0.5", "0.8"]
    # the seed draws the edge unit GS/lambda; the Beta quantile's cost depends
    # on averCorr, not on the scale, so every seed asks for the same work
    scale = f"{rng.uniform(0.5, 2.0):.6f}"

    def job(jid, n, corrs, seeds):
        out = workdir / f"{jid}.csv"
        argv = ["experiment", "--kind", "discrete", "--n", str(n), "--averCorr",
                ",".join(corrs), "--seeds", str(seeds), "--scale", scale, "--out", str(out)]
        return Job(jid, argv, "experiment", out,
                   {"n": n, "corrs": corrs, "seeds": seeds, "scale": float(scale)})

    threads = str(len(os.sched_getaffinity(0)))
    return Setup(
        [job("sweep", n, corrs, 2)],
        [job("warmup_sweep", max(3, n - 4), corrs[:1], 1)],
        {"PDP_THREADS": threads},
    )


# domain sizes per instance; fixed so the oracle's work does not depend on the seed
SURVEY_SHAPES = [(3, 2, 3), (2, 3, 2, 2), (3, 2, 2, 3), (2, 2, 3, 2, 2), (2, 3, 2, 2, 3),
                 (2, 2, 2, 3, 2, 2)]
SURVEY_SHAPES_TINY = [(2, 3), (3, 2, 2), (2, 2, 3)]


def oracle_survey(seed: int, workdir: Path, tiny: bool = False) -> Setup:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for k, shape in enumerate(SURVEY_SHAPES_TINY if tiny else SURVEY_SHAPES):
        domains = []
        for s in shape:
            w = rng.uniform(0.1, 1.5)
            inner = np.sort(rng.uniform(0.2, 0.8, s - 2)) * w
            domains.append([0.0, *inner.tolist(), w])
        cells = int(np.prod(shape))
        probs = 0.85 * rng.dirichlet(np.full(cells, 0.5)) + 0.15 / cells
        path = _write(workdir / f"survey{k}.json", {"domains": domains, "probs": probs.tolist()})
        out = workdir / f"survey{k}.out.json"
        jobs.append(Job(f"oracle/survey{k}", ["oracle-check", path, "--out", str(out)],
                        "oracle", out, {"n": len(shape), "domains": domains}))
    return Setup(jobs, [_warmup(jobs[0])])


def _gauss_model(rng, n: int) -> dict:
    a = rng.normal(size=(n, n))
    sigma = a @ a.T / n + 0.5 * np.eye(n)
    return {"mu": rng.normal(size=n).tolist(), "sigma": sigma.tolist(), "M": 1.0, "lambda": 1.0}


def gaussian_enum(seed: int, workdir: Path, tiny: bool = False) -> Setup:
    rng = np.random.default_rng([seed, 4])
    n_all, n_oracle = (5, 4) if tiny else (11, 7)
    p_all = _write(workdir / "gauss_all.json", _gauss_model(rng, n_all))
    p_oracle = _write(workdir / "gauss_oracle.json", _gauss_model(rng, n_oracle))
    out_all = workdir / "gauss_all.out.json"
    out_oracle = workdir / "gauss_oracle.out.json"
    jobs = [
        Job("enumerate/gauss_all", ["analyze-gaussian", p_all, "--all", "--out", str(out_all)],
            "report", out_all, {"n": n_all, "layer1": 1.0}),
        Job("oracle/gauss", ["oracle-check", p_oracle, "--out", str(out_oracle)],
            "oracle", out_oracle, {"n": n_oracle, "gaussian": True}),
    ]
    out_warm = workdir / "warmup_gauss.out.json"
    warm = Job("warmup/gauss", ["analyze-gaussian", p_oracle, "--all", "--out", str(out_warm)],
               "report", out_warm, {"n": n_oracle, "layer1": 1.0})
    return Setup(jobs, [warm])


def _warmup(job: Job) -> Job:
    out = job.out.with_name("warmup_" + job.out.name)
    argv = [str(out) if a == str(job.out) else a for a in job.argv]
    return Job("warmup/" + job.id, argv, job.kind, out, job.info)


MAKERS = {
    "table_chain": table_chain,
    "synthetic_sweep": synthetic_sweep,
    "oracle_survey": oracle_survey,
    "gaussian_enum": gaussian_enum,
}


def run_job(job: Job) -> tuple[int | None, str]:
    """Run one command in-process; (exit code or None if it raised, stderr)."""
    if job.out.exists():
        job.out.unlink()
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed run
            return None, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue().strip()


def read_output(job: Job, code: int) -> dict:
    """The parts of a job's output that checks and references compare."""
    if job.kind == "experiment":
        data = job.out.read_bytes()
        return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(),
                "csv": data.decode("utf-8")}
    obj = json.loads(job.out.read_text(encoding="utf-8"))
    if job.kind == "report":
        return {"exit": code, "leakage": obj["leakage"], "layer_max": obj["layer_max"],
                "node_count": obj["node_count"], "argmax": obj["argmax"]}
    value = "closed_form" if job.info.get("gaussian") else "chain"
    rows = [[r["i"], r["K"], r[value], r["oracle"], r["pass"]] for r in obj["rows"]]
    return {"exit": code, "rows": rows}


def _close(a, b, tol=LEAK_TOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def check_job(job: Job, out: dict) -> list[str]:
    """Invariants that hold for every seed."""
    n = job.info["n"]
    nodes = n * 2 ** (n - 1)
    errs = []
    if job.kind == "report":
        if out["exit"] != 0:
            errs.append(f"exit {out['exit']}")
        layer_max = out["layer_max"]
        if out["leakage"] != max(layer_max.values()):
            errs.append("leakage is not the largest layer maximum")
        if not _close(layer_max.get("1"), job.info["layer1"]):
            errs.append(f"layer 1 max {layer_max.get('1')} != {job.info['layer1']}")
        if job.info.get("mode", "full") == "full" and out["node_count"] != nodes:
            errs.append(f"node_count {out['node_count']} != n*2^(n-1) = {nodes}")
        if out["node_count"] > nodes:
            errs.append(f"node_count {out['node_count']} above {nodes}")
    elif job.kind == "oracle":
        rows = out["rows"]
        if len(rows) != nodes:
            errs.append(f"{len(rows)} rows for {nodes} adversaries")
        if job.info.get("gaussian"):
            bad = [r for r in rows if not abs(r[2] - r[3]) <= GAUSS_TOL]
            if bad:
                errs.append(f"{len(bad)} closed forms off the numeric oracle by > {GAUSS_TOL}")
            if out["exit"] != 0:
                errs.append(f"exit {out['exit']}")
        else:
            widths = [max(d) - min(d) for d in job.info["domains"]]
            for i, K, chain, oracle, ok in rows:
                if ok != (chain is not None and oracle <= chain + LEAK_TOL):
                    errs.append(f"row ({i}, {K}) pass flag disagrees with its values")
                if len(K) == n - 1 and not (_close(chain, oracle) and _close(oracle, widths[i])):
                    errs.append(f"strongest adversary ({i}, {K}) is not width/lambda")
            want = 0 if all(r[4] for r in rows) else 4
            if out["exit"] != want:
                errs.append(f"exit {out['exit']}, rows imply {want}")
    else:
        errs += _check_csv(job, out)
    return errs


def _check_csv(job: Job, out: dict) -> list[str]:
    if out["exit"] != 0:
        return [f"exit {out['exit']}"]
    rows = list(csv.reader(io.StringIO(out["csv"])))
    if rows[:1] != [CSV_HEADER]:
        return ["bad CSV header"]
    body = rows[1:]
    n, corrs, seeds = job.info["n"], job.info["corrs"], job.info["seeds"]
    errs = []
    if len(body) != len(corrs) * 2 * n:
        errs.append(f"{len(body)} CSV rows, want {len(corrs) * 2 * n}")
    keys = [(float(r[0]), r[4], int(r[1])) for r in body]
    if keys != sorted(keys):
        errs.append("CSV rows not sorted")
    if {r[0] for r in body} != {str(float(c)) for c in corrs}:
        errs.append("CSV averCorr values differ from the request")
    for r in body:
        if int(r[5]) != seeds:
            errs.append(f"seed_count {r[5]} != {seeds}")
            break
        if r[1] == "1" and (float(r[2]) != job.info["scale"] or float(r[3]) != 0.0):
            errs.append("layer 1 is not the first-layer scale")
            break
    return errs


def check_pass(jobs: list[Job], outputs: dict[str, dict]) -> dict[str, list[str]]:
    """Per-job invariants plus fast >= full on the same table."""
    errs = {job.id: check_job(job, outputs[job.id]) for job in jobs if job.id in outputs}
    full = {j.info["table"]: outputs[j.id] for j in jobs
            if j.info.get("mode") == "full" and j.id in outputs}
    for job in jobs:
        if job.info.get("mode") == "fast" and job.id in outputs and job.info["table"] in full:
            f, g = outputs[job.id]["leakage"], full[job.info["table"]]["leakage"]
            if not f >= g - FAST_TOL:
                errs[job.id].append(f"fast {f} below full {g}")
    return errs


def check_reference(job: Job, out: dict, ref: dict) -> list[str]:
    """Compare with the stored reference output of the same job."""
    if job.kind == "experiment":
        return [] if out["sha256"] == ref["sha256"] else ["CSV digest differs from reference"]
    errs = [] if out["exit"] == ref["exit"] else [f"exit {out['exit']}, reference {ref['exit']}"]
    if job.kind == "report":
        if out["node_count"] != ref["node_count"]:
            errs.append("node_count differs from reference")
        if not _close(out["leakage"], ref["leakage"]):
            errs.append(f"leakage {out['leakage']} vs reference {ref['leakage']}")
        if out["layer_max"].keys() != ref["layer_max"].keys() or not all(
            _close(v, ref["layer_max"][k]) for k, v in out["layer_max"].items()
        ):
            errs.append("layer_max differs from reference")
    else:
        same = len(out["rows"]) == len(ref["rows"]) and all(
            a[:2] == b[:2] and a[4] == b[4] and _close(a[2], b[2]) and _close(a[3], b[3])
            for a, b in zip(out["rows"], ref["rows"])
        )
        if not same:
            errs.append("oracle-check rows differ from reference")
    return errs


def reference_entry(out: dict) -> dict:
    return {k: v for k, v in out.items() if k != "csv"}
