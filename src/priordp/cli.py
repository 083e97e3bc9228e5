"""Command-line front end: ingest models, run analyses and experiment
sweeps, and emit machine-readable reports.

Formats are JSON in, JSON or CSV out. Exit codes: 0 success, 2 input
validation failure, 3 resource cap exceeded, 4 numerical failure (including
a failed oracle cross-check). Reports embed the full invocation; the
experiment CSV keeps the fixed header
`averCorr,layer,mean_leakage,var_leakage,algorithm,seed_count` with rows
sorted deterministically. Its --scale is the unit of both sweep kinds:
GS/lambda of the synthetic chain (the edge unit and every strongest
adversary's leakage) for the discrete kind, and M/lambda for the Gaussian
kind, whose leakage (M/lambda) |1 + mu0i| depends on that ratio alone.

`calibrate` bisects a table's largest leakage over the bracket
[GS/(10 eps), 10 n GS/eps], which provably holds the answer for every
evaluator, so neither end is checked and the lower one is never evaluated.
At the lower end the leakage is at least 10 eps: each evaluator reads
LS_i/lambda for adversary (i, all other tuples), whose output density is
the bare Laplace kernel, and GS is the largest LS_i. At the upper end it is
at most eps/10: no adversary leaks more than sum_i LS_i/lambda <=
n GS/lambda. A chain increment for forgetting x_j is the log-ratio of two
e^{-+x_j/lambda}-weighted means over one range of x_j, so at most
LS_j/lambda, and a node adds at most one per tuple; the exact leakage obeys
the same group bound. A Gaussian model has no bracket: its leakage is
(M/lambda) v exactly, with v = max |1 + mu0i| >= 1 from one enumeration.
The table evaluators refuse a lambda below the table's noise floor
(model_discrete._noise_floor), so the bisection never evaluates one, and
an epsilon whose answer lies at or below the floor, or whose bracket end
or Gaussian lambda overflows, exits 2 naming --epsilon.

One thread pool, capped by the env var PDP_THREADS and otherwise one thread
per usable CPU, runs the `experiment` cells and the Gaussian `oracle-check`
rows. On the n=14 discrete sweep of six cells two threads took 0.93-1.07 s
against 1.39-1.61 s on one (2-core x86): the search kernel spends its time
in long numpy calls, which release the GIL. Discrete `oracle-check` stays
serial: its oracle batches ran slower on two threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import InfeasibleCorrelation, PrivacyModelError, SearchSpaceExceeded
from .model_discrete import (
    JointDistribution,
    QuerySpec,
    global_sensitivity,
    load_distribution,
    _noise_floor,
    transform_linear_query,
)
# mu0_expand is looked up on its module, where perfbench's tracing wraps it
from . import model_gaussian
from .model_gaussian import (
    ENUM_CAP,
    GaussianModel,
    leakage_gaussian,
    load_gaussian_model,
    max_leakage_gaussian,
)
from .oracle import _all_adversaries, pdp_exact_all, pdp_numeric_gaussian
from .synth import EdgeMap, gen_covariance
from .whg import FULL_CAP, fast_search, full_space_search, search_synthetic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4

# the brute-force oracle enumerates every adversary, assignment and kink
ORACLE_CAP = 8

# numeric options that must be finite, by argparse dest: positive ones, and
# ones for which 0 is valid too
_POSITIVE = {"lam": "--lambda", "epsilon": "--epsilon", "scale": "--scale",
             "beta_alpha": "--beta-alpha"}
_NON_NEGATIVE = {"tolerance": "--tolerance"}


def _read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_any(path: str):
    """Classify an input file as a discrete table or a Gaussian model."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "sigma" in data:
        return "gaussian", load_gaussian_model(data)
    if "probs" in data:
        return "discrete", load_distribution(data)
    raise ValueError(f'{path}: need either "probs" (discrete) or "sigma" (gaussian)')


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _query_for(dist: JointDistribution, text: str | None) -> QuerySpec:
    if text is None:
        return QuerySpec.sum_query(dist.n)
    q = QuerySpec.parse(text)
    if len(q.coefficients) != dist.n:
        raise ValueError(
            f"query has {len(q.coefficients)} coefficients for {dist.n} tuples"
        )
    return q


def _workers(n_cells: int) -> int:
    env = os.environ.get("PDP_THREADS", "")
    if env.strip():
        cap = int(env) if env.strip().isdecimal() else 0
        if cap < 1:
            raise ValueError(f"PDP_THREADS must be a positive integer, got {env!r}")
    elif hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, not all of the machine's
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_cells))


def _pool_map(fn, items: list) -> list:
    """[fn(x) for x in items], run on up to _workers(len(items)) threads.

    Results keep the input order. The first exception a call raises reaches
    the caller, and calls not yet started are cancelled.
    """
    with ThreadPoolExecutor(max_workers=_workers(len(items))) as pool:
        return list(pool.map(fn, items))


def cmd_analyze_discrete(args) -> int:
    dist = load_distribution(_read_json(args.dist_file))
    query = _query_for(dist, args.query)
    if args.mode == "full":
        _, report = full_space_search(dist, query, args.lam, force=args.force)
    else:
        _, report = fast_search(dist, query, args.lam)
    payload = report.to_json()
    payload["invocation"] = _invocation(args)
    _emit(payload, args.out)
    return EXIT_OK


def _parse_adversary(text: str, n: int) -> tuple[int, tuple[int, ...]]:
    parts = [int(t) for t in text.split(",") if t.strip() != ""]
    if not parts:
        raise ValueError("--adversary needs at least the attacked index")
    if len(set(parts)) < len(parts) or any(not 0 <= p < n for p in parts):
        raise ValueError(
            f"--adversary {text}: indices must be distinct and in 0..{n - 1}"
        )
    return parts[0], tuple(sorted(parts[1:]))


def cmd_analyze_gaussian(args) -> int:
    model = load_gaussian_model(_read_json(args.model_file))
    if bool(args.adversary) == bool(args.all):
        raise ValueError("pass exactly one of --adversary or --all")
    if args.all:
        report = max_leakage_gaussian(model, force=args.force)
        payload = report.to_json()
    else:
        i, K = _parse_adversary(args.adversary, model.n)
        exp = model_gaussian.mu0_expand(model, i, K)
        payload = {
            "i": i,
            "K": list(K),
            "leakage": leakage_gaussian(model, i, K, expansion=exp),
            "mu0_coef_i": exp.coef_i,
            "sigma0_sq": exp.sigma0_sq,
        }
    payload["invocation"] = _invocation(args)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    kind, obj = _load_any(args.input_file)
    if kind == "gaussian":
        _refuse_on_gaussian(args, lam="--lambda", query="--query")
    if obj.n > ORACLE_CAP and not args.force:
        raise SearchSpaceExceeded(
            f"oracle-check over n={obj.n} exceeds cap {ORACLE_CAP}; "
            "pass --force to override"
        )
    if kind == "discrete":
        # serial: the oracle's batches span layers, so the 428 adversaries of
        # perfbench's six small skewed tables run in seven batches, one or
        # two per table, and leave threads nothing to overlap
        dist = obj
        tol = args.tolerance if args.tolerance is not None else 1e-9
        lam = args.lam if args.lam is not None else 1.0
        query = _query_for(dist, args.query)
        graph, _ = full_space_search(dist, query, lam, force=True)
        values = {(i, mask): v for i, mask, v in graph.nodes.tolist()}
        rows = []
        for (i, K), oracle in pdp_exact_all(dist, query, lam).items():
            chain = values.get((i, sum(1 << k for k in K)))
            # one ulp of a chain value above 2^20 nats, reached as lambda
            # falls, exceeds the default tol: 8 ulps absorb rounding alone
            ok = chain is not None and oracle.leakage <= chain + max(tol, 8 * math.ulp(chain))
            rows.append(
                {
                    "i": i,
                    "K": list(K),
                    "chain": chain,
                    "oracle": oracle.leakage,
                    "pass": bool(ok),
                    "witness": oracle.witness,
                }
            )
        cols = ("chain", "oracle")
    else:
        model = obj
        tol = args.tolerance if args.tolerance is not None else 1e-3

        def gaussian_row(adversary):
            i, K = adversary
            # one expansion feeds both the closed form and the grid oracle
            exp = model_gaussian.mu0_expand(model, i, K)
            closed = leakage_gaussian(model, i, K, expansion=exp)
            numeric = pdp_numeric_gaussian(model, i, K, expansion=exp)
            return {
                "i": i,
                "K": list(K),
                "closed_form": closed,
                "oracle": numeric,
                "pass": bool(abs(closed - numeric) <= tol),
            }

        # the grid's erfcx and log release the GIL, so rows overlap
        rows = _pool_map(gaussian_row, list(_all_adversaries(model.n)))
        cols = ("closed_form", "oracle")
    all_pass = all(r["pass"] for r in rows)
    print(f"{'i':>3} {'K':<16} {cols[0]:>14} {cols[1]:>14} result")
    for r in rows:
        print(
            f"{r['i']:>3} {str(r['K']):<16} "
            f"{_fmt(r[cols[0]]):>14} {_fmt(r[cols[1]]):>14} "
            f"{'pass' if r['pass'] else 'FAIL'}"
        )
    summary = f"{sum(r['pass'] for r in rows)}/{len(rows)} adversaries pass (tol {tol:g})"
    if kind == "discrete":
        summary += f", {sum(r['witness'] == 'kink' for r in rows)} suprema at a kink"
    print(summary)
    if args.out:
        _emit(
            {"rows": rows, "tolerance": tol, "invocation": _invocation(args)},
            args.out,
        )
    return EXIT_OK if all_pass else EXIT_NUMERIC


def _fmt(v) -> str:
    return "missing" if v is None else f"{v:.6f}"


def _parse_sweep(text: str) -> list[float]:
    vals = [float(t) for t in text.split(",") if t.strip() != ""]
    if not vals:
        raise ValueError("--averCorr needs at least one value")
    return vals


def _parse_layers(text: str, n: int) -> set[int] | None:
    if text == "all":
        return None
    layers = {int(t) for t in text.split(",") if t.strip() != ""}
    if not layers or any(not 1 <= k <= n for k in layers):
        raise ValueError(f"--layers must name layers in 1..{n}")
    return layers


def cmd_experiment(args) -> int:
    sweep = _parse_sweep(args.aver_corr)
    layers = _parse_layers(args.layers, args.n)
    if args.kind == "gaussian":
        if args.seeds not in (None, 1):
            # the covariance alone fixes the leakage (M/lambda) |1 + mu0i|
            raise ValueError(f"--seeds {args.seeds}: a Gaussian sweep point has no seed")
        _refuse_on_gaussian(args, beta_alpha="--beta-alpha")
        if args.n > ENUM_CAP:
            raise SearchSpaceExceeded(
                f"experiment --kind gaussian over n={args.n} exceeds the "
                f"enumeration cap {ENUM_CAP}"
            )
        # built before any cell starts, so an infeasible sweep point fails fast
        cells = [(a, GaussianModel(mu=np.zeros(args.n), sigma=gen_covariance(args.n, a),
                                   M=args.scale, lam=1.0)) for a in sweep]
    else:
        seeds = 30 if args.seeds is None else args.seeds
        if seeds < 1:
            raise ValueError("--seeds must be >= 1")
        if args.n > FULL_CAP:
            # each cell runs a full search over 2^n-entry kernel arrays
            raise SearchSpaceExceeded(
                f"experiment --kind discrete over n={args.n} exceeds the full "
                f"search cap {FULL_CAP}"
            )
        alpha = 512.0 if args.beta_alpha is None else args.beta_alpha
        cells = [(a, s) for a in sweep for s in range(seeds)]

    def run_cell(cell):
        a, model_or_seed = cell
        if args.kind == "gaussian":
            return {(a, "enumerate"): max_leakage_gaussian(model_or_seed).layer_max}
        edges = EdgeMap(args.n, a, seed=model_or_seed, scale=args.scale, alpha=alpha)
        return {(a, mode): search_synthetic(edges, mode=mode).layer_max
                for mode in ("full", "fast")}

    results: dict[tuple[float, str], list[dict[int, float]]] = {}
    for outp in _pool_map(run_cell, cells):
        for key, layer_max in outp.items():
            results.setdefault(key, []).append(layer_max)
    rows = []
    for (a, algo), per_seed in sorted(results.items()):
        layer_keys = sorted({k for lm in per_seed for k in lm})
        for k in layer_keys:
            if layers is not None and k not in layers:
                continue
            vals = [lm[k] for lm in per_seed if k in lm]
            rows.append(
                (a, k, float(np.mean(vals)), float(np.var(vals)), algo, len(vals))
            )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["averCorr", "layer", "mean_leakage", "var_leakage", "algorithm", "seed_count"]
        )
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    kind, obj = _load_any(args.input_file)
    eps = args.epsilon
    if kind == "discrete":
        dist = obj
        method = args.method or "full"
        query = _query_for(dist, args.query)
        gs = global_sensitivity(dist, query)
        if gs <= 0:
            raise ValueError("query has zero sensitivity; any lambda works")
        cap = ORACLE_CAP if method == "oracle" else FULL_CAP
        if dist.n > cap and not args.force:
            raise SearchSpaceExceeded(
                f"calibrate --method {method} over n={dist.n} exceeds cap {cap}; "
                "pass --force to override"
            )
        bracket = [gs / (10.0 * eps), 10.0 * dist.n * gs / eps]
        if bracket[1] == math.inf:
            raise ValueError(f"--epsilon {eps!r} is too small: the bracket end 10 n GS / "
                             "epsilon overflows")
        floor = _noise_floor(transform_linear_query(dist, query))
        lam, f_lam, iters = _bisect(
            lambda scale: _max_leakage(dist, query, scale, method), eps, *bracket, floor
        )
    else:
        _refuse_on_gaussian(args, method="--method", query="--query")
        method, bracket = "enumerate", None
        lam, f_lam, iters = _scale_gaussian(obj, eps, args.force)
    payload = {
        "lambda": lam,
        "epsilon": eps,
        "leakage_at_lambda": f_lam,
        "iterations": iters,
        "bracket": bracket,
        "method": method,
        "invocation": _invocation(args),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _max_leakage(dist: JointDistribution, query: QuerySpec, lam: float, method: str) -> float:
    """The largest leakage over every adversary of a table at noise scale
    lam, by the evaluator calibrate --method names."""
    if method == "oracle":
        return max(r.leakage for r in pdp_exact_all(dist, query, lam).values())
    if method == "fast":
        return fast_search(dist, query, lam)[1].leakage
    return full_space_search(dist, query, lam, force=True)[1].leakage


def _bisect(leak, eps: float, lo: float, hi: float, floor: float) -> tuple[float, float, int]:
    """(lambda, leakage there, iterations): bisection to 1e-6 relative width
    for the smallest lambda in [lo, hi] whose leakage is at most eps, given
    leak(lo) > eps >= leak(hi) (module notes). hi is the answer when no
    midpoint reaches eps, and leak(hi) its leakage.

    leak refuses every lambda below floor. The leakage falls as lambda
    grows, so once leak(floor) > eps, a midpoint below floor leaks more than
    eps without being evaluated; otherwise the answer is below floor too."""
    if hi < floor or (lo < floor and leak(floor) <= eps):
        raise ValueError(f"--epsilon {eps!r} is too large: it needs a lambda at or below "
                         f"{floor!r}, the least this table admits")
    f_hi = leak(hi)
    iters = 0
    while (hi - lo) / hi > 1e-6 and iters < 200:
        mid = 0.5 * (lo + hi)
        f_mid = leak(mid) if mid >= floor else math.inf
        if f_mid <= eps:
            hi, f_hi = mid, f_mid
        else:
            lo = mid
        iters += 1
    return hi, f_hi, iters


def _scale_gaussian(model: GaussianModel, eps: float, force: bool) -> tuple[float, float, int]:
    """(lambda, leakage there, 0) for a Gaussian model, without a bracket.

    The leakage is exactly (M / lambda) * v, where v = max |1 + mu0i| does
    not depend on M or lambda. One enumeration at M = lambda = 1 gives v;
    lambda = M v / eps is then nudged up one float at a time until the float
    product (M / lambda) * v, which is what the enumeration reports at that
    lambda, is at most eps.
    """
    unit = GaussianModel(mu=model.mu, sigma=model.sigma, M=1.0, lam=1.0)
    v = max_leakage_gaussian(unit, force=force).leakage
    lam = model.M * v / eps
    while model.M / lam * v > eps:
        lam = float(np.nextafter(lam, np.inf))
    if lam == math.inf:
        raise ValueError(f"--epsilon {eps!r} is too small: M v / epsilon overflows")
    return lam, model.M / lam * v, 0


def _check_numeric(args) -> None:
    """Reject a numeric option that is not finite, or out of its sign range."""
    for dest, flag in _POSITIVE.items():
        value = getattr(args, dest, None)
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{flag} must be positive and finite, got {value}")
    for dest, flag in _NON_NEGATIVE.items():
        value = getattr(args, dest, None)
        if value is not None and not 0 <= value < math.inf:
            raise ValueError(f"{flag} must be non-negative and finite, got {value}")


def _refuse_on_gaussian(args, **flags: str) -> None:
    """Reject each option, given as dest=flag, that is set for a Gaussian
    input, which would ignore it: a model file carries its own M and lambda,
    and a Gaussian sweep has no Beta edges."""
    for dest, flag in flags.items():
        if getattr(args, dest) is not None:
            raise ValueError(f"{flag} does not apply to a Gaussian input")


def _invocation(args) -> str:
    return " ".join(args.argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priordp",
        description=(
            "Privacy leakage of Laplace-perturbed linear queries against "
            "adversaries with prior knowledge over correlated data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze-discrete", help="graph-search leakage of a discrete joint table"
    )
    p.add_argument("dist_file", help="JSON file with domains + probs")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--mode", choices=("full", "fast"), default="full")
    p.add_argument("--query", default=None, help="comma-separated coefficients")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--force", action="store_true", help="override the size cap")
    p.set_defaults(func=cmd_analyze_discrete)

    p = sub.add_parser(
        "analyze-gaussian", help="closed-form leakage of a Gaussian model"
    )
    p.add_argument("model_file", help="JSON file with mu, sigma, M, lambda")
    p.add_argument("--adversary", default=None, help="i[,k1,k2,...] (0-based)")
    p.add_argument("--all", action="store_true", help="enumerate every adversary")
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_analyze_gaussian)

    p = sub.add_parser(
        "oracle-check",
        help="cross-check analytic leakage against the brute-force oracle",
    )
    p.add_argument("input_file", help="discrete table or Gaussian model JSON")
    p.add_argument("--tolerance", type=float, default=None,
                   help="absolute, in nats; tables (default 1e-9): a row passes when "
                        "oracle <= chain + max(tol, 8 ulps of chain); Gaussian (default "
                        "1e-3): when |closed form - oracle| <= tol")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="tables; default 1")
    p.add_argument("--query", default=None, help="tables only")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("experiment", help="sweep averCorr and write a CSV")
    p.add_argument("--kind", choices=("discrete", "gaussian"), required=True)
    p.add_argument("--n", type=int, default=15)
    p.add_argument("--averCorr", dest="aver_corr", default="0.2,0.5,0.8")
    p.add_argument("--layers", default="all", help='"all" or comma list')
    p.add_argument("--seeds", type=int, default=None, help="discrete; default 30")
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float, default=1.0,
                   help="GS/lambda (discrete) or M/lambda (gaussian)")
    p.add_argument("--beta-alpha", dest="beta_alpha", type=float, default=None,
                   help="discrete; default 512")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "calibrate", help="minimal lambda keeping max leakage at or below epsilon"
    )
    p.add_argument("input_file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--query", default=None, help="tables only")
    p.add_argument(
        "--method",
        choices=("full", "fast", "oracle"),
        default=None,
        help="leakage evaluator for tables; default full",
    )
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true", help="override the size cap")
    p.set_defaults(func=cmd_calibrate)
    return parser


def _glue_sweep(argv: list[str]) -> list[str]:
    """argv with a sweep after a separate --averCorr written as
    --averCorr=SWEEP: argparse takes a value such as -0.3,0.2 for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--averCorr" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--averCorr={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_glue_sweep(argv))
    args.argv = ["priordp"] + argv
    try:
        _check_numeric(args)
        return args.func(args)
    except SearchSpaceExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InfeasibleCorrelation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PrivacyModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
