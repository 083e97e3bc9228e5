"""In-memory spans around the module-level bindings through which one priordp
module calls another module's public function, or calls scipy.

Wrapping a binding replaces the attribute on the module (or class) that
looks it up at call time, so no source file is edited; `unwrap` restores
the originals. A binding that no longer exists is not an error: its layer
reports zero calls and a note says which binding was missing.

Spans carry the thread id that ran them. A span opened on a thread with an
empty stack (a worker of the experiment pool) takes the enclosing
`cli.main` span as its parent, so self time is always the span's duration
minus the union of its children's intervals.

Spans also record the CPU time of their own thread (`time.thread_time`).
The experiment pool runs searches on several threads at once, where wall
time includes waiting for the GIL held by another worker; the layers that
run there (`whg.search_synthetic`, `synth.edge_values`) report thread CPU
time instead, summed across threads.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    tid: int
    start: float
    parent: int | None
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _search_attrs(mode):
    def attrs(args, kwargs, out):
        graph, report = out
        return {"mode": mode, "n": graph.n, "nodes": report.node_count, "edges": len(graph.edges)}

    return attrs


def _synthetic_attrs(args, kwargs, out):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "full")
    return {"mode": mode, "n": out.metadata["n"], "nodes": out.node_count}


# (module, attribute path, span name, attrs(args, kwargs, result) or None).
# Each row is one layer boundary; the span name is the layer metric prefix.
BINDINGS = [
    ("priordp.cli", "main", "cli.main", None),
    ("priordp.cli", "full_space_search", "whg.search_table", _search_attrs("full")),
    ("priordp.cli", "fast_search", "whg.search_table", _search_attrs("fast")),
    ("priordp.whg", "marginal", "model_discrete.marginal", None),
    ("priordp.whg", "logsumexp", "whg.logsumexp", None),
    ("priordp.cli", "search_synthetic", "whg.search_synthetic", _synthetic_attrs),
    ("priordp.synth", "EdgeMap.values", "synth.edge_values",
     lambda a, k, out: {"edges": int(np.size(out))}),
    ("priordp.cli", "pdp_exact_discrete", "oracle.pdp_exact",
     lambda a, k, out: {"kinks": int(out.kinks_evaluated)}),
    ("priordp.oracle", "conditional", "oracle.conditional", None),
    ("priordp.oracle", "logsumexp", "oracle.logsumexp", None),
    ("priordp.cli", "pdp_numeric_gaussian", "oracle.pdp_numeric_gaussian", None),
    ("priordp.oracle", "log_g", "model_gaussian.log_g",
     lambda a, k, out: {"points": int(np.size(out))}),
    ("priordp.cli", "max_leakage_gaussian", "model_gaussian.max_leakage",
     lambda a, k, out: {"adversaries": int(out.node_count)}),
    ("priordp.model_gaussian", "mu0_expand", "model_gaussian.mu0_expand", None),
    ("priordp.oracle", "mu0_expand", "model_gaussian.mu0_expand", None),
]

# per-layer metric -> (unit, end-to-end metric it should move, workload where)
LAYER_METRICS = {
    "cli.self_s": ("s", "wall_s", "oracle_survey"),
    "whg.search_table.calls": ("count", "wall_s", "table_chain"),
    "whg.search_table.s": ("s", "wall_s", "table_chain"),
    "whg.search_table.self_s": ("s", "wall_s", "table_chain"),
    "whg.search_table.nodes": ("count", "wall_s", "table_chain"),
    "whg.search_table.edges": ("count", "wall_s", "table_chain"),
    "whg.search_table.us_per_edge": ("us", "wall_s", "table_chain"),
    "whg.fast.node_frac": ("ratio", "wall_s", "table_chain"),
    "model_discrete.marginal.calls": ("count", "peak_rss_mb", "table_chain"),
    "model_discrete.marginal.s": ("s", "wall_s", "table_chain"),
    "whg.logsumexp.calls": ("count", "wall_s", "table_chain"),
    "whg.logsumexp.s": ("s", "wall_s", "table_chain"),
    "whg.search_synthetic.calls": ("count", "wall_s", "synthetic_sweep"),
    "whg.search_synthetic.s": ("s", "wall_s", "synthetic_sweep"),
    "whg.search_synthetic.self_s": ("s", "wall_s", "synthetic_sweep"),
    "whg.kernel.ns_per_edge": ("ns", "wall_s", "synthetic_sweep"),
    "synth.edge_values.calls": ("count", "wall_s", "synthetic_sweep"),
    "synth.edge_values.edges": ("count", "wall_s", "synthetic_sweep"),
    "synth.edge_values.s": ("s", "wall_s", "synthetic_sweep"),
    "synth.edge_values.ns_per_edge": ("ns", "wall_s", "synthetic_sweep"),
    "oracle.pdp_exact.calls": ("count", "wall_s", "oracle_survey"),
    "oracle.pdp_exact.s": ("s", "wall_s", "oracle_survey"),
    "oracle.pdp_exact.ms_per_node": ("ms", "wall_s", "oracle_survey"),
    "oracle.kinks": ("count", "wall_s", "oracle_survey"),
    "oracle.conditional.calls": ("count", "wall_s", "oracle_survey"),
    "oracle.conditional.s": ("s", "wall_s", "oracle_survey"),
    "oracle.logsumexp.calls": ("count", "wall_s", "oracle_survey"),
    "oracle.logsumexp.s": ("s", "wall_s", "oracle_survey"),
    "oracle.undershoot_nodes": ("count", "wall_s", "oracle_survey"),
    "oracle.pdp_numeric_gaussian.calls": ("count", "wall_s", "gaussian_enum"),
    "oracle.pdp_numeric_gaussian.s": ("s", "wall_s", "gaussian_enum"),
    "oracle.pdp_numeric_gaussian.ms_per_call": ("ms", "wall_s", "gaussian_enum"),
    "model_gaussian.log_g.points": ("count", "wall_s", "gaussian_enum"),
    "model_gaussian.log_g.s": ("s", "wall_s", "gaussian_enum"),
    "model_gaussian.log_g.ns_per_point": ("ns", "wall_s", "gaussian_enum"),
    "model_gaussian.max_leakage.calls": ("count", "wall_s", "gaussian_enum"),
    "model_gaussian.max_leakage.s": ("s", "wall_s", "gaussian_enum"),
    "model_gaussian.mu0_expand.calls": ("count", "wall_s", "gaussian_enum"),
    "model_gaussian.mu0_expand.s": ("s", "wall_s", "gaussian_enum"),
    "model_gaussian.us_per_adversary": ("us", "wall_s", "gaussian_enum"),
    "process.cpu_s": ("s", "wall_s", "synthetic_sweep"),
    "process.threads": ("count", "wall_s", "synthetic_sweep"),
    "trace.overhead_frac": ("ratio", "wall_s", "all"),
}

# counts that must repeat exactly between traced passes and traced runs
EXACT_COUNTS = [
    name for name, (unit, _, _) in LAYER_METRICS.items()
    if unit == "count" and name != "process.threads"
]


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Collects spans from wrapped bindings; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.notes: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self) -> None:
        for module, path, name, attrs in BINDINGS:
            found = _resolve(module, path)
            if found is None:
                note = f"binding {module}.{path} not found; {name} reports zero"
                if note not in self.notes:
                    self.notes.append(note)
                continue
            owner, attr, fn = found
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name, attrs))

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrapper(self, fn, name, attrs):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    self.spans[idx].attrs = attrs(args, kwargs, out)
                return out
            finally:
                self._close(idx, name)

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, threading.get_ident(), 0.0, parent))
        if name == "cli.main":
            self._root = idx
        stack.append(idx)
        self.spans[idx].cpu_start = time.thread_time()
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int, name: str) -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].cpu_end = time.thread_time()
        self._stack().pop()
        if name == "cli.main":
            self._root = self.spans[idx].parent


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "self_cpu_s": 0.0, "spans": []}


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy and self seconds (wall and own-thread CPU)
    and the attrs of each span."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out: dict[str, dict] = {}
    for idx, sp in enumerate(spans):
        agg = out.setdefault(sp.name, dict(EMPTY, spans=[]))
        dur, cpu = sp.end - sp.start, sp.cpu_end - sp.cpu_start
        kids = children.get(idx, [])
        clipped = [(max(k.start, sp.start), min(k.end, sp.end)) for k in kids]
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - _covered([c for c in clipped if c[1] > c[0]])
        agg["cpu_s"] += cpu
        # children on the same thread nest inside this span, so their CPU adds up
        agg["self_cpu_s"] += cpu - sum(k.cpu_end - k.cpu_start for k in kids if k.tid == sp.tid)
        agg["spans"].append(sp.attrs)
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metric values of one traced pass (cpu/threads/overhead excluded)."""
    t = layer_totals(spans)
    get = lambda name: t.get(name, EMPTY)  # noqa: E731
    table = get("whg.search_table")
    synth_search = get("whg.search_synthetic")
    edges = get("synth.edge_values")
    oracle = get("oracle.pdp_exact")
    numeric = get("oracle.pdp_numeric_gaussian")
    log_g = get("model_gaussian.log_g")
    enum = get("model_gaussian.max_leakage")
    fast = [a for a in table["spans"] if a.get("mode") == "fast"]
    table_edges = sum(a.get("edges", 0) for a in table["spans"])
    edge_count = sum(a.get("edges", 0) for a in edges["spans"])
    points = sum(a.get("points", 0) for a in log_g["spans"])
    adversaries = sum(a.get("adversaries", 0) for a in enum["spans"])
    m = {
        "cli.self_s": get("cli.main")["self_s"],
        "whg.search_table.calls": table["calls"],
        "whg.search_table.s": table["s"],
        "whg.search_table.self_s": table["self_s"],
        "whg.search_table.nodes": sum(a.get("nodes", 0) for a in table["spans"]),
        "whg.search_table.edges": table_edges,
        "whg.search_table.us_per_edge": _ratio(table["s"], table_edges, 1e6),
        "whg.fast.node_frac": _ratio(
            sum(a["nodes"] for a in fast), sum(a["n"] * 2 ** (a["n"] - 1) for a in fast)
        ),
        "whg.search_synthetic.calls": synth_search["calls"],
        "whg.search_synthetic.s": synth_search["cpu_s"],
        "whg.search_synthetic.self_s": synth_search["self_cpu_s"],
        "whg.kernel.ns_per_edge": _ratio(synth_search["self_cpu_s"], edge_count, 1e9),
        "synth.edge_values.calls": edges["calls"],
        "synth.edge_values.edges": edge_count,
        "synth.edge_values.s": edges["cpu_s"],
        "synth.edge_values.ns_per_edge": _ratio(edges["cpu_s"], edge_count, 1e9),
        "oracle.pdp_exact.calls": oracle["calls"],
        "oracle.pdp_exact.s": oracle["s"],
        "oracle.pdp_exact.ms_per_node": _ratio(oracle["s"], oracle["calls"], 1e3),
        "oracle.kinks": sum(a.get("kinks", 0) for a in oracle["spans"]),
        "oracle.pdp_numeric_gaussian.calls": numeric["calls"],
        "oracle.pdp_numeric_gaussian.s": numeric["s"],
        "oracle.pdp_numeric_gaussian.ms_per_call": _ratio(numeric["s"], numeric["calls"], 1e3),
        "model_gaussian.log_g.points": points,
        "model_gaussian.log_g.s": log_g["s"],
        "model_gaussian.log_g.ns_per_point": _ratio(log_g["s"], points, 1e9),
        "model_gaussian.max_leakage.calls": enum["calls"],
        "model_gaussian.max_leakage.s": enum["s"],
        "model_gaussian.us_per_adversary": _ratio(enum["s"], adversaries, 1e6),
        "process.threads": len({sp.tid for sp in spans}),
    }
    for name in ("model_discrete.marginal", "whg.logsumexp", "oracle.conditional",
                 "oracle.logsumexp", "model_gaussian.mu0_expand"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.s"] = get(name)["s"]
    return m
