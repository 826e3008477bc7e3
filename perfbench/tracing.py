"""Spans around the calls into bicomm's modules, and the per-layer metrics
computed from them.

A span is recorded at a module boundary: around each library function that
``bicomm.cli`` imports (the benchmark swaps in wrappers for the length of a
run and puts the originals back after) and around the benchmark's own calls
into the library.  Span names are ``<module>.<function>``.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager

from bicomm import (FitConfig, Objective, exhaustive_fit, fit_all_candidates,
                    gamma_tau_select, graph_constants, load_edge_list,
                    penalized_select, sample_dcsbm, z_d, z_w)
from bicomm.edgestats import moment_arrays
from bicomm.genmodels import ConnectivityMatrix, ThetaSpec, replicate_rngs
from bicomm import cli

import workloads as wl

MB = 1024.0 * 1024.0

# per_layer metric -> span it is read from
LAYER_SPANS = {
    "graph.load_ms": "graph.load_edge_list",
    "graph.constants_ms": "graph.graph_constants",
    "edgestats.moment_table_ms": "edgestats.moment_arrays",
    "optimizer.fit_all_ms": "optimizer.fit_all_candidates",
    "optimizer.exhaustive_ms": "optimizer.exhaustive_fit",
    "selection.penalized_ms": "selection.penalized_select",
    "selection.gamma_tau_ms": "selection.gamma_tau_select",
    "genmodels.sample_ms": "genmodels.sample_dcsbm",
}
PEAK_SPANS = {
    "graph.constants_peak_mb": "graph.graph_constants",
    "optimizer.fit_peak_mb": "optimizer.fit_all_candidates",
    "selection.penalized_peak_mb": "selection.penalized_select",
    "genmodels.sample_peak_mb": "genmodels.sample_dcsbm",
}
SCORE_SPANS = ("edgestats.z_w", "edgestats.z_d")
# The pipeline's stages.  What a CLI op spends outside them (per-candidate
# Z scores, the report, JSON or CSV) is cli.overhead_ms.
PIPELINE_SPANS = {"graph.load_edge_list", "graph.graph_constants",
                  "genmodels.sample_dcsbm", "optimizer.fit_all_candidates",
                  "optimizer.greedy_fit", "selection.penalized_select",
                  "selection.gamma_tau_select"}


def span_name(fn):
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Recorder:
    """Keeps what wrapped library calls return (for the output check) and,
    when tracing, a span per call.

    A span is the tuple (id, name, start, end, parent id, op id, peak MB);
    the peak is filled only in the tracemalloc pass (``memory`` on), whose
    spans are kept apart from the timed ones by their op id.
    """

    def __init__(self, trace=False):
        self.trace = trace
        self.memory = False
        self.spans = []
        self.op = None
        self._stack = []
        self._captured = {}

    def begin_op(self, op_id):
        self.op = op_id
        self._captured = {}

    def last(self, name):
        """What the last call of ``name`` in the current op returned."""
        found = self._captured.get(name)
        return found[-1] if found else None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        if self.memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            peak = None
            if self.memory:
                peak = (tracemalloc.get_traced_memory()[1] - base) / MB
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op, peak)

    def wrap(self, fn, capture=False):
        """``fn`` with a span around each call when tracing, and its return
        value kept when ``capture``; ``fn`` itself when neither."""
        if not (self.trace or capture):
            return fn
        name = span_name(fn)

        def call(*args, **kwargs):
            if self.trace:
                with self.span(name):
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
            if capture:
                self._captured.setdefault(name, []).append(out)
            return out
        return call

    def write(self, path):
        keys = ("id", "name", "start", "end", "parent", "op", "peak_mb")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


@contextmanager
def wrapped_cli(rec):
    """Swap every library function ``bicomm.cli`` imports for its wrapper."""
    saved = {name: obj for name, obj in vars(cli).items()
             if inspect.isfunction(obj)
             and obj.__module__.startswith("bicomm.")
             and obj.__module__ != cli.__name__}
    for name, fn in saved.items():
        setattr(cli, name, rec.wrap(fn, capture=True))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def probe_layers(w, rec, graph, fits, on_path, seed):
    """Call each layer that an op of ``w`` does not reach, so that every
    per-layer metric is measured on every workload.

    Layers are called on the op's own graph and candidates where they accept
    them.  Exhaustive search takes at most 16 nodes, so it runs on the
    exact_n14 input for this seed; the sampler runs one sim_n100 replicate
    for this seed, since no workload samples at scale.
    """
    def want(fn):
        return span_name(fn) not in on_path

    def call(fn, capture=True):
        return rec.wrap(fn, capture=capture)

    if want(load_edge_list):
        call(load_edge_list)(wl.edge_lines(graph), graph.directed)
    c = graph_constants(graph)
    if want(graph_constants):
        call(graph_constants)(graph)
    if want(moment_arrays):
        call(moment_arrays)(c)
    if want(z_w):
        for f in fits.values():
            call(z_w)(graph, f.labels, c)
            call(z_d)(graph, f.labels, c)
    if want(fit_all_candidates):
        call(fit_all_candidates)(graph, FitConfig(restarts=w.restarts))
    if want(exhaustive_fit):
        exact = wl.ExactN14(w.tiny, w.work)
        g14, _ = exact.prepare(exact.entry(seed, 0))
        for kind in ("zw-max", "zw-min", "zd"):
            call(exhaustive_fit)(g14, Objective(kind))
    if want(penalized_select):
        call(penalized_select)(graph, fits)
    if want(gamma_tau_select):
        call(gamma_tau_select)(graph, fits)
    if want(sample_dcsbm):
        sim = wl.SimN100(w.tiny, w.work)
        entry = sim.entry(seed, 0)
        directed, _, p, alpha = wl.SIM_SETTINGS[entry % len(wl.SIM_SETTINGS)]
        rng, _ = replicate_rngs(entry // len(wl.SIM_SETTINGS), 0)
        call(sample_dcsbm)(
            ConnectivityMatrix(*p), sim.size, sim.size,
            ThetaSpec.pareto(alpha), directed, rng)


def moments_ops(work, rec, graph, reps):
    """Traced ``bicomm moments`` calls on ``graph`` with alternating labels,
    the CLI path of a workload whose op skips the CLI; returns their op
    ids."""
    edges = work / "moments.edges"
    edges.write_text("".join(wl.edge_lines(graph)), encoding="utf-8")
    labels = work / "moments.labels"
    n_loaded = load_edge_list(str(edges), graph.directed).n_nodes
    labels.write_text("".join(f"{i % 2}\n" for i in range(n_loaded)),
                      encoding="utf-8")
    argv = ["moments", "--edges", str(edges), "--labels", str(labels),
            "--directed" if graph.directed else "--undirected",
            "--out", str(work / "moments.json")]
    ops = [f"moments{r}" for r in range(reps)]
    with wrapped_cli(rec):
        for op_id in ops:
            rec.begin_op(op_id)
            rec.trace = True
            try:
                with rec.span("op"):
                    wl.run_cli(argv)
            finally:
                rec.trace = False
    return ops


def _ms(s):
    return (s[3] - s[2]) * 1000.0


def per_op_sums(spans, ops, names, fn=_ms):
    """Per op in ``ops``, the sum of fn(span) over spans named in
    ``names``; ops without such a span are left out."""
    sums = {}
    for s in spans:
        if s[5] in ops and s[1] in names:
            sums[s[5]] = sums.get(s[5], 0.0) + fn(s)
    return sums


def layer_metrics(rec, timed_ops, probe_ops, memory_ops):
    """Median per-op time of each layer over the timed traced ops, or over
    the probe repetitions for a layer the ops do not reach; peak memory from
    the tracemalloc pass."""
    spans = rec.spans
    out = {}

    def per_op(names, fn=_ms):
        got = per_op_sums(spans, timed_ops, names, fn)
        return got if got else per_op_sums(spans, probe_ops, names, fn)

    for metric, name in LAYER_SPANS.items():
        out[metric] = statistics.median(per_op({name}).values())
    score = per_op(set(SCORE_SPANS))
    pairs = per_op({SCORE_SPANS[0]}, fn=lambda s: 1)
    out["edgestats.score_us"] = statistics.median(
        score[k] * 1000.0 / pairs[k] for k in score)
    for metric, name in PEAK_SPANS.items():
        out[metric] = max(s[6] for s in spans
                          if s[5] in memory_ops and s[1] == name)
    return out


def fit_facts(rec):
    """What the current op's fit, selection and sampling returned."""
    return {"fits": rec.last("optimizer.fit_all_candidates"),
            "outcome": rec.last("selection.penalized_select"),
            "planted": rec.last("genmodels.sample_dcsbm")}


def fit_metrics(w, rec, facts, timed_ops, probe_ops):
    """Layer metrics read from what the fits, the selector and the sampler
    returned: counts over the run's first min_ops ops (or the first probe,
    for a layer the ops do not reach), flip and restart cost per op."""
    def first(item):
        ops = [o for o in timed_ops if facts[o][item] is not None]
        if ops:
            return ops[:w.min_ops]
        return [o for o in probe_ops if facts[o][item] is not None][:1]

    flips = reached = restarts = 0
    for o in first("fits"):
        for f in facts[o]["fits"].values():
            flips += f.iterations
            reached += sum(v == f.value for v in f.restart_values)
            restarts += len(f.restart_values)
    fit_ms = per_op_sums(rec.spans, set(timed_ops) | set(probe_ops),
                         {"optimizer.fit_all_candidates"})
    fit_ops = [o for o in fit_ms if o in timed_ops] or list(fit_ms)
    flips_of = {o: sum(f.iterations for f in facts[o]["fits"].values())
                for o in fit_ops}
    return {
        "optimizer.flips": flips,
        "optimizer.best_restart_share": reached / restarts,
        "optimizer.restart_ms": statistics.median(
            fit_ms[o] / (3 * w.restarts) for o in fit_ops),
        "optimizer.flip_us": statistics.median(
            fit_ms[o] * 1000.0 / flips_of[o] for o in fit_ops
            if flips_of[o]),
        "selection.clamp_events": sum(
            facts[o]["outcome"].clamp_events for o in first("outcome")),
        "genmodels.clamped_pairs": sum(
            facts[o]["planted"].clamped_pairs for o in first("planted")),
    }
