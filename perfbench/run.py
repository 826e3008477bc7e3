"""bicomm benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload sim_n100 --seed 0 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics with tracing off; with
--trace 1 it pairs each untraced op with a traced one on the same input,
then makes a tracemalloc pass, and reports the per-layer metrics.  Every
op's outputs are checked against the digests pinned in digests.json.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The run's environment, every metric and the per-op times
go to perfbench/out/results/, the spans of a traced run next to them.

    python3 perfbench/run.py --workload all --seed 0 --seconds 30
runs every workload with tracing off and on and prints every metric.

    python3 perfbench/run.py --workload exact_n14 --pin
re-pins the digests of a workload's whole input pool.
"""

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
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
NAMES = ("sim_n100", "detect_n4000", "exact_n14")
SETUP_REPS = 5
PROBE_REPS = 5
# One BLAS/OpenMP thread, set in main() before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
# Reported in the table and results file, not in the last line: each of
# these applies to some workloads only.
EXTRA_UNITS = {
    "op_ms_p90": "ms",
    "ops_failed_frac": "ratio",
    "mean_eps": "ratio",
    "success_rate": "ratio",
}
PER_LAYER_UNITS = {
    "graph.load_ms": "ms",
    "graph.constants_ms": "ms",
    "graph.constants_peak_mb": "MB",
    "edgestats.moment_table_ms": "ms",
    "edgestats.score_us": "us",
    "optimizer.fit_all_ms": "ms",
    "optimizer.restart_ms": "ms",
    "optimizer.flip_us": "us",
    "optimizer.fit_peak_mb": "MB",
    "optimizer.flips": "count",
    "optimizer.best_restart_share": "ratio",
    "optimizer.exhaustive_ms": "ms",
    "selection.penalized_ms": "ms",
    "selection.penalized_peak_mb": "MB",
    "selection.clamp_events": "count",
    "selection.gamma_tau_ms": "ms",
    "genmodels.sample_ms": "ms",
    "genmodels.sample_peak_mb": "MB",
    "genmodels.clamped_pairs": "count",
    "cli.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="pin the digests of the workload's input pool")
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    ap.add_argument("--digests", type=Path, default=DIGESTS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def run_all(args):
    """Every workload, untraced then traced, one process each."""
    code = 0
    for name in NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--digests", str(args.digests)]
            if args.tiny:
                argv.append("--tiny")
            code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def git_state():
    """(commit SHA, dirty flag) of the checkout, or (None, None) when it is
    not a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], env=env,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def environment(numpy):
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = git_state()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": model, "git_sha": sha,
            "git_dirty": dirty,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Runner:
    """Runs and checks the ops of one workload, counting attempts and
    failures."""

    def __init__(self, w, rec, pinned, seed):
        self.w = w
        self.rec = rec
        self.pinned = pinned
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def op(self, i, op_id, traced):
        """Run op i of the run; return (seconds, Checked or None on failure,
        input, output)."""
        w, rec = self.w, self.rec
        entry = w.entry(self.seed, i)
        inp = w.prepare(entry)
        rec.begin_op(op_id)
        rec.trace = traced
        self.attempted += 1
        out = checked = None
        t0 = time.perf_counter()
        try:
            with rec.span("op") if traced else nullcontext():
                out = w.op(inp, rec)
            dt = time.perf_counter() - t0
            checked = w.check(entry, out, rec)
        except Exception:  # a failed op is counted and the run goes on
            dt = time.perf_counter() - t0
            traceback.print_exc()
        finally:
            rec.trace = False
        if checked is not None:
            want = self.pinned[entry] if entry < len(self.pinned) else None
            if checked.digest != want:
                print(f"{w.name}: entry {entry} digest {checked.digest} "
                      f"!= pinned {want}", file=sys.stderr)
                checked = None
        if checked is None:
            self.failed += 1
        return dt, checked, inp, out


def import_seconds():
    """Time a fresh interpreter takes to import bicomm's CLI and numpy."""
    code = ("import time; t = time.perf_counter(); import bicomm.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout)


def setup(w, rec, seed):
    """Median over SETUP_REPS rounds of import, input generation and
    warm-up."""
    first = w.entry(seed, 0)
    times = []
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        t0 = time.perf_counter()
        w.setup(first)
        rec.begin_op("warm-up")
        try:
            w.warm_up(first, rec)
        except Exception:  # the timed ops fail the same way and are counted
            traceback.print_exc()
        times.append(imported + time.perf_counter() - t0)
    return statistics.median(times)


def measure_untraced(w, runner, seconds, rec, seed):
    setup_s = setup(w, rec, seed)
    times, every, firsts = [], [], []
    busy = 0.0
    start = time.perf_counter()
    i = 0
    while i < w.min_ops or time.perf_counter() - start < seconds:
        dt, checked, _, _ = runner.op(i, i, traced=False)
        busy += dt
        every.append(dt * 1000.0)
        if checked is not None:
            times.append(dt * 1000.0)
            if i < w.min_ops:
                firsts.append(checked)
        i += 1
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(times) / busy,
        # with every op failed, the latency of the failed ops
        "op_ms_p50": statistics.median(times or every),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"ops_failed_frac": runner.failed / runner.attempted}
    if len(times) >= 100:
        extra["op_ms_p90"] = statistics.quantiles(times, n=10)[8]
    extra.update(w.quality(firsts))
    return metrics, extra, {"op_ms": times}


def measure_traced(w, runner, seconds, rec, seed, tr):
    """Per-layer metrics: paired untraced/traced ops, layer probes, then a
    tracemalloc pass."""
    setup(w, rec, seed)
    plain, traced = [], []
    facts = {}
    ctx = None
    start = time.perf_counter()
    i = 0
    while i < w.min_ops or time.perf_counter() - start < seconds:
        du, ok_u, _, _ = runner.op(i, f"plain{i}", traced=False)
        op_id = f"op{i}"
        dt, ok_t, inp, out = runner.op(i, op_id, traced=True)
        if ok_u is not None and ok_t is not None:
            plain.append(du * 1000.0)
            traced.append(dt * 1000.0)
            facts[op_id] = tr.fit_facts(rec)
            if ctx is None:
                ctx = w.context(inp, out, rec)
        i += 1
    timed_ops = list(facts)
    if ctx is None:
        raise RuntimeError("no traced op succeeded")
    on_path = {s[1] for s in rec.spans if s[5] in facts}

    probe_ops = []
    for r in range(PROBE_REPS):
        op_id = f"probe{r}"
        rec.begin_op(op_id)
        rec.trace = True
        runner.attempted += 1
        try:
            tr.probe_layers(w, rec, ctx[0], ctx[1], on_path, seed)
            probe_ops.append(op_id)
            facts.setdefault(op_id, tr.fit_facts(rec))
        except Exception:
            runner.failed += 1
            traceback.print_exc()
        finally:
            rec.trace = False

    # An op that skips the CLI has cli.overhead_ms measured on
    # `bicomm moments` calls on its graph.
    cli_ops = (timed_ops if w.uses_cli
               else tr.moments_ops(w.work, rec, ctx[0], PROBE_REPS))

    tracemalloc.start()
    try:
        rec.memory = True
        runner.op(0, "mem", traced=True)
        rec.begin_op("mem-probe")
        rec.trace = True
        tr.probe_layers(w, rec, ctx[0], ctx[1], on_path, seed)
    finally:
        rec.trace = False
        rec.memory = False
        tracemalloc.stop()

    layers = tr.layer_metrics(rec, set(timed_ops), set(probe_ops),
                              {"mem", "mem-probe"})
    layers.update(tr.fit_metrics(w, rec, facts, timed_ops, probe_ops))
    op_ms = tr.per_op_sums(rec.spans, set(cli_ops), {"op"})
    stages = tr.per_op_sums(rec.spans, set(cli_ops), tr.PIPELINE_SPANS)
    layers["cli.overhead_ms"] = statistics.median(
        op_ms[o] - stages.get(o, 0.0) for o in cli_ops)
    layers["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    return layers, {}, {"op_ms_plain": plain, "op_ms_traced": traced}


def pin(w, rec, path, tr):
    """Digest every entry of the workload's pool into the digests file."""
    found = []
    ctx = tr.wrapped_cli(rec) if w.uses_cli else nullcontext()
    with ctx:
        for entry in range(w.pool):
            w.setup(entry)
            rec.begin_op(entry)
            found.append(w.check(entry, w.op(w.prepare(entry), rec), rec)
                         .digest)
    pinned = json.loads(path.read_text()) if path.exists() else {}
    pinned[w.key] = found
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(found)} digests for {w.key} in {path}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "bicomm" / "__init__.py").is_file():
        print(f"error: no bicomm sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import bicomm
    if not Path(bicomm.__file__).resolve().is_relative_to(SRC):
        print(f"error: bicomm imported from {bicomm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing as tr
    import workloads as wl

    work = HERE / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = wl.WORKLOADS[args.workload](args.tiny, work)
        rec = tr.Recorder()
        if args.pin:
            return pin(w, rec, args.digests, tr)
        pinned = (json.loads(args.digests.read_text()).get(w.key, [])
                  if args.digests.exists() else [])
        runner = Runner(w, rec, pinned, args.seed)
        with tr.wrapped_cli(rec) if w.uses_cli else nullcontext():
            if args.trace:
                metrics, extra, samples = measure_traced(
                    w, runner, args.seconds, rec, args.seed, tr)
                units = PER_LAYER_UNITS
            else:
                metrics, extra, samples = measure_untraced(
                    w, runner, args.seconds, rec, args.seed)
                units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.key}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rec.write(results / f"{stem}.spans.jsonl")
    shown = {**{k: (metrics[k], units[k]) for k in units},
             **{k: (v, EXTRA_UNITS[k]) for k, v in extra.items()}}
    print(f"{w.key} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} failed={runner.failed}")
    for name, (value, unit) in shown.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    (results / f"{stem}.json").write_text(json.dumps({
        "workload": w.key, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(numpy),
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "samples": samples}, indent=1) + "\n")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
