"""Command-line surface: community detection on edge lists, simulation
sweeps, labeling evaluation, and statistic dumps.

Exit codes: 0 success, 2 usage/parameter error, 3 input-format error,
4 everything-degenerate (no statistic carried any signal).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .edgestats import (Partition, modularity_q, perm_null_moments, q_d, r_d,
                        r_w, within_counts, z_d, z_w)
from .evaluation import EvalRecord, misclassification_rate
from .genmodels import (ConnectivityMatrix, ThetaSpec, replicate_rngs,
                        sample_dcsbm)
from .graph import GraphFormatError, graph_constants, load_edge_list
from .optimizer import FitConfig, Objective, fit_all_candidates, greedy_fit
from .selection import (DEFAULT_LAMBDA, DegenerateError, check_lambda,
                        gamma_tau_select, penalized_select)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_DEGENERATE = 4

_MODULARITY_NOTE = ("Q sums A_ij minus the degree-product rate over ordered "
                    "same-community pairs including the diagonal term of the "
                    "product; directed graphs use out/in degree products "
                    "over |G|.")


def _read_labels(path, n_expected=None):
    """0/1 labels of a label file: one token per line, blank and ``#`` lines
    skipped; a leading UTF-8 byte-order mark is dropped.  The file must hold
    exactly two distinct tokens; the lexicographically smaller one becomes
    community 0, so 0/1 read as is."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        tokens = [ln.strip() for ln in fh
                  if ln.strip() and not ln.strip().startswith("#")]
    if not tokens:
        raise GraphFormatError(f"{path}: empty label file")
    distinct = sorted(set(tokens))
    if len(distinct) != 2:
        if set(distinct) <= {"0", "1"}:
            raise GraphFormatError(f"{path}: need both labels present")
        raise GraphFormatError(
            f"{path}: expected exactly two distinct label tokens, "
            f"got {len(distinct)}")
    lab = np.array([t == distinct[1] for t in tokens], dtype=np.int8)
    if n_expected is not None and lab.size != n_expected:
        raise GraphFormatError(
            f"{path}: {lab.size} labels for a graph with {n_expected} nodes")
    return lab


def _read_partition(path, n_nodes):
    """The labels of ``path`` as a Partition of an ``n_nodes`` graph, with
    at least 2 nodes in each group (the null variance needs them)."""
    part = Partition(_read_labels(path, n_nodes))
    if min(part.m_x, part.n_x) < 2:
        raise GraphFormatError("labels must put at least 2 nodes in each group")
    return part


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload):
    # strict JSON: a non-finite float that reaches here is a fault, not data
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _graph_report(command, g, c):
    """The report fields that ``detect`` and ``moments`` share."""
    return {
        "command": command,
        "directed": g.directed,
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "nodes": list(g.node_names),
        "graph_constants": {"g_size": c.g_size, "q1": c.q1, "q2": c.q2},
    }


def _select(g, candidates, args):
    """The mixing-type criterion ``args.criterion`` applied to the fits."""
    if args.criterion == "penalized":
        return penalized_select(g, candidates, lam=args.lam)
    return gamma_tau_select(g, candidates)


def _criterion_scores(outcome):
    s = outcome.scores
    if outcome.criterion == "penalized":
        # a huge finite lambda overflows a penalty to -inf: written as null
        return {"pen_loglik": {k: None if v == -math.inf else v
                               for k, v in s.pen_loglik.items()},
                "clamp_events": outcome.clamp_events}
    return {"n_gamma_sq": s.n_gamma_sq, "n_tau_sq_max": s.n_tau_sq_max,
            "n_tau_sq_min": s.n_tau_sq_min}


def _candidate_payload(g, c, fit):
    part = fit.labels
    return {
        "labels": part.labels.tolist(),
        "objective_value": fit.value,
        "degenerate": fit.degenerate,
        "group_sizes": [part.m_x, part.n_x],
        "iterations": fit.iterations,
        "restart_values": fit.restart_values,
        "z_w": z_w(g, part, c),
        "z_d": z_d(g, part, c),
    }


def cmd_detect(args):
    t0 = time.perf_counter()
    g = load_edge_list(args.edges, args.directed)
    warm = None
    if args.warm_start:
        warm = _read_partition(args.warm_start, g.n_nodes)
    cfg = FitConfig(restarts=args.restarts, seed=args.seed, warm_start=warm)
    if g.n_nodes < 2 * cfg.min_group + 1:
        raise GraphFormatError(
            f"graph too small: {g.n_nodes} distinct nodes (the search needs "
            f"at least {2 * cfg.min_group + 1})")
    c = graph_constants(g)

    report = _graph_report("detect", g, c)
    report.update({"duplicate_edges_dropped": g.duplicate_edges,
                   "method": args.method, "seed": args.seed,
                   "restarts": args.restarts, "criterion": None,
                   "lambda": None, "scores": None, "tie": False})
    exit_code = EXIT_OK
    if args.method == "auto":
        candidates = fit_all_candidates(g, cfg)
        outcome = _select(g, candidates, args)
        selected = outcome.selected
        report.update({"criterion": outcome.criterion,
                       "lambda": outcome.scores.lam,
                       "scores": _criterion_scores(outcome),
                       "tie": outcome.tied,
                       "excluded": list(outcome.excluded)})
    else:
        fit = greedy_fit(g, Objective(args.method), cfg)
        candidates = {args.method: fit}
        selected = args.method
        if fit.degenerate:
            exit_code = EXIT_DEGENERATE
        if args.method in ("modularity", "qd"):
            report["notes"] = {"modularity_convention": _MODULARITY_NOTE}

    report["candidates"] = {k: _candidate_payload(g, c, f)
                            for k, f in candidates.items()}
    report["selected"] = selected
    for key in ("labels", "group_sizes"):
        report[key] = report["candidates"][selected][key]
    report["runtime_ms"] = (time.perf_counter() - t0) * 1000.0

    _emit(_json_dump(report), args.out)
    return exit_code


def cmd_moments(args):
    g = load_edge_list(args.edges, args.directed)
    part = _read_partition(args.labels, g.n_nodes)
    c = graph_constants(g)
    m_x, n_x = part.m_x, part.n_x
    mom = perm_null_moments(c, m_x, n_x)
    r1, r2 = within_counts(g, part)
    payload = _graph_report("moments", g, c)
    payload.update({
        "labels": part.labels.tolist(),
        "group_sizes": [m_x, n_x],
        "r1": r1,
        "r2": r2,
        "r_w": r_w(g, part),
        "r_d": r_d(g, part),
        "mu_w": mom.mu_w,
        "sigma_w": mom.sigma_w,
        "mu_d": mom.mu_d,
        "sigma_d": mom.sigma_d,
        "degenerate_w": mom.degenerate_w,
        "degenerate_d": mom.degenerate_d,
        "z_w": z_w(g, part, c),
        "z_d": z_d(g, part, c),
        # the loader demands 4 nodes, so there are edges and Q is defined
        "q": modularity_q(g, part),
        "q_d": q_d(g, part),
        "notes": {"modularity_convention": _MODULARITY_NOTE},
    })
    _emit(_json_dump(payload), args.out)
    return EXIT_OK


def cmd_eval(args):
    truth = _read_labels(args.truth)
    est = _read_labels(args.est)
    if truth.size != est.size:
        raise GraphFormatError("truth and estimate files differ in length")
    rate = misclassification_rate(truth, est)
    sys.stdout.write(f"{rate:.6f}\n")
    return EXIT_OK


_CSV_COLUMNS = ("rep", "eps_zw_max", "eps_zw_min", "eps_zd",
                "selected", "eps_selected", "success")


def _simulate_one(args, p, theta, rep):
    """Replicate ``rep``: sample, fit, select; its CSV row in
    ``_CSV_COLUMNS`` order.  ``theta`` is the constant spec for the plain
    SBM, the DCSBM with theta = 1."""
    rng, fit_seed = replicate_rngs(args.seed, rep)
    pg = sample_dcsbm(p, args.m, args.n, theta, args.directed, rng)
    cfg = FitConfig(restarts=args.restarts, seed=fit_seed)
    candidates = fit_all_candidates(pg.graph, cfg)
    eps = {kind: misclassification_rate(pg.truth, fit.labels)
           for kind, fit in candidates.items()}
    row = (rep, eps["zw-max"], eps["zw-min"], eps["zd"])
    try:
        selected = _select(pg.graph, candidates, args).selected
    except DegenerateError:
        return row + ("none", float("nan"), 0)
    record = EvalRecord(eps_criterion=eps[selected], eps_d=eps["zd"],
                        eps_w_min=eps["zw-min"], eps_w_max=eps["zw-max"])
    return row + (selected, eps[selected], int(record.success))


def cmd_simulate(args):
    p = ConnectivityMatrix(args.p11, args.p12, args.p21, args.p22)
    theta = (ThetaSpec.parse(args.theta) if args.model == "dcsbm"
             else ThetaSpec.constant1())
    if args.m < 2 or args.n < 2:
        raise ValueError("need m, n >= 2")
    if args.reps < 1:
        raise ValueError("need reps >= 1")
    if args.jobs < 1:
        raise ValueError("need jobs >= 1")

    one = functools.partial(_simulate_one, args, p, theta)
    # the pool starts every worker at its first submit, so none idle
    workers = min(args.jobs, args.reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, range(args.reps)))  # in rep order
    else:
        rows = [one(rep) for rep in range(args.reps)]

    cols = list(zip(*rows))
    mean = ("mean", *map(np.mean, cols[1:4]), "", *map(np.mean, cols[5:]))
    lines = [",".join(_CSV_COLUMNS)]
    for row in rows + [mean]:
        lines.append(",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                              for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _checked(convert, check):
    """argparse type: ``convert`` the text, then ``check`` the value while
    the arguments are parsed, so a bad value stops before any load, sample
    or fit.  A text ``convert`` refuses gets argparse's "invalid <type>
    value" message."""
    def parse(text):
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = convert.__name__  # argparse names the type by it
    return parse


_LAMBDA = _checked(float, check_lambda)
_RESTARTS = _checked(int, lambda v: FitConfig(restarts=v))
_SEED = _checked(int, lambda v: FitConfig(seed=v))


def _add_directedness(cmd):
    grp = cmd.add_mutually_exclusive_group(required=True)
    grp.add_argument("--directed", dest="directed", action="store_true",
                     help="treat edges as ordered pairs")
    grp.add_argument("--undirected", dest="directed", action="store_false",
                     help="treat edges as unordered pairs")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bicomm",
        description="Two-community detection via standardized edge-count "
                    "statistics on directed and undirected graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("detect", help="detect two communities in an edge list")
    d.add_argument("--edges", required=True, help="edge-list file")
    _add_directedness(d)
    d.add_argument("--method", default="auto",
                   choices=["auto", "zw-max", "zw-min", "zd",
                            "modularity", "qd"])
    d.add_argument("--criterion", default="penalized",
                   choices=["penalized", "gamma-tau"],
                   help="mixing-type criterion used when --method auto")
    d.add_argument("--lambda", dest="lam", type=_LAMBDA,
                   default=DEFAULT_LAMBDA,
                   help="penalized-likelihood tuning parameter")
    d.add_argument("--restarts", type=_RESTARTS, default=20)
    d.add_argument("--seed", type=_SEED, default=0)
    d.add_argument("--warm-start", help="label file seeding restart 0")
    d.add_argument("--out", help="write the JSON report here (default stdout)")
    d.set_defaults(func=cmd_detect)

    s = sub.add_parser("simulate", help="run planted-model replicates to CSV")
    s.add_argument("--model", required=True, choices=["sbm", "dcsbm"])
    for name in ("p11", "p12", "p21", "p22"):
        s.add_argument(f"--{name}", type=float, required=True)
    s.add_argument("--m", type=int, required=True, help="community-1 size")
    s.add_argument("--n", type=int, required=True, help="community-0 size")
    s.add_argument("--theta", default="const",
                   help="const | pareto:SHAPE | uniform:LOW | exp:RATE")
    _add_directedness(s)
    s.add_argument("--reps", type=int, default=1)
    s.add_argument("--seed", type=_SEED, default=0)
    s.add_argument("--criterion", default="penalized",
                   choices=["penalized", "gamma-tau"])
    s.add_argument("--lambda", dest="lam", type=_LAMBDA,
                   default=DEFAULT_LAMBDA)
    s.add_argument("--restarts", type=_RESTARTS, default=20)
    s.add_argument("--jobs", type=int, default=1,
                   help="replicates run concurrently; rows stay ordered")
    s.add_argument("--out", help="write the CSV here (default stdout)")
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("eval", help="misclassification rate of two label files")
    e.add_argument("--truth", required=True)
    e.add_argument("--est", required=True)
    e.set_defaults(func=cmd_eval)

    mo = sub.add_parser("moments",
                        help="dump the statistics of one labeled graph")
    mo.add_argument("--edges", required=True)
    mo.add_argument("--labels", required=True)
    _add_directedness(mo)
    mo.add_argument("--out")
    mo.set_defaults(func=cmd_moments)

    return parser


# built on the first call of main, not at import, and reused by later calls
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (GraphFormatError, OSError, UnicodeDecodeError) as exc:
        # before the ValueError clause: GraphFormatError and UnicodeDecodeError
        # are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DegenerateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
