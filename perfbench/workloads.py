"""The benchmark's three workloads: inputs made from a pool index, one op,
and the check of each op's outputs.

Every workload is a closed loop with one client: op i+1 starts only after
op i has returned.  Inputs come from a numbered pool; a run's seed picks
where in the pool it starts, so the same seed always gives the same inputs.
Each op's outputs are reduced to a digest and compared with the digest
pinned for that pool entry in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bicomm import (CANDIDATE_KINDS, EvalRecord, Graph, Objective,
                    exhaustive_fit, graph_constants, misclassification_rate,
                    success_rate, z_d, z_w)
from bicomm import cli

# p11, p12, p21, p22 of the three mixing types in the paper's simulation
# study (acceptance criterion 9).
SIM_MATRICES = (
    ("assortative", (0.5, 0.3, 0.3, 0.5)),
    ("disassortative", (0.3, 0.5, 0.5, 0.3)),
    ("core-periphery", (0.6, 0.3, 0.3, 0.1)),
)
SIM_SETTINGS = tuple((directed, name, p, alpha)
                     for directed in (True, False)
                     for name, p in SIM_MATRICES
                     for alpha in (3, 6, 9))


class OpError(RuntimeError):
    """An op's outputs are wrong: a nonzero exit code, a degenerate
    selection or a broken invariant."""


@dataclass
class Checked:
    """What the check keeps of one op: its digest and, where the workload
    has a planted truth, the selected candidate's error and success."""
    digest: str
    eps_selected: float | None = None
    record: EvalRecord | None = None


def digest(parts):
    """Short hex digest of a sequence of strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def fit_parts(fits):
    """The fields of each FitResult that must stay bit-identical for a seed:
    labels, value, restart_values and iterations."""
    parts = []
    for kind in sorted(fits):
        f = fits[kind]
        parts += [kind, f.labels.labels.tobytes().hex(), float(f.value).hex(),
                  ",".join(float(v).hex() for v in f.restart_values),
                  f.iterations]
    return parts


def edge_lines(g):
    """The graph as edge-list text lines, node ids as tokens."""
    return [f"{u} {v}\n" for u, v in g.edges.tolist()]


def sparse_dcsbm(rng, m, n, p, alpha):
    """Directed two-block DCSBM edge list in O(N + E) memory.

    Node degree multipliers are mean-1 Pareto(alpha) draws.  For each
    ordered block pair (a, b) the number of edge draws is
    Poisson(p_ab * S_a * S_b), where S is the block's multiplier sum, and
    each draw picks its source in a and target in b with probability
    proportional to the multiplier.  Self-loops and repeats are dropped, so
    pair (i, j) gets an edge with probability 1 - exp(-theta_i theta_j p_ab),
    which is the Bernoulli DCSBM's theta_i theta_j p_ab on a sparse graph.
    Never allocates an N x N array.  Returns (edges sorted, truth) where
    truth[i] is 1 for the first m nodes.
    """
    total = m + n
    theta = (alpha - 1.0) / alpha * (rng.pareto(alpha, size=total) + 1.0)
    blocks = (np.arange(m), np.arange(m, total))
    cum = [np.cumsum(theta[b]) for b in blocks]
    src, dst = [], []
    for a in range(2):
        for b in range(2):
            draws = rng.poisson(p[2 * a + b] * cum[a][-1] * cum[b][-1])
            src.append(blocks[a][np.searchsorted(
                cum[a], rng.random(draws) * cum[a][-1], side="right")])
            dst.append(blocks[b][np.searchsorted(
                cum[b], rng.random(draws) * cum[b][-1], side="right")])
    s = np.concatenate(src)
    d = np.concatenate(dst)
    keep = s != d
    edges = np.unique(np.column_stack([s[keep], d[keep]]), axis=0)
    truth = np.concatenate([np.ones(m, dtype=np.int8),
                            np.zeros(n, dtype=np.int8)])
    return edges, truth


def run_cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise OpError(f"bicomm {argv[0]} exited with {code}")


def _eval_record(truth, fits, selected):
    eps = {k: misclassification_rate(truth, f.labels) for k, f in fits.items()}
    return eps[selected], EvalRecord(
        eps_criterion=eps[selected], eps_d=eps["zd"],
        eps_w_min=eps["zw-min"], eps_w_max=eps["zw-max"])


class Workload:
    """Interface shared by the three workloads.

    ``pool`` is the number of pinned entries, ``min_ops`` the ops a run
    always completes (the count metrics and ``mean_eps`` are taken over
    them, so they are exact for a seed), ``restarts`` the greedy restarts
    per candidate and ``uses_cli`` whether an op goes through
    ``bicomm.cli.main``.
    """
    name = ""
    uses_cli = False
    restarts = 0

    def __init__(self, tiny, work: Path):
        self.tiny = tiny
        self.work = work

    @property
    def key(self):
        return self.name + ("-tiny" if self.tiny else "")

    def entry(self, seed, i):
        """Pool entry of the run's op i."""
        return (self.stride * seed + i) % self.pool

    def setup(self, entry):
        """Generate whatever the ops on ``entry`` read."""

    def warm_up(self, entry, rec):
        """Run the op's code path once before timing."""
        self.op(self.prepare(entry), rec)

    def prepare(self, entry):
        raise NotImplementedError

    def op(self, inp, rec):
        raise NotImplementedError

    def check(self, entry, out, rec) -> Checked:
        raise NotImplementedError

    def context(self, inp, out, rec):
        """Graph and fitted candidates of an op, for the layer probes."""
        raise NotImplementedError

    @staticmethod
    def quality(checked):
        """mean_eps and success_rate over the run's first ops, where the
        workload has a planted truth."""
        found = {}
        eps = [c.eps_selected for c in checked if c.eps_selected is not None]
        if eps:
            found["mean_eps"] = sum(eps) / len(eps)
        records = [c.record for c in checked if c.record is not None]
        if records:
            found["success_rate"] = success_rate(records)
        return found


class SimN100(Workload):
    """One ``bicomm simulate --reps 1`` replicate per op, cycling through
    the 18 DCSBM settings of the simulation study."""
    name = "sim_n100"
    uses_cli = True

    def __init__(self, tiny, work):
        super().__init__(tiny, work)
        self.size = 8 if tiny else 50
        self.restarts = 3 if tiny else 20
        self.pool = len(SIM_SETTINGS) * (2 if tiny else 90)
        # a run starts a fresh cycle; ten seeds in a row share no input
        self.stride = 9 * len(SIM_SETTINGS)
        self.min_ops = len(SIM_SETTINGS)
        self.out = work / "sim.csv"

    def prepare(self, entry):
        directed, _, p, alpha = SIM_SETTINGS[entry % len(SIM_SETTINGS)]
        argv = ["simulate", "--model", "dcsbm",
                "--p11", str(p[0]), "--p12", str(p[1]),
                "--p21", str(p[2]), "--p22", str(p[3]),
                "--m", str(self.size), "--n", str(self.size),
                "--theta", f"pareto:{alpha}",
                "--directed" if directed else "--undirected",
                "--reps", "1", "--seed", str(entry // len(SIM_SETTINGS)),
                "--restarts", str(self.restarts), "--criterion", "penalized",
                "--out", str(self.out)]
        return argv

    def op(self, argv, rec):
        run_cli(argv)

    def check(self, entry, out, rec):
        csv_text = self.out.read_text(encoding="utf-8")
        planted = rec.last("genmodels.sample_dcsbm")
        fits = rec.last("optimizer.fit_all_candidates")
        outcome = rec.last("selection.penalized_select")
        if outcome is None or ",none," in csv_text:
            raise OpError("no candidate could be selected")
        eps, record = _eval_record(planted.truth, fits, outcome.selected)
        return Checked(digest(fit_parts(fits) + [csv_text]),
                       eps, record)

    def context(self, inp, out, rec):
        return (rec.last("genmodels.sample_dcsbm").graph,
                rec.last("optimizer.fit_all_candidates"))


class DetectN4000(Workload):
    """``bicomm detect --directed --restarts 1`` on one sparse directed
    DCSBM edge list per run; every op reads the same file."""
    name = "detect_n4000"
    uses_cli = True
    restarts = 1
    # p11, p12, p21, p22: mean degree 24, so about 96k edges at N = 4000
    P = (0.009, 0.003, 0.003, 0.009)
    ALPHA = 3.0

    def __init__(self, tiny, work):
        super().__init__(tiny, work)
        self.half = 100 if tiny else 2000
        self.pool = 2 if tiny else 16
        self.min_ops = 1
        self.edges = work / "detect.edges"
        self.out = work / "detect.json"
        self.truth = None

    def entry(self, seed, i):
        return seed % self.pool

    def _write(self, entry, half, path):
        p = tuple(v * 2000 / half for v in self.P)
        edges, truth = sparse_dcsbm(np.random.default_rng([4000, entry]),
                                    half, half, p, self.ALPHA)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u} {v}\n" for u, v in edges.tolist())
        return truth

    def setup(self, entry):
        self.truth = self._write(entry, self.half, self.edges)

    def warm_up(self, entry, rec):
        small = self.work / "warm.edges"
        self._write(0, 50, small)
        run_cli(["detect", "--edges", str(small), "--directed",
                 "--restarts", "1", "--out", str(self.out)])

    def prepare(self, entry):
        return ["detect", "--edges", str(self.edges), "--directed",
                "--restarts", str(self.restarts), "--out", str(self.out)]

    def op(self, argv, rec):
        run_cli(argv)

    def check(self, entry, out, rec):
        report = json.loads(self.out.read_text(encoding="utf-8"))
        report.pop("runtime_ms")
        truth = self.truth[np.array([int(t) for t in report["nodes"]])]
        eps = misclassification_rate(truth, np.array(report["labels"]))
        return Checked(digest([json.dumps(report, sort_keys=True)]), eps)

    def context(self, inp, out, rec):
        return (rec.last("graph.load_edge_list"),
                rec.last("optimizer.fit_all_candidates"))


class ExactN14(Workload):
    """Exhaustive search for all three candidates on one random N = 14
    graph, then Z_w and Z_d of 200 random valid splits."""
    name = "exact_n14"

    def __init__(self, tiny, work):
        super().__init__(tiny, work)
        self.n = 8 if tiny else 14
        self.splits = 20 if tiny else 200
        self.pool = 40 if tiny else 6000
        self.stride = 600
        self.min_ops = 1
        self.restarts = 3 if tiny else 20  # only the greedy probe uses it

    def prepare(self, entry):
        rng = np.random.default_rng([14, entry])
        n = self.n
        directed = entry % 2 == 0
        u = rng.random((n, n))
        if directed:
            adj = u < 0.3
            np.fill_diagonal(adj, False)
            edges = np.argwhere(adj)
        else:
            iu = np.triu_indices(n, k=1)
            hit = u[iu] < 0.3
            edges = np.column_stack([iu[0][hit], iu[1][hit]])
        splits = []
        for _ in range(self.splits):
            lab = np.zeros(n, dtype=np.int8)
            lab[rng.choice(n, size=int(rng.integers(2, n - 1)),
                           replace=False)] = 1
            splits.append(lab)
        return Graph(n, edges, directed), splits

    def op(self, inp, rec):
        g, splits = inp
        fit = rec.wrap(exhaustive_fit)
        fits = {k: fit(g, Objective(k)) for k in CANDIDATE_KINDS}
        c = rec.wrap(graph_constants)(g)
        zw = rec.wrap(z_w)
        zd = rec.wrap(z_d)
        scores = [(zw(g, lab, c), zd(g, lab, c)) for lab in splits]
        return fits, scores

    def check(self, entry, out, rec):
        fits, scores = out
        zw = np.array([s[0] for s in scores])
        zd = np.array([s[1] for s in scores])
        for kind, sampled in (("zw-max", zw), ("zw-min", -zw), ("zd", zd)):
            best = float(sampled.max())
            if fits[kind].value < best - 1e-9 * (1.0 + abs(best)):
                raise OpError(f"exhaustive {kind} value {fits[kind].value!r}"
                              f" below a sampled split's {best!r}")
        return Checked(digest(
            fit_parts(fits) + [float(v).hex() for v in zw]
            + [float(v).hex() for v in zd]))

    def context(self, inp, out, rec):
        return inp[0], out[0]


WORKLOADS = {w.name: w for w in (SimN100, DetectN4000, ExactN14)}
