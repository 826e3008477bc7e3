"""Golden corpus: the closed forms, block counts, exhaustive fits, the
``bicomm moments`` JSON and the demos' output, pinned bit for bit.

Floats are pinned as ``float.hex``, ints and flags as text.  A pin is the
token list itself, or its sha256 and length when the list is longer than
``INLINE`` tokens.  The pins in ``golden/corpus.json`` and the demo outputs
in ``golden/demos/`` were generated once from the code before the
one-formula-per-place refactor of ``edgestats``, ``optimizer``,
``selection``, ``oracle`` and ``cli``; the ``exhaustive_fit_wide`` pins
(N 13-16) were generated from the one-vector-per-row enumeration before
``exhaustive_fit`` split the nodes into halves; the ``cli_detect`` and
``cli_simulate`` pins were generated from the CLI before ``cli`` was reduced
to one code path per job.  Any later change to these outputs is a change of
behaviour, not of form.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bicomm.cli import main
from bicomm.edgestats import (modularity_q, moment_arrays, perm_null_moments,
                              q_d, within_counts)
from bicomm.genmodels import (ConnectivityMatrix, ThetaSpec, sample_dcsbm,
                              sample_sbm)
from bicomm.graph import Graph, graph_constants
from bicomm.optimizer import Objective, exhaustive_fit
from bicomm.oracle import expected_counts_sbm, verify_theorem_2_3
from bicomm.selection import estimate_block_probs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
INLINE = 64


def tok(v):
    if v is None:
        return "None"
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return float(v).hex()


def pin(tokens):
    if len(tokens) <= INLINE:
        return list(tokens)
    h = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()
    return {"sha256": h, "count": len(tokens)}


def random_graph(n, directed, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    np.fill_diagonal(a, False)
    if not directed:
        a = np.triu(a)
    return Graph(n, np.argwhere(a), directed)


def special_graphs():
    """K4, stars and cycles (degenerate null variances) and an empty graph."""
    k4 = [(i, j) for i in range(4) for j in range(4) if i < j]
    star = [(0, j) for j in range(1, 8)]
    cycle = [(i, (i + 1) % 7) for i in range(7)]
    return {
        "k4-u": Graph(4, k4, False),
        "k4-d": Graph(4, k4 + [(j, i) for i, j in k4], True),
        "star8-u": Graph(8, star, False),
        "star8-d": Graph(8, star, True),
        "cycle7-u": Graph(7, cycle, False),
        "cycle7-d": Graph(7, cycle, True),
        "empty6-u": Graph(6, [], False),
    }


def moment_graphs():
    graphs = special_graphs()
    for i, n in enumerate((5, 6, 8, 13, 21, 40, 77, 150, 300)):
        for directed in (False, True):
            density = min(0.6, 6.0 / n) if n > 20 else 0.4
            graphs[f"n{n}-{'d' if directed else 'u'}"] = random_graph(
                n, directed, density, seed=100 + 2 * i + directed)
    return graphs


def build_moments():
    out = {}
    for name, g in moment_graphs().items():
        c = graph_constants(g)
        n = g.n_nodes
        scalar = []
        for m in range(2, n - 1):
            mom = perm_null_moments(c, m, n - m)
            scalar += [tok(mom.mu_w), tok(mom.sigma_w), tok(mom.mu_d),
                       tok(mom.sigma_d), tok(mom.var_w), tok(mom.var_d),
                       tok(mom.degenerate_w), tok(mom.degenerate_d)]
        out[f"perm_null_moments/{name}"] = scalar
        out[f"moment_arrays/{name}"] = [tok(v) for arr in moment_arrays(c)
                                        for v in arr.tolist()]
    return out


MATRICES = {
    "assortative": (0.5, 0.3, 0.3, 0.5),
    "disassortative": (0.3, 0.5, 0.5, 0.3),
    "core-periphery": (0.6, 0.3, 0.3, 0.1),
    "flat": (0.2, 0.2, 0.2, 0.2),
    "sparse": (0.05, 0.01, 0.01, 0.03),
    "asymmetric": (0.4, 0.1, 0.3, 0.2),
    "zero-w": (0.7, 0.4, 0.5, 0.2),
}
SIZES = ((2, 2), (3, 5), (8, 4), (12, 12), (30, 17))


def build_oracle():
    out = {}
    for mname, vals in MATRICES.items():
        p = ConnectivityMatrix(*vals)
        for m, n in SIZES:
            for directed in (False, True):
                if not directed and not p.symmetric:
                    continue
                key = f"expected_counts_sbm/{mname}/{m}x{n}/{'d' if directed else 'u'}"
                out[key] = [tok(v) for d1 in range(m + 1) for d2 in range(n + 1)
                            for v in expected_counts_sbm(p, m, n, d1, d2, directed)]
            rep = verify_theorem_2_3(p, m, n)
            out[f"verify_theorem_2_3/{mname}/{m}x{n}"] = [
                tok(rep.d_condition), tok(rep.w_condition),
                tok(rep.d_raw_at_truth), tok(rep.d_ratio_at_truth),
                tok(rep.w_raw_at_truth), tok(rep.w_ratio_at_truth),
                str(rep.d_ratio_argext), str(rep.w_ratio_argext), tok(rep.ok)]
    return out


def count_cases():
    """(name, graph, labels) triples: seeded graphs, seeded labelings with
    groups of size 2 and up, and the special graphs."""
    graphs = dict(special_graphs())
    for i, n in enumerate((6, 11, 25, 60)):
        for directed in (False, True):
            graphs[f"n{n}-{'d' if directed else 'u'}"] = random_graph(
                n, directed, 0.3, seed=300 + 2 * i + directed)
    for name, g in graphs.items():
        n = g.n_nodes
        rng = np.random.default_rng(n)
        labelings = [np.r_[np.ones(2), np.zeros(n - 2)],
                     np.r_[np.zeros(n - 2), np.ones(2)]]
        for _ in range(4):
            lab = (rng.random(n) < 0.5).astype(np.int8)
            lab[:2], lab[-2:] = 1, 0
            labelings.append(lab)
        for k, lab in enumerate(labelings):
            yield f"{name}/{k}", g, np.asarray(lab, dtype=np.int8)


def build_counts():
    out = {}
    for name, g, lab in count_cases():
        out[f"within_counts/{name}"] = [tok(v) for v in within_counts(g, lab)]
        est = estimate_block_probs(g, lab)
        p = est.p_hat
        out[f"estimate_block_probs/{name}"] = [
            tok(v) for v in (p.p11, p.p12, p.p21, p.p22, *est.pi_hat, *est.sizes)]
        if g.n_edges:
            out[f"modularity_q/{name}"] = [tok(modularity_q(g, lab))]
            out[f"q_d/{name}"] = [tok(q_d(g, lab))]
    return out


def exhaustive_pins(section, graphs):
    out = {}
    for name, g in graphs.items():
        for obj in Objective:
            if obj.value in ("modularity", "qd") and g.n_edges == 0:
                continue
            for min_group in (2, 3):
                if g.n_nodes < 2 * min_group:
                    continue
                f = exhaustive_fit(g, obj, min_group=min_group)
                out[f"{section}/{name}/{obj.value}/{min_group}"] = [
                    f.labels.labels.tobytes().hex(), tok(f.value),
                    *[tok(v) for v in f.restart_values], tok(f.iterations),
                    tok(f.degenerate), f.objective.value]
    return out


def build_exhaustive():
    graphs = {k: v for k, v in special_graphs().items() if k != "k4-d"}
    for i, n in enumerate((5, 7, 9, 12)):
        for directed in (False, True):
            graphs[f"n{n}-{'d' if directed else 'u'}"] = random_graph(
                n, directed, 0.35, seed=500 + 2 * i + directed)
    return exhaustive_pins("exhaustive_fit", graphs)


def build_exhaustive_wide():
    """N 13-16, where the node set splits into two halves of 6-8 bits."""
    star = [(0, j) for j in range(1, 15)]
    graphs = {"empty14-u": Graph(14, [], False),
              "star15-u": Graph(15, star, False),
              "star15-d": Graph(15, star, True)}
    for i, n in enumerate((13, 14, 15, 16)):
        for directed in (False, True):
            graphs[f"n{n}-{'d' if directed else 'u'}"] = random_graph(
                n, directed, 0.3, seed=900 + 2 * i + directed)
    return exhaustive_pins("exhaustive_fit_wide", graphs)


def write_edges(workdir, name, g):
    """Edge-list file of ``g`` and the number of nodes the loader finds in
    it.  Node tokens are named in shuffled order, so the loader's renaming
    is pinned too."""
    edges = Path(workdir) / f"{name}.edges"
    perm = np.random.default_rng(g.n_nodes).permutation(g.n_nodes)
    tokens = [f"v{t}" for t in perm]
    lines = [f"{tokens[u]} {tokens[v]}" for u, v in g.edges.tolist()]
    edges.write_text("\n".join(lines) + "\n")
    return edges, len({t for ln in lines for t in ln.split()})


def build_cli_moments(workdir):
    out = {}
    graphs = dict(special_graphs())
    for i, n in enumerate((6, 14, 33)):
        for directed in (False, True):
            graphs[f"n{n}-{'d' if directed else 'u'}"] = random_graph(
                n, directed, 0.3, seed=700 + 2 * i + directed)
    for name, g in graphs.items():
        if g.n_edges == 0:
            continue
        edges, loaded_n = write_edges(workdir, name, g)
        lab = np.arange(loaded_n) % 2
        labels = Path(workdir) / f"{name}.labels"
        labels.write_text("\n".join(str(v) for v in lab) + "\n")
        report = Path(workdir) / f"{name}.json"
        argv = ["moments", "--edges", str(edges), "--labels", str(labels),
                "--directed" if g.directed else "--undirected",
                "--out", str(report)]
        code = main(argv)
        text = report.read_text(encoding="utf-8") if code == 0 else ""
        out[f"cli_moments/{name}"] = [str(code)] + text.splitlines()
    return out


def cli_run(argv, out):
    """Exit code, stderr and written file of one ``bicomm`` run, the file
    as its lines without the ``runtime_ms`` timing line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    lines = [ln for ln in text.splitlines()
             if not ln.startswith('  "runtime_ms": ')]
    return [str(code), err.getvalue()] + lines


def detect_graphs():
    """Planted, random and degenerate graphs for ``bicomm detect``."""
    rng = np.random.default_rng(2310)
    two_cliques = [(i, j) for b in (0, 5) for i in range(b, b + 5)
                   for j in range(i + 1, b + 5)]
    graphs = {
        "planted20-u": sample_sbm(ConnectivityMatrix(0.6, 0.1, 0.1, 0.6),
                                  10, 10, False, rng).graph,
        "planted19-d": sample_sbm(ConnectivityMatrix(0.1, 0.5, 0.4, 0.1),
                                  9, 10, True, rng).graph,
        "dc24-u": sample_dcsbm(ConnectivityMatrix(0.7, 0.3, 0.3, 0.1), 12, 12,
                               ThetaSpec.parse("pareto:2.5"), False, rng).graph,
        "dc30-d": sample_dcsbm(ConnectivityMatrix(0.5, 0.1, 0.2, 0.4), 15, 15,
                               ThetaSpec.parse("exp:2"), True, rng).graph,
        "cliques10-u": Graph(10, two_cliques, False),
        "complete6-d": Graph(6, [(i, j) for i in range(6) for j in range(6)
                                 if i != j], True),
        "path4-u": Graph(4, [(0, 1), (1, 2), (2, 3)], False),
    }
    for i, n in enumerate((14, 33)):
        for directed in (False, True):
            graphs[f"n{n}-{'d' if directed else 'u'}"] = random_graph(
                n, directed, 0.3, seed=800 + 2 * i + directed)
    return graphs


def detect_variants(tokens, bits):
    """Option lists of the pinned ``detect`` runs; ``tokens`` and ``bits``
    are label files of text tokens and of 0/1."""
    fast = ["--restarts", "3", "--seed", "5"]
    return {
        "auto": fast,
        "auto-default-restarts": [],
        "gamma-tau": fast + ["--criterion", "gamma-tau"],
        "lambda-0": fast + ["--lambda", "0"],
        "lambda-1e308": fast + ["--lambda", "1e308"],  # scores overflow: null
        **{method: fast + ["--method", method]
           for method in ("zw-max", "zw-min", "zd", "modularity", "qd")},
        "warm-tokens": fast + ["--warm-start", str(tokens)],
        "warm-bits-zd": fast + ["--method", "zd", "--warm-start", str(bits)],
    }


def build_cli_detect(workdir):
    out = {}
    workdir = Path(workdir)
    for name, g in detect_graphs().items():
        edges, loaded_n = write_edges(workdir, name, g)
        tokens = workdir / f"{name}.tokens"
        tokens.write_text("".join(("west\n", "east\n")[i % 3 == 0]
                                  for i in range(loaded_n)))
        bits = workdir / f"{name}.bits"
        bits.write_text("".join(f"{int(i < loaded_n // 2)}\n"
                                for i in range(loaded_n)))
        base = ["detect", "--edges", str(edges),
                "--directed" if g.directed else "--undirected"]
        for variant, extra in detect_variants(tokens, bits).items():
            out[f"cli_detect/{name}/{variant}"] = cli_run(
                base + extra, workdir / f"{name}.{variant}.json")
    return out


SIMULATE_CASES = {
    "sbm-u-assortative": (
        "sbm 0.7 0.2 0.2 0.6 const --undirected 3 penalized --lambda 0.5"),
    "sbm-d-asymmetric": "sbm 0.2 0.6 0.3 0.1 const --directed 3 gamma-tau",
    "sbm-u-flat": "sbm 0.3 0.3 0.3 0.3 const --undirected 3 penalized",
    "sbm-u-complete": "sbm 1 1 1 1 const --undirected 2 penalized",
    "sbm-d-complete": "sbm 1 1 1 1 const --directed 2 gamma-tau",
    "sbm-u-theta-ignored": "sbm 0.6 0.1 0.1 0.6 pareto --undirected 1 gamma-tau",
    "dcsbm-u-pareto": "dcsbm 0.6 0.2 0.2 0.1 pareto:3 --undirected 1 penalized",
    "dcsbm-d-exp": "dcsbm 0.1 0.4 0.5 0.2 exp:2 --directed 3 gamma-tau",
    "dcsbm-d-uniform": "dcsbm 0.5 0.2 0.1 0.4 uniform:0.5 --directed 3 penalized",
    "dcsbm-u-bad-theta": "dcsbm 0.6 0.2 0.2 0.1 pareto --undirected 1 penalized",
    "sbm-u-bad-p": "sbm 1.5 0.2 0.2 0.6 const --undirected 1 penalized",
}


def build_cli_simulate(workdir):
    out = {}
    for name, case in SIMULATE_CASES.items():
        (model, p11, p12, p21, p22, theta, direction, reps, crit,
         *extra) = case.split()
        argv = ["simulate", "--model", model, "--p11", p11, "--p12", p12,
                "--p21", p21, "--p22", p22, "--m", "8", "--n", "7",
                "--theta", theta, direction, "--reps", reps,
                "--criterion", crit, "--restarts", "3", "--seed", "11", *extra]
        out[f"cli_simulate/{name}"] = cli_run(
            argv, Path(workdir) / f"{name}.csv")
    return out


DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def demo_stdout(stem):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{stem}.py")],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          check=True)
    return proc.stdout


@pytest.fixture(scope="module")
def pinned():
    return json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))


def check(pinned, section, computed):
    want = {k: v for k, v in pinned.items() if k.split("/")[0] in section}
    assert sorted(computed) == sorted(want)
    changed = [k for k in computed if pin(computed[k]) != want[k]]
    assert not changed, f"{len(changed)} pinned outputs changed: {changed[:8]}"


def test_golden_moments(pinned):
    check(pinned, ("perm_null_moments", "moment_arrays"), build_moments())


def test_golden_oracle(pinned):
    check(pinned, ("expected_counts_sbm", "verify_theorem_2_3"), build_oracle())


def test_golden_counts(pinned):
    check(pinned, ("within_counts", "estimate_block_probs", "modularity_q",
                   "q_d"), build_counts())


def test_golden_exhaustive(pinned):
    check(pinned, ("exhaustive_fit",), build_exhaustive())


def test_golden_exhaustive_wide(pinned):
    check(pinned, ("exhaustive_fit_wide",), build_exhaustive_wide())


def test_golden_cli_moments(pinned, tmp_path):
    check(pinned, ("cli_moments",), build_cli_moments(tmp_path))


def test_golden_cli_detect(pinned, tmp_path):
    check(pinned, ("cli_detect",), build_cli_detect(tmp_path))


def test_golden_cli_simulate(pinned, tmp_path):
    check(pinned, ("cli_simulate",), build_cli_simulate(tmp_path))


@pytest.mark.parametrize("stem", DEMOS)
def test_golden_demo_stdout(stem):
    want = (GOLDEN / "demos" / f"{stem}.txt").read_text(encoding="utf-8")
    assert demo_stdout(stem) == want
