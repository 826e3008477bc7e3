"""Real networks with known two-group splits, exported from networkx by
``tools/export_networks.py`` into ``data/``.

These gate facts about the method at its defaults (20 restarts, seed 0;
karate at 200 restarts as well), not tuned targets.
"""

import json
import os

import numpy as np
import pytest

from bicomm.cli import main
from bicomm.edgestats import z_w
from bicomm.evaluation import misclassification_rate
from bicomm.graph import load_edge_list
from bicomm.optimizer import FitConfig, fit_all_candidates
from bicomm.selection import gamma_tau_select, penalized_select

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def load_network(name):
    g = load_edge_list(os.path.join(DATA, f"{name}.edges"), directed=False)
    with open(os.path.join(DATA, f"{name}.labels"), encoding="utf-8") as fh:
        truth = np.array([int(line) for line in fh if line.strip()],
                         dtype=np.int8)
    assert truth.size == g.n_nodes
    return g, truth


@pytest.fixture(scope="module")
def davis():
    g, truth = load_network("davis")
    return g, truth, fit_all_candidates(g, FitConfig())


def test_davis_shape(davis):
    g, truth, _ = davis
    assert (g.n_nodes, g.n_edges, g.directed) == (32, 89, False)
    assert int(truth.sum()) == 14  # events; the 18 women are 0


def test_davis_zw_min_recovers_the_two_modes(davis):
    """The women-event graph is bipartite, so the disassortative fit
    recovers its two modes exactly; the other two candidates do not."""
    g, truth, cands = davis
    errors = {kind: misclassification_rate(truth, fit.labels)
              for kind, fit in cands.items()}
    assert errors["zw-min"] == 0.0
    assert errors["zw-max"] > 0.4 and errors["zd"] > 0.4


@pytest.mark.parametrize("lam", [0.0, 0.12, 0.5, 1.0])
def test_davis_penalized_selects_zw_min(davis, lam):
    g, _, cands = davis
    assert penalized_select(g, cands, lam).selected == "zw-min"


def test_davis_gamma_tau_selects_zw_min(davis):
    g, _, cands = davis
    assert gamma_tau_select(g, cands).selected == "zw-min"


@pytest.fixture(scope="module", params=[20, 200], ids=lambda r: f"r{r}")
def karate(request):
    g, truth = load_network("karate")
    return g, truth, fit_all_candidates(g, FitConfig(restarts=request.param))


def test_karate_shape(karate):
    g, truth, _ = karate
    assert (g.n_nodes, g.n_edges, g.directed) == (34, 78, False)
    assert int(truth.sum()) == 17  # "Officer"; the 17 of "Mr. Hi" are 0


def test_karate_candidates_miss_the_factions(karate):
    """No candidate recovers the two clubs: counted in nodes of 34."""
    g, truth, cands = karate
    errors = {kind: round(34 * misclassification_rate(truth, fit.labels))
              for kind, fit in cands.items()}
    assert errors == {"zw-max": 11, "zw-min": 15, "zd": 16}


def test_karate_zw_max_optimum_lies_above_the_factions(karate):
    """zw-max's optimum (a dense group around node 0) scores above the
    clubs' own Z_w, so more search cannot reach the clubs."""
    g, truth, cands = karate
    assert round(cands["zw-max"].value, 4) == 8.1914
    assert round(z_w(g, truth), 4) == 7.8748


@pytest.mark.parametrize("lam", [0.0, 0.12, 0.5, 1.0])
def test_karate_penalized_selects_zd(karate, lam):
    g, _, cands = karate
    assert penalized_select(g, cands, lam).selected == "zd"


def test_karate_gamma_tau_selects_zd(karate):
    g, _, cands = karate
    assert gamma_tau_select(g, cands).selected == "zd"


@pytest.mark.parametrize("restarts", [20, 200])
def test_karate_modularity_nearly_recovers_the_factions(tmp_path, restarts):
    """``detect --method modularity`` splits the clubs with 2 errors."""
    out = tmp_path / "karate.json"
    code = main(["detect", "--edges", os.path.join(DATA, "karate.edges"),
                 "--undirected", "--method", "modularity",
                 "--restarts", str(restarts), "--out", str(out)])
    assert code == 0
    labels = json.loads(out.read_text())["labels"]
    _, truth = load_network("karate")
    assert round(34 * misclassification_rate(truth, labels)) == 2
