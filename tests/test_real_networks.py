"""Real networks with known two-group splits, exported from networkx by
``tools/export_networks.py`` into ``data/``.

These gate facts about the method at its defaults (20 restarts, seed 0),
not tuned targets.
"""

import os

import numpy as np
import pytest

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
