"""Dense penalized likelihood: the reference the blocked sum in
``bicomm.selection`` must reproduce bit for bit.

Builds the full N x N probability matrix and adjacency; test-only.
"""

import numpy as np

from bicomm.edgestats import as_labels, within_counts
from bicomm.selection import (_CLAMP_EPS, estimate_block_probs,
                              theta_mle)


def dense_adjacency(g):
    """Boolean N x N adjacency (symmetric when undirected)."""
    a = np.zeros((g.n_nodes, g.n_nodes), dtype=bool)
    e = g.edges
    a[e[:, 0], e[:, 1]] = True
    if not g.directed:
        a[e[:, 1], e[:, 0]] = True
    return a


def reference_penalized_details(g, x, lam, kind):
    """``(value, clamp events)`` of ``_penalized_details`` from one dense
    N x N probability matrix."""
    lab = as_labels(x, g.n_nodes)
    est = estimate_block_probs(g, lab)
    th = theta_mle(g, lab)
    blocks = np.where(lab == 1, 0, 1)
    base = est.p_hat.as_array()[blocks[:, None], blocks[None, :]]
    probs = base * th.theta_hat[:, None] * th.theta_hat[None, :]

    n = g.n_nodes
    if g.directed:
        mask = ~np.eye(n, dtype=bool)
    else:
        mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    pvals = probs[mask]
    clamps = int(np.count_nonzero((pvals < _CLAMP_EPS)
                                  | (pvals > 1.0 - _CLAMP_EPS)))
    pvals = np.clip(pvals, _CLAMP_EPS, 1.0 - _CLAMP_EPS)
    avals = dense_adjacency(g)[mask]

    loglik = float(np.where(avals, np.log(pvals), np.log1p(-pvals)).sum())

    r1, r2 = within_counts(g, lab)
    if kind == "zd":
        penalty = lam * max(th.var_block1 * r1, th.var_block2 * r2)
    else:
        penalty = lam * (th.var_block1 + th.var_block2) * g.n_edges
    return loglik - penalty, clamps
