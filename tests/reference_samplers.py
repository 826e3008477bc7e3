"""The samplers' former edge extraction, one path per direction: the
reference the single dense-draw path in ``bicomm.genmodels`` must reproduce
bit for bit.

Directed draws keep the ``argwhere`` of the full comparison; undirected
draws gather the strict upper triangle through ``triu_indices``; test-only.
"""

import numpy as np

from bicomm.edgestats import Partition
from bicomm.genmodels import PlantedGraph
from bicomm.graph import Graph


def _planted_probs(p, m, n, thetas):
    blocks = np.concatenate([np.zeros(m, dtype=np.intp),
                             np.ones(n, dtype=np.intp)])
    pm = p.as_array()
    base = pm[blocks[:, None], blocks[None, :]]
    probs = base * thetas[:, None] * thetas[None, :]
    np.fill_diagonal(probs, 0.0)
    clamped = int(np.count_nonzero(probs > 1.0))
    return np.minimum(probs, 1.0), clamped


def reference_sample_planted(p, m, n, thetas, directed, rng):
    """``genmodels._sample_planted`` as it was before the one-path draw."""
    m = int(m)
    n = int(n)
    if m < 2 or n < 2:
        raise ValueError("each community needs at least 2 nodes")
    if not directed and not p.symmetric:
        raise ValueError("undirected sampling needs p12 == p21")
    total = m + n
    probs, clamped = _planted_probs(p, m, n, thetas)
    u = rng.random((total, total))
    if directed:
        adj = u < probs
        np.fill_diagonal(adj, False)
        edges = np.argwhere(adj)
    else:
        iu = np.triu_indices(total, k=1)
        hit = u[iu] < probs[iu]
        edges = np.column_stack([iu[0][hit], iu[1][hit]])
        # clamping was counted over ordered pairs; undirected pairs appear once
        clamped //= 2
    truth = Partition(np.concatenate([np.ones(m, dtype=np.int8),
                                      np.zeros(n, dtype=np.int8)]))
    return PlantedGraph(graph=Graph(total, edges, directed),
                        truth=truth, thetas=thetas, clamped_pairs=clamped)
