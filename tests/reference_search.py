"""Restart-by-restart greedy search and one-row-per-vector exhaustive
search: the references the lane kernel and the by-halves enumeration in
``bicomm.optimizer`` must reproduce bit for bit.

One Python loop per restart and one numpy sweep per accepted flip; one
Python loop over the edges across a (2^N, N) label matrix; test-only.
"""

import numpy as np

from bicomm.edgestats import (Partition, _degree_group_sums, _q_values,
                              as_labels, moment_arrays, within_counts)
from bicomm.graph import graph_constants
from bicomm.optimizer import (_IMPROVE_EPS, _Z_FAMILY, FitConfig, FitResult,
                              Objective, _random_valid_labels)


def _degenerate_everywhere(kind, tables, n_nodes, min_group):
    """Whether the null variance of ``kind`` is degenerate at every group
    size in [min_group, N - min_group], by the moment tables' flags."""
    flags = tables[5] if kind is Objective.ZD_MAX else tables[4]
    return bool(flags[min_group:n_nodes - min_group + 1].all())


def _z_values(kind, r1, r2, m, n_nodes, tables):
    """Objective values from within counts; works on scalars or arrays.
    Degenerate group sizes give 0 (-0.0 for ZW_MIN), invalid ones NaN."""
    mu_w, s_w, mu_d, s_d, deg_w, deg_d = tables
    m = np.asarray(m, dtype=np.intp)
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r2, dtype=np.float64)
    nx_ = n_nodes - m
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is Objective.ZD_MAX:
            z = (r1 - r2 - mu_d[m]) / s_d[m]
            z = np.where(deg_d[m] & ~np.isnan(mu_d[m]), 0.0, z)
        else:
            rw = ((nx_ - 1) * r1 + (m - 1) * r2) / (n_nodes - 2)
            z = (rw - mu_w[m]) / s_w[m]
            z = np.where(deg_w[m] & ~np.isnan(mu_w[m]), 0.0, z)
            if kind is Objective.ZW_MIN:
                z = -z
    return z


def reference_greedy_fit(g, obj, cfg=None):
    """``greedy_fit`` as one independent search per restart."""
    cfg = cfg if cfg is not None else FitConfig()
    n = g.n_nodes
    if n < 2 * cfg.min_group + 1:
        raise ValueError(
            f"need at least {2 * cfg.min_group + 1} nodes for any flip to be valid")
    if obj not in _Z_FAMILY and g.n_edges == 0:
        raise ValueError("modularity objectives need a non-empty graph")

    c = graph_constants(g)
    tables = moment_arrays(c) if obj in _Z_FAMILY else None
    max_iters = cfg.max_iters if cfg.max_iters is not None else n * n

    warm = None
    if cfg.warm_start is not None:
        warm = as_labels(cfg.warm_start, n).copy()
        mw = int(warm.sum())
        if not cfg.min_group <= mw <= n - cfg.min_group:
            raise ValueError("warm_start violates the minimum group size")

    if tables is not None and _degenerate_everywhere(obj, tables, n,
                                                     cfg.min_group):
        lab0 = warm if warm is not None else _random_valid_labels(
            np.random.default_rng(cfg.seed), n, cfg.min_group)
        return FitResult(labels=Partition(lab0), value=0.0,
                         restart_values=[0.0] * cfg.restarts, iterations=0,
                         restart_iterations=[0] * cfg.restarts,
                         degenerate=True, objective=obj)

    indptr, indices = g.incidence()
    inc_counts = np.diff(indptr)
    ends = np.repeat(np.arange(n), inc_counts)
    k_out = g.k_out.astype(np.float64)
    k_in = g.k_in.astype(np.float64)
    signed = obj is Objective.QD_MAX

    best_val = -np.inf
    best_lab = None
    restart_values = []
    restart_iterations = []

    for r in range(cfg.restarts):
        if r == 0 and warm is not None:
            lab = warm.copy()
        else:
            rng = np.random.default_rng(cfg.seed + r)
            lab = _random_valid_labels(rng, n, cfg.min_group)

        m1 = int(lab.sum())
        r1, r2 = within_counts(g, lab)
        in1 = (lab[indices] == 1).astype(np.float64)
        w1 = np.bincount(ends, weights=in1, minlength=n).astype(np.int64)
        w0 = inc_counts - w1
        if obj in _Z_FAMILY:
            cur = float(_z_values(obj, r1, r2, m1, n, tables))
        else:
            sel = lab == 1
            ko1 = float(k_out[sel].sum())
            ki1 = float(k_in[sel].sum())
            ko0 = float(k_out.sum() - ko1)
            ki0 = float(k_in.sum() - ki1)
            cur = float(_q_values(signed, r1, r2, ko1, ki1, ko0, ki0, g))

        iters = 0
        while iters < max_iters:
            is1 = lab == 1
            dr1 = np.where(is1, -w1, w1)
            dr2 = np.where(is1, w0, -w0)
            m_new = m1 + np.where(is1, -1, 1)
            r1n = r1 + dr1
            r2n = r2 + dr2
            valid = (m_new >= cfg.min_group) & (m_new <= n - cfg.min_group)
            if obj in _Z_FAMILY:
                vals = _z_values(obj, r1n, r2n, m_new, n, tables)
            else:
                ko1n = ko1 + np.where(is1, -k_out, k_out)
                ki1n = ki1 + np.where(is1, -k_in, k_in)
                vals = _q_values(signed, r1n, r2n, ko1n, ki1n,
                                 ko0 + ko1 - ko1n, ki0 + ki1 - ki1n, g)
            vals = np.where(valid, vals, -np.inf)
            vals = np.where(np.isnan(vals), -np.inf, vals)
            b = int(np.argmax(vals))
            bv = float(vals[b])
            if not np.isfinite(bv) or bv <= cur + _IMPROVE_EPS:
                break

            to_zero = lab[b] == 1
            r1 += int(dr1[b])
            r2 += int(dr2[b])
            m1 = int(m_new[b])
            if obj not in _Z_FAMILY:
                sgn = -1.0 if to_zero else 1.0
                ko1 += sgn * k_out[b]
                ki1 += sgn * k_in[b]
                ko0 -= sgn * k_out[b]
                ki0 -= sgn * k_in[b]
            nb = indices[indptr[b]:indptr[b + 1]]
            if to_zero:
                np.add.at(w1, nb, -1)
                np.add.at(w0, nb, 1)
                lab[b] = 0
            else:
                np.add.at(w1, nb, 1)
                np.add.at(w0, nb, -1)
                lab[b] = 1
            cur = bv
            iters += 1

        restart_values.append(cur)
        restart_iterations.append(iters)
        if cur > best_val:
            best_val = cur
            best_lab = lab.copy()

    return FitResult(labels=Partition(best_lab), value=float(best_val),
                     restart_values=restart_values,
                     iterations=sum(restart_iterations),
                     restart_iterations=restart_iterations,
                     degenerate=False, objective=obj)


def reference_exhaustive_fit(g, obj, min_group=2):
    """``exhaustive_fit`` as one row per label vector (N <= 16)."""
    n = g.n_nodes
    if n > 16:
        raise ValueError("exhaustive search is limited to 16 nodes")
    if min_group < 2:
        raise ValueError("min_group must be >= 2")
    if n < 2 * min_group:
        raise ValueError("no valid partition at this min_group")
    if obj not in _Z_FAMILY and g.n_edges == 0:
        raise ValueError("modularity objectives need a non-empty graph")

    shifts = np.arange(n - 1, -1, -1)
    vecs = ((np.arange(1 << n, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.int8)
    m = vecs.sum(axis=1, dtype=np.int64)
    valid = (m >= min_group) & (m <= n - min_group)

    r1 = np.zeros(1 << n, dtype=np.int64)
    r2 = np.zeros(1 << n, dtype=np.int64)
    for u, v in g.edges:
        a = vecs[:, u]
        b = vecs[:, v]
        r1 += a & b
        r2 += (1 - a) & (1 - b)

    degenerate = False
    if obj in _Z_FAMILY:
        tables = moment_arrays(graph_constants(g))
        vals = _z_values(obj, r1, r2, m, n, tables)
        degenerate = _degenerate_everywhere(obj, tables, n, min_group)
    else:
        vals = _q_values(obj is Objective.QD_MAX, r1, r2,
                         *_degree_group_sums(g, vecs), g)
    vals = np.where(valid, vals, -np.inf)
    b = int(np.argmax(vals))
    return FitResult(labels=Partition(vecs[b]), value=float(vals[b]),
                     restart_values=[float(vals[b])], iterations=0,
                     degenerate=degenerate, objective=obj)
