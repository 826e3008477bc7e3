"""Reference computations that validate the closed forms independently:
brute-force permutation-null enumeration, block-model population expectations
of the edge-count statistics, and extremum-location grids over all
misclassification patterns."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .genmodels import ConnectivityMatrix
from .graph import Graph, _integer
from .edgestats import within_counts

_REL_TOL = 1e-9


def enumerate_null_moments(g: Graph, m_x: int):
    """Exact permutation-null mean and population variance of R_w and R_d,
    by enumerating every assignment with ``m_x`` ones (N <= 12).

    Returns (mean_rw, var_rw, mean_rd, var_rd).
    """
    n = g.n_nodes
    if n > 12:
        raise ValueError("enumeration is limited to 12 nodes")
    m_x = _integer(m_x, "m_x")
    if not 2 <= m_x <= n - 2:
        raise ValueError("need 2 <= m_x <= N - 2")
    n_x = n - m_x
    rws = []
    rds = []
    lab = np.zeros(n, dtype=np.int8)
    for ones in combinations(range(n), m_x):
        lab[:] = 0
        lab[list(ones)] = 1
        r1, r2 = within_counts(g, lab)
        rws.append(((n_x - 1) * r1 + (m_x - 1) * r2) / (n - 2))
        rds.append(r1 - r2)
    rws = np.asarray(rws)
    rds = np.asarray(rds, dtype=np.float64)
    return (float(rws.mean()), float(rws.var()),
            float(rds.mean()), float(rds.var()))


def expected_edge_total(p: ConnectivityMatrix, m: int, n: int, directed: bool):
    """Expected total edge count of a planted block-model draw."""
    tot = (m * (m - 1) * p.p11 + m * n * (p.p12 + p.p21)
           + n * (n - 1) * p.p22)
    return tot if directed else 0.5 * tot


def _drifts(p: ConnectivityMatrix, m: int, n: int, d1, d2):
    """(rdc, rwc, d_condition, w_condition): the centered population
    statistics E(R_d - mu_d) and E(R_w - mu_w) in their factored closed
    forms, for scalar or array d1, d2, and their leading factors (ordered
    pairs; halve both statistics for an undirected graph)."""
    p11, p22 = p.p11, p.p22
    pc = p.p12 + p.p21
    big_n = m + n
    d_cond = 2 * (m - 1) * p11 - 2 * (n - 1) * p22 - (m - n) * pc
    w_cond = p11 + p22 - p.p12 - p.p21
    rdc = (m * n / big_n) * d_cond * (1 - d1 / m - d2 / n)
    rwc = (m * n * (m - 1) * (n - 1) / ((big_n - 1) * (big_n - 2))
           * w_cond
           * (1 + d1 ** 2 / (m * (m - 1)) + d2 ** 2 / (n * (n - 1))
              - (2 * m - 1) * d1 / (m * (m - 1))
              - (2 * n - 1) * d2 / (n * (n - 1))
              + 2 * d1 * d2 / (m * n)))
    return rdc, rwc, d_cond, w_cond


def expected_counts_sbm(p: ConnectivityMatrix, m: int, n: int,
                        d1: int, d2: int, directed: bool):
    """Population expectations under a planted block model when a candidate
    labeling misplaces d1 community-1 nodes and d2 community-0 nodes.

    Returns (e_r1, e_r2, rdc, rwc): the expected within counts and the
    expected centered statistics E(R_d - mu_d) and E(R_w - mu_w), the latter
    two in their factored closed forms.  Undirected values are the ordered
    forms halved (each unordered pair appears once), which requires a
    symmetric connectivity matrix.
    """
    if not 0 <= d1 <= m or not 0 <= d2 <= n:
        raise ValueError("need 0 <= d1 <= m and 0 <= d2 <= n")
    if not directed and not p.symmetric:
        raise ValueError("undirected expectations need p12 == p21")
    p11, p22 = p.p11, p.p22
    pc = p.p12 + p.p21

    e_r1 = ((m - d1) * (m - d1 - 1) * p11 + (m - d1) * d2 * pc
            + d2 * (d2 - 1) * p22)
    e_r2 = ((n - d2) * (n - d2 - 1) * p22 + (n - d2) * d1 * pc
            + d1 * (d1 - 1) * p11)
    rdc, rwc, _, _ = _drifts(p, m, n, d1, d2)
    scale = 1.0 if directed else 0.5
    return tuple(scale * v for v in (e_r1, e_r2, rdc, rwc))


@dataclass(frozen=True)
class TheoremGridReport:
    """Where the population statistics peak over all misclassification
    patterns (d1, d2), and whether that matches the advertised corners.

    d_condition / w_condition are the leading factors whose signs drive the
    statements: 2(m-1)P11 - 2(n-1)P22 - (m-n)(P12+P21) for the difference
    statistic, P11 + P22 - P12 - P21 for the weighted one.  The *_at_truth
    booleans say whether the grid extremum is attained at (0,0) or (m,n);
    they are None when the corresponding condition is zero (the statistic
    vanishes identically and the claim is vacuous).  Ratio variants divide by
    the group-size factor of the null standard deviation, which fixes the
    argmax because graph-level constants are positive multipliers.
    """
    d_condition: float
    w_condition: float
    d_raw_at_truth: bool | None
    d_ratio_at_truth: bool | None
    w_raw_at_truth: bool | None
    w_ratio_at_truth: bool | None
    d_ratio_argext: tuple[int, int] | None
    w_ratio_argext: tuple[int, int] | None

    @property
    def ok(self):
        return all(v is not False for v in (
            self.d_raw_at_truth, self.d_ratio_at_truth,
            self.w_raw_at_truth, self.w_ratio_at_truth))


def _extremum_at_corners(grid, corner_vals, maximize, scale):
    ext = np.nanmax(grid) if maximize else np.nanmin(grid)
    best_corner = max(corner_vals) if maximize else min(corner_vals)
    tol = _REL_TOL * (1.0 + abs(ext)) * scale
    if maximize:
        return bool(ext <= best_corner + tol)
    return bool(ext >= best_corner - tol)


def verify_theorem_2_3(p: ConnectivityMatrix, m: int, n: int) -> TheoremGridReport:
    """Grid-check the extremum claims for the centered population statistics.

    Evaluates rdc, rwc, and their ratios to the size-dependent null-sd shapes
    sqrt(m_x n_x) and sqrt(m_x n_x (m_x-1)(n_x-1)) over every (d1, d2), and
    reports whether the max (min, for a negative w-condition) sits at (0,0)
    or (m,n).  m, n <= 30.
    """
    m, n = _integer(m, "m"), _integer(n, "n")
    if m > 30 or n > 30:
        raise ValueError("grid verification is limited to m, n <= 30")
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")

    d1 = np.arange(m + 1, dtype=np.float64)[:, None]
    d2 = np.arange(n + 1, dtype=np.float64)[None, :]
    p11, p22 = p.p11, p.p22
    pc = p.p12 + p.p21
    big_n = m + n
    rdc, rwc, d_cond, w_cond = _drifts(p, m, n, d1, d2)

    m_x = m - d1 + d2
    n_x = big_n - m_x
    with np.errstate(divide="ignore", invalid="ignore"):
        shape_d = np.sqrt(m_x * n_x)
        shape_w = np.sqrt(m_x * n_x * (m_x - 1) * (n_x - 1))
        ratio_d = np.where(shape_d > 0, rdc / shape_d, np.nan)
        ratio_w = np.where(shape_w > 0, rwc / shape_w, np.nan)

    corners = [(0, 0), (m, n)]
    scale_d = abs(d_cond) * m * n / big_n + 1.0
    scale_w = abs(w_cond) * m * n + 1.0

    if abs(d_cond) < 1e-12 * (abs(p11) + abs(p22) + pc + 1.0) * big_n:
        d_raw = d_ratio = None
        d_arg = None
    else:
        d_raw = _extremum_at_corners(
            rdc, [rdc[i, j] for i, j in corners], True, scale_d)
        d_ratio = _extremum_at_corners(
            ratio_d, [ratio_d[i, j] for i, j in corners], True, scale_d)
        flat = np.nanargmax(ratio_d)
        d_arg = (int(flat // (n + 1)), int(flat % (n + 1)))

    if abs(w_cond) < 1e-12 * (abs(p11) + abs(p22) + pc + 1.0):
        w_raw = w_ratio = None
        w_arg = None
    else:
        maximize = w_cond > 0
        w_raw = _extremum_at_corners(
            rwc, [rwc[i, j] for i, j in corners], maximize, scale_w)
        w_ratio = _extremum_at_corners(
            ratio_w, [ratio_w[i, j] for i, j in corners], maximize, scale_w)
        flat = np.nanargmax(ratio_w) if maximize else np.nanargmin(ratio_w)
        w_arg = (int(flat // (n + 1)), int(flat % (n + 1)))

    return TheoremGridReport(
        d_condition=float(d_cond), w_condition=float(w_cond),
        d_raw_at_truth=d_raw, d_ratio_at_truth=d_ratio,
        w_raw_at_truth=w_raw, w_ratio_at_truth=w_ratio,
        d_ratio_argext=d_arg, w_ratio_argext=w_arg)
