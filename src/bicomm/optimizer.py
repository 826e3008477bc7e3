"""Multi-restart greedy single-flip search over two-community partitions,
plus an exhaustive search for small-graph validation."""

from __future__ import annotations

import enum
import multiprocessing
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .edgestats import (Partition, _degree_group_sums, _q_values, as_labels,
                        modularity_q, moment_arrays, q_d, within_counts, z_d,
                        z_w)
from .graph import Graph, _edge_keys, graph_constants

_IMPROVE_EPS = 1e-12  # strict improvement threshold: no cycling on plateaus
_CHECK_EVERY = 100    # incremental bookkeeping audited against full recounts
# Up to this many nodes the lane search keeps incident-edge counts in one
# dense N x N matrix and updates a flip's neighbours by one row gather;
# above it, by a walk of the CSR incidence lists.  Measured on a 2-core host
# with 60-lane fits (20 restarts) of directed and undirected DCSBM graphs,
# as dense / CSR fit time: 0.78-0.99 at N 100-128 for mean incident degrees
# 8-58; 0.97-1.03 at N 144-192 for degrees 10-16; 1.2-1.4 at N 200-256 for
# degrees 24-38, where the O(N) row work per lane outgrows the fixed call
# overhead of the CSR walk.  The matrix is 128 KB at the cutoff.
_DENSE_MAX_N = 128
# From this many nodes up, fit_all_candidates and penalized_select work on
# one candidate per process: the caller's own and two forked workers.
# Measured on a 2-core host as forked / serial time of the fit plus the
# penalized selection, medians of 5-7 alternating runs on directed and
# undirected DCSBM graphs of mean degree 24: at 1 restart 1.1-3.2 for N
# 200-1,500, 0.99-1.08 at N 2,000, 0.79-0.91 at N 3,000 and 0.71-0.75 at N
# 4,000; at 20 restarts 1.5-1.9 at N 200, 0.62-0.87 at N 500, 0.61-0.65 at
# N 1,000 and 0.45-0.48 at N 2,000.  A fork round costs 6-8 ms, and three
# one-candidate searches each pay the per-step call overhead that the
# joint search pays once, so the gate sits at the 1-restart crossover.
_FORK_MIN_N = 2000


class Objective(enum.Enum):
    """A statistic paired with a search direction.

    ZW_MIN is run as maximization of -Z_w; every kind is a maximization
    internally, and ``FitResult.value`` is the maximized quantity (so it is
    -Z_w for ZW_MIN).
    """
    ZW_MAX = "zw-max"
    ZW_MIN = "zw-min"
    ZD_MAX = "zd"
    Q_MAX = "modularity"
    QD_MAX = "qd"


_Z_FAMILY = (Objective.ZW_MAX, Objective.ZW_MIN, Objective.ZD_MAX)


@dataclass(frozen=True)
class FitConfig:
    """Search knobs.

    restarts  : independent random initializations (restart r is seeded with
                seed + r, so runs are order-independent)
    min_group : smallest group size any visited partition may have (>= 2;
                the null variance of R_w needs two nodes on each side)
    warm_start: optional partition used in place of the random start of
                restart 0
    max_iters : per-restart flip cap; defaults to N^2
    """
    restarts: int = 20
    seed: int = 0
    min_group: int = 2
    warm_start: Partition | None = None
    max_iters: int | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.min_group < 2:
            raise ValueError("min_group must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_iters is not None and self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass
class FitResult:
    """Outcome of a search.

    value is the maximized objective at ``labels`` and equals
    max(restart_values); restart_iterations counts accepted flips per
    restart, in restart order, and iterations is their sum.
    A degenerate result means the objective carried no signal anywhere
    (zero null variance for every reachable group size): value is 0 and
    labels are just the initial partition.
    """
    labels: Partition
    value: float
    restart_values: list[float] = field(default_factory=list)
    iterations: int = 0
    degenerate: bool = False
    objective: Objective | None = None
    restart_iterations: list[int] = field(default_factory=list)


def _fresh_value(g, lab, obj, c):
    """From-scratch objective evaluation (used for bookkeeping audits and
    the returned value's final verification)."""
    if obj is Objective.ZW_MAX:
        return z_w(g, lab, c)
    if obj is Objective.ZW_MIN:
        return -z_w(g, lab, c)
    if obj is Objective.ZD_MAX:
        return z_d(g, lab, c)
    if obj is Objective.Q_MAX:
        return modularity_q(g, lab)
    return q_d(g, lab)


def _random_valid_labels(rng, n, min_group):
    # fair-coin labels, rejection-resampled until both groups are big enough
    while True:
        lab = (rng.random(n) < 0.5).astype(np.int8)
        m = int(lab.sum())
        if min_group <= m <= n - min_group:
            return lab


def _all_degenerate(obj, tables, n, min_group):
    if obj not in _Z_FAMILY:
        return False
    flags = tables[5] if obj is Objective.ZD_MAX else tables[4]
    ms = np.arange(min_group, n - min_group + 1)
    return bool(np.all(flags[ms]))


def _z_coefficients(objs, tables, n, min_group):
    """Flip-pricing tables of Z objectives, one block of N + 3 slots per
    objective, slot 1 + m holding group size m after the flip.

    A flip's value is ((A R1 + B R2) / C - mu) / sd with R1, R2 the counts
    after it: Z_w has A = N - m - 1, B = m - 1, C = N - 2 and Z_d has
    A = 1, B = -1, C = 1; ZW_MIN divides by -sd.  A degenerate size gets
    A = B = mu = 0 and sd = +-1, so the value is a signed 0, and a size
    outside [min_group, N - min_group] gets mu = +inf, so the value is -inf.
    This is the search's only coding of Z from counts (``edgestats._z``
    codes it for ``z_w``/``z_d``), and it matches that scalar coding bit for
    bit: IEEE arithmetic gives 1 R1 + (-1) R2 = R1 - R2 and
    x / (-y) = -(x / y) exactly.
    Returns (A, B, mu, sd) and the per-objective C.
    """
    mu_w, s_w, mu_d, s_d, deg_w, deg_d = tables
    m = np.arange(-1, n + 2)
    mc = np.clip(m, 0, n)
    valid = (m >= min_group) & (m <= n - min_group)
    blocks, scales = [], []
    for obj in objs:
        if obj is Objective.ZD_MAX:
            a, b = np.ones(m.size), np.full(m.size, -1.0)
            mu, sd, deg, scale = mu_d[mc], s_d[mc], deg_d[mc] & valid, 1.0
        else:
            a, b = (n - m - 1).astype(np.float64), (m - 1).astype(np.float64)
            mu, sd, deg, scale = mu_w[mc], s_w[mc], deg_w[mc] & valid, n - 2.0
        sign = -1.0 if obj is Objective.ZW_MIN else 1.0
        live = valid & ~deg
        blocks.append((np.where(live, a, 0.0), np.where(live, b, 0.0),
                       np.where(live, mu, np.where(deg, 0.0, np.inf)),
                       np.where(live, sign * sd, np.where(deg, sign, 1.0))))
        scales.append(scale)
    return tuple(np.concatenate(t) for t in zip(*blocks)), np.array(scales)


def _z_at(coef, scale, slot, r1, r2):
    """((A R1 + B R2) / C - mu) / sd at table slot(s) ``slot``, in the
    operation order of the lane kernel's flip pricing."""
    a, b, mu, sd = coef
    return ((a[slot] * r1 + b[slot] * r2) / scale - mu[slot]) / sd[slot]


class _Lanes:
    """Search state of the lanes still running, one row per (objective,
    restart) pair.

    (L, N) rows: ``sg`` is +1 for a node labelled 0 and -1 for a node
    labelled 1, which is the change of m1 if the node flips; ``d1``/``d2``
    are the changes of R1/R2 if it flips: +w1/-w0 for a node labelled 0,
    -w1/+w0 for one labelled 1, with w1/w0 its incident edges whose other
    end is labelled 1/0.  Per lane: R1, R2, m1, the current value and, for
    the modularity objectives, group 1's degree sums (group 0's are the
    totals less these, exact in float64).  Every running lane has made the
    same number of flips; a lane that stops is recorded and its row
    dropped.  A flip moves d1 and d2 of the flipped node's neighbours:
    on graphs of at most ``_DENSE_MAX_N`` nodes by the node's row of the
    dense incident-edge count matrix ``adj``, on larger ones through the CSR
    incidence lists.  Both count in integers held exactly in float64, so
    the two forms give the same bits.
    """

    def __init__(self, g, objs, starts, tables, min_group):
        n = g.n_nodes
        n_lanes = len(objs) * len(starts)
        self.g, self.objs, self.restarts = g, objs, len(starts)
        indptr, indices = g.incidence()
        inc_counts = np.diff(indptr)
        ends = np.repeat(np.arange(n), inc_counts)
        self.z_family = tables is not None
        self.k_out = g.k_out.astype(np.float64)
        self.k_in = g.k_in.astype(np.float64)

        # w1[r, i]: the incident edges of node i whose other end restart r
        # labels 1
        labels = np.array(starts, dtype=np.float64)
        if n <= _DENSE_MAX_N:
            # incident-edge counts, a reciprocal pair counting 2
            self.adj = np.bincount(ends * n + indices,
                                   minlength=n * n).reshape(n, n).astype(np.float64)
            w1 = labels @ self.adj
        else:
            self.adj = None
            self.indptr, self.indices, self.inc_counts = indptr, indices, inc_counts
            w1 = np.stack([np.bincount(ends, weights=lab[indices], minlength=n)
                           for lab in labels])
        is1 = labels == 1
        w0 = inc_counts - w1
        # lane k R + r is restart r of objective k
        tiles = (len(objs), 1)
        self.lane = np.arange(n_lanes)
        self.sg = np.tile(np.where(is1, -1, 1), tiles)
        self.d1 = np.tile(np.where(is1, -w1, w1), tiles)
        self.d2 = np.tile(np.where(is1, w0, -w0), tiles)
        self.r1 = np.tile(np.where(is1, w1, 0.0).sum(axis=1) / 2, len(objs))
        self.r2 = np.tile(np.where(is1, 0.0, w0).sum(axis=1) / 2, len(objs))
        self.m1 = np.tile(np.count_nonzero(is1, axis=1), len(objs))

        kind = self.lane // self.restarts
        if self.z_family:
            coef, scales = _z_coefficients(objs, tables, n, min_group)
            self.a, self.b, self.mu, self.sd = coef
            self.toff = kind * (n + 3) + 1
            self.scale = scales[kind]
            self.cur = _z_at(coef, self.scale, self.toff + self.m1,
                             self.r1, self.r2)
            self.fields = ("scale",)
        else:
            m = np.arange(-1, n + 2)
            self.kill = np.where((m >= min_group) & (m <= n - min_group),
                                 0.0, np.inf)
            self.toff = np.ones(n_lanes, dtype=np.intp)
            self.signed = objs[0] is Objective.QD_MAX
            sums = _degree_group_sums(g, self.sg < 0)
            self.ko1, self.ki1 = sums[:2]
            self.cur = _q_values(self.signed, self.r1, self.r2, *sums,
                                 float(g.n_edges), g.directed)
            self.fields = ("ko1", "ki1")
        self.fields += ("lane", "sg", "d1", "d2", "r1", "r2", "m1", "cur", "toff")
        self.rows_n = self.lane * n

        self.out_lab = np.empty((n_lanes, n), dtype=np.int8)
        self.out_val = np.empty(n_lanes)
        self.out_iters = np.empty(n_lanes, dtype=np.int64)

    @property
    def running(self):
        return self.lane.size

    def price(self):
        """(L, N) value of every flip; -inf where it leaves min_group."""
        r1n = self.d1 + self.r1[:, None]
        r2n = self.d2 + self.r2[:, None]
        idx = self.sg + (self.toff + self.m1)[:, None]
        if self.z_family:
            v = self.a.take(idx)
            v *= r1n
            r2n *= self.b.take(idx)
            v += r2n
            v /= self.scale[:, None]
            v -= self.mu.take(idx)
            v /= self.sd.take(idx)
            return v
        ko1n = self.sg * self.k_out
        ko1n += self.ko1[:, None]
        ki1n = self.sg * self.k_in
        ki1n += self.ki1[:, None]
        v = _q_values(self.signed, r1n, r2n, ko1n, ki1n,
                      self.k_out.sum() - ko1n, self.k_in.sum() - ki1n,
                      float(self.g.n_edges), self.g.directed)
        v -= self.kill.take(idx)
        return v

    def flip(self, best, value):
        """Flip node ``best[l]`` of every lane l, whose new value is
        ``value[l]``."""
        at = self.rows_n + best
        sg, d1, d2 = self.sg.reshape(-1), self.d1.reshape(-1), self.d2.reshape(-1)
        up = sg[at]
        self.r1 += d1[at]
        self.r2 += d2[at]
        self.m1 += up
        d1[at] *= -1
        d2[at] *= -1
        sg[at] = -up
        self.cur = value
        if not self.z_family:
            self.ko1 += up * self.k_out[best]
            self.ki1 += up * self.k_in[best]
        if self.adj is not None:
            # every flipped node's row of incident-edge counts
            delta = self.adj.take(best, axis=0)
            delta *= self.sg
            delta *= up[:, None]
            self.d1 += delta
            self.d2 += delta
        else:
            # every incident entry of a flipped node, gathered from the CSR
            # lists
            lens = self.inc_counts[best]
            cut = np.cumsum(lens)
            pos = np.repeat(self.indptr[best] - cut + lens, lens) + np.arange(cut[-1])
            nb = self.indices[pos] + np.repeat(self.rows_n, lens)
            delta = np.repeat(up.astype(np.float64), lens)
            delta *= sg[nb]
            np.add.at(d1, nb, delta)
            np.add.at(d2, nb, delta)

    def stop(self, done, iters):
        """Record the lanes marked in ``done`` after ``iters`` flips and
        drop their rows."""
        lane = self.lane[done]
        self.out_lab[lane] = self.sg[done] < 0
        self.out_val[lane] = self.cur[done]
        self.out_iters[lane] = iters
        keep = ~done
        for name in self.fields:
            setattr(self, name, getattr(self, name)[keep])
        self.rows_n = np.arange(self.running) * self.g.n_nodes

    def audit(self, c):
        """Check every running lane's counts and value against a recount."""
        for i in range(self.running):
            lab = (self.sg[i] < 0).astype(np.int8)
            obj = self.objs[self.lane[i] // self.restarts]
            fr1, fr2 = within_counts(self.g, lab)
            fresh = _fresh_value(self.g, lab, obj, c)
            cur = float(self.cur[i])
            if ((fr1, fr2) != (self.r1[i], self.r2[i])
                    or abs(fresh - cur) > 1e-9 * (1 + abs(cur))):
                raise RuntimeError("incremental bookkeeping drifted from "
                                   "the from-scratch objective")


def _lane_search(g, objs, cfg):
    """Fit each objective in ``objs`` (all of the Z family, or one
    modularity objective) with cfg.restarts lanes apiece, all advancing in
    one loop; returns the FitResults in ``objs`` order."""
    n = g.n_nodes
    if n < 2 * cfg.min_group + 1:
        raise ValueError(
            f"need at least {2 * cfg.min_group + 1} nodes for any flip to be valid")
    if objs[0] not in _Z_FAMILY and g.n_edges == 0:
        raise ValueError("modularity objectives need a non-empty graph")

    c = graph_constants(g)
    tables = moment_arrays(c) if objs[0] in _Z_FAMILY else None
    max_iters = cfg.max_iters if cfg.max_iters is not None else n * n

    warm = None
    if cfg.warm_start is not None:
        warm = as_labels(cfg.warm_start, n).copy()
        mw = int(warm.sum())
        if not cfg.min_group <= mw <= n - cfg.min_group:
            raise ValueError("warm_start violates the minimum group size")
    starts = [warm if r == 0 and warm is not None else
              _random_valid_labels(np.random.default_rng(cfg.seed + r), n,
                                   cfg.min_group)
              for r in range(cfg.restarts)]

    results = {}
    for obj in objs:
        if tables is not None and _all_degenerate(obj, tables, n, cfg.min_group):
            results[obj] = FitResult(
                labels=Partition(starts[0]), value=0.0,
                restart_values=[0.0] * cfg.restarts, iterations=0,
                restart_iterations=[0] * cfg.restarts, degenerate=True,
                objective=obj)
    live = [obj for obj in objs if obj not in results]
    if not live:
        return [results[obj] for obj in objs]

    lanes = _Lanes(g, live, starts, tables, cfg.min_group)
    iters = 0
    while lanes.running and iters < max_iters:
        vals = lanes.price()
        best = vals.argmax(axis=1)  # ties go to the lowest node index
        value = vals.take(lanes.rows_n + best)
        done = ~(np.isfinite(value) & (value > lanes.cur + _IMPROVE_EPS))
        if done.any():
            lanes.stop(done, iters)
            if not lanes.running:
                break
            best, value = best[~done], value[~done]
        lanes.flip(best, value)
        iters += 1
        if iters % _CHECK_EVERY == 0:
            lanes.audit(c)
    if lanes.running:  # the lanes that reached max_iters
        lanes.stop(np.ones(lanes.running, dtype=bool), iters)

    r_count = cfg.restarts
    for k, obj in enumerate(live):
        vals = lanes.out_val[k * r_count:(k + 1) * r_count]
        its = lanes.out_iters[k * r_count:(k + 1) * r_count]
        best = int(np.argmax(vals))  # the first restart reaching the max
        results[obj] = FitResult(
            labels=Partition(lanes.out_lab[k * r_count + best]),
            value=float(vals[best]),
            restart_values=[float(v) for v in vals],
            iterations=int(its.sum()),
            restart_iterations=[int(i) for i in its],
            degenerate=False, objective=obj)
    return [results[obj] for obj in objs]


def greedy_fit(g: Graph, obj: Objective, cfg: FitConfig | None = None) -> FitResult:
    """Best-improvement single-flip local search with random restarts.

    Each step prices all N candidate flips at once (O(N + |E|) per step via
    incident-edge bookkeeping), applies the best strictly-improving one (ties
    to the lowest node index), and stops at a local optimum.  The restarts
    run as lanes of one search that advance together, one flip each per
    step; for a given seed the result equals that of running the restarts
    one after another.  The best terminal partition across restarts is
    returned (the first restart reaching it).
    """
    cfg = cfg if cfg is not None else FitConfig()
    return _lane_search(g, [obj], cfg)[0]


_GRID_CELLS = 1 << 16  # label vectors scored per block of the exhaustive grid


def _all_labelings(k):
    """(2^k, k) int64 rows of every labeling of k nodes, in counting order
    with the first node as the most significant bit."""
    return (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1


def exhaustive_fit(g: Graph, obj: Objective, min_group: int = 2) -> FitResult:
    """Global optimum by enumerating all 2^N label vectors (N <= 20).

    Vectors are generated with node 0 as the most significant bit, so ties
    resolve to the lexicographically smallest label vector.  The nodes split
    into a high half 0..h-1 and a low half h..N-1 with labelings Xh and Xl:
    vector hi 2^(N-h) + lo is cell (hi, lo) of a (2^h, 2^(N-h)) grid, scored
    in blocks of rows.  With U the upper-triangular edge counts (a
    reciprocal pair counts 2), R1 = xh U_hh xh + xl U_ll xl + xh U_hl xl;
    group 1's size and degree sums add over the halves, and
    R2 = |E| - T1 + R1 with T1 the incident-edge total of group 1.
    """
    n = g.n_nodes
    if n > 20:
        raise ValueError("exhaustive search is limited to 20 nodes")
    if min_group < 2:
        raise ValueError("min_group must be >= 2")
    if n < 2 * min_group:
        raise ValueError("no valid partition at this min_group")
    if obj not in _Z_FAMILY and g.n_edges == 0:
        raise ValueError("modularity objectives need a non-empty graph")

    h = n // 2
    xh, xl = _all_labelings(h), _all_labelings(n - h)
    u = np.zeros((n, n), dtype=np.int64)
    np.add.at(u.reshape(-1), _edge_keys(g.edges, n, directed=False), 1)
    # group 1's size, out-, in- and incident-edge totals
    w = np.stack([np.ones(n, dtype=np.int64), g.k_out, g.k_in,
                  u.sum(axis=0) + u.sum(axis=1)], axis=1)

    def half(x, s):
        """Within-half R1 and the group-1 sums of each labeling."""
        return np.column_stack([((x @ u[s, s]) * x).sum(axis=1), x @ w[s]])

    sh, sl = half(xh, slice(0, h)), half(xl, slice(h, n))
    cross = xh @ u[:h, h:]

    degenerate = False
    if obj in _Z_FAMILY:
        tables = moment_arrays(graph_constants(g))
        coef, scales = _z_coefficients([obj], tables, n, min_group)
        degenerate = _all_degenerate(obj, tables, n, min_group)
    else:
        sizes = np.arange(n + 1)
        kill = np.where((sizes >= min_group) & (sizes <= n - min_group),
                        0.0, np.inf)

    best, at = -np.inf, None
    step = max(1, _GRID_CELLS >> (n - h))
    for top in range(0, 1 << h, step):
        hs = sh[top:top + step, :, None]
        r1 = hs[:, 0] + sl[:, 0] + cross[top:top + step] @ xl.T
        m = hs[:, 1] + sl[:, 1]
        r2 = g.n_edges - (hs[:, 4] + sl[:, 4]) + r1
        if obj in _Z_FAMILY:  # a size the search may not visit prices -inf
            vals = _z_at(coef, scales[0], m + 1, r1, r2)
        else:
            ko1 = (hs[:, 2] + sl[:, 2]).astype(np.float64)
            ki1 = (hs[:, 3] + sl[:, 3]).astype(np.float64)
            vals = _q_values(obj is Objective.QD_MAX, r1, r2, ko1, ki1,
                             float(g.k_out.sum()) - ko1,
                             float(g.k_in.sum()) - ki1,
                             float(g.n_edges), g.directed)
            vals -= kill[m]
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if at is None or vals[i, j] > best:  # ties keep the earlier vector
            best, at = float(vals[i, j]), (top + i, j)
    lab = np.concatenate([xh[at[0]], xl[at[1]]])
    return FitResult(labels=Partition(lab), value=best, restart_values=[best],
                     iterations=0, degenerate=degenerate, objective=obj)


CANDIDATE_KINDS = ("zw-max", "zw-min", "zd")


def _workers_usable(n_nodes):
    """Whether a job on an ``n_nodes`` graph may fork candidate workers:
    the graph is at or above the gate, this is the main process (so the
    workers of ``simulate --jobs`` never fork their own), it runs one
    thread, the ``fork`` start method exists and at least 2 CPUs are
    available to it."""
    return (n_nodes >= _FORK_MIN_N
            and multiprocessing.parent_process() is None
            and threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _worker(conn, fn, item):
    try:
        out = (True, fn(item))
    except BaseException as exc:  # handed to the caller, which re-raises it
        out = (False, exc)
    conn.send(out)


def _per_candidate(fn, items, n_nodes, serial=None):
    """``[fn(x) for x in items]``, one process per item when
    ``_workers_usable(n_nodes)``.

    Then fn(items[0]) runs in this process and every other item in a forked
    worker; results come back over a pipe and are merged in ``items``
    order, and the first exception in that order is re-raised with its type
    and message.  Every worker is joined before this returns, and
    terminated first if anything failed.  Otherwise the items run here in
    turn, or ``serial()``, a joint form with the same results, runs in
    their place when given.
    """
    if not _workers_usable(n_nodes):
        return serial() if serial is not None else [fn(x) for x in items]
    # Process.start flushes stdout and stderr before it forks, so no worker
    # writes the caller's buffered output a second time
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for item in items[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(send, fn, item),
                               daemon=True)
            proc.start()
            send.close()
            procs.append(proc)
            conns.append(recv)
        results = [fn(items[0])]
        for conn in conns:
            try:
                ok, out = conn.recv()
            except EOFError:
                ok, out = False, RuntimeError(
                    "a candidate worker exited without a result")
            if not ok:
                raise out
            results.append(out)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
    return results


def fit_all_candidates(g: Graph, cfg: FitConfig | None = None) -> dict[str, FitResult]:
    """Fit the three mixing-type candidates (Z_w-max, Z_w-min, Z_d).

    Each result equals ``greedy_fit`` of that candidate with the same
    config, bit for bit.  On a graph of at least ``_FORK_MIN_N`` nodes, with
    2 or more CPUs available, each candidate is fitted in a process of its
    own (see ``_per_candidate``); otherwise all restarts of all three run as
    the 3 x restarts lanes of one search, on one set of graph constants and
    moment tables.
    """
    cfg = cfg if cfg is not None else FitConfig()
    objs = [Objective(kind) for kind in CANDIDATE_KINDS]
    g.incidence()  # built once, before any fork
    fits = _per_candidate(lambda obj: _lane_search(g, [obj], cfg)[0], objs,
                          g.n_nodes, serial=lambda: _lane_search(g, objs, cfg))
    return dict(zip(CANDIDATE_KINDS, fits))
