"""Multi-restart greedy single-flip search over two-community partitions,
plus an exhaustive search for small-graph validation."""

from __future__ import annotations

import enum
import math
import multiprocessing
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .edgestats import (Partition, _degree_group_sums, _q_values,
                        _z_from_counts, as_labels, moment_arrays,
                        within_counts)
from .graph import Graph, _edge_keys, _integer, graph_constants

_IMPROVE_EPS = 1e-12  # strict improvement threshold: no cycling on plateaus
_CHECK_EVERY = 100    # incremental bookkeeping audited against full recounts
# Up to this many nodes the lane search keeps incident-edge counts in one
# dense N x N matrix and updates a flip's neighbours by one row gather;
# above it, by a walk of the CSR incidence lists.  Measured on a 2-core host
# with 60-lane fits (20 restarts) of directed and undirected DCSBM graphs,
# as dense / CSR fit time: 0.78-0.99 at N 100-128 for mean incident degrees
# 8-58; 0.97-1.03 at N 144-192 for degrees 10-16; 1.2-1.4 at N 200-256 for
# degrees 24-38, where the O(N) row work per lane outgrows the fixed call
# overhead of the CSR walk.  The matrix is 128 KB at the cutoff.  Above it
# Z_d also leaves the lanes for ``_z_by_restart`` (by degree order); below
# it a step is call overhead that the lanes share (N = 100, 20 restarts:
# 11.8 ms joint against 9.3 ms of Z_w lanes plus 3.3 ms by degree order).
_DENSE_MAX_N = 128
# From this many nodes up, fit_all_candidates and penalized_select work on
# one candidate per process: the caller's own and two forked workers.
# Measured on a 2-core host as forked / serial time of the fit plus the
# penalized selection, medians of alternating runs on two directed DCSBM
# graphs of mean degree 24, with Z_d by degree order and Z_w on flip keys
# (``_SERIAL_MIN_N``): at 1 restart (7 runs) 2.68-2.71 at N 1,000,
# 1.26-1.30 at N 1,500, 1.02-1.11 at N 2,000, 0.85-0.90 at N 2,500,
# 0.65-0.75 at N 3,000 and 0.64-0.72 at N 4,000; at 20 restarts (3 runs)
# 0.71-1.31 at N 1,000, 0.51-0.74 at N 1,500, 0.52-0.65 at N 2,000 and
# 0.54-0.61 at N 2,500.  A fork round costs 6-8 ms.  The gate was set at
# the 1-restart crossover, which has since moved to between 2,000 and
# 2,500 nodes; it stays at 2,000, where forking loses at most a tenth at
# 1 restart and saves about 40% at the default 20.
_FORK_MIN_N = 2000
# From this many nodes up, Z_w is fitted restart by restart on exact integer
# flip keys (``_FlipKeys``) instead of as lanes.  A step there costs a few
# O(N) numpy calls whatever the restart count, while a lane step shares its
# calls among all lanes, so the gate sits at the 20-restart crossover.
# Measured on a 2-core host as restart-by-restart / joint-lane time of
# fitting zw-max and zw-min, medians of 5 alternating runs on two DCSBM
# graphs each: 1.72-1.76 at N 250, 0.97-1.19 at N 500, 0.90-1.04 at N 600
# and 0.69-0.98 at N 750 (mean degree 6 or 24, directed or undirected),
# 0.58-0.59 at N 1,000 (directed, mean degree 24).  At 1 restart it wins
# at every size.  Serial fit_all_candidates, new / old time on directed
# graphs of mean degree 24: 0.35-0.36 at N 750, 0.29-0.36 at N 1,000-2,000
# and 0.26 at N 4,000 at 1 restart; 0.82-0.84 at N 750, 0.61-0.69 at
# N 1,000, 0.52-0.58 at N 1,500, 0.34-0.46 at N 2,000 and 0.32-0.35 at
# N 4,000 at 20 restarts (N 500 runs the same code as before).
_SERIAL_MIN_N = 750
# The restart-by-restart Z search needs N |E| below this for its integer T
# to order the float values exactly (see ``_z_by_restart``); larger graphs
# take the lanes.
_KEY_MAX = 1 << 49


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

    The counts and the seed must be integral (``graph._integer``): an
    integral float is kept as an int, any other value is a ValueError.
    """
    restarts: int = 20
    seed: int = 0
    min_group: int = 2
    warm_start: Partition | None = None
    max_iters: int | None = None

    def __post_init__(self):
        for name in ("restarts", "seed", "min_group", "max_iters"):
            value = getattr(self, name)
            if value is not None:  # frozen: set through object
                object.__setattr__(self, name, _integer(value, name))
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


def _random_valid_labels(rng, n, min_group):
    # fair-coin labels, rejection-resampled until both groups are big enough
    while True:
        lab = (rng.random(n) < 0.5).astype(np.int8)
        m = int(lab.sum())
        if min_group <= m <= n - min_group:
            return lab


def _size_penalty(n, min_group):
    """0.0 at slot 1 + m for each group size m in [min_group, N - min_group]
    a flip may reach, +inf at every other slot (m = -1 .. N + 1)."""
    m = np.arange(-1, n + 2)
    return np.where((m >= min_group) & (m <= n - min_group), 0.0, np.inf)


def _z_coefficients(objs, c, min_group):
    """Flip-pricing tables of Z objectives on a graph with constants ``c``,
    one block of N + 3 slots per objective, slot 1 + m holding group size m
    after the flip.  Returns the (4, T) table of rows A, B, mu and sd, and
    the per-objective C.

    A flip's value is ((A R1 + B R2) / C - mu) / sd with R1, R2 the counts
    after it: Z_w has A = N - m - 1, B = m - 1, C = N - 2 and Z_d has
    A = 1, B = -1, C = 1; ZW_MIN divides by -sd.  A degenerate size gets
    A = B = mu = 0 and sd = +-1, so the value is a signed 0, and a size
    that ``_size_penalty`` rules out gets A = B = 0 and mu = +inf, so the
    value is -inf.  A live size has A >= min_group - 1 >= 1 for Z_w and
    A = 1 for Z_d, so an objective is degenerate everywhere exactly when
    its block of the A row is all zero.  The lanes and the exhaustive grid
    (``_z_at``) and ``_z_by_restart`` price every flip from these tables.

    ``edgestats._z_from_counts`` codes Z for ``z_w``/``z_d`` and the audits.
    IEEE arithmetic gives 1 R1 + (-1) R2 = R1 - R2 and x / (-y) = -(x / y)
    exactly, and the rows of ``moment_arrays`` equal ``perm_null_moments``
    bit for bit (one float coding, ``edgestats._moments``), so the two
    codings agree bit for bit at every N.
    """
    n = c.n_nodes
    mu_w, s_w, mu_d, s_d, deg_w, deg_d = moment_arrays(c)
    m = np.arange(-1, n + 2)
    mc = np.clip(m, 0, n)
    kill = _size_penalty(n, min_group)
    valid = kill == 0
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
                       np.where(live, mu, kill),
                       np.where(live, sign * sd, np.where(deg, sign, 1.0))))
        scales.append(scale)
    return np.stack([np.concatenate(t) for t in zip(*blocks)]), np.array(scales)


def _z_at(coef, scale, slot, r1, r2):
    """((A R1 + B R2) / C - mu) / sd at slot(s) ``slot`` of the (4, T)
    table ``coef``: the search's one vector coding of the Z kernel.  One
    stacked take: four row takes cost the same per call, but in a loop of
    N = 14 exhaustive fits their four 128 KB buffers went back to the
    system and were faulted in again on every fit.  ``r1`` and ``r2`` are
    left as they are."""
    v, w, mu, sd = coef.take(slot, axis=1)
    v *= r1
    w *= r2
    v += w
    v /= scale
    v -= mu
    v /= sd
    return v


class _Lanes:
    """Search state of the lanes still running, one row per (objective,
    restart) pair, for the objectives ``_by_restart`` leaves to the lanes.
    ``table`` is their ``_z_coefficients`` table, with ``scales`` their C,
    or for a modularity objective (``scales`` None) ``_size_penalty``.

    (L, N) rows: ``sg`` is +1 for a node labelled 0 and -1 for a node
    labelled 1, which is the change of m1 if the node flips; ``d1``/``d2``
    are the changes of R1/R2 if it flips: +w1/-w0 for a node labelled 0,
    -w1/+w0 for one labelled 1, with w1/w0 its incident edges whose other
    end is labelled 1/0.  Per lane: R1, R2, m1, the current value and, for
    the modularity objectives, group 1's degree sums (group 0's are the
    totals ``ko_all``/``ki_all`` less these, exact in float64).  Every
    running lane has made the same number of flips; a lane that stops is
    recorded and its row dropped.  A flip moves d1 and d2 of the flipped
    node's neighbours: on graphs of at most ``_DENSE_MAX_N`` nodes by the
    node's row of the dense incident-edge count matrix ``adj``, on larger
    ones through the CSR incidence lists.  Both count in integers held exactly in float64, so
    the two forms give the same bits.
    """

    def __init__(self, g, objs, starts, table, scales=None):
        n = g.n_nodes
        n_lanes = len(objs) * len(starts)
        self.g, self.objs, self.restarts = g, objs, len(starts)
        indptr, indices = g.incidence()
        ends = np.repeat(np.arange(n), g.k_inc)
        self.z_family = scales is not None

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
            self.indptr, self.indices = indptr, indices
            w1 = np.stack([np.bincount(ends, weights=lab[indices], minlength=n)
                           for lab in labels])
        is1 = labels == 1
        w0 = g.k_inc - w1
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
        self.table = table
        if self.z_family:
            self.toff = kind * (n + 3) + 1
            self.scale = scales[kind]
            self.cur = _z_at(table, self.scale, self.toff + self.m1,
                             self.r1, self.r2)
            self.fields = ("scale",)
        else:
            self.toff = np.ones(n_lanes, dtype=np.intp)
            self.signed = objs[0] is Objective.QD_MAX
            self.k_out = g.k_out.astype(np.float64)
            self.k_in = g.k_in.astype(np.float64)
            self.ko_all, self.ki_all = self.k_out.sum(), self.k_in.sum()
            sums = _degree_group_sums(g, self.sg < 0)
            self.ko1, self.ki1 = sums[:2]
            self.cur = _q_values(self.signed, self.r1, self.r2, *sums, g)
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
            return _z_at(self.table, self.scale[:, None], idx, r1n, r2n)
        ko1n = self.sg * self.k_out
        ko1n += self.ko1[:, None]
        ki1n = self.sg * self.k_in
        ki1n += self.ki1[:, None]
        v = _q_values(self.signed, r1n, r2n, ko1n, ki1n,
                      self.ko_all - ko1n, self.ki_all - ki1n, self.g)
        v -= self.table.take(idx)
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
            lens = self.g.k_inc[best]
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
            r1, r2 = self.r1[i], self.r2[i]
            _audit(self.g, lab, obj, c, float(self.cur[i]),
                   lambda fr1, fr2: (fr1, fr2) == (r1, r2))


def _audit(g, lab, obj, c, cur, counts_hold):
    """Raise unless ``counts_hold(R1, R2)`` for a recount of ``lab`` and
    ``cur`` equals, bit for bit, the objective scored from that one
    recount: Z by ``_z_from_counts`` (which the search's tables reproduce
    exactly, see ``_z_coefficients``), Q and Q_d by ``_q_values`` on the
    recount and the group degree sums, the coding the lanes price with."""
    r1, r2 = within_counts(g, lab)
    if obj in _Z_FAMILY:
        m_x = int(np.count_nonzero(lab))
        fresh = _z_from_counts(c, m_x, lab.size - m_x, r1, r2,
                               obj is not Objective.ZD_MAX)
        fresh = -fresh if obj is Objective.ZW_MIN else fresh
    else:
        fresh = _q_values(obj is Objective.QD_MAX, r1, r2,
                          *_degree_group_sums(g, lab), g)
    if not counts_hold(r1, r2) or fresh != cur:
        raise RuntimeError("incremental bookkeeping drifted from "
                           "the from-scratch objective")


class _DegreeOrder:
    """Z_d's best flip of each side, for ``_z_by_restart``.

    R1 - R2 = T1 - |E|, with T1 the incident-edge total of group 1, so the
    flip of node i moves D = R1 - R2 by +k_i into group 1 and by -k_i out
    of it (k_i its incident edges, ``Graph.k_inc``), and
    T = D +- k_i.  The best add is group 0's highest-degree node, the best
    removal group 1's lowest-degree node, the lower index among equal
    degrees: the first node of the side in the order (-k, index) or
    (k, index), found by one scan of the labels kept in that order.
    """

    def __init__(self, g):
        k = g.k_inc
        nodes = np.arange(g.n_nodes)
        # side 0 (adds) scans by falling degree, side 1 (removals) by rising
        self.orders = (np.lexsort((nodes, -k)), np.lexsort((nodes, k)))
        self.sorted = [order.tolist() for order in self.orders]
        # each node's position in either order
        self.at = [np.argsort(order).tolist() for order in self.orders]
        self.k, self.kl, self.n_edges = k, k.tolist(), g.n_edges
        self.after = [None, None]  # D after each side's priced flip

    def restart(self, start):
        self.labs = [bytearray(start[order].tobytes()) for order in self.orders]
        self.d = int(self.k[start == 1].sum()) - self.n_edges

    def t(self, slot):
        return self.d  # A = 1, B = -1 on every live slot

    def best(self, side):
        return self.sorted[side][self.labs[side].find(side)]

    def price(self, i, side, slot):
        self.after[side] = self.d + (-1 if side else 1) * self.kl[i]
        return self.after[side]

    def flip(self, i, side):
        self.d = self.after[side]
        for lab, at in zip(self.labs, self.at):
            lab[at[i]] ^= 1

    def holds(self, r1, r2):
        return r1 - r2 == self.d


# A node's key on the side it is not on: below every real key, whose size
# is at most 2 N |E| < 2^50 under ``_KEY_MAX``, and far from int64 overflow.
_MASKED = -(1 << 62)


class _FlipKeys:
    """Z_w's best flip of each side, for ``_z_by_restart``.

    With w1_i the incident edges of node i whose other end is labelled 1
    and k_i all of them (``Graph.k_inc``), the T of node i's
    flip is a constant of the step plus (N - 2) w1_i - m1 k_i for an add
    (A = N - m1 - 2, B = m1) and (m1 - 2) k_i - (N - 2) w1_i for a removal
    (A = N - m1, B = m1 - 2), since A + B = N - 2.  Times s, which is -1
    for ZW_MIN (whose sd is negated) and +1 for ZW_MAX, these are the
    side's exact int64 keys, and the value rises with the key.  ``u`` holds
    s ((N - 2) w1 - m1 k) for every node: the add keys are u and the
    removal keys -u - 2 s k, the other side's nodes masked to ``_MASKED``,
    and a side's best is the first argmax, the lowest index among equal
    keys.  A flip moves u by s (N - 2) at each incident entry of the node
    (``np.add.at`` counts a repeated entry each time) and by -s k for the
    change of m1.  The winners are priced from R1, R2 and w1_i =
    (s u_i + m1 k_i) / (N - 2), in the kernel's operation order.
    """

    def __init__(self, g, a, b, sign):
        self.indptr, self.indices = g.incidence()
        self.k = g.k_inc
        self.a, self.b, self.s, self.p = a, b, sign, g.n_nodes - 2
        self.kl, self.sk = self.k.tolist(), sign * self.k
        self.ptr = self.indptr.tolist()
        self.keys = np.empty(g.n_nodes, dtype=np.int64)
        self.after = [None, None]  # R1, R2 after each side's priced flip

    def restart(self, start):
        # w1 from a running count of the incident entries labelled 1, summed
        # in place: no O(|E|) temporary beside the one buffer
        in1 = np.zeros(self.indices.size + 1, dtype=np.int64)
        in1[1:] = start[self.indices]
        np.cumsum(in1, out=in1)
        w1 = in1[self.indptr[1:]] - in1[self.indptr[:-1]]
        is1 = start == 1
        self.m1 = int(np.count_nonzero(is1))
        self.r1 = int(w1[is1].sum()) // 2
        self.r2 = int((self.k - w1)[~is1].sum()) // 2
        self.u = self.s * self.p * w1 - self.m1 * self.sk
        # the add and removal keys are u + off[0] and off[1] - u
        self.off = (np.where(is1, _MASKED, 0),
                    np.where(is1, -2 * self.sk, _MASKED))

    def t(self, slot):
        return self.a[slot] * self.r1 + self.b[slot] * self.r2

    def best(self, side):
        if side:
            return int(np.subtract(self.off[1], self.u, out=self.keys).argmax())
        return int(np.add(self.u, self.off[0], out=self.keys).argmax())

    def price(self, i, side, slot):
        k = self.kl[i]
        w1 = (self.s * int(self.u[i]) + self.m1 * k) // self.p
        if side:
            r1, r2 = self.r1 - w1, self.r2 + k - w1
        else:
            r1, r2 = self.r1 + w1, self.r2 - k + w1
        self.after[side] = r1, r2
        return self.a[slot] * r1 + self.b[slot] * r2

    def flip(self, i, side):
        step = -1 if side else 1
        self.r1, self.r2 = self.after[side]
        self.m1 += step
        np.add.at(self.u, self.indices[self.ptr[i]:self.ptr[i + 1]],
                  step * self.s * self.p)
        if side:
            self.u += self.sk
            self.off[0][i], self.off[1][i] = 0, _MASKED
        else:
            self.u -= self.sk
            self.off[0][i], self.off[1][i] = _MASKED, -2 * int(self.sk[i])

    def holds(self, r1, r2):
        return (r1, r2) == (self.r1, self.r2)


def _z_by_restart(g, obj, starts, coef, scale, c, max_iters):
    """Fit a Z objective from each start, one restart after another, bit
    for bit as a lane of ``_Lanes`` would; returns per start its final
    labels, value and flips, from the objective's (4, N + 3) block
    ``coef`` of the ``_z_coefficients`` table and its C ``scale``.

    A step takes the best flip into group 1 (new size m1 + 1) and the best
    out of it (m1 - 1), each chosen by the objective's side object
    (``_DegreeOrder`` for Z_d, ``_FlipKeys`` for Z_w) on an exact integer
    T = A R1' + B R2' of the counts after the flip.  A flip's value is
    ((T / C - mu) / sd) at the slot of its new size, with A, B, C, mu and
    sd from ``coef`` in Python floats: the lane kernel's operations on the
    same numbers, T being below 2^53 and so exact.  Within a side, distinct
    T give distinct values in the same order (the reverse for ZW_MIN's
    negative sd): each of the three rounded operations errs by at most
    2^-53 of its result, and with |T| <= (N - 2)|E|, |T / C| <= |E| and
    |mu| <= |E| the errors stay below the gap of 1 / C between two T while
    10 (N - 2)|E| < 2^53, which N |E| < ``_KEY_MAX`` = 2^49 ensures.  So a
    side's best flip is its highest T, the lowest index among equal T.  On
    a slot that is not live every node of the side prices the same signed 0
    or -inf, so the side offers its lowest-index node.  An exact tie of the
    two sides goes to the lower node index, as the kernel's argmax does.
    The stop rule (``_IMPROVE_EPS``), ``max_iters`` and the
    ``_CHECK_EVERY`` audit are the lanes'; ``_lane_search`` draws the starts
    (warm start included) and settles all-degenerate objectives first.
    """
    a, b, mu, sd = coef.tolist()
    live, scale = [x != 0 for x in a], float(scale)
    if obj is Objective.ZD_MAX:
        keys = _DegreeOrder(g)
    else:
        keys = _FlipKeys(g, a, b, -1 if obj is Objective.ZW_MIN else 1)

    def value(slot, t):
        # T only on a live slot: 0 / C - mu is +0.0 on a degenerate one
        # (mu = 0, sd = +-1) and -inf on one out of range (mu = +inf)
        return ((t if live[slot] else 0) / scale - mu[slot]) / sd[slot]

    out = []
    for start in starts:
        lab = bytearray(start.tobytes())
        m1 = lab.count(1)
        keys.restart(start)
        cur = value(m1 + 1, keys.t(m1 + 1))  # slot 1 + m holds group size m
        iters = 0
        while iters < max_iters:
            sa, sr = m1 + 2, m1
            add = keys.best(0) if live[sa] else lab.find(0)
            rem = keys.best(1) if live[sr] else lab.find(1)
            va = value(sa, keys.price(add, 0, sa))
            vr = value(sr, keys.price(rem, 1, sr))
            if va > vr or (va == vr and add < rem):
                best, v, side = add, va, 0
            else:
                best, v, side = rem, vr, 1
            if not (math.isfinite(v) and v > cur + _IMPROVE_EPS):
                break
            keys.flip(best, side)
            m1 += -1 if side else 1
            cur = v
            lab[best] ^= 1
            iters += 1
            if iters % _CHECK_EVERY == 0:
                _audit(g, np.frombuffer(lab, dtype=np.int8).copy(), obj, c,
                       cur, keys.holds)
        out.append((np.frombuffer(lab, dtype=np.int8).copy(), cur, iters))
    return out


def _best_restart(obj, labs, vals, iters):
    """FitResult of the restarts' final labels, values and flip counts."""
    best = int(np.argmax(vals))  # the first restart reaching the max
    return FitResult(labels=Partition(labs[best]), value=float(vals[best]),
                     restart_values=[float(v) for v in vals],
                     iterations=int(sum(iters)),
                     restart_iterations=[int(i) for i in iters],
                     degenerate=False, objective=obj)


def _by_restart(g, obj):
    """Whether ``_lane_search`` fits ``obj`` restart by restart
    (``_z_by_restart``), not as lanes (``_Lanes``), the one statement of
    that rule: Z_d above ``_DENSE_MAX_N`` nodes and Z_w from
    ``_SERIAL_MIN_N`` up, on graphs whose N |E| is below ``_KEY_MAX``."""
    if obj not in _Z_FAMILY or g.n_nodes * g.n_edges >= _KEY_MAX:
        return False
    if obj is Objective.ZD_MAX:
        return g.n_nodes > _DENSE_MAX_N
    return g.n_nodes >= _SERIAL_MIN_N


def _lane_search(g, objs, cfg):
    """Fit each objective in ``objs`` (all of the Z family, or one
    modularity objective) from cfg.restarts starts, on one coefficient
    table, as lanes that all advance in one loop or restart by restart, as
    ``_by_restart`` says; returns the FitResults in ``objs`` order."""
    n = g.n_nodes
    if n < 2 * cfg.min_group + 1:
        raise ValueError(
            f"need at least {2 * cfg.min_group + 1} nodes for any flip to be valid")
    if objs[0] not in _Z_FAMILY and g.n_edges == 0:
        raise ValueError("modularity objectives need a non-empty graph")

    c = graph_constants(g)
    z_family = objs[0] in _Z_FAMILY
    if z_family:  # each objective's (4, N + 3) block of one table
        coef, scales = _z_coefficients(objs, c, cfg.min_group)
        blocks = np.split(coef, len(objs), axis=1)
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

    results, live = {}, []
    for k, obj in enumerate(objs):
        if z_family and not blocks[k][0].any():  # no size with A != 0
            results[obj] = FitResult(
                labels=Partition(starts[0]), value=0.0,
                restart_values=[0.0] * cfg.restarts, iterations=0,
                restart_iterations=[0] * cfg.restarts, degenerate=True,
                objective=obj)
        elif _by_restart(g, obj):
            results[obj] = _best_restart(obj, *zip(*_z_by_restart(
                g, obj, starts, blocks[k], scales[k], c, max_iters)))
        else:
            live.append(k)
    if not live:
        return [results[obj] for obj in objs]

    if z_family:
        lanes = _Lanes(g, [objs[k] for k in live], starts,
                       np.concatenate([blocks[k] for k in live], axis=1),
                       scales[live])
    else:
        lanes = _Lanes(g, objs, starts, _size_penalty(n, cfg.min_group))
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

    for k, obj in enumerate(lanes.objs):
        rows = slice(k * cfg.restarts, (k + 1) * cfg.restarts)
        results[obj] = _best_restart(obj, lanes.out_lab[rows],
                                     lanes.out_val[rows], lanes.out_iters[rows])
    return [results[obj] for obj in objs]


def greedy_fit(g: Graph, obj: Objective, cfg: FitConfig | None = None) -> FitResult:
    """Best-improvement single-flip local search with random restarts.

    Each step prices all N candidate flips at once (O(N + |E|) per step via
    incident-edge bookkeeping), applies the best strictly-improving one (ties
    to the lowest node index), and stops at a local optimum.  The restarts
    run as lanes of one search that advance together, one flip each per
    step; for a given seed the result equals that of running the restarts
    one after another.  Some Z objectives on larger graphs (``_by_restart``
    says which) are instead searched restart by restart, where a step finds
    the best add and the best removal on exact integer keys and compares
    those two flips (``_z_by_restart``), with the same result.  The best
    terminal partition across restarts is returned (the first restart
    reaching it).
    """
    cfg = cfg if cfg is not None else FitConfig()
    return _lane_search(g, [obj], cfg)[0]


_GRID_CELLS = 1 << 16  # label vectors scored per block of the exhaustive grid


def _all_labelings(k):
    """(2^k, k) float64 rows of every labeling of k nodes, in counting order
    with the first node as the most significant bit."""
    rows = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return rows.astype(np.float64)


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

    The labelings, U and the sums are float64, so each block's cross term
    is one BLAS matmul.  Every count and sum is an integer of at most
    2 N (N - 1) = 760, which float64 holds exactly in any summation order:
    the values, and so the labels and the tie order, are those of integer
    arithmetic.  Group sizes index the pricing tables and stay integers.
    """
    n = g.n_nodes
    if n > 20:
        raise ValueError("exhaustive search is limited to 20 nodes")
    min_group = _integer(min_group, "min_group")
    if min_group < 2:
        raise ValueError("min_group must be >= 2")
    if n < 2 * min_group:
        raise ValueError("no valid partition at this min_group")
    if obj not in _Z_FAMILY and g.n_edges == 0:
        raise ValueError("modularity objectives need a non-empty graph")

    h = n // 2
    xh, xl = _all_labelings(h), _all_labelings(n - h)
    u = np.zeros((n, n))
    np.add.at(u.reshape(-1), _edge_keys(g.edges, n, directed=False), 1.0)
    # group 1's out-, in- and incident-edge totals
    w = np.stack([g.k_out, g.k_in, g.k_inc], axis=1).astype(np.float64)

    def half(x, s):
        """Within-half R1 and the group-1 sums of each labeling."""
        return np.column_stack([((x @ u[s, s]) * x).sum(axis=1), x @ w[s]])

    sh, sl = half(xh, slice(0, h)), half(xl, slice(h, n))
    cross = xh @ u[:h, h:]
    xlt = np.ascontiguousarray(xl.T)  # half the matmul time of the view
    # group 1's size, plus 1: its slot in the pricing tables
    mh = np.count_nonzero(xh, axis=1)[:, None] + 1
    ml = np.count_nonzero(xl, axis=1)

    degenerate = False
    if obj in _Z_FAMILY:
        coef, scales = _z_coefficients([obj], graph_constants(g), min_group)
        degenerate = not coef[0].any()  # no size with A != 0
    else:
        kill = _size_penalty(n, min_group)

    best, at = -np.inf, None
    step = max(1, _GRID_CELLS >> (n - h))
    for top in range(0, 1 << h, step):
        hs = sh[top:top + step, :, None]
        r1 = cross[top:top + step] @ xlt
        r1 += hs[:, 0] + sl[:, 0]
        slot = mh[top:top + step] + ml
        r2 = g.n_edges - (hs[:, 3] + sl[:, 3]) + r1
        if obj in _Z_FAMILY:  # a size the search may not visit prices -inf
            vals = _z_at(coef, scales[0], slot, r1, r2)
        else:
            ko1 = hs[:, 1] + sl[:, 1]
            ki1 = hs[:, 2] + sl[:, 2]
            vals = _q_values(obj is Objective.QD_MAX, r1, r2, ko1, ki1,
                             float(g.k_out.sum()) - ko1,
                             float(g.k_in.sum()) - ki1, g)
            vals -= kill[slot]
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
    own (see ``_per_candidate``); otherwise all three run in one
    ``_lane_search``, on one coefficient table, each as lanes or restart by
    restart as ``_by_restart`` says.
    """
    cfg = cfg if cfg is not None else FitConfig()
    objs = [Objective(kind) for kind in CANDIDATE_KINDS]
    g.incidence()  # built once, before any fork
    fits = _per_candidate(lambda obj: _lane_search(g, [obj], cfg)[0], objs,
                          g.n_nodes, serial=lambda: _lane_search(g, objs, cfg))
    return dict(zip(CANDIDATE_KINDS, fits))
