"""Choosing among the three fitted candidates (Z_w-max, Z_w-min, Z_d): the
gamma-tau signal criterion and the penalized block-likelihood criterion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edgestats import Partition, _block_counts, as_labels
from .genmodels import ConnectivityMatrix, _conditions, _pair_probs
from .graph import Graph
from .optimizer import CANDIDATE_KINDS, FitResult, _per_candidate

_CLAMP_EPS = 1e-9
# Most terms summed by one np.sum call in the likelihood; at least 128, the
# length up to which numpy sums a float64 vector without splitting it.
_LEAF = 1 << 16
DEFAULT_LAMBDA = 0.12


class DegenerateError(RuntimeError):
    """Every candidate was degenerate; no selection is possible."""


@dataclass(frozen=True)
class BlockEstimates:
    """Plug-in block parameters from one partition: edge densities per
    ordered block pair, group proportions, group sizes."""
    p_hat: ConnectivityMatrix
    pi_hat: tuple[float, float]
    sizes: tuple[int, int]


@dataclass(frozen=True)
class ThetaEstimates:
    """Degree-ratio multipliers: theta_hat[i] is node i's degree over the
    average degree of its block (in+out degree for directed graphs).  Block
    variances are population variances; a zero-degree block gets all-ones
    multipliers and variance 0."""
    theta_hat: np.ndarray
    var_block1: float
    var_block2: float


@dataclass(frozen=True)
class CriterionScores:
    """Scores backing a selection: N-scaled gamma^2/tau^2 values for the
    signal criterion, per-candidate penalized log-likelihoods otherwise."""
    n_gamma_sq: float | None = None
    n_tau_sq_max: float | None = None
    n_tau_sq_min: float | None = None
    pen_loglik: dict[str, float] | None = None
    lam: float | None = None


@dataclass(frozen=True)
class SelectionOutcome:
    selected: str
    criterion: str
    scores: CriterionScores
    tied: bool = False
    excluded: tuple[str, ...] = ()
    clamp_events: int = 0


def estimate_block_probs(g: Graph, x) -> BlockEstimates:
    """Edge densities per block pair under the labeling ``x``: within-block
    counts over available pairs (ordered pairs for directed graphs,
    unordered for undirected)."""
    lab = as_labels(x, g.n_nodes)
    return _block_estimates(g, lab, _block_counts(g, lab))


def _block_estimates(g, lab, counts):
    m_x = int(lab.sum())
    n_x = lab.size - m_x
    if min(m_x, n_x) < 2:
        raise ValueError("both groups need at least 2 nodes")
    r1, e12, e21, r2 = counts
    if g.directed:
        p11 = r1 / (m_x * (m_x - 1))
        p22 = r2 / (n_x * (n_x - 1))
        p12 = e12 / (m_x * n_x)
        p21 = e21 / (m_x * n_x)
    else:
        p11 = r1 / (m_x * (m_x - 1) / 2)
        p22 = r2 / (n_x * (n_x - 1) / 2)
        p12 = p21 = (e12 + e21) / (m_x * n_x)
    n = lab.size
    return BlockEstimates(
        p_hat=ConnectivityMatrix(p11, p12, p21, p22),
        pi_hat=(m_x / n, n_x / n), sizes=(m_x, n_x))


def _signal_sq(est, which):
    """num^2 / pmax for condition ``which`` of ``genmodels._conditions`` at
    the plug-in densities and group proportions (0 when every density is)."""
    p = est.p_hat
    pmax = max(p.p11, p.p12, p.p21, p.p22)
    if pmax == 0.0:
        return 0.0
    num = _conditions(p, *est.pi_hat)[which]
    return num * num / pmax


def gamma_sq(est: BlockEstimates) -> float:
    """Squared core-periphery signal: the d-condition of
    ``genmodels._conditions`` at the group proportions, 2 pi1 P11 - 2 pi2 P22
    - (pi1 - pi2)(P12 + P21), squared over the largest block density."""
    return _signal_sq(est, 0)


def tau_sq(est: BlockEstimates) -> float:
    """Squared (dis)assortativity signal for the weighted statistic: the
    w-condition P11 + P22 - P12 - P21, squared over the largest density."""
    return _signal_sq(est, 1)


def check_lambda(lam: float) -> float:
    """``lam`` itself if it is a finite penalty weight >= 0."""
    if not 0 <= lam < np.inf:  # NaN fails both comparisons
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    return lam


def _active_candidates(candidates):
    fits = {}
    excluded = []
    for kind in CANDIDATE_KINDS:
        if kind not in candidates:
            raise ValueError(f"missing candidate {kind!r}")
        fit = candidates[kind]
        if fit.degenerate:
            excluded.append(kind)
        else:
            fits[kind] = fit
    if not fits:
        raise DegenerateError("all candidates degenerate")
    return fits, tuple(excluded)


def _argmax_in_order(scores):
    # the first candidate stands even at -inf (a huge finite lambda gives it)
    selected = None
    best = -np.inf
    for kind in CANDIDATE_KINDS:
        if kind in scores and (selected is None or scores[kind] > best):
            best = scores[kind]
            selected = kind
    tied = sum(1 for v in scores.values() if v == best) > 1
    return selected, tied


def gamma_tau_select(g: Graph, candidates: dict[str, FitResult]) -> SelectionOutcome:
    """Score each candidate's own partition by its matching N-scaled signal
    (N tau-hat^2 for the weighted fits, N gamma-hat^2 for the difference fit)
    and keep the largest."""
    fits, excluded = _active_candidates(candidates)
    n = g.n_nodes
    scores = {}
    for kind, fit in fits.items():
        est = estimate_block_probs(g, fit.labels)
        scores[kind] = n * (gamma_sq(est) if kind == "zd" else tau_sq(est))
    selected, tied = _argmax_in_order(scores)
    return SelectionOutcome(
        selected=selected, criterion="gamma-tau",
        scores=CriterionScores(
            n_gamma_sq=scores.get("zd"),
            n_tau_sq_max=scores.get("zw-max"),
            n_tau_sq_min=scores.get("zw-min")),
        tied=tied, excluded=excluded)


def theta_mle(g: Graph, x) -> ThetaEstimates:
    """Degree-corrected multipliers under the labeling ``x``: each node's
    incident degree (in + out when directed) over its group's mean degree,
    so they average 1 within a group, and each group's population variance
    of them.  A group with no edges keeps theta = 1; an empty group adds
    variance 0."""
    lab = as_labels(x, g.n_nodes)
    deg = g.k_inc.astype(np.float64)
    theta = np.ones(g.n_nodes)
    variances = []
    for label in (1, 0):
        sel = lab == label
        count = np.count_nonzero(sel)
        if count == 0:
            variances.append(0.0)
            continue
        # the steps of ndarray.mean and .var, without their Python wrappers
        avg = np.add.reduce(deg[sel]) / count
        if avg > 0:
            theta[sel] = deg[sel] / avg
        dev = theta[sel]
        dev -= np.add.reduce(dev) / count
        variances.append(float(np.add.reduce(np.square(dev, out=dev)) / count))
    return ThetaEstimates(theta_hat=theta, var_block1=variances[0],
                          var_block2=variances[1])


def _pair_layout(g):
    """Flat pair index of the likelihood sum: row-major over ordered pairs
    i != j (directed) or pairs i < j (undirected).  Returns the first index
    of each row (N + 1 offsets) and the index of every edge, ascending
    because ``Graph.edges`` is sorted by the key u N + v."""
    n = g.n_nodes
    u = g.edges[:, 0]
    v = g.edges[:, 1]
    rows = np.arange(n + 1, dtype=np.int64)
    if g.directed:
        return rows * (n - 1), u * (n - 1) + v - (v > u)
    off = rows * (n - 1) - rows * (rows - 1) // 2
    return off, off[u] + v - u - 1


def _row_pairs(slab, r0, directed):
    """The pair terms of rows r0, r0 + 1, ... in row-major order, kept from
    their (rows, columns) slab: every column but the row's own (directed,
    columns 0..N-1) or the columns past it (undirected, from r0 + 1)."""
    rows, width = slab.shape
    if not directed:
        return slab[np.arange(width) >= np.arange(rows)[:, None]]
    # row k's own column is at flat r0 + k (N + 1): copy the runs between
    flat = slab.ravel()
    out = np.empty(flat.size - rows)
    mid = (rows - 1) * width
    out[:r0] = flat[:r0]
    out[r0:r0 + mid].reshape(-1, width)[...] = (
        flat[r0 + 1:r0 + mid + rows].reshape(-1, width + 1)[:, :width])
    out[r0 + mid:] = flat[r0 + mid + rows:]
    return out


def _pair_count(flag, cls, directed):
    """How many pairs of the likelihood sum (ordered i != j, or i < j) have
    their class pair (cls[i], cls[j]) set in the (C, C) boolean ``flag``."""
    cnt = np.bincount(cls, minlength=flag.shape[0])
    ordered = int(cnt @ flag @ cnt - cnt @ flag.diagonal())
    if directed:
        return ordered
    # i < j reads flag[cls[i], cls[j]] alone; a class pair c, d set one way
    # round adds its K pairs i < j and takes off the n_c n_d - K others
    for c, d in np.argwhere(flag & ~flag.T):
        k = np.searchsorted(np.flatnonzero(cls == c), np.flatnonzero(cls == d))
        ordered += 2 * int(k.sum()) - int(cnt[c] * cnt[d])
    return ordered // 2


def _pairwise_sum(leaf_sum, start, count):
    """``leaf_sum`` over [start, start + count), split where np.sum splits a
    contiguous float64 vector of length count, so the total equals one
    np.sum over all terms bit for bit."""
    if count <= _LEAF:
        return leaf_sum(start, start + count)
    half = count // 2
    half -= half % 8
    return (_pairwise_sum(leaf_sum, start, half)
            + _pairwise_sum(leaf_sum, start + half, count - half))


def _penalized_details(g, x, lam, kind, layout=None):
    """(value, clamp events); ``layout`` is ``_pair_layout(g)`` if given."""
    x = x if isinstance(x, Partition) else Partition(x)  # checked once here
    lab = as_labels(x, g.n_nodes)
    counts = _block_counts(g, lab)
    est = _block_estimates(g, lab, counts)
    th = theta_mle(g, x)
    # theta_hat is a function of (block, degree), so every pair term is one
    # of a (class, class) table of the sampler's pair probabilities
    deg = g.k_inc
    span = int(deg.max()) + 1
    key = np.where(lab == 1, 0, span) + deg
    present = np.flatnonzero(np.bincount(key))
    cls = np.searchsorted(present, key)
    ct = np.empty(present.size)
    ct[cls] = th.theta_hat
    cb = present // span
    tab = _pair_probs(est.p_hat, cb, ct)
    flag = (tab < _CLAMP_EPS) | (tab > 1.0 - _CLAMP_EPS)
    np.clip(tab, _CLAMP_EPS, 1.0 - _CLAMP_EPS, out=tab)
    link = np.log(tab)
    nolink = np.log1p(np.negative(tab, out=tab), out=tab)
    off, keys = _pair_layout(g) if layout is None else layout
    clamps = _pair_count(flag, cls, g.directed)

    def leaf_sum(start, stop):
        # terms of flat pairs [start, stop), gathered from the rows they span
        r0, r1 = np.searchsorted(off, (start, stop - 1), side="right") - 1
        c0 = 0 if g.directed else r0 + 1
        slab = nolink[cls[r0:r1 + 1]].take(cls[c0:], axis=1)
        part = slice(start - off[r0], stop - off[r0])
        terms = _row_pairs(slab, r0, g.directed)[part]
        lo, hi = np.searchsorted(keys, (start, stop))
        u, v = cls[g.edges[lo:hi]].T
        terms[keys[lo:hi] - start] = link.take(u * ct.size + v)
        return float(np.sum(terms))

    loglik = _pairwise_sum(leaf_sum, 0, int(off[-1]))

    r1, _, _, r2 = counts
    if kind == "zd":
        penalty = lam * max(th.var_block1 * r1, th.var_block2 * r2)
    else:
        penalty = lam * (th.var_block1 + th.var_block2) * g.n_edges
    return loglik - penalty, clamps


def penalized_loglik(g: Graph, x, lam: float = DEFAULT_LAMBDA,
                     kind: str = "zw-max") -> float:
    """Bernoulli block log-likelihood with plug-in block densities and
    degree multipliers, minus a heterogeneity penalty.

    Pair probabilities clamp(P_hat * theta_i theta_j, 1e-9, 1 - 1e-9) are
    summed over ordered pairs i != j (directed) or unordered pairs
    (undirected).  The penalty is lam * (sum of block theta variances) *
    (total edges) for the weighted-statistic candidates; the difference
    candidate instead pays lam * max over blocks of (block theta variance *
    that block's own within edges), so heterogeneity outside a dense core is
    not over-charged.

    A pair term depends on the pair only through the classes (block,
    degree) of its two nodes, so each distinct term, and whether it
    clamps, is computed once in a table over the C classes present
    (C <= about 4 sqrt(|E|) + 2).  The terms are gathered from that table
    in blocks of at most 65,536 and summed exactly as one ``np.sum`` over
    all pairs in row-major order would sum them (numpy's pairwise order),
    so memory is O(N + |E|) plus one block and no N x N array is formed.
    Time is still O(N^2), for the gather and the sum.
    """
    check_lambda(lam)
    if kind not in CANDIDATE_KINDS:
        raise ValueError(f"unknown candidate kind {kind!r}")
    value, _ = _penalized_details(g, x, lam, kind)
    return value


def penalized_select(g: Graph, candidates: dict[str, FitResult],
                     lam: float = DEFAULT_LAMBDA) -> SelectionOutcome:
    """Evaluate the penalized log-likelihood of each candidate (each with the
    penalty form matching its kind) and keep the argmax.  On a large enough
    graph the candidates are scored in forked worker processes, as in
    ``fit_all_candidates``, with the same results."""
    check_lambda(lam)
    fits, excluded = _active_candidates(candidates)
    layout = _pair_layout(g)
    details = _per_candidate(
        lambda kind: _penalized_details(g, fits[kind].labels, lam, kind,
                                        layout),
        list(fits), g.n_nodes)
    scores = {kind: value for kind, (value, _) in zip(fits, details)}
    selected, tied = _argmax_in_order(scores)
    return SelectionOutcome(
        selected=selected, criterion="penalized",
        scores=CriterionScores(pen_loglik=scores, lam=lam),
        tied=tied, excluded=excluded,
        clamp_events=sum(clamps for _, clamps in details))
