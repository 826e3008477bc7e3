"""Planted two-community random graphs: stochastic block model and its
degree-corrected extension."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edgestats import Partition
from .graph import Graph, _integer

# Largest m + n the samplers accept: they draw N x N float arrays, 800 MB
# each at this size.
_MAX_NODES = 10_000


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Block connection probabilities; entry ab is the probability of an edge
    from a community-a node to a community-b node (a, b in {1, 2}, where
    community 1 is the planted label-1 group)."""
    p11: float
    p12: float
    p21: float
    p22: float

    def __post_init__(self):
        for name in ("p11", "p12", "p21", "p22"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @classmethod
    def from_rows(cls, rows):
        (a, b), (c, d) = rows
        return cls(float(a), float(b), float(c), float(d))

    def as_array(self):
        return np.array([[self.p11, self.p12], [self.p21, self.p22]])

    @property
    def symmetric(self):
        return self.p12 == self.p21


def _pair_probs(p: ConnectivityMatrix, blocks, thetas):
    """(N, N) pair probabilities (P_ab theta_i) theta_j of the degree-
    corrected block model, unclamped, where a = blocks[i] and b = blocks[j]
    index ``p.as_array()`` (block 0 is community 1); the one coding of the
    pair probability, read by the sampler and by the penalized selector."""
    # take, not [:, blocks]: that gather is column-major, and the
    # selector's row gathers from it run about a quarter slower at N = 4,000
    probs = (p.as_array()[blocks] * thetas[:, None]).take(blocks, axis=1)
    probs *= thetas
    return probs


def _conditions(p: ConnectivityMatrix, a, b):
    """(d_condition, w_condition): 2a P11 - 2b P22 - (a - b)(P12 + P21)
    and P11 + P22 - P12 - P21, the leading factors of the population drifts
    of R_d and R_w, whose signs tell the mixing types apart.  The oracle
    passes a, b = m - 1, n - 1; the signal criterion passes the group
    proportions."""
    d_cond = 2 * a * p.p11 - 2 * b * p.p22 - (a - b) * (p.p12 + p.p21)
    return d_cond, p.p11 + p.p22 - p.p12 - p.p21


@dataclass(frozen=True)
class ThetaSpec:
    """A mean-1 law for per-node degree multipliers.

    kinds: "const" (all ones), "pareto" (shape alpha > 1, scale (alpha-1)/alpha),
    "uniform" (on [low, 2-low], 0 < low <= 1), "exp" (Exponential(rate) shifted
    by 1 - 1/rate, rate > 1 so draws stay positive).
    """
    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind == "const":
            if self.param is not None:
                raise ValueError("const takes no parameter")
        elif self.kind == "pareto":
            if self.param is None or not 1.0 < self.param < np.inf:
                raise ValueError("pareto shape must be finite and > 1")
        elif self.kind == "uniform":
            if self.param is None or not 0.0 < self.param <= 1.0:
                raise ValueError("uniform low endpoint must be in (0, 1]")
        elif self.kind == "exp":
            if self.param is None or not 1.0 < self.param < np.inf:
                raise ValueError("exp rate must be finite and > 1")
        else:
            raise ValueError(f"unknown theta kind {self.kind!r}")

    @classmethod
    def constant1(cls):
        return cls("const")

    @classmethod
    def pareto(cls, shape):
        return cls("pareto", float(shape))

    @classmethod
    def uniform_low(cls, low):
        return cls("uniform", float(low))

    @classmethod
    def shifted_exponential(cls, rate):
        return cls("exp", float(rate))

    @classmethod
    def parse(cls, text):
        """Parse CLI-style specs: const | pareto:SHAPE | uniform:LOW | exp:RATE."""
        head, sep, tail = text.partition(":")
        if head == "const" and not sep:
            return cls.constant1()
        if head in ("pareto", "uniform", "exp") and sep:
            try:
                val = float(tail)
            except ValueError:
                raise ValueError(f"bad theta parameter {tail!r}") from None
            return cls(head, val)
        raise ValueError(f"bad theta spec {text!r}")


@dataclass(frozen=True)
class PlantedGraph:
    """A sampled graph with its planted truth (m ones then n zeros) and the
    degree multipliers used; clamped_pairs counts pairs whose edge probability
    theta_i theta_j P_ab exceeded 1 and was truncated."""
    graph: Graph
    truth: Partition
    thetas: np.ndarray
    clamped_pairs: int = 0


def sample_theta(spec: ThetaSpec, count: int, rng: np.random.Generator):
    """iid draws from the mean-1 law given by ``spec``."""
    count = _integer(count, "count")
    if count < 0:
        raise ValueError("count must be >= 0")
    if spec.kind == "const":
        return np.ones(count)
    if spec.kind == "pareto":
        a = spec.param
        scale = (a - 1.0) / a
        return scale * (rng.pareto(a, size=count) + 1.0)
    if spec.kind == "uniform":
        low = spec.param
        return rng.uniform(low, 2.0 - low, size=count)
    rate = spec.param
    return rng.exponential(1.0 / rate, size=count) + 1.0 - 1.0 / rate


def _check_size(m, n):
    """``(m, n)`` as ints (see ``graph._integer``), or ValueError when their
    sum exceeds ``_MAX_NODES``."""
    m, n = _integer(m, "m"), _integer(n, "n")
    total = m + n
    if total > _MAX_NODES:
        mb = 8 * total * total / 1e6
        raise ValueError(
            f"m + n = {total} exceeds the samplers' limit of {_MAX_NODES} "
            f"nodes (each N x N array would take {mb:,.0f} MB)")
    return m, n


def _sample_planted(p, m, n, thetas, directed, rng):
    if m < 2 or n < 2:
        raise ValueError("each community needs at least 2 nodes")
    if not directed and not p.symmetric:
        raise ValueError("undirected sampling needs p12 == p21")
    total = m + n
    blocks = np.concatenate([np.zeros(m, dtype=np.intp),
                             np.ones(n, dtype=np.intp)])
    probs = _pair_probs(p, blocks, thetas)
    np.fill_diagonal(probs, 0.0)
    clamped = int(np.count_nonzero(probs > 1.0))
    np.minimum(probs, 1.0, out=probs)
    # one dense draw; the zero diagonal of probs never yields a self-loop
    adj = rng.random((total, total)) < probs
    if not directed:
        adj = np.triu(adj)
        # clamping was counted over ordered pairs; undirected pairs appear once
        clamped //= 2
    edges = np.argwhere(adj)
    truth = Partition(np.concatenate([np.ones(m, dtype=np.int8),
                                      np.zeros(n, dtype=np.int8)]))
    return PlantedGraph(graph=Graph(total, edges, directed),
                        truth=truth, thetas=thetas, clamped_pairs=clamped)


def sample_sbm(p: ConnectivityMatrix, m: int, n: int, directed: bool,
               rng: np.random.Generator) -> PlantedGraph:
    """Stochastic block model draw: each node pair gets an edge independently
    with the block probability; community 1 nodes come first.  This is the
    DCSBM with theta = 1, which draws nothing for the multipliers.  Raises
    ValueError when m + n exceeds 10,000, before any allocation."""
    return sample_dcsbm(p, m, n, ThetaSpec.constant1(), directed, rng)


def sample_dcsbm(p: ConnectivityMatrix, m: int, n: int, spec: ThetaSpec,
                 directed: bool, rng: np.random.Generator) -> PlantedGraph:
    """Degree-corrected draw: pair (i, j) gets an edge with probability
    min(1, theta_i theta_j P_ab).  Thetas are drawn first (node order), so
    the graph and multipliers share one stream deterministically.  Raises
    ValueError when m + n exceeds 10,000, before any draw."""
    m, n = _check_size(m, n)
    thetas = sample_theta(spec, m + n, rng)
    return _sample_planted(p, m, n, thetas, directed, rng)


def replicate_rngs(seed: int, rep: int):
    """Stream-splitting rule for simulation sweeps: replicate ``rep`` under
    base ``seed`` gets an independent graph generator and fit seed, regardless
    of scheduling order.  Returns (graph_rng, fit_seed)."""
    seed, rep = _integer(seed, "seed"), _integer(rep, "replicate index")
    if seed < 0 or rep < 0:
        raise ValueError("seed and replicate index must be non-negative")
    ss = np.random.SeedSequence([seed, rep])
    graph_key, fit_key = ss.generate_state(2)
    return np.random.default_rng(int(graph_key)), int(fit_key)
