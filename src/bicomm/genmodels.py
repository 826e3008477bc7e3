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


def _planted_probs(p: ConnectivityMatrix, m, n, thetas):
    blocks = np.concatenate([np.zeros(m, dtype=np.intp),
                             np.ones(n, dtype=np.intp)])
    # (P_ab * theta_i) * theta_j, with one N x N array
    probs = (p.as_array()[blocks] * thetas[:, None])[:, blocks]
    probs *= thetas
    np.fill_diagonal(probs, 0.0)
    clamped = int(np.count_nonzero(probs > 1.0))
    np.minimum(probs, 1.0, out=probs)
    return probs, clamped


def _sample_planted(p, m, n, thetas, directed, rng):
    if m < 2 or n < 2:
        raise ValueError("each community needs at least 2 nodes")
    if not directed and not p.symmetric:
        raise ValueError("undirected sampling needs p12 == p21")
    total = m + n
    probs, clamped = _planted_probs(p, m, n, thetas)
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
    with the block probability; community 1 nodes come first.  Raises
    ValueError when m + n exceeds 10,000, before any allocation."""
    m, n = _check_size(m, n)
    return _sample_planted(p, m, n, np.ones(m + n), directed, rng)


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
