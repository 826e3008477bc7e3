"""Label-swap-aligned error rate and the success-rate benchmark metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edgestats import as_labels


def misclassification_rate(truth, est) -> float:
    """Fraction of mismatched labels, minimized over the two ways of naming
    the communities; always in [0, 0.5]."""
    t = as_labels(truth)
    e = as_labels(est)
    if t.size != e.size:
        raise ValueError("label vectors differ in length")
    mism = int(np.count_nonzero(t != e))
    return min(mism, t.size - mism) / t.size


@dataclass(frozen=True)
class EvalRecord:
    """Per-run misclassification of the selection criterion and of each of
    the three candidates, plus the tolerance rate psi."""
    eps_criterion: float
    eps_d: float
    eps_w_min: float
    eps_w_max: float
    psi: float = 0.1

    def __post_init__(self):
        for name in ("eps_criterion", "eps_d", "eps_w_min", "eps_w_max"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise ValueError(f"{name}={v} outside [0, 0.5]")
        if not 0 <= self.psi < np.inf:  # NaN fails both comparisons
            raise ValueError(f"psi must be finite and >= 0, got {self.psi}")

    @property
    def success(self) -> bool:
        """Criterion within factor (1 + psi) of the best candidate;
        the boundary counts as success."""
        best = min(self.eps_d, self.eps_w_min, self.eps_w_max)
        return self.eps_criterion <= (1.0 + self.psi) * best


def success_rate(records) -> float:
    """Fraction of runs where the criterion kept pace with the best
    candidate.  All records must share one psi."""
    records = list(records)
    if not records:
        raise ValueError("need at least one record")
    psis = {r.psi for r in records}
    if len(psis) > 1:
        raise ValueError("records mix different psi values")
    return sum(r.success for r in records) / len(records)
