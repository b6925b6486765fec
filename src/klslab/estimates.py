"""Monte Carlo estimates with standard errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n_samples: int
    method: str = ""

    def to_json_dict(self):
        # external schema: exactly these three keys
        return {"value": self.value, "se": self.std_error, "n": self.n_samples}

    def __str__(self):
        return f"{self.value:.6g} +/- {self.std_error:.2g} (n={self.n_samples}, {self.method})"


def bootstrap_se(values, statistic, rng, n_boot=24) -> float:
    """Bootstrap standard error of statistic(values) over index resamples."""
    v = np.asarray(values)
    n = v.shape[0]
    stats = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, n, size=n)
        stats[b] = statistic(v[idx])
    return float(stats.std(ddof=1))
