"""Shared numerical tolerances and logarithm base handling."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import BadParameter

LOG_BASES = ("natural", "two")


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerance knobs threaded through every verdict-producing operation.

    psd_slack      absolute slack (scaled by max(1, norm)) below which a
                   smallest eigenvalue still counts as nonnegative
    cluster_width  relative width for merging nearby eigenvalues into one
                   eigenspace
    rank_cutoff    relative cutoff below which an eigenvalue counts as zero
                   (kernel membership, generalized inverses)
    log_base       "natural" or "two"; applies to entropies and divergences
    """

    psd_slack: float = 1e-9
    cluster_width: float = 1e-9
    rank_cutoff: float = 1e-12
    log_base: str = "natural"

    def __post_init__(self):
        tolerances = (self.psd_slack, self.cluster_width, self.rank_cutoff)
        if not all(0 <= x < math.inf for x in tolerances):
            raise BadParameter(f"tolerances must be finite and nonnegative, got {tolerances}")
        if self.cluster_width < self.rank_cutoff:
            raise BadParameter(
                "cluster_width must be at least rank_cutoff "
                f"(got {self.cluster_width} < {self.rank_cutoff})"
            )
        if self.log_base not in LOG_BASES:
            raise BadParameter(f"log_base must be one of {LOG_BASES}")

    def log(self, x):
        """Logarithm in the configured base; handles 0 and inf gracefully."""
        if isinstance(x, float) or np.isscalar(x):  # a float skips isscalar's dispatch
            if x == 0:
                return -math.inf
            if math.isinf(x):
                return math.inf
            return math.log(x) if self.log_base == "natural" else math.log2(x)
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(arr) if self.log_base == "natural" else np.log2(arr)


DEFAULT_CONFIG = ToleranceConfig()
