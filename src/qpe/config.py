"""Shared numerical tolerances and logarithm base handling."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import BadParameter

LOG_BASES = ("natural", "two")
TOLERANCES = ("psd_slack", "cluster_width", "rank_cutoff")
# the fields each partner-memo entry reads, by tag (linalg.remembered): a
# config holds each entry's key as _<tag>_key
MEMO_READS = {
    "qpe_leq": ("psd_slack", "rank_cutoff"),
    "sandwich": ("rank_cutoff",),
    "max_divergence": ("rank_cutoff", "log_base"),
    "way_below": ("psd_slack", "rank_cutoff"),
}


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

    Each tolerance is a real number, stored as a float (-0.0 as 0.0); a
    bool, str, complex, None or array is refused. Construction also builds,
    for each tag of MEMO_READS, the partner-memo key _<tag>_key: one str of
    the tag and the repr of each field the entry reads, so equal configs
    share a key and any moved field gives another, and a str caches its
    hash. The keys are plain attributes, not fields: fields(), repr, ==,
    hash and dataclasses.replace see only the four knobs.
    """

    psd_slack: float = 1e-9
    cluster_width: float = 1e-9
    rank_cutoff: float = 1e-12
    log_base: str = "natural"

    def __post_init__(self):
        for name in TOLERANCES:
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise BadParameter(f"{name} must be a real number, got {x!r}")
            try:
                object.__setattr__(self, name, float(x) + 0.0)  # + 0.0 folds -0.0 into 0.0
            except OverflowError:
                raise BadParameter(f"tolerances must be finite, got {name} = {x}") from None
        tolerances = (self.psd_slack, self.cluster_width, self.rank_cutoff)
        if not all(0 <= x < math.inf for x in tolerances):
            raise BadParameter(f"tolerances must be finite and nonnegative, got {tolerances}")
        if self.cluster_width < self.rank_cutoff:
            raise BadParameter(
                "cluster_width must be at least rank_cutoff "
                f"(got {self.cluster_width} < {self.rank_cutoff})"
            )
        if not (isinstance(self.log_base, str) and self.log_base in LOG_BASES):
            raise BadParameter(f"log_base must be one of {LOG_BASES}")
        object.__setattr__(self, "log_base", str(self.log_base))
        for tag, reads in MEMO_READS.items():
            key = " ".join([tag, *(repr(getattr(self, name)) for name in reads)])
            object.__setattr__(self, f"_{tag}_key", key)

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
