"""Integer-support probability distributions and their validation.

A Distribution stores the probabilities exactly as produced (shot noise can
leave slightly negative entries); `validate_distribution` reports the
defects, and `Distribution.cleaned` zeroes the forbidden values, clips and
renormalizes after the raw numbers have been recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError


def moments(x: np.ndarray, p: np.ndarray) -> tuple[float, float, float]:
    """Mean of integer values x (any order) under weights p, then moments 2 and 3 about it.

    Moments about 0 would cancel at mean ~ N.  Sums are numpy's; BLAS dots' bits vary with threads.
    """
    mu = float((p * x).sum())
    dev = x - mu
    pd2 = p * dev * dev
    return mu, float(pd2.sum()), float((pd2 * dev).sum())


@dataclass(frozen=True)
class Distribution:
    support: np.ndarray  # strictly increasing integers
    probs: np.ndarray
    residual_imag: float = 0.0  # max |imaginary part| dropped during inversion
    forbidden: np.ndarray | None = None  # True where no configuration reaches x; None: nowhere
    method: str = ""

    def __post_init__(self):
        s = np.asarray(self.support, dtype=np.int64)
        p = np.asarray(self.probs, dtype=float)
        if s.shape != p.shape or s.ndim != 1:
            raise InputError("support and probs must be 1-d arrays of equal length")
        if s.size > 1 and not np.all(np.diff(s) > 0):
            raise InputError("support must be strictly increasing")
        f = np.zeros(s.shape, bool) if self.forbidden is None else np.asarray(self.forbidden, bool)
        if f.shape != s.shape:
            raise InputError("the forbidden mask must have the shape of the support")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "forbidden", f)

    def mean(self) -> float:
        return moments(self.support, self.probs)[0]

    def variance(self) -> float:
        return moments(self.support, self.probs)[1]

    def prob_of(self, x: int) -> float:
        idx = np.searchsorted(self.support, x)
        if idx >= self.support.size or self.support[idx] != x:
            return 0.0
        return float(self.probs[idx])

    def cleaned(self) -> "Distribution":
        """Set the forbidden values to 0, clip negative entries to 0 and renormalize.

        Report first: validate_distribution reads the raw numbers, parity
        defect included.
        """
        p = np.where(self.forbidden, 0.0, np.clip(self.probs, 0.0, None))
        total = p.sum()
        if total <= 0:
            raise InputError("distribution has no positive mass")
        return replace(self, probs=p / total)


@dataclass(frozen=True)
class DistributionReport:
    norm_defect: float
    min_prob: float
    parity_violation_mass: float
    residual_imag: float

    def worst_defect(self) -> float:
        """Largest defect; NaN if any defect is NaN."""
        return float(np.max([self.norm_defect, 0.0, -self.min_prob,
                             self.parity_violation_mass, self.residual_imag]))


def validate_distribution(dist: Distribution) -> DistributionReport:
    """Report normalization, negativity, forbidden-parity mass and imaginary residue.

    Purely diagnostic; never raises on a bad distribution.
    """
    return DistributionReport(
        norm_defect=abs(float(dist.probs.sum()) - 1.0),
        min_prob=float(dist.probs.min()),
        parity_violation_mass=float(np.abs(dist.probs[dist.forbidden]).sum()),
        residual_imag=float(dist.residual_imag),
    )


def total_variation(a: Distribution, b: Distribution) -> float:
    """(1/2) sum |p_a - p_b| over the union of the two supports."""
    lo = min(a.support[0], b.support[0])
    hi = max(a.support[-1], b.support[-1])
    pa = np.zeros(hi - lo + 1)
    pb = np.zeros(hi - lo + 1)
    pa[a.support - lo] = a.probs
    pb[b.support - lo] = b.probs
    return 0.5 * float(np.abs(pa - pb).sum())

