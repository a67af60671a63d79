"""Integer-support probability distributions and their validation.

A Distribution stores the probabilities exactly as produced (shot noise can
leave slightly negative entries); `validate_distribution` reports the
defects, and `Distribution.cleaned` clips and renormalizes after the raw
numbers have been recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class DistMeta:
    """Provenance of a distribution: which observable, model and method."""

    obs_kind: str  # 'magnetization' | 'kinks' | 'custom'
    n: int
    model_kind: str | None = None
    method: str = ""


@dataclass(frozen=True)
class Distribution:
    support: np.ndarray  # strictly increasing integers
    probs: np.ndarray
    residual_imag: float = 0.0  # max |imaginary part| dropped during inversion
    meta: DistMeta | None = None

    def __post_init__(self):
        s = np.asarray(self.support, dtype=np.int64)
        p = np.asarray(self.probs, dtype=float)
        if s.shape != p.shape or s.ndim != 1:
            raise InputError("support and probs must be 1-d arrays of equal length")
        if s.size > 1 and not np.all(np.diff(s) > 0):
            raise InputError("support must be strictly increasing")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probs", p)

    def mean(self) -> float:
        return float(self.probs @ self.support)

    def variance(self) -> float:
        mu = self.mean()
        return float(self.probs @ (self.support - mu) ** 2)

    def raw_moment(self, order: int) -> float:
        return float(self.probs @ self.support.astype(float) ** order)

    def prob_of(self, x: int) -> float:
        idx = np.searchsorted(self.support, x)
        if idx >= self.support.size or self.support[idx] != x:
            return 0.0
        return float(self.probs[idx])

    def cleaned(self) -> "Distribution":
        """Clip negative entries to zero and renormalize (report first!)."""
        p = np.clip(self.probs, 0.0, None)
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


def _forbidden_mask(dist: Distribution) -> np.ndarray:
    """Support points that no spin configuration can reach."""
    meta = dist.meta
    if meta is None:
        return np.zeros(dist.support.size, dtype=bool)
    if meta.obs_kind == "magnetization":
        return (dist.support - meta.n) % 2 != 0
    if meta.obs_kind == "kinks":
        # domain walls pair up around a closed loop
        return dist.support % 2 != 0
    return np.zeros(dist.support.size, dtype=bool)


def validate_distribution(dist: Distribution) -> DistributionReport:
    """Report normalization, negativity, forbidden-parity mass and imaginary residue.

    Purely diagnostic; never raises on a bad distribution.
    """
    forbidden = _forbidden_mask(dist)
    return DistributionReport(
        norm_defect=abs(float(dist.probs.sum()) - 1.0),
        min_prob=float(dist.probs.min()),
        parity_violation_mass=float(np.abs(dist.probs[forbidden]).sum()),
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


def charfunc_of_distribution(dist: Distribution, thetas) -> np.ndarray:
    """Forward transform F(theta) = sum P(x) exp(i theta x); round-trip oracle."""
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    return np.exp(1j * np.outer(th, dist.support.astype(float))) @ dist.probs.astype(complex)
