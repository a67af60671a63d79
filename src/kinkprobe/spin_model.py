"""Ising Hamiltonians and observables on (..., N) arrays of +-1 spins.

Two model families are supported: the nearest-neighbour ring (periodic
chain, every bond (n, n+1) including the wrap bond (N, 1)) and the
all-to-all long-range model with a uniform pair coupling.  Observables are
affine combinations of spin products, X = a + b * sum of products; the two
built-ins are the magnetization (a=0, b=1, singletons) and the kink number
(a=N/2, b=-1/2, ring bonds).

The exhaustive-enumeration oracle in this module is the ground truth that
every analytic route in the package is validated against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distribution import Distribution
from .errors import InputError, SizeError

ENUMERATION_LIMIT = 24  # 2^N configurations; refuse above this
_ENUM_CHUNK = 1 << 16  # fixed chunking keeps the summation order deterministic


def _is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool: the rule for every count and seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class ModelKind(enum.Enum):
    RING = "ring"
    LONG_RANGE = "longrange"


class ObsKind(enum.Enum):
    MAGNETIZATION = "magnetization"
    KINKS = "kinks"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ModelParams:
    """One model instance: a ModelKind, an integer N >= 1, finite J, h and beta >= 0.

    4 |beta J| N^2 and 4 |beta h| N must be finite: they bound every exponent
    the partition, F and sampler routes form.

    beta = 0 is the infinite-temperature limit, an ordinary input to every
    route, since no routine divides by beta.
    """

    kind: ModelKind
    N: int
    J: float
    h: float
    beta: float

    def __post_init__(self):
        if not isinstance(self.kind, ModelKind):
            raise InputError(f"kind must be a ModelKind, got {self.kind!r}")
        if not _is_integer(self.N) or self.N < 1:
            raise InputError(f"N must be a positive integer, got {self.N!r}")
        for name in ("J", "h", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta < 0:
            raise InputError("beta must be non-negative")
        for name, coupling, sites in (("J", self.J, self.N * self.N), ("h", self.h, self.N)):
            # the largest route exponent is below 4 (|beta J| N^2 + |beta h| N); as Python
            # floats the products overflow to inf silently, where numpy scalars would warn
            if not math.isfinite(4.0 * abs(float(self.beta) * float(coupling)) * sites):
                raise InputError(f"beta*{name} = {self.beta} * {coupling} overflows "
                                 f"the float range at N = {self.N}")


@dataclass(frozen=True)
class ObservableSpec:
    """X = a + b * sum over the n `terms` of spin products; indices are 1-based.

    A built-in is (kind, n), its terms built on first read; a custom one keeps ``custom_terms``.
    """

    a: float
    b: float
    n: int
    kind: ObsKind = ObsKind.CUSTOM
    custom_terms: tuple = ()

    def __post_init__(self):
        if self.kind is ObsKind.MAGNETIZATION:
            if (self.a, self.b) != (0.0, 1.0) or self.n < 0 or len(self.custom_terms):
                raise InputError("magnetization tag requires a=0, b=1, N >= 0 and no "
                                 "explicit terms")
        elif self.kind is ObsKind.KINKS:
            if (self.a, self.b) != (self.n / 2.0, -0.5) or self.n < 0 or len(self.custom_terms):
                raise InputError("kink tag requires a=N/2, b=-1/2, N >= 0 and no "
                                 "explicit terms")
        else:
            terms = tuple(tuple(int(i) for i in t) for t in self.custom_terms)
            if self.n != len(terms) or any(len(t) == 0 or min(t) < 1 for t in terms):
                raise InputError(f"custom observable needs n={self.n} terms, each with at "
                                 "least one 1-based spin index")
            object.__setattr__(self, "custom_terms", terms)

    @cached_property
    def terms(self) -> tuple:
        """Magnetization: the singletons; kinks: the ring bonds, wrap bond (N, 1) last."""
        if self.kind is ObsKind.MAGNETIZATION:
            return tuple(zip(range(1, self.n + 1)))
        if self.kind is ObsKind.KINKS:
            return tuple(zip(range(1, self.n + 1), [*range(2, self.n + 1), 1]))
        return self.custom_terms

    def value_bounds(self) -> tuple[int, int]:
        """Smallest and largest integer value X can take (term sum in [-n, n])."""
        lo, hi = self.a - abs(self.b) * self.n, self.a + abs(self.b) * self.n
        for v in (lo, hi):
            if abs(v - round(v)) > 1e-9:
                raise InputError("observable is not integer-valued")
        return int(round(lo)), int(round(hi))

    def forbidden(self, x) -> np.ndarray:
        """True at each value in ``x`` that no configuration reaches (by parity)."""
        x = np.asarray(x)
        if self.kind is ObsKind.MAGNETIZATION:
            return (x - self.n) % 2 != 0  # M has the parity of N
        if self.kind is ObsKind.KINKS:
            return x % 2 != 0  # domain walls pair up around the closed ring
        return np.zeros(x.shape, dtype=bool)


def check_term_count(n: int, obs: ObservableSpec) -> None:
    """A built-in observable must cover all n sites; custom ones are free."""
    if obs.kind is not ObsKind.CUSTOM and obs.n != n:
        raise InputError(f"{obs.kind.value} observable covers {obs.n} sites, "
                         f"the model has N={n}")


def magnetization(n: int) -> ObservableSpec:
    """M = sum of all spins; integer values in [-N, N] with the parity of N."""
    return ObservableSpec(a=0.0, b=1.0, n=n, kind=ObsKind.MAGNETIZATION)


def kink_number(n: int) -> ObservableSpec:
    """K = (N - sum of ring-bond products)/2, the number of domain walls.

    The wrap bond (N, 1) is always included, so K is an even integer on the
    periodic ring for every configuration.
    """
    return ObservableSpec(a=n / 2.0, b=-0.5, n=n, kind=ObsKind.KINKS)


def custom_observable(a: float, b: float, terms) -> ObservableSpec:
    terms = tuple(terms)
    return ObservableSpec(a=a, b=b, n=len(terms), kind=ObsKind.CUSTOM, custom_terms=terms)


def term_sums(spins: np.ndarray, terms) -> np.ndarray:
    """Sum over ``terms`` of the +-1 spin products, for each row of a (..., N) array.

    Indices are 1-based; one above N raises InputError.  The sums are
    integers, accumulated in int64 one term at a time, so no (rows, terms)
    intermediate is ever built.
    """
    n = spins.shape[-1]
    total = np.zeros(spins.shape[:-1], dtype=np.int64)
    for term in terms:
        if any(i > n for i in term):
            raise InputError(f"term {term} out of range for N={n}")
        prod = np.ones(spins.shape[:-1], dtype=np.int64)
        for i in term:
            prod *= spins[..., i - 1]
        total += prod
    return total


def observable_values(spins: np.ndarray, obs: ObservableSpec) -> np.ndarray:
    """X on each row of a (..., N) array of +-1 spins."""
    return obs.a + obs.b * term_sums(spins, obs.terms)


def _config_matrix(n: int, start: int, stop: int) -> np.ndarray:
    """Spins (+1/-1) of configurations with indices [start, stop), bit n-1 = site 1."""
    idx = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def energy(model: ModelParams, spins: np.ndarray) -> np.ndarray:
    """Hamiltonian value of each row of a (..., N) array of +-1 spins.

    Ring: -J * sum over ring bonds (wrap included) - h * sum of spins.
    Long range: -J * sum over all pairs m < n - h * sum of spins.
    """
    n = spins.shape[-1]
    if n != model.N:
        raise InputError(f"configuration has {n} spins, model expects {model.N}")
    m = spins.sum(axis=-1, dtype=np.int64)
    if model.kind is ModelKind.RING:
        bonds = (spins.astype(np.int64) * np.roll(spins, -1, axis=-1)).sum(axis=-1)
        return -model.J * bonds - model.h * m
    return -model.J * (m * m - model.N) / 2.0 - model.h * m


@dataclass(frozen=True)
class OracleResult:
    """Exact log partition function and observable distribution from enumeration."""

    log_z: float
    dist: Distribution


def enumerate_oracle(model: ModelParams, obs: ObservableSpec) -> OracleResult:
    """Sum exp(-beta * E) over all 2^N configurations.

    Weights are shifted by the minimum energy internally, so the histogram is
    exact even when exp(-beta*E) itself would overflow.  Cost is 2^N; N above
    24 is refused, and so is a built-in observable of another size.
    """
    n = model.N
    if n > ENUMERATION_LIMIT:
        raise SizeError(f"enumeration limited to N <= {ENUMERATION_LIMIT}, got {n}")
    check_term_count(n, obs)
    lo, hi = obs.value_bounds()
    support = np.arange(lo, hi + 1)
    weights = np.zeros(support.size)

    total = 1 << n
    e_min = None
    # two passes: find the energy shift, then accumulate (keeps memory flat)
    for start in range(0, total, _ENUM_CHUNK):
        spins = _config_matrix(n, start, min(start + _ENUM_CHUNK, total))
        e = energy(model, spins)
        m = float(e.min())
        e_min = m if e_min is None else min(e_min, m)
    z_scaled = 0.0
    for start in range(0, total, _ENUM_CHUNK):
        spins = _config_matrix(n, start, min(start + _ENUM_CHUNK, total))
        e = energy(model, spins)
        x = observable_values(spins, obs)
        xi = np.rint(x).astype(np.int64)
        if np.abs(x - xi).max() > 1e-12:
            raise InputError("observable is not integer-valued on some configuration")
        w = np.exp(-model.beta * (e - e_min))
        weights += np.bincount(xi - lo, weights=w, minlength=support.size)
        z_scaled += float(w.sum())

    probs = weights / z_scaled
    log_z = math.log(z_scaled) - model.beta * e_min
    return OracleResult(log_z, Distribution(support=support, probs=probs,
                                            forbidden=obs.forbidden(support), method="oracle"))
