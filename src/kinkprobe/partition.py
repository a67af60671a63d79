"""Ising partition functions at real or complex couplings, as log Z.

partition_function(model, A, B) is the one entry point: log Z at A = beta*J
and B = beta*h, either of which may be complex, for the model's kind and N,
as one complex number whose real part is log|Z| and whose imaginary part is
a phase of Z (mod 2 pi).  A ratio of partition functions is thus the exp
of a difference, and |A|, |B| up to 700 and N up to 1e4 never overflow.
The ring uses the 2x2 transfer matrix, whose eigenvalues read

    lambda_pm = e^{A} cosh(B) +- e^{-A} sqrt(1 + e^{4A} sinh^2(B)),

and Z = lambda_-^N + lambda_+^N.  The long-range model uses the explicit sum
over the down-count sectors k; its log sector weights (_longrange_log_g)
also give both long-range characteristic functions in charfunc.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InputError
from .spin_model import ModelKind, ModelParams

_TINY_LOG_BRACKET = -40.0  # below this log|N (1 + r)|, the odd-N bracket is N (1 + r)
_DEAD_LOG_POWER = -800.0  # |r|^N below e^-800 rounds to exactly 0


def _scaled_lambdas(A, B):
    """Both transfer-matrix eigenvalues, scaled by exp(-c) with real c.

    c = max(Re A + |Re B|, -Re A) bounds every intermediate exponent by zero,
    so the computation is overflow-free for |A|, |B| up to ~700.  Returns c,
    lambda_pm = term +- root, and the factors of term = e^{A - c} cosh B:
    its head exponent A - c + |Re B| and cosh_s = cosh(B) e^{-|Re B|}.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    re_a, re_b = A.real, np.abs(B.real)
    c = np.maximum(re_a + re_b, -re_a)
    # cosh(B) e^{-|Re B|} and sinh(B) e^{-|Re B|}: all exponents <= 0
    ep = np.exp(B - re_b)
    em = np.exp(-B - re_b)
    cosh_s = 0.5 * (ep + em)
    sinh_s = 0.5 * (ep - em)
    head_exp = A - c + re_b  # real part Re A - c + |Re B| <= 0
    head = np.exp(head_exp)
    term = head * cosh_s  # e^{A - c} cosh B
    soff = head * sinh_s  # e^{A - c} sinh B
    tail = np.exp(-A - c)  # exponent -Re A - c <= 0
    # principal branch; the other one only swaps lambda_pm, which leaves Z as it is
    root = np.sqrt(tail * tail + soff * soff)
    return c, term + root, term - root, head_exp, cosh_s


def _log1p(z):
    """log(1 + z) for complex z, accurate also for tiny |z| (Kahan's form).

    numpy's complex log1p is not: it gives -1.1e-16 for -6e-17.
    """
    u = 1.0 + z
    exact = u == 1.0
    u = np.where(exact, 2.0, u)
    return np.where(exact, z, np.log(u) * z / (u - 1.0))


def _znn_scaled_arrays(n: int, A, B):
    """Z = lambda_+^N + lambda_-^N in factored form; broadcasts over A, B.

    Z = big^N (1 + r^N) with r = small / big.  For odd N and r near -1 (a
    frustrated ring, beta J below about -18.5) the bracket cancels in that
    form.  There it is built from 1 + r = 2 term / big, which does not
    cancel, as 1 + r^N = -expm1(N log1p(-(1 + r))), and its logarithm is
    folded into log_scale, so it cannot underflow for beta J down to -700.
    r^N is raised only where |r|^N >= e^-800; elsewhere it rounds to exactly
    0, which the power would return too, at the cost of a complex log and exp.
    """
    c, lp, lm, head_exp, cosh_s = _scaled_lambdas(A, B)
    lp, lm, c = np.atleast_1d(lp), np.atleast_1d(lm), np.atleast_1d(c)
    plus_is_big = np.abs(lp) >= np.abs(lm)
    big = np.where(plus_is_big, lp, lm)
    small = np.where(plus_is_big, lm, lp)
    if np.any(big == 0):
        raise InputError("both transfer eigenvalues vanish; parameters are singular")
    logbig = np.log(big)
    r = small / big
    ratio_pow = np.zeros_like(r)
    live = ~(np.abs(r) < math.exp(_DEAD_LOG_POWER / n))  # NaN stays live
    ratio_pow[live] = r[live] ** n
    log_scale = n * (c + logbig.real)
    phase = n * logbig.imag
    if n % 2 == 0:
        return log_scale, np.exp(1j * phase) * (1.0 + ratio_pow)
    w = 2.0 * (np.exp(head_exp) * cosh_s) / big  # 1 + r = 2 term / big
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(2.0) + (head_exp + np.log(cosh_s)) - logbig
        # log|N w| below -40: 1 - (1 - w)^N = N w to double precision
        tiny = log_w.real + np.log(n) < _TINY_LOG_BRACKET
        keep = (np.abs(w) < 0.5) & ~tiny  # r near -1, and the bracket is read
        bracket = 1.0 + ratio_pow
        bracket[keep] = -np.expm1(n * _log1p(-w[keep]))
        log_bracket = np.where(tiny, np.log(n) + log_w, np.log(bracket))
    return log_scale + log_bracket.real, np.exp(1j * (phase + log_bracket.imag))


def _log_binomials(n: int) -> np.ndarray:
    """log C(N, k) - log C(N, N // 2) for k = 0..N, zero at the centre.

    Summed outward from the centre over log((N - k) / (k + 1)), so no entry
    carries the rounding of log N! (8.2e4 at N = 1e4), as log-factorials do.
    """
    half = n // 2
    k = np.arange(n)
    steps = np.log((n - k) / (k + 1.0))  # log C(N, k + 1) - log C(N, k)
    out = np.zeros(n + 1)
    out[half + 1:] = np.cumsum(steps[half:])
    out[:half] = -np.cumsum(steps[:half][::-1])[::-1]
    return out


def _longrange_log_g(n: int, A, B) -> tuple[np.ndarray, complex]:
    """Log sector weights over the down-count k = 0..N, centred on the heaviest sector.

    With M = N - 2k, A = beta*J and B = beta*h (either may be complex), the
    k-down sector weighs C(N, k) e^{A(M^2 - N)/2 + BM} = C(N, N // 2) g(k) e^c.
    Returns (log g, c): log g = log C(N, k) - log C(N, N // 2)
    + (M - M0)(A(M + M0)/2 + B), where c is the exponent of the sector M0 of
    largest real log weight.  The sectors near M0, which carry the weight, are
    thus not rounded at the scale |A| N^2 / 2, nor at that of log N!.
    """
    m = n - 2.0 * np.arange(n + 1)
    logc = _log_binomials(n)
    m0 = m[np.argmax((logc + m * (0.5 * A * m + B)).real)]
    return logc + (m - m0) * (0.5 * A * (m + m0) + B), 0.5 * A * (m0 * m0 - n) + B * m0


def _zlr_log(n: int, A, B) -> complex:
    """Long-range log Z = log C(N, N // 2) + c + log sum_k g(k), a log-sum-exp.

    See _longrange_log_g.  The terms are shifted by their largest real log
    weight before they are summed.
    """
    expo, c = _longrange_log_g(n, complex(A), complex(B))
    shift = float(expo.real.max())
    half = n // 2
    log_central = math.lgamma(n + 1) - math.lgamma(half + 1) - math.lgamma(n - half + 1)
    with np.errstate(divide="ignore"):
        return complex(c + shift + log_central + np.log(np.exp(expo - shift).sum()))


def partition_function(model: ModelParams, A, B) -> complex:
    """log Z at A = beta*J and B = beta*h, either of which may be complex.

    Reads only model.kind and model.N: the couplings come in as A and B, so
    one call serves the physical and the analytically-continued Z alike.  A
    vanishing Z (a Lee-Yang zero) gives a real part of -inf, without a
    warning, so the ratio Z / Z' = exp(log Z - log Z') reads 0.
    """
    if model.kind is ModelKind.RING:
        log_scale, value = _znn_scaled_arrays(model.N, A, B)
        with np.errstate(divide="ignore"):
            return complex(log_scale[0] + np.log(value[0]))
    return _zlr_log(model.N, A, B)


def loschmidt_amplitude(model: ModelParams, t: float) -> complex:
    """Survival amplitude Z(beta + i t) / Z(beta) of the thermal superposition.

    Both partition functions come from the same engine; the continuation
    replaces beta*J -> (beta + i t)*J and beta*h -> (beta + i t)*h.
    """
    bc = model.beta + 1j * t
    num = partition_function(model, bc * model.J, bc * model.h)
    den = partition_function(model, model.beta * model.J, model.beta * model.h)
    return cmath.exp(num - den)
