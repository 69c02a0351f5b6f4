"""Cylindrical Bessel functions of orders 0 and 1 and the roots of J1.

The rigid-wall radial eigenproblem of a circular duct needs J0, J1 and the
positive zeros of J1 (which are the extrema of J0), nothing more, so this
module implements exactly that instead of pulling in a general
special-function library.

Evaluation scheme
-----------------
* ``x <= 25``: ascending power series, accumulated in double-double
  arithmetic.  The series suffers catastrophic cancellation (the largest
  term grows like exp(x)/x), so plain double accumulation would lose about
  ``x * 0.43`` decimal digits; the compensated accumulation keeps the
  result at full double precision over the whole series branch.
* ``x > 25``: Hankel asymptotic expansion
  ``sqrt(2/(pi x)) * (P cos(chi) - Q sin(chi))`` with
  ``chi = x - pi/4`` (order 0) or ``x - 3 pi/4`` (order 1).  At the
  crossover the optimally truncated remainder is below 1e-21, and the
  phase ``chi`` is formed in double-double so that the subtraction
  ``x - pi/4`` does not shed low-order phase bits at large ``x``.

Both branches agree to better than 1e-13 of the local oscillation
amplitude across the crossover; ``tests/test_specfun.py`` checks this and
verifies the values against an arbitrary-precision reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from tubegap.errors import ConvergenceError, DomainError

SERIES_ASYMPTOTIC_CROSSOVER = 25.0

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
_PIO4_HI = 0.7853981633974483
_PIO4_LO = 3.061616997868383e-17


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _dd_add(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    sh, sl = _two_sum(xh, yh)
    th, tl = _two_sum(xl, yl)
    sl += th
    sh, sl = _quick_two_sum(sh, sl)
    sl += tl
    return _quick_two_sum(sh, sl)


def _dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    ph, pl = _two_prod(xh, yh)
    pl += xh * yl + xl * yh
    return _quick_two_sum(ph, pl)


def _dd_div_scalar(xh: float, xl: float, b: float) -> tuple[float, float]:
    qh = xh / b
    ph, pl = _two_prod(qh, b)
    rh, rl = _dd_add(xh, xl, -ph, -pl)
    ql = (rh + rl) / b
    return _quick_two_sum(qh, ql)


def _series(x: float, order: int) -> float:
    """Ascending power series for J0 (order 0) or J1 (order 1), x >= 0."""
    if x == 0.0:
        # every term after the first vanishes, so the relative stopping
        # test below (against a peak of 0 for J1) would never fire
        return 1.0 if order == 0 else 0.0
    half = 0.5 * x
    qh, ql = _two_prod(half, half)  # (x/2)^2, exactly
    if order == 0:
        th, tl = 1.0, 0.0
    else:
        th, tl = half, 0.0
    sh, sl = th, tl
    peak = abs(th)
    for k in range(1, 200):
        th, tl = _dd_mul(th, tl, qh, ql)
        denom = float(k * k) if order == 0 else float(k * (k + 1))
        th, tl = _dd_div_scalar(th, tl, denom)
        th, tl = -th, -tl
        sh, sl = _dd_add(sh, sl, th, tl)
        peak = max(peak, abs(th))
        if abs(th) < 1e-36 * peak and k > half:
            break
    return sh + sl


def _asymptotic(x: float, order: int) -> float:
    """Hankel expansion for J0/J1, reliable for x above the crossover."""
    mu = 4.0 * order * order
    inv8x = 1.0 / (8.0 * x)
    a = 1.0
    p_sum = 1.0
    q_sum = 0.0
    prev = math.inf
    for m in range(1, 60):
        a *= (mu - (2.0 * m - 1.0) ** 2) / m * inv8x
        if abs(a) >= prev:
            break  # divergent tail of the asymptotic series
        prev = abs(a)
        sign = -1.0 if (m // 2) % 2 else 1.0
        if m % 2 == 0:
            p_sum += sign * a
        else:
            q_sum += sign * a
        if abs(a) < 1e-20:
            break
    # chi = x - (2*order + 1) * pi/4, kept as a double-double so large x
    # does not erase the low phase bits
    c = 2.0 * order + 1.0
    oh, ol = _two_prod(c, _PIO4_HI)
    ol += c * _PIO4_LO
    ch, cl = _dd_add(x, 0.0, -oh, -ol)
    cos_hi = math.cos(ch)
    sin_hi = math.sin(ch)
    cos_chi = cos_hi - sin_hi * cl
    sin_chi = sin_hi + cos_hi * cl
    amp = math.sqrt(2.0 / (math.pi * x))
    return amp * (p_sum * cos_chi - q_sum * sin_chi)


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Accepts any finite real argument (J0 is even).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"bessel_j0 requires a finite argument, got {x}")
    x = abs(x)
    if x <= SERIES_ASYMPTOTIC_CROSSOVER:
        return _series(x, 0)
    return _asymptotic(x, 0)


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind, order one (odd in x)."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"bessel_j1 requires a finite argument, got {x}")
    sign = -1.0 if x < 0 else 1.0
    x = abs(x)
    if x <= SERIES_ASYMPTOTIC_CROSSOVER:
        return sign * _series(x, 1)
    return sign * _asymptotic(x, 1)


@dataclass(frozen=True)
class BesselRootTable:
    """The nonnegative roots of J1 in increasing order.

    ``roots[0]`` is always exactly 0 (the plane-wave duct mode); the
    remaining entries are the positive zeros of J1, refined to
    ``|J1(x_n)| < 1e-12``.
    """

    roots: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.roots)


def _newton_step(x: float) -> float:
    f = bessel_j1(x)
    # J1'(x) = J0(x) - J1(x)/x
    df = bessel_j0(x) - f / x
    return f / df if df != 0.0 else 0.0


def _refine_root(guess: float, lo: float, hi: float) -> float:
    """Newton steps from ``guess`` to near machine width, kept inside the
    sign bracket (lo, hi), then two Newton polish steps."""
    root = guess
    for _ in range(50):
        step = _newton_step(root)
        root -= step
        if not lo < root < hi:
            raise ConvergenceError(f"Newton iteration for a J1 root left ({lo}, {hi})")
        if abs(step) < 1e-15 * root:
            break
    for _ in range(2):
        root -= _newton_step(root)
    return root


@lru_cache(maxsize=None)
def _positive_j1_roots(n: int) -> tuple[float, ...]:
    roots = []
    for k in range(1, n + 1):
        beta = (k + 0.25) * math.pi
        guess = beta - 3.0 / (8.0 * beta)  # McMahon estimate
        lo, hi = guess - 0.5, guess + 0.5
        # the McMahon estimate is within 1e-2 for every k, so this bracket
        # only fails if something is badly wrong; widen once before giving up
        if (bessel_j1(lo) < 0) == (bessel_j1(hi) < 0):
            lo, hi = guess - 1.2, guess + 1.2
        roots.append(_refine_root(guess, lo, hi))
    return tuple(roots)


def j1_roots(count: int) -> BesselRootTable:
    """Return x0 = 0 followed by the first ``count - 1`` positive roots of J1.

    The table is deterministic: the same count always produces bitwise
    identical roots.
    """
    if not isinstance(count, int) or isinstance(count, bool):
        raise DomainError(f"root count must be an integer, got {count!r}")
    if count < 1:
        raise DomainError(f"root count must be >= 1, got {count}")
    return BesselRootTable(roots=(0.0,) + _positive_j1_roots(count - 1))
