"""The three functions of ``scipy.special`` that the pipeline needs, in bnsl.

Importing ``scipy.special`` costs more than the rest of the package, and
the pipeline's edges hinge on the last bit of a score: Markov-equivalent
directions tie, and rounding breaks each tie.  So ``gammaln`` and
``logsumexp`` repeat scipy's arithmetic operation for operation and equal
``scipy.special.gammaln`` and ``scipy.special.logsumexp`` bit for bit on
the inputs bnsl gives them.  ``chi2_sf`` is the chi-squared tail to within
1e-8 relative for df up to 2^22; ``chi2_sf_below`` uses it to decide
``chdtrc(df, g) < alpha`` and imports ``scipy.special.chdtrc`` only within
``CHI2_BAND`` of ``alpha``, so each decision equals scipy's.
"""

from __future__ import annotations

import math

import numpy as np

# the coefficients of Cephes lgam, the function scipy.special.gammaln evaluates
_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
      -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_B = (-1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
      -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5)
_C = (-3.51815701436523470549E2, -1.70642106651881159223E4, -2.20528590553854454839E5,
      -1.13933444367982507207E6, -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305

# a decision whose p is within this share of alpha is taken by scipy's chdtrc;
# ten times the error bound of chi2_sf, whose error peaks near df = 2^22
CHI2_BAND = 1e-7
_EPS = 2.0 ** -52
_TINY = 1e-300


def gammaln(x: float) -> float:
    """log Gamma(x) for x > 0, as Cephes ``lgam`` computes it: a rational
    function on [2, 3] after shifting x there below 13, Stirling's series
    above.  Each polynomial is Horner's rule from the leading coefficient,
    as Cephes ``polevl`` and ``p1evl`` evaluate it."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        b, c = _B, _C
        num = ((((b[0] * x + b[1]) * x + b[2]) * x + b[3]) * x + b[4]) * x + b[5]
        den = (((((x + c[0]) * x + c[1]) * x + c[2]) * x + c[3]) * x + c[4]) * x + c[5]
        return math.log(z) + x * num / den
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = _A
    return q + ((((a[0] * p + a[1]) * p + a[2]) * p + a[3]) * p + a[4]) / x


def logsumexp(values) -> np.float64:
    """log sum exp(values) over a nonempty 1-D sequence, as scipy computes
    it: with m the largest value held k times, m + log(k) + log1p of the
    sum of exp(v - m) over the other values, divided by k.  A largest
    value that is not finite is the result."""
    a = np.asarray(values, dtype=np.float64)
    top = a.max()
    if not np.isfinite(top):
        return top
    held = a == top
    k = held.sum(dtype=np.float64)
    s = np.exp(np.where(held, -np.inf, a) - top).sum()
    if s != 0:
        s = s / k
    return np.log1p(s) + np.log(k) + top


def chi2_sf(df: int, g: float) -> float:
    """P(chi2(df) > g), the regularized upper incomplete gamma Q(df/2, g/2):
    one minus the power series of P below g/2 = df/2 + 1, the continued
    fraction of Q (modified Lentz) above."""
    a, x = df / 2.0, g / 2.0
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - front * total
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h, step, i = d, 0.0, 0
    while abs(step - 1.0) > _EPS:  # a NaN stops it too
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        step = d * c
        h *= step
    return front * h


def chi2_sf_below(df: int, g: float, alpha: float) -> bool:
    """Whether ``scipy.special.chdtrc(df, g) < alpha``, from ``chi2_sf``
    unless it lies within ``CHI2_BAND * alpha`` of ``alpha``."""
    p = chi2_sf(df, g)
    if abs(p - alpha) <= CHI2_BAND * alpha:
        from scipy.special import chdtrc
        p = chdtrc(df, g)
    return p < alpha
