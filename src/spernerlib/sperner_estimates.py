"""Closed-form lower and upper estimates for the largest pairwise-unrelated
families of V- and W-shaped copies in the subset lattice of [n].

The W pattern is one bottom under three incomparable tops; V has two tops.
Neither pattern is bounded or length-matching, so no exact formula applies;
these estimates bracket the true count and their integer left adjoints
bracket the adjoint quantity.

All functions are exact integer computations. The lower estimates count an
explicit eligible-block construction (reproduced in witness.py, whose
output sizes must agree with them); the upper estimates come from
permutation-counting arguments:

  upper_w(n) = floor(n * C(n-1, floor((n-1)/2)) / (3n - 2 - 2*floor(n/2)))
  lower_w(n) = sum over active block i < m, j 2-element blocks:
               3^j * C(i, j) * C(n-3i-3, h+j-3i)
             = [x^K] ((1+x)^n - (1+x)^r (1+3x)^m) / (3+x)
  lower_v(n) = sum over i <= floor(q/2) of C(n-2-2i, q-2i), q = floor((n-1)/2)
  upper_v(n) = floor((4n-4a-2) * C(n-2, floor((n-2)/2)) / (2n-a-1)), a = floor(n/2)

with m = floor(n/3), r = n - 3m, K = n - 1 - h, and h = floor((n-3)/2) for
n in {3, 5, 7} (a one-lower shift is needed for those three sizes) and
h = floor((n-1)/2) otherwise. The closed form of lower_w follows by
coefficient extraction: the inner sum over j is
[x^(n-3-h)] (1+x)^(n-3i-3) (1+3x)^i, and the sum over i < m is geometric
with ratio (1+3x)/(1+x)^3, where 1 - ratio = x^2 (3+x) / (1+x)^3.

Both lower estimates are single passes of stepped binomials, O(n) steps with
small multipliers. lower_w steps C(n, k) and 3^k C(m, k) together in k and
divides by 3+x with q_k = (c_k - q_(k-1)) / 3; the numerator is divisible by
3+x, so every division by 3 is exact, and a remainder is reported as an
internal error. lower_v steps its terms with
C(N-2, K-2) = C(N, K) K(K-1) / (N(N-1)). The direct sums above are kept in
tests/test_estimates.py as oracles for both.

Each estimate refuses n > ESTIMATE_MAX_N with ResourceLimitError, so a
huge ground size or adjoint target stops at once instead of running on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bigcomb import binom, central_binom, fixed_ratio, left_adjoint
from .errors import InputError, ResourceLimitError, SpernerError

# Largest ground size any estimate evaluates; lower_w(2**16) takes about
# 1.5 s on a 2-core Intel Xeon host.
ESTIMATE_MAX_N = 1 << 16


def _check_size(name: str, n: int) -> None:
    if n > ESTIMATE_MAX_N:
        raise ResourceLimitError(
            f"{name}({n}) is past the estimate cap n <= {ESTIMATE_MAX_N}")


def w_bottom_size(n: int) -> int:
    """Constant bottom-subset size used by the W block construction.

    One lower for n in {3, 5, 7}: at those sizes the default choice starves
    the later active blocks and the smaller layer counts strictly more.
    """
    return (n - 3) // 2 if n in (3, 5, 7) else (n - 1) // 2


@lru_cache(maxsize=None)
def lower_w(n: int) -> int:
    """Lower estimate for the W pattern; counts the block construction."""
    if n < 1:
        raise InputError(f"lower_w needs n >= 1, got {n}")
    _check_size("lower_w", n)
    m, r = divmod(n, 3)
    w1, w2 = binom(r, 1), binom(r, 2)  # (1+x)^r = 1 + w1 x + w2 x^2, r <= 2
    cn = 1                   # C(n, k)
    t0, t1, t2 = 1, 0, 0     # 3^j C(m, j) for j = k, k-1, k-2
    q = 0                    # coefficient k of the quotient by 3+x
    for k in range(n - w_bottom_size(n)):
        if k:
            cn = cn * (n - k + 1) // k
            t0, t1, t2 = t0 * 3 * (m - k + 1) // k, t0, t1
        q, rem = divmod(cn - t0 - w1 * t1 - w2 * t2 - q, 3)
        if rem:
            raise SpernerError(
                f"lower_w({n}): coefficient {k} is not divisible by 3")
    return q


@lru_cache(maxsize=None)
def upper_w(n: int) -> int:
    """Upper estimate for the W pattern (permutation-count quotient)."""
    if n < 1:
        raise InputError(f"upper_w needs n >= 1, got {n}")
    _check_size("upper_w", n)
    return n * central_binom(n - 1) // (3 * n - 2 - 2 * (n // 2))


@lru_cache(maxsize=None)
def lower_v(n: int) -> int:
    """Lower estimate for the V pattern; counts the two-block construction."""
    if n < 2:
        raise InputError(f"lower_v needs n >= 2, got {n}")
    _check_size("lower_v", n)
    big, low = n - 2, (n - 1) // 2
    term = total = binom(big, low)
    while low >= 2:
        # C(N-2, K-2) = C(N, K) K(K-1) / (N(N-1))
        term = term * low * (low - 1) // (big * (big - 1))
        big, low = big - 2, low - 2
        total += term
    return total


@lru_cache(maxsize=None)
def upper_v(n: int) -> int:
    """Upper estimate for the V pattern (permutation-count quotient)."""
    if n < 2:
        raise InputError(f"upper_v needs n >= 2, got {n}")
    _check_size("upper_v", n)
    a = n // 2
    return (4 * n - 4 * a - 2) * binom(n - 2, (n - 2) // 2) // (2 * n - a - 1)


# --- brackets and adjoints ------------------------------------------------------

@dataclass(frozen=True)
class EstimatePair:
    """A lower/upper estimate pair for one ground size."""

    n: int
    lo: int
    hi: int

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


_PATTERNS = ("v", "w")


def _norm_pattern(pattern: str) -> str:
    key = pattern.strip().lower()
    if key not in _PATTERNS:
        raise InputError(f"unknown estimate pattern {pattern!r}; use 'v' or 'w'")
    return key


def _mono_lower(pattern: str):
    # extended by 0 below the formula domain, where no copy fits anyway
    if pattern == "w":
        return lambda n: lower_w(n) if n >= 1 else 0
    return lambda n: lower_v(n) if n >= 2 else 0


def _mono_upper(pattern: str):
    # the W quotient dips below its n >= 3 regime at n = 1, 2; the count
    # there is 0 (the pattern needs three ground elements), so clamp
    if pattern == "w":
        return lambda n: upper_w(n) if n >= 3 else 0
    return lambda n: upper_v(n) if n >= 2 else 0


def sp_bracket(pattern: str, n: int) -> EstimatePair:
    """Estimate pair for the count question at ground size n."""
    key = _norm_pattern(pattern)
    min_n = 3 if key == "w" else 2
    if n < min_n:
        raise InputError(f"sp_bracket({key!r}) needs n >= {min_n}, got {n}")
    if key == "w":
        return EstimatePair(n, lower_w(n), upper_w(n))
    return EstimatePair(n, lower_v(n), upper_v(n))


def asp_bracket(pattern: str, k: int) -> tuple[int, int]:
    """Bracket (lo, hi) for the least n whose count reaches k.

    The upper estimate bounds the count above, so its adjoint bounds the
    adjoint below; the lower estimate gives the upper end. Over- and
    under-estimates swap roles under adjunction.
    """
    key = _norm_pattern(pattern)
    if k < 1:
        raise InputError(f"asp_bracket needs k >= 1, got {k}")
    lo = left_adjoint(_mono_upper(key), k)
    # lower <= upper at every n, so the search for hi can start at lo
    lower = _mono_lower(key)
    hi = lo + left_adjoint(lambda d: lower(lo + d), k)
    return lo, hi


def ratio_report(pattern: str, n: int, places: int = 3) -> str:
    """upper/lower as a fixed-point decimal string; "undefined" when lower = 0."""
    pair = sp_bracket(pattern, n)
    if pair.lo == 0:
        return "undefined"
    return fixed_ratio(pair.hi, pair.lo, places)
