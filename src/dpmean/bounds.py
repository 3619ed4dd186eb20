"""Closed-form error quantities: worst-case risks, per-dataset MSE bounds,
and the clipped-ratio decomposition behind them.

All leading terms are asymptotic constants: they hold up to a factor
1 +- o(1) where the vanishing term is taken as dataset size grows, the
budget shrinks, and their product grows.  Nothing here folds an estimated
remainder into the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mechanisms import (
    BoundedDataset,
    Mechanism,
    PrivacyBudget,
    check_bounds,
    mechanism_plan,
    true_mean,
)
from .noise import check_count


def _over_n_eps_squared(x: float, n: int, eps: float) -> float:
    """x / (n**2 * eps**2), n**2 an exact int, bit for bit wherever eps**2 is
    finite, that is for eps < 2^512.  A larger eps is first scaled into
    [1, 2) by an exact 2^-k, and the quotient by 2^-2k after, so the bound
    rounds to a small double or 0.0 where eps**2 would overflow and raise."""
    e = math.frexp(eps)[1]
    k = e - 1 if e > 512 else 0
    return math.ldexp(x / (int(n) ** 2 * math.ldexp(eps, -k) ** 2), -2 * k)


def minmax_leading(eps: float, lower: float, upper: float) -> float:
    """2(u-l)^2/eps^2, the leading worst-case normalized MSE.

    It is three figures at once: the optimum under swap adjacency; the
    optimum under add-remove adjacency (protecting the dataset size costs
    nothing in the leading term, and the transformed mechanism attains it);
    and the information-theoretic floor for add-remove adjacency, whose true
    statement carries a 1 - o(1) factor taken here as exactly 1.
    """
    PrivacyBudget(eps)
    check_bounds(lower, upper)
    return _over_n_eps_squared(2.0 * (upper - lower) ** 2, 1, eps)


# The three figures coincide; each name keeps the statement it makes.
swap_minmax_leading = add_remove_minmax_leading = lower_bound_leading = minmax_leading


def shifted_mse_bound_from_stats(
    n: int, mean: float, eps: float, lower: float, upper: float
) -> float:
    """Leading MSE bound for the shifted estimator: twice the transformed
    bound, (2(u-l)^2 + 8(mean-midpoint)^2) / (n eps)^2."""
    return 2.0 * transformed_mse_bound_from_stats(n, mean, eps, lower, upper)


def transformed_mse_bound_from_stats(
    n: int, mean: float, eps: float, lower: float, upper: float
) -> float:
    """Leading MSE bound for the transformed estimator on a dataset of size
    n with the given mean: ((u-l)^2 + 4(mean-midpoint)^2) / (n eps)^2."""
    PrivacyBudget(eps)
    check_bounds(lower, upper)
    check_count("dataset size", n)
    if int(n) ** 2 >= 2**1024 - 2**970:  # from here n**2 rounds to 2^1024, past the largest double
        raise ValueError(f"dataset size {n} is too large: its square is not a finite double")
    if not (lower <= mean <= upper):  # NaN lies in no bounds
        raise ValueError(f"mean {mean} outside bounds [{lower}, {upper}]")
    w = upper - lower
    m = (lower + upper) / 2.0
    return _over_n_eps_squared(w**2 + 4.0 * (mean - m) ** 2, n, eps)


def transformed_mse_bound_leading(d: BoundedDataset, eps: PrivacyBudget) -> float:
    return transformed_mse_bound_from_stats(len(d), true_mean(d), eps.epsilon, d.lower, d.upper)


def geometric_count_variance(eps: float) -> float:
    """Exact MSE of the unbiased geometric count release: 2a/(1-a)^2 with
    a = exp(-eps).  Approaches 2/eps^2 from below as eps -> 0."""
    PrivacyBudget(eps)
    alpha = math.exp(-eps)
    return 2.0 * alpha / (1.0 - alpha) ** 2


@dataclass(frozen=True)
class ClippedRatioTerms:
    """Moment terms bounding the clipped-ratio estimator's MSE.

    For the estimator Clip((a + Z_a)/(b + Z_b)) of a/b with |a|/b <= ratio_cap,
    the squared error is at most

        linear_sq + remainder_sq_bound + 2*sqrt(linear_sq*remainder_sq_bound)
        + tail

    where linear_sq = E[(Z_a/b - a Z_b/b^2)^2] is the exact second moment of
    the linearized error, remainder_sq_bound bounds the second moment of the
    higher-order remainder via (x+y)^2 <= 2x^2 + 2y^2, and
    tail = 4*ratio_cap^2*P(Z_b < -b/2) charges the event that the denominator
    noise wipes out half the denominator.
    """

    a: float
    b: float
    ratio_cap: float
    linear_sq: float
    remainder_sq_bound: float
    tail: float

    def __post_init__(self) -> None:
        if not (self.b > 0):
            raise ValueError("denominator b must be positive")
        if abs(self.a) / self.b > self.ratio_cap:
            raise ValueError("|a|/b exceeds ratio_cap; the decomposition does not apply")
        for name in ("linear_sq", "remainder_sq_bound", "tail"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def cross_term(self) -> float:
        return 2.0 * math.sqrt(self.linear_sq * self.remainder_sq_bound)


def clipped_ratio_mse_bound(terms: ClippedRatioTerms) -> float:
    """Combine the four terms into the MSE bound."""
    return terms.linear_sq + terms.remainder_sq_bound + terms.cross_term + terms.tail


def _lower_tail(c1: float, c2: float, t: float) -> float:
    """P(c1 Z1 + c2 Z2 < -t) for iid unit Laplace Z1, Z2 and t >= 0."""
    small, large = sorted((abs(c1), abs(c2)))
    if small == 0.0:
        return 0.5 * math.exp(-t / large)
    if small == large:
        # the sum of two iid Laplace(c) variables
        return (2.0 + t / large) * math.exp(-t / large) / 4.0
    raise ValueError("no closed-form tail for two unequal nonzero coefficients")


def _laplace_mix_terms(
    a: float, b: float, ratio_cap: float, za: tuple[float, float], zb: tuple[float, float]
) -> ClippedRatioTerms:
    """Populate the terms for Z_a = a1 Z1 + a2 Z2 and Z_b = b1 Z1 + b2 Z2,
    with Z1, Z2 iid unit Laplace (E[Z^2] = 2, E[Z^4] = 24).

    Exact moments: E[Z_a^2] = 2(a1^2 + a2^2), E[Z_a Z_b] = 2(a1 b1 + a2 b2),
    E[Z_b^2] = 2(b1^2 + b2^2), E[Z_b^4] = 24(b1^4 + b2^4 + b1^2 b2^2) and
    E[Z_a^2 Z_b^2] = 24(a1^2 b1^2 + a2^2 b2^2) + 4(a1 b2 + a2 b1)^2
    + 8 a1 b1 a2 b2.
    """
    (a1, a2), (b1, b2) = za, zb
    e_za2 = 2.0 * (a1**2 + a2**2)
    e_zazb = 2.0 * (a1 * b1 + a2 * b2)
    e_zb2 = 2.0 * (b1**2 + b2**2)
    e_zb4 = 24.0 * (b1**4 + b2**4 + b1**2 * b2**2)
    e_za2zb2 = (
        24.0 * (a1**2 * b1**2 + a2**2 * b2**2) + 4.0 * (a1 * b2 + a2 * b1) ** 2 + 8.0 * a1 * b1 * a2 * b2
    )
    linear_sq = e_za2 / b**2 - 2.0 * a * e_zazb / b**3 + a**2 * e_zb2 / b**4
    remainder_sq_bound = (8.0 * ratio_cap**2 * e_zb4 + 8.0 * e_za2zb2) / b**4
    tail = 4.0 * ratio_cap**2 * _lower_tail(b1, b2, b / 2.0)
    return ClippedRatioTerms(a, b, ratio_cap, linear_sq, remainder_sq_bound, tail)


def clipped_ratio_terms(
    a: float, b: float, ratio_cap: float, scale_a: float, scale_b: float
) -> ClippedRatioTerms:
    """Populate the terms for independent Laplace Z_a, Z_b of the given
    scales."""
    return _laplace_mix_terms(a, b, ratio_cap, (scale_a, 0.0), (0.0, scale_b))


def clipped_ratio_terms_for(
    d: BoundedDataset, mechanism: Mechanism, eps: PrivacyBudget
) -> ClippedRatioTerms:
    """Instantiate the decomposition for one mechanism run on one dataset.

    The estimate is l + w * clip(s^/n^, 0, 1), where (s^, n^) is (s, n) plus
    T^-1 diag(scales) Z = (r/eps) G^-1 Z for iid unit Laplace Z, G the
    mechanism's transform and r its L1 radius, both read from its plan
    (D cancels; see ``mechanisms``).  In centered normalized units that is
    the clipped ratio of a = s - n/2 and b = n with ratio cap 1/2, perturbed by
    (Z_a, Z_b) = (r/eps) [[1, -1/2], [0, 1]] G^-1 Z.  The terms bound the
    error in those units; see mechanism_mse_bound for data units.
    """
    if len(d) == 0:
        raise ValueError("cannot instantiate bound terms for an empty dataset")
    n = float(len(d))
    plan = mechanism_plan(mechanism, d.lower, d.upper, eps)
    inv = plan.g.inverse()
    scale = plan.radius / eps.epsilon
    za = ((inv.a11 - inv.a21 / 2.0) * scale, (inv.a12 - inv.a22 / 2.0) * scale)
    zb = (inv.a21 * scale, inv.a22 * scale)
    return _laplace_mix_terms(d.scaled_total - n / 2.0, n, 0.5, za, zb)


def mechanism_mse_bound(d: BoundedDataset, mechanism: Mechanism, eps: PrivacyBudget) -> float:
    """Full (non-asymptotic) MSE bound for one mechanism on one dataset, in
    squared data units."""
    return d.width**2 * clipped_ratio_mse_bound(clipped_ratio_terms_for(d, mechanism, eps))
