"""Closed-form error quantities: worst-case risks, per-dataset MSE bounds,
and the clipped-ratio decomposition behind them.

All leading terms are asymptotic constants: they hold up to a factor
1 +- o(1) where the vanishing term is taken as dataset size grows, the
budget shrinks, and their product grows.  Nothing here folds an estimated
remainder into the numbers; reports carry an explicit ``asymptotic`` flag
instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .mechanisms import BoundedDataset, Mechanism, PrivacyBudget, check_bounds, true_mean


class NeighborModel(str, enum.Enum):
    SWAP = "swap"
    ADD_REMOVE = "add_remove"


@dataclass(frozen=True)
class RiskReport:
    """A worst-case normalized-MSE figure (units of |D|^2 * MSE)."""

    model: NeighborModel
    leading_term: float
    formula_id: str
    asymptotic: bool = True


def _check_budget(eps: float) -> None:
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"epsilon must be positive and finite, got {eps}")


def swap_minmax_leading(eps: float, lower: float, upper: float) -> float:
    """Optimal worst-case normalized MSE under swap adjacency: 2(u-l)^2/eps^2."""
    _check_budget(eps)
    check_bounds(lower, upper)
    return 2.0 * (upper - lower) ** 2 / eps**2


def add_remove_minmax_leading(eps: float, lower: float, upper: float) -> float:
    """Optimal worst-case normalized MSE under add-remove adjacency.

    Identical to the swap figure: protecting the dataset size costs nothing
    in the leading term.
    """
    _check_budget(eps)
    check_bounds(lower, upper)
    return 2.0 * (upper - lower) ** 2 / eps**2


def lower_bound_leading(eps: float, lower: float, upper: float) -> float:
    """Information-theoretic floor for add-remove adjacency, 2(u-l)^2/eps^2.

    The true statement carries a 1 - o(1) factor; this reports the constant
    with the factor taken as exactly 1.
    """
    _check_budget(eps)
    check_bounds(lower, upper)
    return 2.0 * (upper - lower) ** 2 / eps**2


def minmax_risk(model: NeighborModel, eps: float, lower: float, upper: float) -> RiskReport:
    if model is NeighborModel.SWAP:
        return RiskReport(model, swap_minmax_leading(eps, lower, upper), "minmax-swap-leading")
    return RiskReport(model, add_remove_minmax_leading(eps, lower, upper), "minmax-add-remove-leading")


def shifted_mse_bound_from_stats(
    n: int, mean: float, eps: float, lower: float, upper: float
) -> float:
    """Leading MSE bound for the shifted estimator on a dataset of size n
    with the given mean: (2(u-l)^2 + 8(mean-midpoint)^2) / (n eps)^2."""
    _check_budget(eps)
    check_bounds(lower, upper)
    if n < 1:
        raise ValueError("dataset size must be at least 1")
    w = upper - lower
    m = (lower + upper) / 2.0
    return (2.0 * w**2 + 8.0 * (mean - m) ** 2) / (n**2 * eps**2)


def transformed_mse_bound_from_stats(
    n: int, mean: float, eps: float, lower: float, upper: float
) -> float:
    """Leading MSE bound for the transformed estimator:
    ((u-l)^2 + 4(mean-midpoint)^2) / (n eps)^2 -- half the shifted bound."""
    _check_budget(eps)
    check_bounds(lower, upper)
    if n < 1:
        raise ValueError("dataset size must be at least 1")
    w = upper - lower
    m = (lower + upper) / 2.0
    return (w**2 + 4.0 * (mean - m) ** 2) / (n**2 * eps**2)


def shifted_mse_bound_leading(d: BoundedDataset, eps: PrivacyBudget) -> float:
    return shifted_mse_bound_from_stats(len(d), true_mean(d), eps.epsilon, d.lower, d.upper)


def transformed_mse_bound_leading(d: BoundedDataset, eps: PrivacyBudget) -> float:
    return transformed_mse_bound_from_stats(len(d), true_mean(d), eps.epsilon, d.lower, d.upper)


def geometric_count_variance(eps: float) -> float:
    """Exact MSE of the unbiased geometric count release: 2a/(1-a)^2 with
    a = exp(-eps).  Approaches 2/eps^2 from below as eps -> 0."""
    _check_budget(eps)
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
    scale_a: float
    scale_b: float
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


def clipped_ratio_terms(
    a: float, b: float, ratio_cap: float, scale_a: float, scale_b: float
) -> ClippedRatioTerms:
    """Populate the terms for independent Laplace Z_a, Z_b.

    Laplace moments: E[Z^2] = 2 s^2, E[Z^4] = 24 s^4, and by independence
    E[Z_a^2 Z_b^2] = 4 scale_a^2 scale_b^2.
    """
    linear_sq = 2.0 * scale_a**2 / b**2 + a**2 * 2.0 * scale_b**2 / b**4
    remainder_sq_bound = (
        8.0 * ratio_cap**2 * 24.0 * scale_b**4 + 8.0 * 4.0 * scale_a**2 * scale_b**2
    ) / b**4
    tail = 4.0 * ratio_cap**2 * 0.5 * math.exp(-b / (2.0 * scale_b))
    return ClippedRatioTerms(a, b, ratio_cap, scale_a, scale_b, linear_sq, remainder_sq_bound, tail)


def _transformed_pair_terms(s1: float, n: float, eps: float) -> ClippedRatioTerms:
    # The transformed estimator has Z_a = Z1 and Z_b = Z1 + Z2 for
    # independent Laplace(1/eps) Z1, Z2, so the pair is correlated and Z_b is
    # not Laplace.  Exact moments of the sum: E[Z_b^2] = 4/eps^2,
    # E[Z_b^4] = 72/eps^4, E[Z_a Z_b] = 2/eps^2, E[Z_a^2 Z_b^2] = 28/eps^4,
    # and P(Z_b < -t) = (2 + t*eps) * exp(-t*eps) / 4 for t >= 0.
    s = 1.0 / eps
    e_za2 = 2.0 * s**2
    e_zb2 = 4.0 * s**2
    e_zazb = 2.0 * s**2
    e_zb4 = 72.0 * s**4
    e_za2zb2 = 28.0 * s**4
    ratio_cap = 1.0
    linear_sq = e_za2 / n**2 - 2.0 * s1 * e_zazb / n**3 + s1**2 * e_zb2 / n**4
    remainder_sq_bound = (8.0 * ratio_cap**2 * e_zb4 + 8.0 * e_za2zb2) / n**4
    t = n / 2.0
    tail = 4.0 * ratio_cap**2 * (2.0 + t * eps) * math.exp(-t * eps) / 4.0
    return ClippedRatioTerms(s1, n, ratio_cap, s, s, linear_sq, remainder_sq_bound, tail)


def clipped_ratio_terms_for(
    d: BoundedDataset, mechanism: Mechanism, eps: PrivacyBudget
) -> ClippedRatioTerms:
    """Instantiate the decomposition for one mechanism run on one dataset.

    The returned terms bound the clipped-ratio error in the mechanism's own
    ratio units; see mechanism_mse_bound for data units.
    """
    if len(d) == 0:
        raise ValueError("cannot instantiate bound terms for an empty dataset")
    mechanism = Mechanism(mechanism)
    n = float(len(d))
    e = eps.epsilon
    if mechanism is Mechanism.INDEPENDENT:
        w_abs = max(abs(d.lower), abs(d.upper))
        return clipped_ratio_terms(d.total, n, w_abs, 2.0 * w_abs / e, 2.0 / e)
    if mechanism is Mechanism.SHIFTED:
        return clipped_ratio_terms(d.shifted_total, n, d.width / 2.0, d.width / e, 2.0 / e)
    return _transformed_pair_terms(d.scaled_total, n, e)


def mechanism_mse_bound(d: BoundedDataset, mechanism: Mechanism, eps: PrivacyBudget) -> float:
    """Full (non-asymptotic) MSE bound for one mechanism on one dataset, in
    squared data units."""
    mechanism = Mechanism(mechanism)
    terms = clipped_ratio_terms_for(d, mechanism, eps)
    bound = clipped_ratio_mse_bound(terms)
    if mechanism is Mechanism.TRANSFORMED:
        return d.width**2 * bound
    return bound
