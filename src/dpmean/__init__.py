"""Differentially private mean estimation for bounded data under add-remove
adjacency: mechanisms, analytic error bounds, covering-ball geometry, and a
Monte-Carlo experiment harness."""

__version__ = "0.1.0"

from .bounds import (
    ClippedRatioTerms,
    add_remove_minmax_leading,
    clipped_ratio_mse_bound,
    clipped_ratio_terms,
    clipped_ratio_terms_for,
    geometric_count_variance,
    lower_bound_leading,
    mechanism_mse_bound,
    swap_minmax_leading,
    transformed_mse_bound_leading,
)
from .geometry import (
    CENTERING_TRANSFORM,
    COMPLEMENT_TRANSFORM,
    IDENTITY_TRANSFORM,
    UNIT_SEGMENT,
    BallPolygon,
    SensitivitySegment,
    Transform2x2,
    ball_polygon,
    covers_sensitivity,
    l1_sensitivity_under,
    transform_procedure_estimate,
)
from .harness import (
    GEOMETRIC_COUNT,
    DatasetKind,
    DatasetSpec,
    ExperimentConfig,
    MseReport,
    estimate_mse,
    generate_dataset,
    preset_config,
    squared_errors,
    sweep,
    worst_case_over_family,
)
from .mechanisms import (
    AggregateVector,
    BoundedDataset,
    MeanEstimate,
    Mechanism,
    MechanismPlan,
    NoisePair,
    PrivacyBudget,
    clip,
    estimate_independent,
    estimate_shifted,
    estimate_transformed,
    mechanism_plan,
    run_mechanism,
    true_mean,
)
from .noise import (
    Cursor,
    GeometricParams,
    LaplaceParams,
    RandomStream,
    laplace_from_uniform,
    laplace_sample,
    trial_uniform_pairs,
    two_sided_geometric_from_uniform,
    two_sided_geometric_sample,
)
