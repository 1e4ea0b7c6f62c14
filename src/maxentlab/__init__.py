"""Maximum-entropy and exponential-family modeling over finite outcome
spaces: exact histogram probabilities, information projections, energy and
divergence identities, and small-sample large-deviations analysis."""

from .dist import (
    ConstraintKind,
    ConstraintSet,
    EmpiricalMeasure,
    FeatureSet,
    FiniteDistribution,
    constraint_contains,
    cross_entropy,
    entropy,
    kl_divergence,
    mix,
    moments,
    total_variation,
)
from .errors import (
    AlphabetMismatch,
    ConstraintViolation,
    ConvergenceError,
    DomainError,
    EmptyEvent,
    EnergyMatchingError,
    EnumerationCapExceeded,
    FamilyMismatch,
    InputError,
    MaxentError,
    ShapeMismatch,
    SupportViolation,
)
from .expfam import (
    EnergyReport,
    ExpFamModel,
    HeatCapacity,
    centered_cgf,
    cgf,
    deviance,
    energies,
    fisher_information,
    free_energy,
    heat_capacity,
    internal_energy,
    mean_parameters,
    model_cross_entropy,
    model_entropy,
)
from .identities import (
    IdentityReport,
    approximation_error_entropy,
    bogoliubov,
    data_approximates_family,
    entropy_multiplicity_bound,
    pretend_data_identity,
    pythagorean,
    robustness,
    run_identity_suite,
)
from .multinomial import (
    HistogramLogProb,
    PriorMode,
    StirlingOrder,
    describe_histogram,
    entropy_approx_experiment,
    log_histogram_prob,
    log_multinomial,
    stirling_log_multinomial,
)
from .projection import (
    FeasibilityReport,
    ProjectionResult,
    RobustBayesValue,
    SolverOptions,
    Status,
    check_feasibility,
    fit_log_loss,
    project,
    project_inequality,
    robust_bayes_value,
)
from .sanov import (
    ConditionalLaw,
    Method,
    SanovReport,
    compositions,
    conditional_law,
    enumerate_event,
    gibbs_conditioning_curve,
    monte_carlo_event,
    nested_relative_probability,
)

__version__ = "0.1.0"
