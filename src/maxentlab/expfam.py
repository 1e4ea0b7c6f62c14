"""Exponential families ``P_lam(x) = P0(x) exp(lam . f(x) - A(lam))`` over a
finite alphabet, and their analytics.

The log-partition function ``A`` is evaluated with max-subtracted
log-sum-exp; no partition sum is ever formed in the linear domain.  All
free energies are prior-relative: ``F(P) = U(P) + D(P || P0)``, which
reproduces ``F(P_lam) = -A(lam)`` and the regret identity
``D(P || P_lam) = F(P) - F(P_lam)`` for arbitrary priors, not just the
uniform one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import (
    FeatureSet,
    FiniteDistribution,
    _frozen_array,
    _require_keys,
    cross_entropy,
    entropy,
    kl_divergence,
    moments,
)
from .errors import DomainError, FamilyMismatch, InputError


def _logsumexp(a: np.ndarray) -> float:
    """``log sum exp(a)`` of a non-empty vector of finite floats.

    The maximal terms are taken out of the sum and counted (``m``), so the
    result is ``log1p(s) + log(m) + max`` with ``s`` the shifted sum of the
    remaining terms over ``m``: the same operations, in the same order, as
    ``scipy.special.logsumexp`` (scipy >= 1.15), without its array-API
    dispatch and its second pass for infinite results.
    """
    top = a.max()
    at_top = a == top
    m = np.float64(np.count_nonzero(at_top))
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum() / m
    return float(np.log1p(s) + np.log(m) + top)


def _member(
    log_prior: np.ndarray, mask: np.ndarray, f_support: np.ndarray, lam: np.ndarray
) -> tuple[float, np.ndarray]:
    """``A(lam)`` and the probabilities of the member ``P0 exp(lam . f - A)``
    of the family whose arrays (:func:`_family_arrays`) are the first three
    arguments; the feature rows are unread when ``lam`` is empty.

    Every member the package evaluates (a model, a solver iterate, a scaled
    variational family) goes through this function, so one ``lam`` gives
    the same bits on every path; the probabilities are divided by their
    float sum as :class:`FiniteDistribution` divides its weights.
    """
    scores = log_prior[mask]
    if len(lam):
        scores = scores + lam @ f_support
    log_z = _logsumexp(scores)
    lp = np.array(log_prior, copy=True)
    lp[mask] = scores - log_z
    q = np.exp(lp)
    return log_z, q / float(q.sum())


def _covariance(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The symmetrized covariance of the feature rows ``matrix`` under
    ``q``: the Hessian of the log-partition at the member ``q``."""
    m = matrix @ q
    cov = (matrix * q) @ matrix.T - np.outer(m, m)
    return 0.5 * (cov + cov.T)


def _natural_parameters(lam, dim: int) -> np.ndarray:
    """``lam`` as a read-only float vector of length ``dim``; a wrong shape
    or a non-finite entry raises :class:`InputError`."""
    lam = _frozen_array(lam)
    if lam.ndim != 1 or lam.shape[0] != dim:
        raise InputError(f"lambda has shape {lam.shape}, expected ({dim},)")
    if lam.size and not np.all(np.isfinite(lam)):
        raise InputError("natural parameters must be finite")
    return lam


def _family_arrays(prior: FiniteDistribution, features: FeatureSet) -> tuple:
    """The arrays of one family that :func:`_member` reads: the prior's
    log-probabilities, its support and the feature rows on the support."""
    features.check_alphabet(prior)
    rows = features.matrix[:, prior.support] if features.dim else features.matrix
    return prior.log_probs, prior.support, rows


def compute_log_partition(
    prior: FiniteDistribution, features: FeatureSet, lam: np.ndarray
) -> float:
    """``A(lam) = log sum_x P0(x) exp(lam . f(x))`` via log-sum-exp."""
    return _member(*_family_arrays(prior, features), lam)[0]


@dataclass(frozen=True, eq=False)
class ExpFamModel:
    """An exponential-family member: prior, features, natural parameters.

    The log-partition and the member's probabilities are computed at
    construction (:func:`_member`); instances are immutable and safe to
    share across threads.
    """

    prior: FiniteDistribution
    features: FeatureSet
    lam: np.ndarray
    log_partition: float

    def __init__(self, prior, features, lam):
        lam = _natural_parameters(lam, features.dim)
        log_z, probs = _member(*_family_arrays(prior, features), lam)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "log_partition", log_z)
        object.__setattr__(self, "_probs", probs)

    @property
    def dim(self) -> int:
        return self.features.dim

    def to_distribution(self) -> FiniteDistribution:
        """The member distribution, built once per model and shared (it is
        immutable); sums to 1 within 1e-12 by construction."""
        return self._dist

    @cached_property
    def _dist(self) -> FiniteDistribution:
        return FiniteDistribution._normalised(self.prior.outcomes, self._probs)

    def with_lambda(self, lam) -> "ExpFamModel":
        return ExpFamModel(self.prior, self.features, lam)

    def same_family(self, other: "ExpFamModel") -> bool:
        return (
            self.prior.outcomes == other.prior.outcomes
            and np.array_equal(self.prior.probs, other.prior.probs)
            and np.array_equal(self.features.matrix, other.features.matrix)
        )

    def to_json(self) -> dict:
        return {
            "prior": self.prior.to_json(),
            "features": self.features.to_json(),
            "lambda": self.lam.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExpFamModel":
        _require_keys(obj, ("prior", "features", "lambda"), "model")
        return cls(
            FiniteDistribution.from_json(obj["prior"]),
            FeatureSet.from_json(obj["features"]),
            obj["lambda"],
        )


def mean_parameters(model: ExpFamModel) -> np.ndarray:
    """Gradient of the log-partition: ``E_{P_lam}[f]``."""
    return moments(model._dist, model.features)


def fisher_information(model: ExpFamModel) -> np.ndarray:
    """Hessian of the log-partition: the feature covariance under ``P_lam``.

    Symmetric positive semidefinite; exactly singular when features are
    linearly dependent on the support.
    """
    return _covariance(model.features.matrix, model._probs)


def internal_energy(model: ExpFamModel, p: FiniteDistribution) -> float:
    """``U(P) = -lam . E_P[f]``."""
    if model.dim == 0:
        return 0.0
    return float(-np.dot(model.lam, moments(p, model.features)))


@dataclass(frozen=True)
class EnergyReport:
    """Internal energy, prior-relative free energy, and entropy of one
    distribution under one model's parameters."""

    internal_energy: float
    free_energy: float
    rel_entropy_to_prior: float
    entropy: float


def energies(model: ExpFamModel, p: FiniteDistribution) -> EnergyReport:
    """Energy bookkeeping for ``p`` under the model's parameters.

    ``free_energy = internal_energy + D(p || prior)``; for ``p`` equal to
    the model's own distribution this is ``-A(lam)``.
    """
    u = internal_energy(model, p)
    d0 = kl_divergence(p, model.prior)
    return EnergyReport(
        internal_energy=u,
        free_energy=u + d0,
        rel_entropy_to_prior=d0,
        entropy=entropy(p),
    )


def free_energy(model: ExpFamModel, p: FiniteDistribution) -> float:
    return energies(model, p).free_energy


def model_entropy(model: ExpFamModel) -> float:
    """``H(P_lam)``, assembled as ``H(P_lam, P0) - lam . grad A + A(lam)``."""
    return (
        cross_entropy(model._dist, model.prior)
        - float(np.dot(model.lam, mean_parameters(model)))
        + model.log_partition
    )


def model_cross_entropy(model: ExpFamModel, p: FiniteDistribution) -> float:
    """Log loss of the model on data ``p``:
    ``H(p, P_lam) = H(p, P0) + U(p) + A(lam)``.

    Infinite when ``p`` puts mass outside the prior's support.
    """
    h_prior = cross_entropy(p, model.prior)
    if math.isinf(h_prior):
        return math.inf
    return h_prior + internal_energy(model, p) + model.log_partition


def deviance(model_star: ExpFamModel, model: ExpFamModel) -> float:
    """``D(P_{lam*} || P_lam)`` between two members of one family.

    Evaluated in natural-parameter form:
    ``(lam* - lam) . alpha + A(lam) - A(lam*)`` with
    ``alpha = E_{P_{lam*}}[f]``.
    """
    if not model_star.same_family(model):
        raise FamilyMismatch("deviance requires a common prior and features")
    alpha = mean_parameters(model_star)
    return float(
        np.dot(model_star.lam - model.lam, alpha)
        + model.log_partition
        - model_star.log_partition
    )


def cgf(model: ExpFamModel, theta) -> float:
    """Cumulant generating function of the features under ``P_lam``:
    ``A(lam + theta) - A(lam)``."""
    theta = np.asarray(theta, dtype=float)
    shifted = compute_log_partition(model.prior, model.features, model.lam + theta)
    return shifted - model.log_partition


def centered_cgf(model: ExpFamModel, theta) -> float:
    """CGF of the mean-centered features, equal to the Bregman divergence
    of the log-partition between ``lam + theta`` and ``lam``.

    Non-negative for every ``theta`` by convexity of the log-partition.
    """
    theta = np.asarray(theta, dtype=float)
    return cgf(model, theta) - float(np.dot(theta, mean_parameters(model)))


@dataclass(frozen=True)
class HeatCapacity:
    """Sensitivity of one feature's expectation to its temperature.

    ``temperature`` is ``1 / lam_i``, or ``None`` when ``lam_i == 0``
    (the temperature is undefined there; the value is exactly 0).
    """

    value: float
    temperature: float | None
    feature: str


def heat_capacity(model: ExpFamModel, i: int) -> HeatCapacity:
    """``d E[f_i] / d T_i = -lam_i^2 * var(f_i)``; never positive."""
    if not 0 <= i < model.dim:
        raise DomainError(f"feature index {i} out of range [0, {model.dim})")
    lam_i = float(model.lam[i])
    var_i = float(fisher_information(model)[i, i])
    value = -(lam_i**2) * var_i
    temperature = None if lam_i == 0.0 else 1.0 / lam_i
    return HeatCapacity(
        value=value, temperature=temperature, feature=model.features.names[i]
    )
