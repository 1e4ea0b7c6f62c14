"""Finite distributions, feature sets, moment constraints, and the three
information measures (entropy, cross entropy, relative entropy).

Conventions, fixed once for the whole package:

- All logarithms are natural (nats).
- ``0 * log 0 == 0``.
- Cross entropy and divergence return ``math.inf`` on support violations;
  infinity is a value, never an exception.
- Cross entropy takes the expectation over its *first* argument:
  ``cross_entropy(P, Q) == E_{x~P}[-log Q(x)]``, and likewise
  ``kl_divergence(Q, P) == E_{x~Q}[log(Q(x)/P(x))]``.

Probabilities are kept in both linear and log domain; the log domain is
authoritative for probability computations so that alphabets of ~5e4
outcomes do not underflow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlphabetMismatch, DomainError, InputError, ShapeMismatch

#: Largest deviation of sum(probs) from 1 that construction will repair.
NORMALIZATION_SLACK = 1e-9

#: Default tolerance for moment-constraint membership tests.
MEMBERSHIP_TOL = 1e-9


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; values that are not numbers, or lists
    of unequal lengths, raise :class:`InputError` naming ``what``."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be numbers in a rectangular array") from None


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr = np.array(arr, copy=True)
    arr.flags.writeable = False
    return arr


class _Labels(tuple):
    """Outcome labels that are already strings and unique.

    A distribution stores its labels as this type, so a distribution built
    from another's ``outcomes`` skips re-validating them.
    """

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A probability vector over an explicit finite alphabet.

    Parameters
    ----------
    outcomes : sequence of str
        Unique, opaque outcome labels; their order fixes the coordinate
        order of ``probs``.
    probs : array_like
        Non-negative weights, one per outcome.  The weights must sum to 1
        within ``NORMALIZATION_SLACK``; they are renormalized to sum to 1
        exactly (in floating point) at construction.
    """

    outcomes: tuple[str, ...]
    probs: np.ndarray
    log_probs: np.ndarray = field(repr=False, default=None)

    def __init__(self, outcomes, probs):
        if type(outcomes) is not _Labels:
            outcomes = _Labels(str(x) for x in outcomes)
            if len(set(outcomes)) != len(outcomes):
                raise InputError("outcome labels must be unique")
        p = _float_array(probs, "probs")
        if p.ndim != 1 or p.shape[0] != len(outcomes):
            raise ShapeMismatch(
                f"probs has shape {p.shape}, expected ({len(outcomes)},)"
            )
        if len(outcomes) == 0:
            raise InputError("alphabet must be nonempty")
        if not np.all(np.isfinite(p)):
            raise InputError("probs must be finite")
        if np.any(p < 0):
            raise InputError("probs must be non-negative")
        total = float(p.sum())
        if abs(total - 1.0) > NORMALIZATION_SLACK:
            raise InputError(
                f"probs sum to {total!r}; deviation from 1 exceeds "
                f"{NORMALIZATION_SLACK}"
            )
        self._store(outcomes, p / total)

    @classmethod
    def _normalised(cls, outcomes: _Labels, p: np.ndarray) -> "FiniteDistribution":
        """The distribution with probabilities ``p``, weights already divided
        by their float sum as construction does; only finiteness is checked."""
        if not np.all(np.isfinite(p)):
            raise InputError("probs must be finite")
        dist = object.__new__(cls)
        dist._store(outcomes, p)
        return dist

    def _store(self, outcomes: _Labels, p: np.ndarray) -> None:
        with np.errstate(divide="ignore"):
            lp = np.log(p)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", _frozen_array(p))
        object.__setattr__(self, "log_probs", _frozen_array(lp))

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of outcomes with strictly positive probability."""
        return self.probs > 0.0

    @classmethod
    def uniform(cls, outcomes) -> "FiniteDistribution":
        outcomes = tuple(outcomes)
        k = len(outcomes)
        return cls(outcomes, np.full(k, 1.0 / k))

    @classmethod
    def point_mass(cls, outcomes, index: int) -> "FiniteDistribution":
        outcomes = tuple(outcomes)
        p = np.zeros(len(outcomes))
        p[index] = 1.0
        return cls(outcomes, p)

    def is_uniform(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.probs - 1.0 / len(self))) <= tol)

    def same_alphabet(self, other: "FiniteDistribution") -> bool:
        return self.outcomes == other.outcomes

    def to_json(self) -> dict:
        return {"outcomes": list(self.outcomes), "probs": self.probs.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteDistribution":
        _require_keys(obj, ("outcomes", "probs"), "distribution")
        return cls(_json_labels(obj, "outcomes", "distribution"), obj["probs"])


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """``d`` real-valued feature functions tabulated over an alphabet.

    ``matrix[i, x]`` is the value of feature ``i`` at outcome index ``x``.
    """

    names: tuple[str, ...]
    matrix: np.ndarray

    def __init__(self, names, matrix):
        names = tuple(str(x) for x in names)
        m = _float_array(matrix, "feature matrix")
        if m.ndim == 1 and len(names) == 1:
            m = m.reshape(1, -1)
        elif m.ndim == 1 and not m.size:
            m = m.reshape(len(names), 0)
        if m.ndim != 2 or m.shape[0] != len(names):
            raise ShapeMismatch(
                f"matrix has shape {m.shape}, expected ({len(names)}, |X|)"
            )
        if m.size and not np.all(np.isfinite(m)):
            raise InputError("feature values must be finite")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "matrix", _frozen_array(m))

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def alphabet_size(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def empty(cls, alphabet_size: int) -> "FeatureSet":
        return cls((), np.zeros((0, alphabet_size)))

    def check_alphabet(self, dist: FiniteDistribution) -> None:
        if self.dim and self.alphabet_size != len(dist):
            raise ShapeMismatch(
                f"feature set covers {self.alphabet_size} outcomes, "
                f"distribution has {len(dist)}"
            )

    def to_json(self) -> dict:
        return {"names": list(self.names), "matrix": self.matrix.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureSet":
        _require_keys(obj, ("names", "matrix"), "featureset")
        return cls(_json_labels(obj, "names", "featureset"), obj["matrix"])


class ConstraintKind(str, enum.Enum):
    EQ = "eq"
    GE = "ge"
    LE = "le"


_KIND_SIGN = {ConstraintKind.EQ: 0.0, ConstraintKind.GE: 1.0, ConstraintKind.LE: -1.0}


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Moment constraints ``E_Q[f_i] (=, >=, <=) targets[i]``.

    ``_sign[i]`` is +1 for ``ge``, -1 for ``le`` and 0 for ``eq``, so
    ``_sign[i] * (E_Q[f_i] - targets[i]) >= 0`` on the satisfied side of a
    one-sided constraint.
    """

    features: FeatureSet
    kinds: tuple[ConstraintKind, ...]
    targets: np.ndarray

    def __init__(self, features, kinds, targets):
        t = _float_array(targets, "constraint targets")
        try:
            kinds = tuple(ConstraintKind(k) for k in kinds)
        except (TypeError, ValueError):
            raise InputError(
                f"constraint kinds must be 'eq', 'ge' or 'le', got {kinds!r}"
            ) from None
        if t.ndim != 1 or t.shape[0] != features.dim or len(kinds) != features.dim:
            raise ShapeMismatch(
                f"{features.dim} features but {len(kinds)} kinds and "
                f"{t.shape[0]} targets"
            )
        if t.size and not np.all(np.isfinite(t)):
            raise InputError("constraint targets must be finite")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "targets", _frozen_array(t))
        sign = _frozen_array([_KIND_SIGN[k] for k in kinds])
        object.__setattr__(self, "_sign", sign)

    @property
    def dim(self) -> int:
        return self.features.dim

    @classmethod
    def equalities(cls, features: FeatureSet, targets) -> "ConstraintSet":
        return cls(features, (ConstraintKind.EQ,) * features.dim, targets)

    def is_equality_only(self) -> bool:
        return all(k is ConstraintKind.EQ for k in self.kinds)

    def to_json(self) -> dict:
        return {
            "kinds": [k.value for k in self.kinds],
            "targets": self.targets.tolist(),
            "featureset": self.features.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConstraintSet":
        _require_keys(obj, ("kinds", "targets", "featureset"), "constraintset")
        return cls(
            FeatureSet.from_json(obj["featureset"]), obj["kinds"], obj["targets"]
        )


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """An integer histogram of ``n`` samples over the alphabet."""

    counts: np.ndarray
    n: int

    def __init__(self, counts):
        c = np.asarray(counts)
        if c.ndim != 1:
            raise ShapeMismatch("counts must be a vector")
        if not np.issubdtype(c.dtype, np.integer):
            c = _float_array(c, "counts")
            rounded = np.rint(c)
            if np.any(np.abs(c - rounded) > 0):
                raise InputError("counts must be integers")
            c = rounded.astype(np.int64)
        c = c.astype(np.int64)
        if np.any(c < 0):
            raise InputError("counts must be non-negative")
        n = int(c.sum())
        if n < 1:
            raise InputError("total count must be at least 1")
        object.__setattr__(self, "counts", _frozen_array(c, dtype=np.int64))
        object.__setattr__(self, "n", n)

    @property
    def alphabet_size(self) -> int:
        return self.counts.shape[0]

    def to_distribution(self, outcomes=None) -> FiniteDistribution:
        if outcomes is None:
            outcomes = [str(i) for i in range(self.alphabet_size)]
        return FiniteDistribution(outcomes, self.counts / self.n)

    @classmethod
    def from_labels(cls, outcomes, labels) -> "EmpiricalMeasure":
        """Tally newline-style sample labels against an alphabet."""
        index = {str(o): i for i, o in enumerate(outcomes)}
        counts = np.zeros(len(index), dtype=np.int64)
        for lab in labels:
            key = str(lab)
            if key not in index:
                raise InputError(f"unknown outcome label {key!r}")
            counts[index[key]] += 1
        return cls(counts)

    def to_json(self) -> dict:
        return {"counts": self.counts.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "EmpiricalMeasure":
        _require_keys(obj, ("counts",), "empirical measure")
        return cls(obj["counts"])


def _require_keys(obj: dict, keys, what: str) -> None:
    """The package's one shape check of JSON input: ``obj`` must be an
    object holding ``keys``; ``what`` names it in the message."""
    if not isinstance(obj, dict):
        raise InputError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    for k in keys:
        if k not in obj:
            raise InputError(f"{what}: missing field {k!r}")


def _json_labels(obj: dict, key: str, what: str) -> list:
    """The labels under ``key``, which must be a JSON array: a number would
    not iterate, and a string would split into one-character labels."""
    labels = obj[key]
    if not isinstance(labels, list):
        raise InputError(f"{what}: {key} must be an array of labels, got {labels!r}")
    return labels


def _check_same_alphabet(a: FiniteDistribution, b: FiniteDistribution) -> None:
    if not a.same_alphabet(b):
        raise AlphabetMismatch(
            f"alphabets differ: {a.outcomes[:4]}... vs {b.outcomes[:4]}..."
        )


def entropy(p: FiniteDistribution) -> float:
    """Shannon entropy ``H(P) = -sum_x P(x) log P(x)`` in nats."""
    mask = p.support
    return float(-np.dot(p.probs[mask], p.log_probs[mask]))


def cross_entropy(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Cross entropy ``H(P, Q) = E_{x~P}[-log Q(x)]`` in nats.

    Returns ``inf`` exactly when some outcome has ``P(x) > 0`` and
    ``Q(x) = 0``.
    """
    _check_same_alphabet(p, q)
    mask = p.support
    if np.any(q.probs[mask] == 0.0):
        return math.inf
    return float(-np.dot(p.probs[mask], q.log_probs[mask]))


def kl_divergence(q: FiniteDistribution, p: FiniteDistribution) -> float:
    """Relative entropy ``D(Q || P) = E_{x~Q}[log(Q(x)/P(x))]`` in nats."""
    _check_same_alphabet(q, p)
    mask = q.support
    if np.any(p.probs[mask] == 0.0):
        return math.inf
    return float(np.dot(q.probs[mask], q.log_probs[mask] - p.log_probs[mask]))


def moments(p: FiniteDistribution, features: FeatureSet) -> np.ndarray:
    """Expected feature values ``E_{x~P}[f_i(x)]`` as a length-d vector."""
    features.check_alphabet(p)
    if features.dim == 0:
        return np.zeros(0)
    return features.matrix @ p.probs


def constraint_mask(
    constraints: ConstraintSet, values: np.ndarray, tol: float = MEMBERSHIP_TOL
) -> np.ndarray:
    """Which columns of the ``(d, M)`` matrix of moment values ``values``
    satisfy every constraint within slack ``tol``, as a length-M mask."""
    if tol < 0:
        raise DomainError("membership tolerance must be non-negative")
    sign = constraints._sign
    lower = np.where(sign < 0, -math.inf, -tol)
    upper = np.where(sign > 0, math.inf, tol)
    diff = values - constraints.targets[:, None]
    return np.all((diff >= lower[:, None]) & (diff <= upper[:, None]), axis=0)


def constraint_contains(
    constraints: ConstraintSet, q: FiniteDistribution, tol: float = MEMBERSHIP_TOL
) -> bool:
    """Whether ``q`` satisfies every constraint within slack ``tol``."""
    m = moments(q, constraints.features)
    return bool(constraint_mask(constraints, m[:, None], tol)[0])


def mix(
    p: FiniteDistribution, q: FiniteDistribution, weight: float
) -> FiniteDistribution:
    """Convex mixture ``weight * P + (1 - weight) * Q``."""
    _check_same_alphabet(p, q)
    if not 0.0 <= weight <= 1.0:
        raise DomainError("mixture weight must lie in [0, 1]")
    return FiniteDistribution(
        p.outcomes, weight * p.probs + (1.0 - weight) * q.probs
    )


def total_variation(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Total-variation distance ``0.5 * sum_x |P(x) - Q(x)|``."""
    _check_same_alphabet(p, q)
    return float(0.5 * np.sum(np.abs(p.probs - q.probs)))
