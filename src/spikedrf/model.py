"""Experiment configuration: activations, links, vocabularies, assumption checks.

One experiment is a Gaussian single-index problem y = g(x^T w*) fit by a
two-layer network sigma(W x) with a p-dimensional readout, trained with one
aggressive gradient step on n0 samples followed by ridge regression on n
fresh samples.  The second layer is initialized i.i.d. from a finite
vocabulary {zeta_q} with probabilities {pi_q}, scaled by 1/sqrt(p).

Assumption violations that the theory is empirically robust to (sigma not
odd, E[sigma] != 0, slow n0 growth) are downgraded to warnings, as is a
vanishing rank-one spike (E[sigma'] = 0 or E[g'] = 0); structural
errors (pi not a distribution, lambda <= 0) fail hard.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Dict, List

import numpy as np

from .quadrature import DEFAULT_INNER_NODES, cached_rule


class ConfigError(ValueError):
    """Structural configuration error (hard failure)."""


# --------------------------------------------------------------------------- #
# activations and links
# --------------------------------------------------------------------------- #


class _GaussianMoments:
    """Gaussian moments of the pointwise function `self.fn`, on the inner quadrature rule."""

    def first_coeff(self) -> float:
        """E[f(z) z]: c1 of an activation, c1* (= E[g'(z)] for differentiable g) of a link."""
        rule = cached_rule(DEFAULT_INNER_NODES)
        return float(rule.weights @ (self.fn(rule.nodes) * rule.nodes))

    def mean(self) -> float:
        rule = cached_rule(DEFAULT_INNER_NODES)
        return float(rule.weights @ self.fn(rule.nodes))


@dataclass(frozen=True)
class ActivationSpec(_GaussianMoments):
    """Pointwise activation sigma with derivative, for training and Hermite data."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    kink_points: tuple = ()

    def is_odd(self) -> bool:
        rule = cached_rule(DEFAULT_INNER_NODES)
        asym = self.fn(rule.nodes) + self.fn(-rule.nodes)
        return float(rule.weights @ asym**2) < 1e-8

    def validate_derivative(self) -> None:
        """Central finite differences at 20 random points, away from kinks."""
        pts = np.random.default_rng(0).normal(size=200)
        for kink in self.kink_points:
            pts = pts[np.abs(pts - kink) > 1e-2]
        pts = pts[:20]
        h = 1e-6
        fd = (self.fn(pts + h) - self.fn(pts - h)) / (2 * h)
        if not np.allclose(fd, self.deriv(pts), atol=1e-6, rtol=1e-6):
            raise ConfigError(f"derivative of activation '{self.name}' disagrees with finite differences")


@dataclass(frozen=True)
class LinkSpec(_GaussianMoments):
    """Target link g; only pointwise evaluation is needed."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]


_SQRT6 = math.sqrt(6.0)


def _erf(x):
    from scipy.special import erf  # the one activation that needs scipy; imported on first use
    return erf(x)


# tanh' and erf' write into their first temporary: on a (chunk, p) block they allocate one block, not two
def _tanh_deriv(x):
    c = np.cosh(x)
    return np.divide(1.0, np.square(c, out=c), out=c)


def _erf_deriv(x):
    e = np.square(x)
    np.exp(np.negative(e, out=e), out=e)
    e *= 2.0 / np.sqrt(np.pi)
    return e


# the catalogues, by name; a new activation or link is one more entry
ACTIVATIONS: Dict[str, ActivationSpec] = {spec.name: spec for spec in (
    ActivationSpec("relu", lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(float), kink_points=(0.0,)),
    ActivationSpec("erf", _erf, _erf_deriv),
    ActivationSpec("tanh", np.tanh, _tanh_deriv),
    ActivationSpec("sin", np.sin, np.cos),
    ActivationSpec("identity", lambda x: x, lambda x: np.ones_like(x)),
    ActivationSpec("hermite2", lambda x: (x**2 - 1.0) / math.sqrt(2.0), lambda x: x * math.sqrt(2.0)),
    ActivationSpec("hermite3", lambda x: (x**3 - 3.0 * x) / _SQRT6, lambda x: (3.0 * x**2 - 3.0) / _SQRT6),
)}
LINKS: Dict[str, LinkSpec] = {spec.name: spec for spec in (
    LinkSpec("tanh", np.tanh),
    LinkSpec("sin", np.sin),
    LinkSpec("sign_smooth", lambda x: np.tanh(5.0 * x)),
    LinkSpec("identity", lambda x: x),
)}


def get_activation(name: str) -> ActivationSpec:
    try:
        return ACTIVATIONS[name]
    except (KeyError, TypeError):  # TypeError: a name that is not hashable, as a JSON array or object
        raise ConfigError(f"unknown activation '{name}'; known: {sorted(ACTIVATIONS)}") from None


def get_link(name: str) -> LinkSpec:
    try:
        return LINKS[name]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown link '{name}'; known: {sorted(LINKS)}") from None


# --------------------------------------------------------------------------- #
# vocabulary and config
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class VocabularySpec:
    """Second-layer vocabulary: k values zeta_q with probabilities pi_q."""

    zeta: tuple
    pi: tuple

    def __post_init__(self):
        zeta = tuple(_real("zeta", z) for z in self.zeta)
        pi = tuple(_real("pi", w) for w in self.pi)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "pi", pi)
        if len(zeta) != len(pi) or len(zeta) == 0:
            raise ConfigError("vocabulary needs matching, non-empty zeta and pi lists")
        # written so that a NaN fails each test
        if not all(w > 0 for w in pi) or not abs(sum(pi) - 1.0) <= 1e-12:
            raise ConfigError(f"vocabulary probabilities must be positive and sum to 1, got {pi}")
        if not all(math.isfinite(z) for z in zeta):
            raise ConfigError(f"vocabulary values must be finite, got {zeta}")
        if len(set(zeta)) != len(zeta):
            raise ConfigError(f"vocabulary values must be pairwise distinct, got {zeta}")

    def as_arrays(self):
        return np.asarray(self.zeta, dtype=float), np.asarray(self.pi, dtype=float)


def default_n0(d: int) -> int:
    # the asymptotics need n0 = Omega(d^{1+eps}); exponent 1.2 keeps desk-scale cost sane
    return int(math.ceil(d**1.2))


def _integer(name: str, value) -> int:
    """`value` as an int; a bool, a non-number or a number with a fractional part is a ConfigError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """`value` as a float; a bool or a non-number (a string included) is a ConfigError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a real number, got {value!r}")


def _key(name: str) -> str:  # a field's config-file key: its name, but "lambda" for the ridge penalty lam
    return "lambda" if name == "lam" else name


def _field_values(cls, data, what: str) -> dict:
    """`data`'s values by field of the dataclass `cls`; a key is required exactly when its field has no default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {data!r}")
    keys = {_key(f.name): f for f in fields(cls)}
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = {key for key, f in keys.items() if f.default is MISSING} - set(data)
    if missing:
        raise ConfigError(f"missing {what} keys: {sorted(missing)}")
    return {f.name: data[key] for key, f in keys.items() if key in data}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """All scalar hyperparameters of one run; alpha and beta are derived, never stored.

    The fields are the config file's keys in file order (`lam` is "lambda"); n0, the one with a default, is optional.
    """

    d: int
    p: int
    n: int
    n0: int | None = None
    eta_tilde: float
    lam: float
    seed: int
    activation: str
    link: str
    vocab: VocabularySpec

    def __post_init__(self):
        for name, least in (("d", 1), ("p", 1), ("n", 1), ("seed", 0), ("n0", 1)):
            if name == "n0" and self.n0 is None:
                object.__setattr__(self, "n0", default_n0(self.d))
            value = _integer(name, getattr(self, name))
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, value)
        for name in ("eta_tilde", "lam"):
            value = _real(_key(name), getattr(self, name))
            if not math.isfinite(value):
                raise ConfigError(f"{_key(name)} must be finite, got {value}")
            object.__setattr__(self, name, value)
        get_activation(self.activation)
        get_link(self.link)

    @property
    def alpha(self) -> float:
        return self.n / self.d

    @property
    def beta(self) -> float:
        return self.p / self.d

    @property
    def eta(self) -> float:
        return self.eta_tilde * self.d

    def activation_spec(self) -> ActivationSpec:
        return get_activation(self.activation)

    def link_spec(self) -> LinkSpec:
        return get_link(self.link)

    def spike_vocabulary(self) -> np.ndarray:
        """Spike coefficient values zeta_u = (eta_tilde/beta) c1 c1* zeta implied by one gradient step."""
        c1 = self.activation_spec().first_coeff()
        cstar1 = self.link_spec().first_coeff()
        zeta_a, _ = self.vocab.as_arrays()
        return (self.eta_tilde / self.beta) * c1 * cstar1 * zeta_a

    def to_dict(self) -> dict:
        return {_key(name): value for name, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        values = _field_values(cls, data, "config")
        if "n0" in values:  # an explicit null is an error, not the default
            values["n0"] = _integer("n0", values["n0"])
        vocab = _field_values(VocabularySpec, values["vocab"], "vocab")
        for name, value in vocab.items():
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be an array, got {value!r}")
        return cls(**{**values, "vocab": VocabularySpec(**vocab)})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


# --------------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------------- #


@dataclass
class ValidationReport:
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.errors


def validate_config(config: ExperimentConfig, for_theory: bool = True) -> ValidationReport:
    """Check the working assumptions; soft violations become warnings.

    Hard failures: pi not a distribution (already rejected by VocabularySpec),
    and, unless for_theory is False, lambda <= 0: lambda is the ridge penalty
    and the theory's spectral point is z = -lambda.  Every CLI command checks it.
    """
    report = ValidationReport()
    sigma = config.activation_spec()
    link = config.link_spec()

    if for_theory and config.lam <= 0:
        report.errors.append(f"lambda must be > 0, got {config.lam}")

    try:
        sigma.validate_derivative()
    except ConfigError as exc:
        report.errors.append(str(exc))

    if not sigma.is_odd():
        report.warnings.append(f"activation '{sigma.name}' is not odd (assumption violated; results are empirical)")
    if abs(sigma.first_coeff()) < 1e-8:
        report.warnings.append(f"activation '{sigma.name}' has E[sigma'] = 0; the rank-one spike vanishes")
    if abs(sigma.mean()) > 1e-8:
        report.warnings.append(f"activation '{sigma.name}' has E[sigma] = {sigma.mean():.3g} != 0")
    if abs(link.mean()) > 1e-8:
        report.warnings.append(f"link '{link.name}' has E[g] = {link.mean():.3g} != 0")
    if abs(link.first_coeff()) < 1e-8:
        report.warnings.append(f"link '{link.name}' has E[g'] = 0; the rank-one spike vanishes")
    if config.n0 < config.d**1.05:
        report.warnings.append(f"n0 = {config.n0} grows slower than d^(1+eps); spike approximation may be loose")
    return report


# --------------------------------------------------------------------------- #
# second-layer sampling
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SecondLayer:
    """Second layer at init, neurons stably reordered so groups are contiguous.

    a0 carries the 1/sqrt(p) scaling; `groups[j]` is the vocabulary index of
    neuron j; group_sizes[q] = #{j : groups[j] = q}.
    """

    a0: np.ndarray
    groups: np.ndarray
    group_sizes: np.ndarray


def sample_second_layer(p: int, vocab: VocabularySpec, rng: np.random.Generator) -> SecondLayer:
    zeta, pi = vocab.as_arrays()
    raw = rng.choice(len(zeta), size=p, p=pi)
    order = np.argsort(raw, kind="stable")
    groups = raw[order]
    a0 = zeta[groups] / np.sqrt(p)
    sizes = np.bincount(groups, minlength=len(zeta))
    if np.any(sizes == 0):
        missing = [q for q, s in enumerate(sizes) if s == 0]
        raise ConfigError(f"vocabulary entries {missing} drew zero neurons at p={p}; increase p")
    return SecondLayer(a0=a0, groups=groups, group_sizes=sizes)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; (seed, stream) fully determines the draw."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))
