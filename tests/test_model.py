import json

import numpy as np
import pytest

from spikedrf.model import (
    ACTIVATIONS,
    LINKS,
    ConfigError,
    ExperimentConfig,
    LinkSpec,
    VocabularySpec,
    default_n0,
    make_rng,
    sample_second_layer,
    validate_config,
)

FIG2_K4 = VocabularySpec(zeta=(1.0, -0.5, 1.5, -2.0), pi=(0.7, 0.1, 0.1, 0.1))


def fig2_config(**over):
    base = dict(
        d=1365,
        p=2048,
        n=2730,
        eta_tilde=0.5,
        lam=0.01,
        seed=0,
        activation="relu",
        link="tanh",
        vocab=FIG2_K4,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_roundtrip(tmp_path):
    cfg = fig2_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = ExperimentConfig.from_file(path)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


def test_unknown_keys_rejected():
    data = fig2_config().to_dict()
    data["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_dict(data)
    data = fig2_config().to_dict()
    data["vocab"]["extra"] = []
    with pytest.raises(ConfigError, match="extra"):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("data, match", [
    (3, "config must be a JSON object, got 3"),
    ([], r"config must be a JSON object, got \[\]"),
    ({"vocab": None}, "vocab must be a JSON object, got None"),
    ({"vocab": {"zeta": 1.0, "pi": [1.0]}}, "zeta must be an array, got 1.0"),
    ({"vocab": {"zeta": [1.0], "pi": "1.0"}}, "pi must be an array, got '1.0'"),
    ({"vocab": {"pi": [1.0]}}, r"missing vocab keys: \['zeta'\]"),
])
def test_malformed_structure_is_a_named_config_error(data, match):
    # a file or vocab that is not an object, or zeta and pi that are not arrays, fail before any field check
    if isinstance(data, dict):
        data = {**fig2_config().to_dict(), **data}
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(data)


def test_n0_default_growth():
    cfg = ExperimentConfig.from_dict({k: v for k, v in fig2_config().to_dict().items() if k != "n0"})
    assert cfg.n0 == default_n0(cfg.d) == int(np.ceil(cfg.d**1.2))


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("seed", -1, "seed must be >= 0"),
        ("d", 60.9, "d must be an integer"),
        ("p", True, "p must be an integer"),
        ("n", "2730", "n must be an integer"),
        ("n0", 5000.5, "n0 must be an integer"),
        ("n0", None, "n0 must be an integer"),
        ("seed", False, "seed must be an integer"),
        ("lambda", float("nan"), "lambda must be finite"),
        ("eta_tilde", float("inf"), "eta_tilde must be finite"),
        ("eta_tilde", True, "eta_tilde must be a real number"),
        ("lambda", True, "lambda must be a real number"),
        ("eta_tilde", "1.0", "eta_tilde must be a real number"),
        ("eta_tilde", "abc", "eta_tilde must be a real number"),
        ("lambda", "x", "lambda must be a real number"),
        ("vocab", {"zeta": [1.0], "pi": [True]}, "pi must be a real number"),
        ("vocab", {"zeta": ["1.0"], "pi": [1.0]}, "zeta must be a real number"),
        ("vocab", {"zeta": ["abc"], "pi": [1.0]}, "zeta must be a real number"),
    ],
)
def test_malformed_numbers_rejected(key, value, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict({**fig2_config().to_dict(), key: value})


@pytest.mark.parametrize("field", ["eta_tilde", "lam"])
@pytest.mark.parametrize("value", ["1.0", True])
def test_direct_construction_checks_real_fields(field, value):
    # the same check as through from_dict, which leaves the real fields to the constructor
    key = "lambda" if field == "lam" else field
    with pytest.raises(ConfigError, match=f"{key} must be a real number"):
        fig2_config(**{field: value})


def test_integral_floats_are_integers():
    cfg = ExperimentConfig.from_dict({**fig2_config().to_dict(), "d": 1365.0, "seed": 0.0})
    assert cfg == fig2_config() and type(cfg.d) is int and type(cfg.seed) is int
    assert cfg.config_hash() == fig2_config().config_hash()


def test_ratios_derived_not_stored():
    cfg = fig2_config()
    assert cfg.alpha == cfg.n / cfg.d
    assert cfg.beta == cfg.p / cfg.d
    assert "alpha" not in cfg.to_dict()


def test_fig2_config_valid_with_warnings():
    report = validate_config(fig2_config())
    assert report.valid
    assert any("not odd" in w for w in report.warnings)  # relu
    assert any("E[sigma]" in w for w in report.warnings)


def test_bad_probabilities_structural():
    with pytest.raises(ConfigError):
        VocabularySpec(zeta=(1.0, 2.0), pi=(0.5, 0.6))


def test_nan_vocabulary_structural():
    with pytest.raises(ConfigError, match="probabilities"):
        VocabularySpec(zeta=(1.0,), pi=(float("nan"),))
    with pytest.raises(ConfigError, match="finite"):
        VocabularySpec(zeta=(float("nan"),), pi=(1.0,))


def test_duplicate_zeta_structural():
    with pytest.raises(ConfigError):
        VocabularySpec(zeta=(1.0, 1.0), pi=(0.5, 0.5))


def test_nonpositive_lambda_fails_for_theory():
    report = validate_config(fig2_config(lam=0.0))
    assert not report.valid
    assert validate_config(fig2_config(lam=0.0), for_theory=False).valid


def test_square_link_warns_no_spike(monkeypatch):
    monkeypatch.setitem(LINKS, "square", LinkSpec("square", lambda x: x**2))
    report = validate_config(fig2_config(link="square"))
    assert report.valid
    assert any("E[g'] = 0" in w for w in report.warnings)
    assert any("E[g]" in w for w in report.warnings)


def test_derivatives_validate_against_finite_differences():
    for spec in ACTIVATIONS.values():
        spec.validate_derivative()


def test_vanishing_activation_spike_warns():
    # c1 = E[sigma(z) z] is ~1e-16 for the even hermite2 and the orthogonal hermite3, and >= 0.5 otherwise
    for name in ACTIVATIONS:
        warnings = validate_config(fig2_config(activation=name)).warnings
        vanishes = [w for w in warnings if w.startswith(f"activation '{name}'") and "spike vanishes" in w]
        assert len(vanishes) == (name in ("hermite2", "hermite3")), (name, warnings)


def test_sample_second_layer_single_group():
    layer = sample_second_layer(10, VocabularySpec(zeta=(2.0,), pi=(1.0,)), make_rng(0))
    assert np.allclose(layer.a0, 2.0 / np.sqrt(10))
    assert layer.group_sizes.tolist() == [10]


def test_sample_second_layer_frequencies_and_invariants():
    p = 1_000_000
    vocab = VocabularySpec(zeta=(1.0, -1.0), pi=(0.9, 0.1))
    layer = sample_second_layer(p, vocab, make_rng(7))
    assert layer.group_sizes.sum() == p
    # binomial 3-sigma band, computed independently
    for q, piq in enumerate(vocab.pi):
        sd = np.sqrt(p * piq * (1 - piq))
        assert abs(layer.group_sizes[q] - p * piq) < 3 * sd
    # contiguous groups, multiset preserved
    assert np.all(np.diff(layer.groups) >= 0)
    vals, counts = np.unique(layer.a0 * np.sqrt(p), return_counts=True)
    assert set(np.round(vals, 12)) == {-1.0, 1.0}
    assert sorted(counts.tolist()) == sorted(layer.group_sizes.tolist())


def test_sample_second_layer_deterministic():
    vocab = VocabularySpec(zeta=(1.0, -1.0), pi=(0.5, 0.5))
    a = sample_second_layer(512, vocab, make_rng(3, 1))
    b = sample_second_layer(512, vocab, make_rng(3, 1))
    assert np.array_equal(a.a0, b.a0) and np.array_equal(a.groups, b.groups)


def test_empty_group_rejected():
    vocab = VocabularySpec(zeta=(1.0, -1.0), pi=(0.999999, 1 - 0.999999))
    with pytest.raises(ConfigError, match="zero neurons"):
        sample_second_layer(8, vocab, make_rng(0))


def test_missing_and_unknown_activation():
    with pytest.raises(ConfigError):
        fig2_config(activation="swish")
    with pytest.raises(ConfigError):
        fig2_config(link="swish")
