import pytest

from spikedrf.model import ExperimentConfig, VocabularySpec


@pytest.fixture()
def tiny_config():
    return ExperimentConfig(
        d=60,
        p=90,
        n=48,
        n0=200,
        eta_tilde=1.0,
        lam=0.1,
        seed=1234,
        activation="tanh",
        link="sin",
        vocab=VocabularySpec(zeta=(1.0,), pi=(1.0,)),
    )
