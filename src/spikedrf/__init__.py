"""Spiked random-features laboratory.

Simulates two-layer networks trained with one aggressive gradient step plus a
ridge readout on Gaussian single-index data, solves the matching
deterministic-equivalent fixed point, and compares bulk spectra and test
errors between the two.
"""

__version__ = "0.3.2"  # the package's version, which every run manifest records

from .model import ExperimentConfig, VocabularySpec, validate_config
from .detequiv import DetEquivProblem, FixedPointState, problem_from_config, solve_fixed_point
from .generror import asymptotic_tau
from .spectrum import DensityCurve, density_grid

__all__ = [
    "ExperimentConfig",
    "VocabularySpec",
    "validate_config",
    "DetEquivProblem",
    "FixedPointState",
    "problem_from_config",
    "solve_fixed_point",
    "asymptotic_tau",
    "DensityCurve",
    "density_grid",
]
