"""Readout rates of digital optical memories probed by quantum light.

Core pieces:

* :mod:`qreading.states` — truncated-Fock probe states and block-diagonal
  entropies;
* :mod:`qreading.channels` — the memory-cell channel (loss + classical
  Gaussian displacement noise) in the Fock basis;
* :mod:`qreading.rates` — Holevo rates, closed forms, gains;
* :mod:`qreading.diffraction` — near-field interbit interference, the
  extrema of its Toeplitz symbol and the resulting rate bounds;
* :mod:`qreading.cli` — the ``qreading`` command.
"""

from .channels import MarginalCell
from .diffraction import (
    DiffractionGeometry,
    RateBounds,
    rate_bounds,
    tau_extrema,
    toeplitz_symbol,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    QReadingError,
    StateValidationError,
    TruncationError,
)
from .rates import (
    ConcavityReport,
    GainResult,
    RateResult,
    bounding_rates,
    coherent_capacity_faint,
    coherent_capacity_noiseless,
    concavity_scan,
    epr_rate_faint,
    epr_rate_noiseless_phase,
    gains,
    holevo_rate,
    shannon_entropy_d,
)
from .states import (
    TransmitterSpec,
    coherent_state,
    epr_state,
    g_thermal,
)

__all__ = [
    "MarginalCell",
    "DiffractionGeometry", "RateBounds", "rate_bounds", "tau_extrema",
    "toeplitz_symbol", "ConfigError", "ConvergenceError", "QReadingError",
    "StateValidationError", "TruncationError", "ConcavityReport", "GainResult",
    "RateResult", "bounding_rates", "coherent_capacity_faint", "coherent_capacity_noiseless",
    "concavity_scan", "epr_rate_faint", "epr_rate_noiseless_phase", "gains",
    "holevo_rate", "shannon_entropy_d",
    "TransmitterSpec", "coherent_state", "epr_state", "g_thermal",
]

__version__ = "0.1.0"
