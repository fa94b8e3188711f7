"""Readout rates of digital optical memories probed by quantum light.

One module per layer of the model:

* :mod:`qreading.channels` — the memory-cell channel (loss + classical
  Gaussian displacement noise) on a probe, in the Fock basis, with the
  probes' truncation guards;
* :mod:`qreading.rates` — transmitters, Holevo rates of the output
  ensembles, closed forms, gains and the ``rate`` table's rows;
* :mod:`qreading.diffraction` — near-field interbit interference, the
  extrema of its Toeplitz symbol and the resulting rate bounds;
* :mod:`qreading.cli` — the ``qreading`` command: parse, one library call
  per subcommand, render.

Conventions used throughout the package:

* quadratures are x = a + a^dag, p = -i(a - a^dag), so the vacuum covariance
  matrix is the identity (variance 1) and a thermal state with mean photon
  number ``nbar`` has covariance (2*nbar + 1) * I;
* entropies are in bits (log base 2).
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
    RateRow,
    TransmitterSpec,
    bounding_rates,
    coherent_capacity_faint,
    coherent_capacity_noiseless,
    concavity_scan,
    epr_rate_faint,
    epr_rate_noiseless_phase,
    g_thermal,
    gains,
    holevo_rate,
    rate_rows,
    shannon_entropy_d,
)

__all__ = [
    "MarginalCell",
    "DiffractionGeometry", "RateBounds", "rate_bounds", "tau_extrema",
    "toeplitz_symbol", "ConfigError", "ConvergenceError", "QReadingError",
    "StateValidationError", "TruncationError", "ConcavityReport", "GainResult",
    "RateResult", "bounding_rates", "coherent_capacity_faint", "coherent_capacity_noiseless",
    "concavity_scan", "epr_rate_faint", "epr_rate_noiseless_phase", "gains",
    "holevo_rate", "shannon_entropy_d",
    "TransmitterSpec", "g_thermal", "RateRow", "rate_rows",
]

__version__ = "0.1.0"
