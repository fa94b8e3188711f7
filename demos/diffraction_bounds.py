"""Reading-rate bounds against the cell-spacing / Rayleigh-length ratio.

Below ell / x_R = 1/2 the collection optics transmit nothing of a lone
symbol in the worst case (tau_min = 0) and the lower bound collapses; above
it the bounds tighten towards the diffraction-free rate. With thermal noise
present the EPR lower bound can exceed the coherent upper bound, so the
quantum advantage survives the correlated diffraction noise.
"""

import csv
import sys

import numpy as np

from qreading import DiffractionGeometry, MarginalCell, rate_bounds

CELL = MarginalCell.binary(0.5, 0.0, 1.0)
N, NTH = 0.1, 1.0
RATIOS = np.linspace(0.5, 3.0, 11)


def main() -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["ell_over_xr", "tau_min", "tau_max",
                     "coherent_lower", "coherent_upper",
                     "epr_lower", "epr_upper"])
    geoms = [DiffractionGeometry(float(ratio)) for ratio in RATIOS]
    for ratio, b in zip(RATIOS, rate_bounds(CELL, N, geoms, NTH, dim=24)):
        writer.writerow([f"{v:.6g}" for v in (
            float(ratio), b.tau_min, b.tau_max,
            b.coherent_lower, b.coherent_upper, b.epr_lower, b.epr_upper)])


if __name__ == "__main__":
    main()
