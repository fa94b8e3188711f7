"""EPR-vs-coherent information gain as thermal noise grows.

For a beam-splitter memory (z0 = 0, z1 = 1) the EPR probe already edges out
the coherent one without noise, and thermal photons widen the margin
sharply: the retained idler protects the signal correlations that the noise
scrambles for a classical probe. This sweep prints the absolute and
relative gains at fixed probe energy.
"""

import csv
import sys

import numpy as np

from qreading import MarginalCell, gains

CELL = MarginalCell.binary(0.5, 0.0, 1.0)
N = 0.01
NTH_GRID = np.concatenate(([0.0], np.geomspace(1e-3, 1.0, 10)))


def main() -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "n_th", "coherent_bits", "epr_bits",
                     "gain_absolute", "gain_relative"])
    for nth in NTH_GRID:
        res = gains(CELL, N, float(nth), dim=24)
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v
                         for v in (N, float(nth), res.coherent_bits,
                                   res.epr_bits, res.gain_absolute,
                                   res.gain_relative if res.gain_relative is not None else "")])


if __name__ == "__main__":
    main()
