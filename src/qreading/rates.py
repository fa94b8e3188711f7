"""Holevo readout rates: exact Fock-basis numerics, closed-form noiseless
expressions, faint-signal approximations, information gains, and the
concavity scan backing the classical-optimality conjecture.

Coherent numerics use the single-mode optimum (s=1, r=0); EPR numerics use a
single two-mode squeezed copy (s=1, r=1), whose outputs are block-diagonal in
n_S - n_R and are built and diagonalised as 2d - 1 blocks of size <= d. The
general-s noiseless phase rate is in closed form: :func:`epr_rate_noiseless_phase`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence

import numpy as np

from .channels import (
    ChannelParams,
    MarginalCell,
    compose_with_attenuator,
    epr_output_blocks,
    gaussian_channel_action,
    pure_state_cell_output,
)
from .errors import ConvergenceError
from .states import (
    DEFAULT_DIM_PER_MODE,
    DEFAULT_DIM_SINGLE,
    TransmitterSpec,
    block_entropies,
    symplectic_entropy,
)

RATE_FLOOR = 1e-9


@dataclass(frozen=True)
class RateResult:
    rate_bits: float
    truncation_dim: int
    trace_deficit: float
    method: Literal["fock_numeric", "analytic_noiseless", "faint_approx"]
    cross_check_error: float | None = None


@dataclass(frozen=True)
class GainResult:
    absolute: float
    relative: float | None
    coherent_bits: float
    epr_bits: float
    trace_deficit: float  # worst of the two rates
    cross_check_bits: float  # worst of the two rates


@dataclass(frozen=True)
class ConcavityReport:
    n_grid: np.ndarray
    rates: np.ndarray
    second_differences: np.ndarray
    max_second_difference: float
    argmax_n: float


def shannon_entropy_d(q: Sequence[float]) -> float:
    """d-ary Shannon entropy h_d of d-1 probabilities (0 log 0 = 0), bits."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("probabilities must be >= 0")
    total = float(np.sum(q))
    if total > 1.0 + 1e-12:
        raise ValueError(f"probabilities sum to {total} > 1")
    probs = np.concatenate(([max(1.0 - total, 0.0)], q))
    probs = probs[probs > 0]
    return float(-np.sum(probs * np.log2(probs))) + 0.0  # + 0.0 maps -0.0 to 0.0


def _h2(q: float) -> float:
    return shannon_entropy_d([q])


def _default_dim(tx: TransmitterSpec) -> int:
    return DEFAULT_DIM_SINGLE if tx.kind == "coherent" else DEFAULT_DIM_PER_MODE


def _symbol_blocks(tx: TransmitterSpec, params: ChannelParams, dim: int,
                   idler_attenuation: float) -> np.ndarray:
    """Symbol output as diagonal blocks: 1 for coherent, 2 dim - 1 for EPR."""
    vec = tx.fock_vector(dim)
    if tx.kind == "coherent":
        return pure_state_cell_output(vec, (dim,), params).data[None]
    return epr_output_blocks(np.diagonal(vec.reshape(dim, dim)), params, idler_attenuation)


def _symbol_gaussian_entropy(tx: TransmitterSpec, params: ChannelParams,
                             idler_attenuation: float) -> float:
    state = gaussian_channel_action(tx.gaussian(), params, mode=0)
    if idler_attenuation < 1.0:
        for mode in range(1, state.mode_count):
            state = gaussian_channel_action(
                state, ChannelParams(idler_attenuation, 0.0), mode)
    return symplectic_entropy(state)


def holevo_rate(cell: MarginalCell, tx: TransmitterSpec, n_th: float = 0.0,
                dim: int | None = None, idler_attenuation: float = 1.0,
                check_convergence: bool = False) -> RateResult:
    """Holevo information of the cell ensemble for the given transmitter.

    Symbol and mixture entropies come from one batched eigensolve over the
    Fock-basis outputs' diagonal blocks (for EPR, blocks of n_S - n_R); the
    per-symbol entropies are cross-checked against the exact Gaussian
    (symplectic) values, with the worst deviation reported.
    """
    if tx.kind == "epr" and tx.s != 1:
        raise NotImplementedError(
            "numeric EPR rates are restricted to s=1; use "
            "epr_rate_noiseless_phase for general s"
        )
    if dim is None:
        dim = _default_dim(tx)

    def compute(d: int) -> tuple[float, float, float]:
        symbols = [ChannelParams(z, n_th) for z in cell.reflectances]
        blocks = [_symbol_blocks(tx, params, d, idler_attenuation) for params in symbols]
        mixture = sum(p * b for p, b in zip(cell.probs, blocks))
        entropies, deficits = block_entropies(np.stack(blocks + [mixture]))
        cross = max(abs(ent - _symbol_gaussian_entropy(tx, params, idler_attenuation))
                    for ent, params in zip(entropies, symbols))
        cond = float(np.dot(cell.probs, entropies[:-1]))
        return float(entropies[-1]) - cond, float(cross), float(max(deficits[:-1]))

    rate, cross, deficit = compute(dim)
    if check_convergence:
        rate_hi, _, _ = compute(dim + 10)
        if abs(rate_hi - rate) > 1e-5:
            raise ConvergenceError(
                f"rate changed by {abs(rate_hi - rate):.3e} when dim "
                f"increased from {dim} to {dim + 10}"
            )
    if rate < -RATE_FLOOR:
        raise ConvergenceError(f"computed rate {rate:.3e} is negative")
    bound = shannon_entropy_d(cell.probs[1:])
    if rate > bound + RATE_FLOOR:
        raise ConvergenceError(f"rate {rate} exceeds ensemble entropy {bound}")
    return RateResult(max(rate, 0.0) + 0.0, dim, deficit, "fock_numeric", cross)  # no -0.0


# ---------------------------------------------------------------------------
# Closed forms and faint-signal approximations (binary cells)
# ---------------------------------------------------------------------------

def _require_binary(cell: MarginalCell) -> tuple[float, float, complex, complex]:
    if cell.d != 2:
        raise ValueError("analytic formulas require a binary cell")
    return cell.probs[0], cell.probs[1], cell.reflectances[0], cell.reflectances[1]


def coherent_capacity_noiseless(cell: MarginalCell, n: float) -> float:
    """Noiseless optimal coherent-probe rate for a binary cell."""
    p0, p1, z0, z1 = _require_binary(cell)
    if n < 0:
        raise ValueError("n must be >= 0")
    dz2 = abs(z1 - z0) ** 2
    arg = 1.0 - 4.0 * p0 * p1 * (1.0 - math.exp(-n * dz2))
    return _h2(0.5 - 0.5 * math.sqrt(max(arg, 0.0)))


def coherent_capacity_faint(cell: MarginalCell, n: float, n_th: float,
                            leading_only: bool = False) -> float:
    """Coherent-probe rate in the faint-signal regime n, n_th << 1."""
    p0, p1, z0, z1 = _require_binary(cell)
    x = p0 * p1 * n * abs(z1 - z0) ** 2
    if leading_only:
        lead = n_th * math.log2(n_th) if n_th > 0 else 0.0
        total = x + n_th
        return lead - (total * math.log2(total) if total > 0 else 0.0)
    return _h2(x + n_th) - _h2(n_th)


def epr_rate_noiseless_phase(p0: float, p1: float, theta: float, n: float,
                             s: int = 1) -> float:
    """Noiseless EPR rate for phase encoding |z_0| = |z_1| = 1."""
    if n < 0 or s < 1:
        raise ValueError("need n >= 0 and s >= 1")
    q = abs(1.0 + (n / s) * (1.0 - np.exp(1j * theta))) ** (-2 * s)
    arg = 1.0 - 4.0 * p0 * p1 * (1.0 - q)
    return _h2(0.5 - 0.5 * math.sqrt(max(arg, 0.0)))


def epr_rate_faint(cell: MarginalCell, n: float, n_th: float,
                   leading_only: bool = False) -> float:
    """EPR-probe rate in the faint-signal regime (s-independent)."""
    p0, p1, z0, z1 = _require_binary(cell)
    x = p0 * p1 * n * abs(z1 - z0) ** 2
    if leading_only:
        return -x * math.log2(x) if x > 0 else 0.0
    mean_z2 = p0 * abs(z0) ** 2 + p1 * abs(z1) ** 2
    top = [x, (1.0 - mean_z2) * n, n_th]
    if sum(top) > 1.0:
        raise ValueError("faint-signal arguments exceed 1; out of regime")
    rate = shannon_entropy_d(top)
    for p, z in ((p0, z0), (p1, z1)):
        rate -= p * shannon_entropy_d([(1.0 - abs(z) ** 2) * n, n_th])
    return rate


def gains(cell: MarginalCell, n: float, n_th: float,
          dim: int = DEFAULT_DIM_PER_MODE) -> GainResult:
    """Absolute and relative EPR-over-coherent information gains."""
    coh = holevo_rate(cell, TransmitterSpec.coherent(n), n_th, dim)
    epr = holevo_rate(cell, TransmitterSpec.epr(n), n_th, dim)
    absolute = epr.rate_bits - coh.rate_bits
    relative = absolute / coh.rate_bits if coh.rate_bits >= 1e-12 else None
    return GainResult(absolute, relative, coh.rate_bits, epr.rate_bits,
                      max(coh.trace_deficit, epr.trace_deficit),
                      max(coh.cross_check_error, epr.cross_check_error))


def concavity_scan(cell: MarginalCell, n_grid: Sequence[float], n_th: float,
                   dim: int = DEFAULT_DIM_SINGLE) -> ConcavityReport:
    """Second-derivative estimates of n -> coherent Holevo rate.

    Positive values would contradict concavity; the report carries the
    maximum and its location as numerical evidence only.
    """
    grid = np.asarray(n_grid, dtype=float)
    if grid.size < 3 or np.any(np.diff(grid) <= 0):
        raise ValueError("n_grid must be strictly increasing with >= 3 points")
    rates = np.array([
        holevo_rate(cell, TransmitterSpec.coherent(n), n_th, dim).rate_bits
        for n in grid
    ])
    h, slope = np.diff(grid), np.diff(rates)
    second = 2.0 * (slope[1:] / h[1:] - slope[:-1] / h[:-1]) / (h[:-1] + h[1:])
    k = int(np.argmax(second))
    return ConcavityReport(grid, rates, second, float(second[k]), float(grid[k + 1]))


@lru_cache(maxsize=256)
def rate_after_attenuation(cell: MarginalCell, tx: TransmitterSpec, n_th: float,
                           tau: float, dim: int | None = None, *,
                           attenuate_idler: bool = False) -> RateResult:
    """Holevo rate with every cell channel composed with a tau-attenuator.

    Memoised per process: bound sweeps meet the same tau (tau_max = 1 at
    d = ell) at many ratios and compute each rate once.
    """
    composed = MarginalCell(
        cell.probs,
        tuple(compose_with_attenuator(ChannelParams(z, n_th), tau).z
              for z in cell.reflectances),
    )
    return holevo_rate(composed, tx, n_th * tau * tau, dim,
                       idler_attenuation=tau if attenuate_idler else 1.0)
