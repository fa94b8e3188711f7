"""Holevo readout rates: exact Fock-basis numerics, closed-form noiseless
expressions, faint-signal approximations, information gains, and the
concavity scan backing the classical-optimality conjecture.

Coherent numerics use the single-mode optimum (s=1, r=0); EPR numerics use a
single two-mode squeezed copy (s=1, r=1). The general-s noiseless phase rate
is available in closed form via :func:`epr_rate_noiseless_phase`.

Thermal noise is computed exactly, so the ``quad_order`` keyword of the
numeric functions is deprecated and ignored.
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
    apply_loss,
    compose_with_attenuator,
    gaussian_channel_action,
    pure_state_cell_output,
)
from .errors import ConvergenceError
from .states import (
    DEFAULT_DIM_PER_MODE,
    DEFAULT_DIM_SINGLE,
    FockDensityMatrix,
    TransmitterSpec,
    symplectic_entropy,
    von_neumann_entropy,
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
    return float(-np.sum(probs * np.log2(probs)))


def _h2(q: float) -> float:
    return shannon_entropy_d([q])


def _default_dim(tx: TransmitterSpec) -> int:
    return DEFAULT_DIM_SINGLE if tx.kind == "coherent" else DEFAULT_DIM_PER_MODE


def _symbol_output(tx: TransmitterSpec, params: ChannelParams, dim: int,
                   idler_attenuation: float) -> FockDensityMatrix:
    vec = tx.fock_vector(dim)
    dims = tx.fock_dims(dim)
    rho = pure_state_cell_output(vec, dims, params, mode=tx.signal_modes[0])
    if idler_attenuation < 1.0:
        for mode in tx.idler_modes:
            rho = apply_loss(rho, idler_attenuation, mode)
    return rho


def _symbol_gaussian_entropy(tx: TransmitterSpec, params: ChannelParams,
                             idler_attenuation: float) -> float:
    state = gaussian_channel_action(tx.gaussian(), params, mode=0)
    if idler_attenuation < 1.0:
        for mode in range(1, state.mode_count):
            state = gaussian_channel_action(
                state, ChannelParams(idler_attenuation, 0.0), mode)
    return symplectic_entropy(state)


def holevo_rate(cell: MarginalCell, tx: TransmitterSpec, n_th: float = 0.0,
                dim: int | None = None, quad_order: int | None = None,
                idler_attenuation: float = 1.0,
                check_convergence: bool = False) -> RateResult:
    """Holevo information of the cell ensemble for the given transmitter.

    Mixture entropy is computed in the Fock basis; per-symbol conditional
    entropies are computed in the Fock basis and cross-checked against the
    exact Gaussian (symplectic) values, with the worst deviation reported.
    """
    if tx.kind == "epr" and tx.s != 1:
        raise NotImplementedError(
            "numeric EPR rates are restricted to s=1; use "
            "epr_rate_noiseless_phase for general s"
        )
    if dim is None:
        dim = _default_dim(tx)

    def compute(d: int) -> tuple[float, float, float]:
        mixture = None
        cond = 0.0
        cross = 0.0
        deficit = 0.0
        for p, z in zip(cell.probs, cell.reflectances):
            params = ChannelParams(z, n_th)
            rho = _symbol_output(tx, params, d, idler_attenuation)
            deficit = max(deficit, rho.trace_deficit)
            s_fock = von_neumann_entropy(rho)
            s_gauss = _symbol_gaussian_entropy(tx, params, idler_attenuation)
            cross = max(cross, abs(s_fock - s_gauss))
            cond += p * s_fock
            mixture = p * rho.data if mixture is None else mixture + p * rho.data
        s_mix = von_neumann_entropy(FockDensityMatrix(tx.fock_dims(d), mixture))
        return s_mix - cond, cross, deficit

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
    return RateResult(max(rate, 0.0), dim, deficit, "fock_numeric", cross)


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
          dim: int = DEFAULT_DIM_PER_MODE,
          quad_order: int | None = None) -> GainResult:
    """Absolute and relative EPR-over-coherent information gains."""
    coh = holevo_rate(cell, TransmitterSpec.coherent(n), n_th, dim)
    epr = holevo_rate(cell, TransmitterSpec.epr(n), n_th, dim)
    absolute = epr.rate_bits - coh.rate_bits
    relative = absolute / coh.rate_bits if coh.rate_bits >= 1e-12 else None
    return GainResult(absolute, relative, coh.rate_bits, epr.rate_bits,
                      max(coh.trace_deficit, epr.trace_deficit),
                      max(coh.cross_check_error, epr.cross_check_error))


def concavity_scan(cell: MarginalCell, n_grid: Sequence[float], n_th: float,
                   dim: int = DEFAULT_DIM_SINGLE,
                   quad_order: int | None = None) -> ConcavityReport:
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
    second = np.empty(grid.size - 2)
    for i in range(1, grid.size - 1):
        h1 = grid[i] - grid[i - 1]
        h2 = grid[i + 1] - grid[i]
        second[i - 1] = 2.0 * (
            (rates[i + 1] - rates[i]) / h2 - (rates[i] - rates[i - 1]) / h1
        ) / (h1 + h2)
    k = int(np.argmax(second))
    return ConcavityReport(grid, rates, second, float(second[k]), float(grid[k + 1]))


@lru_cache(maxsize=256)
def rate_after_attenuation(cell: MarginalCell, tx: TransmitterSpec, n_th: float,
                           tau: float, dim: int | None = None,
                           quad_order: int | None = None,
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
