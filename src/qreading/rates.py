"""Transmitters and Holevo readout rates: exact Fock-basis numerics,
closed-form noiseless expressions, faint-signal approximations, information
gains, the ``rate`` table's rows (:func:`rate_rows`), and the concavity scan
backing the classical-optimality conjecture.

Coherent numerics use the single-mode optimum (one signal mode, no idler): each
output is a displaced thermal state, built from its displacement centred on the cell.
EPR numerics use one two-mode squeezed signal/idler pair, whose outputs are
block-diagonal in n_S - n_R and are built and diagonalised as d blocks of size d, one
per (n_S - n_R) mod d. The noiseless phase rate of s such pairs is in closed form:
:func:`epr_rate_noiseless_phase`.
:func:`bounding_rates` is the one entry into these numerics: it composes the cell channel
with each tau-attenuator of a sweep and gives all of them one batched Fock build and
eigensolve. :func:`holevo_rate` is its tau = 1 case. A Fock output's entropy comes
from the spectra of its diagonal blocks (:func:`block_entropies`), each Gaussian one's
from g(n) (:func:`g_thermal`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .channels import MarginalCell, coherent_cell_output, epr_amplitudes, epr_output_blocks
from .errors import ConvergenceError, StateValidationError

EIGENVALUE_FLOOR = 1e-14
NEGATIVITY_TOL = 1e-10
DEFAULT_DIM_SINGLE = 60
DEFAULT_DIM_PER_MODE = 30
RATE_FLOOR = 1e-9
_MAX_STACK_TERMS = 1 << 19  # matrix entries in one chunk's stack of outputs and mixtures


def _check_photons(name: str, x: float) -> None:
    """Raise ValueError unless the photon number ``x`` is finite and >= 0 (NaN fails)."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must be >= 0" if x < 0 else f"{name} must be finite")


@dataclass(frozen=True)
class TransmitterSpec:
    """Probe description: kind and mean photon number per cell. An EPR probe
    is its Schmidt coefficients, channels.epr_amplitudes(n, d); a coherent
    one is built from its displacements (channels.coherent_cell_output)."""

    kind: Literal["coherent", "epr"]
    n: float

    def __post_init__(self) -> None:
        _check_photons("mean photon number n", self.n)
        if self.kind not in ("coherent", "epr"):
            raise ValueError(f"unknown transmitter kind {self.kind!r}")

    @classmethod
    def coherent(cls, n: float) -> "TransmitterSpec":
        return cls("coherent", n)

    @classmethod
    def epr(cls, n: float) -> "TransmitterSpec":
        return cls("epr", n)


@dataclass(frozen=True)
class RateResult:
    rate_bits: float
    truncation_dim: int
    trace_deficit: float
    cross_check_error: float


@dataclass(frozen=True)
class GainResult:
    """EPR-over-coherent gains; the fields are the gain-map columns, in order."""

    coherent_bits: float
    epr_bits: float
    gain_absolute: float
    gain_relative: float | None
    trace_deficit: float  # worst of the two rates
    cross_check_bits: float  # worst of the two rates


@dataclass(frozen=True)
class RateRow:
    """One rate of a transmitter; the fields are the rate columns after the inputs, in order."""

    transmitter: str
    method: str  # "fock_numeric", or "analytic_noiseless" for a closed form
    dim: int
    rate_bits: float
    trace_deficit: float  # 0 on a closed form
    cross_check_bits: float  # 0 on a closed form


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


def g_thermal(nbar: float) -> float:
    """Entropy in bits of a thermal state with mean photon number ``nbar``:
    (n+1) log(n+1) - n log n, summed as log1p(n) + n log(1 + 1/n) so no large
    terms cancel; below n = 1 that log is log1p(n) - log(n) (1/n overflows)."""
    if nbar <= 0.0:
        return 0.0
    tail = math.log1p(1.0 / nbar) if nbar >= 1.0 else math.log1p(nbar) - math.log(nbar)
    return (math.log1p(nbar) + nbar * tail) / math.log(2.0)


def _check_states(blocks: np.ndarray) -> np.ndarray:
    """Each state's trace in a (..., count, b, b) block stack, checked to lie in (0, 1]."""
    tr = np.trace(blocks, axis1=-2, axis2=-1).real.sum(axis=-1)
    bad = tr[~((tr > 0.0) & (tr <= 1.0 + 1e-10))]
    if bad.size:
        raise StateValidationError(f"trace {bad[0]} outside (0, 1]")
    return tr


def block_entropies(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies in bits and trace deficits of states given as (..., count,
    b, b) stacks of diagonal blocks, zero-padded to one size b. The builders
    return exactly Hermitian blocks (``eigvalsh`` reads one triangle); each
    state's trace is checked to lie in (0, 1]. Its spectrum is its blocks'
    spectra, so one batched ``eigvalsh`` serves every state. A pure state reads +0.0."""
    tr = _check_states(blocks)
    lam = np.linalg.eigvalsh(blocks).reshape(blocks.shape[:-3] + (-1,))
    if lam.min() < -NEGATIVITY_TOL:
        raise StateValidationError(f"eigenvalue {lam.min():.3e} below negativity floor")
    lam = np.where(lam > EIGENVALUE_FLOOR, lam, 1.0)
    return np.maximum(0.0, -np.sum(lam * np.log2(lam), axis=-1)) + 0.0, np.maximum(0.0, 1.0 - tr)


def gaussian_output_entropy(tx: TransmitterSpec, z: complex, n_th: float,
                            idler_attenuation: float) -> float:
    """Exact entropy in bits of one symbol's Gaussian output, from its symplectic spectrum.

    A coherent output has covariance (1 + 2 n_th) I, so its entropy is g(n_th).
    An EPR output is a two-mode state in standard form with variances a
    (signal), b (idler) and correlation c; with e = |z|^2 and T = tau^2 its
    eigenvalues nu+- have sum sqrt((b - a)^2 + 4 nu+ nu-) and product
    ab - c^2 = 1 + 2n(e(1 - T) + T(1 - e)) + 2 n_th b, a sum of terms >= 0
    (Serafini, Illuminati and De Siena, J. Phys. B 37, L21 (2004)). The
    smaller one is the product over the larger, so nothing cancels and a pure
    output reads exactly 0; the sum is a hypot, so no square overflows before
    n_th nears the float64 limit.
    """
    if tx.kind == "coherent":
        return g_thermal(n_th)
    e, t = abs(z) ** 2, idler_attenuation ** 2
    b = 1.0 + 2.0 * tx.n * t
    diff = 2.0 * tx.n * (t - e) - 2.0 * n_th
    prod = 1.0 + 2.0 * tx.n * (e * (1.0 - t) + t * (1.0 - e)) + 2.0 * n_th * b
    big = 0.5 * (math.hypot(diff, 2.0 * math.sqrt(prod)) + abs(diff))
    return g_thermal((big - 1.0) / 2.0) + g_thermal(max(prod / big - 1.0, 0.0) / 2.0)


def holevo_rate(cell: MarginalCell, tx: TransmitterSpec, n_th: float = 0.0,
                dim: int | None = None) -> RateResult:
    """Holevo information of the cell ensemble for the given transmitter: the
    tau = 1 case of :func:`bounding_rates`."""
    return bounding_rates(cell, tx, n_th, [1.0], dim)[0]


def bounding_rates(cell: MarginalCell, tx: TransmitterSpec, n_th: float,
                   taus: Sequence[float], dim: int | None = None, *,
                   attenuate_idler: bool = False) -> list[RateResult]:
    """Holevo rate of the cell channel followed by a tau-attenuator, for each tau.

    The composed channel is the cell channel at z -> tau z, n_th -> tau^2 n_th;
    ``attenuate_idler`` attenuates the retained idler by tau as well. All the
    taus' outputs and mixtures share one batched Fock build and block_entropies
    call per chunk (for EPR, blocks of n_S - n_R), whose stack holds at most
    _MAX_STACK_TERMS matrix entries. Each symbol entropy is cross-checked
    against the closed-form Gaussian value of :func:`gaussian_output_entropy`,
    with the worst deviation reported.
    """
    _check_photons("n_th", n_th)
    taus = [float(tau) for tau in taus]
    if not all(0.0 <= tau <= 1.0 for tau in taus):
        raise ValueError("tau must lie in [0, 1]")
    reflectances = [[tau * z for z in cell.reflectances] for tau in taus]
    noise = [n_th * tau * tau for tau in taus]
    idler_loss = [tau if attenuate_idler else 1.0 for tau in taus]
    if dim is None:
        dim = DEFAULT_DIM_SINGLE if tx.kind == "coherent" else DEFAULT_DIM_PER_MODE
    if dim < 2:  # before the chunk size divides by dim
        raise ValueError("dim must be >= 2")
    schmidt = epr_amplitudes(tx.n, dim) if tx.kind == "epr" else None
    probs, bound = cell.probs, shannon_entropy_d(cell.probs[1:])
    block = dim ** (2 if tx.kind == "coherent" else 3)  # terms of one state's blocks
    step = max(1, _MAX_STACK_TERMS // ((len(probs) + 1) * block))
    results = []
    for start in range(0, len(taus), step):
        rows = slice(start, start + step)
        zs, nths, idlers = reflectances[rows], noise[rows], idler_loss[rows]
        if tx.kind == "coherent":
            outputs = coherent_cell_output(tx.n, zs, nths, dim)[:, :, None]
        else:
            outputs = epr_output_blocks(schmidt, zs, nths, idlers)
        stack = np.empty((len(zs), len(probs) + 1) + outputs.shape[2:], outputs.dtype)
        stack[:, :-1] = outputs
        stack[:, -1] = sum(p * outputs[:, u] for u, p in enumerate(probs))  # the mixture
        entropies, deficits = (x.reshape(len(zs), -1) for x in
                               block_entropies(stack.reshape((-1,) + stack.shape[2:])))
        for row, nth, idler, ent, deficit in zip(zs, nths, idlers, entropies, deficits):
            errs = [abs(h - gaussian_output_entropy(tx, z, nth, idler)) for h, z in zip(ent, row)]
            rate = float(ent[-1]) - float(np.dot(probs, ent[:-1]))
            # NaN passes both range checks below, and max() drops it unless it comes first
            if not all(map(math.isfinite, (rate, *errs, *deficit))):
                raise ConvergenceError(f"non-finite result at n_th = {nth:.3g}: rate {rate}, "
                                       f"cross-check errors {[float(e) for e in errs]}")
            cross = float(max(errs))
            if rate < -RATE_FLOOR:
                raise ConvergenceError(f"computed rate {rate:.3e} is negative")
            if rate > bound + RATE_FLOOR:
                raise ConvergenceError(f"rate {rate} exceeds ensemble entropy {bound}")
            results.append(RateResult(max(rate, 0.0), dim, float(max(deficit[:-1])), cross))
    return results


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


def rate_rows(cell: MarginalCell, n: float, n_th: float = 0.0, dim: int | None = None,
              kinds: Sequence[str] = ("coherent", "epr")) -> list[RateRow]:
    """The rate table of one cell: per transmitter kind, its Fock rate, then at
    n_th = 0 its noiseless closed form where one exists (coherent: any binary
    cell; EPR: a binary cell with |z0| = |z1| = 1, within 1e-12)."""
    rows = []
    for kind in kinds:
        res = holevo_rate(cell, TransmitterSpec(kind, n), n_th, dim)
        rows.append(RateRow(kind, "fock_numeric", res.truncation_dim, res.rate_bits,
                            res.trace_deficit, res.cross_check_error))
        if n_th != 0.0 or cell.d != 2:
            continue
        (p0, p1), (z0, z1) = cell.probs, cell.reflectances
        if kind == "coherent":
            analytic = coherent_capacity_noiseless(cell, n)
        elif abs(abs(z0) - 1.0) < 1e-12 and abs(abs(z1) - 1.0) < 1e-12:
            analytic = epr_rate_noiseless_phase(p0, p1, cmath.phase(z1) - cmath.phase(z0), n)
        else:
            continue
        rows.append(RateRow(kind, "analytic_noiseless", res.truncation_dim, analytic, 0.0, 0.0))
    return rows


def gains(cell: MarginalCell, n: float, n_th: float,
          dim: int = DEFAULT_DIM_PER_MODE) -> GainResult:
    """Absolute and relative EPR-over-coherent information gains."""
    coh = holevo_rate(cell, TransmitterSpec.coherent(n), n_th, dim)
    epr = holevo_rate(cell, TransmitterSpec.epr(n), n_th, dim)
    absolute = epr.rate_bits - coh.rate_bits
    relative = absolute / coh.rate_bits if coh.rate_bits >= 1e-12 else None
    return GainResult(coh.rate_bits, epr.rate_bits, absolute, relative,
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
