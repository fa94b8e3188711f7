"""Near-field diffraction of the collection optics: the Fourier symbol of
the Toeplitz Gram matrix M M^dag of the cell overlaps M, the extreme
attenuation amplitudes, and the coherent and EPR reading-rate bounds they
give (one batched rate call per transmitter for a whole sweep of geometries).
The finite Gram matrix itself is a test oracle: its spectrum lies between
the symbol's extrema (Szego), which are all the bounds need.

Amplitude convention: the eigenvalues of M M^dag are the *squared*
attenuations tau^2; the amplitudes tau in [0, 1] are the factors entering
the bounding channels, so the composed cell channel stays physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import MarginalCell
from .errors import ConvergenceError
from .rates import TransmitterSpec, bounding_rates

_BOUNDARY_TOL = 1e-12
_MAX_TERMS = 1 << 18  # (points x shifts) entries per aliased-sum chunk
GRID_SIZE = 2049  # uniform symbol samples over [0, pi], where f is even, before the polish
# B_2 .. B_14: for x >= 12 the first omitted term, B_16 / x^17, is < 4e-17 of psi'(x)
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


@dataclass(frozen=True)
class DiffractionGeometry:
    """Collection optics over a linear cell array, as the two ratios that
    enter the Toeplitz symbol: cell spacing over Rayleigh length, ell / x_R,
    and cell width over spacing, d / ell.
    """

    ell_over_xr: float
    d_over_ell: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.ell_over_xr < math.inf and 0 < self.d_over_ell <= 1):
            raise ValueError("need ell_over_xr > 0 and 0 < d_over_ell <= 1")


@dataclass(frozen=True)
class RateBounds:
    """One geometry's attenuation extrema and the coherent and EPR rate
    bounds they give, in bits; the trust fields are the worst of the four rates."""

    tau_min: float
    tau_max: float
    coherent_lower: float
    coherent_upper: float
    epr_lower: float
    epr_upper: float
    trace_deficit: float
    cross_check_bits: float


def _sinc(y: np.ndarray | float) -> np.ndarray | float:
    """sin(y)/y with sinc(0) = 1 (unnormalized argument)."""
    return np.sinc(np.asarray(y) / math.pi)


def toeplitz_symbol(geom: DiffractionGeometry, z: float | np.ndarray) -> float | np.ndarray:
    """Fourier symbol f(z) of the Gram matrix, z in [0, 2pi], scalar or array.

    An array z gives an array of its shape; a float gives a float, computed
    as a one-point call of the same array code.
    Aliased-sinc^2 sum over integer shifts m with |z/(2pi) - m| <= ell/x_R.
    Terms exactly at the window boundary carry weight 1/2 (the midpoint
    value of the underlying Fourier series at its jump).
    """
    ratio = geom.ell_over_xr
    dl = geom.d_over_ell
    t = np.asarray(z, dtype=float) / (2.0 * math.pi)
    if dl == 1.0:
        f = _symbol_unit_fill(t, ratio)
    else:
        # one (points x shifts) array per chunk; chunks bound its memory
        window = 2 * math.ceil(ratio) + 8
        if window > _MAX_TERMS:
            raise ValueError(f"ell/x_R = {ratio:g} is above {(_MAX_TERMS - 8) // 2}, "
                             "the largest the d < ell symbol sums")
        flat, f = t.ravel(), np.empty(t.shape)
        step = _MAX_TERMS // window
        for i in range(0, flat.size, step):
            tc = flat[i:i + step]
            m = np.arange(math.floor(tc.min() - ratio) - 1, math.ceil(tc.max() + ratio) + 2)
            diff = tc[:, None] - m
            dist = np.abs(diff)
            weight = (np.where(np.abs(dist - ratio) <= _BOUNDARY_TOL, 0.5, 1.0)
                      * (dist <= ratio + _BOUNDARY_TOL))
            f.flat[i:i + step] = np.sum(weight * (dl * _sinc(math.pi * diff * dl) ** 2), axis=1)
    return float(f) if np.ndim(z) == 0 else f


def _trigamma(x: np.ndarray) -> np.ndarray:
    """psi'(x) for x > 0: psi'(x) = psi'(x + 1) + 1/x^2 twelve times, then the
    asymptotic series 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) (Abramowitz &
    Stegun 6.4.6, 6.4.12); within 8 ulp of scipy's polygamma(1, x)."""
    near = np.zeros(np.shape(x))
    for _ in range(12):
        near += 1.0 / x ** 2
        x = x + 1.0
    u, series = 1.0 / x ** 2, 0.0
    for b in _BERNOULLI[::-1]:
        series = series * u + b
    return near + (1.0 + (0.5 + series / x) / x) / x


def _symbol_unit_fill(t: np.ndarray, ratio: float) -> np.ndarray:
    """Symbol for d = ell via the trigamma tail sum (O(1) in the ratio).

    Uses sum_m sinc^2(pi(t-m)) = 1 and sinc^2(pi x) = sin^2(pi t)/(pi x)^2,
    so the out-of-window tail telescopes into trigamma values.
    """
    # the symbol reads 1.0 to the last bit from ratio ~1e17 on; the cap keeps x^2 in
    # _trigamma and pi (t - m) at the window edges finite
    ratio = min(ratio, 1e150)
    hi_edge, lo_edge = t + ratio, t - ratio
    hi_on = np.abs(hi_edge - np.round(hi_edge)) <= _BOUNDARY_TOL
    lo_on = np.abs(lo_edge - np.round(lo_edge)) <= _BOUNDARY_TOL
    m_hi = np.where(hi_on, np.round(hi_edge), np.floor(hi_edge + _BOUNDARY_TOL))
    m_lo = np.where(lo_on, np.round(lo_edge), np.ceil(lo_edge - _BOUNDARY_TOL))
    correction = (np.where(hi_on, 0.5 * _sinc(math.pi * (t - m_hi)) ** 2, 0.0)
                  + np.where(lo_on, 0.5 * _sinc(math.pi * (t - m_lo)) ** 2, 0.0))
    sin2 = np.sin(math.pi * t) ** 2
    tails = _trigamma(np.stack(((m_hi + 1) - t, t - (m_lo - 1)))).sum(axis=0)
    f = np.maximum(0.0, 1.0 - sin2 / math.pi ** 2 * tails - correction)
    return np.where(m_lo > m_hi, 0.0, f)


def _zoom(func, lo: float, hi: float) -> float:
    """Least value of ``func`` sampled on [lo, hi]: 33 points per array call,
    the bracket narrowed to the best point's neighbours until 1e-12 wide."""
    best = math.inf
    while hi - lo > 1e-12:
        z = np.linspace(lo, hi, 33)
        f = func(z)
        i = int(np.argmin(f))
        best = min(best, float(f[i]))
        lo, hi = z[max(i - 1, 0)], z[min(i + 1, 32)]
    return best


def tau_extrema(geom: DiffractionGeometry) -> tuple[float, float]:
    """Extreme amplitude attenuations (tau_min, tau_max): the square roots of
    the symbol's essential extrema, found on a grid and at the window edges.

    The symbol jumps at each window edge t = m +- ell/x_R, where a term
    enters or leaves the window. Its on-edge value holds that term at weight
    1/2, so the limits on the two sides are that value plus and minus half
    the term; they are equal where t + ell/x_R and t - ell/x_R are both
    integers, as one term enters while another leaves. A limit that beats
    every sampled value is the extremum, and no point attains it.

    M M^dag is real symmetric Toeplitz, so f is even, f(z) = f(2pi - z), and one
    symbol call samples [0, pi]: a grid and each edge straddled at +-1e-9 (the
    edges t = m +- ell/x_R mirror about t = 1/2). A candidate at z = 0 or pi takes
    no polish: where f is smooth it is stationary; where an edge sits on it and f
    moves away in the sought direction, the straddled edges beat it and are polished.
    """
    ratio, dl = geom.ell_over_xr, geom.d_over_ell
    edges = np.concatenate((  # as float: past int64 the aranges hold Python ints
        np.arange(math.floor(ratio) - 1, math.ceil(ratio) + 2) - ratio,      # lower edges
        np.arange(-math.ceil(ratio) - 1, -math.floor(ratio) + 2) + ratio)).astype(float)
    extra = (2.0 * math.pi * (edges[:, None] + np.array([-1e-9, 0.0, 1e-9]))).ravel()
    extra = extra[(extra >= 0.0) & (extra <= math.pi)]
    cand = np.concatenate((extra, np.linspace(0.0, math.pi, GRID_SIZE)))
    vals = toeplitz_symbol(geom, cand)
    # an edge's one-sided limits are its value +- half the boundary term (from 2^53 on
    # the ratio is an even integer, every edge a double one and the term unused); a grid
    # sample within _BOUNDARY_TOL of an edge has none, as they would extend a piece past it
    t = extra / (2.0 * math.pi)
    hi_on, lo_on = (np.abs(x - np.round(x)) <= _BOUNDARY_TOL for x in (t + ratio, t - ratio))
    half = np.where(hi_on != lo_on, 0.5 * dl * _sinc(math.pi * dl * min(ratio, 2.0 ** 53)) ** 2, 0)
    limits = np.concatenate((vals[:extra.size] - half, vals[:extra.size] + half))
    order = np.argsort(cand, kind="stable")
    cand, vals = cand[order], vals[order]

    def least(sign: float) -> float:
        idx = int(np.argmin(sign * vals))
        best, limit = sign * vals[idx], float(np.min(sign * limits))
        if limit < best:
            return limit
        lo, hi = cand[max(idx - 1, 0)], cand[min(idx + 1, cand.size - 1)]
        if hi - lo <= 0 or cand[idx] / (2.0 * math.pi) in (0.0, 0.5):
            return best
        return min(best, _zoom(lambda zz: sign * toeplitz_symbol(geom, zz), lo, hi))

    f_min = min(max(least(1.0), 0.0), 1.0)
    f_max = min(max(-least(-1.0), 0.0), 1.0)
    return math.sqrt(f_min), math.sqrt(f_max)


def rate_bounds(cell: MarginalCell, n: float, geoms: Sequence[DiffractionGeometry],
                n_th: float = 0.0, dim: int | None = None, *,
                attenuate_idler: bool = False) -> list[RateBounds]:
    """Coherent and EPR reading-rate bounds of each geometry at probe energy n,
    from the bounding channels at tau_min / tau_max: one tau search per
    geometry, then one :func:`bounding_rates` call per transmitter over the
    distinct taus of the whole sweep. ``attenuate_idler`` extends the
    attenuation to the retained ancilla modes (both-sides variant).
    """
    txs = (TransmitterSpec.coherent(n), TransmitterSpec.epr(n))  # checks n before the search
    extrema = [tau_extrema(geom) for geom in geoms]
    taus = list(dict.fromkeys(tau for pair in extrema for tau in pair))
    results = [[] for _ in extrema]  # per geometry: coherent, then EPR (lower, upper)
    for tx in txs:
        rates = dict(zip(taus, bounding_rates(cell, tx, n_th, taus, dim,
                                              attenuate_idler=attenuate_idler)))
        for row, (tau_min, tau_max) in zip(results, extrema):
            lower, upper = rates[tau_min], rates[tau_max]
            if lower.rate_bits > upper.rate_bits + 1e-9:
                raise ConvergenceError(
                    f"lower bound {lower.rate_bits} exceeds upper bound {upper.rate_bits}"
                )
            row += (lower, upper)
    return [RateBounds(*pair, *(r.rate_bits for r in row), max(r.trace_deficit for r in row),
                       max(r.cross_check_error for r in row))
            for pair, row in zip(extrema, results)]
