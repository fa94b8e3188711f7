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
from .rates import TransmitterSpec, _check_photons, bounding_rates

_BOUNDARY_TOL = 1e-12
_MAX_TERMS = 1 << 18  # (points x shifts) entries per aliased-sum chunk
_CUTS = np.arange(1, 17) / 17  # where a round cuts a segment (a piece in the first) into 17
_GAP = 2.0 ** -53  # relative gap the search proves no point beats its extremum by
# B_2 .. B_14: for x >= 12 the first omitted term, B_16 / x^17, is < 4e-17 of psi'(x)
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


@dataclass(frozen=True)
class DiffractionGeometry:
    """Collection optics over a linear cell array, as the two ratios that
    enter the Toeplitz symbol: cell spacing over Rayleigh length, ell / x_R,
    above the 1e-12 window-edge tolerance, and cell width over spacing, d / ell.
    """

    ell_over_xr: float
    d_over_ell: float = 1.0

    def __post_init__(self) -> None:
        if not (_BOUNDARY_TOL < self.ell_over_xr < math.inf and 0 < self.d_over_ell <= 1):
            raise ValueError(f"need ell_over_xr > {_BOUNDARY_TOL:g} and 0 < d_over_ell <= 1")


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
    t = np.asarray(z, dtype=float) / (2.0 * math.pi)
    f = _symbol(t.ravel(), np.full(t.size, geom.ell_over_xr), np.full(t.size, geom.d_over_ell))
    return float(f[0]) if np.ndim(z) == 0 else f.reshape(t.shape)


def _symbol(t: np.ndarray, ratio: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """f at the points t = z / 2pi, point i in the geometry (ratio[i], dl[i]). A d < ell
    point sums the terms on each side from the farthest in, so its value does not
    depend on the other points of the call."""
    unit = dl == 1.0
    if unit.all():
        return _symbol_unit_fill(t, ratio)
    if unit.any():
        f = np.empty(t.shape)
        f[unit] = _symbol_unit_fill(t[unit], ratio[unit])
        f[~unit] = _symbol(t[~unit], ratio[~unit], dl[~unit])
        return f
    # one (2, shifts, points) array per chunk; chunks bound its memory
    widest = math.ceil(ratio.max())
    if 2 * widest + 8 > _MAX_TERMS:
        raise ValueError(f"ell/x_R = {ratio.max():g} is above {(_MAX_TERMS - 8) // 2}, "
                         "the largest the d < ell symbol sums")
    far = np.arange(widest, -1, -1.0)[:, None]  # shift index, far to near
    step, sums = _MAX_TERMS // (2 * widest + 8), []
    for i in range(0, t.size, step):
        tc, rc, dc = t[i:i + step], ratio[i:i + step], dl[i:i + step]
        dist = np.stack((tc - (np.floor(tc) - far), (np.floor(tc) + 1.0 + far) - tc))
        weight = np.where(np.abs(dist - rc) <= _BOUNDARY_TOL, 0.5, 1.0) * (dist <= rc + _BOUNDARY_TOL)
        sums.append(np.sum(weight * (dc * _sinc(math.pi * dist * dc) ** 2), axis=1).sum(axis=0))
    return np.concatenate(sums)


def _trigamma(x: np.ndarray) -> np.ndarray:
    """psi'(x) for x > 0: psi'(x) = psi'(x + 1) + 1/x^2 twelve times, then the
    asymptotic series 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) (Abramowitz &
    Stegun 6.4.6, 6.4.12); within 8 ulp of scipy's polygamma(1, x)."""
    near, x = 1.0 / x ** 2, x + 1.0
    for _ in range(11):
        near += 1.0 / x ** 2
        x += 1.0
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
    ratio = np.minimum(ratio, 1e150)
    hi_edge, lo_edge = t + ratio, t - ratio
    hi_on = np.abs(hi_edge - np.round(hi_edge)) <= _BOUNDARY_TOL
    lo_on = np.abs(lo_edge - np.round(lo_edge)) <= _BOUNDARY_TOL
    m_hi = np.where(hi_on, np.round(hi_edge), np.floor(hi_edge + _BOUNDARY_TOL))
    m_lo = np.where(lo_on, np.round(lo_edge), np.ceil(lo_edge - _BOUNDARY_TOL))
    correction = 0.0 if not (hi_on.any() or lo_on.any()) else (
        np.where(hi_on, 0.5 * _sinc(math.pi * (t - m_hi)) ** 2, 0.0)
        + np.where(lo_on, 0.5 * _sinc(math.pi * (t - m_lo)) ** 2, 0.0))
    sin2 = np.sin(math.pi * t) ** 2
    tails = _trigamma(np.stack(((m_hi + 1) - t, t - (m_lo - 1)))).sum(axis=0)
    f = np.maximum(0.0, 1.0 - sin2 / math.pi ** 2 * tails - correction)
    return np.where(m_lo > m_hi, 0.0, f)


def _curvature(t: np.ndarray, ratio: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """Bound on |f''| in t units over the piece around t, a point off the window edges.

    A term's f'' is pi^2 c^3 (sinc^2)''(y), c = d/ell, where (sinc^2)''(y) = 2 cos 2y / y^2
    - 4 sin 2y / y^3 + 3 (1 - cos 2y) / y^4 is at most 2/3 and H(y) = min(2/3, 2/y^2 + 4/y^3
    + 6/y^4). The bound is the least of: 2/3 per in-window term; the out-of-window terms
    (f is 1 minus them, by Poisson summation for c <= 1), beyond y0 = pi c ell/x_R on each
    side, as H(y0) plus the integral of H past y0; and, for c < 1, that tail by Abel
    summation, as its phases 2y step by 2 pi c.
    """
    with np.errstate(divide="ignore", over="ignore"):  # an infinite term is a valid bound
        y = math.pi * dl * ratio
        terms = np.floor(t + ratio) - np.ceil(t - ratio) + 1  # the in-window shifts
        tail = 2 * (np.minimum(2 / 3, 2 / y ** 2 + 4 / y ** 3 + 6 / y ** 4) + 2 / (y * math.pi * dl)
                    + 2 / (y ** 2 * math.pi * dl) + 2 / (y ** 3 * math.pi * dl))
        abel = 2 * ((2 / y ** 2 + 4 / y ** 3 + 3 / y ** 4) / np.abs(np.sin(math.pi * dl))
                    + 3 / y ** 4 + 1 / (math.pi * dl * y ** 3))
    return math.pi ** 2 * dl ** 3 * np.minimum(np.minimum(2 / 3 * terms, tail), abel)


def _sweep_extrema(geoms: Sequence[DiffractionGeometry]) -> list[tuple[float, float]]:
    """(tau_min, tau_max) of each geometry: the square roots of the symbol's
    essential extrema, from one branch and bound over the whole sweep.

    In t = z / 2pi the symbol is even about 0 and 1/2, and the window edges
    t = m +- ell/x_R leave one edge e = min(frac, 1 - frac) of ell/x_R in [0, 1/2].
    It cuts [0, 1/2] into pieces [0, e] and [e, 1/2], on each of which the
    in-window shifts are fixed and f is smooth. A piece's ends are its one-sided
    limits: the on-edge value holds the boundary term at weight 1/2, and a term
    enters to the right at t = m - ell/x_R and leaves at t = m + ell/x_R; where
    both hold (within the 1e-12 edge tolerance) the two cancel.

    Enclosure: |f''| <= M (:func:`_curvature`) on a piece gives, on a segment [a, b]
    of it, min(f(a), f(b)) - M (b - a)^2 / 8 <= f <= max(f(a), f(b)) + M (b - a)^2 / 8.
    Each round cuts 17 ways, in one symbol call for every geometry and both signs,
    the pieces at first, then the segments whose bound passes the best value so far
    by more than 2^-53 of it, until none is left (a segment with no float inside
    holds no other computed value; the minimum stops at 0 and the maximum at 1, the
    clamps). So no point beats the returned extremum by more than 2^-53 of it, up
    to the symbol's own rounding (1e-15 against a plain sum).
    """
    ratio, dl = np.array([(g.ell_over_xr, g.d_over_ell) for g in geoms], dtype=float).reshape(-1, 2).T
    count = ratio.size
    edge = np.minimum(ratio % 1.0, 1.0 - ratio % 1.0)
    geo = np.tile(np.arange(count), 2)  # the pieces [0, e] then [e, 1/2] of every geometry
    a, b = np.concatenate((np.zeros(count), edge)), np.concatenate((edge, np.full(count, 0.5)))
    bound = _curvature((a + b) / 2, ratio[geo], dl[geo])
    t = np.column_stack((a, a[:, None] + (b - a)[:, None] * _CUTS, b))  # the first round: ends too
    at = np.repeat(geo, t.shape[1])
    f = _symbol(t.ravel(), ratio[at], dl[at]).reshape(t.shape)
    hi_on, lo_on = (np.abs(x - np.round(x)) <= _BOUNDARY_TOL for x in (edge + ratio, edge - ratio))
    half = 0.5 * dl * _sinc(math.pi * dl * np.minimum(ratio, 2.0 ** 53)) ** 2
    jump = np.where(hi_on == lo_on, 0.0, np.where(hi_on, half, -half))  # + where a term enters
    f[:count, -1] -= jump  # the left limit at e ends [0, e], the right one starts [e, 1/2]
    f[count:, 0] += jump
    low, high = np.full(count, np.inf), np.full(count, -np.inf)
    while True:
        np.minimum.at(low, geo, f.min(axis=1))
        np.maximum.at(high, geo, f.max(axis=1))
        geo, bound = np.repeat(geo, t.shape[1] - 1), np.repeat(bound, t.shape[1] - 1)
        a, b, fa, fb = t[:, :-1].ravel(), t[:, 1:].ravel(), f[:, :-1].ravel(), f[:, 1:].ravel()
        bulge = bound * (b - a) ** 2 / 8
        split = (((np.minimum(fa, fb) - bulge < low[geo] * (1 - _GAP)) & (low[geo] > 0))
                 | ((np.maximum(fa, fb) + bulge > high[geo] * (1 + _GAP)) & (high[geo] < 1)))
        split &= (a < (a + b) / 2) & ((a + b) / 2 < b)
        geo, a, b, fa, fb, bound = (x[split] for x in (geo, a, b, fa, fb, bound))
        if not a.size:
            break
        inner, at = a[:, None] + (b - a)[:, None] * _CUTS, np.repeat(geo, _CUTS.size)
        t = np.column_stack((a, inner, b))
        f = np.column_stack((fa, _symbol(inner.ravel(), ratio[at], dl[at]).reshape(inner.shape), fb))
    return [(math.sqrt(min(max(lo, 0.0), 1.0)), math.sqrt(min(max(hi, 0.0), 1.0)))
            for lo, hi in zip(low.tolist(), high.tolist())]


def tau_extrema(geom: DiffractionGeometry) -> tuple[float, float]:
    """Extreme amplitude attenuations (tau_min, tau_max) of one geometry: the
    one-geometry case of the sweep search :func:`_sweep_extrema`."""
    return _sweep_extrema([geom])[0]


def rate_bounds(cell: MarginalCell, n: float, geoms: Sequence[DiffractionGeometry],
                n_th: float = 0.0, dim: int | None = None, *,
                attenuate_idler: bool = False) -> list[RateBounds]:
    """Coherent and EPR reading-rate bounds of each geometry at probe energy n,
    from the bounding channels at tau_min / tau_max: one tau search for the
    whole sweep, then one :func:`bounding_rates` call per transmitter over the
    distinct taus. ``attenuate_idler`` extends the attenuation to the
    retained ancilla modes (both-sides variant). n, n_th and dim are checked,
    with :func:`bounding_rates`' messages, before the search.
    """
    txs = (TransmitterSpec.coherent(n), TransmitterSpec.epr(n))
    _check_photons("n_th", n_th)
    if dim is not None and dim < 2:
        raise ValueError("dim must be >= 2")
    extrema = _sweep_extrema(geoms)
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
