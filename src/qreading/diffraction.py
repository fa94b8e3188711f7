"""Near-field diffraction of the collection optics: Rayleigh length, the
Fourier symbol of the Toeplitz Gram matrix M M^dag of the cell overlaps M,
the extreme attenuation amplitudes, and the coherent and EPR reading-rate
bounds they give (one batched rate call per transmitter for a whole sweep of
geometries).
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
GRID_SIZE = 4096  # uniform symbol samples over [0, 2pi] before the extremum polish
# B_2 .. B_14: for x >= 12 the first omitted term, B_16 / x^17, is < 4e-17 of psi'(x)
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


@dataclass(frozen=True)
class DiffractionGeometry:
    """Thin-lens collection optics over a linear cell array.

    Lengths are in the same (arbitrary) unit; only the ratios ell / x_R and
    d / ell enter the Toeplitz symbol.
    """

    wavelength: float
    object_distance: float
    image_distance: float
    focal: float
    pupil_halfwidth: float
    cell_spacing: float
    cell_width: float
    array_length: float

    def __post_init__(self) -> None:
        for name in ("wavelength", "object_distance", "image_distance", "focal",
                     "pupil_halfwidth", "cell_spacing", "cell_width", "array_length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        lens = 1.0 / self.object_distance + 1.0 / self.image_distance
        if abs(lens - 1.0 / self.focal) > 1e-9 / self.focal:
            raise ValueError("geometry violates the lens law 1/D_o + 1/D_i = 1/f")
        if not (self.cell_width <= self.cell_spacing <= self.array_length):
            raise ValueError("need cell_width <= cell_spacing <= array_length")

    @property
    def rayleigh_length(self) -> float:
        return self.wavelength * self.object_distance / self.pupil_halfwidth

    @property
    def ell_over_xr(self) -> float:
        return self.cell_spacing / self.rayleigh_length

    @property
    def d_over_ell(self) -> float:
        return self.cell_width / self.cell_spacing

    @classmethod
    def from_ratios(cls, ell_over_xr: float, d_over_ell: float = 1.0,
                    cells: int = 1000) -> "DiffractionGeometry":
        """Canonical geometry realizing the given ratios (650 nm, 10 cm arms)."""
        if ell_over_xr <= 0 or not (0 < d_over_ell <= 1):
            raise ValueError("need ell_over_xr > 0 and 0 < d_over_ell <= 1")
        wavelength = 650e-9
        d_o = d_i = 0.1
        ell = 1e-6
        x_r = ell / ell_over_xr
        return cls(
            wavelength=wavelength,
            object_distance=d_o,
            image_distance=d_i,
            focal=d_o / 2.0,
            pupil_halfwidth=wavelength * d_o / x_r,
            cell_spacing=ell,
            cell_width=d_over_ell * ell,
            array_length=cells * ell,
        )


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
    tails = _trigamma((m_hi + 1) - t) + _trigamma(t - (m_lo - 1))
    f = np.maximum(0.0, 1.0 - sin2 / math.pi ** 2 * tails - correction)
    return np.where(m_lo > m_hi, 0.0, f)


def _brent_bounded(func, lo: float, hi: float) -> tuple[float, float]:
    """Minimise ``func`` over [lo, hi] by Brent's bounded method (Brent 1973,
    ch. 5), golden-section and parabolic steps: a plain-float, step-for-step
    port of scipy's ``minimize_scalar(method="bounded")`` at xatol = 1e-12,
    capped at 500 evaluations. Returns (x, func(x)) at the best point."""
    xatol, sqrt_eps = 1e-12, math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    xf = fulc = nfc = a + golden_mean * (b - a)
    fx = ffulc = fnfc = func(xf)
    rat = e = 0.0
    num = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a) and num < 500:
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx


def tau_extrema(geom: DiffractionGeometry) -> tuple[float, float]:
    """Extreme amplitude attenuations (tau_min, tau_max) of the optics: the
    square roots of the symbol's extrema, found on a grid and then polished.

    M M^dag is real, symmetric and Toeplitz, so its symbol is even and
    2pi-periodic: f(z) = f(-z) = f(2pi - z), even about each of z = 0, pi
    and 2pi. An extremal candidate at one of them is returned with no
    polish. Where f is smooth there, the point is stationary and is the
    extremum itself. Where a window edge sits on it (an integer ratio at
    z = 0, a half-integer one at z = pi), f is still even about it. If f
    moves away from the point in the sought direction (up, for the maximum),
    the edge candidates straddled at +-1e-9 beat the point and are polished
    instead; otherwise the point is itself the local extremum.
    """
    # candidate points: grid, z = pi and the window-edge breakpoints,
    # straddled; the stable merge keeps a grid point ahead of an equal one
    z_grid = np.linspace(0.0, 2.0 * math.pi, GRID_SIZE, endpoint=True)
    ratio = geom.ell_over_xr
    edges = np.concatenate((
        np.arange(math.floor(ratio) - 1, math.ceil(ratio) + 2) - ratio,     # lower edges
        np.arange(-math.ceil(ratio) - 1, -math.floor(ratio) + 2) + ratio))  # upper edges
    extra = (2.0 * math.pi * (edges[:, None] + np.array([-1e-9, 0.0, 1e-9]))).ravel()
    extra = np.append(extra[(extra >= 0.0) & (extra <= 2.0 * math.pi)], math.pi)
    cand = np.concatenate((z_grid, extra))
    vals = np.concatenate((toeplitz_symbol(geom, z_grid), toeplitz_symbol(geom, extra)))
    order = np.argsort(cand, kind="stable")
    cand, vals = cand[order], vals[order]

    def polish(idx: int, sign: float) -> float:
        lo = cand[max(idx - 1, 0)]
        hi = cand[min(idx + 1, cand.size - 1)]
        t = cand[idx] / (2.0 * math.pi)
        if hi - lo <= 0 or t in (0.0, 0.5, 1.0):
            return sign * vals[idx]
        _, fun = _brent_bounded(lambda zz: sign * toeplitz_symbol(geom, zz), lo, hi)
        return min(sign * vals[idx], fun)

    f_min = min(max(polish(int(np.argmin(vals)), 1.0), 0.0), 1.0)
    f_max = min(max(-polish(int(np.argmax(vals)), -1.0), 0.0), 1.0)
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
