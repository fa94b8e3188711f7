"""Near-field diffraction of the collection optics: Rayleigh length, cell
overlap matrix, its Toeplitz Gram matrix and Fourier symbol, the extreme
attenuation amplitudes, and the resulting reading-rate bounds.

Amplitude convention: the eigenvalues of M M^dag are the *squared*
attenuations tau^2; the amplitudes tau in [0, 1] are the factors entering
the bounding channels, so the composed cell channel stays physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize
import scipy.special

from .channels import MarginalCell
from .errors import ConvergenceError
from .rates import RateResult, TransmitterSpec, rate_after_attenuation

_BOUNDARY_TOL = 1e-12


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
    def magnification(self) -> float:
        return self.image_distance / self.object_distance

    @property
    def ell_over_xr(self) -> float:
        return self.cell_spacing / self.rayleigh_length

    @property
    def d_over_ell(self) -> float:
        return self.cell_width / self.cell_spacing

    @property
    def paraxial_ok(self) -> bool:
        """Phase factor constant across a cell: d^2 << lambda D_o."""
        return self.cell_width ** 2 < 0.01 * self.wavelength * self.object_distance

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
class ToeplitzSpectrum:
    """Symbol samples on a uniform grid over [0, 2pi] and the tau extrema."""

    z_grid: np.ndarray
    symbol_samples: np.ndarray
    tau_min: float
    tau_max: float


@dataclass(frozen=True)
class RateBounds:
    lower: RateResult
    upper: RateResult
    tau_min: float
    tau_max: float

    @property
    def lower_bits(self) -> float:
        return self.lower.rate_bits

    @property
    def upper_bits(self) -> float:
        return self.upper.rate_bits


def rayleigh_length(geom: DiffractionGeometry) -> float:
    """lambda * D_o / R."""
    return geom.rayleigh_length


def _sinc(y: np.ndarray | float) -> np.ndarray | float:
    """sin(y)/y with sinc(0) = 1 (unnormalized argument)."""
    return np.sinc(np.asarray(y) / math.pi)


def overlap_matrix(geom: DiffractionGeometry, i_range: Sequence[int],
                   j_range: Sequence[int]) -> np.ndarray:
    """Cell-to-normal-mode overlap M_ij over the given index ranges.

    Rows i index the transmitted Fourier modes (|i| <= L/x_R), columns j
    index cell positions (|j| <= L/(2 ell)).
    """
    i_arr = np.asarray(list(i_range), dtype=int)
    j_arr = np.asarray(list(j_range), dtype=int)
    band = geom.array_length / geom.rayleigh_length
    if np.any(np.abs(i_arr) > band):
        raise ValueError(f"mode index outside the transmitted band |i| <= {band:.3g}")
    if np.any(np.abs(j_arr) > geom.array_length / (2.0 * geom.cell_spacing)):
        raise ValueError("cell index outside the array")
    d, ell, length = geom.cell_width, geom.cell_spacing, geom.array_length
    theta = (np.pi * (j_arr * ell) ** 2 / (geom.wavelength * geom.object_distance)
             + 2.0 * np.pi * geom.object_distance / geom.wavelength)
    amp = math.sqrt(d / length) * _sinc(np.pi * i_arr * d / length)
    phase = np.exp(-1j * (theta[None, :] + 2.0 * np.pi
                          * np.outer(i_arr, j_arr) * ell / length))
    return amp[:, None] * phase


def _cos_tail(a: float, w: float) -> float:
    """int_{-w}^{w} (1 - cos(a x)) / x^2 dx, via the sine integral."""
    a = abs(a)
    if a == 0.0:
        return 0.0
    si, _ = scipy.special.sici(a * w)
    return 2.0 * (a * si - (1.0 - math.cos(a * w)) / w)


def gram_coefficient(geom: DiffractionGeometry, q: int) -> float:
    """Toeplitz coefficient (M M^dag)_q = (d/ell) int sinc^2 e^{i 2 pi q x} dx.

    The oscillatory sinc^2 integral over |x| <= ell/x_R is evaluated in
    closed form: splitting sin^2 into cosines reduces it to three
    (1 - cos)/x^2 tails, each a sine-integral expression.
    """
    ratio = geom.ell_over_xr
    dl = geom.d_over_ell
    two_pi = 2.0 * math.pi
    val = (0.5 * _cos_tail(two_pi * (q + dl), ratio)
           + 0.5 * _cos_tail(two_pi * (q - dl), ratio)
           - _cos_tail(two_pi * q, ratio))
    return val / (2.0 * math.pi ** 2 * dl)


def gram_matrix(geom: DiffractionGeometry, size: int) -> np.ndarray:
    """Hermitian Toeplitz Gram matrix M M^dag in the continuum limit.

    Valid for L/x_R >> 1 and ell/L << 1; entries depend on q = j - k only.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    col = np.array([gram_coefficient(geom, q) for q in range(size)])
    return scipy.linalg.toeplitz(col)


def toeplitz_symbol(geom: DiffractionGeometry, z: float) -> float:
    """Fourier symbol f(z) of the Gram matrix, z in [0, 2pi].

    Aliased-sinc^2 sum over integer shifts m with |z/(2pi) - m| <= ell/x_R.
    Terms exactly at the window boundary carry weight 1/2 (the midpoint
    value of the underlying Fourier series at its jump).
    """
    ratio = geom.ell_over_xr
    dl = geom.d_over_ell
    t = z / (2.0 * math.pi)
    if dl == 1.0:
        return _symbol_unit_fill(t, ratio)
    m = np.arange(math.floor(t - ratio) - 1, math.ceil(t + ratio) + 2)
    dist = np.abs(t - m)
    inside = dist <= ratio + _BOUNDARY_TOL
    weight = np.where(np.abs(dist - ratio) <= _BOUNDARY_TOL, 0.5, 1.0) * inside
    terms = dl * np.asarray(_sinc(math.pi * (t - m) * dl)) ** 2
    return float(np.sum(weight * terms))


def _symbol_unit_fill(t: float, ratio: float) -> float:
    """Symbol for d = ell via the trigamma tail sum (O(1) in the ratio).

    Uses sum_m sinc^2(pi(t-m)) = 1 and sinc^2(pi x) = sin^2(pi t)/(pi x)^2,
    so the out-of-window tail telescopes into trigamma values.
    """
    lo_edge, hi_edge = t - ratio, t + ratio
    correction = 0.0
    m_hi = math.floor(hi_edge + _BOUNDARY_TOL)
    if abs(hi_edge - round(hi_edge)) <= _BOUNDARY_TOL:
        m_hi = round(hi_edge)
        correction += 0.5 * float(_sinc(math.pi * (t - m_hi))) ** 2
    m_lo = math.ceil(lo_edge - _BOUNDARY_TOL)
    if abs(lo_edge - round(lo_edge)) <= _BOUNDARY_TOL:
        m_lo = round(lo_edge)
        correction += 0.5 * float(_sinc(math.pi * (t - m_lo))) ** 2
    if m_lo > m_hi:
        return 0.0
    sin2 = math.sin(math.pi * t) ** 2
    tails = float(scipy.special.polygamma(1, (m_hi + 1) - t)
                  + scipy.special.polygamma(1, t - (m_lo - 1)))
    return max(0.0, 1.0 - sin2 / math.pi ** 2 * tails - correction)


def toeplitz_spectrum(geom: DiffractionGeometry,
                      grid_size: int = 4096) -> ToeplitzSpectrum:
    """Sample the symbol and locate its extrema (grid + local polish)."""
    if grid_size < 1024:
        raise ValueError("grid_size must be >= 1024")
    z_grid = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=True)
    samples = np.array([toeplitz_symbol(geom, z) for z in z_grid])

    # candidate points: grid plus the window-edge breakpoints, straddled;
    # the stable merge keeps a grid point ahead of an equal edge point
    ratio = geom.ell_over_xr
    edges = []
    for m in range(math.floor(ratio) - 1, math.ceil(ratio) + 2):
        edges.append(m - ratio)      # lower window edge lands in [0, 1]
    for m in range(-math.ceil(ratio) - 1, -math.floor(ratio) + 2):
        edges.append(m + ratio)      # upper window edge lands in [0, 1]
    extra = []
    for edge in edges:
        for off in (-1e-9, 0.0, 1e-9):
            zz = 2.0 * math.pi * (edge + off)
            if 0.0 <= zz <= 2.0 * math.pi:
                extra.append(zz)
    cand = np.concatenate((z_grid, extra))
    vals = np.concatenate((samples, [toeplitz_symbol(geom, z) for z in extra]))
    order = np.argsort(cand, kind="stable")
    cand, vals = cand[order], vals[order]

    def polish(idx: int, sign: float) -> float:
        lo = cand[max(idx - 1, 0)]
        hi = cand[min(idx + 1, cand.size - 1)]
        if hi - lo <= 0:
            return sign * vals[idx]
        res = scipy.optimize.minimize_scalar(
            lambda zz: sign * toeplitz_symbol(geom, zz),
            bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        return min(sign * vals[idx], float(res.fun))

    f_min = polish(int(np.argmin(vals)), 1.0)
    f_max = -polish(int(np.argmax(vals)), -1.0)
    f_min = min(max(f_min, 0.0), 1.0)
    f_max = min(max(f_max, 0.0), 1.0 + 1e-9)
    return ToeplitzSpectrum(z_grid, samples,
                            math.sqrt(f_min), math.sqrt(min(f_max, 1.0)))


@lru_cache(maxsize=256)
def tau_extrema(geom: DiffractionGeometry,
                grid_size: int = 4096) -> tuple[float, float]:
    """Extreme amplitude attenuations (tau_min, tau_max) of the optics.

    Memoised per process: a sweep that asks again for the same geometry
    reuses the spectrum search.
    """
    spec = toeplitz_spectrum(geom, grid_size)
    return spec.tau_min, spec.tau_max


def rate_bounds(cell: MarginalCell, tx: TransmitterSpec,
                geom: DiffractionGeometry, n_th: float = 0.0,
                dim: int | None = None, quad_order: int | None = None,
                grid_size: int = 4096,
                attenuate_idler: bool = False) -> RateBounds:
    """Reading-rate bounds from the bounding channels at tau_min / tau_max.

    ``attenuate_idler`` extends the diffraction attenuation to the retained
    ancilla modes as well (both-sides variant). ``quad_order`` is deprecated
    and ignored.
    """
    tau_min, tau_max = tau_extrema(geom, grid_size)
    lower = rate_after_attenuation(cell, tx, n_th, tau_min, dim,
                                   attenuate_idler=attenuate_idler)
    upper = rate_after_attenuation(cell, tx, n_th, tau_max, dim,
                                   attenuate_idler=attenuate_idler)
    if lower.rate_bits > upper.rate_bits + 1e-9:
        raise ConvergenceError(
            f"lower bound {lower.rate_bits} exceeds upper bound {upper.rate_bits}"
        )
    return RateBounds(lower, upper, tau_min, tau_max)


def transfer_matrix(geom: DiffractionGeometry, k_range: Sequence[int],
                    h_range: Sequence[int], quad_tol: float = 1e-8) -> np.ndarray:
    """Mode-to-mode transfer matrix T_kh of the slit-pupil thin lens.

    The pupil integral reduces to T_kh = int du sinc(pi(k+u)) sinc(pi(h+u))
    over |u| <= L/x_R; in the near field this tends to a 0/1 diagonal step
    at |h| = L/x_R. Used as a validation oracle for the step profile.
    """
    k_arr = list(k_range)
    h_arr = list(h_range)
    band = geom.array_length / geom.rayleigh_length
    out = np.zeros((len(k_arr), len(h_arr)))

    def entry(k: int, h: int) -> float:
        def integrand(u: float) -> float:
            return float(_sinc(math.pi * (k + u)) * _sinc(math.pi * (h + u)))

        val, err = scipy.integrate.quad(integrand, -band, band,
                                        epsabs=quad_tol, limit=2000)
        if err > max(100.0 * quad_tol, 1e-6):
            raise ConvergenceError(f"transfer entry ({k},{h}) error {err:.3e}")
        return val

    for a, k in enumerate(k_arr):
        for b, h in enumerate(h_arr):
            out[a, b] = entry(k, h)
    return out
