"""Diffraction optics: geometry, overlap/Gram matrices, symbol, rate bounds."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qreading import (
    DiffractionGeometry,
    MarginalCell,
    TransmitterSpec,
    bounding_rates,
    rate_bounds,
    tau_extrema,
    toeplitz_symbol,
)
from qreading import diffraction
from qreading.cli import parse_grid

from oracles import (
    REFERENCE_GRID_SIZE,
    gram_coefficient,
    gram_matrix,
    overlap_matrix,
    paraxial_ok,
    transfer_matrix,
)

AMP_CELL = MarginalCell.binary(0.5, 0.0, 1.0)
TOL = diffraction._BOUNDARY_TOL


def _sinc2_ref(x: float) -> float:
    """sinc^2 of pi x, written as np.sinc computes it."""
    if x == 0.0:
        return 1.0
    y = math.pi * x
    return (math.sin(y) / y) ** 2


def symbol_ref(ratio: float, dl: float, z: float) -> float:
    """Plain-Python scalar symbol, one point at a time: the test oracle."""
    t = z / (2.0 * math.pi)
    if dl == 1.0:
        lo_edge, hi_edge = t - ratio, t + ratio
        correction = 0.0
        m_hi = math.floor(hi_edge + TOL)
        if abs(hi_edge - round(hi_edge)) <= TOL:
            m_hi = round(hi_edge)
            correction += 0.5 * _sinc2_ref(t - m_hi)
        m_lo = math.ceil(lo_edge - TOL)
        if abs(lo_edge - round(lo_edge)) <= TOL:
            m_lo = round(lo_edge)
            correction += 0.5 * _sinc2_ref(t - m_lo)
        if m_lo > m_hi:
            return 0.0
        tails = (float(scipy.special.polygamma(1, (m_hi + 1) - t))
                 + float(scipy.special.polygamma(1, t - (m_lo - 1))))
        return max(0.0, 1.0 - math.sin(math.pi * t) ** 2 / math.pi ** 2 * tails - correction)
    terms = []
    for m in range(math.floor(t - ratio) - 1, math.ceil(t + ratio) + 2):
        dist = abs(t - m)
        if dist <= ratio + TOL:
            weight = 0.5 if abs(dist - ratio) <= TOL else 1.0
            terms.append(weight * dl * _sinc2_ref((t - m) * dl))
    return math.fsum(terms)


def reference_points(ratio: float) -> np.ndarray:
    """The reference grid over [0, 2pi], every window edge t = m +- ratio
    straddled by 1e-9, and the integer points t = 0, 1."""
    edges = [m + s * ratio for s in (-1, 1) for m in range(-math.ceil(ratio) - 1,
                                                           math.ceil(ratio) + 2)]
    t = [e + off for e in edges for off in (-1e-9, 0.0, 1e-9)] + [0.0, 1.0]
    t = [x for x in t if 0.0 <= x <= 1.0]
    return np.concatenate((np.linspace(0.0, 2.0 * math.pi, REFERENCE_GRID_SIZE),
                           2.0 * math.pi * np.array(t)))


def edge_limits_ref(ratio: float, dl: float) -> list[float]:
    """Both one-sided limits of the symbol at every window edge t = m +- ratio
    in [0, 1]: a plain-Python fsum of the in-window terms, where a term on the
    window boundary counts on the side it enters from."""
    limits = []
    for m in range(-math.ceil(ratio) - 1, math.ceil(ratio) + 2):
        for edge in (m - ratio, m + ratio):
            if not 0.0 <= edge <= 1.0:
                continue
            for side in (-1.0, 1.0):
                terms = []
                for k in range(math.floor(edge - ratio) - 1, math.ceil(edge + ratio) + 2):
                    dist = abs(edge - k)
                    entering = abs(dist - ratio) <= TOL and side * (k - edge) > 0
                    if dist < ratio - TOL or entering:
                        terms.append(dl * _sinc2_ref((edge - k) * dl))
                limits.append(math.fsum(terms))
    return limits


def spectrum_ref(geom: DiffractionGeometry) -> tuple[float, float]:
    """(tau_min, tau_max): scipy bounded-Brent polishes of every sampled
    extremum, symmetry point or not, over the full-period reference grid and
    the straddled window edges, against every one-sided edge limit of
    :func:`edge_limits_ref`. Each extremum is polished across the
    reference-grid steps on either side of it, not just up to its merged
    neighbours: beside a window edge, the maximum can lie past the straddles."""
    z_grid = np.linspace(0.0, 2.0 * math.pi, REFERENCE_GRID_SIZE)
    ratio = geom.ell_over_xr
    edges = np.concatenate((
        np.arange(math.floor(ratio) - 1, math.ceil(ratio) + 2) - ratio,
        np.arange(-math.ceil(ratio) - 1, -math.floor(ratio) + 2) + ratio))
    extra = (2.0 * math.pi * (edges[:, None] + np.array([-1e-9, 0.0, 1e-9]))).ravel()
    cand = np.concatenate((z_grid, extra[(extra >= 0.0) & (extra <= 2.0 * math.pi)]))
    vals = toeplitz_symbol(geom, cand)
    order = np.argsort(cand, kind="stable")
    cand, vals = cand[order], vals[order]
    limits = edge_limits_ref(ratio, geom.d_over_ell)

    def polish(idx: int, sign: float) -> float:
        best = min(sign * vals[idx], *(sign * v for v in limits))
        k = int(np.searchsorted(z_grid, cand[idx], side="right")) - 1
        for lo, hi in ((z_grid[max(k - 1, 0)], cand[idx]),
                       (cand[idx], z_grid[min(k + 2, z_grid.size - 1)])):
            if hi - lo > 0:
                res = scipy.optimize.minimize_scalar(
                    lambda zz: sign * toeplitz_symbol(geom, zz), bounds=(lo, hi),
                    method="bounded", options={"xatol": 1e-12})
                best = min(best, float(res.fun))
        return best

    f_min = min(max(polish(int(np.argmin(vals)), 1.0), 0.0), 1.0)
    f_max = min(max(-polish(int(np.argmax(vals)), -1.0), 0.0), 1.0)
    return math.sqrt(f_min), math.sqrt(f_max)


class TestGeometry:
    def test_width_ordering_enforced(self):
        with pytest.raises(ValueError):
            DiffractionGeometry(1.0, d_over_ell=1.2)

    @pytest.mark.parametrize("ell_over_xr,d_over_ell", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
        (5e-324, 1.0), (TOL, 0.7), (1.0, math.nan), (1.0, 0.0), (1.0, 1.2)])
    def test_rejects_ratios_outside_the_domain(self, ell_over_xr, d_over_ell):
        with pytest.raises(ValueError) as err:
            DiffractionGeometry(ell_over_xr, d_over_ell)
        assert str(err.value) == "need ell_over_xr > 1e-12 and 0 < d_over_ell <= 1"

    def test_fields_are_the_two_ratios(self):
        names = [f.name for f in dataclasses.fields(DiffractionGeometry)]
        assert names == ["ell_over_xr", "d_over_ell"]
        assert DiffractionGeometry(0.8).d_over_ell == 1.0

    # both examples came back one ulp off through the old length round trip
    @example(0.5275275275275275, 1.0)
    @example(0.53003003003003, 0.7)
    @given(st.floats(min_value=TOL, exclude_min=True, allow_infinity=False),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_stores_the_given_ratios(self, ratio, dl):
        geom = DiffractionGeometry(ratio, dl)
        assert (geom.ell_over_xr, geom.d_over_ell) == (ratio, dl)
        assert paraxial_ok(geom)


class TestOverlapMatrix:
    def test_column_magnitude(self):
        m = overlap_matrix(DiffractionGeometry(1.0), [0], range(-5, 6), cells=1000)
        assert np.allclose(np.abs(m), math.sqrt(1.0 / 1000))

    def test_magnitude_independent_of_cell(self):
        geom = DiffractionGeometry(2.0, 0.5)
        m = overlap_matrix(geom, range(-20, 21), range(-3, 4), cells=800)
        mags = np.abs(m)
        assert np.max(np.std(mags, axis=1)) < 1e-15

    def test_band_limits_enforced(self):
        geom = DiffractionGeometry(1.0)
        with pytest.raises(ValueError):
            overlap_matrix(geom, [200], [0], cells=100)
        with pytest.raises(ValueError):
            overlap_matrix(geom, [0], [90], cells=100)

    def test_column_norms_approach_gram_diagonal(self):
        # sum_i |M_ij|^2 over the transmitted band ~ Gram coefficient c_0
        geom = DiffractionGeometry(1.0)
        band = 400  # L / x_R = cells * ell / x_R
        m = overlap_matrix(geom, range(-band, band + 1), [0], cells=400)
        col_norm = float(np.sum(np.abs(m) ** 2))
        assert abs(col_norm - gram_coefficient(geom, 0)) < 2e-3


class TestGramMatrix:
    def test_coefficient_matches_quadrature(self):
        for ratio, dl in ((0.3, 1.0), (0.5, 1.0), (1.0, 0.7), (2.5, 0.4)):
            geom = DiffractionGeometry(ratio, dl)
            for q in range(4):
                def integrand(x):
                    y = math.pi * x * dl
                    s = 1.0 if y == 0 else math.sin(y) / y
                    return dl * s * s * math.cos(2.0 * math.pi * q * x)
                ref, _ = scipy.integrate.quad(integrand, -ratio, ratio,
                                              epsabs=1e-12, limit=400)
                assert abs(gram_coefficient(geom, q) - ref) < 1e-10

    def test_identity_limit(self):
        geom = DiffractionGeometry(3e5)
        g = gram_matrix(geom, 8)
        assert np.max(np.abs(g - np.eye(8))) < 1e-6

    def test_toeplitz_and_symmetric(self):
        g = gram_matrix(DiffractionGeometry(0.8, 0.6), 10)
        assert np.max(np.abs(g - g.T)) == 0.0
        for q in range(1, 10):
            assert np.allclose(np.diag(g, q), g[0, q])

    def test_positive_semidefinite(self):
        g = gram_matrix(DiffractionGeometry(0.35), 32)
        assert np.min(np.linalg.eigvalsh(g)) > -1e-10


class TestSymbol:
    def test_subwavelength_window_empty(self):
        geom = DiffractionGeometry(0.3)
        # at t = 0.5 no integer shift lies within 0.3 of t
        assert toeplitz_symbol(geom, math.pi) == 0.0

    @pytest.mark.parametrize("d_over_ell", [1.0, 0.6])
    def test_empty_window_exactly_zero(self, d_over_ell):
        # for t in (ratio, 1 - ratio) no shift lies in the window: exact 0,
        # not trigamma roundoff
        for ratio in (0.2, 0.3, 0.45):
            geom = DiffractionGeometry(ratio, d_over_ell)
            t = np.linspace(geom.ell_over_xr + 1e-6, 1.0 - geom.ell_over_xr - 1e-6, 501)
            assert not np.any(toeplitz_symbol(geom, 2.0 * math.pi * t))

    def test_boundary_midpoint_value(self):
        geom = DiffractionGeometry(0.5)
        # both m = 0 and m = 1 sit exactly on the window edge, weight 1/2 each
        val = toeplitz_symbol(geom, math.pi)
        assert abs(val - 4.0 / math.pi ** 2) < 1e-12

    def test_dc_value_is_one(self):
        for ratio in (0.6, 1.0, 2.5):
            geom = DiffractionGeometry(ratio)
            assert abs(toeplitz_symbol(geom, 0.0) - 1.0) < 1e-12

    def test_unit_fill_path_matches_direct_sum(self):
        geom = DiffractionGeometry(1.7, 1.0)
        near = DiffractionGeometry(1.7, 1.0 - 1e-12)
        for z in np.linspace(0.0, 2.0 * math.pi, 31):
            assert abs(toeplitz_symbol(geom, z) - toeplitz_symbol(near, z)) < 1e-9

    def test_matches_gram_quadratic_form(self):
        # f(z) = sum_q c_q e^{-i q z}; check against the coefficient series
        geom = DiffractionGeometry(0.8, 0.6)
        qs = np.arange(-400, 401)
        coeffs = np.array([gram_coefficient(geom, abs(q)) for q in qs])
        for z in (0.4, 1.3, 2.9, 4.4):
            series = float(np.sum(coeffs * np.cos(qs * z)))
            assert abs(toeplitz_symbol(geom, z) - series) < 1e-3

    @pytest.mark.parametrize("d_over_ell", [1.0, 0.7, 0.55])
    def test_array_matches_scalar_reference(self, d_over_ell):
        worst = 0.0
        for ratio in (0.3, 0.5, 0.6, 1.0, 1.3, 2.0, 3.0):
            geom = DiffractionGeometry(ratio, d_over_ell)
            z = reference_points(ratio)
            ref = np.array([symbol_ref(geom.ell_over_xr, geom.d_over_ell, x) for x in z])
            worst = max(worst, float(np.max(np.abs(toeplitz_symbol(geom, z) - ref))))
        assert worst <= 1e-15

    def test_chunked_sum_matches_reference(self, monkeypatch):
        # a small chunk budget splits the aliased (points x shifts) sum
        monkeypatch.setattr(diffraction, "_MAX_TERMS", 64)
        geom = DiffractionGeometry(2.3, 0.6)
        z = reference_points(2.3)[::7]
        ref = np.array([symbol_ref(geom.ell_over_xr, geom.d_over_ell, x) for x in z])
        assert np.max(np.abs(toeplitz_symbol(geom, z) - ref)) <= 1e-15

    def test_aliased_sum_memory_bounded(self):
        # at ell/x_R = 500 one array of 4096 points x ~1000 shifts would take
        # 33 MB per temporary; the chunks keep the peak near _MAX_TERMS entries
        geom = DiffractionGeometry(500.0, 0.5)
        tracemalloc.start()
        try:
            vals = toeplitz_symbol(geom, np.linspace(0.0, 2.0 * math.pi, 4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6
        assert np.all((vals > 0.999) & (vals <= 1.0))

    @pytest.mark.parametrize("d_over_ell", [1.0, 0.6])
    def test_scalar_call_is_one_point_array_call(self, d_over_ell):
        geom = DiffractionGeometry(1.3, d_over_ell)
        for z in (0.0, 0.7, math.pi, 2.0 * math.pi * 0.3):
            val = toeplitz_symbol(geom, z)
            assert type(val) is float
            assert val == toeplitz_symbol(geom, np.array([z]))[0]
            assert val == toeplitz_symbol(geom, np.float64(z))

    @pytest.mark.parametrize("d_over_ell", [1.0, 0.6])
    def test_array_shape_preserved(self, d_over_ell):
        geom = DiffractionGeometry(0.9, d_over_ell)
        z = np.linspace(0.0, 2.0 * math.pi, 12).reshape(3, 4)
        out = toeplitz_symbol(geom, z)
        assert out.shape == (3, 4)
        assert np.array_equal(out.ravel(), toeplitz_symbol(geom, z.ravel()))
        assert toeplitz_symbol(geom, np.empty(0)).shape == (0,)

    def test_trigamma_matches_scipy(self):
        x = np.concatenate((np.geomspace(1e-3, 40.0, 4001), [1e3, 2e5]))
        ref = scipy.special.polygamma(1, x)
        assert np.all(np.abs(diffraction._trigamma(x) - ref) <= 8 * np.spacing(ref))

    @pytest.mark.parametrize("d_over_ell", [1.0, 0.7])
    def test_even_about_pi(self, d_over_ell):
        # the Gram matrix is real symmetric Toeplitz, so f(z) = f(2pi - z);
        # a seeded sample keeps every draw off the window edges
        z = np.random.default_rng(11).uniform(0.0, 2.0 * math.pi, 2000)
        for ratio in (0.3, 0.7, 1.3, 2.6, 4.2):
            geom = DiffractionGeometry(ratio, d_over_ell)
            diff = toeplitz_symbol(geom, z) - toeplitz_symbol(geom, 2.0 * math.pi - z)
            assert np.max(np.abs(diff)) <= 1e-14

    @example(1e4, 0.3, 1.0)
    @example(1e4, 1.0, 2.0)
    @example(1e300, 1.0, 0.5)
    @example(1e300, 1.0, math.pi)
    @given(st.one_of(st.floats(min_value=0.2, max_value=8.0), st.just(1e4)),
           st.floats(min_value=0.3, max_value=1.0),
           st.floats(min_value=0.0, max_value=math.pi))
    @settings(max_examples=200, deadline=None)
    def test_even_on_the_half_period(self, ratio, dl, z):
        # f(z) = f(2pi - z) is what lets tau_extrema sample [0, pi] only
        geom = DiffractionGeometry(ratio, dl)
        assert abs(toeplitz_symbol(geom, z) - toeplitz_symbol(geom, 2.0 * math.pi - z)) <= 2e-15

    @given(st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_symbol_in_unit_interval(self, ratio, dl, z):
        geom = DiffractionGeometry(ratio, dl)
        val = toeplitz_symbol(geom, z)
        assert -1e-12 <= val <= 1.0 + 1e-9


class TestSpectrum:
    def test_szego_containment(self):
        geom = DiffractionGeometry(0.5)
        tau_min, tau_max = tau_extrema(geom)
        ev = np.linalg.eigvalsh(gram_matrix(geom, 64))
        assert ev[0] >= tau_min ** 2 - 1e-9
        assert ev[-1] <= tau_max ** 2 + 1e-9

    def test_tau_values(self):
        geom = DiffractionGeometry(0.5)
        tau_min, tau_max = tau_extrema(geom)
        assert abs(tau_min - 2.0 / math.pi) < 1e-6
        assert abs(tau_max - 1.0) < 1e-9

    def test_far_field_kills_lower_tau(self):
        tau_min, tau_max = tau_extrema(DiffractionGeometry(0.25))
        assert tau_min < 1e-9
        assert abs(tau_max - 1.0) < 1e-9

    def test_near_field_transparent(self):
        tau_min, tau_max = tau_extrema(DiffractionGeometry(2e5))
        assert tau_min > 1.0 - 1e-5
        assert abs(tau_max - 1.0) < 1e-9

    @pytest.mark.parametrize("d_over_ell", [1.0, 0.7])
    def test_narrowest_window_holds_its_peak(self, d_over_ell):
        # just above the edge tolerance the window's edges are still told apart, so the
        # term at t = 0 counts in full
        extrema = tau_extrema(DiffractionGeometry(2 * TOL, d_over_ell))
        assert extrema == pytest.approx((0.0, math.sqrt(d_over_ell)), abs=1e-12)

    def test_tau_min_monotone_in_ratio(self):
        vals = [tau_extrema(DiffractionGeometry(r))[0]
                for r in (0.5, 0.8, 1.2, 2.0, 3.0)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_spectrum_samples_cover_grid(self):
        geom = DiffractionGeometry(0.9)
        samples = toeplitz_symbol(geom, np.linspace(0.0, 2.0 * math.pi, REFERENCE_GRID_SIZE))
        tau_min, tau_max = tau_extrema(geom)
        assert tau_min ** 2 <= np.min(samples) + 1e-9
        assert tau_max ** 2 >= np.max(samples) - 1e-9

    @pytest.mark.parametrize("d_over_ell", np.round(np.linspace(0.55, 1.0, 10), 2))
    def test_extrema_match_the_exact_reference(self, d_over_ell):
        # against a Brent polish of every extremum and every one-sided edge
        # limit, including ratios whose window edge sits on a symmetry point
        # (integers at 0, half-integers at pi): skipping the polish there moves
        # no tau, and an edge is read as its limits, not at edge +-1e-9 (300 of
        # these 1360 taus missed the limits that way, by up to 1.9e-9 relative)
        for ratio in [*np.linspace(0.2, 5.0, 63), 0.5, 1.0, 1.5, 2.0, 3.0]:
            geom = DiffractionGeometry(ratio, d_over_ell)
            for got, ref in zip(tau_extrema(geom), spectrum_ref(geom)):
                assert abs(got - ref) <= 1e-15 * ref
                assert f"{got:.12g}" == f"{ref:.12g}"

    @pytest.mark.parametrize("ratio,d_over_ell,extremum,printed", [
        (1.975, 0.55, max, "0.955369895171"), (0.5016915596871784, 1.0, min, "0.638771824452")])
    def test_extremum_at_an_edge_is_its_limit(self, ratio, d_over_ell, extremum, printed):
        # read at edge +-1e-9, tau_max printed 0.955369895159 and tau_min
        # 0.638771825723: the limits are no point's value
        limit = math.sqrt(extremum(edge_limits_ref(ratio, d_over_ell)))
        tau = tau_extrema(DiffractionGeometry(ratio, d_over_ell))[extremum is max]
        assert abs(tau - limit) <= 1e-15 * limit
        assert f"{tau:.12g}" == printed

    @pytest.mark.parametrize("ratio,d_over_ell", [
        (0.5061035156258, 1.0), (0.5151367187508, 0.7), (0.7861328124991, 0.45)])
    def test_grid_sample_beside_an_edge_gives_no_limit(self, ratio, d_over_ell):
        # a window edge lies under 1e-12 from a grid sample t = k / 4096, which
        # the symbol then holds on the edge; limits read off that sample extend
        # a piece past its edge and put tau_min up to 8e-13 relative too low
        # (the grid was the 2049 points t = k / 4096 of [0, 1/2] before the search
        # took the symbol's pieces; these edges still lie within 1e-12 of a point)
        geom = DiffractionGeometry(ratio, d_over_ell)
        t = np.arange(2049) / 4096
        edge_gap = np.min(np.abs(((t[:, None] + [ratio, -ratio]) + 0.5) % 1.0 - 0.5))
        assert 0.0 < edge_gap <= TOL
        for got, ref in zip(tau_extrema(geom), spectrum_ref(geom)):
            assert abs(got - ref) <= 1e-15 * ref

    @given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.5, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_extrema_enclose_every_edge_limit(self, ratio, dl):
        tau_min, tau_max = tau_extrema(DiffractionGeometry(ratio, dl))
        limits = edge_limits_ref(ratio, dl)
        assert tau_min ** 2 <= min(limits) + 1e-15
        assert tau_max ** 2 >= max(limits) - 1e-15

    @pytest.mark.parametrize("ratio,tau_max", [
        (1.0, 0.99995000593607631), (2.0, 0.99995001495650007), (3.0, 0.99995002457452182)])
    def test_maximum_beside_an_edge_at_a_symmetry_point(self, ratio, tau_max):
        # an integer ratio puts a double window edge, and a kink, at z = 0; just
        # below d = ell the maximum sits beside it at z ~ 3e-4, 1.6e-9 to 4.4e-9
        # above f(0). tau_max is the 40-digit value; the grid and zoom returned
        # the kink's 0.999950003751 at ratio 1, and so did the reference oracle
        geom = DiffractionGeometry(ratio, 0.9999)
        got = tau_extrema(geom)[1]
        assert abs(got - tau_max) <= 1e-15 * tau_max
        assert abs(spectrum_ref(geom)[1] - tau_max) <= 1e-15 * tau_max
        assert got > math.sqrt(toeplitz_symbol(geom, 0.0)) + 1e-10

    @pytest.mark.parametrize("d_over_ell,budget", [(1.0, 8), (0.7, 16)])
    def test_symbol_call_budget(self, monkeypatch, d_over_ell, budget):
        # one symbol call per round for the whole sweep (426 and 368 calls when
        # every extremum was polished one geometry at a time), and at most 4096
        # points (the 2049-point grid and the zoom took 16 417 and 16 681)
        points = []
        real = diffraction._symbol
        monkeypatch.setattr(diffraction, "_symbol",
                            lambda t, ratio, dl: points.append(t.size) or real(t, ratio, dl))
        diffraction._sweep_extrema([DiffractionGeometry(r, d_over_ell)
                                    for r in parse_grid("0.6:2.7:8")])
        assert 0 < len(points) <= budget
        assert sum(points) <= 4096


class TestCertificate:
    @example(1.0, 0.9999)  # the grid and zoom missed this maximum by 4.4e-9
    @example(2.5, 0.7)
    @given(st.one_of(st.floats(min_value=0.2, max_value=8.0),
                     st.integers(1, 8).map(float), st.integers(1, 15).map(lambda k: k / 2)),
           st.one_of(st.floats(min_value=0.3, max_value=1.0),
                     st.integers(1, 8).map(lambda k: 1.0 - 10.0 ** -k)))
    @settings(max_examples=100, deadline=None)
    def test_extrema_enclose_a_dense_scan(self, ratio, dl):
        # the reference grid, seeded uniform points, and seeded points within
        # 1e-3 of every window edge t = m +- ratio, where the kinks sit
        rng = np.random.default_rng(7)
        edges = np.array([m + s * ratio for s in (-1, 1)
                          for m in range(-math.ceil(ratio) - 1, math.ceil(ratio) + 2)])
        t = np.concatenate((rng.uniform(0.0, 1.0, 1024),
                            (edges[:, None] + rng.uniform(-1e-3, 1e-3, (edges.size, 64))).ravel()))
        z = np.concatenate((np.linspace(0.0, 2.0 * math.pi, REFERENCE_GRID_SIZE),
                            2.0 * math.pi * (t % 1.0)))
        vals = toeplitz_symbol(DiffractionGeometry(ratio, dl), z)
        tau_min, tau_max = tau_extrema(DiffractionGeometry(ratio, dl))
        assert tau_min ** 2 <= np.min(vals) + 2.0 ** -52
        assert tau_max ** 2 >= np.max(vals) - 2.0 ** -52

    @pytest.mark.parametrize("ratios,d_over_ell", [((0.2, 8.0), None), ((5.0, 400.0), 0.7)],
                             ids=["all-terms", "abel-tail"])
    def test_second_difference_within_the_curvature_bound(self, ratios, d_over_ell):
        # on random pieces, (f(t + h) - 2 f(t) + f(t - h)) / h^2 is f'' at some
        # point of the piece, so it must lie within the piece's bound
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(200):
            ratio = rng.uniform(*ratios)
            dl = d_over_ell or (1.0 if rng.random() < 0.3 else rng.uniform(0.3, 1.0))
            edge = min(ratio % 1.0, 1.0 - ratio % 1.0)
            a, b = max(((0.0, edge), (edge, 0.5)), key=lambda p: p[1] - p[0])
            h = min(1e-3, (b - a) / 8)
            t = rng.uniform(a + h, b - h, 16)
            f = [diffraction._symbol(x, np.full(16, ratio), np.full(16, dl))
                 for x in (t - h, t, t + h)]
            second = np.abs(f[0] - 2.0 * f[1] + f[2]) / h ** 2
            bound = diffraction._curvature(t, np.full(16, ratio), np.full(16, dl))
            worst = max(worst, float(np.max(second / bound)))
        assert 0.0 < worst <= 1.0

    def test_sweep_search_equals_one_geometry_at_a_time(self):
        # a d < ell point's sum does not depend on the widest window in its call
        geoms = [DiffractionGeometry(r, dl) for r, dl in
                 ((0.6, 0.7), (300.3, 0.7), (1.3, 1.0), (2.2, 0.55), (1.0, 0.9999), (1e300, 1.0))]
        assert diffraction._sweep_extrema(geoms) == [tau_extrema(geom) for geom in geoms]


class TestRateBounds:
    def test_bounds_ordered_and_sandwiched(self):
        geom = DiffractionGeometry(0.8)
        [res] = rate_bounds(AMP_CELL, 0.2, [geom], n_th=0.5, dim=20)
        assert 0.0 <= res.coherent_lower <= res.coherent_upper
        assert 0.0 <= res.epr_lower <= res.epr_upper
        assert res.tau_min <= res.tau_max <= 1.0

    def test_transparent_limit_collapses(self):
        geom = DiffractionGeometry(2e5)
        [res] = rate_bounds(AMP_CELL, 0.5, [geom], dim=25)
        assert res.coherent_upper - res.coherent_lower < 1e-4
        assert res.epr_upper - res.epr_lower < 1e-4
        # both bounds agree with the unobstructed noiseless closed form
        from qreading import coherent_capacity_noiseless
        ref = coherent_capacity_noiseless(AMP_CELL, 0.5)
        assert abs(ref - 0.5017219133749418) < 1e-12
        assert abs(res.coherent_upper - ref) < 1e-4
        assert abs(res.coherent_lower - ref) < 1e-4

    def test_opaque_limit_zero_lower(self):
        geom = DiffractionGeometry(0.3)
        [res] = rate_bounds(AMP_CELL, 0.5, [geom], dim=25)
        assert res.coherent_lower < 1e-9
        assert res.epr_lower < 1e-9

    def test_both_sides_attenuation_weaker(self):
        geom = DiffractionGeometry(0.7)
        [one] = rate_bounds(AMP_CELL, 0.2, [geom], n_th=0.3, dim=14)
        [two] = rate_bounds(AMP_CELL, 0.2, [geom], n_th=0.3, dim=14, attenuate_idler=True)
        assert two.epr_lower <= one.epr_lower + 1e-7
        # the coherent probe has no idler
        assert (two.coherent_lower, two.coherent_upper) == (one.coherent_lower,
                                                            one.coherent_upper)

    def test_sweep_equals_one_geometry_at_a_time(self):
        geoms = [DiffractionGeometry(r, dl)
                 for r in (0.6, 1.3, 2.2) for dl in (1.0, 0.7)]
        sweep = rate_bounds(AMP_CELL, 0.1, geoms, 0.3, 10, attenuate_idler=True)
        assert sweep == [rate_bounds(AMP_CELL, 0.1, [geom], 0.3, 10, attenuate_idler=True)[0]
                         for geom in geoms]

    def test_sweep_memory_bounded_by_chunks(self):
        # 100 aliased ratios give 62 distinct taus. Their EPR outputs and
        # mixtures at d = 24 take 21 MB in one stack, and the build peaked at
        # 84 MB unchunked; chunks of rates._MAX_STACK_TERMS = 2^19 terms (4 MB
        # of float64) peak near 24 MB. The coherent pass runs first and is far
        # smaller, so computing both transmitters leaves the peak unchanged
        geoms = [DiffractionGeometry(r, 0.7) for r in np.linspace(0.5, 3.0, 100)]
        tracemalloc.start()
        try:
            sweep = rate_bounds(AMP_CELL, 0.1, geoms, 0.5, 24, attenuate_idler=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sweep) == 100
        assert peak < 32e6

    def test_attenuate_idler_is_keyword_only(self):
        geom = DiffractionGeometry(0.7)
        with pytest.raises(TypeError, match="positional"):
            rate_bounds(AMP_CELL, 0.2, [geom], 0.3, 8, True)
        with pytest.raises(TypeError, match="positional"):
            bounding_rates(AMP_CELL, TransmitterSpec.epr(0.2), 0.3, [0.5], 8, True)


class TestTransferMatrix:
    def test_near_field_step_profile(self):
        # band L / x_R = 40 at ell / x_R = 1 and 40 cells
        geom = DiffractionGeometry(1.0)
        inside = transfer_matrix(geom, [0, 10, -25], [0, 10, -25], cells=40)
        assert np.max(np.abs(np.diag(inside) - 1.0)) < 0.01
        outside = transfer_matrix(geom, [60], [60], cells=40)
        assert abs(outside[0, 0]) < 0.05

    def test_symmetry_under_index_negation(self):
        geom = DiffractionGeometry(1.0)
        a = transfer_matrix(geom, [3], [5], cells=20)[0, 0]
        b = transfer_matrix(geom, [-3], [-5], cells=20)[0, 0]
        assert abs(a - b) < 1e-8

    def test_entries_bounded(self):
        geom = DiffractionGeometry(1.0)
        t = transfer_matrix(geom, range(-2, 3), range(-2, 3), cells=30)
        assert np.max(np.abs(t)) <= 1.0 + 1e-6
