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
    """The 4096-point grid, every window edge t = m +- ratio straddled by
    1e-9, and the integer points t = 0, 1."""
    edges = [m + s * ratio for s in (-1, 1) for m in range(-math.ceil(ratio) - 1,
                                                           math.ceil(ratio) + 2)]
    t = [e + off for e in edges for off in (-1e-9, 0.0, 1e-9)] + [0.0, 1.0]
    t = [x for x in t if 0.0 <= x <= 1.0]
    return np.concatenate((np.linspace(0.0, 2.0 * math.pi, 4096), 2.0 * math.pi * np.array(t)))


def spectrum_ref(geom: DiffractionGeometry) -> tuple[float, float]:
    """(tau_min, tau_max) with a scipy bounded-Brent polish of every extremum,
    symmetry point or not, over the grid and the straddled window edges."""
    z_grid = np.linspace(0.0, 2.0 * math.pi, diffraction.GRID_SIZE)
    ratio = geom.ell_over_xr
    edges = np.concatenate((
        np.arange(math.floor(ratio) - 1, math.ceil(ratio) + 2) - ratio,
        np.arange(-math.ceil(ratio) - 1, -math.floor(ratio) + 2) + ratio))
    extra = (2.0 * math.pi * (edges[:, None] + np.array([-1e-9, 0.0, 1e-9]))).ravel()
    cand = np.concatenate((z_grid, extra[(extra >= 0.0) & (extra <= 2.0 * math.pi)]))
    vals = toeplitz_symbol(geom, cand)
    order = np.argsort(cand, kind="stable")
    cand, vals = cand[order], vals[order]

    def polish(idx: int, sign: float) -> float:
        lo, hi = cand[max(idx - 1, 0)], cand[min(idx + 1, cand.size - 1)]
        if hi - lo <= 0:
            return sign * vals[idx]
        res = scipy.optimize.minimize_scalar(
            lambda zz: sign * toeplitz_symbol(geom, zz), bounds=(lo, hi),
            method="bounded", options={"xatol": 1e-12})
        return min(sign * vals[idx], float(res.fun))

    f_min = min(max(polish(int(np.argmin(vals)), 1.0), 0.0), 1.0)
    f_max = min(max(-polish(int(np.argmax(vals)), -1.0), 0.0), 1.0)
    return math.sqrt(f_min), math.sqrt(f_max)


class TestGeometry:
    def test_width_ordering_enforced(self):
        with pytest.raises(ValueError):
            DiffractionGeometry(1.0, d_over_ell=1.2)

    @pytest.mark.parametrize("ell_over_xr,d_over_ell", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
        (1.0, math.nan), (1.0, 0.0), (1.0, 1.2)])
    def test_rejects_ratios_outside_the_domain(self, ell_over_xr, d_over_ell):
        with pytest.raises(ValueError) as err:
            DiffractionGeometry(ell_over_xr, d_over_ell)
        assert str(err.value) == "need ell_over_xr > 0 and 0 < d_over_ell <= 1"

    def test_fields_are_the_two_ratios(self):
        names = [f.name for f in dataclasses.fields(DiffractionGeometry)]
        assert names == ["ell_over_xr", "d_over_ell"]
        assert DiffractionGeometry(0.8).d_over_ell == 1.0

    # both examples came back one ulp off through the old length round trip
    @example(0.5275275275275275, 1.0)
    @example(0.53003003003003, 0.7)
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
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

    def test_tau_min_monotone_in_ratio(self):
        vals = [tau_extrema(DiffractionGeometry(r))[0]
                for r in (0.5, 0.8, 1.2, 2.0, 3.0)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_spectrum_samples_cover_grid(self):
        geom = DiffractionGeometry(0.9)
        samples = toeplitz_symbol(geom, np.linspace(0.0, 2.0 * math.pi, diffraction.GRID_SIZE))
        tau_min, tau_max = tau_extrema(geom)
        assert tau_min ** 2 <= np.min(samples) + 1e-9
        assert tau_max ** 2 >= np.max(samples) - 1e-9

    def test_grid_symbol_evaluated_once(self, monkeypatch):
        # the grid samples double as extremum candidates; only the window
        # edges and the local polish add symbol points
        points = []
        real = diffraction.toeplitz_symbol
        monkeypatch.setattr(diffraction, "toeplitz_symbol",
                            lambda geom, z: points.append(np.size(z)) or real(geom, z))
        for ratio, d_over_ell in ((0.9, 1.0), (1.7, 0.6)):
            points.clear()
            tau_extrema(DiffractionGeometry(ratio, d_over_ell))
            assert diffraction.GRID_SIZE < sum(points) < diffraction.GRID_SIZE + 256

    @pytest.mark.parametrize("d_over_ell", np.round(np.linspace(0.55, 1.0, 10), 2))
    def test_extrema_match_brent_everywhere(self, d_over_ell):
        # skipping the polish at z = 0, pi, 2pi moves no tau: against a
        # Brent polish of every extremum, including ratios whose window
        # edge sits on a symmetry point (integers at 0, half-integers at pi)
        for ratio in [*np.linspace(0.2, 5.0, 63), 0.5, 1.0, 1.5, 2.0, 3.0]:
            geom = DiffractionGeometry(ratio, d_over_ell)
            for got, ref in zip(tau_extrema(geom), spectrum_ref(geom)):
                assert abs(got - ref) <= 1e-15 * ref
                assert f"{got:.12g}" == f"{ref:.12g}"

    def test_maximum_beside_an_edge_at_a_symmetry_point(self):
        # an integer ratio puts a window edge, and a kink, at z = 0; just
        # below d = ell the maximum sits beside it, 1e-13 above f(0), and
        # the straddled edge candidates and their polish must find it
        for ratio in (1.0, 2.0, 3.0):
            geom = DiffractionGeometry(ratio, 0.9999)
            tau_max = tau_extrema(geom)[1]
            assert abs(tau_max - spectrum_ref(geom)[1]) <= 1e-15 * tau_max
            assert tau_max > math.sqrt(toeplitz_symbol(geom, 0.0)) + 1e-14

    @pytest.mark.parametrize("d_over_ell,budget", [(1.0, 64), (0.7, 160)])
    def test_symbol_call_budget(self, monkeypatch, d_over_ell, budget):
        # extrema at the symmetry points need no polish, so a sweep makes
        # few symbol calls beyond the grid and edge calls (426 and 368 when
        # every extremum was polished)
        calls = []
        real = diffraction.toeplitz_symbol
        monkeypatch.setattr(diffraction, "toeplitz_symbol",
                            lambda geom, z: calls.append(1) or real(geom, z))
        for ratio in parse_grid("0.6:2.7:8"):
            tau_extrema(DiffractionGeometry(ratio, d_over_ell))
        assert len(calls) <= budget


class TestBrentPort:
    """_brent_bounded takes scipy's bounded-Brent steps: the same points, the
    same x and f(x), the same evaluation count, bit for bit."""

    @staticmethod
    def assert_matches_scipy(func, lo, hi):
        ours, theirs = [], []
        x, fun = diffraction._brent_bounded(lambda v: ours.append(v) or func(v), lo, hi)
        res = scipy.optimize.minimize_scalar(
            lambda v: theirs.append(v) or func(v), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12})
        assert (x, fun, len(ours)) == (res.x, res.fun, res.nfev)
        assert ours == theirs

    @pytest.mark.parametrize("func,lo,hi", [
        (lambda x: (x - 0.3) ** 2, -1.0, 2.0),
        (math.cos, 1.0, 5.0),
        (lambda x: 2.0 * x + 1.0, 0.0, 1.0),  # minimum at the lower edge
        (lambda x: 3.0, -2.0, 2.0),
        (lambda x: abs(x - 0.37), 0.0, 1.0),
        (lambda x: (x - 1.1) ** 4, 0.0, 3.0),
    ], ids=["quadratic", "cos", "linear", "constant", "abs", "quartic"])
    def test_matches_scipy_on_test_functions(self, func, lo, hi):
        self.assert_matches_scipy(func, lo, hi)

    @pytest.mark.parametrize("d_over_ell", [0.7, 0.55])
    def test_matches_scipy_on_polish_brackets(self, monkeypatch, d_over_ell):
        # every bracket the spectrum search polishes, with its +-symbol
        brackets = []
        real = diffraction._brent_bounded
        monkeypatch.setattr(diffraction, "_brent_bounded",
                            lambda func, lo, hi: brackets.append((func, lo, hi))
                            or real(func, lo, hi))
        for ratio in parse_grid("0.6:2.7:8"):
            tau_extrema(DiffractionGeometry(ratio, d_over_ell))
        monkeypatch.undo()
        assert brackets
        for func, lo, hi in brackets:
            self.assert_matches_scipy(func, lo, hi)


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
