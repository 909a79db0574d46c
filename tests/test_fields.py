import numpy as np
import pytest

from abimhd.fields import (
    FieldDataError,
    GridSpec,
    PositivityError,
    ScalarField,
    VectorField3,
    curl,
    dealias,
    div,
    eval_at,
    grad,
    guarded_reciprocal,
    integrate,
    random_band_limited,
    random_divergence_free,
    random_vector,
    shift,
)
from conftest import fd_grad, naive_trig_eval, refine_field


class TestGridSpec:
    def test_rejects_small_or_odd(self):
        with pytest.raises(FieldDataError):
            GridSpec(2)
        with pytest.raises(FieldDataError):
            GridSpec(15)

    def test_geometry(self):
        g = GridSpec(8)
        assert g.spacing == 1.0 / 8
        assert g.num_points == 512
        assert g.mesh.shape == (3, 8, 8, 8)

    def test_field_shape_mismatch(self, grid16):
        with pytest.raises(FieldDataError):
            ScalarField(grid16, np.zeros((8, 8, 8)))
        with pytest.raises(FieldDataError):
            VectorField3(grid16, np.zeros((2, 16, 16, 16)))


class TestGrad:
    def test_single_mode_exact(self, grid16):
        f = ScalarField.from_function(grid16, lambda x, y, z: np.sin(2 * np.pi * x))
        gf = grad(f)
        expect = 2 * np.pi * np.cos(2 * np.pi * grid16.mesh[0])
        assert np.abs(gf.values[0] - expect).max() < 1e-12
        assert np.abs(gf.values[1:]).max() == 0.0

    def test_constant_is_zero(self, grid16):
        assert grad(ScalarField.constant(grid16, 3.7)).sup_norm() == 0.0

    def test_matches_finite_differences(self, rng):
        # second-order centered differences on the same n=64 grid
        g = GridSpec(64)
        f = random_band_limited(g, rng, kmax=3, amplitude=1.0)
        spectral = grad(f).values
        approx = fd_grad(g, f.values)
        err = np.abs(spectral - approx).max()
        # FD error ~ (2 pi kmax)^3 dx^2 / 6 for the strongest mode
        assert err < (2 * np.pi * 3) ** 3 * g.spacing ** 2 / 4

    def test_rejects_non_finite(self, grid16):
        vals = np.zeros(grid16.shape)
        vals[3, 4, 5] = np.nan
        with pytest.raises(FieldDataError, match=r"\(3, 4, 5\)"):
            ScalarField(grid16, vals)


class TestCurlDiv:
    def test_single_mode(self, grid16):
        F = VectorField3.from_function(
            grid16, lambda x, y, z: (0 * x, 0 * x, np.sin(2 * np.pi * x)))
        c = curl(F)
        expect = -2 * np.pi * np.cos(2 * np.pi * grid16.mesh[0])
        assert np.abs(c.values[1] - expect).max() < 1e-12
        assert np.abs(c.values[[0, 2]]).max() == 0.0

    def test_constant(self, grid16):
        F = VectorField3.constant(grid16, (1.0, -2.0, 0.5))
        assert curl(F).sup_norm() == 0.0
        assert div(F).sup_norm() == 0.0

    def test_div_of_curl_vanishes(self, rng):
        g = GridSpec(32)
        G = random_vector(g, rng, kmax=5, amplitude=1.0)
        assert np.abs(div(curl(G)).values).max() <= 1e-10 * G.sup_norm()


class TestHyperLaplacian:
    def test_eigenfunction(self, grid16):
        F = VectorField3.from_function(
            grid16, lambda x, y, z: (np.sin(2 * np.pi * x), 0 * x, 0 * x))
        out = grid16.hyper_laplacian_arr(F.values, 1)
        expect = 4 * np.pi ** 2 * np.sin(2 * np.pi * grid16.mesh[0])
        assert np.abs(out[0] - expect).max() < 1e-10

    def test_constant_maps_to_zero(self, grid16):
        F = VectorField3.constant(grid16, (2.0, 2.0, 2.0))
        for order in (1, 3):
            assert np.abs(grid16.hyper_laplacian_arr(F.values, order)).max() \
                < 1e-12

    def test_composition(self, grid16, rng):
        F = random_vector(grid16, rng, kmax=3, amplitude=1.0).values
        twice = grid16.hyper_laplacian_arr(
            grid16.hyper_laplacian_arr(F, 1), 1)
        once = grid16.hyper_laplacian_arr(F, 2)
        scale = np.abs(once).max()
        assert np.abs(twice - once).max() < 1e-10 * scale


class TestIntegrate:
    def test_constant(self, grid16):
        assert integrate(ScalarField.constant(grid16, 3.0)) == pytest.approx(3.0)

    def test_zero_mean_mode(self, grid16):
        f = ScalarField.from_function(grid16, lambda x, y, z: np.sin(2 * np.pi * x))
        assert abs(integrate(f)) < 1e-14

    def test_product_vs_refined_trapezoid(self, grid16, rng):
        a = random_band_limited(grid16, rng, kmax=3, amplitude=1.0)
        b = random_band_limited(grid16, rng, kmax=3, amplitude=1.0)
        prod = ScalarField(grid16, a.values * b.values)
        coarse = integrate(prod)
        fine = (refine_field(grid16, a.values) * refine_field(grid16, b.values)).mean()
        assert abs(coarse - fine) < 1e-8


class TestEvalAt:
    def test_quarter_period(self, grid16):
        f = ScalarField.from_function(grid16, lambda x, y, z: np.sin(2 * np.pi * x))
        val = eval_at(f, np.array([[0.25, 0.0, 0.0]]))
        assert abs(val[0] - 1.0) < 1e-12

    def test_grid_nodes_reproduce_samples(self, grid16, rng):
        f = random_band_limited(grid16, rng, kmax=4, amplitude=1.0)
        pts = np.stack([m.ravel() for m in grid16.mesh], axis=1)[::37]
        vals = eval_at(f, pts)
        assert np.abs(vals - f.values.ravel()[::37]).max() < 1e-12

    def test_matches_naive_mode_sum(self, rng):
        g = GridSpec(8)
        f = random_band_limited(g, rng, kmax=2, amplitude=1.0)
        pts = rng.random((100, 3))
        fast = eval_at(f, pts)
        slow = naive_trig_eval(g, f.values, pts)
        assert np.abs(fast - slow).max() < 1e-12

    def test_wraps_coordinates(self, grid16, rng):
        f = random_band_limited(grid16, rng, kmax=2, amplitude=1.0)
        pts = rng.random((10, 3))
        assert np.abs(eval_at(f, pts) - eval_at(f, pts + 2.0)).max() < 1e-12

    def test_vector_field(self, grid16, rng):
        F = random_vector(grid16, rng, kmax=2, amplitude=1.0)
        pts = rng.random((5, 3))
        vals = eval_at(F, pts)
        assert vals.shape == (5, 3)
        for i in range(3):
            comp = eval_at(F.component(i), pts)
            assert np.abs(vals[:, i] - comp).max() < 1e-13


class TestInvariants:
    @pytest.mark.parametrize("n", [16, 32])
    def test_transform_roundtrip(self, n, rng):
        g = GridSpec(n)
        a = rng.standard_normal(g.shape)
        back = g.ifft(g.fft(a))
        assert np.abs(back - a).max() < 1e-12 * np.abs(a).max()

    def test_linearity(self, grid16, rng):
        f1 = random_band_limited(grid16, rng, 3, 1.0)
        f2 = random_band_limited(grid16, rng, 3, 1.0)
        combo = ScalarField(grid16, 2.0 * f1.values - 0.5 * f2.values)
        lhs = grad(combo).values
        rhs = 2.0 * grad(f1).values - 0.5 * grad(f2).values
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_periodicity_kills_means(self, grid16, rng):
        F = random_vector(grid16, rng, 4, 1.0)
        assert abs(integrate(div(F))) < 1e-12
        f = random_band_limited(grid16, rng, 4, 1.0)
        assert abs(integrate(grad(f).component(0))) < 1e-12

    def test_dealias_idempotent(self, grid16, rng):
        f = ScalarField(grid16, rng.standard_normal(grid16.shape))
        once = dealias(f)
        twice = dealias(once)
        assert np.abs(once.values - twice.values).max() < 1e-12

    def test_shift_matches_closed_form(self, grid16):
        f = ScalarField.from_function(grid16, lambda x, y, z: np.sin(2 * np.pi * x))
        out = shift(f, (0.25, 0.0, 0.0))
        expect = np.sin(2 * np.pi * (grid16.mesh[0] + 0.25))
        assert np.abs(out.values - expect).max() < 1e-12

    def test_divergence_free_sampler(self, grid16, rng):
        V = random_divergence_free(grid16, rng, 3, 1.0)
        assert np.abs(div(V).values).max() < 1e-10


BAND_SIZES = [4, 6, 8, 16, 32, 48]
LEADING = [(), (3,), (6,), (3, 3)]


def kept_modes(n):
    """Boolean mask of the 2/3-rule modes in the rfftn layout, and m."""
    m = n // 3
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    kz = np.fft.rfftfreq(n, d=1.0 / n)
    mask = (k[:, None, None] <= m) & (k[None, :, None] <= m) & (kz <= m)
    return mask, m


def band_of(full, n):
    """The kept modes of a full spectrum, in band layout."""
    mask, m = kept_modes(n)
    lead = full.shape[:-3]
    return full[..., mask].reshape(*lead, 2 * m + 1, 2 * m + 1, m + 1)


class TestBandSpectrum:
    """The band transforms against numpy's full rfftn/irfftn, on random
    full-spectrum data that also fills the Nyquist planes: every kept
    coefficient and every physical value must be bit-identical."""

    @pytest.mark.parametrize("lead", LEADING)
    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_forward_keeps_the_rfftn_modes(self, n, lead, rng):
        g = GridSpec(n)
        a = rng.standard_normal((*lead, *g.shape))
        full = np.fft.rfftn(a, axes=(-3, -2, -1))
        assert np.array_equal(g.fft(a, band=True), band_of(full, n))

    @pytest.mark.parametrize("lead", LEADING)
    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_inverse_is_irfftn_of_the_zero_filled_modes(self, n, lead, rng):
        g = GridSpec(n)
        mask, _ = kept_modes(n)
        full = np.fft.rfftn(rng.standard_normal((*lead, *g.shape)),
                            axes=(-3, -2, -1))
        filled = np.zeros_like(full)
        filled[..., mask] = full[..., mask]
        want = np.fft.irfftn(filled, s=g.shape, axes=(-3, -2, -1))
        assert np.array_equal(g.ifft(band_of(full, n)), want)

    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_full_spectra_keep_the_irfftn_path(self, n, rng):
        g = GridSpec(n)
        full = g.fft(rng.standard_normal((3, *g.shape)))
        want = np.fft.irfftn(full, s=g.shape, axes=(-3, -2, -1))
        assert np.array_equal(g.ifft(full), want)

    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_derivatives_agree_on_the_kept_modes(self, n, rng):
        g = GridSpec(n)
        v = rng.standard_normal((3, *g.shape))
        full, band = g.fft(v), g.fft(v, band=True)
        for op in (g.grad_hat, g.div_hat, g.curl_hat):
            assert np.array_equal(op(band), band_of(op(full), n))
        assert np.array_equal(g.grad_hat(band[0]),
                              band_of(g.grad_hat(full[0]), n))

    @pytest.mark.parametrize("n", [8, 16])
    def test_dealias_is_the_masked_round_trip(self, n, rng):
        g = GridSpec(n)
        mask, _ = kept_modes(n)
        a = rng.standard_normal((3, *g.shape))
        want = np.fft.irfftn(np.fft.rfftn(a, axes=(-3, -2, -1)) * mask,
                             s=g.shape, axes=(-3, -2, -1))
        assert np.array_equal(g.dealias_arr(a), want)


class TestGuards:
    def test_reciprocal_guard_names_index(self, grid16):
        h = np.ones(grid16.shape)
        h[2, 3, 4] = 5e-9
        with pytest.raises(PositivityError) as err:
            guarded_reciprocal(h)
        assert err.value.index == (2, 3, 4)
        assert err.value.value == pytest.approx(5e-9)
