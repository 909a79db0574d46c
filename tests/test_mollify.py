import math

import numpy as np
import pytest

from abimhd.fields import (
    FieldDataError,
    ScalarField,
    eval_at,
    random_band_limited,
    random_divergence_free,
)
from abimhd.mollify import (
    RoughInitialData,
    _gaussian_sum,
    gaussian_shell_count,
    lambda_monotonicity_check,
    mollify,
    periodized_gaussian,
)
from abimhd.snapshots import write_snapshot


def shift_cube_sum(points, eps, shells):
    """The periodized Gaussian summed over every shift of the cube
    |k_a| <= shells, one 3-D exponential per shift."""
    norm = eps ** -3 * (2.0 * math.pi) ** -1.5
    out = np.zeros(points.shape[0])
    rng = range(-shells, shells + 1)
    for kx in rng:
        for ky in rng:
            for kz in rng:
                d = points + np.array([kx, ky, kz], dtype=float)
                out += np.exp(-(d ** 2).sum(1) / (2.0 * eps ** 2))
    return norm * out


class TestKernel:
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_unit_mass(self, grid32, eps):
        rho = periodized_gaussian(grid32, eps)
        assert abs(rho.values.mean() - 1.0) < 1e-12

    def test_strict_positivity(self, grid32):
        rho = periodized_gaussian(grid32, 0.2)
        assert rho.values.min() > 0.0

    def test_shell_truncation_converged(self, grid32):
        eps = 0.2
        k = gaussian_shell_count(eps)
        a = _gaussian_sum(grid32.points, eps, k)
        b = _gaussian_sum(grid32.points, eps, k + 1)
        assert np.abs(a - b).max() < 1e-15

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_separable_sum_matches_shift_cube(self, rng, eps, extra):
        # the per-axis product equals the (2s+1)^3 shift sum to round-off
        pts = rng.uniform(-1.0, 1.0, (200, 3))
        shells = gaussian_shell_count(eps) + extra
        ref = shift_cube_sum(pts, eps, shells)
        got = _gaussian_sum(pts, eps, shells)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.3])
    def test_rejects_bad_width(self, grid32, eps):
        with pytest.raises(FieldDataError):
            periodized_gaussian(grid32, eps)


class TestMollify:
    def test_uniform_density_fixed(self, grid32):
        data = RoughInitialData(grid32,
                                h_density=ScalarField.constant(grid32, 1.0))
        h, B = mollify(data, 0.1)
        assert np.abs(h.values - 1.0).max() < 1e-12
        assert B.sup_norm() == 0.0

    def test_single_atom_is_translated_kernel(self, grid32):
        loc = (0.31, 0.77, 0.13)
        data = RoughInitialData(grid32, atoms=((loc, 1.0, None),))
        h, _ = mollify(data, 0.15)
        assert abs(h.values.mean() - 1.0) < 1e-12
        # peak sits at the nearest grid node to the atom
        peak = np.unravel_index(np.argmax(h.values), h.values.shape)
        node = tuple(int(round(c * grid32.n)) % grid32.n for c in loc)
        assert peak == node

    def test_mixed_matches_direct_quadrature(self, grid16, rng):
        dens = ScalarField(
            grid16, 1.0 + 0.5 * random_band_limited(grid16, rng, 2, 1.0).values)
        loc = (0.2, 0.6, 0.4)
        data = RoughInitialData(grid16, h_density=dens,
                                atoms=((loc, 0.7, None),))
        eps = 0.15
        h, _ = mollify(data, eps)
        # direct sum: kernel matrix over all grid-point pairs plus the atom
        kern = periodized_gaussian(grid16, eps).values
        pts = np.stack([m.ravel() for m in grid16.mesh], axis=1)
        direct = np.zeros(grid16.num_points)
        flat = dens.values.ravel()
        for j in range(grid16.num_points):
            shifted = np.roll(
                kern, tuple(np.array(np.unravel_index(j, grid16.shape))),
                axis=(0, 1, 2))
            direct += flat[j] * shifted.ravel() / grid16.num_points
        from abimhd.mollify import _gaussian_sum
        direct += 0.7 * _gaussian_sum(pts - np.array(loc), eps,
                                      gaussian_shell_count(eps))
        assert np.abs(h.values.ravel() - direct).max() < 1e-8

    def test_mass_preserved(self, grid32, rng):
        dens = ScalarField(
            grid32, 1.0 + 0.5 * random_band_limited(grid32, rng, 3, 1.0).values)
        data = RoughInitialData(grid32, h_density=dens,
                                atoms=(((0.1, 0.2, 0.3), 0.4, None),))
        for eps in (0.2, 0.1, 0.05):
            h, _ = mollify(data, eps)
            assert abs(h.values.mean() - data.total_mass()) < 1e-10

    def test_divergence_preserved(self, grid32, rng):
        B = random_divergence_free(grid32, rng, 3, 1.0)
        data = RoughInitialData(grid32,
                                h_density=ScalarField.constant(grid32, 1.0),
                                B_density=B)
        for eps in (0.2, 0.05):
            _, B_eps = mollify(data, eps)
            assert np.abs(grid32.div_arr(B_eps.values)).max() < 1e-10

    def test_negative_density_rejected(self, grid16):
        with pytest.raises(FieldDataError):
            RoughInitialData(grid16,
                             h_density=ScalarField.constant(grid16, -1.0))

    def test_negative_atom_rejected(self, grid16):
        with pytest.raises(FieldDataError):
            RoughInitialData(grid16, atoms=(((0.1, 0.1, 0.1), -2.0, None),))


class TestLambdaMonotonicity:
    def test_uniform_data_constant(self, grid32):
        data = RoughInitialData(grid32,
                                h_density=ScalarField.constant(grid32, 1.0))
        rep = lambda_monotonicity_check(data, [0.2, 0.1, 0.05])
        assert rep.reference == pytest.approx(0.5)
        for v in rep.lambda_values:
            assert v == pytest.approx(0.5, abs=1e-12)

    def test_density_data_monotone_toward_reference(self, grid32, rng):
        dens = ScalarField(
            grid32, 1.0 + 0.6 * random_band_limited(grid32, rng, 2, 1.0).values)
        B = random_divergence_free(grid32, rng, 2, 0.4)
        data = RoughInitialData(grid32, h_density=dens, B_density=B)
        rep = lambda_monotonicity_check(data, [0.2, 0.1, 0.05])
        assert rep.reference is not None and math.isfinite(rep.reference)
        vals = rep.lambda_values
        assert all(v <= rep.reference + 1e-10 for v in vals)
        assert vals[0] <= vals[1] + 1e-6 <= vals[2] + 2e-6
        assert vals[2] <= rep.reference + 1e-10

    def test_atomic_trend_logged_not_asserted(self, grid32):
        data = RoughInitialData(grid32, atoms=(((0.5, 0.5, 0.5), 1.0, None),))
        rep = lambda_monotonicity_check(data, [0.2, 0.1])
        assert rep.reference is None
        assert all(math.isfinite(v) for v in rep.lambda_values)
        assert rep.lambda_values[1] > rep.lambda_values[0]

    @pytest.mark.parametrize("schedule", [[0.2, 1.0], [0.0, 0.1]])
    def test_whole_schedule_checked_before_any_compute(self, grid16,
                                                       monkeypatch, schedule):
        # a bad width anywhere in the schedule stops the check before the rough
        # reference or any mollified energy is computed
        import abimhd.mollify as mollify_mod

        calls = []
        monkeypatch.setattr(mollify_mod, "lambda_functional",
                            lambda *a, **k: calls.append(a))
        data = RoughInitialData(grid16,
                                h_density=ScalarField.constant(grid16, 1.0))
        with pytest.raises(FieldDataError, match="width"):
            lambda_monotonicity_check(data, schedule)
        assert calls == []

    def test_each_mollified_width_is_handed_out(self, grid16, rng):
        dens = ScalarField(
            grid16, 1.0 + 0.5 * random_band_limited(grid16, rng, 2, 1.0).values)
        data = RoughInitialData(
            grid16, h_density=dens,
            B_density=random_divergence_free(grid16, rng, 2, 0.3),
            atoms=(((0.3, 0.7, 0.2), 0.5, (0.1, -0.2, 0.3)),))
        schedule = [0.2, 0.1, 0.05]
        handed = []
        rep = lambda_monotonicity_check(
            data, schedule, lambda eps, h, B: handed.append((eps, h, B)))
        assert [eps for eps, _, _ in handed] == schedule
        assert rep.lambda_values == lambda_monotonicity_check(
            data, schedule).lambda_values
        for eps, h, B in handed:
            h_ref, B_ref = mollify(data, eps)
            assert np.array_equal(h.values, h_ref.values)
            assert np.array_equal(B.values, B_ref.values)

    def test_weak_star_consistency(self, grid32, rng):
        dens = ScalarField(
            grid32, 1.0 + 0.5 * random_band_limited(grid32, rng, 2, 1.0).values)
        data = RoughInitialData(grid32, h_density=dens,
                                atoms=(((0.3, 0.7, 0.2), 0.5, None),))
        tests = [random_band_limited(grid32, rng, 2, 1.0) for _ in range(10)]
        errs = []
        for eps in (0.2, 0.1, 0.05):
            h_eps, _ = mollify(data, eps)
            worst = 0.0
            for f in tests:
                approx = (h_eps.values * f.values).mean()
                # <h0, f>: the density's integral plus the atom's mass at f
                exact = ((dens.values * f.values).mean()
                         + 0.5 * eval_at(f, np.array([[0.3, 0.7, 0.2]]))[0])
                worst = max(worst, abs(approx - exact))
            errs.append(worst)
        assert errs[0] > errs[1] > errs[2]


class TestTextFormat:
    def test_parse_atoms_only(self, grid16):
        text = "# comment\natoms 2\n0.1 0.2 0.3 1.5\n0.5 0.5 0.5 0.25 0.1 0.0 -0.1\n"
        data = RoughInitialData.parse(text, grid16)
        assert len(data.atoms) == 2
        assert data.atoms[0] == ((0.1, 0.2, 0.3), 1.5, None)
        assert data.atoms[1][2] == (0.1, 0.0, -0.1)

    def test_parse_with_density_reference(self, grid16, tmp_path, rng):
        dens = 1.0 + 0.2 * random_band_limited(grid16, rng, 2, 1.0).values
        write_snapshot(tmp_path / "h0.abim", grid16, [dens])
        text = "density h0.abim\natoms 1\n0.5 0.5 0.5 1.0\n"
        data = RoughInitialData.parse(text, grid16, tmp_path)
        assert data.h_density is not None
        assert np.abs(data.h_density.values - dens).max() == 0.0

    def test_parse_rejects_missing_header(self, grid16):
        with pytest.raises(FieldDataError, match="atoms"):
            RoughInitialData.parse("0.1 0.2 0.3 1.0\n", grid16)

    def test_parse_rejects_bad_atom_line(self, grid16):
        with pytest.raises(FieldDataError, match="4 or 7"):
            RoughInitialData.parse("atoms 1\n0.1 0.2 0.3\n", grid16)

    @pytest.mark.parametrize("text", [
        "atoms 3\n0.1 0.2 0.3 1.0\n",                       # truncated list
        "atoms 1\n0.1 0.2 0.3 1.0\n0.5 0.5 0.5 2.0\n",     # extra atom line
        "atoms three\n0.1 0.2 0.3 1.0\n",                   # non-numeric count
        "atoms 1\n0.1 zero 0.3 1.0\n",                      # non-numeric coordinate
        "atoms\n0.1 0.2 0.3 1.0\n",                         # count missing
        "density\natoms 1\n0.1 0.2 0.3 1.0\n",             # bare density line
    ])
    def test_parse_rejects_malformed_file(self, grid16, text):
        with pytest.raises(FieldDataError):
            RoughInitialData.parse(text, grid16)

    def test_parse_rejects_negative_count(self, grid16, tmp_path):
        write_snapshot(tmp_path / "h0.abim", grid16, [np.ones(grid16.shape)])
        with pytest.raises(FieldDataError, match="counts -3"):
            RoughInitialData.parse("density h0.abim\natoms -3\n", grid16,
                                   tmp_path)

    def test_parse_rejects_two_field_density(self, grid16, tmp_path):
        ones = np.ones(grid16.shape)
        write_snapshot(tmp_path / "h0.abim", grid16, [ones, ones])
        with pytest.raises(FieldDataError, match="1 or 4 fields"):
            RoughInitialData.parse("density h0.abim\natoms 0\n", grid16,
                                   tmp_path)
