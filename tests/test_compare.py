import numpy as np
import pytest

from abimhd import compare
from abimhd.abi import AbiState, AbiTrajectory
from abimhd.cli import main
from abimhd.compare import (
    error_curves,
    fit_rate,
    rescaled_test_fields,
    run_sampled,
)
from abimhd.dmhd import DmhdState
from abimhd.fields import (
    FieldDataError,
    GridSpec,
    ScalarField,
    VectorField3,
)
from abimhd.stepping import BlowUpError
from conftest import single_mode_pair


class TestFitRate:
    def test_pure_cubic(self):
        t = np.geomspace(0.01, 0.1, 6)
        fit = fit_rate(t, 5.0 * t ** 3)
        assert fit.slope == pytest.approx(3.0, abs=1e-10)
        assert fit.residual < 1e-12

    def test_pure_quartic(self):
        t = np.geomspace(0.01, 0.1, 6)
        fit = fit_rate(t, 2.0 * t ** 4)
        assert fit.slope == pytest.approx(4.0, abs=1e-10)

    def test_floor_samples_excluded(self):
        t = np.array([0.01, 0.02, 0.04, 0.08, 0.16, 0.32])
        e = 1e-3 * t ** 3
        e[:2] = 1e-14   # below 10x the default floor
        fit = fit_rate(t, e)
        assert len(fit.times) == 4
        assert fit.slope == pytest.approx(3.0, abs=1e-6)

    def test_all_floor_refused(self):
        t = np.geomspace(0.01, 0.1, 6)
        with pytest.raises(FieldDataError, match="floor"):
            fit_rate(t, np.full(6, 1e-15))


def synthetic_abi_trajectory(grid, times, d_coeff=0.4, v_coeff=-0.2):
    """States with h = 1, constant B, and D = t c h, P = t c' h exactly."""
    states = []
    ones = ScalarField.constant(grid, 1.0)
    B = VectorField3.constant(grid, (0.3, 0.0, 0.1))
    for t in times:
        D = VectorField3.constant(grid, (t * d_coeff, 0.0, 0.0))
        P = VectorField3.constant(grid, (0.0, t * v_coeff, 0.0))
        states.append(AbiState(ones, B, D, P))
    return AbiTrajectory(list(times), states, [])


class TestRescaledTestFields:
    def test_stationary_trajectory(self, grid16):
        times = [0.0, 0.005, 0.01, 0.02]
        ones = ScalarField.constant(grid16, 1.0)
        zero = VectorField3.zero(grid16)
        states = [AbiState(ones, zero, zero, zero) for _ in times]
        frames = rescaled_test_fields(AbiTrajectory(times, states, []))
        for fr, t in zip(frames, times):
            assert fr.t == pytest.approx(t * t / 2.0)
            assert np.abs(fr.h_star_inv.values - 1.0).max() < 1e-14
            assert fr.d_star.sup_norm() < 1e-12
            assert fr.v_star.sup_norm() < 1e-12

    def test_linear_flux_gives_constant_fields(self, grid16):
        times = [0.0, 0.005, 0.01, 0.02, 0.04]
        traj = synthetic_abi_trajectory(grid16, times)
        frames = rescaled_test_fields(traj)
        for fr in frames:
            assert np.abs(fr.d_star.values[0] - 0.4).max() < 1e-10
            assert np.abs(fr.v_star.values[1] + 0.2).max() < 1e-10
            assert fr.dt_b_star.sup_norm() < 1e-10

    def test_theta_zero_limit_continuous(self, grid16):
        # d* approaches its limit linearly in theta on a genuine run
        h0, B0 = single_mode_pair(grid16)
        ts = [0.0025 * 2 ** k for k in range(5)]
        abi_traj, _ = run_sampled(h0, B0, ts, cfl_fraction=1.0)
        frames = rescaled_test_fields(abi_traj)
        d0 = frames[0].d_star.values
        gaps = np.array([np.abs(fr.d_star.values - d0).max()
                         for fr in frames[1:]])
        thetas = np.array([fr.t for fr in frames[1:]])
        slope = np.polyfit(np.log(thetas), np.log(gaps), 1)[0]
        assert 0.8 <= slope <= 1.3

    def test_rejects_coarse_initial_sampling(self, grid16):
        times = [0.0, 0.05, 0.1]
        traj = synthetic_abi_trajectory(grid16, times)
        with pytest.raises(FieldDataError, match="dt"):
            rescaled_test_fields(traj)


class TestErrorCurves:
    def test_trivial_runs_agree(self, grid16):
        h0 = ScalarField.constant(grid16, 1.0)
        B0 = VectorField3.zero(grid16)
        ts = [0.01, 0.02, 0.04]
        abi_traj, dmhd_traj = run_sampled(h0, B0, ts)
        series = error_curves(abi_traj, dmhd_traj)
        assert np.abs(series.err_h).max() < 1e-13
        assert np.abs(series.err_B).max() < 1e-13
        assert np.abs(series.cum_err_D).max() < 1e-13
        assert np.abs(series.cum_err_P).max() < 1e-13

    def test_grid_mismatch_rejected(self, grid16):
        h16, B16 = single_mode_pair(grid16)
        g8 = GridSpec(8)
        h8, B8 = single_mode_pair(g8)
        ts = [0.01, 0.02]
        a16, _ = run_sampled(h16, B16, ts)
        _, d8 = run_sampled(h8, B8, ts)
        with pytest.raises(FieldDataError, match="grid"):
            error_curves(a16, d8)

    def test_misaligned_samples_rejected(self, grid16):
        h0, B0 = single_mode_pair(grid16)
        a, _ = run_sampled(h0, B0, [0.01, 0.02])
        _, d = run_sampled(h0, B0, [0.011, 0.02])
        with pytest.raises(FieldDataError, match="theta"):
            error_curves(a, d)


class TestMeasuredRates:
    def test_slopes_and_doubling_ratios(self, grid16):
        # desk-scale version of the rate experiment; the strict n = 32
        # slope bands live in the acceptance suite. The pointwise errors
        # reach their ~8x doubling regime at the large-t end of the window
        # while the cumulative errors show ~16x doubling at the small-t
        # end, so each series is checked at its best adjacent pair.
        h0, B0 = single_mode_pair(grid16, 0.45, 0.9)
        ts = [0.00625 * 2 ** k for k in range(5)]
        abi_traj, dmhd_traj = run_sampled(h0, B0, ts, cfl_fraction=1.0)
        series = error_curves(abi_traj, dmhd_traj)
        slope_h = fit_rate(series.times, series.err_h).slope
        slope_D = fit_rate(series.times, series.cum_err_D).slope
        assert 2.5 <= slope_h <= 4.2
        assert 3.0 <= slope_D <= 4.7

        def best_pair(errors):
            return (errors[1:] / errors[:-1])

        for e in (series.err_h, series.err_B):
            ratios = best_pair(e)
            assert np.any((ratios >= 0.7 * 8.0) & (ratios <= 1.3 * 8.0))
        for e in (series.cum_err_D, series.cum_err_P):
            ratios = best_pair(e)
            assert np.any((ratios >= 0.7 * 16.0) & (ratios <= 1.3 * 16.0))


class TestBlowUpGuard:
    def test_runaway_step_aborts_as_numeric(self, tmp_path, monkeypatch):
        # a step that doubles B trips the blow-up guard within a few steps
        # instead of shrinking the CFL step until the fields overflow
        steps = []

        def runaway(s, dt):
            steps.append(dt)
            return AbiState(s.h, VectorField3(s.h.grid, 2.0 * s.B.values),
                            s.D, s.P)

        monkeypatch.setattr(compare, "abi_step", runaway)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 8\n")
        assert main(["compare", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 3
        assert len(steps) <= 10

    def test_diffusion_run_is_guarded(self, grid16, monkeypatch):
        monkeypatch.setattr(compare, "dmhd_step", lambda s, dt: DmhdState(
            s.h, VectorField3(s.h.grid, 2.0 * s.B.values)))
        h0, B0 = single_mode_pair(grid16)
        with pytest.raises(BlowUpError, match="sup norm"):
            compare.dmhd_run_at_times(DmhdState(h0, B0), [0.01, 0.02])
