import numpy as np
import pytest

from abimhd.dmhd import (
    DmhdState,
    constitutive,
    dissipation,
    dmhd_cfl_dt,
    dmhd_rhs,
    dmhd_run,
    dmhd_step,
    energy,
    energy_balance_residual,
)
from abimhd.abi import cross3
from abimhd.compare import dmhd_run_at_times
from abimhd.fields import (
    FieldDataError,
    GridSpec,
    ScalarField,
    VectorField3,
    guarded_reciprocal,
    random_band_limited,
    random_divergence_free,
)
from abimhd.stepping import StepSizeError
from conftest import fd_curl, fd_div, fd_grad, refine_field, single_mode_pair


def gentle_state(grid, rng, amp_h=0.05, amp_B=0.1):
    h = ScalarField(grid,
                    1.0 + amp_h * random_band_limited(grid, rng, 2, 1.0).values)
    B = random_divergence_free(grid, rng, 2, amp_B)
    return DmhdState(h, B)


class TestConstitutive:
    def test_uniform_state_is_rest(self, grid16):
        s = DmhdState(ScalarField.constant(grid16, 1.0),
                      VectorField3.constant(grid16, (0.2, -0.1, 0.4)))
        D, P = constitutive(s)
        assert D.sup_norm() < 1e-14
        assert P.sup_norm() < 1e-14

    def test_single_mode_closed_form(self, grid16):
        h = ScalarField.constant(grid16, 1.0)
        B = VectorField3.from_function(
            grid16, lambda x, y, z: (0 * x, 0 * x, np.sin(2 * np.pi * x)))
        D, P = constitutive(DmhdState(h, B))
        x = grid16.mesh[0]
        assert np.abs(D.values[1] + 2 * np.pi * np.cos(2 * np.pi * x)).max() < 1e-12
        assert np.abs(D.values[[0, 2]]).max() < 1e-13
        # B (x) B has only the zz entry sin^2(2 pi x), whose rows are
        # divergence-free here, and grad(1/h) = 0
        assert P.sup_norm() < 1e-12

    def test_matches_finite_differences(self, rng):
        errs = {}
        for n in (16, 32):
            g = GridSpec(n)
            s = gentle_state(g, rng)
            D, P = constitutive(s)
            h, B = s.h.values, s.B.values
            r = 1.0 / h
            D_fd = fd_curl(g, B * r)
            P_fd = fd_grad(g, r)
            for i in range(3):
                P_fd[i] += fd_div(g, B[i] * B * r)
            errs[n] = max(np.abs(D.values - D_fd).max(),
                          np.abs(P.values - P_fd).max())
        assert errs[32] < errs[16] / 3.0


class TestRhs:
    def test_uniform_stationary(self, grid16):
        s = DmhdState(ScalarField.constant(grid16, 3.0),
                      VectorField3.constant(grid16, (0.1, 0.2, 0.3)))
        dh, dB = dmhd_rhs(s)
        assert dh.sup_norm() == 0.0
        assert dB.sup_norm() == 0.0

    def test_mass_flux_integrates_to_zero(self, grid16, rng):
        s = gentle_state(grid16, rng)
        dh, _ = dmhd_rhs(s)
        assert abs(dh.values.mean()) < 1e-13

    def test_matches_finite_differences(self, rng):
        errs = {}
        for n in (16, 32):
            g = GridSpec(n)
            s = gentle_state(g, rng)
            dh, dB = dmhd_rhs(s)
            h, B = s.h.values, s.B.values
            r = 1.0 / h
            D_fd = fd_curl(g, B * r)
            P_fd = fd_grad(g, r)
            for i in range(3):
                P_fd[i] += fd_div(g, B[i] * B * r)
            dh_fd = -fd_div(g, P_fd)
            dB_fd = -fd_curl(g, cross3(B, P_fd * r) + D_fd * r)
            errs[n] = max(np.abs(dh.values - dh_fd).max(),
                          np.abs(dB.values - dB_fd).max())
        assert errs[32] < errs[16] / 2.5

    def test_two_assembly_orders_agree(self, grid16, rng):
        # eliminating the displacement first must reproduce
        # -curl(B x v) - curl(h^-1 curl(h^-1 B)) on smooth states
        s = gentle_state(grid16, rng, amp_h=0.02, amp_B=0.05)
        g = grid16
        h, B = s.h.values, s.B.values
        _, dB = dmhd_rhs(s)
        da = g.dealias_arr
        r = guarded_reciprocal(h)
        _, P = constitutive(s)
        v = da(P.values * r)
        direct = (-g.curl_arr(da(cross3(B, v)))
                  - g.curl_arr(da(r * g.curl_arr(da(r * B)))))
        assert np.abs(dB.values - direct).max() < 1e-8


class TestStep:
    def test_stationary_fixed_point(self, grid16):
        s = DmhdState(ScalarField.constant(grid16, 2.0),
                      VectorField3.constant(grid16, (0.3, 0.1, 0.0)))
        s2 = dmhd_step(s, dmhd_cfl_dt(s) * 0.9)
        assert np.abs(s2.h.values - s.h.values).max() < 1e-12
        assert np.abs(s2.B.values - s.B.values).max() < 1e-12

    def test_rejects_large_dt(self, grid16, rng):
        s = gentle_state(grid16, rng)
        bound = dmhd_cfl_dt(s)
        with pytest.raises(StepSizeError):
            dmhd_step(s, 5.0 * bound)

    def test_observed_order_near_four(self, rng):
        g = GridSpec(16)
        s = gentle_state(g, rng, amp_h=0.1, amp_B=0.2)
        dt = dmhd_cfl_dt(s) * 0.5
        n = 8

        def advance(step, count):
            out = s
            for _ in range(count):
                out = dmhd_step(out, step)
            return out

        full = advance(dt, n)
        half = advance(dt / 2, 2 * n)
        quarter = advance(dt / 4, 4 * n)
        order = np.log2(np.abs(full.B.values - half.B.values).max()
                        / np.abs(half.B.values - quarter.B.values).max())
        assert 3.5 <= order <= 4.5


class TestEnergy:
    def test_rest_energy(self, grid16):
        s = DmhdState(ScalarField.constant(grid16, 1.0),
                      VectorField3.zero(grid16))
        assert energy(s) == pytest.approx(0.5)
        assert dissipation(s) < 1e-20

    def test_single_mode_energy(self, grid16):
        B = VectorField3.from_function(
            grid16, lambda x, y, z: (0 * x, 0 * x, np.sin(2 * np.pi * x)))
        s = DmhdState(ScalarField.constant(grid16, 1.0), B)
        assert energy(s) == pytest.approx(0.75)

    def test_matches_refined_quadrature(self, grid16, rng):
        s = gentle_state(grid16, rng)
        coarse = energy(s)
        hf = refine_field(grid16, s.h.values)
        Bf = np.stack([refine_field(grid16, b) for b in s.B.values])
        fine = (((Bf ** 2).sum(0) + 1.0) / (2.0 * hf)).mean()
        assert abs(coarse - fine) < 1e-8


class TestRunInvariants:
    def test_monotone_energy_and_conservation(self, grid16):
        h0, B0 = single_mode_pair(grid16)
        s0 = DmhdState(h0, B0)
        dt = dmhd_cfl_dt(s0) * 0.9
        traj = dmhd_run(s0, dt, 60)
        e = traj.energies()
        assert np.all(np.diff(e) <= 1e-10)
        mass = np.array([row[3] for row in traj.diagnostics])
        assert np.abs(mass - mass[0]).max() < 1e-10
        divb = np.array([row[4] for row in traj.diagnostics])
        assert divb.max() < 1e-10
        # dissipation is strictly active away from rest
        assert e[-1] < e[0]

    def test_energy_balance_residual(self, grid16):
        h0, B0 = single_mode_pair(grid16)
        s0 = DmhdState(h0, B0)
        dt = dmhd_cfl_dt(s0) * 0.8
        traj = dmhd_run(s0, dt, 40)
        res = energy_balance_residual(traj, dt)
        assert np.abs(res).max() < 1e-3 * energy(s0)

    def test_residual_second_order_in_dt(self, grid16):
        h0, B0 = single_mode_pair(grid16)
        s0 = DmhdState(h0, B0)
        dt = dmhd_cfl_dt(s0) * 0.8
        r1 = np.abs(energy_balance_residual(dmhd_run(s0, dt, 16), dt)).max()
        r2 = np.abs(energy_balance_residual(dmhd_run(s0, dt / 2, 32), dt / 2)).max()
        assert r1 / r2 == pytest.approx(4.0, rel=0.35)

    def test_energy_balance_reads_per_step_diagnostics(self, grid16):
        h0, B0 = single_mode_pair(grid16)
        s0 = DmhdState(h0, B0)
        dt = dmhd_cfl_dt(s0) * 0.8
        traj = dmhd_run(s0, dt, 4, save_every=4)
        assert len(traj.states) == 2
        assert energy_balance_residual(traj, dt).shape == (4,)
        sampled = dmhd_run_at_times(s0, [dt, 2 * dt])
        with pytest.raises(FieldDataError, match="diagnostic rows"):
            energy_balance_residual(sampled, dt)

    def test_stationary_run_residual_zero(self, grid16):
        s0 = DmhdState(ScalarField.constant(grid16, 2.0),
                       VectorField3.constant(grid16, (0.1, 0.0, 0.2)))
        traj = dmhd_run(s0, 1e-5, 5)
        res = energy_balance_residual(traj, 1e-5)
        assert np.abs(res).max() < 1e-14
