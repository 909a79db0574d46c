import logging

import numpy as np
import pytest

from abimhd.dmhd import DmhdState, _constitutive_arrays, dmhd_cfl_dt, dmhd_run
from abimhd.fields import (
    FieldDataError,
    GridSpec,
    PositivityError,
    ScalarField,
    VectorField3,
    eval_at,
    random_band_limited,
    random_divergence_free,
)
from abimhd.galerkin import (
    BasisSpec,
    CoefficientTrajectory,
    GalerkinConfig,
    GalerkinState,
    ModalScalar,
    ModalVector,
    TrigBasis,
    UniformField,
    flow_map,
    galerkin_run,
    mass_apply,
    mass_solve,
    picard_iterate,
    positive_wavevectors,
    transport_B,
    transport_h,
)
from abimhd.galerkin import _march
from abimhd.stepping import StepSizeError, rk4_step
from conftest import naive_trig_eval, single_mode_pair


@pytest.fixture
def tb16(grid16):
    return TrigBasis(BasisSpec(7), grid16)


def shear_trajectory(tb):
    """v = (sin 2 pi y, 0, 0), constant in time."""
    kv = tb.basis.wavevectors
    idx = next(i for i, k in enumerate(kv) if tuple(k) == (0, 1, 0))
    coeffs = np.zeros((3, tb.basis.num_functions))
    coeffs[0, idx] = 1.0 / np.sqrt(2.0)
    return CoefficientTrajectory.constant((0.0, 1.0), coeffs)


class TestBasis:
    def test_enumeration_deterministic(self):
        kv = positive_wavevectors(7)
        assert kv.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 1, -1],
                               [0, 1, 1], [1, -1, 0], [1, 0, -1]]

    def test_enumeration_in_half_lattice(self):
        kv = positive_wavevectors(60)
        assert len(np.unique(kv, axis=0)) == 60
        for n1, n2, n3 in kv:
            assert (n1 > 0 or (n1 == 0 and n2 > 0)
                    or (n1 == 0 and n2 == 0 and n3 > 0))
        norms = (kv ** 2).sum(1)
        assert np.all(np.diff(norms) >= 0)

    def test_orthonormality(self, grid16):
        for N in (7, 33):
            tb = TrigBasis(BasisSpec(N), grid16)
            assert tb.orthonormality_defect() < 1e-10

    def test_rejects_unresolvable_wavevectors(self):
        g = GridSpec(4)
        with pytest.raises(FieldDataError):
            TrigBasis(BasisSpec(20), g)


def direct_basis_oracle(kvecs, coeffs, pts):
    """Value and Jacobian of sum_k c_s sqrt2 sin + c_c sqrt2 cos of 2 pi k.x,
    from one direct exp(2 pi i k.x) per (point, mode)."""
    N = len(kvecs)
    ph = np.exp(2j * np.pi * (pts @ kvecs.T))
    sin, cos = np.sqrt(2.0) * ph.imag, np.sqrt(2.0) * ph.real
    cs, cc = coeffs[:, :N], coeffs[:, N:]
    val = sin @ cs.T + cos @ cc.T
    w = 2.0 * np.pi * kvecs
    jac = np.stack([(cos * w[:, j]) @ cs.T - (sin * w[:, j]) @ cc.T
                    for j in range(3)], axis=2)
    return val, jac


def relative_error(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestPointEvaluation:
    """Point-side basis and modal sums against the direct exponentials."""

    @pytest.mark.parametrize("N", [7, 33])
    def test_basis_matches_direct_formula(self, grid16, rng, N):
        tb = TrigBasis(BasisSpec(N), grid16)
        coeffs = rng.standard_normal((3, 2 * N))
        pts = rng.uniform(-2.0, 3.0, (700, 3))       # off-grid, outside [0,1)
        val, jac = direct_basis_oracle(tb.kvecs, coeffs, pts)
        assert relative_error(tb.eval(pts, coeffs), val) < 1e-13
        assert relative_error(tb.eval_jacobian(pts, coeffs), jac) < 1e-13
        div_ref = np.trace(jac, axis1=1, axis2=2)
        assert relative_error(tb.eval_div(pts, coeffs), div_ref) < 1e-13
        curl_ref = np.stack([jac[:, 2, 1] - jac[:, 1, 2],
                             jac[:, 0, 2] - jac[:, 2, 0],
                             jac[:, 1, 0] - jac[:, 0, 1]], axis=1)
        assert relative_error(tb.eval_curl(pts, coeffs), curl_ref) < 1e-13

    def test_modal_scalar_matches_direct_formula(self, grid16, rng):
        f = random_band_limited(grid16, rng, kmax=5, amplitude=1.0)
        modal = ModalScalar.from_field(f)
        pts = rng.uniform(-1.5, 2.5, (600, 3))
        ref = (np.exp(2j * np.pi * (pts @ modal.kvecs.T)) @ modal.coeffs).real
        assert relative_error(modal.eval(pts), ref) < 1e-13

    def test_modal_scalar_non_integer_wavevectors(self, rng):
        # repeated, zero and negative components exercise the shared factors
        kvecs = rng.choice([-2.5, -0.75, 0.0, 0.3, 1.0, 2.5], size=(40, 3))
        coeffs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        modal = ModalScalar(kvecs, coeffs)
        pts = rng.uniform(-3.0, 3.0, (300, 3))
        ref = (np.exp(2j * np.pi * (pts @ kvecs.T)) @ coeffs).real
        assert relative_error(modal.eval(pts), ref) < 1e-13

    def test_eval_at_matches_direct_formula_off_grid(self, rng):
        g = GridSpec(8)
        F = random_divergence_free(g, rng, kmax=3, amplitude=1.0)
        pts = rng.uniform(-2.0, 3.0, (300, 3))
        ref = np.stack([naive_trig_eval(g, F.values[i], pts)
                        for i in range(3)], axis=1)
        assert relative_error(eval_at(F, pts), ref) < 1e-13


class TestPointTableMemo:
    """The held (points, table) pair never serves another point set."""

    def test_points_changed_in_place(self, tb16, rng):
        coeffs = rng.standard_normal((3, 14))
        pts = rng.random((50, 3))
        tb16.eval(pts, coeffs)
        pts += 0.137
        val, jac = direct_basis_oracle(tb16.kvecs, coeffs, pts)
        assert relative_error(tb16.eval(pts, coeffs), val) < 1e-13
        assert relative_error(tb16.eval_jacobian(pts, coeffs), jac) < 1e-13

    def test_alternating_point_sets(self, tb16, rng):
        coeffs = rng.standard_normal((3, 14))
        sets = [rng.random((40, 3)), rng.random((40, 3)), rng.random((30, 3))]
        refs = [direct_basis_oracle(tb16.kvecs, coeffs, p) for p in sets]
        for i in (0, 1, 0, 2, 1, 2, 0):
            assert relative_error(tb16.eval(sets[i], coeffs),
                                  refs[i][0]) < 1e-13
            assert relative_error(tb16.eval_jacobian(sets[i], coeffs),
                                  refs[i][1]) < 1e-13

    def test_threads_get_their_own_points(self, tb16, rng):
        import sys
        import threading

        coeffs = rng.standard_normal((3, 14))
        sets = [rng.random((64, 3)) for _ in range(4)]
        refs = [direct_basis_oracle(tb16.kvecs, coeffs, p) for p in sets]
        wrong = []

        def work(i):
            for _ in range(200):
                if (relative_error(tb16.eval(sets[i], coeffs),
                                   refs[i][0]) > 1e-13
                        or relative_error(tb16.eval_jacobian(sets[i], coeffs),
                                          refs[i][1]) > 1e-13):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(sets))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_zero_length_march_calls_no_rates(self, rng):
        def rates(*state):
            raise AssertionError("a march of length 0 evaluated its rates")

        y = (rng.random((5, 3)), np.zeros(5))
        assert _march(rates, 0.25, 0.25, y, 1e-3) is y


class TestMassOperator:
    def test_constant_density_is_scaling(self, tb16, grid16, rng):
        rho = np.full(grid16.shape, 2.5)
        chi = rng.standard_normal((3, 14))
        out = mass_solve(tb16, rho, chi)
        assert np.abs(out - chi / 2.5).max() < 1e-12
        back = mass_apply(tb16, rho, out)
        assert np.abs(back - chi).max() < 1e-12

    def test_solve_then_apply_roundtrip(self, tb16, grid16, rng):
        rho = 1.0 + 0.4 * random_band_limited(grid16, rng, 2, 1.0).values
        c = rng.standard_normal((3, 14))
        back = mass_solve(tb16, rho, mass_apply(tb16, rho, c))
        assert np.abs(back - c).max() < 1e-10

    def test_inverse_norm_bound(self, tb16, grid16, rng):
        rho = 0.5 + 0.5 * np.abs(random_band_limited(grid16, rng, 2, 1.0).values)
        G = tb16.gram(rho)
        # power iteration on G^-1 via repeated solves
        v = rng.standard_normal(tb16.basis.num_functions)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(200):
            w = np.linalg.solve(G, v)
            lam = np.linalg.norm(w)
            v = w / lam
        assert lam <= 1.0 / rho.min() + 1e-8

    def test_rejects_nonpositive_density(self, tb16, grid16):
        rho = np.zeros(grid16.shape)
        with pytest.raises(PositivityError):
            mass_solve(tb16, rho, np.zeros((3, 14)))

    @pytest.mark.parametrize("shape", [(3, 15), (14, 3)])
    def test_rejects_coefficients_of_the_wrong_shape(self, tb16, grid16,
                                                     shape):
        # (14, 3) has 2N * 3 entries, which a flat regrouping would accept
        with pytest.raises(FieldDataError):
            mass_solve(tb16, np.ones(grid16.shape), np.zeros(shape))

    @pytest.mark.parametrize("N", [7, 33])
    def test_stacked_solve_matches_separate_solves(self, grid16, rng, N):
        tb = TrigBasis(BasisSpec(N), grid16)
        rho = 1.0 + 0.4 * random_band_limited(grid16, rng, 2, 1.0).values
        chi = rng.standard_normal((2, 3, 2 * N))
        stacked = mass_solve(tb, rho, chi)
        separate = np.stack([mass_solve(tb, rho, chi[0]),
                             mass_solve(tb, rho, chi[1])])
        oracle = np.linalg.solve(tb.gram(rho), chi.reshape(6, 2 * N).T)
        oracle = oracle.T.reshape(chi.shape)
        scale = np.abs(oracle).max()
        assert stacked.shape == chi.shape
        assert np.abs(stacked - separate).max() <= 1e-13 * scale
        assert np.abs(stacked - oracle).max() <= 1e-13 * scale
        assert np.abs(separate - oracle).max() <= 1e-13 * scale

    def test_inverse_lipschitz_in_density(self, tb16, grid16, rng):
        # || M^-1[rho1] - M^-1[rho2] || should scale at most linearly with
        # || rho1 - rho2 ||_{L^1}; measure the empirical constant at three
        # perturbation sizes and require monotone, near-linear growth
        base = 1.0 + 0.3 * random_band_limited(grid16, rng, 2, 1.0).values
        bump = random_band_limited(grid16, rng, 2, 1.0).values
        G0_inv = np.linalg.inv(tb16.gram(base))
        diffs, dists = [], []
        for scale in (0.05, 0.1, 0.2):
            rho = base + scale * bump
            assert rho.min() > 0.4
            Gi = np.linalg.inv(tb16.gram(rho))
            diffs.append(np.linalg.norm(Gi - G0_inv, 2))
            dists.append(np.abs(rho - base).mean())
        assert diffs[0] < diffs[1] < diffs[2]
        c_small = diffs[0] / dists[0]
        c_large = diffs[2] / dists[2]
        assert c_large < 2.0 * c_small


class TestFlowMap:
    def test_zero_velocity(self, tb16, rng):
        x = rng.random((6, 3))
        zero = CoefficientTrajectory.constant((0.0, 1.0), np.zeros((3, 14)))
        out = flow_map(tb16, zero, 0.4, 0.0, x)
        assert np.abs(out - x).max() < 1e-14

    def test_constant_velocity(self, tb16, rng):
        x = rng.random((6, 3))
        c = np.array([0.3, -0.2, 0.7])
        out = flow_map(tb16, UniformField(c), 0.5, 0.2, x)
        assert np.abs(out - (x + 0.3 * c) % 1.0).max() < 1e-13

    def test_shear_closed_form(self, tb16, rng):
        x = rng.random((8, 3))
        t = 0.2
        out = flow_map(tb16, shear_trajectory(tb16), t, 0.0, x, dt_flow=1e-3)
        exact = np.stack([x[:, 0] + t * np.sin(2 * np.pi * x[:, 1]),
                          x[:, 1], x[:, 2]], axis=1) % 1.0
        assert np.abs(out - exact).max() < 1e-8


def upwind_1d_oracle(hx, vx, t_end, cells):
    """First-order conservative upwind for dt h + dx(h v) = 0, periodic."""
    x = (np.arange(cells) + 0.5) / cells
    h = hx(x)
    v_face = vx((np.arange(cells)) / cells)   # faces at x_i - dx/2
    dx = 1.0 / cells
    dt = 0.4 * dx / np.abs(v_face).max()
    steps = int(np.ceil(t_end / dt))
    dt = t_end / steps
    for _ in range(steps):
        h_left = np.roll(h, 1)
        flux = np.where(v_face > 0, h_left * v_face, h * v_face)
        h = h - dt / dx * (np.roll(flux, -1) - flux)
    return x, h


class TestTransport:
    def test_h_pure_advection_and_mass(self, tb16, grid16):
        h0 = ScalarField.from_function(
            grid16,
            lambda x, y, z: 1.0 + 0.3 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
        t = 0.2
        ht = transport_h(tb16, shear_trajectory(tb16),
                         ModalScalar.from_field(h0), t, grid16)
        x, y = grid16.mesh[0], grid16.mesh[1]
        exact = 1.0 + 0.3 * np.cos(
            2 * np.pi * (x - t * np.sin(2 * np.pi * y))) * np.sin(2 * np.pi * y)
        assert np.abs(ht.values - exact).max() < 1e-8
        assert abs(ht.values.mean() - h0.values.mean()) < 1e-8

    def test_h_zero_velocity(self, tb16, grid16, rng):
        h0 = ScalarField(grid16,
                         1.0 + 0.2 * random_band_limited(grid16, rng, 2, 1.0).values)
        zero = CoefficientTrajectory.constant((0.0, 1.0), np.zeros((3, 14)))
        ht = transport_h(tb16, zero, ModalScalar.from_field(h0), 0.3, grid16)
        assert np.abs(ht.values - h0.values).max() < 1e-12

    def test_h_compressive_matches_upwind_oracle(self, tb16, grid16):
        # 1D compressive velocity v = (sin 2 pi x, 0, 0)
        kv = tb16.basis.wavevectors
        idx = next(i for i, k in enumerate(kv) if tuple(k) == (1, 0, 0))
        coeffs = np.zeros((3, 14))
        coeffs[0, idx] = 1.0 / np.sqrt(2.0)
        vtraj = CoefficientTrajectory.constant((0.0, 1.0), coeffs)
        h0 = ScalarField.from_function(
            grid16, lambda x, y, z: 1.0 + 0.3 * np.sin(2 * np.pi * x))
        t = 0.03
        ht = transport_h(tb16, vtraj, ModalScalar.from_field(h0), t, grid16,
                         dt_flow=5e-4)
        xs, h_oracle = upwind_1d_oracle(
            lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x),
            lambda x: np.sin(2 * np.pi * x), t, 8192)
        from abimhd.fields import eval_at
        pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
        mine = eval_at(ScalarField(grid16, ht.values), pts)
        assert np.abs(mine - h_oracle).max() < 1e-4

    def test_B_trivial(self, tb16, grid16):
        B0 = VectorField3.from_function(
            grid16, lambda x, y, z: (0.2 * np.sin(2 * np.pi * y), 0 * x, 0 * x))
        zero = CoefficientTrajectory.constant((0.0, 1.0), np.zeros((3, 14)))
        Bt = transport_B(tb16, zero, zero, ModalVector.from_field(B0), 0.15,
                         grid16)
        assert np.abs(Bt.values - B0.values).max() < 1e-12

    def test_B_constant_drift(self, tb16, grid16):
        B0 = VectorField3.from_function(
            grid16, lambda x, y, z: (0.2 * np.sin(2 * np.pi * y), 0 * x, 0 * x))
        c = np.array([0.0, 0.5, 0.0])
        Bt = transport_B(tb16, UniformField(c), UniformField((0, 0, 0)),
                         ModalVector.from_field(B0), 0.2, grid16)
        y = grid16.mesh[1]
        exact = 0.2 * np.sin(2 * np.pi * (y - 0.2 * 0.5))
        assert np.abs(Bt.values[0] - exact).max() < 1e-10
        assert np.abs(Bt.values[1:]).max() < 1e-12

    def test_B_matches_spectral_lines(self, tb16, grid16, rng):
        # generic small run against direct spectral integration of the
        # induction equation with the same (d, v)
        g = grid16
        kv = tb16.basis.wavevectors
        coeffs_v = np.zeros((3, 14))
        coeffs_d = np.zeros((3, 14))
        idx_y = next(i for i, k in enumerate(kv) if tuple(k) == (0, 1, 0))
        idx_x = next(i for i, k in enumerate(kv) if tuple(k) == (1, 0, 0))
        coeffs_v[0, idx_y] = 0.3 / np.sqrt(2.0)
        coeffs_v[2, idx_x] = 0.2 / np.sqrt(2.0)
        coeffs_d[1, idx_x] = 0.25 / np.sqrt(2.0)
        vtraj = CoefficientTrajectory.constant((0.0, 1.0), coeffs_v)
        dtraj = CoefficientTrajectory.constant((0.0, 1.0), coeffs_d)
        B0 = VectorField3.from_function(
            g, lambda x, y, z: (0.2 * np.sin(2 * np.pi * y), 0 * x, 0 * x))
        t_end = 0.05
        Bt = transport_B(tb16, vtraj, dtraj, ModalVector.from_field(B0),
                         t_end, g, dt_flow=2.5e-4)

        from abimhd.abi import cross3
        v_grid = tb16.synthesize(coeffs_v)
        d_grid = tb16.synthesize(coeffs_d)

        def rhs(y):
            (B,) = y
            return (-g.curl_arr(g.dealias_arr(cross3(B, v_grid)) + d_grid),)

        B = B0.values
        n = 100
        for _ in range(n):
            (B,) = rk4_step((B,), t_end / n, rhs)
        assert np.abs(Bt.values - B).max() < 1e-5
        assert np.abs(g.div_arr(Bt.values)).max() < 1e-6

    def test_B_one_march_per_node(self, tb16, grid16, monkeypatch):
        # B takes one backward march: per RK stage one value and one
        # Jacobian of v and one curl of d, and no second march for the feet
        counts = {"eval": 0, "eval_jacobian": 0}
        for name in counts:
            original = getattr(TrigBasis, name)

            def counted(self, *args, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(TrigBasis, name, counted)
        B0 = VectorField3.from_function(
            grid16, lambda x, y, z: (0.2 * np.sin(2 * np.pi * y), 0 * x, 0 * x))
        nsub = 3
        transport_B(tb16, shear_trajectory(tb16), shear_trajectory(tb16),
                    ModalVector.from_field(B0), 2.5e-3, grid16, dt_flow=1e-3)
        assert counts == {"eval": 4 * nsub, "eval_jacobian": 8 * nsub}

    def test_B_matches_fine_reference(self, rng):
        # coefficients linear in time; the default dt_flow against 400 substeps
        g = GridSpec(8)
        tb = TrigBasis(BasisSpec(7), g)
        c = 0.3 * rng.standard_normal((2, 2, 3, 14))
        times = np.array([0.0, 0.05])
        vtraj = CoefficientTrajectory(times, c[:, 0])
        dtraj = CoefficientTrajectory(times, c[:, 1])
        B0 = ModalVector.from_field(random_divergence_free(g, rng, 2, 0.3))
        t = 0.02
        Bt = transport_B(tb, vtraj, dtraj, B0, t, g)
        ref = transport_B(tb, vtraj, dtraj, B0, t, g, dt_flow=t / 400)
        assert np.abs(Bt.values - ref.values).max() < 1e-5


class TestModalScalar:
    def test_full_spectrum_eval_is_bounded_and_exact(self, grid16, rng):
        # every one of the n^3 modes at every grid point, point-chunked
        import tracemalloc

        f = ScalarField(grid16, rng.standard_normal(grid16.shape))
        modal = ModalScalar.from_field(f)
        assert len(modal.coeffs) == grid16.num_points
        pts = np.stack([m.ravel() for m in grid16.mesh], axis=1)
        tracemalloc.start()
        try:
            vals = modal.eval(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6
        np.testing.assert_allclose(vals, eval_at(f, pts), rtol=0, atol=1e-12)
        np.testing.assert_allclose(vals, f.values.ravel(), rtol=0, atol=1e-10)


def consistent_galerkin_data(grid):
    h0, B0 = single_mode_pair(grid)
    D0a, P0a = _constitutive_arrays(grid, h0.values, B0.values)
    return h0, B0, VectorField3(grid, D0a), VectorField3(grid, P0a)


class TestGalerkinRun:
    def test_trivial_data_stationary(self, grid16):
        zero = VectorField3.zero(grid16)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=5e-4, T=0.005)
        traj = galerkin_run(ScalarField.constant(grid16, 1.0), zero, zero,
                            zero, cfg)
        lam = traj.lambda_series()
        assert np.abs(lam - 0.5).max() < 1e-14
        assert np.abs(traj.states[-1].d_coeffs).max() < 1e-14

    def test_lambda_monotone_and_budget(self, grid16):
        h0, B0 = single_mode_pair(grid16)
        zero = VectorField3.zero(grid16)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=0.02)
        traj = galerkin_run(h0, B0, zero, zero, cfg)
        lam = traj.lambda_series()
        assert np.all(np.diff(lam) <= 1e-10)
        # energy budget: final energy plus cumulative dissipation and
        # hyperviscous integrals accounts for the initial energy
        diag = np.array(traj.diagnostics)
        t, diss, hyper = diag[:, 0], diag[:, 2], diag[:, 3]
        cum = np.trapezoid(diss + hyper, t)
        assert lam[-1] + cum <= lam[0] * (1.0 + 1e-6)
        assert lam[-1] + cum >= lam[0] * (1.0 - 1e-3)

    def test_h_bounds_and_mass(self, grid16):
        h0, B0, D0, P0 = consistent_galerkin_data(grid16)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=0.01)
        traj = galerkin_run(h0, B0, D0, P0, cfg)
        tb = TrigBasis(BasisSpec(7), grid16)
        masses = [s.h.values.mean() for s in traj.states]
        assert np.abs(np.array(masses) - masses[0]).max() < 1e-8
        # density bounds from the accumulated sup of div v
        times = np.array(traj.times)
        sup_div = np.array([
            np.abs(grid16.div_arr(tb.synthesize(s.v_coeffs))).max()
            for s in traj.states])
        acc = np.concatenate([[0.0], np.cumsum(
            0.5 * np.diff(times) * (sup_div[1:] + sup_div[:-1]))])
        lo = np.exp(-acc) * h0.values.min()
        hi = np.exp(acc) * h0.values.max()
        for k, s in enumerate(traj.states):
            assert s.h.values.min() >= lo[k] * (1.0 - 1e-6)
            assert s.h.values.max() <= hi[k] * (1.0 + 1e-6)

    def test_rhs_stationary_for_uniform_state(self, grid16):
        from abimhd.galerkin import galerkin_rhs
        zero = VectorField3.zero(grid16)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1)
        tb = TrigBasis(BasisSpec(7), grid16)
        state = GalerkinState(0.0, ScalarField.constant(grid16, 1.0),
                              VectorField3.constant(grid16, (0.2, 0.0, 0.1)),
                              np.zeros((3, 14)), np.zeros((3, 14)))
        dh, dB, cd_dot, cv_dot = galerkin_rhs(state, tb, cfg)
        assert dh.sup_norm() < 1e-13
        assert dB.sup_norm() < 1e-13
        assert np.abs(cd_dot).max() < 1e-12
        assert np.abs(cv_dot).max() < 1e-12

    def test_rhs_projection_matches_direct_quadrature(self, grid16, rng):
        # an independently assembled <source, basis> quadrature at one mode
        from abimhd.galerkin import _galerkin_rhs_arrays, _grid_sources
        tb = TrigBasis(BasisSpec(7), grid16)
        cfg = GalerkinConfig(N=7, eps=0.2, l=1)
        h0, B0, D0, P0 = consistent_galerkin_data(grid16)
        chi_d = tb.project(D0.values)
        chi_v = tb.project(P0.values)
        dh, dB, s_d, s_v = _galerkin_rhs_arrays(
            grid16, tb, (h0.values, B0.values, chi_d, chi_v), cfg)
        cd = mass_solve(tb, h0.values, chi_d)
        cv = mass_solve(tb, h0.values, chi_v)
        d = tb.synthesize(cd)
        v = tb.synthesize(cv)
        S, Ngrid = _grid_sources(grid16, h0.values, B0.values, d, v, cfg.eps)
        kvec = tb.basis.wavevectors[3]
        x, y, z = grid16.mesh
        phase = 2 * np.pi * (kvec[0] * x + kvec[1] * y + kvec[2] * z)
        for comp in range(3):
            direct_sin = (np.sqrt(2) * np.sin(phase) * (
                S[comp] - grid16.hyper_laplacian_arr(d, cfg.l)[comp]
                - (h0.values * d[comp]) / cfg.eps)).mean()
            assert abs(direct_sin - s_d[comp, 3]) < 1e-8

    def test_eps_controls_relaxation_speed(self, grid16):
        # larger eps relaxes d toward curl(B/h)/h more slowly
        h0, B0 = single_mode_pair(grid16)
        zero = VectorField3.zero(grid16)
        tb = TrigBasis(BasisSpec(7), grid16)

        def defect_history(eps):
            cfg = GalerkinConfig(N=7, eps=eps, l=1, dt=4e-4, T=0.06)
            traj = galerkin_run(h0, B0, zero, zero, cfg)
            out = []
            for s in traj.states:
                D, _ = _constitutive_arrays(grid16, s.h.values, s.B.values)
                d = tb.synthesize(s.d_coeffs)
                out.append(float(np.abs(s.h.values * d - D).max()))
            return np.array(out), np.array(traj.times)

        slow, t_slow = defect_history(0.5)
        fast, t_fast = defect_history(0.05)

        def halving_time(vals, times):
            target = vals[0] / 2.0
            idx = np.argmax(vals <= target)
            return times[idx] if vals[idx] <= target else np.inf

        assert halving_time(fast, t_fast) < halving_time(slow, t_slow)

    def test_steps_reuse_the_observed_gram_solve(self, grid16, monkeypatch):
        # each step's first RK stage takes (cd, cv) from the observation of
        # the state it starts from: 5 steps made 27 Gram builds when every
        # stage solved again, and the outputs equal that path's bit for bit
        import abimhd.galerkin as galerkin

        h0, B0, D0, P0 = consistent_galerkin_data(grid16)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=1e-3)
        calls = []
        gram = TrigBasis.gram
        monkeypatch.setattr(TrigBasis, "gram",
                            lambda tb, rho: calls.append(1) or gram(tb, rho))
        fast = galerkin_run(h0, B0, D0, P0, cfg)
        assert len(calls) <= 22
        honest = galerkin._galerkin_rhs_arrays
        monkeypatch.setattr(galerkin, "_galerkin_rhs_arrays",
                            lambda g, tb, y, cfg, coeffs=None:
                            honest(g, tb, y, cfg))
        calls.clear()
        slow = galerkin_run(h0, B0, D0, P0, cfg)
        assert len(calls) == 27
        assert fast.times == slow.times
        assert fast.diagnostics == slow.diagnostics
        for a, b in zip(fast.states, slow.states, strict=True):
            for x, y in ((a.h.values, b.h.values), (a.B.values, b.B.values),
                         (a.d_coeffs, b.d_coeffs), (a.v_coeffs, b.v_coeffs)):
                assert np.array_equal(x, y)

    def test_rejects_unstable_dt(self, grid16):
        h0, B0 = single_mode_pair(grid16)
        zero = VectorField3.zero(grid16)
        cfg = GalerkinConfig(N=7, eps=0.1, l=2, dt=1.0, T=2.0)
        with pytest.raises(StepSizeError):
            galerkin_run(h0, B0, zero, zero, cfg)

    @pytest.mark.parametrize("bad", [
        {"sigma": 0.0}, {"sigma": -1e-4}, {"dt": 0.0}, {"T": -1.0},
        {"picard_tol": 0.0}, {"picard_max_iter": 0}])
    def test_rejects_parameters_that_cannot_run(self, bad):
        # sigma <= 0 never ends a Picard subinterval, dt = 0 divides by
        # zero, T < 0 ran one step and picard_max_iter = 0 halved sigma
        # twenty times before a misleading blow-up
        with pytest.raises(FieldDataError, match=next(iter(bad))):
            GalerkinConfig(N=7, eps=0.1, l=1, **bad)

    def test_low_order_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="abimhd.galerkin"):
            GalerkinConfig(N=3, eps=0.1, l=1)
        assert any("hyperviscosity" in rec.message for rec in caplog.records)

    def test_schedule_approaches_diffusion_limit(self, grid16):
        h0, B0, D0, P0 = consistent_galerkin_data(grid16)
        T = 0.02
        s0 = DmhdState(h0, B0)
        dtr = dmhd_cfl_dt(s0) * 0.9
        nref = int(np.ceil(T / dtr))
        ref = dmhd_run(s0, T / nref, nref, save_every=nref)
        href = ref.states[-1].h.values
        Bref = ref.states[-1].B.values
        dists = []
        for eps, N in ((0.2, 33), (0.1, 57), (0.05, 81)):
            cfg = GalerkinConfig(N=N, eps=eps, l=1, dt=2.5e-4, T=T)
            traj = galerkin_run(h0, B0, D0, P0, cfg)
            hf = traj.states[-1].h.values
            Bf = traj.states[-1].B.values
            dists.append(np.abs(hf - href).mean()
                         + np.sqrt(((Bf - Bref) ** 2).sum(0)).mean())
        assert dists[0] > dists[1] > dists[2]


class TestPicard:
    def test_trivial_data_converges_immediately(self, grid16):
        zero = VectorField3.zero(grid16)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=1e-3, T=0.004,
                             picard=True, picard_tol=1e-12, sigma=0.004)
        traj = picard_iterate(ScalarField.constant(grid16, 1.0), zero, zero,
                              zero, cfg)
        assert np.abs(traj.states[-1].d_coeffs).max() < 1e-14
        assert np.abs(traj.lambda_series() - 0.5).max() < 1e-12

    def test_matches_method_of_lines(self, grid16):
        h0, B0 = single_mode_pair(grid16)
        zero = VectorField3.zero(grid16)
        T = 0.004
        cfg_p = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=T, picard=True,
                               picard_tol=1e-11, sigma=T)
        cfg_m = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=T)
        ptraj = picard_iterate(h0, B0, zero, zero, cfg_p)
        mtraj = galerkin_run(h0, B0, zero, zero, cfg_m)
        sp, sm = ptraj.states[-1], mtraj.states[-1]
        assert sp.t == pytest.approx(sm.t)
        assert np.abs(sp.h.values - sm.h.values).max() < 1e-5
        assert np.abs(sp.B.values - sm.B.values).max() < 1e-5
        assert np.abs(sp.v_coeffs - sm.v_coeffs).max() < 1e-5

    def test_residuals_shrink_monotonically(self, grid16, monkeypatch):
        from abimhd import galerkin as gk

        h0, B0 = single_mode_pair(grid16)
        zero = VectorField3.zero(grid16)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=4e-4, T=0.004, picard=True,
                             picard_tol=1e-11, sigma=0.004)
        logged = []
        orig = gk._k_operator

        def spy(*args, **kw):
            out = orig(*args, **kw)
            logged.append(out[0])
            return out

        monkeypatch.setattr(gk, "_k_operator", spy)
        picard_iterate(h0, B0, zero, zero, cfg)
        # coefficient change per iteration, after the first application
        diffs = []
        for a, b in zip(logged[:-1], logged[1:]):
            diffs.append(max(float(np.abs(b.at(t) - a.at(t)).max())
                             for t in a.times))
        assert len(diffs) >= 2
        assert all(d2 < d1 for d1, d2 in zip(diffs[:-1], diffs[1:]))
