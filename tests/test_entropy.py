import math

import numpy as np
import pytest

from abimhd import entropy
from abimhd._jacobi import jacobi_eigenvalues, jacobi_min_eigenvalue
from abimhd.dmhd import DmhdState, dmhd_cfl_dt, dmhd_run, energy
from abimhd.entropy import (
    SampleTrajectory,
    TestFieldFrame,
    constant_frame,
    convex_combination,
    dissipative_slack,
    frames_from_dmhd,
    identity_residual_check,
    l_operator,
    lambda_dual_lower_bound,
    lambda_functional,
    lambda_tilde,
    q_decomposition_defect,
    q_matrix,
    r0,
    random_frame,
)
from abimhd.fields import (
    FieldDataError,
    GridSpec,
    ScalarField,
    VectorField3,
    random_band_limited,
    random_divergence_free,
    random_vector,
)
from conftest import fd_curl, fd_grad, single_mode_pair


# Q_r = Q + r on the first four diagonal slots
SHIFT_SLOTS = np.diag([1.0] * 4 + [0.0] * 6)


def shear_frame(grid):
    return TestFieldFrame(
        0.0,
        ScalarField.constant(grid, 1.0),
        VectorField3.zero(grid),
        VectorField3.zero(grid),
        VectorField3.from_function(
            grid, lambda x, y, z: (np.sin(2 * np.pi * y), 0 * x, 0 * x)),
        ScalarField.constant(grid, 0.0),
        VectorField3.zero(grid),
    )


def static_frames(base, times):
    zs = ScalarField.constant(base.grid, 0.0)
    zv = VectorField3.zero(base.grid)
    return [TestFieldFrame(t, base.h_star_inv, base.b_star, base.d_star,
                           base.v_star, zs, zv) for t in times]


def copied_frames(base, times):
    """Value-equal frames of `static_frames`, each holding its own copies."""
    g = base.grid
    return [TestFieldFrame(t, ScalarField(g, base.h_star_inv.values.copy()),
                           VectorField3(g, base.b_star.values.copy()),
                           VectorField3(g, base.d_star.values.copy()),
                           VectorField3(g, base.v_star.values.copy()),
                           ScalarField.constant(g, 0.0), VectorField3.zero(g))
            for t in times]


def symmetry_defect(Q):
    return float(np.abs(Q - Q.swapaxes(-1, -2)).max())


class TestEigenvalueShim:
    """The contract of the two eigensolver names `entropy` calls through."""

    @pytest.mark.parametrize("d", [4, 10])
    def test_ascending_with_batch_shape(self, rng, d):
        mats = rng.standard_normal((7, d, d))
        mats = mats + mats.swapaxes(1, 2)
        vals = jacobi_eigenvalues(mats)
        assert vals.shape == (7, d)
        assert np.all(np.diff(vals, axis=1) >= 0.0)
        assert np.array_equal(jacobi_min_eigenvalue(mats), vals[:, 0])

    def test_two_dimensional_input_is_a_batch_of_one(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(jacobi_eigenvalues(mat), [[1.0, 3.0]])
        assert jacobi_min_eigenvalue(mat).shape == (1,)

    def test_empty_batch(self):
        assert jacobi_eigenvalues(np.empty((0, 4, 4))).shape == (0, 4)
        assert jacobi_min_eigenvalue(np.empty((0, 10, 10))).shape == (0,)

    def test_diagonal(self):
        mats = np.stack([np.diag([3.0, -1.0, 2.0, 0.0])])
        assert np.array_equal(jacobi_eigenvalues(mats),
                              [[-1.0, 0.0, 2.0, 3.0]])


def dense_q_oracle(frame):
    """Plain-numpy copy of the block-by-block dense assembly of Q(w*)."""
    n = frame.grid.n
    k = np.fft.fftfreq(n, d=1.0 / n)
    two_pi_i = 2j * np.pi
    dx, dy, dz = (two_pi_i * k.reshape(-1, 1, 1), two_pi_i * k.reshape(1, -1, 1),
                  two_pi_i * np.fft.rfftfreq(n, d=1.0 / n).reshape(1, 1, -1))

    def fft(a):
        return np.fft.rfftn(a, axes=(-3, -2, -1))

    def ifft(ah):
        return np.fft.irfftn(ah, s=(n, n, n), axes=(-3, -2, -1))

    def jacobian(a):                                # [i, j] = d_j a_i
        return np.stack([ifft(np.stack([fft(a[i]) * d for d in (dx, dy, dz)]))
                         for i in range(3)])

    dh = fft(frame.d_star.values)
    curl_d = ifft(np.stack([dy * dh[2] - dz * dh[1], dz * dh[0] - dx * dh[2],
                            dx * dh[1] - dy * dh[0]]))
    jac_v = jacobian(frame.v_star.values)
    jac_b = jacobian(frame.b_star.values)
    curl_b = np.stack([jac_b[2, 1] - jac_b[1, 2], jac_b[0, 2] - jac_b[2, 0],
                       jac_b[1, 0] - jac_b[0, 1]])
    M = np.zeros((n, n, n, 10, 10))
    M[..., 0, 0] = -2.0 * (jac_v[0, 0] + jac_v[1, 1] + jac_v[2, 2])
    cd = np.moveaxis(curl_d, 0, -1)
    cb = np.moveaxis(curl_b, 0, -1)
    M[..., 0, 1:4] = M[..., 1:4, 0] = cd
    M[..., 0, 4:7] = M[..., 4:7, 0] = -cb
    jv = np.moveaxis(jac_v, (0, 1), (-2, -1))
    jb = np.moveaxis(jac_b, (0, 1), (-2, -1))
    M[..., 1:4, 1:4] = -(jv + jv.swapaxes(-1, -2))
    anti_b = jb - jb.swapaxes(-1, -2)
    M[..., 1:4, 7:10] = anti_b
    M[..., 7:10, 1:4] = -anti_b
    for i in range(4, 10):
        M[..., i, i] = 2.0
    return M


def oracle_frames(n):
    g = GridSpec(n)
    rng = np.random.default_rng(n)
    return [constant_frame(g, 2.0, b=(0.1, -0.2, 0.3), d=(0.4, 0.0, -0.1),
                           v=(-0.3, 0.2, 0.0)),
            shear_frame(g),
            random_frame(g, rng, kmax=2, amplitude=0.3),
            random_frame(g, rng, kmax=n // 2, amplitude=0.5)]


class TestQMatrix:
    @pytest.mark.parametrize("n", [16, 32])
    def test_equals_dense_assembly(self, n):
        # IEEE equality: every entry is the same float (a zero may differ
        # in sign, which no consumer of Q observes)
        for fr in oracle_frames(n):
            assert np.array_equal(q_matrix(fr), dense_q_oracle(fr))

    @pytest.mark.parametrize("n", [16, 32])
    def test_blockwise_apply_matches_dense_product(self, n, rng):
        for fr in oracle_frames(n):
            W = rng.standard_normal((10, n, n, n))
            got = entropy._q_apply(entropy._frame_derivatives(fr), W)
            want = np.einsum("xyzij,jxyz->ixyz", q_matrix(fr), W)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_constant_frame_block_structure(self, grid16):
        vals = q_matrix(constant_frame(grid16))
        assert np.abs(vals[..., :4, :4]).max() == 0.0
        assert np.abs(vals[..., 4:, 4:] - 2.0 * np.eye(6)).max() == 0.0
        assert symmetry_defect(vals) == 0.0

    def test_shear_frame_hand_assembled(self, grid16, rng):
        Q = q_matrix(shear_frame(grid16))
        ys = grid16.axis_coords
        pts = rng.integers(0, grid16.n, size=(10, 3))
        for i, j, k in pts:
            c = 2 * np.pi * np.cos(2 * np.pi * ys[j])
            expect = np.zeros((10, 10))
            # jacobian d_j v_i has the single entry (x component, y deriv)
            expect[1, 2] = expect[2, 1] = -c
            expect[4, 4] = expect[5, 5] = expect[6, 6] = 2.0
            expect[7, 7] = expect[8, 8] = expect[9, 9] = 2.0
            assert np.abs(Q[i, j, k] - expect).max() < 1e-12
        # div v* = 0 for the shear, so the scalar slot stays empty
        assert np.abs(Q[..., 0, 0]).max() < 1e-12

    def test_symmetry_on_random_frames(self, grid16, rng):
        for _ in range(3):
            fr = random_frame(grid16, rng, kmax=2, amplitude=0.3)
            assert symmetry_defect(q_matrix(fr)) <= 1e-14


class TestR0:
    def test_constant_frame_identity_target(self, grid16):
        assert r0([constant_frame(grid16)], "identity") == pytest.approx(
            1.0, abs=1e-9)

    def test_constant_frame_shifted_target(self, grid16):
        assert r0([constant_frame(grid16)], 1.5) == pytest.approx(1.5, abs=1e-9)

    def test_shear_frame_matches_dense_scan(self, grid16):
        fast = r0([shear_frame(grid16)])
        Q = q_matrix(shear_frame(grid16)).reshape(-1, 10, 10)

        def feasible(r):
            M = Q.copy()
            for i in range(4):
                M[:, i, i] += r
            M -= np.eye(10)
            return np.linalg.eigvalsh(M)[:, 0].min() >= 0.0

        lo, hi = 0.0, 1.0 + 10.0 * np.abs(Q).max()
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        assert abs(fast - hi) < 1e-8

    def test_result_certifies_feasibility(self, grid16, rng):
        fr = random_frame(grid16, rng, kmax=2, amplitude=0.4)
        r = r0([fr])
        Q = q_matrix(fr).reshape(-1, 10, 10) + r * SHIFT_SLOTS - np.eye(10)
        # a Cholesky factor exists at every point, independently of the
        # eigensolver r0 certifies with; it raises LinAlgError otherwise
        np.linalg.cholesky(Q + 1e-9 * np.eye(10))

    def test_rejects_target_of_two(self, grid16):
        with pytest.raises(FieldDataError):
            r0([constant_frame(grid16)], 2.0)

    @staticmethod
    def closed_form(frames, t=1.0):
        """max(0, max over points of t + lambda_max(C C^T/(2-t) - A)),
        evaluated with LAPACK."""
        worst = -math.inf
        for f in frames:
            Q = q_matrix(f).reshape(-1, 10, 10)
            A, C = Q[:, :4, :4], Q[:, :4, 4:]
            S = C @ C.swapaxes(1, 2) / (2.0 - t) - A
            worst = max(worst, t + np.linalg.eigvalsh(S)[:, -1].max())
        return max(0.0, worst)

    def test_matches_closed_form_oracle(self, grid16, rng):
        families = [[random_frame(grid16, rng, kmax=2, amplitude=a)]
                    for a in (0.1, 0.3, 0.6)]
        families.append([random_frame(grid16, rng, t=0.1 * k, amplitude=0.3)
                         for k in range(3)])
        for frames in families:
            for target in ("identity", 0.5):
                t = 1.0 if target == "identity" else target
                r = r0(frames, target)
                assert type(r) is float
                assert abs(r - self.closed_form(frames, t)) <= 1e-12 * (1 + r)

    def test_shifted_matrix_positive_at_every_point(self, grid16, rng):
        frames = [random_frame(grid16, rng, t=0.1 * k, amplitude=0.5)
                  for k in range(2)]
        r = r0(frames)
        for f in frames:
            M = (q_matrix(f).reshape(-1, 10, 10) + r * SHIFT_SLOTS
                 - np.eye(10))
            assert np.linalg.eigvalsh(M)[:, 0].min() >= -1e-12 * (1 + r)

    def test_corrupted_fixed_block_raises(self, grid16, rng, monkeypatch):
        import abimhd.entropy as entropy

        honest = entropy._q_apply

        def corrupted(der, W):
            QW = honest(der, W)
            QW[4:] -= 1.5 * W[4:]           # 0.5 I instead of 2 I on D, P
            return QW

        monkeypatch.setattr(entropy, "_q_apply", corrupted)
        with pytest.raises(FieldDataError, match="corrupted"):
            r0([random_frame(grid16, rng, amplitude=0.3)])

    def test_held_family_equals_its_base_frame(self, grid16, rng):
        base = random_frame(grid16, rng, amplitude=0.3)
        held = static_frames(base, [0.1 * k for k in range(5)])
        for target in ("identity", 0.5):
            assert r0(held, target) == r0([base], target)


class TestLOperator:
    def test_trivial_solution_frame(self, grid16):
        L = l_operator(constant_frame(grid16))
        assert np.abs(L).max() == 0.0

    def test_solution_frames_nearly_annihilated(self):
        g = GridSpec(32)
        h0, B0 = single_mode_pair(g)
        s0 = DmhdState(h0, B0)
        traj = dmhd_run(s0, dmhd_cfl_dt(s0) * 0.9, 10, save_every=5)
        for fr in frames_from_dmhd(traj):
            assert np.abs(l_operator(fr)).max() < 1e-4

    def test_matches_finite_differences(self, rng):
        errs = {}
        for n in (16, 32):
            g = GridSpec(n)
            fr = random_frame(g, rng, kmax=2, amplitude=0.2)
            L = l_operator(fr)
            tau = fr.h_star_inv.values
            b, d, v = fr.b_star.values, fr.d_star.values, fr.v_star.values
            jac_b = np.stack([fd_grad(g, b[i]) for i in range(3)])
            jac_v = np.stack([fd_grad(g, v[i]) for i in range(3)])
            gt = fd_grad(g, tau)
            L_fd = np.empty_like(L)
            L_fd[0] = (fr.dt_h_star_inv.values
                       - tau * (jac_v[0, 0] + jac_v[1, 1] + jac_v[2, 2])
                       + (v * gt).sum(0))
            L_fd[1:4] = (fr.dt_b_star.values
                         + np.einsum("jxyz,ijxyz->ixyz", v, jac_b)
                         - np.einsum("jxyz,ijxyz->ixyz", b, jac_v)
                         + tau * fd_curl(g, d))
            L_fd[4:7] = d - tau * fd_curl(g, b)
            L_fd[7:10] = (v - np.einsum("jxyz,ijxyz->ixyz", b, jac_b)
                          - tau * gt)
            errs[n] = np.abs(L - L_fd).max()
        assert errs[32] < errs[16] / 3.0


class TestLambdaFunctionals:
    def test_closed_form_values(self, grid16):
        U = np.zeros((4, *grid16.shape))
        U[0] = 1.0
        assert lambda_functional(ScalarField.constant(grid16, 1.0), U) \
            == pytest.approx(0.5)
        assert lambda_functional(ScalarField.constant(grid16, 2.0), U) \
            == pytest.approx(0.25)

    def test_vanishing_density_gives_infinity(self, grid16):
        rho = ScalarField.from_function(
            grid16, lambda x, y, z: np.where(x < 0.5, 1.0, 0.0))
        U = np.zeros((4, *grid16.shape))
        U[0] = 1.0
        assert math.isinf(lambda_functional(rho, U))

    def test_negative_density_rejected(self, grid16):
        rho = ScalarField.constant(grid16, -1.0)
        with pytest.raises(FieldDataError):
            lambda_functional(rho, np.zeros((4, *grid16.shape)))

    def test_dual_optimal_pair_is_tight(self, grid16, rng):
        rho = ScalarField(grid16,
                          1.0 + 0.3 * random_band_limited(grid16, rng, 2, 1.0).values)
        u = np.stack([random_band_limited(grid16, rng, 2, 0.5).values
                      for _ in range(4)])
        U = u * rho.values
        exact = lambda_functional(rho, U)
        opt = (-0.5 * (u ** 2).sum(0), u)
        val = lambda_dual_lower_bound(rho, U, [opt])
        assert val == pytest.approx(exact, rel=1e-12)

    def test_dual_zero_pair(self, grid16):
        rho = ScalarField.constant(grid16, 1.0)
        U = np.zeros((4, *grid16.shape))
        zero = (np.zeros(grid16.shape), np.zeros((4, *grid16.shape)))
        assert lambda_dual_lower_bound(rho, U, [zero]) == 0.0

    def test_dual_family_never_exceeds_closed_form(self, grid16, rng):
        rho = ScalarField(grid16,
                          1.0 + 0.3 * random_band_limited(grid16, rng, 2, 1.0).values)
        U = np.stack([random_band_limited(grid16, rng, 2, 0.5).values
                      for _ in range(4)])
        exact = lambda_functional(rho, U)
        pairs = []
        for _ in range(50):
            A = np.stack([random_band_limited(grid16, rng, 2, 0.4).values
                          for _ in range(4)])
            margin = rng.random() * 0.5
            pairs.append((-0.5 * (A ** 2).sum(0) - margin, A))
        val = lambda_dual_lower_bound(rho, U, pairs)
        assert val <= exact + 1e-12

    def test_dual_infeasible_pair_rejected(self, grid16):
        rho = ScalarField.constant(grid16, 1.0)
        U = np.zeros((4, *grid16.shape))
        A = np.ones((4, *grid16.shape))
        with pytest.raises(FieldDataError, match="infeasible"):
            lambda_dual_lower_bound(rho, U, [(np.zeros(grid16.shape), A)])

    def test_lambda_tilde_zero_field(self, grid16):
        times = [0.0, 0.5, 1.0]
        rho = [np.ones(grid16.shape)] * 3
        W = [np.zeros((10, *grid16.shape))] * 3
        Q = [np.broadcast_to(np.eye(10), (*grid16.shape, 10, 10))] * 3
        assert lambda_tilde(times, rho, W, Q, 0.0, 1.0) == 0.0

    def test_lambda_tilde_unit_component(self, grid16):
        times = [0.0, 0.5, 1.0]
        rho = [np.ones(grid16.shape)] * 3
        W0 = np.zeros((10, *grid16.shape))
        W0[3] = 1.0
        W = [W0] * 3
        Q = [np.broadcast_to(np.eye(10), (*grid16.shape, 10, 10))] * 3
        assert lambda_tilde(times, rho, W, Q, 0.0, 1.0) == pytest.approx(0.5)

    def test_lambda_tilde_matches_refined_quadrature(self, grid16, rng):
        fine_times = np.linspace(0.0, 1.0, 33)
        coarse_idx = np.arange(0, 33, 4)

        def series(ts):
            rho, W, Q = [], [], []
            for t in ts:
                rho.append(1.0 + 0.2 * np.cos(2 * np.pi * (grid16.mesh[0] + t)))
                w = np.zeros((10, *grid16.shape))
                w[0] = np.sin(2 * np.pi * grid16.mesh[1]) * (1.0 + t)
                w[5] = t * np.cos(2 * np.pi * grid16.mesh[2])
                W.append(w)
                Q.append(np.broadcast_to(np.eye(10) * (1.0 + 0.5 * t),
                                         (*grid16.shape, 10, 10)))
            return rho, W, Q

        rho_f, W_f, Q_f = series(fine_times)
        fine = lambda_tilde(fine_times, rho_f, W_f, Q_f, 0.0, 1.0)
        ct = fine_times[coarse_idx]
        rho_c = [rho_f[i] for i in coarse_idx]
        W_c = [W_f[i] for i in coarse_idx]
        Q_c = [Q_f[i] for i in coarse_idx]
        coarse = lambda_tilde(ct, rho_c, W_c, Q_c, 0.0, 1.0)
        assert abs(coarse - fine) < 1e-2 * max(1.0, abs(fine))
        # refinement squares down: quarter step -> ~16x closer
        mid_idx = np.arange(0, 33, 2)
        mt = fine_times[mid_idx]
        mid = lambda_tilde(mt, [rho_f[i] for i in mid_idx],
                           [W_f[i] for i in mid_idx],
                           [Q_f[i] for i in mid_idx], 0.0, 1.0)
        assert abs(mid - fine) < abs(coarse - fine) / 2.5


class TestDecomposition:
    def test_q_times_w_identity(self, grid16, rng):
        for _ in range(5):
            fr = random_frame(grid16, rng, kmax=2, amplitude=0.25)
            assert q_decomposition_defect(fr) < 1e-8


def make_solution_pack(grid, n_steps=60, save_every=6, amp=(0.2, 0.3)):
    h0, B0 = single_mode_pair(grid, *amp)
    s0 = DmhdState(h0, B0)
    dt = dmhd_cfl_dt(s0) * 0.8
    traj = dmhd_run(s0, dt, n_steps, save_every=save_every)
    return s0, traj, SampleTrajectory.from_dmhd(traj), frames_from_dmhd(traj)


class TestDissipativeSlack:
    def test_trivial_on_trivial(self, grid16):
        s0 = DmhdState(ScalarField.constant(grid16, 1.0),
                       VectorField3.zero(grid16))
        traj = dmhd_run(s0, 1e-4, 4)
        sol = SampleTrajectory.from_dmhd(traj)
        frames = static_frames(constant_frame(grid16), traj.times)
        rep = dissipative_slack(sol, frames)
        assert np.abs(rep.slack_t).max() < 1e-14
        assert rep.slack_t[0] == 0.0

    def test_solution_certifies_itself(self, grid16):
        s0, traj, sol, frames = make_solution_pack(grid16)
        rep = dissipative_slack(sol, frames)
        assert rep.slack_t[0] == 0.0
        assert rep.max_slack() <= 1e-3 * energy(s0)

    def test_corrupted_momentum_flagged(self, grid16):
        s0, traj, sol, frames = make_solution_pack(grid16)
        bad = sol.with_momentum_offset(0.1)
        rep = dissipative_slack(bad, frames)
        assert rep.max_slack() > 0.0

    def test_report_csv(self, grid16, tmp_path):
        s0, traj, sol, frames = make_solution_pack(grid16, n_steps=10,
                                                   save_every=5)
        rep = dissipative_slack(sol, frames)
        path = tmp_path / "report.csv"
        rep.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,lambda,lambda_tilde_cum,R,slack"
        assert lines[-1].startswith("# r_used=")

    def test_gronwall_stability(self, grid16, rng):
        s0, traj, sol, frames = make_solution_pack(grid16)
        r0v = r0(frames)
        # 1% perturbation of the initial data, divergence kept clean
        pert = 1.0 + 0.01 * random_band_limited(grid16, rng, 2, 1.0).values
        h0p = ScalarField(grid16, traj.states[0].h.values * pert)
        B0p = random_divergence_free(grid16, rng, 2, 1.0)
        B0p = VectorField3(
            grid16,
            traj.states[0].B.values + 0.01 * 0.3 * B0p.values)
        n_steps = 60
        ptraj = dmhd_run(DmhdState(h0p, B0p),
                         (traj.times[-1]) / n_steps, n_steps, save_every=6)
        psol = SampleTrajectory.from_dmhd(ptraj)
        rep = dissipative_slack(psol, frames)
        lam0 = rep.lambda_t[0]
        assert lam0 > 0
        bound = 1.05 * np.exp(r0v * rep.times) * lam0
        assert np.all(rep.lambda_t <= bound)

    def test_convexity_of_slack(self, grid16):
        s0, traj, sol, frames = make_solution_pack(grid16)
        dt = (traj.times[-1]) / 60
        traj_b = dmhd_run(s0, dt / 2, 120, save_every=12)
        sol_b = SampleTrajectory.from_dmhd(traj_b)
        mid = convex_combination(sol, sol_b, 0.5)
        rep_a = dissipative_slack(sol, frames)
        rep_b = dissipative_slack(sol_b, frames)
        rep_m = dissipative_slack(mid, frames)
        worst = np.maximum(rep_a.slack_t, rep_b.slack_t)
        assert np.all(rep_m.slack_t <= worst + 1e-10)


    def test_terms_match_dense_quadrature(self, grid16, rng):
        s0, traj, sol, _ = make_solution_pack(grid16, n_steps=10,
                                              save_every=5)
        frames = static_frames(random_frame(grid16, rng, amplitude=0.3),
                               sol.times)
        r = r0(frames)
        assert r > 0
        rep = dissipative_slack(sol, frames)
        Ws, Qs, lin = [], [], []
        for k, f in enumerate(frames):
            _, W = entropy._modulated_fields(sol.h[k], sol.B[k], sol.D[k],
                                             sol.P[k], f)
            wt = math.exp(-r * sol.times[k])
            Ws.append(W)
            Qs.append(wt * (q_matrix(f) + r * SHIFT_SLOTS))
            lin.append(wt * float((W * l_operator(f)).sum(0).mean()))
        dense = lambda_tilde(sol.times, sol.h, Ws, Qs, 0.0, sol.times[-1])
        assert rep.lambda_tilde_cum[-1] == pytest.approx(dense, rel=1e-12)
        assert rep.R_t[-1] == pytest.approx(np.trapezoid(lin, sol.times),
                                            rel=1e-12)

    def test_certificate_never_forms_dense_q(self, grid16, monkeypatch):
        s0, traj, sol, frames = make_solution_pack(grid16, n_steps=10,
                                                   save_every=5)

        def dense(frame):
            raise AssertionError("dense Q formed")

        monkeypatch.setattr(entropy, "q_matrix", dense)
        rep = dissipative_slack(sol, frames)
        assert rep.slack_t[0] == 0.0
        chk = identity_residual_check(sol, frames)
        assert chk.lhs.shape == (1,)

    def test_convex_combination_rejects_nudged_times(self, grid16):
        h = np.ones((3, *grid16.shape))
        z = np.zeros((3, 3, *grid16.shape))
        times = np.array([0.0, 1e-3, 2e-3])
        a = SampleTrajectory(grid16, times, h, z, z, z)
        b = SampleTrajectory(grid16, times * (1 + 1e-6), h, z, z, z)
        with pytest.raises(FieldDataError, match="time axis"):
            convex_combination(a, b, 0.5)


def two_call_slack(sol, frames, r):
    """(Lambda, Lambda~, R, slack) as formed before r0 came from the slack's
    own pass: Q_r = Q + r on the first four slots, applied per sample."""
    T = len(sol)
    lam, q_int, r_int = np.empty(T), np.empty(T), np.empty(T)
    for k, f in enumerate(frames):
        h = sol.h[k]
        U, W = entropy._modulated_fields(h, sol.B[k], sol.D[k], sol.P[k], f)
        lam[k] = lambda_functional(ScalarField(sol.grid, h), U)
        der = entropy._frame_derivatives(f)
        quad = (W * entropy._q_apply(der, W)).sum(0) + r * (W[:4] ** 2).sum(0)
        wt = math.exp(-r * sol.times[k])
        q_int[k] = wt * entropy._floored_quotient(quad, h, W,
                                                  entropy.DEFAULT_H_FLOOR)
        r_int[k] = wt * float((W * l_operator(f)).sum(0).mean())
    seg = np.diff(sol.times)
    lam_tilde = np.concatenate([[0.0], np.cumsum(0.5 * seg * (q_int[1:] + q_int[:-1]))])
    R = np.concatenate([[0.0], np.cumsum(0.5 * seg * (r_int[1:] + r_int[:-1]))])
    return lam, lam_tilde, R, np.exp(-r * sol.times) * lam + lam_tilde + R - lam[0]


class TestOnePass:
    """dissipative_slack certifies r0 from the derivations it takes itself."""

    @pytest.fixture
    def sol_and_families(self, grid16, rng):
        _, _, sol, frames = make_solution_pack(grid16, n_steps=20,
                                               save_every=5)
        held = static_frames(random_frame(grid16, rng, amplitude=0.3),
                             sol.times)
        return sol, {"solution": frames, "held": held,
                     "mixed": frames[:2] + held[2:]}

    def test_r0_is_the_standalone_value(self, sol_and_families):
        sol, families = sol_and_families
        for name, frames in families.items():
            rep = dissipative_slack(sol, frames)
            assert rep.r0 == r0(frames), name
            assert rep.r_used == rep.r0

    def test_matches_two_call_formula(self, sol_and_families):
        sol, families = sol_and_families
        bad = sol.with_momentum_offset(0.1)
        for name, frames in families.items():
            r = r0(frames)
            assert r > 0
            rep = dissipative_slack(bad, frames)
            got = (rep.lambda_t, rep.lambda_tilde_cum, rep.R_t, rep.slack_t)
            for a, b in zip(got, two_call_slack(bad, frames, r)):
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name


class TestHeldFamilies:
    """Frames holding the previous frame's field objects reuse its work and
    give the same bytes as value-equal frames that hold their own copies."""

    @pytest.fixture
    def sol_and_base(self, grid16, rng):
        h0, B0 = single_mode_pair(grid16)
        psi = random_vector(grid16, rng, 2, 0.1).values
        varphi = random_vector(grid16, rng, 2, 0.1).values
        sol = SampleTrajectory.manufactured(h0, B0, 5e-6, 10, psi, varphi)
        return sol, random_frame(grid16, rng, 2, 0.2)

    def test_slack_matches_distinct_copies(self, sol_and_base):
        sol, base = sol_and_base
        assert r0([base]) > 0
        held = dissipative_slack(sol, static_frames(base, sol.times))
        copies = dissipative_slack(sol, copied_frames(base, sol.times))
        for name in ("lambda_t", "lambda_tilde_cum", "R_t", "slack_t"):
            assert (getattr(held, name).tobytes()
                    == getattr(copies, name).tobytes())

    def test_identity_matches_distinct_copies(self, sol_and_base):
        sol, base = sol_and_base
        held = identity_residual_check(sol, static_frames(base, sol.times))
        copies = identity_residual_check(sol, copied_frames(base, sol.times))
        assert held.lhs.tobytes() == copies.lhs.tobytes()
        assert held.rhs.tobytes() == copies.rhs.tobytes()
        assert held.term_scale == copies.term_scale


class TestHolderQuotient:
    def test_stationary_trajectory_has_zero_quotient(self, grid16):
        from abimhd.entropy import holder_half_quotient

        s0 = DmhdState(ScalarField.constant(grid16, 2.0),
                       VectorField3.constant(grid16, (0.1, 0.0, 0.2)))
        traj = dmhd_run(s0, 1e-4, 4)
        assert holder_half_quotient(SampleTrajectory.from_dmhd(traj)) < 1e-12

    def test_smooth_run_is_finite_and_scale_bounded(self, grid16):
        from abimhd.entropy import holder_half_quotient

        s0, traj, sol, _ = make_solution_pack(grid16, n_steps=20,
                                              save_every=4)
        q = holder_half_quotient(sol)
        # increments over dt pair against unit-normalized modes, so the
        # quotient is bounded by the drift rate times sqrt(dt)
        assert 0.0 < q < 10.0


class TestIdentity:
    def test_exact_solution_annihilates_both_sides(self, grid16):
        s0, traj, sol, frames = make_solution_pack(grid16, n_steps=20,
                                                   save_every=2)
        chk = identity_residual_check(sol, frames)
        # frame equals the solution itself: the right side vanishes exactly
        assert np.abs(chk.rhs).max() == 0.0
        assert np.abs(chk.lhs).max() < 1e-6

    @pytest.mark.parametrize("case", ["shifted", "nudged", "short", "extra"])
    def test_rejects_frames_off_the_time_axis(self, grid16, case):
        s0, traj, sol, frames = make_solution_pack(grid16, n_steps=10,
                                                   save_every=5)
        if case == "shifted":
            frames = static_frames(frames[0], sol.times + 1e-3)
        elif case == "nudged":
            frames = static_frames(frames[0], sol.times * (1 + 1e-6))
        elif case == "short":
            frames = frames[:-1]
        else:
            frames = frames + static_frames(frames[-1], [sol.times[-1] + 1.0])
        with pytest.raises(FieldDataError, match="time axis"):
            identity_residual_check(sol, frames)

    def test_manufactured_residuals_balance(self, grid16, rng):
        h0, B0 = single_mode_pair(grid16)
        psi = random_vector(grid16, rng, 2, 0.1).values
        varphi = random_vector(grid16, rng, 2, 0.1).values
        curl_src = random_vector(grid16, rng, 2, 0.1).values
        sol = SampleTrajectory.manufactured(h0, B0, 5e-6, 10, psi, varphi,
                                            curl_src)
        frames = static_frames(random_frame(grid16, rng, 2, 0.2), sol.times)
        chk = identity_residual_check(sol, frames)
        scale = max(np.abs(chk.lhs).max(), np.abs(chk.rhs).max())
        assert chk.max_defect() < 1e-3 * scale

    def test_residual_recovery(self, grid16, rng):
        # frames built from the trajectory's own fields minus residuals:
        # the slack then integrates the squared residuals, so residuals
        # vanish exactly when the slack stays nonpositive
        g = grid16
        h0, B0 = single_mode_pair(g)
        psi = random_vector(g, rng, 2, 0.04).values
        varphi = random_vector(g, rng, 2, 0.04).values
        sol = SampleTrajectory.manufactured(h0, B0, 2.5e-5, 12, psi, varphi)
        frames = []
        T = len(sol)
        for k in range(T):
            h, B, D, P = sol.h[k], sol.B[k], sol.D[k], sol.P[k]
            r = 1.0 / h
            da = g.dealias_arr
            psi_k = D - g.curl_arr(da(B * r))
            varphi_k = P - g.grad_arr(da(r))
            for i in range(3):
                varphi_k[i] -= g.div_arr(da(B[i] * B * r))
            b_star = B * r                      # phi = 0 for this build
            d_star = (D - psi_k) * r
            v_star = (P - varphi_k) * r
            frames.append((h, b_star, d_star, v_star))
        built = []
        times = sol.times
        for k in range(T):
            h, b_star, d_star, v_star = frames[k]
            km = max(1, min(k, T - 2))
            dt_span = times[km + 1] - times[km - 1]
            dtau = (1.0 / frames[min(k + 1, T - 1)][0]
                    - 1.0 / frames[max(k - 1, 0)][0]) / (
                times[min(k + 1, T - 1)] - times[max(k - 1, 0)])
            dbs = (frames[min(k + 1, T - 1)][1]
                   - frames[max(k - 1, 0)][1]) / (
                times[min(k + 1, T - 1)] - times[max(k - 1, 0)])
            built.append(TestFieldFrame(
                times[k], ScalarField(g, 1.0 / h), VectorField3(g, b_star),
                VectorField3(g, d_star), VectorField3(g, v_star),
                ScalarField(g, dtau), VectorField3(g, dbs)))
        r0v = r0(built)
        rep = dissipative_slack(sol, built)
        # expected slack: cumulative exp-weighted squared residuals
        res_sq = np.array([
            ((psi ** 2).sum(0) + (varphi ** 2).sum(0)).mean()
        ] * T) * np.exp(-r0v * times)
        seg = np.diff(times)
        expect = np.concatenate(
            [[0.0], np.cumsum(0.5 * seg * (res_sq[1:] + res_sq[:-1]))])
        assert rep.slack_t[-1] > 0
        assert np.abs(rep.slack_t - expect).max() < 0.05 * expect[-1]
        # contrapositive: tol on slack forces tol on the residual integral
        assert (rep.slack_t[-1] <= 0) == (expect[-1] <= 1e-12)
