import functools
import json
import logging
import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from abimhd import galerkin
from abimhd.dmhd import DmhdState, _constitutive_arrays, dmhd_cfl_dt, dmhd_run
from abimhd.fields import (
    FieldDataError,
    GridSpec,
    PositivityError,
    ScalarField,
    VectorField3,
    _curl_of,
    eval_at,
    random_band_limited,
    random_divergence_free,
)
from abimhd.galerkin import (
    CoefficientTrajectory,
    GalerkinConfig,
    ModalScalar,
    ModalVector,
    TrigBasis,
    UniformField,
    galerkin_run,
    mass_apply,
    mass_solve,
    picard_iterate,
    positive_wavevectors,
    transport,
    transport_B,
    transport_h,
)
from abimhd.galerkin import _as_model, _march
from abimhd.stepping import BlowUpError, StepSizeError, rk4_step
from conftest import naive_trig_eval, single_mode_pair


@pytest.fixture
def tb16(grid16):
    return TrigBasis(7, grid16)


@functools.lru_cache(maxsize=None)
def _sorted_half_ball(radius):
    cands = [(n1, n2, n3) for n1 in range(radius + 1)
             for n2 in range(-radius, radius + 1)
             for n3 in range(-radius, radius + 1)
             if not (n1 == 0 and (n2 < 0 or (n2 == 0 and n3 <= 0)))
             and n1 * n1 + n2 * n2 + n3 * n3 <= radius * radius]
    return sorted(cands, key=lambda k: (k[0] ** 2 + k[1] ** 2 + k[2] ** 2, k))


def radius_search_wavevectors(count):
    """Oracle: grow the radius until the half-ball holds `count` points, then
    take them in (|k|^2, lexicographic) order."""
    radius = 1
    while len(_sorted_half_ball(radius)) < count:
        radius += 1
    return np.array(_sorted_half_ball(radius)[:count], dtype=int)


def shear_trajectory(tb):
    """v = (sin 2 pi y, 0, 0), constant in time."""
    kv = tb.kvecs
    idx = next(i for i, k in enumerate(kv) if tuple(k) == (0, 1, 0))
    coeffs = np.zeros((3, 2 * tb.N))
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

    def test_enumeration_matches_the_radius_search(self):
        for count in range(1, 1001):
            assert np.array_equal(positive_wavevectors(count),
                                  radius_search_wavevectors(count)), count

    @pytest.mark.parametrize("n", [16, 32])
    def test_table_is_the_direct_trig_table(self, n):
        grid = GridSpec(n)
        for N in (7, 33, 81):
            tb = TrigBasis(N, grid)
            phase = 2.0 * np.pi * (grid.points @ tb.kvecs.T)
            direct = np.sqrt(2.0) * np.concatenate([np.sin(phase),
                                                    np.cos(phase)], axis=1)
            assert np.abs(tb.table - direct).max() <= 1e-14
            assert not tb.table.flags.writeable

    def test_orthonormality(self, grid16):
        for N in (7, 33):
            tb = TrigBasis(N, grid16)
            assert tb.orthonormality_defect() < 1e-10

    def test_rejects_unresolvable_wavevectors(self):
        g = GridSpec(4)
        with pytest.raises(FieldDataError):
            TrigBasis(20, g)

    def test_rejects_a_basis_past_the_grid_before_enumerating(
            self, monkeypatch):
        # n = 8 carries the (7^3 - 1)/2 = 171 half-lattice vectors with
        # |k_i| < 4; one more is refused without building a wavevector
        enumerated = []
        monkeypatch.setattr(galerkin, "positive_wavevectors",
                            lambda N: enumerated.append(N))
        with pytest.raises(FieldDataError, match="N=172 .* the 171"):
            TrigBasis(172, GridSpec(8))
        assert enumerated == []
        monkeypatch.undo()
        with pytest.raises(FieldDataError, match="cannot carry"):
            TrigBasis(171, GridSpec(8))     # counted, then |k_i| = 4 found

    def test_rejects_an_empty_basis(self, grid16):
        with pytest.raises(FieldDataError, match="at least one wavevector"):
            TrigBasis(0, grid16)


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
        tb = TrigBasis(N, grid16)
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
        v = rng.standard_normal(2 * tb16.N)
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
        tb = TrigBasis(N, grid16)
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


def stacked_modal(h0, B0):
    """The four-component modal of (h0, B0) that `transport` reads."""
    return ModalScalar.from_values(
        h0.grid, np.concatenate([h0.values[None], B0.values]))


def transport_of_h(tb, vtraj, h0, t, grid, **kw):
    """The transported density of h0, with no d and no B."""
    return transport(tb, vtraj, UniformField((0, 0, 0)),
                     stacked_modal(h0, VectorField3.zero(grid)), t, grid,
                     **kw)[0]


def transport_of_B(tb, vtraj, dtraj, B0, t, grid, **kw):
    """The transported induction field of B0, with unit density."""
    return transport(tb, vtraj, dtraj,
                     stacked_modal(ScalarField.constant(grid, 1.0), B0), t,
                     grid, **kw)[1]


def separate_marches(tb, vtraj, dtraj, h0, B0, t, grid, dt_flow=1e-3):
    """Oracle: the two marches that transported h and B before they were
    fused, each evaluating its initial data one component at a time. Returns
    (feet, J, Z, c, h, B) with both marches' feet, which must agree."""
    vm = _as_model(tb, vtraj)
    dm = _as_model(tb, dtraj)
    pts = grid.points
    eye = np.eye(3)

    def rates_h(s, p, _):
        jac = vm.jacobian(s, p)
        return vm.eval(s, p), jac[:, 0, 0] + jac[:, 1, 1] + jac[:, 2, 2]

    def rates_B(s, p, Z, c):
        jac = vm.jacobian(s, p)
        div = jac[:, 0, 0] + jac[:, 1, 1] + jac[:, 2, 2]
        A = jac - div[:, None, None] * eye
        curl_d = _curl_of(dm.jacobian(s, p).transpose(1, 2, 0)).T
        return vm.eval(s, p), -Z @ A, np.einsum("mij,mj->mi", Z, curl_d)

    feet_h, J = _march(rates_h, t, 0.0, (pts, np.zeros(len(pts))), dt_flow)
    h = ModalScalar.from_field(h0).eval(feet_h % 1.0) * np.exp(J)
    Z0 = np.broadcast_to(eye, (len(pts), 3, 3))
    feet, Z, c = _march(rates_B, t, 0.0, (pts, Z0, np.zeros_like(pts)),
                        dt_flow)
    assert np.array_equal(feet, feet_h)
    B0_feet = per_component_eval(B0, feet % 1.0)
    return feet, J, Z, c, h, np.einsum("mij,mj->mi", Z, B0_feet) + c


def per_component_eval(F, pts):
    """Each component of F through its own ModalScalar, stacked (M, 3)."""
    return np.stack([ModalScalar.from_field(F.component(i)).eval(pts)
                     for i in range(3)], axis=1)


class TestTransport:
    def test_h_pure_advection_and_mass(self, tb16, grid16):
        h0 = ScalarField.from_function(
            grid16,
            lambda x, y, z: 1.0 + 0.3 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
        t = 0.2
        ht = transport_of_h(tb16, shear_trajectory(tb16), h0, t, grid16)
        x, y = grid16.mesh[0], grid16.mesh[1]
        exact = 1.0 + 0.3 * np.cos(
            2 * np.pi * (x - t * np.sin(2 * np.pi * y))) * np.sin(2 * np.pi * y)
        assert np.abs(ht.values - exact).max() < 1e-8
        assert abs(ht.values.mean() - h0.values.mean()) < 1e-8

    def test_h_zero_velocity(self, tb16, grid16, rng):
        h0 = ScalarField(grid16,
                         1.0 + 0.2 * random_band_limited(grid16, rng, 2, 1.0).values)
        zero = CoefficientTrajectory.constant((0.0, 1.0), np.zeros((3, 14)))
        ht = transport_of_h(tb16, zero, h0, 0.3, grid16)
        assert np.abs(ht.values - h0.values).max() < 1e-12

    def test_h_compressive_matches_upwind_oracle(self, tb16, grid16):
        # 1D compressive velocity v = (sin 2 pi x, 0, 0)
        kv = tb16.kvecs
        idx = next(i for i, k in enumerate(kv) if tuple(k) == (1, 0, 0))
        coeffs = np.zeros((3, 14))
        coeffs[0, idx] = 1.0 / np.sqrt(2.0)
        vtraj = CoefficientTrajectory.constant((0.0, 1.0), coeffs)
        h0 = ScalarField.from_function(
            grid16, lambda x, y, z: 1.0 + 0.3 * np.sin(2 * np.pi * x))
        t = 0.03
        ht = transport_of_h(tb16, vtraj, h0, t, grid16, dt_flow=5e-4)
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
        Bt = transport_of_B(tb16, zero, zero, B0, 0.15, grid16)
        assert np.abs(Bt.values - B0.values).max() < 1e-12

    def test_B_constant_drift(self, tb16, grid16):
        B0 = VectorField3.from_function(
            grid16, lambda x, y, z: (0.2 * np.sin(2 * np.pi * y), 0 * x, 0 * x))
        c = np.array([0.0, 0.5, 0.0])
        Bt = transport_of_B(tb16, UniformField(c), UniformField((0, 0, 0)),
                            B0, 0.2, grid16)
        y = grid16.mesh[1]
        exact = 0.2 * np.sin(2 * np.pi * (y - 0.2 * 0.5))
        assert np.abs(Bt.values[0] - exact).max() < 1e-10
        assert np.abs(Bt.values[1:]).max() < 1e-12

    def test_B_matches_spectral_lines(self, tb16, grid16, rng):
        # generic small run against direct spectral integration of the
        # induction equation with the same (d, v)
        g = grid16
        kv = tb16.kvecs
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
        Bt = transport_of_B(tb16, vtraj, dtraj, B0, t_end, g, dt_flow=2.5e-4)

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
        # (h, B) take one backward march: per RK stage one value and one
        # Jacobian of v and one Jacobian of d on one trig table, and one
        # pass of the modal data at the feet
        counts = {"eval": 0, "eval_jacobian": 0, "_trig_table": 0,
                  "modal": 0}
        for owner, name, key in ((TrigBasis, "eval", "eval"),
                                 (TrigBasis, "eval_jacobian", "eval_jacobian"),
                                 (TrigBasis, "_trig_table", "_trig_table"),
                                 (ModalScalar, "eval", "modal")):
            original = getattr(owner, name)

            def counted(self, *args, _key=key, _original=original):
                counts[_key] += 1
                return _original(self, *args)

            monkeypatch.setattr(owner, name, counted)
        h0, B0 = single_mode_pair(grid16)
        hB0 = stacked_modal(h0, B0)
        shear = shear_trajectory(tb16)
        nsub = 3
        transport(tb16, shear, shear, hB0, 2.5e-3, grid16, dt_flow=1e-3)
        assert counts.pop("_trig_table") <= 4 * nsub
        assert counts == {"eval": 4 * nsub, "eval_jacobian": 8 * nsub,
                          "modal": 1}
        # at t = 0 the feet are the grid: no march, no basis call, no
        # table, and the one pass of the data
        counts.update(dict.fromkeys(counts, 0), _trig_table=0)
        transport(tb16, shear, shear, hB0, 0.0, grid16)
        assert counts == {"eval": 0, "eval_jacobian": 0, "_trig_table": 0,
                          "modal": 1}

    def test_B_matches_fine_reference(self, rng):
        # coefficients linear in time; the default dt_flow against 400 substeps
        g = GridSpec(8)
        tb = TrigBasis(7, g)
        c = 0.3 * rng.standard_normal((2, 2, 3, 14))
        times = np.array([0.0, 0.05])
        vtraj = CoefficientTrajectory(times, c[:, 0])
        dtraj = CoefficientTrajectory(times, c[:, 1])
        B0 = random_divergence_free(g, rng, 2, 0.3)
        t = 0.02
        Bt = transport_of_B(tb, vtraj, dtraj, B0, t, g)
        ref = transport_of_B(tb, vtraj, dtraj, B0, t, g, dt_flow=t / 400)
        assert np.abs(Bt.values - ref.values).max() < 1e-5

    @pytest.mark.parametrize("case", ["uniform", "shear", "basis",
                                      "many_modes"])
    def test_one_march_matches_the_separate_marches(self, case, rng,
                                                     monkeypatch):
        # feet, J, Z and c bit for bit; h and B to round-off, since the
        # shared mode list and the one (points x modes) product reorder sums
        g = GridSpec(8)
        tb = TrigBasis(7, g)
        h0, B0 = single_mode_pair(g)
        vtraj = dtraj = shear_trajectory(tb)
        if case == "uniform":
            vtraj, dtraj = UniformField((0.3, -0.2, 0.5)), UniformField((0, 0, 0))
        elif case == "basis":
            c = 0.3 * rng.standard_normal((2, 2, 3, 14))
            times = np.array([0.0, 0.05])
            vtraj = CoefficientTrajectory(times, c[:, 0])
            dtraj = CoefficientTrajectory(times, c[:, 1])
        elif case == "many_modes":
            # grid data that is not band-limited, as Picard restarts from
            h0 = ScalarField(g, 1.0 + 0.1 * rng.standard_normal(g.shape))
            B0 = VectorField3(g, 0.3 * rng.standard_normal((3, *g.shape)))
        t = 0.02
        feet, J, Z, c, h_ref, B_ref = separate_marches(tb, vtraj, dtraj, h0,
                                                       B0, t, g)
        marched = []

        def spy(*args):
            marched.append(_march(*args))
            return marched[-1]

        monkeypatch.setattr(galerkin, "_march", spy)
        ht, Bt = transport(tb, vtraj, dtraj, stacked_modal(h0, B0), t, g)
        (out,) = marched
        for got, want in zip(out, (feet, J, Z, c)):
            assert np.array_equal(got, want)
        h_ref = h_ref.reshape(g.shape)
        B_ref = B_ref.T.reshape(3, *g.shape)
        assert np.abs(ht.values - h_ref).max() <= 1e-14 * np.abs(h_ref).max()
        assert np.abs(Bt.values - B_ref).max() <= 1e-14 * np.abs(B_ref).max()
        # the wrappers that keep the two old names agree as well
        ht1 = transport_h(tb, vtraj, ModalScalar.from_field(h0), t, g)
        Bt1 = transport_B(tb, vtraj, dtraj, ModalVector.from_field(B0), t, g)
        assert np.abs(ht1.values - h_ref).max() <= 1e-14 * np.abs(h_ref).max()
        assert np.abs(Bt1.values - B_ref).max() <= 1e-14 * np.abs(B_ref).max()
        # one three-component pass against three one-component ones
        pts = np.random.default_rng(3).uniform(-1.0, 2.0, (300, 3))
        many = ModalVector.from_field(B0).eval(pts)
        one = per_component_eval(B0, pts)
        assert np.abs(many - one).max() <= 1e-14 * np.abs(one).max()

    def test_overflow_is_a_blow_up(self):
        # the grid points on z = 0 sit where v_z = -300 sqrt2 sin(2 pi z)
        # compresses, so J grows like 2666 t and exp(J) overflows
        g = GridSpec(8)
        tb = TrigBasis(1, g)
        coeffs = np.zeros((3, 2))
        coeffs[2, 0] = -300.0
        vtraj = CoefficientTrajectory.constant((0.0, 1.0), coeffs)
        h0, B0 = single_mode_pair(g)
        with pytest.raises(BlowUpError, match="t=0.5"):
            transport(tb, vtraj, vtraj, stacked_modal(h0, B0), 0.5, g)


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
        tb = TrigBasis(7, grid16)
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
        from abimhd.galerkin import _galerkin_rhs_arrays
        cfg = GalerkinConfig(N=7, eps=0.1, l=1)
        tb = TrigBasis(7, grid16)
        zero = np.zeros((3, 14))
        y = (np.ones(grid16.shape),
             VectorField3.constant(grid16, (0.2, 0.0, 0.1)).values, zero, zero)
        dh, dB, s_d, s_v = _galerkin_rhs_arrays(grid16, tb, y, cfg)
        assert np.abs(dh).max() < 1e-13
        assert np.abs(dB).max() < 1e-13
        assert np.abs(s_d).max() < 1e-12
        assert np.abs(s_v).max() < 1e-12

    def test_rhs_projection_matches_direct_quadrature(self, grid16, rng):
        # an independently assembled <source, basis> quadrature at one mode,
        # of the composed-kernel oracle's grid sources
        from abimhd.galerkin import _galerkin_rhs_arrays
        from test_spectral_rhs import ComposedOracle, oracle_grid_sources
        tb = TrigBasis(7, grid16)
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
        S, Ngrid = oracle_grid_sources(ComposedOracle(16), h0.values,
                                       B0.values, d, v, cfg.eps)
        kvec = tb.kvecs[3]
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
        tb = TrigBasis(7, grid16)

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
        # the state it starts from, and t = 0 is solved once although it is
        # observed twice: 5 steps make 26 Gram builds when every stage
        # solves again, and the outputs equal that path's bit for bit
        import abimhd.galerkin as galerkin

        h0, B0, D0, P0 = consistent_galerkin_data(grid16)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=1e-3)
        calls = []
        gram = TrigBasis.gram
        monkeypatch.setattr(TrigBasis, "gram",
                            lambda tb, rho: calls.append(1) or gram(tb, rho))
        fast = galerkin_run(h0, B0, D0, P0, cfg)
        assert len(calls) <= 21
        honest = galerkin._galerkin_rhs_arrays
        monkeypatch.setattr(galerkin, "_galerkin_rhs_arrays",
                            lambda g, tb, y, cfg, coeffs=None:
                            honest(g, tb, y, cfg))
        calls.clear()
        slow = galerkin_run(h0, B0, D0, P0, cfg)
        assert len(calls) == 26
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
        with pytest.raises(StepSizeError, match=r"l=2\).*eps=0\.1") as err:
            galerkin_run(h0, B0, zero, zero, cfg)
        assert err.value.suggested_dt < cfg.dt

    @pytest.mark.parametrize("bad", [
        {"sigma": 0.0}, {"sigma": -1e-4}, {"dt": 0.0}, {"T": -1.0},
        {"picard_tol": 0.0}, {"picard_max_iter": 0}])
    def test_rejects_parameters_that_cannot_run(self, bad):
        # sigma <= 0 never ends a Picard subinterval, dt = 0 divides by
        # zero, T < 0 ran one step and picard_max_iter = 0 halved sigma
        # twenty times before a misleading blow-up
        with pytest.raises(FieldDataError, match=next(iter(bad))):
            GalerkinConfig(N=7, eps=0.1, l=1, **bad)

    @pytest.mark.parametrize("name", ["dt", "T", "sigma", "picard_tol"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_non_finite_parameters(self, name, value):
        # T = inf overflowed the step count and never ended Picard's
        # subinterval loop
        with pytest.raises(FieldDataError, match=f"{name} must be finite"):
            GalerkinConfig(N=7, eps=0.1, l=1, **{name: value})

    def test_rejects_a_nan_density(self, tb16, grid16):
        rho = np.ones(grid16.shape)
        rho[1, 2, 3] = np.nan
        with pytest.raises(PositivityError):
            mass_solve(tb16, rho, np.zeros((3, 14)))

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

    def test_samples_keep_the_accumulated_momenta(self):
        # each accepted sample's kinetic term <c, chi> reads the momenta the
        # quadrature accumulated; they equal <h c, basis> to round-off
        grid = GridSpec(8)
        h0, B0 = single_mode_pair(grid)
        zero = VectorField3.zero(grid)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=1.2e-3,
                             picard=True, picard_tol=1e-11, sigma=4e-4)
        traj = picard_iterate(h0, B0, zero, zero, cfg)
        tb = TrigBasis(cfg.N, grid)
        assert len(traj.states) == 7
        for state, row in zip(traj.states[1:], traj.diagnostics[1:]):
            ref = sum(float((c * mass_apply(tb, state.h.values, c)).sum())
                      for c in (state.d_coeffs, state.v_coeffs))
            assert ref > 0.0
            assert abs(row[2] - ref) <= 1e-12 * ref

    def test_one_gram_build_per_node_and_sweep(self, monkeypatch):
        # one at t = 0, then one mass solve per node after the first of
        # every sweep; the t = 0 node keeps the start's coefficients, so z(0)
        # never moves, and the accepted nodes build no Gram matrix of their own
        from abimhd import galerkin as gk

        grid = GridSpec(8)
        h0, B0 = single_mode_pair(grid)
        zero = VectorField3.zero(grid)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=1.2e-3,
                             picard=True, picard_tol=1e-11, sigma=1.2e-3)
        grams, sweeps = [], []
        gram, k_operator = TrigBasis.gram, gk._k_operator
        monkeypatch.setattr(TrigBasis, "gram",
                            lambda tb, rho: grams.append(1) or gram(tb, rho))
        monkeypatch.setattr(
            gk, "_k_operator",
            lambda *a: sweeps.append(a[5].at(0.0).tobytes()) or k_operator(*a))
        picard_iterate(h0, B0, zero, zero, cfg)
        m = 7                                   # ceil(sigma / dt) + 1 nodes
        assert len(sweeps) >= 2
        assert len(set(sweeps)) == 1
        assert len(grams) == 1 + len(sweeps) * (m - 1)

    def test_t0_node_is_the_accepted_start(self, monkeypatch):
        # on each subinterval the t = 0 node is the state it starts from: no
        # march reaches t = 0, the node's sources are formed once per
        # attempt, its (h, B) are the start's bytes, z(0) keeps its bytes in
        # every sweep, and it is the previous subinterval's end coefficients
        from abimhd import galerkin as gk

        grid = GridSpec(8)
        h0, B0 = single_mode_pair(grid)
        zero = VectorField3.zero(grid)
        cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=1.2e-3,
                             picard=True, picard_tol=1e-11, sigma=6e-4)
        k_operator, transport = gk._k_operator, gk.transport
        node_sources = gk._node_sources
        attempts, at_zero, sources = [], [], []

        def sweep(*a):
            out = k_operator(*a)
            if not attempts or attempts[-1][0] is not a[4]:
                attempts.append((a[4], []))     # hB0 names the attempt
            attempts[-1][1].append((a[5].coeffs[0].tobytes(), out))
            return out

        def moved(*a, **kw):
            at_zero.append(a[4] == 0.0)
            return transport(*a, **kw)

        monkeypatch.setattr(gk, "_k_operator", sweep)
        monkeypatch.setattr(gk, "transport", moved)
        monkeypatch.setattr(gk, "_node_sources",
                            lambda *a: sources.append(1) or node_sources(*a))
        picard_iterate(h0, B0, zero, zero, cfg)
        m = 4                                   # ceil(sigma / dt) + 1 nodes
        sweeps = sum(len(runs) for _, runs in attempts)
        assert len(attempts) == 2
        assert at_zero and not any(at_zero)
        assert len(sources) == len(attempts) + sweeps * (m - 1)

        start = (h0.values.tobytes(), B0.values.tobytes())
        z0 = attempts[0][1][0][0]
        for _, runs in attempts:
            assert len(runs) >= 3
            for z_in, (z_out, nodes) in runs:
                assert z_in == z0
                assert z_out.coeffs[0].tobytes() == z0
                assert (nodes[0][0].tobytes(), nodes[0][1].tobytes()) == start
            z_end, nodes_end = runs[-1][1]
            z0 = z_end.coeffs[-1].tobytes()
            start = (nodes_end[-1][0].tobytes(), nodes_end[-1][1].tobytes())

    def test_oversized_node_set_exits_2_before_any_transport(self,
                                                             tmp_path):
        # sigma = T = 1 at dt = 1e-5 asks for 100,001 nodes at n = 16: two
        # sweeps of their (h, B) are 26 GB, past the child's 2 GB cap
        child = textwrap.dedent("""
            import json, sys, time, tracemalloc
            from abimhd import galerkin
            from abimhd.cli import main
            moved = []
            galerkin.transport = lambda *a, **k: moved.append(a)
            tracemalloc.start()
            t0 = time.perf_counter()
            code = main(sys.argv[1:])
            print(json.dumps({
                "code": code, "seconds": time.perf_counter() - t0,
                "moved": len(moved),
                "peak_mb": tracemalloc.get_traced_memory()[1] / 1e6}))
        """)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 16\n[galerkin]\npicard = true\n"
                       "sigma = 1.0\nT = 1.0\ndt = 1e-5\n")
        src = str(Path(galerkin.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        cap = 2 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = subprocess.run(
            [sys.executable, "-c", child, "galerkin-run", "--config",
             str(cfg), "--out", str(tmp_path / "o"), "--quiet"],
            capture_output=True, text=True, timeout=120, env=env,
            preexec_fn=limit)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["code"] == 2, proc.stderr
        assert report["moved"] == 0
        assert report["seconds"] < 1.0
        assert report["peak_mb"] < 100
        assert "26.2 GB" in proc.stderr

    def test_lands_on_T_by_the_relative_rule(self, monkeypatch):
        # 256 subintervals of 0.01 accumulate t_base = 2.56 only to within
        # a few ulp; the run must end there rather than add a sliver
        from abimhd import galerkin as gk

        grid = GridSpec(4)
        h0 = ScalarField.constant(grid, 1.0)
        zero = VectorField3.zero(grid)

        def converged(g, tb, cfg, quad_times, hB0, z, start):
            nodes = [(h0.values, zero.values, *start[2:4])] * len(quad_times)
            coeffs = np.stack([z.at(t) for t in quad_times])
            return CoefficientTrajectory(quad_times, coeffs), nodes

        monkeypatch.setattr(gk, "_k_operator", converged)
        cfg = GalerkinConfig(N=1, eps=0.1, l=1, dt=0.01, T=2.56, picard=True,
                             sigma=0.01)
        traj = picard_iterate(h0, zero, zero, zero, cfg)
        assert len(traj.times) == 513
        assert traj.times[-1] == pytest.approx(2.56, rel=1e-12)
        assert np.diff(traj.times).min() > 0.004

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
