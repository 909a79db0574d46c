"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Tolerances are pinned here, not configurable.
"""

import numpy as np

from abimhd.abi import (
    AbiState,
    NonConsState,
    abi_cfl_dt,
    abi_constraints,
    abi_run,
    abi_step,
    galilean_boost,
    nc_rhs,
)
from abimhd.compare import error_curves, fit_rate, run_sampled
from abimhd.dmhd import (
    DmhdState,
    dmhd_cfl_dt,
    dmhd_run,
    energy,
    energy_balance_residual,
)
from abimhd.entropy import (
    SampleTrajectory,
    TestFieldFrame,
    convex_combination,
    dissipative_slack,
    frames_from_dmhd,
    identity_residual_check,
    q_decomposition_defect,
    r0,
    random_frame,
)
from abimhd.fields import (
    GridSpec,
    ScalarField,
    VectorField3,
    random_band_limited,
    random_divergence_free,
    random_vector,
)
from abimhd.galerkin import (
    CoefficientTrajectory,
    GalerkinConfig,
    ModalScalar,
    TrigBasis,
    UniformField,
    galerkin_run,
    picard_iterate,
    transport,
)
from abimhd.stepping import rk4_step
from conftest import single_mode_pair


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}",
          flush=True)
    return ok


def static_frames(base, times):
    g = base.grid
    zs = ScalarField.constant(g, 0.0)
    zv = VectorField3.zero(g)
    return [TestFieldFrame(t, base.h_star_inv, base.b_star, base.d_star,
                           base.v_star, zs, zv) for t in times]


def test_criterion_1_energy_dissipation():
    g = GridSpec(16)
    h0, B0 = single_mode_pair(g)
    s0 = DmhdState(h0, B0)
    e0 = energy(s0)
    dt = dmhd_cfl_dt(s0) * 0.9
    n = int(np.ceil(0.1 / dt))
    traj = dmhd_run(s0, 0.1 / n, n)
    e = traj.energies()
    monotone = bool(np.all(np.diff(e) <= 1e-10))
    res = np.abs(energy_balance_residual(traj, 0.1 / n)).max()
    res_ok = res <= 1e-3 * e0

    short = 16
    r1 = np.abs(energy_balance_residual(dmhd_run(s0, dt, short), dt)).max()
    r2 = np.abs(energy_balance_residual(dmhd_run(s0, dt / 2, 2 * short),
                                        dt / 2)).max()
    ratio = r1 / r2
    ratio_ok = 2.5 <= ratio <= 5.5
    ok = monotone and res_ok and ratio_ok
    assert report(1, ok,
                  f"energy monotone={monotone}, residual {res:.3e} <= "
                  f"{1e-3 * e0:.3e}, dt-halving ratio {ratio:.2f}")


def test_criterion_2_abi_constraints_and_entropy():
    g = GridSpec(32)
    B = VectorField3.from_function(
        g, lambda x, y, z: (0 * x, 0.3 * np.sin(2 * np.pi * x), 0 * x))
    D = VectorField3.from_function(
        g, lambda x, y, z: (0 * x, 0 * x, 0.2 * np.sin(2 * np.pi * y)))
    s0 = AbiState.consistent(B, D)
    c0 = abi_constraints(s0)
    assert max(c0.as_tuple()) <= 1e-12
    dt = abi_cfl_dt(s0) * 0.8
    n = int(np.ceil(0.1 / dt))
    traj = abi_run(s0, 0.1 / n, n, save_every=n)
    norms = np.array([row[2:6] for row in traj.diagnostics])
    ent = np.array([row[1] for row in traj.diagnostics])
    worst = norms.max()
    drift = np.abs(ent - ent[0]).max()
    ok = worst <= 1e-4 and drift <= 1e-6
    assert report(2, ok, f"constraint sup {worst:.3e} <= 1e-4, "
                         f"entropy drift {drift:.3e} <= 1e-6")


def test_criterion_3_galilean_commutation():
    g = GridSpec(32)
    B = VectorField3.from_function(
        g, lambda x, y, z: (0 * x, 0.3 * np.sin(2 * np.pi * x), 0 * x))
    D = VectorField3.from_function(
        g, lambda x, y, z: (0 * x, 0 * x, 0.2 * np.sin(2 * np.pi * y)))
    s0 = AbiState.consistent(B, D)
    V = (0.8, -0.5, 0.3)
    T = 0.05
    boosted0 = galilean_boost(s0, V, 0.0)
    dt = 0.8 * min(abi_cfl_dt(s0), abi_cfl_dt(boosted0))
    n = int(np.ceil(T / dt))
    a = s0
    b = boosted0
    for _ in range(n):
        a = abi_step(a, T / n)
        b = abi_step(b, T / n)
    then_boost = galilean_boost(a, V, T)
    worst = max(np.abs(then_boost.h.values - b.h.values).max(),
                np.abs(then_boost.B.values - b.B.values).max(),
                np.abs(then_boost.D.values - b.D.values).max(),
                np.abs(then_boost.P.values - b.P.values).max())
    ok = worst <= 1e-6
    assert report(3, ok, f"evolve-boost vs boost-evolve sup {worst:.3e} <= 1e-6")


def test_criterion_4_burgers_reduction():
    from scipy.optimize import brentq

    g = GridSpec(48)
    zero_s = ScalarField.constant(g, 0.0)
    zero_v = VectorField3.zero(g)
    v = VectorField3.from_function(
        g, lambda x, y, z: (np.sin(2 * np.pi * x), 0 * x, 0 * x)).values
    t_end, n = 0.05, 12

    def rhs(y):
        state = NonConsState(zero_s, zero_v, zero_v, VectorField3(g, y[0]))
        return (nc_rhs(state).dv,)

    for _ in range(n):
        (v,) = rk4_step((v,), t_end / n, rhs)
    xs = g.axis_coords
    exact = np.array([brentq(lambda u: u - np.sin(2 * np.pi * (x - t_end * u)),
                             -1.0001, 1.0001, xtol=1e-14) for x in xs])
    worst = np.abs(v[0][:, 0, 0] - exact).max()
    ok = worst <= 1e-6
    assert report(4, ok, f"pre-shock characteristic defect {worst:.3e} <= 1e-6")


def test_criterion_5_relative_entropy_identity():
    g = GridSpec(32)
    rng = np.random.default_rng(5)
    h0, B0 = single_mode_pair(g)
    frame = random_frame(g, rng, kmax=2, amplitude=0.2)

    rels = []
    # exact-discrete run against an independent static frame
    s0 = DmhdState(h0, B0)
    dt = min(dmhd_cfl_dt(s0) * 0.9, 1e-5)
    traj = dmhd_run(s0, dt, 10)
    sol = SampleTrajectory.from_dmhd(traj)
    chk = identity_residual_check(sol, static_frames(frame, sol.times))
    rels.append(chk.relative_defect())

    # three manufactured residual cases
    for kind in ("psi", "varphi", "curl"):
        psi = varphi = curl_src = None
        bump = random_vector(g, rng, 2, 0.1).values
        if kind == "psi":
            psi = bump
        elif kind == "varphi":
            varphi = bump
        else:
            curl_src = bump
        solm = SampleTrajectory.manufactured(h0, B0, 5e-6, 10, psi, varphi,
                                             curl_src)
        chk = identity_residual_check(solm, static_frames(frame, solm.times))
        rels.append(chk.relative_defect())
    worst = max(rels)
    ok = worst <= 1e-3
    assert report(5, ok, "identity relative defects "
                  + " ".join(f"{r:.2e}" for r in rels) + " <= 1e-3")


def test_criterion_6_q_decomposition():
    g = GridSpec(16)
    rng = np.random.default_rng(6)
    worst = max(q_decomposition_defect(random_frame(g, rng, 2, 0.25))
                for _ in range(20))
    ok = worst <= 1e-8
    assert report(6, ok, f"Q(w*)w* decomposition sup defect {worst:.3e} <= 1e-8")


def test_criterion_7_weak_strong_stability():
    g = GridSpec(16)
    rng = np.random.default_rng(7)
    h0, B0 = single_mode_pair(g)
    s0 = DmhdState(h0, B0)
    T = 0.1
    dt = dmhd_cfl_dt(s0) * 0.8
    n = int(np.ceil(T / dt))
    save = max(1, n // 16)
    traj = dmhd_run(s0, T / n, n, save_every=save)
    frames = frames_from_dmhd(SampleTrajectory.from_dmhd(traj))
    r0v = r0(frames)

    pert = 1.0 + 0.01 * random_band_limited(g, rng, 2, 1.0).values
    h0p = ScalarField(g, h0.values * pert)
    B0p = VectorField3(g, B0.values
                       + 0.01 * 0.3 * random_divergence_free(g, rng, 2, 1.0).values)
    ptraj = dmhd_run(DmhdState(h0p, B0p), T / n, n, save_every=save)
    rep = dissipative_slack(SampleTrajectory.from_dmhd(ptraj), frames)
    lam0 = rep.lambda_t[0]
    bound = 1.05 * np.exp(r0v * rep.times) * lam0
    margin = (rep.lambda_t / bound).max()
    ok = lam0 > 0 and bool(np.all(rep.lambda_t <= bound))
    assert report(7, ok, f"r0={r0v:.3f}, max lambda/bound ratio "
                         f"{margin:.4f} <= 1 (1% perturbed data)")


def test_criterion_8_dissipative_certificate():
    g = GridSpec(16)
    rng = np.random.default_rng(8)
    h0, B0 = single_mode_pair(g)
    s0 = DmhdState(h0, B0)
    tol = 1e-3 * energy(s0)
    T = 0.02
    dt = dmhd_cfl_dt(s0) * 0.8
    n = int(np.ceil(T / dt))
    save = max(1, n // 16)
    traj = dmhd_run(s0, T / n, n, save_every=save)
    sol = SampleTrajectory.from_dmhd(traj)

    slacks = []
    for _ in range(5):
        frames = static_frames(random_frame(g, rng, 2, 0.1), sol.times)
        rep = dissipative_slack(sol, frames)
        slacks.append(rep.max_slack())
    genuine_ok = max(slacks) <= tol

    frames = frames_from_dmhd(sol)
    bad = sol.with_momentum_offset(0.5)
    rep_bad = dissipative_slack(bad, frames)
    corrupt_ok = rep_bad.max_slack() > 0.0
    ok = genuine_ok and corrupt_ok
    assert report(8, ok,
                  f"max slack over 5 random frames {max(slacks):.3e} <= "
                  f"{tol:.3e}; corrupted slack {rep_bad.max_slack():.3e} > 0")


def test_criterion_9_rescaling_rates():
    g = GridSpec(32)
    h0, B0 = single_mode_pair(g, 0.45, 0.9)
    ts = list(np.geomspace(0.01, 0.1, 8))
    abi_traj, dmhd_traj = run_sampled(h0, B0, ts, cfl_fraction=1.0)
    series = error_curves(abi_traj, dmhd_traj)
    s_h = fit_rate(series.times, series.err_h).slope
    s_B = fit_rate(series.times, series.err_B).slope
    s_D = fit_rate(series.times, series.cum_err_D).slope
    s_P = fit_rate(series.times, series.cum_err_P).slope
    ok = (2.5 <= s_h <= 3.5 and 2.5 <= s_B <= 3.5
          and 3.3 <= s_D <= 4.7 and 3.3 <= s_P <= 4.7)
    assert report(9, ok,
                  f"slopes h={s_h:.3f} B={s_B:.3f} in [2.5,3.5]; "
                  f"cum D={s_D:.3f} P={s_P:.3f} in [3.3,4.7]")


def test_criterion_10_galerkin():
    g = GridSpec(16)
    rng = np.random.default_rng(10)
    tb = TrigBasis(33, g)
    ortho = tb.orthonormality_defect()
    ortho_ok = ortho <= 1e-10

    rho = 0.5 + 0.5 * np.abs(random_band_limited(g, rng, 2, 1.0).values)
    G = tb.gram(rho)
    inv_norm = 1.0 / np.linalg.eigvalsh(G)[0]
    bound_ok = inv_norm <= 1.0 / rho.min() + 1e-8

    h0, B0 = single_mode_pair(g)
    zero = VectorField3.zero(g)
    cfg = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=0.02)
    traj = galerkin_run(h0, B0, zero, zero, cfg)
    lam = traj.lambda_series()
    mono_ok = bool(np.all(np.diff(lam) <= 1e-10))

    T = 0.004
    cfg_p = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=T, picard=True,
                           picard_tol=1e-11, sigma=T)
    cfg_m = GalerkinConfig(N=7, eps=0.1, l=1, dt=2e-4, T=T)
    sp = picard_iterate(h0, B0, zero, zero, cfg_p).states[-1]
    sm = galerkin_run(h0, B0, zero, zero, cfg_m).states[-1]
    picard_gap = max(np.abs(sp.h.values - sm.h.values).max(),
                     np.abs(sp.B.values - sm.B.values).max(),
                     np.abs(sp.d_coeffs - sm.d_coeffs).max(),
                     np.abs(sp.v_coeffs - sm.v_coeffs).max())
    picard_ok = picard_gap <= 1e-5

    # characteristics transport vs spectral advection of the density
    tb7 = TrigBasis(7, g)
    kv = tb7.kvecs
    coeffs = np.zeros((3, 14))
    coeffs[0, next(i for i, k in enumerate(kv) if tuple(k) == (0, 1, 0))] = \
        0.4 / np.sqrt(2.0)
    coeffs[2, next(i for i, k in enumerate(kv) if tuple(k) == (1, 0, 0))] = \
        0.3 / np.sqrt(2.0)
    vtraj = CoefficientTrajectory.constant((0.0, 1.0), coeffs)
    t_end = 0.05
    hB0 = ModalScalar.from_values(g, np.concatenate([h0.values[None],
                                                     B0.values]))
    hchar, _ = transport(tb7, vtraj, UniformField((0, 0, 0)), hB0, t_end, g,
                         dt_flow=2.5e-4)
    v_grid = tb7.synthesize(coeffs)

    def rhs(y):
        return (-g.div_arr(g.dealias_arr(y[0] * v_grid)),)

    h = h0.values
    steps = 200
    for _ in range(steps):
        (h,) = rk4_step((h,), t_end / steps, rhs)
    transport_gap = np.abs(hchar.values - h).max()
    transport_ok = transport_gap <= 1e-4

    ok = ortho_ok and bound_ok and mono_ok and picard_ok and transport_ok
    assert report(10, ok,
                  f"orthonormality {ortho:.2e}; inverse bound "
                  f"{inv_norm:.4f} <= {1 / rho.min():.4f}; monotone={mono_ok}; "
                  f"picard gap {picard_gap:.2e} <= 1e-5; transport gap "
                  f"{transport_gap:.2e} <= 1e-4")


def test_criterion_11_mollification():
    from abimhd.mollify import (
        RoughInitialData,
        lambda_monotonicity_check,
        mollify,
        periodized_gaussian,
    )

    g = GridSpec(32)
    rng = np.random.default_rng(11)
    mass_defect = max(abs(periodized_gaussian(g, e).values.mean() - 1.0)
                      for e in (0.2, 0.1, 0.05))
    mass_ok = mass_defect <= 1e-12

    dens = ScalarField(g, 1.0 + 0.6 * random_band_limited(g, rng, 2, 1.0).values)
    Bd = random_divergence_free(g, rng, 2, 0.4)
    data = RoughInitialData(g, h_density=dens, B_density=Bd)
    rep = lambda_monotonicity_check(data, [0.2, 0.1, 0.05])
    lam = rep.lambda_values
    bounded = all(v <= rep.reference + 1e-10 for v in lam)
    increasing = lam[0] <= lam[1] + 1e-6 and lam[1] <= lam[2] + 1e-6

    div_defect = 0.0
    for eps in (0.2, 0.1, 0.05):
        _, B_eps = mollify(data, eps)
        div_defect = max(div_defect,
                         np.abs(g.div_arr(B_eps.values)).max())
    div_ok = div_defect <= 1e-10
    ok = mass_ok and bounded and increasing and div_ok
    assert report(11, ok,
                  f"kernel mass defect {mass_defect:.2e} <= 1e-12; lambda "
                  f"{lam[0]:.6f} -> {lam[2]:.6f} <= ref {rep.reference:.6f}; "
                  f"div defect {div_defect:.2e} <= 1e-10")


def test_criterion_12_convexity():
    g = GridSpec(16)
    h0, B0 = single_mode_pair(g)
    s0 = DmhdState(h0, B0)
    T = 0.02
    dt = dmhd_cfl_dt(s0) * 0.8
    n = int(np.ceil(T / dt))
    save = max(1, n // 8)
    traj_a = dmhd_run(s0, T / n, n, save_every=save)
    traj_b = dmhd_run(s0, T / (2 * n), 2 * n, save_every=2 * save)
    sol_a = SampleTrajectory.from_dmhd(traj_a)
    frames = frames_from_dmhd(sol_a)
    sol_b = SampleTrajectory.from_dmhd(traj_b)
    mid = convex_combination(sol_a, sol_b, 0.5)
    rep_a = dissipative_slack(sol_a, frames)
    rep_b = dissipative_slack(sol_b, frames)
    rep_m = dissipative_slack(mid, frames)
    gap = (rep_m.slack_t - np.maximum(rep_a.slack_t, rep_b.slack_t)).max()
    ok = gap <= 1e-10
    assert report(12, ok, f"midpoint slack excess {gap:.3e} <= 1e-10")
