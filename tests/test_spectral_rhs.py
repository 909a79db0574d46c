"""Spectral-first right-hand sides against the composed-kernel forms.

The oracles below are plain-numpy copies of the composed forms the solvers
used before products were masked in spectral space: every dealiased product
is transformed back to physical space (`dealias`) and transformed again by
the derivative (`curl`, `div`, `grad`). The solvers must agree with them to
round-off on band-limited data and on full-spectrum random data, which also
fills the Nyquist planes.
"""

import dataclasses

import numpy as np
import pytest

from abimhd import abi, dmhd, galerkin
from abimhd.abi import AbiState, abi_rhs
from abimhd.entropy import (
    SampleTrajectory,
    TestFieldFrame,
    _curl_of,
    dissipative_slack,
    frames_from_dmhd,
    l_operator,
    r0,
    random_frame,
)
from abimhd.fields import (
    SYM_PAIRS,
    GridSpec,
    ScalarField,
    VectorField3,
    random_band_limited,
    random_divergence_free,
    random_vector,
)
from abimhd.dmhd import DmhdState, constitutive, dmhd_rhs, dmhd_run, dmhd_step

RTOL = 1e-12


class ComposedOracle:
    """The composed dealias -> derivative kernels, each a round trip."""

    def __init__(self, n):
        k = np.fft.fftfreq(n, d=1.0 / n)
        self.n = n
        self.kx = k.reshape(-1, 1, 1)
        self.ky = k.reshape(1, -1, 1)
        self.kz = np.fft.rfftfreq(n, d=1.0 / n).reshape(1, 1, -1)
        kmax = n // 3
        self.mask = ((np.abs(self.kx) <= kmax) & (np.abs(self.ky) <= kmax)
                     & (np.abs(self.kz) <= kmax))

    def fft(self, a):
        return np.fft.rfftn(a, axes=(-3, -2, -1))

    def ifft(self, ah):
        return np.fft.irfftn(ah, s=(self.n,) * 3, axes=(-3, -2, -1))

    def dealias(self, a):
        return self.ifft(self.fft(a) * self.mask)

    def grad(self, a):
        ah = self.fft(a)
        return np.stack([self.ifft(2j * np.pi * k * ah)
                         for k in (self.kx, self.ky, self.kz)])

    def div(self, v):
        vh = self.fft(v)
        return self.ifft(2j * np.pi * (self.kx * vh[0] + self.ky * vh[1]
                                       + self.kz * vh[2]))

    def curl(self, v):
        vh = self.fft(v)
        kx, ky, kz = self.kx, self.ky, self.kz
        return self.ifft(2j * np.pi * np.stack([ky * vh[2] - kz * vh[1],
                                                kz * vh[0] - kx * vh[2],
                                                kx * vh[1] - ky * vh[0]]))


def cross(a, b):
    return np.cross(a, b, axis=0)


def oracle_constitutive(o, h, B):
    r = 1.0 / h
    D = o.curl(o.dealias(B * r))
    P = o.grad(o.dealias(r))
    for i in range(3):
        P[i] += o.div(o.dealias(B[i] * B * r))
    return D, P


def oracle_dmhd_rhs(o, h, B):
    D, P = oracle_constitutive(o, h, B)
    r = 1.0 / h
    v = o.dealias(P * r)
    flux = o.dealias(cross(B, v)) + o.dealias(D * r)
    return -o.div(P), -o.curl(flux)


def oracle_abi_rhs(o, h, B, D, P):
    r = 1.0 / h
    dB = -o.curl(o.dealias((cross(B, P) + D) * r))
    dD = -o.curl(o.dealias((cross(D, P) - B) * r))
    grad_r = o.grad(o.dealias(r))
    dP = np.empty_like(P)
    for i in range(3):
        row = o.dealias((P[i] * P - B[i] * B - D[i] * D) * r)
        dP[i] = -o.div(row) + grad_r[i]
    return -o.div(P), dB, dD, dP


def oracle_grid_sources(o, h, B, d, v, eps):
    D, P = oracle_constitutive(o, h, B)
    S, N = D / eps, P / eps
    jac_d = np.stack([o.grad(d[i]) for i in range(3)])
    N += o.dealias(h * np.einsum("jxyz,ijxyz->ixyz", d, jac_d))
    for i in range(3):
        S[i] -= o.div(o.dealias(h * (d[i] * v - v[i] * d)))
        N[i] -= o.div(o.dealias(h * v[i] * v))
    return S, N


def oracle_galerkin_rhs(o, tb, cfg, h, B, chi_d, chi_v):
    G = tb.gram(h)
    cd = np.linalg.solve(G, chi_d.T).T
    cv = np.linalg.solve(G, chi_v.T).T
    d, v = tb.synthesize(cd), tb.synthesize(cv)
    S, N = oracle_grid_sources(o, h, B, d, v, cfg.eps)
    lam_l = tb.lam ** cfg.l
    return (-o.div(o.dealias(h * v)),
            -o.curl(o.dealias(cross(B, v)) + d),
            tb.project(S) - lam_l * cd - chi_d / cfg.eps,
            tb.project(N) - lam_l * cv - chi_v / cfg.eps)


def oracle_l_operator(o, tau, b, d, v, dt_tau, dt_b):
    """L(w*) with each of its eight products dealiased on its own."""
    def adv(a, J):
        return np.einsum("jxyz,ijxyz->ixyz", a, J)

    grad_tau = o.grad(tau)
    jac_b = np.stack([o.grad(b[i]) for i in range(3)])
    jac_v = np.stack([o.grad(v[i]) for i in range(3)])
    div_v = jac_v[0, 0] + jac_v[1, 1] + jac_v[2, 2]
    L_h = (dt_tau - o.dealias(tau * div_v)
           + o.dealias((v * grad_tau).sum(0)))
    L_B = (dt_b + o.dealias(adv(v, jac_b)) - o.dealias(adv(b, jac_v))
           + o.dealias(tau * o.curl(d)))
    L_D = d - o.dealias(tau * o.curl(b))
    L_P = v - o.dealias(adv(b, jac_b)) - o.dealias(tau * grad_tau)
    return L_h, L_B, L_D, L_P


def sample(n, kind, seed=7):
    """(h, B, D, P): band-limited (|k_i| <= 3) or full-spectrum noise."""
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    if kind == "band":
        h = 1.0 + random_band_limited(g, rng, 3, 0.2).values
        B, D, P = (random_vector(g, rng, 3, 0.3).values for _ in range(3))
    else:
        h = 1.0 + 0.2 * rng.random(g.shape)
        B, D, P = (0.3 * rng.standard_normal((3, *g.shape))
                   for _ in range(3))
    return g, h, B, D, P


def rel_dev(got, want):
    return max(float(np.abs(a - b).max() / np.abs(b).max())
               for a, b in zip(got, want))


CASES = [(n, kind) for n in (16, 32) for kind in ("band", "full")]


@pytest.mark.parametrize("n,kind", CASES)
def test_field_kernels_match_oracle(n, kind):
    g, h, B, _, _ = sample(n, kind)
    o = ComposedOracle(n)
    assert rel_dev([g.grad_arr(h)], [o.grad(h)]) <= RTOL
    assert rel_dev([g.div_arr(B)], [o.div(B)]) <= RTOL
    assert rel_dev([g.curl_arr(B)], [o.curl(B)]) <= RTOL
    assert rel_dev([g.dealias_arr(B)], [o.dealias(B)]) <= RTOL
    rows = [o.div(o.dealias(B[i] * B)) for i in range(3)]
    got = g.ifft(g.div_sym_masked(B[i] * B[j] for i, j in SYM_PAIRS))
    assert rel_dev([got], [np.stack(rows)]) <= RTOL


@pytest.mark.parametrize("n,kind", CASES)
def test_dmhd_constitutive_matches_oracle(n, kind):
    g, h, B, _, _ = sample(n, kind)
    got = dmhd._constitutive_arrays(g, h, B)
    assert rel_dev(got, oracle_constitutive(ComposedOracle(n), h, B)) <= RTOL


@pytest.mark.parametrize("n,kind", CASES)
def test_dmhd_rhs_matches_oracle(n, kind):
    g, h, B, _, _ = sample(n, kind)
    got = dmhd._rhs_arrays(g, h, B)
    assert rel_dev(got, oracle_dmhd_rhs(ComposedOracle(n), h, B)) <= RTOL


@pytest.mark.parametrize("n,kind", CASES)
def test_abi_rhs_matches_oracle(n, kind):
    g, h, B, D, P = sample(n, kind)
    got = abi._rhs_arrays(g, [h, B, D, P])
    assert rel_dev(got, oracle_abi_rhs(ComposedOracle(n), h, B, D, P)) <= RTOL


def galerkin_sample(n, kind, N=47, seed=7):
    """Grid data of `sample` plus a basis and random (d, v) coefficients;
    N = 47 reaches |k_i| = 3, past the 2/3 cutoff of an n = 8 grid."""
    g, h, B, _, _ = sample(n, kind, seed)
    tb = galerkin.TrigBasis(N, g)
    rng = np.random.default_rng(seed + 1)
    cd, cv = (0.3 * rng.standard_normal((3, 2 * N)) for _ in range(2))
    return g, tb, galerkin.GalerkinConfig(N=N, eps=0.2, l=1), h, B, cd, cv


# n = 8 with N = 47 reaches |k_i| = 3 > n // 3, where the band drops the
# sources; N = 81 reaches |k_i| = 4
@pytest.mark.parametrize("n,kind,N", [(n, kind, 47) for n, kind in CASES]
                         + [(8, "band", 47), (16, "band", 81)])
def test_galerkin_projected_sources_match_oracle(n, kind, N):
    # the transform-free sources against the projection of the oracle's
    # grid sources, at chi = 0
    g, tb, cfg, h, B, cd, cv = galerkin_sample(n, kind, N)
    c = np.stack([cd, cv])
    dv = tb.synthesize(c)
    got = galerkin._projected_sources(tb, cfg, h, B, c, dv, np.zeros_like(c))
    S, N_src = oracle_grid_sources(ComposedOracle(n), h, B, *dv, cfg.eps)
    want = tb.project(np.stack([S, N_src])) - tb.lam ** cfg.l * c
    assert rel_dev(got, want) <= RTOL


# n = 8 also checks that curl d is not masked: the basis reaches |k_i| = 3
@pytest.mark.parametrize("n,kind", CASES + [(8, "band")])
def test_galerkin_rhs_matches_oracle(n, kind):
    g, tb, cfg, h, B, cd, cv = galerkin_sample(n, kind)
    chi_d, chi_v = tb.project(h * tb.synthesize(cd)), tb.project(
        h * tb.synthesize(cv))
    got = galerkin._galerkin_rhs_arrays(g, tb, (h, B, chi_d, chi_v), cfg)
    want = oracle_galerkin_rhs(ComposedOracle(n), tb, cfg, h, B, chi_d, chi_v)
    assert rel_dev(got, want) <= RTOL


@pytest.mark.parametrize("n,N", [(16, 7), (16, 47), (8, 47)])
def test_picard_node_sources_equal_mol_sources(n, N):
    # Picard's chi is <h c, basis> of the unmasked product; at n = 8 the
    # N = 47 basis reaches |k_i| = 3 > n // 3, which a 2/3 mask would drop
    g, tb, cfg, h, B, cd, cv = galerkin_sample(n, "band", N)
    chi_d = galerkin.mass_apply(tb, h, cd)
    chi_v = galerkin.mass_apply(tb, h, cv)
    mol = galerkin._galerkin_rhs_arrays(g, tb, (h, B, chi_d, chi_v), cfg)[2:]
    node = galerkin._node_sources(tb, cfg, h, B, cd, cv)
    assert rel_dev(node, mol) <= RTOL


@pytest.mark.parametrize("n,kind", CASES)
def test_l_operator_matches_oracle(n, kind):
    g, h, B, D, P = sample(n, kind)
    dt_tau, dt_b = h - 1.0, np.roll(B, 1, axis=0)
    frame = TestFieldFrame(0.0, ScalarField(g, h), VectorField3(g, B),
                           VectorField3(g, D), VectorField3(g, P),
                           ScalarField(g, dt_tau), VectorField3(g, dt_b))
    L = l_operator(frame)
    got = (L[0], L[1:4], L[4:7], L[7:10])
    want = oracle_l_operator(ComposedOracle(n), h, B, D, P, dt_tau, dt_b)
    assert rel_dev(got, want) <= RTOL


@pytest.mark.parametrize("kind", ["band", "full"])
def test_curl_from_jacobian(kind):
    g, _, B, _, _ = sample(16, kind)
    assert rel_dev([_curl_of(g.jacobian_arr(B))], [g.curl_arr(B)]) <= RTOL


# ----------------------------------------------------------------------
# The constitutive pair cached on a DMHD state.
# ----------------------------------------------------------------------

def smooth_state(n=16, seed=3):
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    h = ScalarField(g, 1.0 + random_band_limited(g, rng, 2, 0.2).values)
    return DmhdState(h, random_divergence_free(g, rng, 2, 0.3))


def fresh(s):
    """The same fields in a new state, with nothing cached."""
    return DmhdState(s.h, s.B)


def test_cached_pair_is_read_only_and_fresh():
    s = smooth_state()
    D, P = s.constitutive_pair
    assert s.constitutive_pair[0] is D
    for a in (D, P):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0, 0, 0] = 1.0
    D0, P0 = dmhd._constitutive_arrays(s.grid, s.h.values, s.B.values)
    assert np.array_equal(D, D0) and np.array_equal(P, P0)


def test_step_identical_with_primed_cache():
    s = smooth_state()
    dt = dmhd.dmhd_cfl_dt(s)
    primed = fresh(s)
    primed.constitutive_pair
    a, b = dmhd_step(fresh(s), dt), dmhd_step(primed, dt)
    assert a.h.values.tobytes() == b.h.values.tobytes()
    assert a.B.values.tobytes() == b.B.values.tobytes()


# ----------------------------------------------------------------------
# Transform counts, taken at GridSpec.fft / GridSpec.ifft.
# ----------------------------------------------------------------------

@pytest.fixture
def transforms(monkeypatch):
    """count(fn, *args): scalar transforms one call of fn makes."""
    tally = []
    for name in ("fft", "ifft"):
        orig = getattr(GridSpec, name)

        def counted(self, a, *args, _orig=orig, **kwargs):
            tally.append(int(np.prod(np.shape(a)[:-3])))
            return _orig(self, a, *args, **kwargs)

        monkeypatch.setattr(GridSpec, name, counted)

    def count(fn, *args):
        start = len(tally)
        fn(*args)
        return sum(tally[start:])

    return count


def test_rhs_transform_counts(transforms):
    s = smooth_state()
    rhs = transforms(dmhd_rhs, fresh(s))
    assert rhs <= 32
    assert transforms(constitutive, fresh(s)) <= 16
    # the public RHS stays a full evaluation on a state with a cached pair
    s.constitutive_pair
    assert transforms(dmhd_rhs, s) == rhs
    g = s.grid
    rng = np.random.default_rng(5)
    D = random_vector(g, rng, 2, 0.1)
    a = AbiState(s.h, s.B, D, VectorField3(g, abi.cross3(D.values,
                                                         s.B.values)))
    assert transforms(abi_rhs, a) <= 30


def test_dmhd_run_step_transform_count(transforms):
    s = smooth_state()
    dt = dmhd.dmhd_cfl_dt(s)
    rhs = transforms(dmhd_rhs, fresh(s))
    one = transforms(dmhd_run, fresh(s), dt, 1)
    two = transforms(dmhd_run, fresh(s), dt, 2)
    # three full stages, a first stage on the cached pair, the dissipation
    # observer's constitutive pair and the div B diagnostic
    assert two - one <= 3 * rhs + 16 + 16 + 4


def test_certify_readers_reuse_the_cached_pair(transforms):
    s = smooth_state()
    traj = dmhd_run(s, dmhd.dmhd_cfl_dt(s), 2)
    assert transforms(SampleTrajectory.from_dmhd, traj) == 0
    per_state = transforms(frames_from_dmhd, traj) / len(traj.states)
    assert per_state <= 16


def test_galerkin_transform_counts(transforms):
    g, tb, cfg, h, B, cd, cv = galerkin_sample(16, "band", 7)
    y = (h, B, galerkin.mass_apply(tb, h, cd), galerkin.mass_apply(tb, h, cv))
    assert transforms(galerkin._galerkin_rhs_arrays, g, tb, y, cfg) == 13
    assert transforms(galerkin._node_sources, tb, cfg, h, B, cd, cv) == 0


def test_entropy_transform_counts(transforms):
    g = GridSpec(16)
    frame = random_frame(g, np.random.default_rng(9), amplitude=0.3)
    assert transforms(l_operator, frame) <= 54
    h = np.ones((1, *g.shape))
    z = np.zeros((1, 3, *g.shape))
    sol = SampleTrajectory(g, np.array([0.0]), h, z, z, z)
    assert transforms(dissipative_slack, sol, [frame]) <= 56


def test_held_family_costs_one_frame(transforms):
    g = GridSpec(16)
    base = random_frame(g, np.random.default_rng(9), amplitude=0.3)
    times = 1e-3 * np.arange(5)
    held = [dataclasses.replace(base, t=t) for t in times]
    h = np.ones((5, *g.shape))
    z = np.zeros((5, 3, *g.shape))
    sol = SampleTrajectory(g, times, h, z, z, z)
    assert transforms(dissipative_slack, sol, held) <= 56
    assert transforms(r0, held) == transforms(r0, [base])


def test_slack_derives_each_distinct_frame_once(transforms):
    # r0 comes from the slack's own derivations; a separate r0 call would
    # differentiate each of the three frames a second time (3 x 84)
    g = GridSpec(16)
    rng = np.random.default_rng(9)
    times = 1e-3 * np.arange(3)
    frames = [random_frame(g, rng, t=t, amplitude=0.3) for t in times]
    h = np.ones((3, *g.shape))
    z = np.zeros((3, 3, *g.shape))
    sol = SampleTrajectory(g, times, h, z, z, z)
    assert transforms(dissipative_slack, sol, frames) <= 3 * 56


def test_transforms_per_rhs_pinned(monkeypatch):
    """(forward, inverse) scalar transforms of each right-hand side, counted
    where the bench tracer counts them: at GridSpec.fft and GridSpec.ifft,
    band transforms included. These are the machine-independent cost of
    each RHS; a change to them is deliberate."""
    tally = {"fft": 0, "ifft": 0}
    for name in tally:
        orig = getattr(GridSpec, name)

        def counted(self, a, *args, _name=name, _orig=orig, **kwargs):
            tally[_name] += int(np.prod(np.shape(a)[:-3]))
            return _orig(self, a, *args, **kwargs)

        monkeypatch.setattr(GridSpec, name, counted)

    def split(fn, *args):
        before = dict(tally)
        fn(*args)
        return tally["fft"] - before["fft"], tally["ifft"] - before["ifft"]

    s = smooth_state()
    g, h, B = s.grid, s.h.values, s.B.values
    assert split(dmhd_rhs, fresh(s)) == (16, 13)
    assert split(dmhd._constitutive_spectra, g, h, B) == (10, 3)
    D, P = s.constitutive_pair
    assert split(dmhd._induction_arrays, g, h, B, D, P) == (6, 6)
    assert split(abi_rhs, AbiState(s.h, s.B, VectorField3(g, D),
                                   VectorField3(g, P))) == (16, 10)
    g, tb, cfg, h, B, cd, cv = galerkin_sample(16, "band", 7)
    assert split(galerkin._node_sources, tb, cfg, h, B, cd, cv) == (0, 0)
    y = (h, B, galerkin.mass_apply(tb, h, cd), galerkin.mass_apply(tb, h, cv))
    assert split(galerkin._galerkin_rhs_arrays, g, tb, y, cfg) == (9, 4)
