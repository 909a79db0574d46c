"""Finite-dimensional approximation: momentum relaxation on a trigonometric
space coupled with exact transport of the scalar density and induction field.

The velocity-like pair (d, v) lives in X_N, the 6N-dimensional span of
sqrt(2) sin(2 pi k.x) and sqrt(2) cos(2 pi k.x) over the first N wavevectors
of the positive half-lattice, ordered by (|k|^2, lexicographic). Their
momentum coefficients chi = <h d, basis> evolve by the projected relaxation
system

    eps [ dt(h d) + div(h (d (x) v - v (x) d)) + (-Lap)^l d ] + h d = curl(B/h)
    eps [ dt(h v) + div(h v (x) v) - (h d . grad) d + (-Lap)^l v ] + h v
        = div(B (x) B / h) + grad(1/h)

while (h, B) advance classically by the continuity and induction equations.
The right-hand sides curl(B/h) = D and div(B (x) B / h) + grad(1/h) = P are
the DMHD constitutive law, taken from `dmhd._constitutive_spectra`, and every
product is transformed once and masked by the 2/3 rule in spectral space.
Both drivers share these grid sources and one projection
project(S) - lambda^l c - chi/eps; chi is the method-of-lines state, or
<h c, basis> of the transported density at a Picard quadrature node.
Recovering d and v from their momentum coefficients requires the weighted
Gram (mass) operator <rho . , .> on X_N, which is block-diagonal over the
three components with a single symmetric positive-definite 2N x 2N block.

Two drivers are provided: `galerkin_run` (method-of-lines RK4 on the
coefficient system, the default) and `picard_iterate` (the fixed-point map
z -> K[z] over subintervals, with characteristics transport of (h, B) and
time-quadrature of the sources; kept for small N where it mirrors the
constructive existence argument). Picard carries (h, B) exactly along the
characteristics of the Galerkin velocity: each of h and B takes one backward
RK4 march from the grid to its feet at time 0 (none for a node at time 0
itself). h picks up the exponential of the accumulated -div v; B follows
Cauchy's Lagrangian solution of the induction equation,
B(t) = Z B0(foot) + c, where the march carries the deformation-like matrix
Z and a Duhamel term c for curl d. The energy

    Lambda_n = integral((1 + B^2)/(2h) + eps h (v^2 + d^2)/2)

decays with dissipation integral(h(v^2 + d^2)) plus the hyperviscous
integrals, and is monitored every step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .abi import cross3
from .dmhd import _constitutive_spectra
from .fields import (
    DEFAULT_H_FLOOR,
    SYM_PAIRS,
    FieldDataError,
    GridSpec,
    PositivityError,
    ScalarField,
    VectorField3,
    _full_modes,
    _mode_sum,
    _phase_blocks,
    guarded_reciprocal,
)
from .stepping import BlowUpError, StepSizeError, march, rk4_step

logger = logging.getLogger(__name__)

__all__ = [
    "BasisSpec",
    "TrigBasis",
    "GalerkinConfig",
    "GalerkinState",
    "GalerkinTrajectory",
    "CoefficientTrajectory",
    "BasisField",
    "UniformField",
    "ModalScalar",
    "ModalVector",
    "positive_wavevectors",
    "mass_apply",
    "mass_solve",
    "flow_map",
    "transport_h",
    "transport_B",
    "galerkin_rhs",
    "galerkin_stable_dt",
    "galerkin_run",
    "picard_iterate",
]


def positive_wavevectors(count: int) -> np.ndarray:
    """First `count` wavevectors of the positive half-lattice.

    The half-lattice keeps one of each +/-k pair: n1 > 0, or n1 = 0 and
    n2 > 0, or n1 = n2 = 0 and n3 > 0. Enumeration is by |k|^2 then
    lexicographic order, which fixes the basis deterministically.
    """
    radius = 1
    while True:
        cands = []
        for n1 in range(0, radius + 1):
            for n2 in range(-radius, radius + 1):
                for n3 in range(-radius, radius + 1):
                    if n1 == 0 and (n2 < 0 or (n2 == 0 and n3 <= 0)):
                        continue
                    if n1 * n1 + n2 * n2 + n3 * n3 <= radius * radius:
                        cands.append((n1, n2, n3))
        if len(cands) >= count:
            cands.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2 + k[2] ** 2, k))
            return np.array(cands[:count], dtype=int)
        radius += 1


@dataclass(frozen=True)
class BasisSpec:
    """N wavevectors from the positive half-lattice; 2N scalar functions."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise FieldDataError("basis needs at least one wavevector")

    @cached_property
    def wavevectors(self) -> np.ndarray:
        return positive_wavevectors(self.N)

    @property
    def num_functions(self) -> int:
        return 2 * self.N

    @property
    def dim(self) -> int:
        return 6 * self.N


def _grid_points(grid: GridSpec) -> np.ndarray:
    return np.stack([m.ravel() for m in grid.mesh], axis=1)      # (n^3, 3)


class TrigBasis:
    """BasisSpec bound to a grid: tables, quadrature and point evaluation."""

    def __init__(self, basis: BasisSpec, grid: GridSpec):
        self.basis = basis
        self.grid = grid
        k = basis.wavevectors
        if np.abs(k).max() >= grid.n // 2:
            raise FieldDataError(
                f"basis wavevectors reach |k_i|={np.abs(k).max()} which the "
                f"n={grid.n} grid cannot carry exactly")
        self.kvecs = k.astype(float)
        phase = 2.0 * np.pi * (_grid_points(grid) @ self.kvecs.T)   # (n^3, N)
        rt2 = math.sqrt(2.0)
        self.table = np.concatenate([rt2 * np.sin(phase),
                                     rt2 * np.cos(phase)], axis=1)  # (n^3, 2N)
        ksq = (self.kvecs ** 2).sum(1)
        self.lam = np.concatenate([ksq, ksq]) * (2.0 * np.pi) ** 2  # -Lap eigenvalues
        self._held = None        # (points, _point_table) of the last point set

    # -- grid-side operations ------------------------------------------------

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients (..., 2N) -> grid samples (..., n, n, n)."""
        vals = coeffs @ self.table.T
        return vals.reshape(*coeffs.shape[:-1], *self.grid.shape)

    def project(self, fields: np.ndarray) -> np.ndarray:
        """Dual (moment) coefficients <f, basis>: (..., n,n,n) -> (..., 2N)."""
        flat = fields.reshape(*fields.shape[:-3], self.grid.num_points)
        return (flat @ self.table) / self.grid.num_points

    def gram(self, rho: np.ndarray) -> np.ndarray:
        """Weighted Gram block <rho basis_i, basis_j>, shape (2N, 2N)."""
        w = rho.reshape(-1, 1) * self.table
        return (self.table.T @ w) / self.grid.num_points

    def orthonormality_defect(self) -> float:
        G = self.gram(np.ones(self.grid.shape))
        return float(np.abs(G - np.eye(self.basis.num_functions)).max())

    # -- point-side evaluation (exact trigonometric sums) ---------------------

    def _point_table(self, points: np.ndarray) -> np.ndarray:
        """(sqrt 2 sin, sqrt 2 cos) of 2 pi k.x at the points, shape (M, 2N).

        The table of the last point set is held, keyed on a copy of the
        points, so the calls at one characteristics stage build it once; a
        caller that changes its array in place gets a new table. The pair is
        stored as one tuple, so concurrent callers never mix two sets.
        """
        pts = np.asarray(points, dtype=float)
        held = self._held
        if held is not None and np.array_equal(held[0], pts):
            return held[1]
        N = self.basis.N
        tab = np.empty((pts.shape[0], 2 * N))
        for rows, phases in _phase_blocks(pts, self.kvecs):
            tab[rows, :N] = phases.imag
            tab[rows, N:] = phases.real
        tab *= math.sqrt(2.0)
        tab.setflags(write=False)
        self._held = (pts.copy(), tab)
        return tab

    def eval(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a vector field in X_N at points: (M,3),(3,2N)->(M,3)."""
        return self._point_table(points) @ coeffs.T

    def eval_jacobian(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Jacobian d_j v_i at points, shape (M, 3, 3)."""
        N = self.basis.N
        w = 2.0 * np.pi * self.kvecs                          # (N, 3)
        # d_j sqrt2 sin(2 pi k.x) = w_j sqrt2 cos(2 pi k.x) and
        # d_j sqrt2 cos(2 pi k.x) = -w_j sqrt2 sin(2 pi k.x)
        dcoef = np.concatenate([-coeffs[:, N:, None] * w,
                                coeffs[:, :N, None] * w], axis=1)  # (3, 2N, 3)
        flat = dcoef.transpose(1, 0, 2).reshape(2 * N, 9)
        return (self._point_table(points) @ flat).reshape(-1, 3, 3)

    def eval_div(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        jac = self.eval_jacobian(points, coeffs)
        return jac[:, 0, 0] + jac[:, 1, 1] + jac[:, 2, 2]

    def eval_curl(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        jac = self.eval_jacobian(points, coeffs)
        return np.stack([jac[:, 2, 1] - jac[:, 1, 2],
                         jac[:, 0, 2] - jac[:, 2, 0],
                         jac[:, 1, 0] - jac[:, 0, 1]], axis=1)


# ----------------------------------------------------------------------
# Weighted mass operator.
# ----------------------------------------------------------------------

def mass_apply(tb: TrigBasis, rho: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Momentum (dual) coefficients <rho v, basis> of v with coefficients."""
    G = tb.gram(rho)
    return coeffs @ G.T


def mass_solve(tb: TrigBasis, rho: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Invert the weighted Gram operator on every coefficient set stacked on
    chi's leading axes, through one Cholesky factor L (L, then L^T)."""
    n_fun = tb.basis.num_functions
    if chi.shape[-1] != n_fun:
        raise FieldDataError(
            f"coefficients need a last axis of {n_fun}, got shape {chi.shape}")
    if rho.min() <= 0.0:
        raise PositivityError(
            f"mass operator needs rho > 0, got min {rho.min():g}")
    try:
        L = np.linalg.cholesky(tb.gram(rho))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise PositivityError(
            f"weighted Gram factorization failed (loss of positivity): {exc}")
    cols = np.linalg.solve(L.T, np.linalg.solve(L, chi.reshape(-1, n_fun).T))
    return cols.T.reshape(chi.shape)


# ----------------------------------------------------------------------
# Exact evaluation of initial fields at characteristic feet.
# ----------------------------------------------------------------------

# ModalScalar.from_field keeps the modes with |c| > MODE_REL_TOL * max |c|
MODE_REL_TOL = 1e-14


@dataclass(frozen=True)
class ModalScalar:
    """Explicit mode list (k, coefficient) of a band-limited scalar field."""

    kvecs: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_field(cls, f: ScalarField) -> "ModalScalar":
        c, kv = _full_modes(f.grid, f.values)
        keep = np.abs(c) > MODE_REL_TOL * np.abs(c).max()
        return cls(kv[keep], c[keep])

    def eval(self, points: np.ndarray) -> np.ndarray:
        return _mode_sum(np.asarray(points, dtype=float), self.coeffs,
                         self.kvecs)


@dataclass(frozen=True)
class ModalVector:
    components: tuple[ModalScalar, ModalScalar, ModalScalar]

    @classmethod
    def from_field(cls, v: VectorField3) -> "ModalVector":
        g = v.grid
        return cls(tuple(ModalScalar.from_field(ScalarField(g, v.values[i]))
                         for i in range(3)))

    def eval(self, points: np.ndarray) -> np.ndarray:
        return np.stack([c.eval(points) for c in self.components], axis=1)


# ----------------------------------------------------------------------
# Coefficient trajectories and characteristics.
# ----------------------------------------------------------------------

@dataclass
class CoefficientTrajectory:
    """Time samples of X_N coefficients with linear interpolation."""

    times: np.ndarray            # (T,), increasing
    coeffs: np.ndarray           # (T, 3, 2N)

    @classmethod
    def constant(cls, span: tuple[float, float], coeffs: np.ndarray):
        t0, t1 = span
        return cls(np.array([t0, t1]), np.stack([coeffs, coeffs]))

    def at(self, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return self.coeffs[0]
        if t >= ts[-1]:
            return self.coeffs[-1]
        j = int(np.searchsorted(ts, t)) - 1
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1.0 - w) * self.coeffs[j] + w * self.coeffs[j + 1]


class BasisField:
    """A time-interpolated X_N field exposing exact point evaluation."""

    def __init__(self, tb: TrigBasis, traj: CoefficientTrajectory):
        self.tb = tb
        self.traj = traj

    def eval(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.tb.eval(pts, self.traj.at(t))

    def div(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.tb.eval_div(pts, self.traj.at(t))

    def jacobian(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.tb.eval_jacobian(pts, self.traj.at(t))

    def curl(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.tb.eval_curl(pts, self.traj.at(t))


class UniformField:
    """Constant drift; divergence-free with zero Jacobian and curl."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def eval(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.c, pts.shape).copy()

    def div(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.zeros(pts.shape[0])

    def jacobian(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.zeros((pts.shape[0], 3, 3))

    def curl(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.zeros_like(pts)


def _as_model(tb: TrigBasis, field_like):
    if isinstance(field_like, CoefficientTrajectory):
        return BasisField(tb, field_like)
    return field_like


def _march(rates, start: float, end: float, y: tuple, dt_flow: float) -> tuple:
    """RK4 march of the characteristic state y = (position, ...) from time
    `start` to `end` in steps of at most dt_flow; y itself when the two
    times coincide.

    rates(time, *y) returns the tendencies of y; time rides along as one
    more state component of the shared RK4 step.
    """
    if end == start:
        return y

    def tendencies(state):
        return (1.0, *rates(*state))

    nsub = max(1, int(math.ceil(abs(end - start) / dt_flow)))
    dt = (end - start) / nsub
    state = (start, *y)
    for _ in range(nsub):
        state = rk4_step(state, dt, tendencies)
    return state[1:]


def flow_map(tb: TrigBasis, vtraj, t: float, s: float,
             x: np.ndarray, dt_flow: float = 1e-3) -> np.ndarray:
    """Characteristic end points Phi(t, s, x) of dx/dt = v(t, x).

    `vtraj` is a CoefficientTrajectory (evaluated exactly through the
    basis) or a field model such as UniformField. Integrates with RK4;
    results are wrapped into [0,1)^3.
    """
    vm = _as_model(tb, vtraj)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    (pts,) = _march(lambda time, p: (vm.eval(time, p),), s, t, (x,), dt_flow)
    return pts % 1.0


def transport_h(tb: TrigBasis, vtraj, h0: ModalScalar,
                t: float, grid: GridSpec, dt_flow: float = 1e-3) -> ScalarField:
    """Exact-characteristics solution of dt h + div(h v) = 0 at time t.

    h(t, x) = h0(Phi(0,t,x)) exp(-integral_0^t div v(s, Phi(s,t,x)) ds):
    the backward march carries the foot and J with dJ/ds = div v, J(t) = 0.
    """
    vm = _as_model(tb, vtraj)
    pts = _grid_points(grid)
    feet, J = _march(lambda s, p, _: (vm.eval(s, p), vm.div(s, p)),
                     t, 0.0, (pts, np.zeros(len(pts))), dt_flow)
    vals = h0.eval(feet % 1.0) * np.exp(J)
    return ScalarField(grid, vals.reshape(grid.shape))


def transport_B(tb: TrigBasis, vtraj, dtraj, B0: ModalVector, t: float,
                grid: GridSpec, dt_flow: float = 1e-3) -> VectorField3:
    """Characteristics representation of dt B + curl(B x v + d) = 0.

    Along a characteristic B solves the linear ODE (Cauchy's Lagrangian form
    of the induction equation with a Duhamel term for curl d)
        dB/ds = A B - curl d,   A = grad v - (div v) I,
    so B(t) = Z(s) B(s) + c(s) with Z(t) = I, dZ/ds = -Z A, c(t) = 0 and
    dc/ds = Z curl d. One backward march from the grid carries the foot,
    Z and c, and B(t, x) = Z(0) B0(foot) + c(0).
    """
    vm = _as_model(tb, vtraj)
    dm = _as_model(tb, dtraj)
    pts = _grid_points(grid)
    eye = np.eye(3)

    def rates(s, p, Z, c):
        jac = vm.jacobian(s, p)
        A = jac - np.trace(jac, axis1=1, axis2=2)[:, None, None] * eye
        return vm.eval(s, p), -Z @ A, np.einsum("mij,mj->mi", Z, dm.curl(s, p))

    Z0 = np.broadcast_to(eye, (len(pts), 3, 3))
    feet, Z, c = _march(rates, t, 0.0, (pts, Z0, np.zeros_like(pts)), dt_flow)
    vals = np.einsum("mij,mj->mi", Z, B0.eval(feet % 1.0)) + c
    return VectorField3(grid, vals.T.reshape(3, *grid.shape))


# ----------------------------------------------------------------------
# Configuration, state, method-of-lines driver.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GalerkinConfig:
    """Galerkin run parameters; the defaults are those of `galerkin-run`."""

    N: int = 7
    eps: float = 0.1
    l: int = 1
    dt: float = 2e-4
    T: float = 0.01
    picard: bool = False
    picard_tol: float = 1e-10
    picard_max_iter: int = 60
    sigma: float = 0.004

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise FieldDataError(f"eps must lie in (0,1), got {self.eps}")
        if self.l < 1:
            raise FieldDataError(f"hyperviscosity order must be >= 1, got {self.l}")
        for name in ("dt", "T", "sigma", "picard_tol"):
            if not getattr(self, name) > 0.0:
                raise FieldDataError(
                    f"{name} must be > 0, got {getattr(self, name)}")
        if self.picard_max_iter < 1:
            raise FieldDataError(
                f"picard_max_iter must be >= 1, got {self.picard_max_iter}")
        if self.l < 8:
            logger.warning(
                "hyperviscosity order l=%d below the analysis regime (l >= 8); "
                "runs remain well-defined but lack the embedding margin", self.l)


@dataclass(frozen=True)
class GalerkinState:
    t: float
    h: ScalarField
    B: VectorField3
    d_coeffs: np.ndarray    # primal coefficients (3, 2N)
    v_coeffs: np.ndarray

    def d_field(self, tb: TrigBasis) -> VectorField3:
        return VectorField3(self.h.grid, tb.synthesize(self.d_coeffs))


@dataclass
class GalerkinTrajectory:
    times: list[float]
    states: list[GalerkinState]
    diagnostics: list[tuple[float, ...]]   # t, Lambda_n, dissipation, hyper, min h

    DIAG_HEADER = ("t", "lambda_n", "dissipation", "hyperviscous", "min_h")

    def lambda_series(self) -> np.ndarray:
        return np.array([row[1] for row in self.diagnostics])


def _grid_sources(g: GridSpec, h, B, d, v, eps):
    """Grid sources S = D/eps - curl(h d x v), the curl form of
    div(h (d (x) v - v (x) d)), and N = P/eps - div(h v (x) v) + h (d.grad) d,
    with D and P from the DMHD constitutive law: 25 forward, 18 inverse
    transforms."""
    D, P_hat = _constitutive_spectra(g, h, B)
    inv_eps = 1.0 / eps
    S = inv_eps * D - g.ifft(g.curl_hat(g.fft_masked(h * cross3(d, v))))
    jac_d = g.jacobian_arr(d)
    N_hat = inv_eps * P_hat
    N_hat -= g.div_sym_masked(h * v[i] * v[j] for i, j in SYM_PAIRS)
    N_hat += g.fft_masked(h * np.einsum("jxyz,ijxyz->ixyz", d, jac_d))
    return S, g.ifft(N_hat)


def _projected_source(tb: TrigBasis, cfg: GalerkinConfig, grid_source,
                      c, chi):
    """project(grid_source) - lam^l c - chi/eps for primal coefficients c."""
    return tb.project(grid_source) - tb.lam ** cfg.l * c - chi / cfg.eps


def _galerkin_rhs_arrays(g: GridSpec, tb: TrigBasis, y, cfg: GalerkinConfig,
                         coeffs=None):
    """MoL tendencies of (h, B, chi_d, chi_v), solving for the primal
    coefficients (cd, cv) unless given: 34 forward, 22 inverse transforms."""
    h, B, chi_d, chi_v = y
    cd, cv = (mass_solve(tb, h, np.stack([chi_d, chi_v])) if coeffs is None
              else coeffs)
    d = tb.synthesize(cd)
    v = tb.synthesize(cv)

    dh = -g.ifft(g.div_hat(g.fft_masked(h * v)))
    dB = -g.ifft(g.curl_hat(g.fft_masked(cross3(B, v)) + g.fft(d)))

    S, Ngrid = _grid_sources(g, h, B, d, v, cfg.eps)
    return (dh, dB, _projected_source(tb, cfg, S, cd, chi_d),
            _projected_source(tb, cfg, Ngrid, cv, chi_v))


def galerkin_rhs(state: GalerkinState, tb: TrigBasis,
                 cfg: GalerkinConfig):
    """Tendencies of (h, B) and of the primal (d, v) coefficients.

    The momentum form evolves the dual coefficients chi = M[h] c; the primal
    tendency returned here is M[h]^{-1}(source - M[dt h] c), equivalent to
    that dual evolution.
    """
    g = state.h.grid
    chi_d, chi_v = mass_apply(tb, state.h.values,
                              np.stack([state.d_coeffs, state.v_coeffs]))
    dh, dB, s_d, s_v = _galerkin_rhs_arrays(
        g, tb, (state.h.values, state.B.values, chi_d, chi_v), cfg,
        (state.d_coeffs, state.v_coeffs))
    Gdot = tb.gram(dh)
    cd_dot, cv_dot = mass_solve(
        tb, state.h.values, np.stack([s_d - state.d_coeffs @ Gdot.T,
                                      s_v - state.v_coeffs @ Gdot.T]))
    return (ScalarField(g, dh), VectorField3(g, dB), cd_dot, cv_dot)


def galerkin_stable_dt(state: GalerkinState, tb: TrigBasis,
                       cfg: GalerkinConfig) -> float:
    """Explicit stability bound: hyperviscous, relaxation and advective rates."""
    hmin = float(state.h.values.min())
    lam_max = float(tb.lam.max())
    rate = lam_max ** cfg.l / max(hmin, 1e-30) + 1.0 / cfg.eps
    vmax = float(np.abs(tb.synthesize(state.v_coeffs)).max())
    adv = vmax / state.h.grid.spacing
    return 0.5 * 2.8 / (rate + adv + 1.0)


def _energy_parts(g, tb, h, B, chi_d, chi_v, cd, cv, eps, l):
    r = guarded_reciprocal(h)
    lam_en = float((((B ** 2).sum(0) + 1.0) * r * 0.5).mean())
    kinetic = float((cd * chi_d).sum() + (cv * chi_v).sum())
    diss = kinetic
    lam_n = lam_en + 0.5 * eps * kinetic
    lam_l = tb.lam ** l
    hyper = eps * float((lam_l * cd ** 2).sum() + (lam_l * cv ** 2).sum())
    return lam_n, diss, hyper


def galerkin_run(h0: ScalarField, B0: VectorField3, D0: VectorField3,
                 P0: VectorField3, cfg: GalerkinConfig,
                 basis: BasisSpec | None = None) -> GalerkinTrajectory:
    """Method-of-lines RK4 on (h, B, chi_d, chi_v) up to time T.

    Initial momentum coefficients are the dual projections of D0 and P0, so
    d(0) and v(0) carry the mass-operator-inverted structure of the data.
    """
    g = h0.grid
    tb = TrigBasis(basis or BasisSpec(cfg.N), g)
    chi_d = tb.project(D0.values)
    chi_v = tb.project(P0.values)

    observed = [None, None]     # the last observed state and its (cd, cv)

    def rhs(y):     # a step's first stage is the observed state itself
        return _galerkin_rhs_arrays(
            g, tb, y, cfg, observed[1] if y is observed[0] else None)

    def galerkin_step(y, dt):
        y = rk4_step(y, dt, rhs)
        if y[0].min() <= 0.0:
            raise StepSizeError(
                f"h lost positivity after a step of dt={dt:g}", dt / 2)
        return y

    def observe(t, y):
        """The primal state and its energy row, from one Gram factorization."""
        h, B, xd, xv = y
        cd, cv = mass_solve(tb, h, np.stack([xd, xv]))
        observed[:] = y, (cd, cv)
        lam_n, diss, hyper = _energy_parts(g, tb, h, B, xd, xv, cd, cv,
                                           cfg.eps, cfg.l)
        state = GalerkinState(t, ScalarField(g, h), VectorField3(g, B), cd, cv)
        return state, (t, lam_n, diss, hyper, float(h.min()))

    y0 = (h0.values.copy(), B0.values.copy(), chi_d, chi_v)
    dt_max = galerkin_stable_dt(observe(0.0, y0)[0], tb, cfg)
    if cfg.dt > dt_max * (1.0 + 1e-12):
        raise StepSizeError(
            f"dt={cfg.dt:g} exceeds the stability bound {dt_max:g} "
            f"(hyperviscous order l={cfg.l}, eps={cfg.eps:g})", dt_max)

    def sup(y):
        return max(float(np.abs(y[0]).max()), float(np.abs(y[1]).max()))

    n_steps = max(1, int(round(cfg.T / cfg.dt)))
    return GalerkinTrajectory(*march(
        y0, galerkin_step, [k * cfg.dt for k in range(1, n_steps + 1)],
        lambda y: cfg.dt, observe=observe, sup=sup))


# ----------------------------------------------------------------------
# Picard fixed-point mode.
# ----------------------------------------------------------------------

def _node_sources(g: GridSpec, tb: TrigBasis, cfg: GalerkinConfig, h, B,
                  cd, cv):
    """Picard's sources at one node: the MoL sources at chi = <h c, basis>."""
    d = tb.synthesize(cd)
    v = tb.synthesize(cv)
    S, Ngrid = _grid_sources(g, h, B, d, v, cfg.eps)
    return (_projected_source(tb, cfg, S, cd, tb.project(h * d)),
            _projected_source(tb, cfg, Ngrid, cv, tb.project(h * v)))


def _k_operator(g, tb, cfg, quad_times, h0_modal, B0_modal, chi_d0, chi_v0,
                z: CoefficientTrajectory):
    """One application of the integral fixed-point map on a subinterval.

    Transports (h, B) along the current iterate's velocity, quadratures the
    projected sources in time, and mass-solves back to primal coefficients.
    """
    m = len(quad_times)
    cd_traj = CoefficientTrajectory(z.times, z.coeffs[:, 0])
    cv_traj = CoefficientTrajectory(z.times, z.coeffs[:, 1])
    hs, Bs, s_d, s_v = [], [], [], []
    for t in quad_times:
        h = transport_h(tb, cv_traj, h0_modal, t, g).values
        B = transport_B(tb, cv_traj, cd_traj, B0_modal, t, g).values
        if h.min() <= DEFAULT_H_FLOOR:
            raise PositivityError(
                f"transported density hit the floor at t={t:g}")
        src_d, src_v = _node_sources(g, tb, cfg, h, B, cd_traj.at(t),
                                     cv_traj.at(t))
        hs.append(h)
        Bs.append(B)
        s_d.append(src_d)
        s_v.append(src_v)

    new_coeffs = np.empty((m, 2, 3, tb.basis.num_functions))
    chi_d, chi_v = chi_d0, chi_v0
    for i in range(m):
        if i > 0:
            dt_seg = quad_times[i] - quad_times[i - 1]
            chi_d = chi_d + 0.5 * dt_seg * (s_d[i - 1] + s_d[i])
            chi_v = chi_v + 0.5 * dt_seg * (s_v[i - 1] + s_v[i])
        new_coeffs[i] = mass_solve(tb, hs[i], np.stack([chi_d, chi_v]))
    return (CoefficientTrajectory(np.asarray(quad_times), new_coeffs),
            hs, Bs)


def picard_iterate(h0: ScalarField, B0: VectorField3, D0: VectorField3,
                   P0: VectorField3, cfg: GalerkinConfig,
                   basis: BasisSpec | None = None) -> GalerkinTrajectory:
    """Fixed-point construction of the relaxation system on [0, T].

    Works subinterval by subinterval: on each [t0, t0 + sigma] the map
    z -> K[z] is iterated from the frozen-coefficient guess until the sup
    coefficient change drops below picard_tol; if the change grows three
    times in a row the subinterval is halved (more than 20 halvings aborts).
    The next subinterval restarts from the transported end state.
    """
    g = h0.grid
    tb = TrigBasis(basis or BasisSpec(cfg.N), g)

    h_cur = h0
    B_cur = B0
    chi_d = tb.project(D0.values)
    chi_v = tb.project(P0.values)

    times: list[float] = []
    states: list[GalerkinState] = []
    diags: list[tuple[float, ...]] = []

    def record(t_abs, h, B, cd, cv, xd, xv):
        lam_n, diss, hyper = _energy_parts(g, tb, h, B, xd, xv, cd, cv,
                                           cfg.eps, cfg.l)
        times.append(t_abs)
        states.append(GalerkinState(t_abs, ScalarField(g, h),
                                    VectorField3(g, B), cd, cv))
        diags.append((t_abs, lam_n, diss, hyper, float(h.min())))

    t_base = 0.0
    sigma = cfg.sigma
    halvings = 0
    cd0, cv0 = mass_solve(tb, h_cur.values, np.stack([chi_d, chi_v]))
    record(0.0, h_cur.values, B_cur.values, cd0, cv0, chi_d, chi_v)

    while t_base < cfg.T - 1e-14:
        sigma_eff = min(sigma, cfg.T - t_base)
        m = max(3, int(math.ceil(sigma_eff / cfg.dt)) + 1)
        quad_times = np.linspace(0.0, sigma_eff, m)
        h0_modal = ModalScalar.from_field(h_cur)
        B0_modal = ModalVector.from_field(B_cur)

        z = CoefficientTrajectory(
            np.array([0.0, sigma_eff]),
            np.stack([np.stack([cd0, cv0])] * 2))
        residuals: list[float] = []
        converged = False
        for _ in range(cfg.picard_max_iter):
            z_new, hs, Bs = _k_operator(g, tb, cfg, quad_times, h0_modal,
                                        B0_modal, chi_d, chi_v, z)
            res = max(float(np.abs(z_new.at(t) - z.at(t)).max())
                      for t in quad_times)
            residuals.append(res)
            z = z_new
            if res <= cfg.picard_tol:
                converged = True
                break
            if len(residuals) >= 4 and all(
                    residuals[-j] > residuals[-j - 1] for j in (1, 2, 3)):
                break
        if not converged:
            halvings += 1
            if halvings > 20:
                raise BlowUpError(
                    "picard iteration failed to contract after 20 subinterval "
                    "halvings")
            sigma = sigma_eff / 2.0
            logger.info("picard: halving subinterval to sigma=%g", sigma)
            continue

        # accept the subinterval; record interior samples and restart data
        for i, t in enumerate(quad_times[1:], start=1):
            cd_i, cv_i = z.coeffs[i]
            xd_i, xv_i = mass_apply(tb, hs[i], z.coeffs[i])
            record(t_base + t, hs[i], Bs[i], cd_i, cv_i, xd_i, xv_i)
        h_cur = ScalarField(g, hs[-1])
        B_cur = VectorField3(g, Bs[-1])
        cd0, cv0 = z.coeffs[-1]
        chi_d, chi_v = mass_apply(tb, hs[-1], z.coeffs[-1])
        t_base += sigma_eff
    return GalerkinTrajectory(times, states, diags)
