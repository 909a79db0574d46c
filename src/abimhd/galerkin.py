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
the DMHD constitutive law, whose products come from
`dmhd._constitutive_products`. The sources enter only through their
projection onto X_N, so no transform builds them: the grid products are
projected in one GEMM, exact by discrete orthogonality, the 2/3 rule drops
the basis functions past the band, and curl, divergence and gradient act
on the coefficients. Both drivers share these projected sources
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
characteristics of the Galerkin velocity: each node after time 0 takes one
backward RK4 march from the grid to the feet at time 0 and one pass of the
four-component modal of (h, B) there, while the node at time 0 is the
accepted start of the subinterval itself. h picks up the exponential
of the accumulated -div v; B follows Cauchy's Lagrangian solution of the
induction equation, B(t) = Z B0(foot) + c, where the march carries the
deformation-like matrix Z and a Duhamel term c for curl d. The energy

    Lambda_n = integral((1 + B^2)/(2h) + eps h (v^2 + d^2)/2)

decays with dissipation integral(h(v^2 + d^2)) plus the hyperviscous
integrals, and is monitored every step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dmhd import _constitutive_products
from .fields import (
    DEFAULT_H_FLOOR,
    SYM_PAIRS,
    FieldDataError,
    GridSpec,
    ModalScalar,
    ModalVector,
    PositivityError,
    ScalarField,
    VectorField3,
    _curl_of,
    _energy_arrays,
    _matvec,
    _phase_blocks,
    cross3,
)
from .stepping import (
    STOP_RTOL,
    BlowUpError,
    check_positive,
    check_step,
    march,
    require_memory,
    rk4_step,
    step_count,
    uniform_stops,
)

logger = logging.getLogger(__name__)

__all__ = [
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
    "transport",
    "transport_h",
    "transport_B",
    "galerkin_stable_dt",
    "galerkin_run",
    "picard_iterate",
]


def positive_wavevectors(count: int) -> np.ndarray:
    """First `count` wavevectors of the positive half-lattice.

    The half-lattice keeps one of each +/-k pair: n1 > 0, or n1 = 0 and
    n2 > 0, or n1 = n2 = 0 and n3 > 0. Enumeration is by |k|^2 then
    lexicographic order, which fixes the basis deterministically. The box
    |n_i| <= R = ceil((3 count / 2 pi)^(1/3) + 1) holds the ball of radius R,
    whose (4 pi/3)(R - sqrt(3)/2)^3 > 2 count lattice points suffice.
    """
    R = math.ceil((3.0 * count / (2.0 * math.pi)) ** (1.0 / 3.0) + 1.0)
    a = np.arange(-R, R + 1)
    k = np.stack(np.meshgrid(a, a, a, indexing="ij"), axis=-1).reshape(-1, 3)
    n1, n2, n3 = k.T
    k = k[(n1 > 0) | ((n1 == 0) & ((n2 > 0) | ((n2 == 0) & (n3 > 0))))]
    order = np.lexsort((k[:, 2], k[:, 1], k[:, 0], (k ** 2).sum(1)))
    return k[order[:count]]


class TrigBasis:
    """The first N wavevectors of the positive half-lattice, 2N scalar
    functions, on a grid: tables, quadrature and point evaluation."""

    def __init__(self, N: int, grid: GridSpec):
        if N < 1:
            raise FieldDataError("basis needs at least one wavevector")
        cap = ((grid.n - 1) ** 3 - 1) // 2      # half-lattice, |k_i| < n/2
        if N > cap:
            raise FieldDataError(f"basis of N={N} wavevectors exceeds the "
                                 f"{cap} an n={grid.n} grid carries exactly")
        k = positive_wavevectors(N)
        if np.abs(k).max() >= grid.n // 2:
            raise FieldDataError(
                f"basis wavevectors reach |k_i|={np.abs(k).max()} which the "
                f"n={grid.n} grid cannot carry exactly")
        self.N = N
        self.grid = grid
        self.kvecs = k.astype(float)
        self.table = self._trig_table(grid.points)                  # (n^3, 2N)
        ksq = (self.kvecs ** 2).sum(1)
        self.lam = np.concatenate([ksq, ksq]) * (2.0 * np.pi) ** 2  # -Lap eigenvalues
        # the functions the 2/3 rule keeps, max |k_i| <= n//3
        self.in_band = np.tile(np.abs(k).max(1) <= grid.n // 3, 2)
        self._held = None        # (points, _point_table) of the last point set

    # -- grid-side operations ------------------------------------------------

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients (..., 2N) -> grid samples (..., n, n, n)."""
        vals = coeffs @ self.table.T
        return vals.reshape(*coeffs.shape[:-1], *self.grid.shape)

    def project(self, fields: np.ndarray) -> np.ndarray:
        """Dual (moment) coefficients <f, basis>: (..., n,n,n) -> (..., 2N).
        By discrete orthogonality they are f's DFT at the basis wavevectors."""
        flat = fields.reshape(*fields.shape[:-3], self.grid.num_points)
        return (flat @ self.table) / self.grid.num_points

    def grad_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of the gradient d_j f: (..., 2N) -> (..., 3, 2N).

        d_j sqrt2 sin(2 pi k.x) = w_j sqrt2 cos(2 pi k.x) and
        d_j sqrt2 cos(2 pi k.x) = -w_j sqrt2 sin(2 pi k.x), w = 2 pi k, so
        the map holds for primal coefficients and, on band-limited f, for
        the dual <f, basis> alike."""
        N = self.N
        w = 2.0 * np.pi * self.kvecs.T                            # (3, N)
        return np.concatenate([-coeffs[..., None, N:] * w,
                               coeffs[..., None, :N] * w], axis=-1)

    def gram(self, rho: np.ndarray) -> np.ndarray:
        """Weighted Gram block <rho basis_i, basis_j>, shape (2N, 2N)."""
        w = rho.reshape(-1, 1) * self.table
        return (self.table.T @ w) / self.grid.num_points

    def orthonormality_defect(self) -> float:
        G = self.gram(np.ones(self.grid.shape))
        return float(np.abs(G - np.eye(2 * self.N)).max())

    # -- point-side evaluation (exact trigonometric sums) ---------------------

    def _trig_table(self, points: np.ndarray) -> np.ndarray:
        """Read-only (M, 2N) table of sqrt2 sin, cos of 2 pi k.x at points."""
        N = self.N
        tab = np.empty((points.shape[0], 2 * N))
        for rows, phases in _phase_blocks(points, self.kvecs):
            tab[rows, :N] = phases.imag
            tab[rows, N:] = phases.real
        tab *= math.sqrt(2.0)
        tab.setflags(write=False)
        return tab

    def _point_table(self, points: np.ndarray) -> np.ndarray:
        """`_trig_table(points)`, memoised.

        The last point set's table is held, keyed on a copy of the points,
        so a characteristics stage's three basis products (v, grad v and
        grad d) build it once; changing the points in place rebuilds it. The
        (points, table) pair is one tuple, so concurrent callers never mix pairs.
        """
        pts = np.asarray(points, dtype=float)
        held = self._held
        if held is not None and np.array_equal(held[0], pts):
            return held[1]
        tab = self._trig_table(pts)
        self._held = (pts.copy(), tab)
        return tab

    def eval(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a vector field in X_N at points: (M,3),(3,2N)->(M,3)."""
        return self._point_table(points) @ coeffs.T

    def eval_jacobian(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Jacobian d_j v_i at points, shape (M, 3, 3)."""
        flat = self.grad_coeffs(coeffs).reshape(9, 2 * self.N).T.copy()
        return (self._point_table(points) @ flat).reshape(-1, 3, 3)

    def eval_div(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        jac = self.eval_jacobian(points, coeffs)
        return jac[:, 0, 0] + jac[:, 1, 1] + jac[:, 2, 2]

    def eval_curl(self, points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        jac = self.eval_jacobian(points, coeffs)
        return _curl_of(jac.transpose(1, 2, 0)).T


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
    n_fun = 2 * tb.N
    if chi.shape[-1] != n_fun:
        raise FieldDataError(
            f"coefficients need a last axis of {n_fun}, got shape {chi.shape}")
    if not rho.min() > 0.0:
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
# Coefficient trajectories and characteristics.
# ----------------------------------------------------------------------

@dataclass
class CoefficientTrajectory:
    """Time samples of X_N coefficients with linear interpolation: (T, 3, 2N)
    for one vector field, or Picard's (T, 2, 3, 2N) stacks of (d, v)."""

    times: np.ndarray            # (T,), increasing
    coeffs: np.ndarray           # (T, ..., 2N)

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
    """A time-interpolated X_N field: exact point values and Jacobian."""

    def __init__(self, tb: TrigBasis, traj: CoefficientTrajectory):
        self.tb = tb
        self.traj = traj

    def eval(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.tb.eval(pts, self.traj.at(t))

    def jacobian(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.tb.eval_jacobian(pts, self.traj.at(t))


class UniformField:
    """Constant drift: zero Jacobian."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def eval(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.c, pts.shape).copy()

    def jacobian(self, t: float, pts: np.ndarray) -> np.ndarray:
        return np.zeros((pts.shape[0], 3, 3))


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


def transport(tb: TrigBasis, vtraj, dtraj, hB0: ModalScalar, t: float,
              grid: GridSpec, dt_flow: float = 1e-3
              ) -> tuple[ScalarField, VectorField3]:
    """(h, B) at time t by exact characteristics, from hB0, the modal of
    (h, B1, B2, B3) at time 0: h(t, x) = h0(foot) exp(J), and by Cauchy's
    Lagrangian form of the induction equation with a Duhamel term for curl d,
    B(t, x) = Z B0(foot) + c. One backward march from the grid carries the
    foot, J, Z and c (dJ/ds = div v, dZ/ds = -Z A with A = grad v - (div v) I,
    dc/ds = Z curl d; J = 0, Z = I and c = 0 at t), and one pass of hB0
    evaluates the data at the feet. A non-finite h or B raises BlowUpError.
    """
    vm, dm = _as_model(tb, vtraj), _as_model(tb, dtraj)
    pts = grid.points
    eye = np.eye(3)

    def rates(s, p, J, Z, c):
        jac = vm.jacobian(s, p)
        div = jac[:, 0, 0] + jac[:, 1, 1] + jac[:, 2, 2]
        A = jac - div[:, None, None] * eye
        curl_d = _curl_of(dm.jacobian(s, p).transpose(1, 2, 0)).T
        return (vm.eval(s, p), div, -Z @ A,
                np.einsum("mij,mj->mi", Z, curl_d))

    Z0 = np.broadcast_to(eye, (len(pts), 3, 3))
    feet, J, Z, c = _march(rates, t, 0.0, (pts, np.zeros(len(pts)), Z0,
                                           np.zeros_like(pts)), dt_flow)
    at_feet = hB0.eval(feet % 1.0)
    with np.errstate(over="ignore"):
        h = at_feet[:, 0] * np.exp(J)
    B = np.einsum("mij,mj->mi", Z, at_feet[:, 1:]) + c
    if not (np.isfinite(h).all() and np.isfinite(B).all()):
        raise BlowUpError(f"transported (h, B) overflowed at t={t:g}")
    return (ScalarField(grid, h.reshape(grid.shape)),
            VectorField3(grid, B.T.reshape(3, *grid.shape)))


def transport_h(tb: TrigBasis, vtraj, h0: ModalScalar,
                t: float, grid: GridSpec, dt_flow: float = 1e-3) -> ScalarField:
    """The density of `transport` from h0, with no d and no B."""
    hB0 = ModalScalar(h0.kvecs, np.c_[h0.coeffs, np.zeros((len(h0.kvecs), 3))])
    return transport(tb, vtraj, UniformField((0.0, 0.0, 0.0)), hB0, t, grid,
                     dt_flow)[0]


def transport_B(tb: TrigBasis, vtraj, dtraj, B0: ModalVector, t: float,
                grid: GridSpec, dt_flow: float = 1e-3) -> VectorField3:
    """The induction field of `transport` from B0, with no density."""
    hB0 = ModalScalar(B0.kvecs, np.c_[np.zeros(len(B0.kvecs)), B0.coeffs])
    return transport(tb, vtraj, dtraj, hB0, t, grid, dt_flow)[1]


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
        if self.N < 1:
            raise FieldDataError(f"N must be >= 1, got {self.N}")
        if not 0.0 < self.eps < 1.0:
            raise FieldDataError(f"eps must lie in (0,1), got {self.eps}")
        if self.l < 1:
            raise FieldDataError(f"hyperviscosity order must be >= 1, got {self.l}")
        for name in ("dt", "T", "sigma", "picard_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise FieldDataError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}")
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


@dataclass
class GalerkinTrajectory:
    times: list[float]
    states: list[GalerkinState]
    diagnostics: list[tuple[float, ...]]   # t, Lambda_n, dissipation, hyper, min h

    DIAG_HEADER = ("t", "lambda_n", "dissipation", "hyperviscous", "min_h")

    def lambda_series(self) -> np.ndarray:
        return np.array([row[1] for row in self.diagnostics])


def _projected_sources(tb: TrigBasis, cfg: GalerkinConfig, h, B, c, dv,
                       chi) -> np.ndarray:
    """The relaxation sources in dual coefficients, (2, 3, 2N): project(S)
    and project(N) - lam^l c - chi/eps for primal c = (cd, cv) with grid
    values dv = (d, v) and momenta chi = (chi_d, chi_v). S = D/eps -
    curl(h d x v), the curl form of div(h (d (x) v - v (x) d)), and N =
    P/eps - div(h v (x) v) + h (d.grad) d, with D and P from the DMHD
    constitutive law, every term dealiased by the 2/3 rule.

    No transform: the grid products are projected in one GEMM, which by
    discrete orthogonality gives their DFT at the basis wavevectors, the
    band keeps `tb.in_band`, and curl, divergence and gradient act on the
    coefficients (`grad_coeffs`); grad d is synthesized from the basis."""
    d, v = dv
    Br, BBr, r = _constitutive_products(h, B)
    inv_eps = 1.0 / cfg.eps
    adv = _matvec(tb.synthesize(tb.grad_coeffs(c[0])), d)      # (d.grad) d
    products = np.concatenate([
        inv_eps * Br - h * cross3(d, v),
        np.stack([inv_eps * t - h * v[i] * v[j]
                  for (i, j), t in zip(SYM_PAIRS, BBr)]),
        inv_eps * r[None],
        h * adv])
    del Br, r, adv
    p = tb.project(products) * tb.in_band
    grads = tb.grad_coeffs(p[3:10])          # (7, 3, 2N): d_j of T_ij, 1/h
    N = grads[6] + p[10:]
    for k, (i, j) in enumerate(SYM_PAIRS):
        N[i] += grads[k, j]
        if i != j:
            N[j] += grads[k, i]
    S = _curl_of(tb.grad_coeffs(p[:3]))
    return np.stack([S, N]) - tb.lam ** cfg.l * c - chi / cfg.eps


def _galerkin_rhs_arrays(g: GridSpec, tb: TrigBasis, y, cfg: GalerkinConfig,
                         coeffs=None):
    """MoL tendencies of (h, B, chi_d, chi_v), solving for the primal
    coefficients (cd, cv) unless given: 9 forward, 4 inverse transforms, all
    of them for (h, B); the sources make none."""
    h, B, chi_d, chi_v = y
    c = np.asarray(mass_solve(tb, h, np.stack([chi_d, chi_v]))
                   if coeffs is None else coeffs)
    dv = d, v = tb.synthesize(c)

    dh = -g.ifft(g.div_hat(g.fft(h * v, band=True)))
    # the band of B x v added into the full spectrum of d, in place
    flux = g.fft(d)
    flux[g._band_at] += g.fft(cross3(B, v), band=True)
    dB = -g.ifft(g.curl_hat(flux))
    return (dh, dB, *_projected_sources(tb, cfg, h, B, c, dv,
                                        np.stack([chi_d, chi_v])))


def galerkin_stable_dt(h: np.ndarray, v_coeffs: np.ndarray, tb: TrigBasis,
                       cfg: GalerkinConfig) -> float:
    """Explicit stability bound at density h and velocity coefficients
    v_coeffs: hyperviscous, relaxation and advective rates."""
    hmin = float(h.min())
    lam_max = float(tb.lam.max())
    rate = lam_max ** cfg.l / max(hmin, 1e-30) + 1.0 / cfg.eps
    vmax = float(np.abs(tb.synthesize(v_coeffs)).max())
    adv = vmax / tb.grid.spacing
    return 0.5 * 2.8 / (rate + adv + 1.0)


def _observation(g: GridSpec, tb: TrigBasis, cfg: GalerkinConfig, t: float,
                 h, B, cd, cv, chi_d, chi_v) -> tuple[GalerkinState, tuple]:
    """The state at t from its primal (cd, cv) and momentum (chi_d, chi_v)
    coefficients, and its row (t, Lambda_n, dissipation, hyperviscous,
    min h): the kinetic <c, chi> is the dissipation and, times eps/2,
    Lambda_n's share beyond the DMHD energy."""
    kinetic = float((cd * chi_d).sum() + (cv * chi_v).sum())
    lam_n = _energy_arrays(h, B) + 0.5 * cfg.eps * kinetic
    lam_l = tb.lam ** cfg.l
    hyper = cfg.eps * float((lam_l * cd ** 2).sum() + (lam_l * cv ** 2).sum())
    state = GalerkinState(t, ScalarField(g, h), VectorField3(g, B), cd, cv)
    return state, (t, lam_n, kinetic, hyper, float(h.min()))


def _require_kept_states(g: GridSpec, cfg: GalerkinConfig,
                         count: int) -> None:
    """FieldDataError unless the count states a driver keeps, each (h, B)
    and 12 N coefficients, fit in the available memory."""
    require_memory(count * (4 * g.num_points + 12 * cfg.N) * 8,
                   f"{count} kept states hold their (h, B) and coefficients",
                   "raise galerkin.dt or shorten galerkin.T")


def galerkin_run(h0: ScalarField, B0: VectorField3, D0: VectorField3,
                 P0: VectorField3, cfg: GalerkinConfig) -> GalerkinTrajectory:
    """Method-of-lines RK4 on (h, B, chi_d, chi_v) up to time T.

    Initial momentum coefficients are the dual projections of D0 and P0, so
    d(0) and v(0) carry the mass-operator-inverted structure of the data.
    The march carries each state with its primal coefficients (cd, cv),
    solved once after each step: the observation and the next step's first
    stage both read them. Every step's state is kept; if they would not fit
    in the available memory, FieldDataError is raised before the first step.
    """
    g = h0.grid
    n_steps = step_count(cfg.T, cfg.dt)
    _require_kept_states(g, cfg, n_steps + 1)
    tb = TrigBasis(cfg.N, g)

    def solved(y):
        """y with its primal coefficients (cd, cv), from one Gram solve."""
        return y, mass_solve(tb, y[0], np.stack(y[2:]))

    def galerkin_step(yc, dt):
        y, coeffs = yc
        y = rk4_step(y, dt, lambda z: _galerkin_rhs_arrays(g, tb, z, cfg),
                     k1=_galerkin_rhs_arrays(g, tb, y, cfg, coeffs))
        check_positive(y[0], dt)
        return solved(y)

    def observe(t, yc):
        (h, B, xd, xv), (cd, cv) = yc
        return _observation(g, tb, cfg, t, h, B, cd, cv, xd, xv)

    y0 = solved((h0.values.copy(), B0.values.copy(), tb.project(D0.values),
                 tb.project(P0.values)))
    check_step(cfg.dt, galerkin_stable_dt(y0[0][0], y0[1][1], tb, cfg),
               f"hyperviscous (l={cfg.l}) and relaxation (eps={cfg.eps:g}) "
               "step bound")

    def sup(yc):
        h, B = yc[0][:2]
        return max(float(np.abs(h).max()), float(np.abs(B).max()))

    return GalerkinTrajectory(*march(
        y0, galerkin_step, uniform_stops(cfg.dt, n_steps),
        lambda y: cfg.dt, observe=observe, sup=sup))


# ----------------------------------------------------------------------
# Picard fixed-point mode.
# ----------------------------------------------------------------------

def _node_sources(tb: TrigBasis, cfg: GalerkinConfig, h, B, cd, cv):
    """Picard's sources at one node: the MoL sources at chi = <h c, basis>."""
    c = np.stack([cd, cv])
    dv = tb.synthesize(c)
    return _projected_sources(tb, cfg, h, B, c, dv, tb.project(h * dv))


def _k_operator(g, tb, cfg, quad_times, hB0, z: CoefficientTrajectory,
                start: tuple):
    """One application of the integral fixed-point map on a subinterval, in
    one pass over its nodes: each node after t = 0 transports (h, B) along
    the current iterate's velocity, adds its projected sources to the
    trapezoid time quadrature and mass-solves back to primal coefficients.
    Returns the new iterate and each node's (h, B) and accumulated momenta
    (chi_d, chi_v).

    The t = 0 node is `start`, the accepted state the subinterval starts
    from: its (h, B, chi_d, chi_v), its primal coefficients, which are its
    own mass solve, and its projected sources. So z(0) is the same in every
    sweep, and no march or mass solve runs at t = 0."""
    h, B, chi_d, chi_v, c0, prev = start
    cd_traj = CoefficientTrajectory(z.times, z.coeffs[:, 0])
    cv_traj = CoefficientTrajectory(z.times, z.coeffs[:, 1])
    chi = np.stack([chi_d, chi_v])
    new_coeffs = np.empty((len(quad_times), 2, 3, 2 * tb.N))
    new_coeffs[0] = c0
    nodes = [(h, B, chi_d, chi_v)]
    for i in range(1, len(quad_times)):
        t = quad_times[i]
        h, B = (f.values for f in transport(tb, cv_traj, cd_traj, hB0, t, g))
        if not h.min() > DEFAULT_H_FLOOR:
            raise PositivityError(
                f"transported density hit the floor at t={t:g}")
        src = _node_sources(tb, cfg, h, B, cd_traj.at(t), cv_traj.at(t))
        chi = chi + 0.5 * (t - quad_times[i - 1]) * (prev + src)
        new_coeffs[i] = mass_solve(tb, h, chi)
        nodes.append((h, B, *chi))
        prev = src
    return CoefficientTrajectory(np.asarray(quad_times), new_coeffs), nodes


def _node_count(sigma: float, dt: float) -> int:
    """Quadrature nodes of a Picard subinterval of length sigma."""
    return max(3, int(math.ceil(sigma / dt)) + 1)


def picard_iterate(h0: ScalarField, B0: VectorField3, D0: VectorField3,
                   P0: VectorField3, cfg: GalerkinConfig) -> GalerkinTrajectory:
    """Fixed-point construction of the relaxation system on [0, T].

    Works subinterval by subinterval: on each [t0, t0 + sigma] the map
    z -> K[z] is iterated from the frozen-coefficient guess until the sup
    coefficient change drops below picard_tol; if the change grows three
    times in a row the subinterval is halved (more than 20 halvings aborts).
    The next subinterval restarts from the transported end state, and the
    end coefficients are its z(0).

    A sweep keeps the (h, B) of each node while the previous sweep's are
    still held, and the run keeps a state per accepted node; if two sweeps'
    nodes of the first subinterval or the kept states would not fit in the
    available memory, FieldDataError is raised before any transport.
    """
    g = h0.grid
    m = _node_count(min(cfg.sigma, cfg.T), cfg.dt)
    require_memory(2 * m * 4 * g.num_points * 8,
                   f"picard holds two sweeps of {m} nodes' (h, B)",
                   "raise galerkin.dt or lower galerkin.sigma")
    # t = 0 and each subinterval's nodes after its start, without halvings
    whole, rest = divmod(cfg.T, cfg.sigma)
    kept = 1 + int(whole) * (_node_count(cfg.sigma, cfg.dt) - 1)
    if rest > STOP_RTOL * cfg.T:
        kept += _node_count(rest, cfg.dt) - 1
    _require_kept_states(g, cfg, kept)
    tb = TrigBasis(cfg.N, g)

    hB = np.concatenate([h0.values[None], B0.values])    # (h, B) at t_base
    chi_d, chi_v = tb.project(D0.values), tb.project(P0.values)

    t_base = 0.0
    sigma = cfg.sigma
    halvings = 0
    c0 = mass_solve(tb, hB[0], np.stack([chi_d, chi_v]))
    samples = [_observation(g, tb, cfg, 0.0, hB[0], hB[1:], *c0, chi_d,
                            chi_v)]    # (state, row) pairs

    while cfg.T - t_base > STOP_RTOL * cfg.T:
        sigma_eff = min(sigma, cfg.T - t_base)
        quad_times = np.linspace(0.0, sigma_eff,
                                 _node_count(sigma_eff, cfg.dt))
        hB0 = ModalScalar.from_values(g, hB)
        h, B = hB[0], hB[1:]
        if not h.min() > DEFAULT_H_FLOOR:
            raise PositivityError("transported density hit the floor at t=0")
        start = (h, B, chi_d, chi_v, c0, _node_sources(tb, cfg, h, B, *c0))

        z = CoefficientTrajectory.constant((0.0, sigma_eff), c0)
        residuals: list[float] = []
        converged = False
        for _ in range(cfg.picard_max_iter):
            z_new, nodes = _k_operator(g, tb, cfg, quad_times, hB0, z, start)
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
        for t, c, (h, B, chi_d, chi_v) in zip(quad_times[1:], z.coeffs[1:],
                                               nodes[1:]):
            samples.append(_observation(g, tb, cfg, t_base + t, h, B, *c,
                                        chi_d, chi_v))
        hB = np.concatenate([h[None], B])
        c0 = z.coeffs[-1]
        t_base += sigma_eff
    states, rows = zip(*samples)
    return GalerkinTrajectory([s.t for s in states], list(states), list(rows))
