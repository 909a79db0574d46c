"""Relative-entropy machinery and the dissipative-solution certificate.

Given a smooth test-field frame w* = (1/h*, b*, d*, v*), the growth of the
modulated energy integral(|U~|^2 / 2h) of a state (h, B, D, P) against the
frame is controlled by a pointwise symmetric 10x10 weight matrix Q(w*)
(slots ordered scalar, B, D, P) and a linear forcing term L(w*):

    d/dt integral(|U~|^2/2h) + integral(W~^T Q W~ / 2h)
        + integral(W~ . L(w*)) = residual terms,

with U~ = (1 - h/h*, B - h b*) and W~ = (U~, D - h d*, P - h v*). Shifting
Q by r on the first four diagonal slots (r at least the certified r0) makes
the weight uniformly positive definite (r0 is the largest 1 + lambda_max of
a 4x4 Schur complement, eigensolved only where a trace bound can reach the
maximum), and exponential weighting turns the identity into the inequality
certified here: for genuine dissipative solutions the slack

    e^{-rt} Lambda(h(t), U~(t)) + Lambda~(h, W~, e^{-rs} Q_r; 0, t)
        + R(t) - Lambda(h(0), U~(0))

is nonpositive up to quadrature error. Lambda and Lambda~ are the convex
functionals extending integral(|U|^2 / 2 rho) and its Q-weighted space-time
analogue; on this grid all measures are represented by densities, so both
are taken in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from ._jacobi import jacobi_eigenvalues, jacobi_min_eigenvalue
from .dmhd import (
    DmhdTrajectory,
    _constitutive_arrays,
    _induction_arrays,
    _tendency_arrays,
)
from .fields import (
    DEFAULT_H_FLOOR,
    FieldDataError,
    GridSpec,
    ScalarField,
    VectorField3,
    _curl_of,
    _matvec,
    cross3,
    guarded_reciprocal,
    random_band_limited,
    random_vector,
    require_positive,
)
from .snapshots import format_float, write_csv
from .stepping import cumulative_trapezoid, march, rk4_step, uniform_stops

__all__ = [
    "TestFieldFrame",
    "EntropyReport",
    "SampleTrajectory",
    "q_matrix",
    "r0",
    "l_operator",
    "lambda_functional",
    "lambda_tilde",
    "dissipative_slack",
    "identity_residual_check",
    "q_decomposition_defect",
    "frames_from_dmhd",
    "held_frames",
    "random_frame",
    "convex_combination",
    "holder_half_quotient",
    "DEFAULT_U_FLOOR",
]

DEFAULT_U_FLOOR = 1e-8
R0_MAX_CANDIDATES = 4096    # worst points the r0 certificate eigensolves
R0_BOUND_SEEDS = 16         # top-bound points that set the prune's floor
R0_ROUND_UPS = 8            # ulp-scaled round-up attempts before giving up
HOLDER_KMAX = 2             # band |k_i| of the Hoelder quotient's test modes
_NO_CANDIDATES = (np.empty(0), np.empty((0, 10, 10)))


@dataclass(frozen=True)
class TestFieldFrame:
    """One time sample of a test field w* = (1/h*, b*, d*, v*).

    Carries the values of 1/h* (strictly positive), the three vector parts,
    and the time derivatives of 1/h* and b* needed by the forcing term.
    """

    __test__ = False          # bare data, despite the Test* name

    t: float
    h_star_inv: ScalarField
    b_star: VectorField3
    d_star: VectorField3
    v_star: VectorField3
    dt_h_star_inv: ScalarField
    dt_b_star: VectorField3

    def __post_init__(self):
        g = self.h_star_inv.grid
        for f in (self.b_star, self.d_star, self.v_star,
                  self.dt_h_star_inv, self.dt_b_star):
            if f.grid != g:
                raise FieldDataError("frame fields must share one grid")
        require_positive(self.h_star_inv.values, 0.0, "1/h*")

    @property
    def grid(self) -> GridSpec:
        return self.h_star_inv.grid


def random_frame(grid: GridSpec, rng: np.random.Generator, t: float = 0.0,
                 kmax: int = 2, amplitude: float = 0.1) -> TestFieldFrame:
    """Random smooth frame, band-limited to |k_i| <= kmax, with 1/h* > 0."""
    base = random_band_limited(grid, rng, kmax, amplitude).values
    return TestFieldFrame(
        t,
        ScalarField(grid, 1.0 + base - base.min() + 0.5),
        random_vector(grid, rng, kmax, amplitude),
        random_vector(grid, rng, kmax, amplitude),
        random_vector(grid, rng, kmax, amplitude),
        random_band_limited(grid, rng, kmax, amplitude),
        random_vector(grid, rng, kmax, amplitude),
    )


def frames_from_dmhd(sol: SampleTrajectory) -> list[TestFieldFrame]:
    """Convert the samples of a DMHD run into frames (1/h, B/h, D/h, P/h).

    The time derivatives are assembled analytically from the equations of
    motion at each sample, so the frames inherit the solution property
    L(w*) ~ 0 up to the spatial discretization floor.
    """
    g = sol.grid
    frames = []
    for t, h, B, D, P in zip(sol.times, sol.h, sol.B, sol.D, sol.P):
        r = guarded_reciprocal(h)
        dh, dB = _tendency_arrays(g, h, B, D, P)
        frames.append(TestFieldFrame(
            t,
            ScalarField(g, r),
            VectorField3(g, B * r),
            VectorField3(g, D * r),
            VectorField3(g, P * r),
            ScalarField(g, -dh * r * r),
            VectorField3(g, dB * r - B * (dh * r * r)),
        ))
    return frames


# ----------------------------------------------------------------------
# The weight matrix Q(w*) and forcing term L(w*).
# ----------------------------------------------------------------------

def _frame_derivatives(frame: TestFieldFrame) -> tuple:
    """(grad v*, grad b*, curl d*), all that Q(w*) and L(w*) differentiate,
    with Jacobians [i, j] = d_j v_i of shape (3, 3, n, n, n)."""
    g = frame.grid
    return (g.jacobian_arr(frame.v_star.values),
            g.jacobian_arr(frame.b_star.values),
            g.curl_arr(frame.d_star.values))


def _q_apply(der: tuple, W: np.ndarray) -> np.ndarray:
    """Q(w*) W pointwise for W of shape (10, ...) and the frame's
    `_frame_derivatives` der. The one statement of Q, by blocks over the
    slots (scalar, B, D, P): -2 div v* on scalar, curl d* on scalar<->B,
    -curl b* on scalar<->D, -(grad v* + grad v*^T) on B, grad b* - grad b*^T
    on row B, column P, its transpose on row P, column B, and 2 I_3 on D, P.
    """
    jac_v, jac_b, curl_d = der
    curl_b = _curl_of(jac_b)
    div_v = jac_v[0, 0] + jac_v[1, 1] + jac_v[2, 2]
    anti_b = jac_b - jac_b.swapaxes(0, 1)
    s, wB, wD, wP = W[0], W[1:4], W[4:7], W[7:10]
    return np.concatenate([
        (-2.0 * div_v * s + (curl_d * wB).sum(0) - (curl_b * wD).sum(0))[None],
        curl_d * s - _matvec(jac_v + jac_v.swapaxes(0, 1), wB)
        + _matvec(anti_b, wP),
        2.0 * wD - curl_b * s,
        2.0 * wP - _matvec(anti_b, wB),
    ])


def _q_columns(der: tuple, cols: Sequence[int], at=slice(None)) -> np.ndarray:
    """Columns `cols` of Q(w*), `_q_apply` of the unit vectors, at the flat
    grid points `at` (all by default), shape (points, 10, len(cols))."""
    der = tuple(d.reshape(*d.shape[:-3], -1)[..., at, None] for d in der)
    return np.moveaxis(_q_apply(der, np.eye(10)[:, None, cols]), 0, 1)


def q_matrix(frame: TestFieldFrame) -> np.ndarray:
    """The dense field Q(w*), shape (n, n, n, 10, 10): its ten `_q_columns`
    at every grid point. A reference only; the certificate applies Q
    blockwise through `_q_apply` and forms no dense field."""
    return _q_columns(_frame_derivatives(frame), range(10)).reshape(
        *frame.grid.shape, 10, 10)


def l_operator(frame: TestFieldFrame) -> np.ndarray:
    """Forcing term L(w*) as a 10-component field, shape (10, n, n, n).

    L vanishes (to the discretization floor) exactly when the frame is the
    non-conservative image of a smooth solution of the diffusion system.
    """
    return _forcing(frame, _frame_derivatives(frame))


def _forcing(frame: TestFieldFrame, der: tuple) -> np.ndarray:
    """L(w*) from the frame's derivatives: the products of each of the four
    slots are summed in physical space and dealiased in one round trip."""
    g = frame.grid
    jac_v, jac_b, curl_d = der
    tau, b = frame.h_star_inv.values, frame.b_star.values
    d, v = frame.d_star.values, frame.v_star.values
    grad_tau = g.grad_arr(tau)
    div_v = jac_v[0, 0] + jac_v[1, 1] + jac_v[2, 2]
    L = g.dealias_arr(np.concatenate([
        ((v * grad_tau).sum(0) - tau * div_v)[None],
        _matvec(jac_b, v) - _matvec(jac_v, b) + tau * curl_d,
        -tau * _curl_of(jac_b),
        -_matvec(jac_b, b) - tau * grad_tau,
    ]))
    L[0] += frame.dt_h_star_inv.values
    L[1:4] += frame.dt_b_star.values
    L[4:7] += d
    L[7:10] += v
    return L


def q_decomposition_defect(frame: TestFieldFrame) -> float:
    """Sup-norm defect of the algebraic identity for Q(w*) w*.

    Q(w*) w* must equal L(w*) - (dt(1/h*), dt b*, 0, 0) plus the exchange
    vector (div(d* x b* - v*/h*), -grad(b* . v*), d*, v* + grad|u*|^2 / 2),
    where u* = (1/h*, b*). Both sides are assembled independently; the check
    is exact for frames whose products stay below the dealiasing cutoff.
    """
    g = frame.grid
    tau, b = frame.h_star_inv.values, frame.b_star.values
    d, v = frame.d_star.values, frame.v_star.values
    der = _frame_derivatives(frame)
    qw = _q_apply(der, np.concatenate([tau[None], b, d, v]))

    rhs = _forcing(frame, der)
    rhs[0] -= frame.dt_h_star_inv.values
    rhs[1:4] -= frame.dt_b_star.values
    rhs[0] += g.ifft(g.div_hat(g.fft(cross3(d, b) - tau * v, band=True)))
    rhs[1:4] -= g.ifft(g.grad_hat(g.fft((b * v).sum(0), band=True)))
    rhs[4:7] += d
    u_sq_hat = g.fft(tau * tau + (b * b).sum(0), band=True)
    rhs[7:10] += v + 0.5 * g.ifft(g.grad_hat(u_sq_hat))
    return float(np.abs(qw - rhs).max())


# ----------------------------------------------------------------------
# The convex functionals.
# ----------------------------------------------------------------------

def lambda_functional(rho: ScalarField, U: np.ndarray,
                      h_floor: float = DEFAULT_H_FLOOR) -> float:
    """Closed form of the modulated-energy functional on densities.

    Returns integral(|U|^2 / (2 rho)) when rho stays above h_floor; if rho
    vanishes (at or below the floor) on a set where |U| exceeds
    DEFAULT_U_FLOOR the functional is +infinity. Negative rho is rejected.
    """
    rv = rho.values
    if rv.min() < 0.0:
        raise FieldDataError("lambda_functional requires rho >= 0")
    U = np.asarray(U, dtype=float)
    return _floored_quotient((U ** 2).sum(0), rv, U, h_floor)


def _floored_quotient(num: np.ndarray, rho: np.ndarray, X: np.ndarray,
                      h_floor: float) -> float:
    """integral(num / (2 rho)) with rho floored at h_floor.

    Points with rho at or below the floor contribute zero while the field X
    stays within DEFAULT_U_FLOOR there; anywhere else the integral is
    +infinity.
    """
    ok = rho > h_floor
    if not ok.all():
        if np.any(np.sqrt((X ** 2).sum(0)[~ok]) > DEFAULT_U_FLOOR):
            return math.inf
        return float(np.where(ok, num / np.where(ok, 2.0 * rho, 1.0), 0.0).mean())
    return float((num / (2.0 * rho)).mean())


def held_frames(base: TestFieldFrame, times) -> list[TestFieldFrame]:
    """Frame `base` at every time of `times` with zero time derivatives, as a
    constant family needs for a consistent forcing term; the frames share
    their field objects, which is how `_holds_previous` knows them."""
    zs, zv = ScalarField.constant(base.grid, 0.0), VectorField3.zero(base.grid)
    return [replace(base, t=t, dt_h_star_inv=zs, dt_b_star=zv) for t in times]


def _holds_previous(frame: TestFieldFrame, prev) -> bool:
    """Whether `frame` holds the six field objects (all but t) of `prev`, as
    a family held constant in time does; it then repeats prev's work."""
    return prev is not None and all(
        getattr(frame, f.name) is getattr(prev, f.name)
        for f in fields(TestFieldFrame)[1:])


def _frame_work(frames: Sequence[TestFieldFrame]):
    """Each frame's (derivatives, L(w*)) in turn, from one derivation of the
    frame or, for a frame holding the previous frame's fields, reused."""
    for f, prev in zip(frames, [None, *frames]):
        if not _holds_previous(f, prev):
            der = _frame_derivatives(f)
            work = der, _forcing(f, der)
        yield work


def _frame_terms(sol: SampleTrajectory, k: int, frame: TestFieldFrame,
                 der: tuple, L: np.ndarray) -> tuple[float, float, float]:
    """(Lambda, integral(W^T Q W / 2h) or +inf on positivity loss,
    integral(W . L)) at sample k, from its frame's derivatives and L."""
    h = sol.h[k]
    U, W = _modulated_fields(h, sol.B[k], sol.D[k], sol.P[k], frame)
    quad = (W * _q_apply(der, W)).sum(0)
    return (lambda_functional(ScalarField(sol.grid, h), U),
            _floored_quotient(quad, h, W, DEFAULT_H_FLOOR),
            float((W * L).sum(0).mean()))


def lambda_tilde(times: Sequence[float], rho_list: Sequence[np.ndarray],
                 W_list: Sequence[np.ndarray], Q_list: Sequence[np.ndarray],
                 s: float, t: float) -> float:
    """Time-quadrature (trapezoidal) of integral(W^T Q W / (2 rho)) on [s, t].

    The three lists share the time axis `times`; s and t must be sample
    points. Q carries any exponential weighting the caller wants.
    """
    times = np.asarray(times, dtype=float)
    i0 = int(np.argmin(np.abs(times - s)))
    i1 = int(np.argmin(np.abs(times - t)))
    if not (math.isclose(times[i0], s, abs_tol=1e-12)
            and math.isclose(times[i1], t, abs_tol=1e-12)):
        raise FieldDataError("s and t must lie on the trajectory time axis")
    if i1 < i0:
        raise FieldDataError("need s <= t")
    vals = []
    for k in range(i0, i1 + 1):
        W = np.asarray(W_list[k])
        quad = np.einsum("xyzij,ixyz,jxyz->xyz", np.asarray(Q_list[k]), W, W)
        v = _floored_quotient(quad, np.asarray(rho_list[k]), W, DEFAULT_H_FLOOR)
        if math.isinf(v):
            return math.inf
        vals.append(v)
    if len(vals) == 1:
        return 0.0
    return float(np.trapezoid(vals, times[i0:i1 + 1]))


# ----------------------------------------------------------------------
# Certified shift r0 in closed form.
# ----------------------------------------------------------------------

def _schur_threshold(der: tuple, at=slice(None)) -> np.ndarray:
    """Exact minimal shift at the flat grid points `at` (all by default) via
    the 4x4 Schur complement, from Q's first four columns Q4 (points, 10, 4):
    A is their rows 0-3 and, Q being symmetric, the upper-right block C the
    transpose of their rows 4-9. With I subtracted, the lower-right block
    2 I becomes I, so the complement is S = C C^T - A. Each point is solved
    on its own, so a point's value does not depend on `at`. A frame whose
    products overflow leaves S non-finite, which raises FieldDataError."""
    Q4 = _q_columns(der, range(4), at)
    C = Q4[:, 4:].swapaxes(1, 2)
    S = np.einsum("mij,mkj->mik", C, C) - Q4[:, :4]
    del Q4, C       # the eigensolve holds S alone
    if not np.isfinite(S).all():
        raise FieldDataError(
            "test-field frame overflows: its Schur complement is not finite")
    return 1.0 + jacobi_eigenvalues(S)[:, -1]


def _schur_bound(der: tuple) -> np.ndarray:
    """An upper bound on `_schur_threshold` at every flat grid point, from
    the closed form of S: with w = curl b* and sym = grad v* + grad v*^T,
    S = [[|w|^2 + 2 div v*, -(curl d*)^T], [-curl d*, |w|^2 I - w w^T + sym]].
    lambda_max(S) <= m + sqrt(3) s (Wolkowicz & Styan 1980), m = tr S / 4,
    s^2 = |S - m I|_F^2 / 4 summed from the traceless entries, which do not
    cancel when S is near m I; 1e-9 (1 + |S|_F) covers the round-off."""
    jac_v, jac_b, curl_d = der
    w = _curl_of(jac_b)
    ww = (w * w).sum(0)
    div_v = jac_v[0, 0] + jac_v[1, 1] + jac_v[2, 2]
    m = 0.75 * ww + div_v
    dev = jac_v + jac_v.swapaxes(0, 1) - w[:, None] * w[None]
    for i in range(3):
        dev[i, i] += 0.25 * ww - div_v      # S[1:, 1:] - m I
    s2 = 0.25 * ((0.25 * ww + div_v) ** 2 + 2.0 * (curl_d * curl_d).sum(0)
                 + (dev * dev).sum((0, 1)))
    frob = 2.0 * np.sqrt(m * m + s2)
    return (1.0 + m + np.sqrt(3.0 * s2) + 1e-9 * (1.0 + frob)).ravel()


def _near_floor(top: float) -> float:
    """Lowest threshold counted as near the maximum `top`."""
    return top - 1e-6 * (1.0 + abs(top))


def _near_max(th: np.ndarray) -> np.ndarray:
    """Indices of the points within 1e-6 (1 + |max|) of the maximum
    threshold, keeping the R0_MAX_CANDIDATES worst."""
    idx = np.nonzero(th >= _near_floor(float(th.max())))[0]
    if idx.size > R0_MAX_CANDIDATES:
        idx = idx[np.argsort(th[idx])[::-1][:R0_MAX_CANDIDATES]]
    return idx


def _fold_candidates(cands: tuple, der: tuple) -> tuple:
    """Fold a frame's near-maximal thresholds and its full Q there into the
    running candidates: the near-maximal band of all frames lies inside the
    union of each frame's own band, so one frame's columns are held at once.
    Only live points are eigensolved: the top threshold L of the
    R0_BOUND_SEEDS points of largest `_schur_bound` is at most the maximum,
    so every near-maximal point has a bound of at least `_near_floor(L)`,
    and the fold is the full grid's bit for bit (all live if all tie). A
    nan bound, from overflowing products, is live, so its S is checked."""
    bound = _schur_bound(der)
    seeds = np.argsort(bound)[-R0_BOUND_SEEDS:]
    top = float(_schur_threshold(der, seeds).max())
    live = np.nonzero(~(bound < _near_floor(top)))[0]
    th = _schur_threshold(der, live)
    idx = _near_max(th)
    cand_th = np.concatenate([cands[0], th[idx]])
    cand_Q = np.concatenate([cands[1], _q_columns(der, range(10), live[idx])])
    idx = _near_max(cand_th)
    return cand_th[idx], cand_Q[idx]


def _certified_shift(cands: tuple) -> float:
    """The shift from r0's candidates: their largest threshold, floored at
    zero, certified and rounded up as `r0` describes."""
    cand_th, cand_Q = cands
    shift_slots = np.diag([1.0] * 4 + [0.0] * 6)
    r = max(0.0, float(cand_th.max()))
    q = float(np.abs(cand_Q).max())
    step = 4.0 * np.finfo(float).eps * (1.0 + r + q)
    # R0_ROUND_UPS steps at least, and on past the 10x10 eigensolve's reach
    reach = step * max(1.0 + q * q, 2.0 ** (R0_ROUND_UPS - 1))
    while step <= reach and math.isfinite(r):
        mats = cand_Q + r * shift_slots - np.eye(10)
        if jacobi_min_eigenvalue(mats).min() >= 0.0:
            return float(r)
        r += step
        step *= 2.0
    raise FieldDataError(
        f"no shift near the closed-form value r={r:g} makes the weight "
        f"matrix positive semidefinite; Q assembly is corrupted")


def r0(frames: Sequence[TestFieldFrame]) -> float:
    """Smallest shift r with Q(w*) + r I_{10:4} - I_10 >= 0 everywhere.

    The lower-right 6x6 block of Q is 2 I, so the Schur complement gives r
    in closed form: the maximum over all sampled (t, x) of
    1 + lambda_max(C C^T - A), floored at zero, where A is the upper-left
    4x4 block and C the upper-right 4x6 block, both read from Q's first
    four columns, eigensolved only where a trace bound (`_schur_bound`)
    can reach the maximum. The value is certified by LAPACK's `eigvalsh` on
    the full 10x10 matrices at the pointwise-worst candidates, the only
    points where they are formed, rounded up by doubling ulp-scaled steps if
    round-off leaves it just infeasible: R0_ROUND_UPS at least, and on until
    a step exceeds the eigensolve's round-off 4 eps (1 + r + q)(1 + q^2),
    q = max |Q|. So the shifted matrix is positive semidefinite at every
    sampled point. A frame holding the previous frame's fields repeats its
    thresholds and candidates and is skipped. `dissipative_slack` certifies
    the same value from its own pass.
    """
    if not frames:
        raise FieldDataError("r0 requires at least one frame")
    cands = _NO_CANDIDATES
    for f, prev in zip(frames, [None, *frames]):
        if not _holds_previous(f, prev):
            cands = _fold_candidates(cands, _frame_derivatives(f))
    return _certified_shift(cands)


# ----------------------------------------------------------------------
# Sampled trajectories and the certificate.
# ----------------------------------------------------------------------

@dataclass
class SampleTrajectory:
    """Time-indexed samples of the full 10-component state (h, B, D, P)."""

    grid: GridSpec
    times: np.ndarray
    h: np.ndarray   # (T, n, n, n)
    B: np.ndarray   # (T, 3, n, n, n)
    D: np.ndarray
    P: np.ndarray

    @classmethod
    def manufactured(cls, h0: ScalarField, B0: VectorField3, dt: float,
                     n_steps: int, psi: np.ndarray | None = None,
                     varphi: np.ndarray | None = None,
                     curl_source: np.ndarray | None = None
                     ) -> "SampleTrajectory":
        """Trajectory with prescribed defect residuals for identity tests.

        h is evolved by -div P and B by the solver's induction law (a curl,
        so the continuity equation and div B = 0 hold by construction),
        while D and P are offset from the constitutive values by `psi` and
        `varphi` and dt B gains curl(curl_source). The recovered residuals
        are then psi, varphi and curl(curl_source) up to time-difference
        error; with none, this is the `dmhd_run` trajectory. The march
        carries each state as (h, B, D, P), so its (D, P) is derived once,
        for the sample and the next step's first stage.
        """
        g = h0.grid
        z = np.zeros((3, *g.shape))
        psi = z if psi is None else np.asarray(psi, dtype=float)
        varphi = z if varphi is None else np.asarray(varphi, dtype=float)

        def derived(h, B):
            D, P = _constitutive_arrays(g, h, B)
            return h, B, D + psi, P + varphi

        def tendency(h, B, D, P):
            dh, dB = _tendency_arrays(g, h, B, D, P)
            if curl_source is not None:
                dB = dB + g.curl_arr(np.asarray(curl_source, dtype=float))
            return dh, dB

        def step(s, dt):
            h, B = rk4_step(s[:2], dt, lambda y: tendency(*derived(*y)),
                            k1=tendency(*s))
            return derived(h, B)

        times, samples, _ = march(
            derived(h0.values, B0.values), step,
            uniform_stops(dt, n_steps), lambda y: dt)
        hs, Bs, Ds, Ps = (np.stack(f) for f in zip(*samples))
        return cls(g, np.asarray(times), hs, Bs, Ds, Ps)

    @classmethod
    def from_dmhd(cls, traj: DmhdTrajectory) -> "SampleTrajectory":
        states = traj.states
        Ds, Ps = zip(*(s.constitutive_pair for s in states))
        return cls(states[0].grid, np.asarray(traj.times, dtype=float),
                   np.stack([s.h.values for s in states]),
                   np.stack([s.B.values for s in states]),
                   np.stack(Ds), np.stack(Ps))

    def with_momentum_offset(self, delta: float) -> "SampleTrajectory":
        """Corrupted trajectory: P + delta, sharing the other arrays."""
        return replace(self, P=self.P + delta)

    def __len__(self) -> int:
        return len(self.times)


def holder_half_quotient(sol: SampleTrajectory) -> float:
    """Empirical Hoelder-1/2 quotient of t -> (h, B) in the weak topology.

    Pairs the increments against the low trigonometric modes (|k_i| <=
    HOLDER_KMAX) and returns max over sample pairs of that defect divided by
    sqrt(|t - s|). Reported for diagnostics; the theory bounds it by a
    constant depending only on the horizon and the initial data, which is
    not computable here.
    """
    g = sol.grid
    x, y, z = g.mesh
    tests = [np.ones(g.shape)]
    for k in range(1, HOLDER_KMAX + 1):
        for axis in (x, y, z):
            tests.append(np.sin(2 * np.pi * k * axis))
            tests.append(np.cos(2 * np.pi * k * axis))
    tests = np.stack(tests)
    ph = np.einsum("mxyz,txyz->tm", tests, sol.h) / g.num_points
    pB = np.einsum("mxyz,tixyz->tim", tests, sol.B) / g.num_points
    worst = 0.0
    T = len(sol)
    for i in range(T - 1):
        for j in range(i + 1, T):
            gap = math.sqrt(sol.times[j] - sol.times[i])
            if gap == 0.0:
                continue
            diff = max(np.abs(ph[j] - ph[i]).max(),
                       np.abs(pB[j] - pB[i]).max())
            worst = max(worst, diff / gap)
    return worst


def convex_combination(a: SampleTrajectory, b: SampleTrajectory,
                       alpha: float) -> SampleTrajectory:
    _require_shared_times(a.times, b.times, "trajectories")
    w = float(alpha)
    return SampleTrajectory(a.grid, a.times.copy(),
                            w * a.h + (1 - w) * b.h,
                            w * a.B + (1 - w) * b.B,
                            w * a.D + (1 - w) * b.D,
                            w * a.P + (1 - w) * b.P)


def _modulated_fields(h, B, D, P, frame: TestFieldFrame):
    """U~ = (1 - h/h*, B - h b*) and W~ = (U~, D - h d*, P - h v*)."""
    tau = frame.h_star_inv.values
    U = np.concatenate([(1.0 - h * tau)[None], B - h * frame.b_star.values])
    W = np.concatenate([U, D - h * frame.d_star.values,
                        P - h * frame.v_star.values])
    return U, W


def _require_shared_times(a: Sequence[float], b: Sequence[float],
                          what: str) -> None:
    """Two time axes must agree point by point to 1e-12, absolutely."""
    if len(a) != len(b) or not np.allclose(a, b, rtol=0.0, atol=1e-12):
        raise FieldDataError(f"{what} must share the time axis")


@dataclass
class EntropyReport:
    """Certificate time series for one (trajectory, test-field) pair."""

    r0: float
    times: np.ndarray
    lambda_t: np.ndarray
    lambda_tilde_cum: np.ndarray
    R_t: np.ndarray
    slack_t: np.ndarray

    def max_slack(self) -> float:
        return float(self.slack_t.max())

    def write_csv(self, path) -> None:
        rows = zip(self.times, self.lambda_t, self.lambda_tilde_cum,
                   self.R_t, self.slack_t)
        r0 = format_float(self.r0)      # r_used, kept in the format, is r0
        footer = (f"# r_used={r0} r0={r0}",)
        write_csv(path, ("t", "lambda", "lambda_tilde_cum", "R", "slack"),
                  rows, footer)


def dissipative_slack(sol: SampleTrajectory, frames: Sequence[TestFieldFrame]
                      ) -> EntropyReport:
    """Evaluate the dissipative-solution inequality along a trajectory.

    The slack series is e^{-rt} Lambda(t) + Lambda~(0, t) + R(t) - Lambda(0)
    at r = r0 of the frames; it starts at exactly zero, stays below the
    quadrature floor for genuine solutions, and turns positive when the
    trajectory violates the inequality. One pass derives each distinct
    frame once and feeds it both to r0's candidate fold and to the sample
    terms: the shift enters after the loop, as wherever integral(W^T Q W/2h)
    is finite, Q_r adds r integral(|W[:4]|^2 / 2h) = r Lambda(t) to it.
    """
    _require_shared_times([f.t for f in frames], sol.times,
                          "frames and trajectory")
    lam, quad, lin = np.empty((3, len(sol)))
    cands = _NO_CANDIDATES
    for k, (f, prev) in enumerate(zip(frames, [None, *frames])):
        if not _holds_previous(f, prev):
            work = der = None   # no earlier frame's arrays meet the fold
            der = _frame_derivatives(f)
            cands = _fold_candidates(cands, der)
            work = der, _forcing(f, der)
        lam[k], quad[k], lin[k] = _frame_terms(sol, k, f, *work)
    r = _certified_shift(cands)

    wt = np.exp(-r * sol.times)
    q_int = wt * (quad + r * lam if r > 0.0 else quad)   # 0 * inf is nan
    r_int = wt * lin
    lam_tilde = cumulative_trapezoid(q_int, sol.times)
    R_t = cumulative_trapezoid(r_int, sol.times)
    slack = wt * lam + lam_tilde + R_t - lam[0]
    return EntropyReport(r, sol.times.copy(), lam, lam_tilde, R_t, slack)


# ----------------------------------------------------------------------
# The general identity with residuals.
# ----------------------------------------------------------------------

@dataclass
class IdentityCheck:
    times: np.ndarray  # interior sample times
    lhs: np.ndarray
    rhs: np.ndarray
    term_scale: float  # largest constituent term, for relative comparisons

    def max_defect(self) -> float:
        return float(np.abs(self.lhs - self.rhs).max())

    def relative_defect(self) -> float:
        scale = max(np.abs(self.lhs).max(), np.abs(self.rhs).max(),
                    self.term_scale)
        return self.max_defect() / max(scale, 1e-300)


def identity_residual_check(sol: SampleTrajectory,
                            frames: Sequence[TestFieldFrame]
                            ) -> IdentityCheck:
    """Evaluate both sides of the modulated-energy identity with residuals.

    For fields that satisfy the continuity equation and div B = 0 (by
    construction of the trajectory) but are otherwise arbitrary, the defect
    residuals

        phi    = dt B + curl(B x (P/h) + D/h)
        psi    = D - curl(B/h)
        varphi = P - div(B (x) B / h) - grad(1/h)

    satisfy  d/dt integral(|U~|^2/2h) + integral(W~^T Q W~ / 2h)
    + integral(W~ . L) = integral(phi.(b - b*) + psi.(d - d*)
    + varphi.(v - v*)).  phi is taken against the solver's induction law,
    `dmhd._induction_arrays`. Time derivatives are centered differences on
    the sample grid, so both sides are reported at interior times only.
    """
    g = sol.grid
    T = len(sol)
    if T < 3:
        raise FieldDataError("identity check needs at least three samples")
    _require_shared_times([f.t for f in frames], sol.times,
                          "frames and trajectory")

    ent = np.empty(T)
    for k in range(T):
        U, _ = _modulated_fields(sol.h[k], sol.B[k], sol.D[k], sol.P[k],
                                 frames[k])
        ent[k] = lambda_functional(ScalarField(g, sol.h[k]), U)

    times = sol.times
    lhs = np.empty(T - 2)
    rhs = np.empty(T - 2)
    term_scale = 0.0
    for k, (der, L) in enumerate(_frame_work(frames[1:-1]), start=1):
        h = sol.h[k]
        B, D, P = sol.B[k], sol.D[k], sol.P[k]
        frame = frames[k]
        r = guarded_reciprocal(h)
        dt_span = times[k + 1] - times[k - 1]
        dent = (ent[k + 1] - ent[k - 1]) / dt_span
        dB = (sol.B[k + 1] - sol.B[k - 1]) / dt_span

        phi = dB - _induction_arrays(g, h, B, D, P)
        D_c, P_c = _constitutive_arrays(g, h, B)
        psi = D - D_c
        varphi = P - P_c

        _, quad, lin = _frame_terms(sol, k, frame, der, L)
        lhs[k - 1] = dent + quad + lin
        term_scale = max(term_scale, abs(dent), abs(quad), abs(lin))

        b, d, v = B * r, D * r, P * r
        rhs[k - 1] = float((
            (phi * (b - frame.b_star.values)).sum(0)
            + (psi * (d - frame.d_star.values)).sum(0)
            + (varphi * (v - frame.v_star.values)).sum(0)).mean())
    return IdentityCheck(times[1:-1].copy(), lhs, rhs, term_scale)
