"""Solver and diagnostics for the augmented 10x10 Born-Infeld system.

State is the conservative tuple (h, B, D, P) on the torus grid: energy
density h > 0, magnetic induction B, electric displacement D and momentum
(Poynting) P, with fluxes

    dt h = -div P
    dt B = -curl((B x P + D) / h)
    dt D = -curl((D x P - B) / h)
    dt P = -div((P (x) P - B (x) B - D (x) D - I) / h)

The algebraic relations P = D x B and h = sqrt(1 + B^2 + D^2 + P^2) are
propagated invariants of smooth solutions: they are monitored, never
projected. The symmetric quadratic form in the variables
(tau, b, d, v) = (1/h, B/h, D/h, P/h) is available as `nc_rhs`, which
takes its string (tau = d = 0) and inviscid Burgers (tau = b = d = 0)
reductions on states where those fields vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    SYM_PAIRS,
    GridSpec,
    ScalarField,
    VectorField3,
    _energy_arrays,
    _matvec,
    cross3,
    cross_component,
    guarded_reciprocal,
    require_positive,
    vec_norm,
)
from .stepping import check_positive, check_step, march, rk4_step, uniform_stops

__all__ = [
    "AbiState",
    "AbiTendency",
    "ConstraintNorms",
    "NonConsState",
    "NcTendency",
    "abi_rhs",
    "abi_step",
    "abi_cfl_dt",
    "abi_run",
    "abi_constraints",
    "abi_entropy",
    "galilean_boost",
    "nc_rhs",
    "nc_from_abi",
    "abi_tendency_from_nc",
    "AbiTrajectory",
]

CFL_SAFETY = 0.4


@dataclass(frozen=True)
class AbiState:
    h: ScalarField
    B: VectorField3
    D: VectorField3
    P: VectorField3

    def __post_init__(self):
        g = self.h.grid
        if not (self.B.grid == g and self.D.grid == g and self.P.grid == g):
            raise ValueError("all state fields must share one grid")
        require_positive(self.h.values, 0.0, "h")

    @property
    def grid(self) -> GridSpec:
        return self.h.grid

    @classmethod
    def consistent(cls, B: VectorField3, D: VectorField3) -> "AbiState":
        """Build the state satisfying both algebraic constraints exactly."""
        P = cross3(D.values, B.values)
        nsq = (B.values ** 2).sum(0) + (D.values ** 2).sum(0) + (P ** 2).sum(0)
        h = np.sqrt(1.0 + nsq)
        g = B.grid
        return cls(ScalarField(g, h), B, D, VectorField3(g, P))

    def sup_scale(self) -> float:
        return max(self.h.sup_norm(), self.B.sup_norm(),
                   self.D.sup_norm(), self.P.sup_norm())


@dataclass(frozen=True)
class AbiTendency:
    dh: np.ndarray
    dB: np.ndarray
    dD: np.ndarray
    dP: np.ndarray


def _rhs_arrays(g: GridSpec, y: list) -> tuple[np.ndarray, ...]:
    """Tendencies of the stage y = [h, B, D, P]: 16 forward, 10 inverse
    transforms. y is emptied, and each of its arrays is dropped once nothing
    left reads it: h once r = 1/h exists, B and D once the band spectra of
    the two curl fluxes and of dP are formed (one component at a time), P
    once the spectrum of div P is accumulated. Only then are the outputs
    inverted, one component at a time, their signs flipping on the way in."""
    h, B, D, P = y
    y.clear()
    r = guarded_reciprocal(h)
    del h
    flux_B = np.empty((3, *g._band_shape), dtype=complex)
    flux_D = np.empty_like(flux_B)
    for i in range(3):
        flux_B[i] = g.fft((cross_component(B, P, i) + D[i]) * r, band=True)
        flux_D[i] = g.fft((cross_component(D, P, i) - B[i]) * r, band=True)
    dP = g.div_sym_masked((P[i] * P[j] - B[i] * B[j] - D[i] * D[j]) * r
                          for i, j in SYM_PAIRS)
    dP -= g.grad_hat(g.fft(r, band=True))
    del B, D, r
    ik = g._ik
    div_P = g.fft(P[0]) * ik[0]
    for i in (1, 2):
        div_P += g.fft(P[i]) * ik[i]
    del P
    dh = g.ifft(div_P)
    del div_P

    def negated_inverse(vh):
        out = np.empty((3, *g.shape))
        for i in range(3):
            np.negative(g.ifft(vh[i]), out=out[i])
        return out

    return (np.negative(dh, out=dh), negated_inverse(g.curl_hat(flux_B)),
            negated_inverse(g.curl_hat(flux_D)), negated_inverse(dP))


def abi_rhs(s: AbiState) -> AbiTendency:
    return AbiTendency(*_rhs_arrays(
        s.grid, [s.h.values, s.B.values, s.D.values, s.P.values]))


def abi_cfl_dt(s: AbiState) -> float:
    """Step bound 0.4 dx / (1 + max(|P/h| + |B/h| + |D/h| + 1/h))."""
    r = guarded_reciprocal(s.h.values)
    speed = (vec_norm(s.P.values) + vec_norm(s.B.values)
             + vec_norm(s.D.values)) * r + r
    return CFL_SAFETY * s.grid.spacing / (1.0 + float(speed.max()))


def abi_step(s: AbiState, dt: float) -> AbiState:
    check_step(dt, abi_cfl_dt(s), "advective step bound")
    g = s.grid

    def rhs(y):
        return _rhs_arrays(g, y)

    h, B, D, P = rk4_step((s.h.values, s.B.values, s.D.values, s.P.values),
                          dt, rhs)
    check_positive(h, dt)
    return AbiState(ScalarField(g, h), VectorField3(g, B),
                    VectorField3(g, D), VectorField3(g, P))


@dataclass(frozen=True)
class ConstraintNorms:
    """Sup norms of the four monitored algebraic/differential constraints."""

    poynting: float       # || P - D x B ||_inf
    energy_density: float  # || h - sqrt(1 + B^2 + D^2 + P^2) ||_inf
    div_B: float
    div_D: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.poynting, self.energy_density, self.div_B, self.div_D)


def abi_constraints(s: AbiState) -> ConstraintNorms:
    g = s.grid
    B, D, P = s.B.values, s.D.values, s.P.values
    nsq = (B ** 2).sum(0) + (D ** 2).sum(0) + (P ** 2).sum(0)
    return ConstraintNorms(
        poynting=float(np.abs(P - cross3(D, B)).max()),
        energy_density=float(np.abs(s.h.values - np.sqrt(1.0 + nsq)).max()),
        div_B=float(np.abs(g.div_arr(B)).max()),
        div_D=float(np.abs(g.div_arr(D)).max()),
    )


def abi_entropy(s: AbiState) -> float:
    """Conserved convex entropy integral((1 + B^2 + D^2 + P^2) / (2h))."""
    return _energy_arrays(s.h.values, s.B.values, s.D.values, s.P.values)


def galilean_boost(s: AbiState, V, t: float) -> AbiState:
    """Boost by constant velocity V: sample at x + V t and shift P by -V h."""
    g = s.grid
    delta = np.asarray(V, dtype=float) * t
    h = g.shift_arr(s.h.values, delta)
    B = g.shift_arr(s.B.values, delta)
    D = g.shift_arr(s.D.values, delta)
    P = g.shift_arr(s.P.values, delta)
    for i in range(3):
        P[i] -= float(V[i]) * h
    return AbiState(ScalarField(g, h), VectorField3(g, B),
                    VectorField3(g, D), VectorField3(g, P))


@dataclass
class AbiTrajectory:
    times: list[float]
    states: list[AbiState]
    diagnostics: list[tuple[float, ...]]  # rows: t, entropy, 4 norms, min h, max |v|

    DIAG_HEADER = ("t", "entropy", "poynting_defect", "energy_defect",
                   "div_B", "div_D", "min_h", "max_v")


def abi_run(s0: AbiState | list[AbiState], dt: float, n_steps: int,
            save_every: int = 1) -> AbiTrajectory:
    """March n_steps of RK4, saving states every `save_every` steps.

    Diagnostics are recorded at every step. A blow-up detector terminates
    the run (with a diagnostic) as soon as any field's sup norm exceeds
    `stepping.BLOWUP_FACTOR` times the initial scale. An s0 handed over in
    a one-element list is emptied from it and freed after the first step;
    the trajectory then keeps its diagnostics row but not the state.
    """
    def observe(t: float, s: AbiState):
        c = abi_constraints(s)
        vmax = float((vec_norm(s.P.values)
                      * guarded_reciprocal(s.h.values)).max())
        return s, (t, abi_entropy(s), *c.as_tuple(),
                   float(s.h.values.min()), vmax)

    return AbiTrajectory(*march(
        s0, abi_step, uniform_stops(dt, n_steps), lambda s: dt,
        save_every, observe, AbiState.sup_scale))


# ----------------------------------------------------------------------
# Non-conservative symmetric form and its reductions.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NonConsState:
    tau: ScalarField
    b: VectorField3
    d: VectorField3
    v: VectorField3

    @property
    def grid(self) -> GridSpec:
        return self.tau.grid


@dataclass(frozen=True)
class NcTendency:
    dtau: np.ndarray
    db: np.ndarray
    dd: np.ndarray
    dv: np.ndarray


def _advect(g: GridSpec, vel: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(vel . grad) f for a vector field f, dealiased."""
    return g.dealias_arr(_matvec(g.jacobian_arr(f), vel))


def nc_rhs(s: NonConsState) -> NcTendency:
    """Tendency of (tau, b, d, v); a state with tau = d = 0 takes the string
    reduction, and with b = 0 as well the Burgers one."""
    g = s.grid
    da = g.dealias_arr
    v = s.v.values
    b = s.b.values
    tau = s.tau.values
    d = s.d.values
    if not tau.any() and not d.any():
        zeros_s, zeros_v = np.zeros(g.shape), np.zeros((3, *g.shape))
        if not b.any():
            return NcTendency(zeros_s, zeros_v, zeros_v, -_advect(g, v, v))
        db = -_advect(g, v, b) + _advect(g, b, v)
        dv = -_advect(g, v, v) + _advect(g, b, b)
        return NcTendency(zeros_s, db, zeros_v, dv)
    grad_tau = g.grad_arr(tau)
    db = -_advect(g, v, b) + _advect(g, b, v) - da(tau * g.curl_arr(d))
    dd = -_advect(g, v, d) + _advect(g, d, v) + da(tau * g.curl_arr(b))
    dtau = -da((v * grad_tau).sum(0)) + da(tau * g.div_arr(v))
    dv = (-_advect(g, v, v) + _advect(g, b, b) + _advect(g, d, d)
          + da(tau * grad_tau))
    return NcTendency(dtau, db, dd, dv)


def nc_from_abi(s: AbiState) -> NonConsState:
    g = s.grid
    r = guarded_reciprocal(s.h.values)
    return NonConsState(ScalarField(g, r),
                        VectorField3(g, s.B.values * r),
                        VectorField3(g, s.D.values * r),
                        VectorField3(g, s.P.values * r))


def abi_tendency_from_nc(s: NonConsState, t: NcTendency) -> AbiTendency:
    """Chain rule back to conservative tendencies: h = 1/tau, B = b/tau, ..."""
    tau = s.tau.values
    require_positive(tau, name="tau")
    inv = 1.0 / tau
    inv2 = inv * inv
    dh = -t.dtau * inv2
    dB = t.db * inv - s.b.values * (t.dtau * inv2)
    dD = t.dd * inv - s.d.values * (t.dtau * inv2)
    dP = t.dv * inv - s.v.values * (t.dtau * inv2)
    return AbiTendency(dh, dB, dD, dP)
