"""Darcy-MHD solver: induction equation with a generalized Darcy closure.

The evolved pair is (h > 0, B div-free); displacement and momentum are
derived by the constitutive laws

    D = curl(B / h),     P = div(B (x) B / h) + grad(1 / h),

and the dynamics is

    dt h = -div P,       dt B = -curl(B x (P/h) + D/h).

B is updated through the curl, so div B = 0 is preserved structurally.
The energy integral((B^2 + 1) / (2h)) decreases along smooth runs with
dissipation rate integral((D^2 + P^2) / h); `energy_balance_residual`
monitors the discrete defect of that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    SYM_PAIRS,
    FieldDataError,
    GridSpec,
    ScalarField,
    VectorField3,
    _energy_arrays,
    cross3,
    guarded_reciprocal,
    vec_norm,
)
from .stepping import check_positive, check_step, march, rk4_step, uniform_stops

__all__ = [
    "DmhdState",
    "DmhdTrajectory",
    "constitutive",
    "dmhd_rhs",
    "dmhd_step",
    "dmhd_cfl_dt",
    "dmhd_run",
    "energy",
    "dissipation",
    "energy_balance_residual",
]

PARABOLIC_SAFETY = 0.1


@dataclass(frozen=True)
class DmhdState:
    h: ScalarField
    B: VectorField3

    def __post_init__(self):
        if self.B.grid != self.h.grid:
            raise ValueError("h and B must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.h.grid

    @cached_property
    def constitutive_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, P) of this state, derived on first use and kept read-only."""
        D, P = _constitutive_arrays(self.grid, self.h.values, self.B.values)
        D.setflags(write=False)
        P.setflags(write=False)
        return D, P

    def div_B_sup(self) -> float:
        return float(np.abs(self.grid.div_arr(self.B.values)).max())

    def sup_scale(self) -> float:
        return max(self.h.sup_norm(), self.B.sup_norm())


def _constitutive_products(h: np.ndarray, B: np.ndarray) -> tuple:
    """The pointwise products of the constitutive law: B/h, a generator of
    the six B_i B_j/h in SYM_PAIRS order (one alive at a time) and 1/h, so
    that D = curl(B/h) and P = div(B (x) B/h) + grad(1/h)."""
    r = guarded_reciprocal(h)
    return B * r, (B[i] * B[j] * r for i, j in SYM_PAIRS), r


def _constitutive_spectra(g: GridSpec, h: np.ndarray, B: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """D and the band spectrum of P: 10 forward, 3 inverse transforms."""
    Br, BBr, r = _constitutive_products(h, B)
    D = g.ifft(g.curl_hat(g.fft(Br, band=True)))
    del Br
    P_hat = g.div_sym_masked(BBr)
    P_hat += g.grad_hat(g.fft(r, band=True))
    return D, P_hat


def _constitutive_arrays(g: GridSpec, h: np.ndarray,
                         B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    D, P_hat = _constitutive_spectra(g, h, B)
    return D, g.ifft(P_hat)


def constitutive(s: DmhdState) -> tuple[VectorField3, VectorField3]:
    D, P = s.constitutive_pair
    return VectorField3(s.grid, D), VectorField3(s.grid, P)


def _induction_arrays(g: GridSpec, h: np.ndarray, B: np.ndarray,
                      D: np.ndarray, P: np.ndarray) -> np.ndarray:
    """dt B = -curl(B x (P/h) + D/h), the one induction law, with P/h
    dealiased before the product: 6 forward, 6 inverse transforms."""
    r = guarded_reciprocal(h)
    flux = g.fft(cross3(B, g.dealias_arr(P * r)) + D * r, band=True)
    dB = g.ifft(g.curl_hat(flux))
    return np.negative(dB, out=dB)


def _rhs_arrays(g: GridSpec, h: np.ndarray,
                B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    D, P_hat = _constitutive_spectra(g, h, B)
    P, div_P = g.ifft(P_hat), g.ifft(g.div_hat(P_hat))
    del P_hat       # frees the spectrum before the tendency's temporaries
    return np.negative(div_P, out=div_P), _induction_arrays(g, h, B, D, P)


def _state_tendency(s: DmhdState) -> tuple[np.ndarray, np.ndarray]:
    """(dt h, dt B) of s from its cached constitutive pair."""
    D, P = s.constitutive_pair
    g = s.grid
    return -g.div_arr(P), _induction_arrays(g, s.h.values, s.B.values, D, P)


def dmhd_rhs(s: DmhdState) -> tuple[ScalarField, VectorField3]:
    dh, dB = _rhs_arrays(s.grid, s.h.values, s.B.values)
    return ScalarField(s.grid, dh), VectorField3(s.grid, dB)


def dmhd_cfl_dt(s: DmhdState) -> float:
    """Parabolic step bound c dx^2 min(h)^2 / (1 + max|B/h|)^2.

    The induction diffusivity scales like 1/h^2 and the spectral cutoff
    like 1/dx, hence the quadratic dependence on both.
    """
    h = s.h.values
    r = guarded_reciprocal(h)
    bmax = float((vec_norm(s.B.values) * r).max())
    hmin = float(h.min())
    return (PARABOLIC_SAFETY * s.grid.spacing ** 2 * hmin ** 2
            / (1.0 + bmax) ** 2)


def dmhd_step(s: DmhdState, dt: float) -> DmhdState:
    check_step(dt, dmhd_cfl_dt(s), "parabolic step bound")
    g = s.grid
    h, B = rk4_step((s.h.values, s.B.values), dt,
                    lambda y: _rhs_arrays(g, *y), k1=_state_tendency(s))
    check_positive(h, dt)
    return DmhdState(ScalarField(g, h), VectorField3(g, B))


def energy(s: DmhdState) -> float:
    return _energy_arrays(s.h.values, s.B.values)


def dissipation(s: DmhdState) -> float:
    D, P = s.constitutive_pair
    r = guarded_reciprocal(s.h.values)
    return float((((D ** 2).sum(0) + (P ** 2).sum(0)) * r).mean())


@dataclass
class DmhdTrajectory:
    times: list[float]
    states: list[DmhdState]
    diagnostics: list[tuple[float, ...]]  # t, energy, dissipation, mass, divB, min h

    DIAG_HEADER = ("t", "energy", "dissipation", "mass", "div_B", "min_h")

    def energies(self) -> np.ndarray:
        return np.array([row[1] for row in self.diagnostics])


def dmhd_run(s0: DmhdState | list[DmhdState], dt: float, n_steps: int,
             save_every: int = 1) -> DmhdTrajectory:
    """March n_steps of RK4, saving states every `save_every` steps.

    Diagnostics are recorded at every step; the run aborts once a sup norm
    exceeds `stepping.BLOWUP_FACTOR` times the initial scale. An s0 handed
    over in a one-element list is emptied from it and freed, with its
    cached (D, P), after the first step; the trajectory then keeps its
    diagnostics row but not the state.
    """
    def observe(t: float, s: DmhdState):
        return s, (t, energy(s), dissipation(s), float(s.h.values.mean()),
                   s.div_B_sup(), float(s.h.values.min()))

    return DmhdTrajectory(*march(
        s0, dmhd_step, uniform_stops(dt, n_steps), lambda s: dt,
        save_every, observe, DmhdState.sup_scale))


def energy_balance_residual(traj: DmhdTrajectory, dt: float) -> np.ndarray:
    """Per-step defect of the discrete energy identity.

    r_k = (E_{k+1} - E_k)/dt + (dissipation_k + dissipation_{k+1})/2, using
    the endpoint average as the second-order midpoint dissipation quadrature.
    Reads the diagnostics, which `dmhd_run` records at every step of its
    uniform dt whatever `save_every` is; a trajectory with fewer than two
    diagnostic rows (such as one from `compare.dmhd_run_at_times`) raises
    FieldDataError.
    """
    diags = traj.diagnostics
    if len(diags) < 2:
        raise FieldDataError(
            "energy balance needs the per-step diagnostics of dmhd_run; "
            f"the trajectory has {len(diags)} diagnostic rows")
    e = np.array([row[1] for row in diags])
    q = np.array([row[2] for row in diags])
    return (e[1:] - e[:-1]) / dt + 0.5 * (q[1:] + q[:-1])
