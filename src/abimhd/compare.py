"""Comparison harness between the conservative ten-field system and its
quadratic-time diffusion limit.

Both solvers start from the same (h0, B0): the conservative run carries
(h0, B0, 0, 0) on the original clock t, the diffusion run carries (h0, B0)
on the rescaled clock theta = t^2 / 2 and is snapshotted at exactly
theta_j = t_j^2 / 2 by adjusting its final substep. Matching the limits

    h'(t) ~ h(t^2/2),  B'(t) ~ B(t^2/2)        (L1 error ~ t^3)
    D'(s) ~ s D(s^2/2), P'(s) ~ s P(s^2/2)     (cumulative L1 error ~ t^4)

the harness measures L1 error curves, the time-cumulative displacement and
momentum errors, and fits log-log convergence rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abi import AbiState, AbiTrajectory, abi_cfl_dt, abi_step
from .dmhd import (
    DmhdState,
    DmhdTrajectory,
    dmhd_cfl_dt,
    dmhd_step,
)
from .entropy import TestFieldFrame
from .fields import (
    FieldDataError,
    ScalarField,
    VectorField3,
    guarded_reciprocal,
    vec_norm,
)
from .snapshots import format_float, write_csv
from .stepping import cumulative_trapezoid, march

__all__ = [
    "RateFit",
    "ComparisonSeries",
    "run_sampled",
    "dmhd_run_at_times",
    "abi_run_at_times",
    "error_curves",
    "rescaled_test_fields",
    "fit_rate",
]

MAX_FIRST_SAMPLE = 0.02   # coarsest first sample time rescaled frames accept
RATE_FLOOR = 1e-13        # error floor of the solvers that fit_rate discounts


def abi_run_at_times(s0: AbiState, sample_times: Sequence[float],
                     cfl_fraction: float = 0.5) -> AbiTrajectory:
    """March the conservative system, landing exactly on each sample time."""
    return AbiTrajectory(*march(s0, abi_step, sample_times,
                                lambda s: cfl_fraction * abi_cfl_dt(s),
                                sup=AbiState.sup_scale))


def dmhd_run_at_times(s0: DmhdState, sample_times: Sequence[float],
                      cfl_fraction: float = 0.5) -> DmhdTrajectory:
    """March the diffusion system, landing exactly on each sample time."""
    return DmhdTrajectory(*march(s0, dmhd_step, sample_times,
                                 lambda s: cfl_fraction * dmhd_cfl_dt(s),
                                 sup=DmhdState.sup_scale))


@dataclass
class ComparisonSeries:
    """L1 error curves on the shared t samples (t = 0 excluded)."""

    times: np.ndarray
    err_h: np.ndarray
    err_B: np.ndarray
    cum_err_D: np.ndarray
    cum_err_P: np.ndarray

    def write_csv(self, path, slopes: dict[str, float] | None = None) -> None:
        rows = zip(self.times, self.err_h, self.err_B,
                   self.cum_err_D, self.cum_err_P)
        footer = []
        if slopes:
            footer.append("# " + " ".join(
                f"slope_{k}={format_float(v)}" for k, v in slopes.items()))
        write_csv(path, ("t", "err_h", "err_B", "cum_err_D", "cum_err_P"),
                  rows, footer)


def run_sampled(h0: ScalarField, B0: VectorField3,
                sample_times: Sequence[float], cfl_fraction: float = 0.5
                ) -> tuple[AbiTrajectory, DmhdTrajectory]:
    """Run both systems from (h0, B0); the diffusion run is sampled at
    theta_j = t_j^2 / 2."""
    g = h0.grid
    zero = VectorField3.zero(g)
    abi0 = AbiState(h0, B0, zero, zero)
    ts = list(sample_times)
    abi_traj = abi_run_at_times(abi0, ts, cfl_fraction)
    thetas = [t * t / 2.0 for t in ts]
    dmhd_traj = dmhd_run_at_times(DmhdState(h0, B0), thetas, cfl_fraction)
    return abi_traj, dmhd_traj


def error_curves(abi_traj: AbiTrajectory,
                 dmhd_traj: DmhdTrajectory) -> ComparisonSeries:
    """L1 errors of the matched fields and cumulative flux errors.

    Requires aligned sampling: the diffusion trajectory's k-th positive time
    must be t_k^2 / 2 for the conservative trajectory's t_k, on one grid.
    """
    g = abi_traj.states[0].grid
    if dmhd_traj.states[0].grid != g:
        raise FieldDataError("comparison requires a shared grid")
    ts = np.asarray(abi_traj.times[1:])
    thetas = np.asarray(dmhd_traj.times[1:])
    if len(ts) != len(thetas) or not np.allclose(thetas, ts ** 2 / 2.0,
                                                 rtol=0, atol=1e-12):
        raise FieldDataError(
            "diffusion samples must sit at theta = t^2/2 of the conservative "
            "samples")

    err_h = np.empty(len(ts))
    err_B = np.empty(len(ts))
    inst_D = np.empty(len(ts) + 1)
    inst_P = np.empty(len(ts) + 1)

    # at t = 0 the rescaled references t D(t^2/2), t P(t^2/2) vanish
    s_abi0 = abi_traj.states[0]
    inst_D[0] = float(vec_norm(s_abi0.D.values).mean())
    inst_P[0] = float(vec_norm(s_abi0.P.values).mean())

    for k, t in enumerate(ts):
        sa = abi_traj.states[k + 1]
        sd = dmhd_traj.states[k + 1]
        err_h[k] = float(np.abs(sa.h.values - sd.h.values).mean())
        err_B[k] = float(vec_norm(sa.B.values - sd.B.values).mean())
        Dk, Pk = sd.constitutive_pair
        inst_D[k + 1] = float(vec_norm(sa.D.values - t * Dk).mean())
        inst_P[k + 1] = float(vec_norm(sa.P.values - t * Pk).mean())

    all_t = np.concatenate([[0.0], ts])
    cum_D = cumulative_trapezoid(inst_D, all_t)[1:]
    cum_P = cumulative_trapezoid(inst_P, all_t)[1:]
    return ComparisonSeries(ts, err_h, err_B, cum_D, cum_P)


def rescaled_test_fields(abi_traj: AbiTrajectory) -> list[TestFieldFrame]:
    """Test-field frames on the theta = t^2/2 grid from a conservative run.

    h*(theta) and b*(theta) are the rescaled density and induction ratios;
    d* and v* carry the extra 1/t from the flux rescaling, with their
    theta -> 0 limits (the initial time derivatives of d' and v') recovered
    by one-sided extrapolation from the first two positive samples. Frame
    time derivatives are centered differences on the theta grid.
    """
    times = np.asarray(abi_traj.times)
    if len(times) < 3:
        raise FieldDataError("need at least two positive sample times")
    if times[1] > MAX_FIRST_SAMPLE:
        raise FieldDataError(
            f"first positive sample t={times[1]:g} too coarse to form the "
            f"theta -> 0 limits; sample at dt <= {MAX_FIRST_SAMPLE:g}")
    g = abi_traj.states[0].grid
    thetas = times ** 2 / 2.0

    tau_s, b_s, d_s, v_s = [], [], [], []
    for t, s in zip(times, abi_traj.states):
        r = guarded_reciprocal(s.h.values)
        tau_s.append(r)
        b_s.append(s.B.values * r)
        if t > 0:
            d_s.append(s.D.values * r / t)
            v_s.append(s.P.values * r / t)
        else:
            d_s.append(None)
            v_s.append(None)
    # theta -> 0 limit by linear extrapolation from the first two samples
    w = thetas[1] / (thetas[2] - thetas[1])
    d_s[0] = d_s[1] - w * (d_s[2] - d_s[1])
    v_s[0] = v_s[1] - w * (v_s[2] - v_s[1])

    def ddtheta(seq, k):
        if k == 0:
            return (seq[1] - seq[0]) / (thetas[1] - thetas[0])
        if k == len(seq) - 1:
            return (seq[-1] - seq[-2]) / (thetas[-1] - thetas[-2])
        return (seq[k + 1] - seq[k - 1]) / (thetas[k + 1] - thetas[k - 1])

    frames = []
    for k, th in enumerate(thetas):
        frames.append(TestFieldFrame(
            float(th),
            ScalarField(g, tau_s[k]),
            VectorField3(g, b_s[k]),
            VectorField3(g, d_s[k]),
            VectorField3(g, v_s[k]),
            ScalarField(g, ddtheta(tau_s, k)),
            VectorField3(g, ddtheta(b_s, k)),
        ))
    return frames


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against log time."""

    times: np.ndarray
    errors: np.ndarray
    slope: float
    residual: float     # RMS of log-space fit residuals


def fit_rate(times: Sequence[float], errors: Sequence[float]) -> RateFit:
    """Fit the convergence exponent, excluding floor-dominated samples.

    Samples with error below 10x the solver floor RATE_FLOOR are dropped;
    at least four strictly positive samples must survive.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(errors, dtype=float)
    keep = e > 10.0 * RATE_FLOOR
    if keep.sum() < 4:
        raise FieldDataError(
            f"rate fit needs >= 4 samples above the floor {RATE_FLOOR:g}; "
            f"only {int(keep.sum())} remain")
    t, e = t[keep], e[keep]
    if np.any(e <= 0):
        raise FieldDataError("rate fit requires strictly positive errors")
    lt, le = np.log(t), np.log(e)
    coeffs = np.polyfit(lt, le, 1)
    resid = le - np.polyval(coeffs, lt)
    return RateFit(t, e, float(coeffs[0]),
                   float(np.sqrt(np.mean(resid ** 2))))
