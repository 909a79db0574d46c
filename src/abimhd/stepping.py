"""Shared explicit time stepping: the RK4 step, the marching loop, the
running trapezoid quadrature, the fixed-step stop list with its memory
guard, and the solver error types. An RK4 step holds y, one running sum of
its tendencies (k1 until the sum exists) and one stage or tendency, besides
the RHS's own work. Each stage goes to the RHS in a fresh list, so an RHS
that empties it and drops each input once read never holds a whole stage
next to a whole tendency."""

from __future__ import annotations

import math
import resource
from operator import iadd, imul
from typing import Callable, Iterable, TypeVar

import numpy as np

from .fields import FieldDataError


class StepSizeError(ValueError):
    """Step rejected; carries a suggested stable step size."""

    def __init__(self, message: str, suggested_dt: float):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class BlowUpError(RuntimeError):
    """Sup-norm growth exceeded the blow-up threshold mid-run."""


State = tuple[np.ndarray, ...]
Y = TypeVar("Y")

BLOWUP_FACTOR = 10.0    # sup-norm growth over the initial scale that aborts
STOP_RTOL = 1e-12       # a step lands on a stop within this share of the stop
# bytes a step's stop and diagnostics row keep: the tracemalloc peak per
# step of a 20,000-stop march with ABI's row, the widest (8 floats)
STEP_BYTES = 346


def _taken(k: list):
    """The entries of k in order, each dropped from k as it is read."""
    for i, b in enumerate(k):
        k[i] = None
        yield b


def rk4_step(y: State, dt: float, rhs: Callable[[list], State],
             k1: State | None = None) -> State:
    """One classical Runge-Kutta step on a tuple of arrays (or floats).

    k1 is rhs(y) when the caller already holds it; it is derived otherwise.
    rhs gets each stage as a fresh list, which it may empty (the first as
    list(y)). The running sum ((k1 + 2 k2) + 2 k3) + k4 keeps the textbook
    order and grows in place; each tendency entry is dropped from the
    step's own list as soon as its last reader has read it. y, k1 and
    every tendency are only read.
    """
    k1 = list(rhs(list(y)) if k1 is None else k1)
    k = list(rhs([a + 0.5 * dt * b for a, b in zip(y, k1)]))
    acc = [b1 + 2.0 * b2 for b1, b2 in zip(_taken(k1), k)]
    k = list(rhs([a + 0.5 * dt * b for a, b in zip(y, _taken(k))]))
    acc = [iadd(s, 2.0 * b) for s, b in zip(acc, k)]
    k = list(rhs([a + dt * b for a, b in zip(y, _taken(k))]))
    acc = [iadd(s, b) for s, b in zip(acc, _taken(k))]      # k4 unscaled
    return tuple(iadd(imul(s, dt / 6.0), a) for a, s in zip(y, acc))


def check_step(dt: float, dt_max: float, bound: str) -> None:
    """Reject dt beyond the step bound dt_max (named `bound` in the message)
    by more than round-off, suggesting dt_max."""
    if not dt <= dt_max * (1.0 + 1e-12):
        raise StepSizeError(f"dt={dt:g} violates the {bound} {dt_max:g}",
                            dt_max)


def check_positive(h: np.ndarray, dt: float) -> None:
    """Reject a step of dt whose density h lost positivity, suggesting dt/2."""
    if not h.min() > 0.0:
        raise StepSizeError(
            f"h lost positivity after a step of dt={dt:g}", dt / 2.0)


def check_blowup(sup_now: float, sup_initial: float,
                 context: str = "run") -> None:
    if not sup_now <= BLOWUP_FACTOR * max(sup_initial, 1.0):
        raise BlowUpError(
            f"{context}: sup norm {sup_now:.6g} exceeded {BLOWUP_FACTOR:g}x "
            f"the initial scale {sup_initial:.6g}; terminating")


def require_memory(need: float, holder: str, remedy: str) -> None:
    """FieldDataError when `need` bytes, which `holder` keeps, exceed the
    smaller of MemAvailable and the soft RLIMIT_AS (no limit where neither
    is known)."""
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    avail = math.inf if soft == resource.RLIM_INFINITY else float(soft)
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    avail = min(avail, 1024.0 * float(line.split()[1]))
    except OSError:
        pass
    if need > avail:
        raise FieldDataError(
            f"{holder}: {need / 1e9:.3g} GB, above the {avail / 1e9:.3g} GB "
            f"available; {remedy}")


def uniform_stops(dt: float, n_steps: int) -> list[float]:
    """The stops k*dt, k = 1..n_steps, of a fixed-step run, once its stops
    and diagnostics rows (STEP_BYTES a step) are known to fit in memory."""
    require_memory(n_steps * STEP_BYTES,
                   f"{n_steps} steps keep their stops and diagnostics rows",
                   "raise the step or shorten the run")
    return [k * dt for k in range(1, n_steps + 1)]


def cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of the samples from times[0] to every time."""
    steps = 0.5 * np.diff(times) * (values[1:] + values[:-1])
    return np.concatenate([[0.0], np.cumsum(steps)])


def march(y0: Y | list[Y], step: Callable[[Y, float], Y],
          stops: Iterable[float],
          dt_bound: Callable[[Y], float], keep_every: int = 1,
          observe: Callable[[float, Y], tuple] | None = None,
          sup: Callable[[Y], float] | None = None
          ) -> tuple[list[float], list, list[tuple]]:
    """Advance y0 from t = 0 through every stop; the one solver time loop.

    Each step takes dt = dt_bound(y), shortened only when it would pass the
    next stop by more than STOP_RTOL of that stop; a step that reaches the
    stop within that tolerance lands the clock on it exactly. A fixed-step
    run therefore passes stops k*dt and a constant bound dt: every step uses
    dt unchanged and is stamped t_k = k*dt.

    observe(t, y) runs at t = 0 and after every step and returns the record
    to keep for that time with its diagnostic row (None for no row); without
    it the record is y. Records are kept at t = 0, at every keep_every-th
    stop and at the last stop; rows are kept at every call. With `sup`, a
    step whose sup(y) exceeds BLOWUP_FACTOR times the initial scale raises
    BlowUpError. Returns (times, records, rows).

    A y0 handed over in a one-element list is taken out of it, so that the
    march holds the start's last reference and lets it go after the first
    step; the t = 0 row is kept, but not the t = 0 record or time.
    """
    stops = [float(s) for s in stops]
    if not all(b > a for a, b in zip([0.0, *stops], stops)):
        raise FieldDataError("stop times must be increasing and positive")

    def record(t, y):
        return (y, None) if observe is None else observe(t, y)

    handed = isinstance(y0, list)
    y, t = (y0.pop() if handed else y0), 0.0
    kept, row = record(t, y)
    times, records = ([], []) if handed else ([t], [kept])
    rows = [] if row is None else [row]
    sup0 = None if sup is None else sup(y)
    for j, stop in enumerate(stops, start=1):
        landed = False
        while not landed:
            dt = dt_bound(y)
            gap = stop - t
            tol = STOP_RTOL * stop
            landed = gap <= dt + tol
            if gap < dt - tol:
                dt = gap
            y = step(y, dt)
            t = stop if landed else t + dt
            if sup is not None:
                check_blowup(sup(y), sup0, getattr(step, "__name__", "march"))
            kept, row = record(t, y)
            if row is not None:
                rows.append(row)
        if j % keep_every == 0 or j == len(stops):
            times.append(t)
            records.append(kept)
    return times, records, rows
