import weakref

import numpy as np
import pytest

from abimhd import abi, compare, dmhd, galerkin, stepping
from abimhd.dmhd import DmhdState, dmhd_run
from abimhd.fields import FieldDataError, GridSpec, ScalarField, VectorField3
from abimhd.stepping import (
    BlowUpError,
    StepSizeError,
    check_blowup,
    check_positive,
    check_step,
    cumulative_trapezoid,
    rk4_step,
)
from conftest import single_mode_pair


def test_rk4_exact_on_linear_system():
    # dy/dt = A y has RK4 error O(dt^5) per step
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    y = (np.array([1.0, 0.0]),)
    dt = 1e-3
    for _ in range(1000):
        y = rk4_step(y, dt, lambda s: (A @ s[0],))
    t = 1.0
    exact = np.array([np.cos(2 * t), -2 * np.sin(2 * t)])
    assert np.abs(y[0] - exact).max() < 1e-10


def test_rk4_takes_the_first_stage_it_is_handed():
    # k1 = rhs(y) handed in gives the same step bit for bit and spares one
    # of the four calls
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    calls = []

    def rhs(s):
        calls.append(1)
        return (np.sin(A @ s[0]), s[1] * s[0].sum())

    y = (np.array([0.3, -0.7]), np.array([[1.5, 2.0], [0.1, -0.2]]))
    want = rk4_step(y, 0.05, rhs)
    assert len(calls) == 4
    k1 = rhs(y)
    calls.clear()
    got = rk4_step(y, 0.05, rhs, k1=k1)
    assert len(calls) == 3
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


def textbook_rk4(y, dt, rhs):
    """Classical RK4 as four tendencies summed at the end, the oracle."""
    k1 = rhs(y)
    k2 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k1)))
    k3 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k2)))
    k4 = rhs(tuple(a + dt * b for a, b in zip(y, k3)))
    return tuple(a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def mixed_rhs(s):
    """Tendencies of a (time, writable array, read-only array) state; the
    last comes back read-only, like a tendency a caller keeps."""
    t, u, w = s
    return (1.0, np.sin(u) * w.sum() + t, read_only(np.cos(w) - u[:2] * t))


def mixed_state():
    return (0.25, np.array([0.3, -0.7, 1.1]), read_only([1.5, -0.2]))


@pytest.mark.parametrize("with_k1", [False, True])
def test_rk4_matches_the_textbook_sum_bit_for_bit(with_k1):
    y = mixed_state()
    k1 = mixed_rhs(y) if with_k1 else None
    held = [*y[1:], *(k1[1:] if with_k1 else ())]
    before = [a.tobytes() for a in held]
    got = rk4_step(y, 0.05, mixed_rhs, k1=k1)
    want = textbook_rk4(y, 0.05, mixed_rhs)
    assert type(got[0]) is float and got[0] == want[0]
    for a, b in zip(got[1:], want[1:], strict=True):
        assert a.tobytes() == b.tobytes()
    # the state and a handed-in first stage come back unmodified
    assert [a.tobytes() for a in held] == before


@pytest.mark.parametrize("with_k1", [False, True])
def test_rk4_keeps_one_sum_and_one_stage_alive(with_k1):
    # weakrefs to every tendency and stage array an rhs call saw: at each
    # call, besides y, only the running sum (k1 before the second tendency
    # exists) and the call's own stage may be alive
    y = (np.linspace(0.0, 1.0, 64), np.ones((3, 8)))
    tendencies, stages, alive = [], [], []

    def rhs(s):
        alive.append((sum(r() is not None for r in tendencies),
                      sum(r() is not None for r in stages)))
        stages.extend(weakref.ref(a) for a in s
                      if not any(a is b for b in y))
        k = (np.sin(s[0]), s[1] * s[0][:8])
        tendencies.extend(weakref.ref(a) for a in k)
        return k

    k1 = (np.sin(y[0]), y[1] * y[0][:8]) if with_k1 else None
    out = rk4_step(y, 0.1, rhs, k1=k1)
    first = [] if with_k1 else [(0, 0)]
    assert alive == first + [(0 if with_k1 else 2, 0), (0, 0), (0, 0)]
    assert all(r() is None for r in tendencies + stages)
    assert len(out) == 2


def test_cumulative_trapezoid_matches_prefix_trapezoids(rng):
    times = np.cumsum(rng.uniform(0.01, 1.0, 50))
    values = rng.standard_normal(50)
    ref = np.array([np.trapezoid(values[:j + 1], times[:j + 1])
                    for j in range(50)])
    got = cumulative_trapezoid(values, times)
    assert got[0] == 0.0
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_check_blowup_raises_past_threshold():
    check_blowup(9.0, 1.0)
    with pytest.raises(BlowUpError, match="sup norm"):
        check_blowup(11.0, 1.0, context="unit")


def test_guards_reject_nan():
    # a state gone non-finite is a numerical abort, not a later field error
    with pytest.raises(StepSizeError, match="positivity"):
        check_positive(np.array([1.0, np.nan]), 1e-3)
    with pytest.raises(StepSizeError, match="bound"):
        check_step(1e-3, np.nan, "bound")
    with pytest.raises(BlowUpError, match="sup norm"):
        check_blowup(np.nan, 1.0)


def test_run_detects_blowup(grid16, monkeypatch):
    # force the detector by shrinking the threshold: a genuinely smooth run
    # trips it immediately once the factor is tiny
    h0 = ScalarField.from_function(
        grid16, lambda x, y, z: 1.0 + 0.2 * np.cos(2 * np.pi * x))
    B0 = VectorField3.from_function(
        grid16, lambda x, y, z: (0 * x, 0.3 * np.sin(2 * np.pi * x), 0 * x))
    s0 = DmhdState(h0, B0)
    monkeypatch.setattr(stepping, "BLOWUP_FACTOR", 1e-6)
    with pytest.raises(BlowUpError):
        dmhd_run(s0, 1e-6, 3)


def counting_step(dts):
    """A step on a scalar clock state that records every dt it is given."""
    def step(y, dt):
        dts.append(dt)
        return y + dt
    return step


def test_march_lands_on_every_stop_without_passing_one():
    stops = [0.5, 1.0, 1.7, 1.75]
    dts = []
    times, states, rows = stepping.march(
        0.0, counting_step(dts), stops, lambda y: 0.3 + 0.05 * y)
    assert times == [0.0, *stops]
    assert states[1:] == pytest.approx(stops, rel=1e-15)
    assert rows == []
    ends = np.cumsum(dts)
    starts = ends - np.asarray(dts)
    for stop in stops:
        assert np.any(np.abs(ends - stop) <= 1e-15 * stop)
        assert not np.any((starts < stop * (1 - 1e-12))
                          & (ends > stop * (1 + 1e-12)))


def test_march_fixed_step_uses_dt_unchanged_and_stamps_k_dt():
    dt, n = 0.1, 50
    dts = []
    times, states, _ = stepping.march(
        0.0, counting_step(dts), [k * dt for k in range(1, n + 1)],
        lambda y: dt, keep_every=7)
    assert len(dts) == n and all(d == dt for d in dts)
    kept = [k for k in range(n + 1) if k % 7 == 0 or k == n]
    assert times == [k * dt for k in kept]


def test_uniform_stops_are_k_dt_once_they_fit_in_memory():
    assert stepping.uniform_stops(0.1, 7) == [k * 0.1 for k in range(1, 8)]
    with pytest.raises(FieldDataError, match="10+ steps keep .* GB"):
        stepping.uniform_stops(0.1, 10 ** 15)       # 346 PB of stops and rows


def test_march_takes_every_tiny_step():
    dt, n = 1e-15, 40
    for stops in ([k * dt for k in range(1, n + 1)], [n * dt]):
        dts = []
        times, _, _ = stepping.march(0.0, counting_step(dts), stops,
                                     lambda y: dt)
        assert len(dts) == n and all(d == dt for d in dts)
        assert times[-1] == n * dt


def test_march_observes_every_step_and_checks_growth(monkeypatch):
    times, states, rows = stepping.march(
        1.0, lambda y, dt: 2.0 * y, [1.0, 2.0, 3.0], lambda y: 1.0,
        observe=lambda t, y: (-y, (t, y)), sup=abs)
    assert states == [-1.0, -2.0, -4.0, -8.0]
    assert rows == [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (3.0, 8.0)]
    monkeypatch.setattr(stepping, "BLOWUP_FACTOR", 3.0)
    with pytest.raises(BlowUpError, match="<lambda>: sup norm 4"):
        stepping.march(1.0, lambda y, dt: 2.0 * y, [1.0, 2.0, 3.0],
                       lambda y: 1.0, sup=abs)


def test_march_takes_over_a_start_handed_in_a_list():
    # the list is emptied; the t = 0 row stays, the t = 0 record and time go
    args = (lambda y, dt: 2.0 * y, [1.0, 2.0, 3.0], lambda y: 1.0)
    kw = dict(observe=lambda t, y: (-y, (t, y)), sup=abs)
    times, states, rows = stepping.march(1.0, *args, **kw)
    start = [1.0]
    assert stepping.march(start, *args, **kw) == (times[1:], states[1:], rows)
    assert start == []


@pytest.mark.parametrize("stops", [[0.02, 0.01], [0.01, 0.01], [0.0, 0.01]])
def test_unordered_sample_times_rejected_before_any_step(grid16, monkeypatch,
                                                         stops):
    def no_step(s, dt):
        raise AssertionError("stepped before validating the sample times")

    monkeypatch.setattr(compare, "dmhd_step", no_step)
    h0, B0 = single_mode_pair(grid16)
    with pytest.raises(FieldDataError, match="increasing and positive"):
        compare.dmhd_run_at_times(DmhdState(h0, B0), stops)


def _negative_h_step(y, dt, rhs, k1=None):
    """An RK4 stand-in whose step drives h below zero."""
    return (-np.ones_like(y[0]), *y[1:])


@pytest.mark.parametrize("solver", ["abi", "dmhd", "galerkin"])
def test_lost_positivity_suggests_half_the_step(monkeypatch, solver):
    grid = GridSpec(8)
    h0, B0 = single_mode_pair(grid)
    zero = VectorField3.zero(grid)
    if solver == "abi":
        s = abi.AbiState.consistent(B0, zero)
        dt = 0.5 * abi.abi_cfl_dt(s)
        owner, run = abi, lambda: abi.abi_step(s, dt)
    elif solver == "dmhd":
        s = DmhdState(h0, B0)
        dt = 0.5 * dmhd.dmhd_cfl_dt(s)
        owner, run = dmhd, lambda: dmhd.dmhd_step(s, dt)
    else:
        cfg = galerkin.GalerkinConfig(N=2, eps=0.5, l=1, dt=1e-4, T=2e-4)
        dt = cfg.dt
        owner, run = galerkin, lambda: galerkin.galerkin_run(h0, B0, zero,
                                                             zero, cfg)
    monkeypatch.setattr(owner, "rk4_step", _negative_h_step)
    with pytest.raises(StepSizeError, match="lost positivity") as err:
        run()
    assert err.value.suggested_dt == dt / 2

