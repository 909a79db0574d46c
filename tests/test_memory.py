"""Memory budget of one step, and the transform count of the ABI RHS.

A step's peak is measured with tracemalloc (numpy reports its array
buffers to it) above what was allocated before the step, in units of one
state: 10 scalar fields for ABI, 4 for DMHD. The step is warm: the grid's
cached symbols exist, and the DMHD state has no constitutive pair yet, as
in a run. The budgets sit above the measured peaks of a step that holds y,
one running RK4 sum and one stage (3.74 ABI and 8.85 DMHD states at
n = 32), and below a step that holds every tendency (5.92 and 10.85).
"""

import tracemalloc

import numpy as np
import pytest

from abimhd.abi import AbiState, abi_cfl_dt, abi_rhs, abi_step
from abimhd.dmhd import DmhdState, dmhd_cfl_dt, dmhd_step
from abimhd.fields import (
    GridSpec,
    ScalarField,
    VectorField3,
    cross3,
    random_band_limited,
    random_divergence_free,
    random_vector,
)


def smooth_fields(n, seed=3):
    g = GridSpec(n)
    rng = np.random.default_rng(seed)
    h = ScalarField(g, 1.0 + random_band_limited(g, rng, 2, 0.2).values)
    B = random_divergence_free(g, rng, 2, 0.3)
    D = random_vector(g, rng, 2, 0.1)
    return g, h, B, D


def peak_above_input(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("solver, budget", [("abi", 4.2), ("dmhd", 9.7)])
def test_one_step_stays_within_its_memory_budget(solver, budget):
    g, h, B, D = smooth_fields(32)
    if solver == "abi":
        s = AbiState(h, B, D, VectorField3(g, cross3(D.values, B.values)))
        step, dt, fields_per_state = abi_step, 0.5 * abi_cfl_dt(s), 10
        fresh = lambda: s
    else:
        fresh = lambda: DmhdState(h, B)     # no cached (D, P)
        step, dt, fields_per_state = dmhd_step, dmhd_cfl_dt(fresh()), 4
    step(fresh(), dt)                   # warm: the grid's cached symbols
    peak = peak_above_input(step, fresh(), dt)
    assert peak / (fields_per_state * g.num_points * 8) <= budget


def test_abi_rhs_makes_26_transforms_at_48(monkeypatch):
    # counted per component at the public GridSpec.fft / ifft, where the
    # bench tracer counts them
    g, h, B, D = smooth_fields(48)
    s = AbiState(h, B, D, VectorField3(g, cross3(D.values, B.values)))
    tally = {"fft": 0, "ifft": 0}
    for name in tally:
        orig = getattr(GridSpec, name)

        def counted(self, a, *args, _name=name, _orig=orig, **kwargs):
            tally[_name] += int(np.prod(np.shape(a)[:-3]))
            return _orig(self, a, *args, **kwargs)

        monkeypatch.setattr(GridSpec, name, counted)
    abi_rhs(s)
    assert tally == {"fft": 16, "ifft": 10}
