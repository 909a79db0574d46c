"""Memory budgets of one step and of whole jobs, the lifetimes of the
arrays a step hands on, and the transform count of the ABI RHS.

A peak is measured with tracemalloc (numpy reports its array buffers to
it) above what was allocated before the call, in units of one state: 10
scalar fields for ABI, 4 for DMHD. A step is warm: the grid's cached
symbols exist, and the DMHD state has no constitutive pair yet, as in a
run. The step budgets sit above the measured peaks of a step whose RK4
sum drops each tendency as it reads it, with an ABI RHS that empties its
stage and a DMHD RHS that flips its signs in place (2.62 ABI and 8.60
DMHD states at n = 32). The ABI budget is below the 3.74 states of a step
whose RHS keeps its whole stage, and both are below a step that holds
every tendency (5.92 and 10.85).
"""

import json
import os
import resource
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import abimhd
from abimhd import abi, dmhd
from abimhd.abi import AbiState, abi_cfl_dt, abi_rhs, abi_step
from abimhd.cli import main
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


@pytest.mark.parametrize("solver, budget", [("abi", 3.0), ("dmhd", 9.0)])
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


def test_abi_rhs_empties_its_stage_and_frees_it():
    g, h, B, D = smooth_fields(16)
    stage = [h.values.copy(), B.values.copy(), D.values.copy(),
             cross3(D.values, B.values)]
    refs = [weakref.ref(a) for a in stage]
    out = abi._rhs_arrays(g, stage)
    assert stage == []
    assert [r() for r in refs] == [None] * 4
    assert [a.shape for a in out] == [g.shape] + [(3, *g.shape)] * 3


RUNS = {
    "abi-run": (abi, "abi_step", "[grid]\nn = 8\n"
                "[run]\ndt = 0.005\nt_final = 0.015\n"),
    "dmhd-run": (dmhd, "dmhd_step", "[grid]\nn = 8\n"
                 "[run]\ndt = 1e-4\nt_final = 3e-4\n"),
}


@pytest.mark.parametrize("subcommand", RUNS)
def test_the_initial_state_is_dead_when_step_two_starts(
        subcommand, tmp_path, monkeypatch):
    # weakrefs to the start, its fields and, for DMHD, its cached (D, P),
    # taken in the first step; every later step must find them all dead
    module, name, text = RUNS[subcommand]
    real = getattr(module, name)
    refs, dead = [], []

    def step(s, dt):
        if refs:
            dead.append([r() is None for r in refs])
            return real(s, dt)
        out = real(s, dt)
        refs.extend(weakref.ref(a) for a in (
            s, s.h.values, s.B.values, *getattr(s, "constitutive_pair", ())))
        return out

    monkeypatch.setattr(module, name, step)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([subcommand, "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 0
    assert len(refs) == (5 if subcommand == "dmhd-run" else 3)
    assert dead == [[True] * len(refs)] * 2


def job_peak(argv):
    main(argv)                          # warm: imports and cached symbols
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_abi_run_job_stays_within_its_memory_budget(tmp_path):
    # 3 steps at n = 32 peak at 3.93 states with the start released after
    # the first step and 6.05 at a job that holds the start and every stage
    n = 32
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[grid]\nn = {n}\n[run]\ndt = 0.002\nt_final = 0.006\n")
    peak = job_peak(["abi-run", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"])
    assert peak / (10 * n ** 3 * 8) <= 4.5


def test_mollify_job_memory_does_not_grow_with_the_schedule(tmp_path):
    # each width is written as it is computed, so six widths peak at about
    # what one does
    data = tmp_path / "data.txt"
    data.write_text("atoms 2\n0.5 0.5 0.5 1.0\n0.2 0.3 0.4 0.5 0.1 0.0 0.2\n")

    def peak(schedule):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[grid]\nn = 16\n[mollify]\ndata = {data}\n"
                       f"eps_schedule = {schedule}\n")
        return job_peak(["mollify", "--config", str(cfg), "--out",
                         str(tmp_path / "o"), "--quiet"])

    assert peak("0.2 0.15 0.1 0.08 0.06 0.05") <= 1.2 * peak("0.2")


@pytest.mark.parametrize("sub, keys", [
    ("dmhd-run", "[grid]\nn = 8\n[run]\ndt = 1e-12\nt_final = 1.0\n"),
    ("identity-check", "[grid]\nn = 12\n[identity]\nsteps = 1000000000000\n"),
    ("galerkin-run", "[grid]\nn = 8\n[galerkin]\nN = 1000000000\n"),
    ("galerkin-run", "[grid]\nn = 16\n[galerkin]\nT = 40\npicard = false\n"),
    ("galerkin-run", "[grid]\nn = 16\n[galerkin]\nT = 40\npicard = true\n"),
    ("certify", "[grid]\nn = 16\n[run]\nt_final = 20\nsave_every = 1\n")],
    ids=["steps", "identity-steps", "basis", "mol-states", "picard-states",
         "certify-saves"])
def test_runs_past_memory_exit_2_before_building(tmp_path, sub, keys):
    # 10^12 stops (346 TB of stops and rows) and a basis of 10^9
    # wavevectors (a 28.7 GiB enumeration) once ended in a MemoryError;
    # 2 x 10^5 Galerkin steps keep 69 MB of stops and rows, which fit, but
    # 26 GB of states, and 1.35 x 10^5 certify saves of 34 fields 151 GB,
    # which once started stepping
    child = textwrap.dedent("""
        import json, sys, time
        from abimhd.cli import main
        t0 = time.perf_counter()
        code = main(sys.argv[1:])
        print(json.dumps({"code": code,
                          "seconds": time.perf_counter() - t0}))
    """)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys)
    src = str(Path(abimhd.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = 3 << 29      # 1.5 GiB of address space

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-c", child, sub, "--config", str(cfg), "--out",
         str(tmp_path / "o"), "--quiet"],
        capture_output=True, text=True, timeout=120, env=env,
        preexec_fn=limit)
    assert proc.stdout, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 2, proc.stderr
    assert report["seconds"] < 1.0
    assert "config error: " in proc.stderr
