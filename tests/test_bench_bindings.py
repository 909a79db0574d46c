"""The names the benchmark harness binds must exist in the package.

bench/tracing.py wraps the functions and methods in its TARGETS list, and
bench/setup_probe.py stubs the solver entry points in SOLVERS, by module
attribute. A rename in the package would break the benchmark without
failing any other test, so the lists are checked here; nothing under bench/
is changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from abimhd import abi, dmhd, galerkin, stepping
from abimhd.fields import GridSpec, VectorField3
from conftest import single_mode_pair

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def resolve(module, qualified):
    obj = importlib.import_module(module)
    owner_name, _, attr = qualified.rpartition(".")
    if owner_name:
        obj = getattr(obj, owner_name)
        assert attr in vars(obj), f"{module}.{qualified} is not defined there"
    return getattr(obj, attr)


@pytest.mark.parametrize(
    "module,qualified",
    [(f"abimhd.{m}", q) for m, q, _ in load_bench_module("tracing").TARGETS]
    + [pair for pairs in load_bench_module("setup_probe").SOLVERS.values()
       for pair in pairs])
def test_bench_target_resolves(module, qualified):
    assert callable(resolve(module, qualified))


def test_solvers_bind_the_shared_rk4_step():
    assert dmhd.rk4_step is stepping.rk4_step
    assert galerkin.rk4_step is stepping.rk4_step


def test_runs_step_through_module_globals(monkeypatch):
    # the tracer wraps these bindings after import, so each run must look
    # them up when it is called
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((abi, "abi_step"), (abi, "abi_entropy"),
                        (dmhd, "dmhd_step"), (dmhd, "dissipation"),
                        (galerkin, "rk4_step"), (galerkin, "_k_operator"),
                        (galerkin, "transport"),
                        (galerkin.TrigBasis, "eval_jacobian")):
        counted(owner, name)
    grid = GridSpec(8)
    h0, B0 = single_mode_pair(grid)
    zero = VectorField3.zero(grid)
    abi.abi_run(abi.AbiState(h0, B0, zero, zero), 1e-4, 2)
    dmhd.dmhd_run(dmhd.DmhdState(h0, B0), 1e-6, 2)
    galerkin.galerkin_run(h0, B0, zero, zero, galerkin.GalerkinConfig(
        N=2, eps=0.5, l=1, dt=1e-4, T=2e-4))
    assert sorted(name for name, _ in calls) == sorted(
        ["abi_step"] * 2 + ["abi_entropy"] * 3 + ["dmhd_step"] * 2
        + ["dissipation"] * 3 + ["rk4_step"] * 2)

    # a Picard sweep transports (h, B) to each of its 2 quadrature times
    # after t = 0; the t = 0 node is the accepted start, never transported
    del calls[:]
    galerkin.picard_iterate(h0, B0, zero, zero, galerkin.GalerkinConfig(
        N=2, eps=0.5, l=1, dt=1e-4, T=2e-4, picard=True, sigma=2e-4))
    names = [name for name, _ in calls]
    sweeps = names.count("_k_operator")
    starts = [args[4] == 0.0 for name, args in calls if name == "transport"]
    assert sweeps >= 1
    assert starts == [False] * (2 * sweeps)
    assert "eval_jacobian" in names


def test_certify_eigensolves_pinned(tmp_path, monkeypatch):
    """Matrices that reach the eigensolver in one certify_n16 job, counted
    where the bench tracer counts them. Eigensolving every grid point of
    its 9 distinct frames took 36,878; the Schur bound leaves a few hundred."""
    from abimhd import _jacobi, entropy
    from abimhd.cli import main

    matrices = []
    original = _jacobi.jacobi_eigenvalues

    def counted(mats):
        matrices.append(len(mats) if np.ndim(mats) == 3 else 1)
        return original(mats)

    for owner in (_jacobi, entropy):
        monkeypatch.setattr(owner, "jacobi_eigenvalues", counted)
    job = load_bench_module("workloads").WORKLOADS["certify_n16"].jobs(0)[0]
    cfg = tmp_path / "certify.cfg"
    cfg.write_text(job.config)
    assert main(job.argv(cfg, tmp_path / "out", 0)) == 0
    assert 0 < sum(matrices) <= 1000
