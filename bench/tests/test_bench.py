"""Self-test of the benchmark: tiny workloads, failing checks, metric names.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import copy
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import make_reference
import metrics
import run
from tracing import Tracer
from workloads import TINY, WORKLOADS, read_csv

SEED = 3
COUNT_METRICS = [m[0] for m in metrics.PER_LAYER if m[1] == "count"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Outputs of one clean run of every tiny workload."""
    return {name: make_reference.run_once(w, SEED,
                                          tmp_path_factory.mktemp(name))
            for name, w in TINY.items()}


def copy_outputs(dirs: dict[str, Path], dest: Path) -> dict[str, Path]:
    out = {}
    for tag, d in dirs.items():
        out[tag] = dest / tag
        shutil.copytree(d, out[tag])
    return out


def edit_csv(path: Path, column: str, row: int, change) -> None:
    header, *body = path.read_text().splitlines()
    cells = body[row].split(",")
    j = header.split(",").index(column)
    cells[j] = repr(change(float(cells[j])))
    body[row] = ",".join(cells)
    path.write_text("\n".join([header, *body]) + "\n")


def edit_snapshot(path: Path, comp: int, index: int, delta: float) -> None:
    raw = bytearray(path.read_bytes())
    n = struct.unpack("<I", raw[5:9])[0]
    at = 19 + 8 * (comp * n ** 3 + index)
    (val,) = struct.unpack("<d", raw[at:at + 8])
    raw[at:at + 8] = struct.pack("<d", val + delta)
    path.write_bytes(bytes(raw))


def edit_coefficients(path: Path, index: int, delta: float) -> None:
    raw = bytearray(path.read_bytes())
    at = 8 + 8 * index
    (val,) = struct.unpack("<d", raw[at:at + 8])
    raw[at:at + 8] = struct.pack("<d", val + delta)
    path.write_bytes(bytes(raw))


def test_benchmark_json_matches_catalogue():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [[m["name"], m["unit"], m["better"], m["bound"]]
            for m in spec["end_to_end"]] == [list(m) for m in metrics.END_TO_END]
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] \
        == [list(m) for m in metrics.PER_LAYER]
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", list(TINY))
def test_clean_outputs_pass(outputs, name):
    assert TINY[name].check(SEED, outputs[name]) == []


MUTATIONS = [
    ("dmhd_n32", "energy increased",
     lambda d: edit_csv(d["dmhd"] / "dmhd_diagnostics.csv", "energy", -1,
                        lambda v: v + 1e-2)),
    ("dmhd_n32", "energy-identity residual",
     lambda d: edit_csv(d["dmhd"] / "dmhd_diagnostics.csv", "dissipation", 1,
                        lambda v: 2 * v + 1.0)),
    ("dmhd_n32", "diagnosed div B",
     lambda d: edit_csv(d["dmhd"] / "dmhd_diagnostics.csv", "div_B", 1,
                        lambda v: 1e-6)),
    ("dmhd_n32", "div B of the final snapshot",
     lambda d: edit_snapshot(d["dmhd"] / "dmhd_final.abim", 1, 5, 1e-3)),
    ("dmhd_n32", "differs from the seeded inputs",
     lambda d: edit_snapshot(d["dmhd"] / "dmhd_initial.abim", 0, 5, 1e-12)),
    ("dmhd_n32", "horizon",
     lambda d: edit_csv(d["dmhd"] / "dmhd_diagnostics.csv", "t", -1,
                        lambda v: 2.0 * v)),
    ("abi_n48", "relative entropy drift",
     lambda d: edit_csv(d["abi"] / "abi_diagnostics.csv", "entropy", -1,
                        lambda v: v * (1 + 1e-5))),
    ("abi_n48", "diagnosed div_D",
     lambda d: edit_csv(d["abi"] / "abi_diagnostics.csv", "div_D", 1,
                        lambda v: 1e-6)),
    ("abi_n48", "div D of the final snapshot",
     lambda d: edit_snapshot(d["abi"] / "abi_final.abim", 5, 7, 1e-3)),
    ("certify_n16", "max slack",
     lambda d: edit_csv(d["certify"] / "certify_summary.csv", "max_slack", 0,
                        lambda v: 1.0)),
    ("certify_n16", "r0 values",
     lambda d: edit_csv(d["certify"] / "certify_summary.csv", "r0", 0,
                        lambda v: -1.0)),
    ("certify_n16", "does not start at zero",
     lambda d: edit_csv(d["certify"] / "entropy_report_solution.csv", "slack",
                        0, lambda v: 1e-3)),
    ("galerkin_n16", "Lambda_n increased",
     lambda d: edit_csv(d["picard"] / "galerkin_diagnostics.csv", "lambda_n",
                        1, lambda v: v + 1e-6)),
    ("galerkin_n16", "Picard vs MoL gap",
     lambda d: edit_coefficients(d["mol"] / "galerkin_coefficients.bin", 3,
                                 1e-3)),
]


@pytest.mark.parametrize("name,expect,mutate", MUTATIONS,
                         ids=[f"{m[0]}-{m[1]}" for m in MUTATIONS])
def test_perturbed_output_fails(outputs, tmp_path, name, expect, mutate):
    dirs = copy_outputs(outputs[name], tmp_path)
    mutate(dirs)
    errs = TINY[name].check(SEED, dirs)
    assert any(expect in e for e in errs), errs


@pytest.mark.parametrize("name", list(TINY))
def test_reference_comparison(outputs, name):
    w = TINY[name]
    digest = w.digest(outputs[name])
    assert w.check_reference(digest, json.loads(json.dumps(digest))) == []
    bad = copy.deepcopy(digest)
    key = next(iter(bad))
    if isinstance(bad[key], list):
        bad[key][0] += 1e-6
    else:
        bad[key]["samples"][0][0] += 1e-6
    assert w.check_reference(digest, bad)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_stored_reference_matches_workload(name):
    from workloads import REFERENCE_SEED

    ref = json.loads((run.REFERENCE / f"{name}.json").read_text())
    assert ref["seed"] == REFERENCE_SEED
    assert ref["configs"] == [j.config for j in
                              WORKLOADS[name].jobs(REFERENCE_SEED)]


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run(tmp_path, name):
    runner = run.Runner(TINY[name], SEED, tmp_path)
    values = run.run_untraced(runner, 0.0)
    assert list(values) == [m[0] for m in metrics.END_TO_END]
    assert runner.failed == 0, runner.errors
    assert values["ok_frac"] == 1.0
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run(tmp_path, name):
    runner = run.Runner(TINY[name], SEED, tmp_path)
    values = run.run_traced(runner, 0.0, tmp_path / "trace.jsonl")
    assert list(values) == [m[0] for m in metrics.PER_LAYER]
    # includes the byte-identity of traced and untraced outputs
    assert runner.failed == 0, runner.errors
    assert (tmp_path / "trace.jsonl").stat().st_size > 0


@pytest.mark.parametrize("name", ["dmhd_n32", "certify_n16", "galerkin_n16"])
def test_traced_counts_repeat_exactly(tmp_path, name):
    counts = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        values = run.run_traced(run.Runner(TINY[name], SEED, work), 0.0,
                                work / "trace.jsonl")
        counts.append({m: values[m] for m in COUNT_METRICS})
    assert counts[0] == counts[1]


def test_roadmap_hand_counts(tmp_path):
    """Transforms per RHS and per diagnostics step of the program as it was
    when the benchmark was added (ROADMAP baseline); a change to the
    program's transform counts moves these on purpose."""
    got = {}
    for name in ("dmhd_n32", "abi_n48"):
        work = tmp_path / name
        work.mkdir()
        values = run.run_traced(run.Runner(TINY[name], SEED, work), 0.0,
                                work / "trace.jsonl")
        prefix = TINY[name].rhs_layer
        got.update({k: v for k, v in values.items() if k.startswith(prefix)})
    assert got["dmhd.rhs_transforms"] == 76
    assert got["dmhd.diag_transforms_per_step"] == 48
    assert got["abi.rhs_transforms"] == 64
    assert got["abi.diag_transforms_per_step"] == 8


@pytest.mark.parametrize("name", ["dmhd_n32", "abi_n48"])
def test_traced_transforms_match_numpy_tally(monkeypatch, name):
    """The tracer's transform count equals a count taken at numpy.fft."""
    tally = []
    layer = TINY[name].rhs_layer
    state = run.initial_state(TINY[name], SEED)
    for fn in ("rfftn", "irfftn"):
        orig = getattr(np.fft, fn)

        def counted(a, *args, _orig=orig, **kwargs):
            tally.append(int(np.prod(np.shape(a)[:-3])))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, fn, counted)
    values = metrics.rhs_metrics(layer, run.rhs_probe(layer, state))
    assert values[f"{layer}.rhs_transforms"] * run.RHS_REPEATS == sum(tally)


def test_tracer_restores_every_binding():
    import abimhd.dmhd
    import abimhd.entropy
    import abimhd.fields

    before = (abimhd.dmhd.dmhd_step, abimhd.entropy.jacobi_eigenvalues,
              abimhd.fields.GridSpec.fft, abimhd.dmhd.rk4_step)
    with Tracer():
        assert abimhd.dmhd.dmhd_step is not before[0]
        assert abimhd.entropy.jacobi_eigenvalues is not before[1]
    after = (abimhd.dmhd.dmhd_step, abimhd.entropy.jacobi_eigenvalues,
             abimhd.fields.GridSpec.fft, abimhd.dmhd.rk4_step)
    assert after == before


def test_failed_job_counted_once_and_not_retried(tmp_path):
    runner = run.Runner(TINY["dmhd_n32"], SEED, tmp_path)
    runner.cfg["dmhd"].write_text("[grid]\nn = 7\n")
    calls = []
    inner = runner.cli_main
    runner.cli_main = lambda argv: calls.append(argv) or inner(argv)
    runner.iterate(0)
    assert (runner.attempted, runner.failed, len(calls)) == (1, 1, 1)
    assert "exit status 2" in runner.errors[0]


def test_missing_output_counts_as_failure(tmp_path):
    runner = run.Runner(TINY["dmhd_n32"], SEED, tmp_path)
    inner = runner.cli_main

    def lose_csv(argv):
        code = inner(argv)
        out = Path(argv[argv.index("--out") + 1])
        (out / "dmhd_diagnostics.csv").unlink()
        return code

    runner.cli_main = lose_csv
    runner.iterate(0)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "could not be checked" in runner.errors[0]


def test_environment_record():
    env = run.environment()
    for key in ("numpy", "scipy", "numpy_blas", "scipy_blas", "nproc",
                "blas_threads", "caches"):
        assert env[key]
    assert run.BLAS_THREADS <= env["nproc"]
    assert any("ABIMHD_THREADS" in note for note in env["notes"])


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dmhd_n32", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_csv_reader_skips_footer(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b\n1,2\n3,4\n# note=1\n")
    assert read_csv(p)["b"].tolist() == [2.0, 4.0]
