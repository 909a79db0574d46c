"""numpy is the one numerical backend at runtime.

Each test starts fresh interpreters, so that neither the modules pytest has
already imported nor a BLAS pool it has already started can hide a
difference; the five processes below are all this file starts.
"""

import os
import subprocess
import sys
from pathlib import Path

import abimhd

SRC = str(Path(abimhd.__file__).resolve().parents[1])

GALERKIN = ("[scenario]\nname = random_smooth\n[grid]\nn = {n}\n"
            "[galerkin]\nN = {N}\nT = 0.0004\npicard = {picard}\n"
            "sigma = 0.0004\n")
DMHD = ("[scenario]\nname = random_smooth\n[grid]\nn = 16\n"
        "[run]\nt_final = 0.0005\n")
CERTIFY = ("[scenario]\nname = random_smooth\n[grid]\nn = 8\n"
           "[run]\nt_final = 0.002\n[certify]\nrandom_frames = 2\n")


def run_jobs(tmp_path, tag, jobs, blas_threads=None):
    """Run `jobs` ((subcommand, config text) pairs) through `cli.main` in one
    fresh interpreter; returns its stdout and the output directories."""
    outs, calls = [], []
    for i, (sub, text) in enumerate(jobs):
        cfg = tmp_path / f"{tag}-{i}.cfg"
        cfg.write_text(text)
        outs.append(tmp_path / f"{tag}-{i}")
        calls.append([sub, "--config", str(cfg), "--out", str(outs[-1]),
                      "--seed", "11", "--quiet"])
    script = ("import sys\nfrom abimhd.cli import main\n"
              f"for argv in {calls!r}:\n"
              "    assert main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy'))\n")
    env = {k: v for k, v in os.environ.items() if k != "ABIMHD_THREADS"}
    env["PYTHONPATH"] = SRC
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, outs


def test_galerkin_run_imports_no_scipy(tmp_path):
    stdout, _ = run_jobs(tmp_path, "run", [
        ("galerkin-run", GALERKIN.format(n=8, N=7, picard=mode))
        for mode in ("false", "true")])
    assert stdout.strip() == "[]"


def test_outputs_identical_across_blas_threads(tmp_path):
    jobs = [("dmhd-run", DMHD),
            ("galerkin-run", GALERKIN.format(n=16, N=33, picard="false"))]
    files = []
    for threads in (1, 2):
        _, outs = run_jobs(tmp_path, f"t{threads}", jobs, threads)
        files.append([{p.name: p.read_bytes() for p in sorted(out.iterdir())}
                      for out in outs])
    assert [len(f) for f in files[0]] == [4, 4]   # manifest and three outputs
    assert files[0] == files[1]


def test_certificate_identical_across_blas_threads(tmp_path):
    # r0's eigensolves run in LAPACK, whose threaded paths must not move a bit
    files = []
    for threads in (1, 2):
        _, (out,) = run_jobs(tmp_path, f"t{threads}", [("certify", CERTIFY)],
                             threads)
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(files[0]) == 5   # manifest, summary and three family reports
    assert files[0] == files[1]
