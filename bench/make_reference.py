"""Write the reference outputs that run.py compares against.

Usage, from the repository root:

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload's jobs once at full size on ``workloads.REFERENCE_SEED``,
checks the outputs, and stores the job configs and a digest of the outputs
(final snapshots, Galerkin coefficients, certified r0 values) in
``bench/reference/<workload>.json``. Only rerun it when the workload
definitions change; a reference made from changed program outputs would hide
the change it exists to catch.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def run_once(workload, seed: int, work: Path) -> dict[str, Path]:
    """Run the workload's jobs once into `work`; return their output dirs."""
    from abimhd.cli import main as cli_main

    dirs = {}
    for job in workload.jobs(seed):
        cfg = work / f"{job.tag}.cfg"
        cfg.write_text(job.config)
        dirs[job.tag] = work / job.tag
        code = cli_main(job.argv(cfg, dirs[job.tag], seed))
        if code != 0:
            raise RuntimeError(f"{workload.name} {job.tag}: exit status {code}")
    return dirs


def reference(workload, seed: int, work: Path) -> dict:
    dirs = run_once(workload, seed, work)
    errs = workload.check(seed, dirs)
    if errs:
        raise RuntimeError(f"{workload.name}: " + "; ".join(errs))
    return {"seed": seed,
            "configs": [job.config for job in workload.jobs(seed)],
            "digest": workload.digest(dirs)}


def main(names: list[str]) -> int:
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import REFERENCE_SEED, WORKLOADS

    run.REFERENCE.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        work = run.WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        try:
            ref = reference(WORKLOADS[name], REFERENCE_SEED, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = run.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
