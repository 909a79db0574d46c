"""abimhd benchmark: run one workload for a fixed time and report metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: dmhd_n32, abi_n48, certify_n16, galerkin_n16 (see workloads.py
and bench/README.md). The run builds its inputs from the seed, repeats the
workload's CLI jobs in-process through ``abimhd.cli.main`` for S seconds,
checks every output and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
ok_frac). ``--trace 1`` alternates untraced and traced iterations, checks
that their outputs are byte-identical, and reports the per-layer metrics
and the tracing overhead; it writes the spans to
``.bench_work/trace-<workload>-seed<N>.jsonl``.

The program is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0
RHS_REPEATS = 8


def cap_blas_threads() -> None:
    """Pin BLAS threads; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread cap")
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)


def environment() -> dict:
    """Versions, processors, thread caps and caches of this run."""
    import numpy
    import scipy

    def blas(cfg: dict) -> str:
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "ABIMHD_THREADS": os.environ.get("ABIMHD_THREADS"),
        "caches": cpu_caches(),
        "notes": [
            "BLAS threads are capped in the environment before numpy loads",
            "ABIMHD_THREADS only sets BLAS variables: numpy's pocketfft "
            "ignores it, and set after numpy loads (abimhd.cli.main called "
            "in-process) it has no effect",
            "one (3, 48, 48, 48) float64 field is 2.65 MB and the working "
            "arrays fit in L3, so no memory-bandwidth figure is claimed",
        ],
    }


def cpu_caches() -> list[str]:
    """Cache levels as '<level> <type> <size> x <instances>' from sysfs."""
    seen: dict[tuple[str, str, str], set[str]] = {}
    for index in sorted(Path("/sys/devices/system/cpu").glob(
            "cpu[0-9]*/cache/index[0-9]*")):
        try:
            key = tuple((index / f).read_text().strip()
                        for f in ("level", "type", "size"))
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        seen.setdefault(key, set()).add(shared)
    return [f"L{lvl} {typ} {size} x {len(inst)}"
            for (lvl, typ, size), inst in sorted(seen.items())]


def tree_digest(path: Path) -> dict[str, str]:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


class Runner:
    """Runs iterations of one workload's jobs and accounts for failures."""

    def __init__(self, workload, seed: int, work: Path):
        from abimhd.cli import main as cli_main

        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.work = work
        self.jobs = workload.jobs(seed)
        self.cfg = {}
        for job in self.jobs:
            self.cfg[job.tag] = work / f"{job.tag}.cfg"
            self.cfg[job.tag].write_text(job.config)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first_digest: dict[str, str] | None = None
        self._first_errors: list[str] = []

    def iterate(self, k: int, tracer=None, extra_check=None) -> float:
        """One pass over the job list; returns its wall time in seconds."""
        out = self.work / f"it{k}"
        dirs, codes = {}, {}
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            for job in self.jobs:
                dirs[job.tag] = out / job.tag
                argv = job.argv(self.cfg[job.tag], dirs[job.tag], self.seed)
                span = tracer.open("cli.main") if tracer is not None else None
                try:
                    codes[job.tag] = self.cli_main(argv)
                except Exception:
                    traceback.print_exc()
                    codes[job.tag] = None
                finally:
                    if span is not None:
                        tracer.close(span)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        errs = [f"{tag}: exit status {c}" for tag, c in codes.items() if c != 0]
        if not errs:
            errs = self._check(out, dirs)
        if extra_check is not None:
            errs += extra_check()
        self.attempted += len(self.jobs)
        if errs:
            # a failed job is counted once and never retried
            self.failed += len(self.jobs)
            self.errors += [f"iteration {k}: {e}" for e in errs]
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def _check(self, out: Path, dirs: dict[str, Path]) -> list[str]:
        digest = tree_digest(out)
        if self._first_digest is not None:
            if digest != self._first_digest:
                return ["outputs differ from the first iteration's"]
            return list(self._first_errors)
        try:
            errs = (self.workload.check(self.seed, dirs)
                    + reference_errors(self.workload, self.seed, dirs))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errs = [f"outputs could not be checked: {exc!r}"]
        self._first_digest = digest
        self._first_errors = errs
        return errs


def reference_errors(workload, seed: int, dirs) -> list[str]:
    """Compare against the outputs stored for the reference seed."""
    from workloads import REFERENCE_SEED

    if seed != REFERENCE_SEED:
        return []
    ref = json.loads((REFERENCE / f"{workload.name}.json").read_text())
    if ref["configs"] != [job.config for job in workload.jobs(seed)]:
        return [f"{workload.name}: reference was made for other job configs"]
    return workload.check_reference(workload.digest(dirs), ref["digest"])


def measure_setup(runner: Runner, repeats: int) -> list[float]:
    """Interpreter start to first solver call of the first job, per probe."""
    job = runner.jobs[0]
    times = []
    for k in range(repeats):
        out = runner.work / f"setup{k}"
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
               *job.argv(runner.cfg[job.tag], out, runner.seed)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        shutil.rmtree(out, ignore_errors=True)
    return times


def run_untraced(runner: Runner, seconds: float) -> dict[str, float]:
    setup = measure_setup(runner, SETUP_REPEATS)
    walls = []
    t_start = time.perf_counter()
    # stop before an iteration that would be expected to overrun the time
    while not walls or (time.perf_counter() - t_start
                        + statistics.median(walls) <= seconds):
        walls.append(runner.iterate(len(walls)))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"iterations: {len(walls)}; wall_s samples "
          + " ".join(f"{w:.4f}" for w in walls)
          + "; setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }


def _signature(spans) -> dict:
    sig: dict[str, list] = {}
    for sp in spans:
        entry = sig.setdefault(sp.name, [0, 0])
        entry[0] += 1
        if sp.work:
            entry[1] += sum(sp.work.values())
    return sig


def initial_state(workload, seed: int):
    """The workload's seeded initial state as a solver state object."""
    from abimhd.fields import GridSpec, ScalarField, VectorField3
    from workloads import scenario_pair

    h0, B0 = scenario_pair(workload.n, seed)
    g = GridSpec(workload.n)
    h, B = ScalarField(g, h0), VectorField3(g, B0)
    if workload.rhs_layer == "dmhd":
        from abimhd.dmhd import DmhdState
        return DmhdState(h, B)
    from abimhd.abi import AbiState
    zero = VectorField3.zero(g)
    return AbiState(h, B, zero, zero)


def rhs_probe(kind: str, state):
    """Trace repeated calls of the public `<kind>_rhs` on `state`."""
    from tracing import Tracer

    probe = Tracer()
    with probe:
        rhs = getattr(importlib.import_module(f"abimhd.{kind}"), f"{kind}_rhs")
        for _ in range(RHS_REPEATS):
            rhs(state)
    return probe


def run_traced(runner: Runner, seconds: float, trace_path: Path
               ) -> dict[str, float]:
    from metrics import layer_metrics
    from tracing import Tracer

    tracer = Tracer()
    walls = {False: [], True: []}
    first_sig: list[dict] = []
    t_start = time.perf_counter()
    k = 0
    while (not walls[True] or not walls[False]
           or time.perf_counter() - t_start < seconds):
        traced = k % 2 == 1
        mark = len(tracer.spans)

        def same_counts() -> list[str]:
            sig = _signature(tracer.spans[mark:])
            if not first_sig:
                first_sig.append(sig)
            return [] if sig == first_sig[0] else [
                "traced span counts differ between iterations"]

        if traced:
            walls[True].append(runner.iterate(k, tracer, same_counts))
        else:
            walls[False].append(runner.iterate(k))
        k += 1
    kind = runner.workload.rhs_layer
    probes = {} if kind is None else {
        kind: rhs_probe(kind, initial_state(runner.workload, runner.seed))}
    tracer.write(trace_path)
    print(f"iterations: {len(walls[False])} untraced, {len(walls[True])} "
          f"traced; spans written to {trace_path.name}")
    return layer_metrics(tracer, len(walls[True]), walls[True], walls[False],
                         probes)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("dmhd_n32", "abi_n48", "certify_n16",
                            "galerkin_n16"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "abimhd" / "__init__.py").is_file():
        print(f"no abimhd sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import abimhd
    if Path(abimhd.__file__).resolve().parent != (SRC / "abimhd").resolve():
        print(f"abimhd imported from {abimhd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from metrics import report
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print("environment: " + json.dumps(environment()))
    print(f"workload {workload.name}: {workload.why}")
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(workload, args.seed, work)
        if args.trace:
            trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.jsonl"
            values = run_traced(runner, args.seconds, trace_path)
        else:
            values = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in runner.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": report(values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
