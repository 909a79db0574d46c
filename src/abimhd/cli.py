"""Batch command-line entry point.

Subcommands: abi-run, dmhd-run, galerkin-run, mollify, compare, certify,
identity-check. Every run validates its configuration before any compute,
writes snapshots and CSV diagnostics under --out, and emits a manifest
(full config echo plus the code version) sufficient to reproduce it.

Exit status: 0 success; 2 configuration error; 3 numerical abort
(positivity loss, step-size rejection, blow-up) with the module diagnostic
on standard error; 4 certificate violation (positive dissipative slack or
identity defect beyond tolerance).

Configuration keys are read here and checked where they are used: grid
sizes by GridSpec, Galerkin parameters by GalerkinConfig, mollifier widths
by mollify. Each handler imports the modules it uses, so a subcommand
starts up without loading the others.
"""

from __future__ import annotations

import argparse
import struct
import sys
from dataclasses import fields
from pathlib import Path

from .config import ConfigError, RunConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VIOLATION = 4


def _write_manifest(out: Path, subcommand: str, cfg: RunConfig, seed: int) -> None:
    from . import __version__
    from .snapshots import write_manifest

    write_manifest(out / "manifest.json", {
        "subcommand": subcommand,
        "seed": seed,
        "version": __version__,
        "config": dict(sorted(cfg.values.items())),
    })


# ----------------------------------------------------------------------
# Scenario initial data.
# ----------------------------------------------------------------------

def _scenario_pair(cfg: RunConfig, grid, rng, default_amp=(0.2, 0.3)):
    """(h0, B0) for the diffusion-side scenarios; B0 is divergence-free."""
    import numpy as np

    from .fields import (
        ScalarField,
        VectorField3,
        random_band_limited,
        random_divergence_free,
    )

    name = cfg.get_str("scenario.name", "single_mode")
    amp_h = cfg.get_float("scenario.amp_h", default_amp[0])
    amp_B = cfg.get_float("scenario.amp_B", default_amp[1])
    if name == "trivial":
        return (ScalarField.constant(grid, 1.0), VectorField3.zero(grid))
    if name == "single_mode":
        h0 = ScalarField.from_function(
            grid, lambda x, y, z: 1.0 + amp_h * np.cos(2 * np.pi * x))
        B0 = VectorField3.from_function(
            grid, lambda x, y, z: (0 * x, amp_B * np.sin(2 * np.pi * x), 0 * x))
    elif name == "random_smooth":
        kmax = cfg.get_int("scenario.kmax", 2, minimum=1)
        base = random_band_limited(grid, rng, kmax, amp_h)
        h0 = ScalarField(grid, 1.0 + base.values)
        B0 = random_divergence_free(grid, rng, kmax, amp_B)
    else:
        raise ConfigError(f"unknown scenario {name!r}")
    if not h0.values.min() > 0.0:
        raise ConfigError(f"scenario.amp_h = {amp_h:g} gives an initial "
                          f"density h with min {h0.values.min():.6g} <= 0")
    return h0, B0


def _abi_initial(cfg: RunConfig, grid, rng):
    import numpy as np

    from .abi import AbiState
    from .fields import VectorField3

    name = cfg.get_str("scenario.name", "consistent_single_mode")
    if name == "consistent_single_mode":
        amp_B = cfg.get_float("scenario.amp_B", 0.3)
        amp_D = cfg.get_float("scenario.amp_D", 0.0)
        B0 = VectorField3.from_function(
            grid, lambda x, y, z: (0 * x, amp_B * np.sin(2 * np.pi * x), 0 * x))
        D0 = VectorField3.from_function(
            grid, lambda x, y, z: (0 * x, 0 * x, amp_D * np.sin(2 * np.pi * y)))
        return AbiState.consistent(B0, D0)
    h0, B0 = _scenario_pair(cfg, grid, rng)
    zero = VectorField3.zero(grid)
    return AbiState(h0, B0, zero, zero)


# ----------------------------------------------------------------------
# Subcommand handlers. Each returns a process exit status.
# ----------------------------------------------------------------------

def _cmd_abi_run(cfg: RunConfig, out: Path, rng, quiet: bool) -> int:
    from .abi import abi_cfl_dt, abi_run
    from .fields import GridSpec
    from .snapshots import write_csv, write_snapshot

    def write_state(tag, s):
        write_snapshot(out / f"abi_{tag}.abim", grid,
                       [s.h.values, *s.B.values, *s.D.values, *s.P.values])

    grid = GridSpec(cfg.get_int("grid.n", 32))
    # the start is handed to the run in a list, which frees it after the
    # first step; nothing else here may hold it
    start = [_abi_initial(cfg, grid, rng)]
    # half the initial bound leaves room for the bound to shrink as the
    # state evolves; the step guard checks every step against its own state
    dt = cfg.get_float("run.dt", 0.5 * abi_cfl_dt(start[0]),
                       exclusive_min=0.0)
    t_final = cfg.get_float("run.t_final", 0.1, exclusive_min=0.0)
    n_steps = max(1, int(round(t_final / dt)))

    # only the initial and final states are written
    write_state("initial", start[0])
    traj = abi_run(start, dt, n_steps, save_every=n_steps)
    write_csv(out / "abi_diagnostics.csv", traj.DIAG_HEADER, traj.diagnostics)
    write_state("final", traj.states[-1])
    if not quiet:
        row = traj.diagnostics[-1]
        print(f"abi-run: {n_steps} steps to t={row[0]:g}; entropy {row[1]:.12g}; "
              f"constraint sups {row[2]:.3e} {row[3]:.3e}")
    return EXIT_OK


def _cmd_dmhd_run(cfg: RunConfig, out: Path, rng, quiet: bool) -> int:
    from .dmhd import DmhdState, dmhd_cfl_dt, dmhd_run
    from .fields import GridSpec
    from .snapshots import write_csv, write_snapshot

    def write_state(tag, s):
        write_snapshot(out / f"dmhd_{tag}.abim", grid,
                       [s.h.values, *s.B.values])

    grid = GridSpec(cfg.get_int("grid.n", 32))
    # handed over as in abi-run: the run frees the start, and its cached
    # (D, P), after the first step
    start = [DmhdState(*_scenario_pair(cfg, grid, rng))]
    dt = cfg.get_float("run.dt", dmhd_cfl_dt(start[0]), exclusive_min=0.0)
    t_final = cfg.get_float("run.t_final", 0.01, exclusive_min=0.0)
    n_steps = max(1, int(round(t_final / dt)))

    # only the initial and final states are written
    write_state("initial", start[0])
    traj = dmhd_run(start, dt, n_steps, save_every=n_steps)
    write_csv(out / "dmhd_diagnostics.csv", traj.DIAG_HEADER, traj.diagnostics)
    write_state("final", traj.states[-1])
    if not quiet:
        e = traj.energies()
        print(f"dmhd-run: {n_steps} steps; energy {e[0]:.12g} -> {e[-1]:.12g}")
    return EXIT_OK


def _cmd_galerkin_run(cfg: RunConfig, out: Path, rng, quiet: bool) -> int:
    import numpy as np

    from .fields import GridSpec, VectorField3
    from .galerkin import GalerkinConfig, galerkin_run, picard_iterate
    from .snapshots import write_csv, write_snapshot

    getter = {bool: cfg.get_bool, int: cfg.get_int, float: cfg.get_float}
    gcfg = GalerkinConfig(**{
        f.name: getter[type(f.default)](f"galerkin.{f.name}", f.default)
        for f in fields(GalerkinConfig)})
    grid = GridSpec(cfg.get_int("grid.n", 16))
    h0, B0 = _scenario_pair(cfg, grid, rng)
    zero = VectorField3.zero(grid)
    driver = picard_iterate if gcfg.picard else galerkin_run
    traj = driver(h0, B0, zero, zero, gcfg)
    write_csv(out / "galerkin_diagnostics.csv", traj.DIAG_HEADER,
              traj.diagnostics)
    final = traj.states[-1]
    write_snapshot(out / "galerkin_final.abim", grid,
                   [final.h.values, *final.B.values])
    coeffs = np.concatenate([final.d_coeffs.ravel(), final.v_coeffs.ravel()])
    with open(out / "galerkin_coefficients.bin", "wb") as fh:
        fh.write(struct.pack("<Q", coeffs.size))
        fh.write(coeffs.astype("<f8").tobytes())
    if not quiet:
        lam = traj.lambda_series()
        print(f"galerkin-run: mode={'picard' if gcfg.picard else 'mol'} "
              f"lambda {lam[0]:.10g} -> {lam[-1]:.10g}")
    return EXIT_OK


def _cmd_mollify(cfg: RunConfig, out: Path, rng, quiet: bool) -> int:
    from .fields import GridSpec
    from .mollify import RoughInitialData, lambda_monotonicity_check
    from .snapshots import format_float, write_csv, write_snapshot

    grid = GridSpec(cfg.get_int("grid.n", 32))
    data_path = cfg.get_str("mollify.data")
    text = Path(data_path).read_text()
    data = RoughInitialData.parse(text, grid, Path(data_path).parent)
    schedule = cfg.get_float_list("mollify.eps_schedule", [0.2, 0.1, 0.05])

    def write_width(eps, h_eps, B_eps):
        write_snapshot(out / f"mollified_eps{eps:g}.abim", grid,
                       [h_eps.values, *B_eps.values])

    report = lambda_monotonicity_check(data, schedule, write_width)
    footer = ()
    if report.reference is not None:
        footer = (f"# reference_lambda={format_float(report.reference)}",)
    write_csv(out / "lambda_monotonicity.csv", ("eps", "lambda"),
              zip(report.eps_schedule, report.lambda_values), footer)
    if not quiet:
        print("mollify: lambda values "
              + " ".join(f"{v:.10g}" for v in report.lambda_values))
    return EXIT_OK


def _cmd_compare(cfg: RunConfig, out: Path, rng, quiet: bool) -> int:
    import numpy as np

    from .compare import error_curves, fit_rate, run_sampled
    from .fields import GridSpec

    grid = GridSpec(cfg.get_int("grid.n", 32))
    # the bundled single-mode amplitudes put the fitted slopes inside the
    # t^3 / t^4 acceptance bands at n = 32 over t in [0.01, 0.1]
    h0, B0 = _scenario_pair(cfg, grid, rng, default_amp=(0.45, 0.9))
    t_min = cfg.get_float("compare.t_min", 0.01, exclusive_min=0.0)
    t_max = cfg.get_float("compare.t_max", 0.1, exclusive_min=t_min)
    count = cfg.get_int("compare.samples", 8, minimum=4)
    ts = list(np.geomspace(t_min, t_max, count))
    cfl = cfg.get_float("compare.cfl_fraction", 1.0, exclusive_min=0.0)
    if not cfl <= 1.0:      # a longer step never passes the step guard
        raise ConfigError(f"compare.cfl_fraction must be <= 1, got {cfl:g}")
    abi_traj, dmhd_traj = run_sampled(h0, B0, ts, cfl_fraction=cfl)
    series = error_curves(abi_traj, dmhd_traj)
    slopes = {
        "h": fit_rate(series.times, series.err_h).slope,
        "B": fit_rate(series.times, series.err_B).slope,
        "cum_D": fit_rate(series.times, series.cum_err_D).slope,
        "cum_P": fit_rate(series.times, series.cum_err_P).slope,
    }
    series.write_csv(out / "rate_report.csv", slopes)
    if not quiet:
        print("compare: slopes " + " ".join(f"{k}={v:.3f}"
                                            for k, v in slopes.items()))
    return EXIT_OK


def _certify_frames(traj, rng, extra: int, kmax: int, amp: float):
    from .entropy import frames_from_dmhd, held_frames, random_frame

    families = [("solution", frames_from_dmhd(traj))]
    for j in range(extra):
        base = random_frame(traj.states[0].grid, rng, kmax=kmax, amplitude=amp)
        families.append((f"random{j}", held_frames(base, traj.times)))
    return families


def _cmd_certify(cfg: RunConfig, out: Path, rng, quiet: bool) -> int:
    import numpy as np

    from .dmhd import DmhdState, dmhd_cfl_dt, dmhd_run, energy
    from .entropy import (
        SampleTrajectory,
        dissipative_slack,
        holder_half_quotient,
    )
    from .fields import GridSpec
    from .snapshots import write_csv
    from .stepping import require_memory

    grid = GridSpec(cfg.get_int("grid.n", 16))
    h0, B0 = _scenario_pair(cfg, grid, rng)
    s0 = DmhdState(h0, B0)
    dt = cfg.get_float("run.dt", dmhd_cfl_dt(s0), exclusive_min=0.0)
    t_final = cfg.get_float("run.t_final", 0.01, exclusive_min=0.0)
    n_steps = max(1, int(round(t_final / dt)))
    save_every = cfg.get_int("run.save_every", max(1, n_steps // 16), minimum=1)
    tol_factor = cfg.get_float("certify.tol_factor", 1e-3, exclusive_min=0.0)
    corrupt = cfg.get_float("certify.momentum_offset", 0.0)
    frame_args = (cfg.get_int("certify.random_frames", 0, minimum=0),
                  cfg.get_int("scenario.kmax", 2, minimum=1),
                  cfg.get_float("certify.frame_amp", 0.1))
    # until `del traj` a saved state holds 34 scalar fields: its (h, B), its
    # cached (D, P), its SampleTrajectory row and its solution frame
    saves = -(-n_steps // save_every) + 1
    require_memory(saves * 34 * grid.num_points * 8,
                   f"certify keeps {saves} saved states",
                   "raise run.save_every or shorten run.t_final")

    traj = dmhd_run(s0, dt, n_steps, save_every=save_every)
    sol = SampleTrajectory.from_dmhd(traj)
    if corrupt != 0.0:
        sol = sol.with_momentum_offset(corrupt)
    tol_slack = tol_factor * energy(s0)
    families = _certify_frames(traj, rng, *frame_args)
    del traj    # sol and frames hold copies; frees the cached (D, P) pairs

    rows = []
    for name, frames in families:
        rep = dissipative_slack(sol, frames)
        rep.write_csv(out / f"entropy_report_{name}.csv")
        rows.append((rep.r0, rep.r0, rep.max_slack()))    # r_used is r0
        if not quiet:
            print(f"certify[{name}]: r0={rep.r0:.6g} max slack "
                  f"{rep.max_slack():.3e} (tol {tol_slack:.3e})")
    if not quiet:
        # reported only: the theoretical bound's constant is not computable
        holder = holder_half_quotient(sol)
        print(f"certify: empirical Hoelder-1/2 quotient {holder:.6g}")
    write_csv(out / "certify_summary.csv", ("r_used", "r0", "max_slack"), rows)
    worst = float(np.max([row[2] for row in rows]))     # a nan stays nan
    if not worst <= tol_slack:
        print(f"certificate violated: max slack {worst:.6e} exceeds "
              f"{tol_slack:.6e}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_identity_check(cfg: RunConfig, out: Path, rng, quiet: bool) -> int:
    from .entropy import (
        SampleTrajectory,
        held_frames,
        identity_residual_check,
        random_frame,
    )
    from .fields import GridSpec, random_vector
    from .snapshots import write_csv

    grid = GridSpec(cfg.get_int("grid.n", 16))
    kmax = 2                  # band of the frame and the residuals psi, phi
    if grid.n // 3 < 2 * kmax:            # products pass the 2/3 cutoff
        raise ConfigError(
            f"grid.n = {grid.n} is too coarse for identity-check: its kmax = "
            f"{kmax} products need n // 3 >= {2 * kmax}, so n >= {6 * kmax}")
    h0, B0 = _scenario_pair(cfg, grid, rng)
    dt = cfg.get_float("identity.dt", 5e-6, exclusive_min=0.0)
    n_steps = cfg.get_int("identity.steps", 10, minimum=3)
    amp = cfg.get_float("identity.residual_amp", 0.1)
    frame_amp = cfg.get_float("identity.frame_amp", 0.2)
    rel_tol = cfg.get_float("identity.rel_tol", 1e-3, exclusive_min=0.0)

    psi = random_vector(grid, rng, kmax, amp).values
    varphi = random_vector(grid, rng, kmax, amp).values
    sol = SampleTrajectory.manufactured(h0, B0, dt, n_steps, psi, varphi)
    base = random_frame(grid, rng, kmax=kmax, amplitude=frame_amp)
    chk = identity_residual_check(sol, held_frames(base, sol.times))
    write_csv(out / "identity_check.csv", ("t", "lhs", "rhs"),
              zip(chk.times, chk.lhs, chk.rhs))
    rel = chk.relative_defect()
    if not quiet:
        print(f"identity-check: relative defect {rel:.3e} (tol {rel_tol:g})")
    if not rel <= rel_tol:
        print(f"identity defect {rel:.6e} exceeds tolerance {rel_tol:g}",
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


_HANDLERS = {
    "abi-run": _cmd_abi_run,
    "dmhd-run": _cmd_dmhd_run,
    "galerkin-run": _cmd_galerkin_run,
    "mollify": _cmd_mollify,
    "compare": _cmd_compare,
    "certify": _cmd_certify,
    "identity-check": _cmd_identity_check,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="abimhd",
        description="Spectral simulation and relative-entropy certification "
                    "for the augmented Born-Infeld system and its Darcy-MHD "
                    "diffusion limit.")
    p.add_argument("subcommand", choices=sorted(_HANDLERS))
    p.add_argument("--config", type=Path, default=None,
                   help="key = value configuration file")
    p.add_argument("--out", type=Path, default=Path("."),
                   help="output directory (created if missing)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized scenarios (u64)")
    p.add_argument("--quiet", action="store_true")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig({})
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigError(f"seed must fit in u64, got {args.seed}")
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    import numpy as np

    rng = np.random.default_rng(args.seed)
    try:
        _write_manifest(out, args.subcommand, cfg, args.seed)
        return _HANDLERS[args.subcommand](cfg, out, rng, args.quiet)
    except (ConfigError, OSError, UnicodeDecodeError, OverflowError) as exc:
        # an input file or --out the run cannot read or write; an overflow is
        # a step or node count past the float range, such as t_final / dt
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        from .fields import FieldDataError, PositivityError
        from .stepping import BlowUpError, StepSizeError

        if isinstance(exc, (PositivityError, StepSizeError, BlowUpError)):
            print(f"numerical abort: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        if isinstance(exc, FieldDataError):
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        raise


if __name__ == "__main__":
    sys.exit(main())
