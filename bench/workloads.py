"""The four benchmark workloads: seeded inputs, CLI jobs and output checks.

Every workload is a closed loop with one client: one process runs one
``abimhd`` CLI job at a time, in-process through ``abimhd.cli.main``, and
starts the next only after the previous one returned. One *iteration* is the
workload's job list (one job, or the Picard/method-of-lines pair for
``galerkin_n16``); a run repeats the iteration on identical inputs.

Inputs come only from the seed: the jobs use the ``random_smooth`` scenario
with ``--seed``, and the benchmark regenerates the same initial data through
the public field generators to fix each job's simulated horizon and to
check the program's outputs. Horizons are multiples of step bounds computed
here from the initial data with the formulas of this commit, so they stay
fixed simulated times if a later solver picks a different step.

The checks read the program's output files only and recompute what they
test with plain numpy, independently of the package under test.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# random_smooth scenario parameters, written into every job's config
AMP_H = 0.2
AMP_B = 0.3
KMAX = 2

REFERENCE_SEED = 0

# tolerances; criterion numbers refer to tests/test_acceptance.py
MONOTONE_TOL = 1e-10          # criteria 1 and 10: energy / Lambda_n never rise
IDENTITY_FACTOR = 1e-3        # criterion 1: |energy-identity residual| <= 1e-3 E0
DIV_TOL = 1e-9                # spectral divergence of a div-free field: round-off
ENTROPY_DRIFT_TOL = 1e-6      # criterion 2: relative ABI entropy drift
PICARD_GAP_TOL = 1e-5         # criterion 10: Picard vs method of lines
CERTIFY_TOL_FACTOR = 1e-3     # certify.tol_factor: max slack <= factor * E0
ABI_DT_FRACTION = 0.5         # abi-run dt as a share of the initial CFL bound
REF_FIELD_TOL = 1e-9          # reference snapshots, relative to the sup norm
REF_R0_TOL = 1e-9             # reference r0, absolute (10 x the bisection tol)
HORIZON_TOL = 1e-9            # relative slack on "the run reached its horizon"


@dataclass(frozen=True)
class Job:
    tag: str          # output subdirectory of the iteration
    subcommand: str
    config: str       # config file text

    def argv(self, cfg_path: Path, out: Path, seed: int) -> list[str]:
        return [self.subcommand, "--config", str(cfg_path), "--out", str(out),
                "--seed", str(seed), "--quiet"]


# ----------------------------------------------------------------------
# Inputs regenerated from the seed.
# ----------------------------------------------------------------------

def scenario_pair(n: int, seed: int, kmax: int = KMAX
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(h0, B0) exactly as the CLI's random_smooth scenario builds them."""
    from abimhd.fields import (GridSpec, random_band_limited,
                               random_divergence_free)

    grid = GridSpec(n)
    rng = np.random.default_rng(seed)
    h0 = 1.0 + random_band_limited(grid, rng, kmax, AMP_H).values
    B0 = random_divergence_free(grid, rng, kmax, AMP_B).values
    return h0, B0


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v ** 2).sum(0))


def dmhd_step_bound(h: np.ndarray, B: np.ndarray) -> float:
    """Parabolic bound 0.1 dx^2 min(h)^2 / (1 + max|B|/h)^2 of this commit."""
    dx = 1.0 / h.shape[0]
    return 0.1 * dx ** 2 * h.min() ** 2 / (1.0 + (_norm(B) / h).max()) ** 2


def abi_step_bound(h: np.ndarray, B: np.ndarray) -> float:
    """Advective bound 0.4 dx / (1 + max (|B| + 1)/h) for D = P = 0."""
    dx = 1.0 / h.shape[0]
    return 0.4 * dx / (1.0 + ((_norm(B) + 1.0) / h).max())


def energy(h: np.ndarray, B: np.ndarray) -> float:
    return float((((B ** 2).sum(0) + 1.0) / (2.0 * h)).mean())


def _config(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {float(v)!r}" if isinstance(v, float) else f"{k} = {v}"
                  for k, v in values.items()]
    return "\n".join(lines) + "\n"


def _scenario(kmax: int = KMAX) -> dict[str, object]:
    return {"name": "random_smooth", "amp_h": AMP_H, "amp_B": AMP_B,
            "kmax": kmax}


# ----------------------------------------------------------------------
# Output readers and independent recomputation.
# ----------------------------------------------------------------------

def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) for x in r] for r in body])
    return {name: data[:, j] for j, name in enumerate(header)}


def read_snapshot(path: Path) -> np.ndarray:
    """Components of an .abim snapshot, shape (ncomp, n, n, n)."""
    raw = path.read_bytes()
    if raw[:5] != b"ABIM\x01":
        raise ValueError(f"{path.name}: bad snapshot header")
    n, ny, nz = struct.unpack("<III", raw[5:17])
    (ncomp,) = struct.unpack("<H", raw[17:19])
    vals = np.frombuffer(raw, dtype="<f8", offset=19)
    if vals.size != ncomp * n * ny * nz:
        raise ValueError(f"{path.name}: snapshot size mismatch")
    return vals.reshape(ncomp, n, ny, nz)


def read_coefficients(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    (count,) = struct.unpack("<Q", raw[:8])
    return np.frombuffer(raw, dtype="<f8", offset=8, count=count)


def spectral_div(v: np.ndarray) -> np.ndarray:
    n = v.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    kz = np.fft.rfftfreq(n, d=1.0 / n)
    vh = np.fft.rfftn(v, axes=(-3, -2, -1))
    dh = 2j * np.pi * (k[:, None, None] * vh[0] + k[None, :, None] * vh[1]
                       + kz[None, None, :] * vh[2])
    return np.fft.irfftn(dh, s=v.shape[-3:], axes=(-3, -2, -1))


def _reached(t_last: float, horizon: float, what: str, errs: list[str]) -> None:
    if abs(t_last - horizon) > HORIZON_TOL * horizon:
        errs.append(f"{what}: ended at t={t_last!r}, horizon {horizon!r}")


def _monotone(series: np.ndarray, what: str, errs: list[str]) -> None:
    rise = float(np.diff(series).max(initial=-np.inf))
    if rise > MONOTONE_TOL:
        errs.append(f"{what} increased by {rise:.3e} > {MONOTONE_TOL:g}")


def _bounded(value: float, bound: float, what: str, errs: list[str]) -> None:
    if not value <= bound:     # also catches NaN
        errs.append(f"{what} {value:.3e} exceeds {bound:.3e}")


# ----------------------------------------------------------------------
# Reference digests of full-size outputs for REFERENCE_SEED.
# ----------------------------------------------------------------------

def field_digest(comps: np.ndarray, samples: int = 256) -> dict:
    flat = comps.reshape(comps.shape[0], -1)
    idx = np.linspace(0, flat.shape[1] - 1, samples).astype(int)
    return {"samples": flat[:, idx].tolist(),
            "l2": np.sqrt((flat ** 2).mean(1)).tolist(),
            "mean": flat.mean(1).tolist()}


def compare_digest(got: dict, ref: dict, what: str, errs: list[str]) -> None:
    for key in ("samples", "l2", "mean"):
        a = np.asarray(got[key])
        b = np.asarray(ref[key])
        if a.shape != b.shape:
            errs.append(f"{what}: reference {key} shape {b.shape} != {a.shape}")
            continue
        scale = 1.0 + np.abs(np.asarray(ref["samples"])).max()
        dev = float(np.abs(a - b).max())
        _bounded(dev, REF_FIELD_TOL * scale,
                 f"{what}: {key} deviation from reference", errs)


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------

class Workload:
    name: str
    why: str
    rhs_layer: str | None = None   # solver whose public RHS the trace times

    def jobs(self, seed: int) -> list[Job]:
        raise NotImplementedError

    def check(self, seed: int, dirs: dict[str, Path]) -> list[str]:
        """Failed checks of one iteration's outputs (empty when correct)."""
        raise NotImplementedError

    def digest(self, dirs: dict[str, Path]) -> dict:
        """Values compared against the stored reference outputs."""
        raise NotImplementedError

    def check_reference(self, got: dict, ref: dict) -> list[str]:
        errs: list[str] = []
        for key, val in ref.items():
            compare_digest(got[key], val, f"{self.name} {key}", errs)
        return errs


@dataclass(frozen=True)
class DmhdRun(Workload):
    """dmhd-run with per-step energy/dissipation diagnostics."""

    name: str
    n: int
    steps: int
    why: str = ("dmhd-run at n=32: the transform-bound DMHD solver, 76 "
                "transforms per RHS plus 48 per step of energy/dissipation "
                "diagnostics")
    rhs_layer = "dmhd"

    def horizon(self, seed: int) -> float:
        return self.steps * dmhd_step_bound(*scenario_pair(self.n, seed))

    def jobs(self, seed: int) -> list[Job]:
        cfg = _config({"grid": {"n": self.n}, "scenario": _scenario(),
                       "run": {"t_final": self.horizon(seed)}})
        return [Job("dmhd", "dmhd-run", cfg)]

    def check(self, seed: int, dirs: dict[str, Path]) -> list[str]:
        out = dirs["dmhd"]
        errs: list[str] = []
        h0, B0 = scenario_pair(self.n, seed)
        init = read_snapshot(out / "dmhd_initial.abim")
        if not np.array_equal(init, np.concatenate([h0[None], B0])):
            errs.append("dmhd_initial.abim differs from the seeded inputs")
        d = read_csv(out / "dmhd_diagnostics.csv")
        t, e, q = d["t"], d["energy"], d["dissipation"]
        _reached(t[-1], self.horizon(seed), "dmhd-run", errs)
        _monotone(e, "energy", errs)
        res = np.diff(e) / np.diff(t) + 0.5 * (q[1:] + q[:-1])
        _bounded(float(np.abs(res).max()), IDENTITY_FACTOR * e[0],
                 "energy-identity residual", errs)
        _bounded(float(d["div_B"].max()), DIV_TOL, "diagnosed div B", errs)
        final = read_snapshot(out / "dmhd_final.abim")
        _bounded(float(np.abs(spectral_div(final[1:4])).max()), DIV_TOL,
                 "div B of the final snapshot", errs)
        e_final = energy(final[0], final[1:4])
        _bounded(abs(e_final - e[-1]), 1e-12 * e[0],
                 "final energy vs diagnostics", errs)
        return errs

    def digest(self, dirs: dict[str, Path]) -> dict:
        return {"dmhd_final": field_digest(
            read_snapshot(dirs["dmhd"] / "dmhd_final.abim"))}


@dataclass(frozen=True)
class AbiRun(Workload):
    """abi-run at an explicit dt, a fixed share of the initial CFL bound.

    ``abi-run`` on its own defaults sets dt to the initial CFL bound with no
    margin, and the step guard then rejects a later step whose bound has
    shrunk slightly, so it exits 3 (seen at n = 16, 32 and 48). The
    workload therefore sets ``run.dt`` itself.
    """

    name: str
    n: int
    steps: int
    why: str = ("abi-run at n=48 with explicit dt: ten fields, 64 transforms "
                "per RHS on 48^3 arrays and the largest snapshots, where "
                "large-n FFT changes show")
    rhs_layer = "abi"

    def dt(self, seed: int) -> float:
        return ABI_DT_FRACTION * abi_step_bound(*scenario_pair(self.n, seed))

    def jobs(self, seed: int) -> list[Job]:
        dt = self.dt(seed)
        cfg = _config({"grid": {"n": self.n}, "scenario": _scenario(),
                       "run": {"dt": dt, "t_final": self.steps * dt}})
        return [Job("abi", "abi-run", cfg)]

    def check(self, seed: int, dirs: dict[str, Path]) -> list[str]:
        out = dirs["abi"]
        errs: list[str] = []
        h0, B0 = scenario_pair(self.n, seed)
        zero = np.zeros_like(B0)
        init = read_snapshot(out / "abi_initial.abim")
        if not np.array_equal(init, np.concatenate([h0[None], B0, zero, zero])):
            errs.append("abi_initial.abim differs from the seeded inputs")
        d = read_csv(out / "abi_diagnostics.csv")
        _reached(d["t"][-1], self.steps * self.dt(seed), "abi-run", errs)
        ent = d["entropy"]
        _bounded(float(np.abs(ent - ent[0]).max() / abs(ent[0])),
                 ENTROPY_DRIFT_TOL, "relative entropy drift", errs)
        for key in ("div_B", "div_D"):
            _bounded(float(d[key].max()), DIV_TOL, f"diagnosed {key}", errs)
        final = read_snapshot(out / "abi_final.abim")
        for label, sl in (("B", slice(1, 4)), ("D", slice(4, 7))):
            _bounded(float(np.abs(spectral_div(final[sl])).max()), DIV_TOL,
                     f"div {label} of the final snapshot", errs)
        nsq = (final[1:] ** 2).sum(0)
        ent_final = float(((1.0 + nsq) / (2.0 * final[0])).mean())
        _bounded(abs(ent_final - ent[-1]), 1e-12 * abs(ent[0]),
                 "final entropy vs diagnostics", errs)
        return errs

    def digest(self, dirs: dict[str, Path]) -> dict:
        return {"abi_final": field_digest(
            read_snapshot(dirs["abi"] / "abi_final.abim"))}


@dataclass(frozen=True)
class Certify(Workload):
    """certify: solution family plus constant-in-time random frame families."""

    name: str
    n: int
    steps: int
    frames: int
    why: str = ("certify at n=16 with random frame families: r0 bisection "
                "over Jacobi eigensolves, q_matrix and dissipative_slack "
                "dominate; the only entropy-bound workload")
    rhs_layer = "dmhd"

    def jobs(self, seed: int) -> list[Job]:
        t_final = self.steps * dmhd_step_bound(*scenario_pair(self.n, seed))
        cfg = _config({"grid": {"n": self.n}, "scenario": _scenario(),
                       "run": {"t_final": t_final},
                       "certify": {"random_frames": self.frames,
                                   "tol_factor": CERTIFY_TOL_FACTOR}})
        return [Job("certify", "certify", cfg)]

    def check(self, seed: int, dirs: dict[str, Path]) -> list[str]:
        out = dirs["certify"]
        errs: list[str] = []
        e0 = energy(*scenario_pair(self.n, seed))
        s = read_csv(out / "certify_summary.csv")
        if len(s["max_slack"]) != 1 + self.frames:
            errs.append(f"certify_summary.csv has {len(s['max_slack'])} "
                        f"families, expected {1 + self.frames}")
        for j, slack in enumerate(s["max_slack"]):
            _bounded(float(slack), CERTIFY_TOL_FACTOR * e0,
                     f"family {j} max slack", errs)
        if not np.all(np.isfinite(s["r0"]) & (s["r0"] >= 0.0)):
            errs.append("r0 values must be finite and non-negative")
        names = ["solution"] + [f"random{j}" for j in range(self.frames)]
        for name in names:
            rep = read_csv(out / f"entropy_report_{name}.csv")
            if rep["slack"][0] != 0.0:
                errs.append(f"{name}: slack series does not start at zero")
        return errs

    def digest(self, dirs: dict[str, Path]) -> dict:
        return {"r0": read_csv(dirs["certify"] / "certify_summary.csv")
                ["r0"].tolist()}

    def check_reference(self, got: dict, ref: dict) -> list[str]:
        errs: list[str] = []
        a, b = np.asarray(got["r0"]), np.asarray(ref["r0"])
        if a.shape != b.shape:
            return [f"{self.name}: {a.size} r0 values, reference has {b.size}"]
        _bounded(float(np.abs(a - b).max()), REF_R0_TOL,
                 f"{self.name}: r0 deviation from reference", errs)
        return errs


@dataclass(frozen=True)
class GalerkinPair(Workload):
    """galerkin-run twice on one seed: Picard, then method of lines (MoL)."""

    name: str
    n: int
    T: float
    kmax: int
    why: str = ("galerkin-run Picard and method-of-lines pair at n=16: "
                "Picard is bound by trig-basis point evaluation, MoL uses the "
                "basis grid-side")

    def jobs(self, seed: int) -> list[Job]:
        base = {"N": 7, "eps": 0.1, "l": 1, "dt": 2e-4, "T": self.T}
        picard = dict(base, picard="true", sigma=self.T, picard_tol=1e-11)
        return [Job(tag, "galerkin-run",
                    _config({"grid": {"n": self.n},
                             "scenario": _scenario(self.kmax),
                             "galerkin": g}))
                for tag, g in (("picard", picard), ("mol", base))]

    def check(self, seed: int, dirs: dict[str, Path]) -> list[str]:
        errs: list[str] = []
        finals = {}
        for tag, out in dirs.items():
            d = read_csv(out / "galerkin_diagnostics.csv")
            _reached(d["t"][-1], self.T, f"galerkin {tag}", errs)
            _monotone(d["lambda_n"], f"{tag} Lambda_n", errs)
            finals[tag] = (read_snapshot(out / "galerkin_final.abim"),
                           read_coefficients(out / "galerkin_coefficients.bin"))
        (fp, cp), (fm, cm) = finals["picard"], finals["mol"]
        gap = max(float(np.abs(fp - fm).max()), float(np.abs(cp - cm).max()))
        _bounded(gap, PICARD_GAP_TOL, "Picard vs MoL gap", errs)
        return errs

    def digest(self, dirs: dict[str, Path]) -> dict:
        out = {}
        for tag, d in dirs.items():
            out[f"{tag}_final"] = field_digest(
                read_snapshot(d / "galerkin_final.abim"))
            out[f"{tag}_coefficients"] = field_digest(
                read_coefficients(d / "galerkin_coefficients.bin")[None], 64)
        return out


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    DmhdRun("dmhd_n32", n=32, steps=6),
    AbiRun("abi_n48", n=48, steps=2),
    Certify("certify_n16", n=16, steps=4, frames=4),
    # kmax = 1 keeps the data as band-limited as criterion 10's single mode,
    # so trig-basis evaluation, not modal evaluation, dominates Picard
    GalerkinPair("galerkin_n16", n=16, T=4e-4, kmax=1),
)}

# the same workloads at a size the self-test runs in seconds
TINY: dict[str, Workload] = {w.name: w for w in (
    DmhdRun("dmhd_n32", n=32, steps=2),   # coarser grids miss criterion 1
    AbiRun("abi_n48", n=16, steps=2),
    Certify("certify_n16", n=8, steps=2, frames=1),
    GalerkinPair("galerkin_n16", n=8, T=2e-4, kmax=1),
)}
