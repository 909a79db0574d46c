"""Metric catalogue and the per-layer metrics computed from a traced run.

End-to-end metrics come from untraced iterations. Per-layer metrics come
from traced iterations and are given per iteration (one pass over the
workload's job list); a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import math

import numpy as np

from tracing import Span, Tracer

# (name, unit, better, bound); the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression
END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.01),
]

# (name, unit, better); per-layer metrics have no bound
PER_LAYER = [
    ("fields.transforms", "count", "lower"),
    ("fields.fft_calls", "count", "lower"),
    ("fields.fft_s", "s", "lower"),
    ("fields.transform_us", "us", "lower"),
    ("fields.fft_share", "ratio", "lower"),
    ("fields.transform_mb_computed", "MB", "lower"),
    ("fields.self_s", "s", "lower"),
    ("dmhd.steps", "count", "lower"),
    ("dmhd.step_ms_p50", "ms", "lower"),
    ("dmhd.step_ms_tail", "ms", "lower"),
    ("dmhd.step_tail_pct", "%", "higher"),
    ("dmhd.rhs_transforms", "count", "lower"),
    ("dmhd.rhs_ms", "ms", "lower"),
    ("dmhd.diag_ms_per_step", "ms", "lower"),
    ("dmhd.diag_transforms_per_step", "count", "lower"),
    ("dmhd.self_s", "s", "lower"),
    ("abi.steps", "count", "lower"),
    ("abi.step_ms_p50", "ms", "lower"),
    ("abi.rhs_transforms", "count", "lower"),
    ("abi.rhs_ms", "ms", "lower"),
    ("abi.diag_ms_per_step", "ms", "lower"),
    ("abi.diag_transforms_per_step", "count", "lower"),
    ("abi.self_s", "s", "lower"),
    ("entropy.r0_s", "s", "lower"),
    ("entropy.r0_calls", "count", "lower"),
    ("entropy.bisect_checks", "count", "lower"),
    ("entropy.eig_s", "s", "lower"),
    ("entropy.eig_matrices", "count", "lower"),
    ("entropy.q_matrix_calls", "count", "lower"),
    ("entropy.q_matrix_s", "s", "lower"),
    ("entropy.l_operator_s", "s", "lower"),
    ("entropy.slack_s", "s", "lower"),
    ("entropy.frames_s", "s", "lower"),
    ("entropy.self_s", "s", "lower"),
    ("galerkin.picard_s", "s", "lower"),
    ("galerkin.picard_sweeps", "count", "lower"),
    ("galerkin.basis_eval_calls", "count", "lower"),
    ("galerkin.basis_eval_s", "s", "lower"),
    ("galerkin.modal_eval_s", "s", "lower"),
    ("galerkin.modal_eval_mb_computed", "MB", "lower"),
    ("galerkin.transport_s", "s", "lower"),
    ("galerkin.mol_s", "s", "lower"),
    ("galerkin.mol_steps", "count", "lower"),
    ("galerkin.gram_s", "s", "lower"),
    ("galerkin.self_s", "s", "lower"),
    ("snapshots.write_s", "s", "lower"),
    ("snapshots.mb_written", "MB", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

FFT = {"fields.GridSpec.fft", "fields.GridSpec.ifft"}
BASIS_EVAL = {"galerkin.TrigBasis.eval", "galerkin.TrigBasis.eval_jacobian",
              "galerkin.TrigBasis.eval_div", "galerkin.TrigBasis.eval_curl"}
DMHD_DIAG = {"dmhd.energy", "dmhd.dissipation"}
ABI_DIAG = {"abi.abi_constraints", "abi.abi_entropy"}
JACOBI = {"entropy.jacobi_eigenvalues", "entropy.jacobi_min_eigenvalue"}


def report(values: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name in values}


def tail_percentile(samples: int) -> float:
    """Highest percentile with at least ten samples beyond it (>= 50)."""
    if samples <= 0:
        return 0.0
    return max(50.0, math.floor(100.0 * (samples - 10) / samples))


class SpanIndex:
    """Queries over one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.tracer = tracer

    def named(self, names: set[str]) -> list[Span]:
        return [sp for sp in self.spans if sp.name in names]

    def count(self, names: set[str]) -> int:
        return len(self.named(names))

    def time(self, names: set[str]) -> float:
        """Time inside any of `names`, nested calls counted once."""
        return sum(sp.duration for sp in self.tracer.outermost(names))

    def work(self, names: set[str], key: str) -> float:
        return sum(sp.work[key] for sp in self.named(names) if sp.work)

    def under(self, names: set[str], outer: set[str]) -> list[Span]:
        """Spans in `names` that run inside a span in `outer`."""
        return [sp for sp in self.named(names)
                if self.tracer.nested_in(sp, outer)]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _step_metrics(ix: SpanIndex, prefix: str, step: str, iters: int,
                  tail: bool) -> dict[str, float]:
    ms = np.array([sp.duration for sp in ix.named({step})]) * 1e3
    out = {f"{prefix}.steps": ms.size / iters,
           f"{prefix}.step_ms_p50": float(np.median(ms)) if ms.size else 0.0}
    if tail:
        pct = tail_percentile(ms.size)
        out[f"{prefix}.step_ms_tail"] = (float(np.percentile(ms, pct))
                                         if ms.size else 0.0)
        out[f"{prefix}.step_tail_pct"] = pct
    return out


def _diag_metrics(ix: SpanIndex, prefix: str, diag: set[str],
                  per_call: str) -> dict[str, float]:
    calls = ix.count({per_call})
    return {f"{prefix}.diag_ms_per_step": _ratio(ix.time(diag) * 1e3, calls),
            f"{prefix}.diag_transforms_per_step":
                _ratio(sum(sp.work["transforms"] for sp in ix.under(FFT, diag)),
                       calls)}


def rhs_metrics(prefix: str, probe: Tracer | None) -> dict[str, float]:
    """Transforms and median time of one public RHS call, from a probe."""
    out = {f"{prefix}.rhs_transforms": 0.0, f"{prefix}.rhs_ms": 0.0}
    if probe is None:
        return out
    ix = SpanIndex(probe)
    rhs = ix.named({f"{prefix}.{prefix}_rhs"})
    out[f"{prefix}.rhs_transforms"] = _ratio(
        ix.work(FFT, "transforms"), len(rhs))
    out[f"{prefix}.rhs_ms"] = float(np.median([sp.duration for sp in rhs])) * 1e3
    return out


def layer_metrics(tracer: Tracer, iters: int, traced_walls: list[float],
                  untraced_walls: list[float],
                  probes: dict[str, Tracer]) -> dict[str, float]:
    ix = SpanIndex(tracer)
    per = 1.0 / iters
    selfs = tracer.self_time_by_layer()
    job_time = sum(sp.duration for sp in ix.named({"cli.main"}))
    fft_s = ix.time(FFT)
    transforms = ix.work(FFT, "transforms")
    m: dict[str, float] = {
        "fields.transforms": transforms * per,
        "fields.fft_calls": ix.count(FFT) * per,
        "fields.fft_s": fft_s * per,
        "fields.transform_us": _ratio(fft_s * 1e6, transforms),
        "fields.fft_share": _ratio(fft_s, job_time),
        "fields.transform_mb_computed": ix.work(FFT, "bytes") * per / 1e6,
    }
    m.update(_step_metrics(ix, "dmhd", "dmhd.dmhd_step", iters, tail=True))
    m.update(rhs_metrics("dmhd", probes.get("dmhd")))
    m.update(_diag_metrics(ix, "dmhd", DMHD_DIAG, "dmhd.dissipation"))
    m.update(_step_metrics(ix, "abi", "abi.abi_step", iters, tail=False))
    m.update(rhs_metrics("abi", probes.get("abi")))
    m.update(_diag_metrics(ix, "abi", ABI_DIAG, "abi.abi_constraints"))
    r0_calls = ix.count({"entropy.r0"})
    m.update({
        "entropy.r0_s": ix.time({"entropy.r0"}) * per,
        "entropy.r0_calls": r0_calls * per,
        "entropy.bisect_checks": _ratio(
            len(ix.under({"entropy.jacobi_min_eigenvalue"}, {"entropy.r0"})),
            r0_calls),
        "entropy.eig_s": ix.time(JACOBI) * per,
        "entropy.eig_matrices": ix.work(JACOBI, "matrices") * per,
        "entropy.q_matrix_calls": ix.count({"entropy.q_matrix"}) * per,
        "entropy.q_matrix_s": ix.time({"entropy.q_matrix"}) * per,
        "entropy.l_operator_s": ix.time({"entropy.l_operator"}) * per,
        "entropy.slack_s": ix.time({"entropy.dissipative_slack"}) * per,
        "entropy.frames_s": ix.time({"entropy.frames_from_dmhd",
                                     "entropy.random_frame"}) * per,
        "galerkin.picard_s": ix.time({"galerkin.picard_iterate"}) * per,
        "galerkin.picard_sweeps": ix.work({"galerkin.transport_h"},
                                          "sweeps") * per,
        "galerkin.basis_eval_calls": ix.count(
            {"galerkin.TrigBasis.eval", "galerkin.TrigBasis.eval_jacobian"})
            * per,
        "galerkin.basis_eval_s": ix.time(BASIS_EVAL) * per,
        "galerkin.modal_eval_s": ix.time({"galerkin.ModalScalar.eval"}) * per,
        "galerkin.modal_eval_mb_computed":
            ix.work({"galerkin.ModalScalar.eval"}, "bytes") * per / 1e6,
        "galerkin.transport_s": ix.time({"galerkin.transport_h",
                                         "galerkin.transport_B"}) * per,
        "galerkin.mol_s": ix.time({"galerkin.galerkin_run"}) * per,
        "galerkin.mol_steps": len(ix.under({"galerkin.rk4_step"},
                                           {"galerkin.galerkin_run"})) * per,
        "galerkin.gram_s": ix.time({"galerkin.TrigBasis.gram"}) * per,
        "snapshots.write_s": selfs.get("snapshots", 0.0) * per,
        "snapshots.mb_written": ix.work(
            {"snapshots.write_snapshot", "snapshots.write_csv",
             "snapshots.write_manifest"}, "bytes") * per / 1e6,
        "trace.spans": len(tracer.spans) * per,
        "trace.overhead": _ratio(float(np.median(traced_walls)),
                                 float(np.median(untraced_walls))),
    })
    for layer in ("fields", "dmhd", "abi", "entropy", "galerkin", "cli"):
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0) * per
    return {name: m[name] for name, *_ in PER_LAYER}
