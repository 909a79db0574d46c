"""Span tracing of abimhd's layers, installed from outside the package.

`Tracer.install` wraps the public functions of each layer module at every
binding (the defining module and each abimhd module that imported the name)
and the public methods listed for the field, basis and modal classes. Each
call records a span: name, start, end, parent span and, for some targets,
the work it did (scalar transforms, matrices, bytes). Spans stay in memory;
`write` dumps them when the run ends. `uninstall` restores every binding.

A span name is ``<layer>.<qualified name>``; a layer's self time is the
duration of its spans minus the part covered by their child spans. The
shared RK4 step of ``stepping`` is named after the solver module that binds
it (``dmhd.rk4_step``, ``galerkin.rk4_step``, ...), so its time counts
toward that solver's layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Measure = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    work: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _scalar_transforms(grid, arr: np.ndarray) -> int:
    """Leading batch size of an (..., n, n, n) or (..., n, n, n//2+1) array."""
    return int(np.prod(arr.shape[:-3], dtype=np.int64))


def _fft_measure(args, kwargs, result) -> dict:
    grid, arr = args[0], args[1]
    return {"transforms": _scalar_transforms(grid, arr),
            "bytes": arr.nbytes + result.nbytes}


def _matrices(args, kwargs, result) -> dict:
    return {"matrices": int(args[0].shape[0])}


def _modal_bytes(args, kwargs, result) -> dict:
    modal, points = args[0], np.asarray(args[1])
    return {"bytes": points.shape[0] * modal.kvecs.shape[0] * 16}


def _written(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _sweep_start(args, kwargs, result) -> dict:
    # a Picard sweep transports h to every quadrature time, starting at 0
    t = args[3] if len(args) > 3 else kwargs["t"]
    return {"sweeps": int(t == 0.0)}


# (module, qualified name, measure); the span is named <layer>.<qualified name>
TARGETS: list[tuple[str, str, Measure | None]] = [
    ("fields", "GridSpec.fft", _fft_measure),
    ("fields", "GridSpec.ifft", _fft_measure),
    ("fields", "GridSpec.deriv", None),
    ("fields", "GridSpec.grad_arr", None),
    ("fields", "GridSpec.div_arr", None),
    ("fields", "GridSpec.curl_arr", None),
    ("fields", "GridSpec.hyper_laplacian_arr", None),
    ("fields", "GridSpec.dealias_arr", None),
    ("fields", "GridSpec.jacobian_arr", None),
    ("fields", "GridSpec.shift_arr", None),
    ("stepping", "rk4_step", None),
    ("abi", "abi_run", None),
    ("abi", "abi_step", None),
    ("abi", "abi_rhs", None),
    ("abi", "abi_cfl_dt", None),
    ("abi", "abi_constraints", None),
    ("abi", "abi_entropy", None),
    ("dmhd", "dmhd_run", None),
    ("dmhd", "dmhd_step", None),
    ("dmhd", "dmhd_rhs", None),
    ("dmhd", "dmhd_cfl_dt", None),
    ("dmhd", "constitutive", None),
    ("dmhd", "energy", None),
    ("dmhd", "dissipation", None),
    ("_jacobi", "jacobi_eigenvalues", _matrices),
    ("_jacobi", "jacobi_min_eigenvalue", _matrices),
    ("entropy", "random_frame", None),
    ("entropy", "frames_from_dmhd", None),
    ("entropy", "q_matrix", None),
    ("entropy", "l_operator", None),
    ("entropy", "lambda_functional", None),
    ("entropy", "r0", None),
    ("entropy", "holder_half_quotient", None),
    ("entropy", "dissipative_slack", None),
    ("galerkin", "TrigBasis.synthesize", None),
    ("galerkin", "TrigBasis.project", None),
    ("galerkin", "TrigBasis.gram", None),
    ("galerkin", "TrigBasis.eval", None),
    ("galerkin", "TrigBasis.eval_jacobian", None),
    ("galerkin", "TrigBasis.eval_div", None),
    ("galerkin", "TrigBasis.eval_curl", None),
    ("galerkin", "ModalScalar.eval", _modal_bytes),
    ("galerkin", "mass_apply", None),
    ("galerkin", "mass_solve", None),
    ("galerkin", "transport_h", _sweep_start),
    ("galerkin", "transport_B", None),
    ("galerkin", "galerkin_run", None),
    ("galerkin", "picard_iterate", None),
    ("snapshots", "write_snapshot", _written),
    ("snapshots", "write_csv", _written),
    ("snapshots", "write_manifest", _written),
]


# helpers whose spans count toward the layer of the module that calls them:
# the shared RK4 step is measured through each solver
PER_CALLER = {"stepping"}


def _layer_name(module: str) -> str:
    # the Jacobi eigensolver is part of the entropy layer
    return "entropy" if module == "_jacobi" else module


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, measure: Measure | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if measure is not None:
                tracer.spans[idx].work = measure(args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        # import every submodule first so that every binding exists now
        import abimhd
        for info in pkgutil.iter_modules(abimhd.__path__):
            importlib.import_module(f"abimhd.{info.name}")
        for module, qual, measure in TARGETS:
            mod = importlib.import_module(f"abimhd.{module}")
            span_name = f"{_layer_name(module)}.{qual}"
            if "." in qual:
                owner_name, attr = qual.split(".")
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span_name, original, measure))
                continue
            original = getattr(mod, qual)
            for other in _abimhd_modules():
                for attr, val in list(vars(other).items()):
                    if val is not original:
                        continue
                    name = span_name
                    if module in PER_CALLER:
                        name = f"{_layer_name(other.__name__.split('.')[-1])}.{qual}"
                    self._restore.append((other, attr, original))
                    setattr(other, attr, self._wrap(name, original, measure))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ---------------------------------------------------------

    def children_time(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                covered[sp.parent] += sp.duration
        return covered

    def self_time_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for sp, cov in zip(self.spans, self.children_time()):
            out[sp.layer] = out.get(sp.layer, 0.0) + sp.duration - cov
        return out

    def nested_in(self, sp: Span, names: set[str]) -> bool:
        """Whether some ancestor of `sp` has a name in `names`."""
        p = sp.parent
        while p >= 0 and self.spans[p].name not in names:
            p = self.spans[p].parent
        return p >= 0

    def outermost(self, names: set[str]) -> list[Span]:
        """Spans in `names` that have no ancestor in `names`."""
        return [sp for sp in self.spans
                if sp.name in names and not self.nested_in(sp, names)]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent,
                                     sp.work]) + "\n")


def _abimhd_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "abimhd" or name.startswith("abimhd."))]
