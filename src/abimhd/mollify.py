"""Initial-data mollification with a periodized Gaussian kernel.

Rough initial data (a nonnegative density plus finitely many point atoms
for the scalar part, optionally a vector part) is smoothed by convolution
with

    rho_eps(x) = sum_k eps^{-3} (2 pi)^{-3/2} exp(-|x + k|^2 / (2 eps^2)),

which has unit mass on the torus and is strictly positive, so the smoothed
density is positive whenever the data carries mass. Mollification preserves
total mass, weak divergence-freeness of the vector part, and never
increases the modulated energy of (h0, (Lebesgue, B0)), which converges
upward to the rough value as eps decreases.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entropy import lambda_functional
from .fields import (
    FieldDataError,
    GridSpec,
    ScalarField,
    VectorField3,
    eval_at,
)
from .snapshots import read_snapshot

logger = logging.getLogger(__name__)

__all__ = [
    "PERIODIZATION_TAIL",
    "RoughInitialData",
    "periodized_gaussian",
    "gaussian_shell_count",
    "mollify",
    "lambda_monotonicity_check",
    "MonotonicityReport",
]

PERIODIZATION_TAIL = 1e-16
# lambda_functional's density floor in the monotonicity check, far below
# DEFAULT_H_FLOOR: mollified densities are positive however small
LAMBDA_H_FLOOR = 1e-300


def gaussian_shell_count(eps: float) -> int:
    """Shifts per axis so the dropped periodization tail is below round-off."""
    return int(math.ceil(
        1.0 + eps * math.sqrt(2.0 * math.log(1.0 / PERIODIZATION_TAIL))))


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise FieldDataError(f"mollifier width must lie in (0,1), got {eps}")


def _gaussian_sum(points: np.ndarray, eps: float, shells: int) -> np.ndarray:
    """Periodized Gaussian evaluated at arbitrary points, shape (M,)."""
    norm = eps ** -3 * (2.0 * math.pi) ** -1.5
    out = np.zeros(points.shape[0])
    rng = range(-shells, shells + 1)
    for kx in rng:
        for ky in rng:
            for kz in rng:
                d = points + np.array([kx, ky, kz], dtype=float)
                out += np.exp(-(d ** 2).sum(1) / (2.0 * eps ** 2))
    return norm * out


def periodized_gaussian(grid: GridSpec, eps: float,
                        shells: int | None = None) -> ScalarField:
    """Unit-mass positive mollifier sampled on the grid."""
    _check_eps(eps)
    k = gaussian_shell_count(eps) if shells is None else shells
    return ScalarField(grid,
                       _gaussian_sum(grid.points, eps, k).reshape(grid.shape))


@dataclass(frozen=True)
class RoughInitialData:
    """Density-plus-atoms representation of rough initial data.

    The scalar part (for the density h0) is a nonnegative grid density plus
    point atoms with positive mass; the vector part (for B0) is a grid
    density plus vector-mass atoms. Total scalar mass must be positive.
    """

    grid: GridSpec
    h_density: ScalarField | None = None
    B_density: VectorField3 | None = None
    atoms: tuple[tuple[tuple[float, float, float], float,
                       tuple[float, float, float] | None], ...] = ()

    def __post_init__(self):
        if self.h_density is not None and self.h_density.values.min() < 0:
            raise FieldDataError("scalar density part must be nonnegative")
        for loc, m, _ in self.atoms:
            if m < 0:
                raise FieldDataError(f"atom at {loc} has negative mass {m}")
        if self.total_mass() <= 0:
            raise FieldDataError("total scalar mass must be positive")
        defect = self.B_div_sup()
        if defect > 1e-10:
            # reported, never enforced: atoms may carry rotational defects
            logger.warning("vector density part has divergence sup %.3e",
                           defect)

    def B_div_sup(self) -> float:
        """Spectral divergence sup of the density-represented vector part."""
        if self.B_density is None:
            return 0.0
        return float(np.abs(self.grid.div_arr(self.B_density.values)).max())

    def total_mass(self) -> float:
        mass = sum(m for _, m, _ in self.atoms)
        if self.h_density is not None:
            mass += self.h_density.values.mean()
        return float(mass)

    def pair_scalar(self, f: ScalarField) -> float:
        """Duality pairing <h0, f> against a smooth test function."""
        out = 0.0
        if self.h_density is not None:
            out += float((self.h_density.values * f.values).mean())
        if self.atoms:
            pts = np.array([loc for loc, _, _ in self.atoms], dtype=float)
            vals = eval_at(f, pts)
            out += float(sum(m * v for (_, m, _), v in zip(self.atoms, vals)))
        return out

    @classmethod
    def parse(cls, text: str, grid: GridSpec,
              base_dir: str | Path = ".") -> "RoughInitialData":
        """Parse the text format: optional ``density <snapshot>`` line, then
        ``atoms <count>`` and one ``x y z m`` or ``x y z m1 m2 m3 m4`` line
        per atom."""
        h_density = None
        B_density = None
        atoms = []
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("#")]
        i = 0
        if i < len(lines) and lines[i].startswith("density"):
            ref = lines[i].split(None, 1)[1]
            sgrid, comps = read_snapshot(Path(base_dir) / ref)
            if sgrid != grid:
                raise FieldDataError(
                    f"density snapshot grid {sgrid.n} does not match {grid.n}")
            h_density = ScalarField(grid, comps[0])
            if len(comps) == 4:
                B_density = VectorField3(grid, np.stack(comps[1:]))
            i += 1
        if i >= len(lines) or not lines[i].startswith("atoms"):
            raise FieldDataError('expected an "atoms <count>" header line')
        count = int(lines[i].split()[1])
        i += 1
        for j in range(count):
            parts = [float(x) for x in lines[i + j].split()]
            if len(parts) == 4:
                atoms.append((tuple(parts[:3]), parts[3], None))
            elif len(parts) == 7:
                atoms.append((tuple(parts[:3]), parts[3], tuple(parts[4:])))
            else:
                raise FieldDataError(
                    f"atom line {j} must have 4 or 7 numbers, got {len(parts)}")
        return cls(grid, h_density, B_density, tuple(atoms))


def _convolve(grid: GridSpec, values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    return grid.ifft(grid.fft(values) * grid.fft(kernel)) / grid.num_points


def mollify(data: RoughInitialData, eps: float,
            shells: int | None = None) -> tuple[ScalarField, VectorField3]:
    """Smooth the rough data: densities by spectral convolution with the
    periodized Gaussian, atoms as translated kernel copies scaled by mass."""
    _check_eps(eps)
    g = data.grid
    k = gaussian_shell_count(eps) if shells is None else shells
    kernel = periodized_gaussian(g, eps, k).values

    h = np.zeros(g.shape)
    B = np.zeros((3, *g.shape))
    if data.h_density is not None:
        h += _convolve(g, data.h_density.values, kernel)
    if data.B_density is not None:
        for i in range(3):
            B[i] = _convolve(g, data.B_density.values[i], kernel)
    if data.atoms:
        pts = g.points
        for loc, m, vec in data.atoms:
            bump = _gaussian_sum(pts - np.asarray(loc, dtype=float),
                                 eps, k).reshape(g.shape)
            h += m * bump
            if vec is not None:
                for i in range(3):
                    B[i] += vec[i] * bump
    return ScalarField(g, h), VectorField3(g, B)


@dataclass
class MonotonicityReport:
    eps_schedule: list[float]
    lambda_values: list[float]
    reference: float | None   # modulated energy of the rough data, if finite

    def bounded_by_reference(self, tol: float = 1e-10) -> bool:
        if self.reference is None:
            return True
        return all(v <= self.reference + tol for v in self.lambda_values)


def lambda_monotonicity_check(data: RoughInitialData, eps_schedule,
                              reference: float | None = None
                              ) -> MonotonicityReport:
    """Modulated energy of the mollified data along a decreasing eps schedule.

    For pure density data the rough reference integral((1+|B0|^2)/(2 h0)) is
    computed directly (+inf marker if h0 vanishes against |U0| > 0); for
    atomic data the caller supplies a reference upper value, or None to log
    the trend only. Every width is checked before anything is computed.
    """
    for eps in eps_schedule:
        _check_eps(eps)
    if reference is None and any(vec is not None for _, _, vec in data.atoms):
        logger.info("atomic vector data: finiteness of the rough modulated "
                    "energy depends on mutual absolute continuity and is "
                    "not adjudicated; trend logged only")
    if reference is None and not data.atoms and data.h_density is not None:
        U = np.concatenate([np.ones((1, *data.grid.shape)),
                            np.zeros((3, *data.grid.shape))
                            if data.B_density is None
                            else data.B_density.values])
        reference = lambda_functional(data.h_density, U,
                                      h_floor=LAMBDA_H_FLOOR)
    values = []
    for eps in eps_schedule:
        h_eps, B_eps = mollify(data, eps)
        U_eps = np.concatenate([np.ones((1, *data.grid.shape)), B_eps.values])
        values.append(lambda_functional(h_eps, U_eps, h_floor=LAMBDA_H_FLOOR))
    return MonotonicityReport(list(eps_schedule), values, reference)
