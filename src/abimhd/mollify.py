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
from typing import Callable

import numpy as np

from .entropy import lambda_functional
from .fields import (
    FieldDataError,
    GridSpec,
    ScalarField,
    VectorField3,
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
    """Periodized Gaussian evaluated at arbitrary points, shape (M,).

    The sum over the shift cube |k_a| <= shells factors exactly into one
    1-D sum over the 2 shells + 1 shifts per axis (a product of truncated
    1-D theta functions)."""
    out = eps ** -3 * (2.0 * math.pi) ** -1.5
    for coord in points.T:
        d = coord[:, None] + np.arange(-shells, shells + 1)
        out = out * np.exp(-d ** 2 / (2.0 * eps ** 2)).sum(1)
    return out


def periodized_gaussian(grid: GridSpec, eps: float) -> ScalarField:
    """Unit-mass positive mollifier sampled on the grid."""
    _check_eps(eps)
    return ScalarField(grid, _gaussian_sum(
        grid.points, eps, gaussian_shell_count(eps)).reshape(grid.shape))


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

    @classmethod
    def parse(cls, text: str, grid: GridSpec,
              base_dir: str | Path = ".") -> "RoughInitialData":
        """Parse the text format: an optional ``density <snapshot>`` line
        naming a 1-field (h0) or 4-field (h0, B0) snapshot, then
        ``atoms <count>`` and exactly count atom lines, each ``x y z m`` or
        ``x y z m bx by bz``: a scalar mass, then the atom's vector mass for
        B. A malformed file raises FieldDataError."""
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("#")]
        rows = [ln.split() for ln in lines]
        h_density = B_density = None
        if rows and rows[0][0] == "density":
            if len(rows[0]) < 2:
                raise FieldDataError('expected a "density <snapshot>" line')
            sgrid, comps = read_snapshot(
                Path(base_dir) / lines[0].split(None, 1)[1])
            if sgrid != grid:
                raise FieldDataError(
                    f"density snapshot grid {sgrid.n} does not match {grid.n}")
            if len(comps) not in (1, 4):
                raise FieldDataError(
                    f"density snapshot must hold 1 or 4 fields, got {len(comps)}")
            h_density = ScalarField(grid, comps[0])
            if len(comps) == 4:
                B_density = VectorField3(grid, np.stack(comps[1:]))
            rows = rows[1:]
        if not rows or rows[0][0] != "atoms" or len(rows[0]) != 2:
            raise FieldDataError('expected an "atoms <count>" header line')
        try:
            count = int(rows[0][1])
            nums = [[float(x) for x in row] for row in rows[1:]]
        except ValueError as exc:
            raise FieldDataError(f"rough data: {exc}") from None
        if count != len(nums):
            raise FieldDataError(
                f"atoms header counts {count}, file has {len(nums)} atom lines")
        for j, parts in enumerate(nums):
            if len(parts) not in (4, 7):
                raise FieldDataError(
                    f"atom line {j} must have 4 or 7 numbers, got {len(parts)}")
        atoms = [(tuple(p[:3]), p[3], tuple(p[4:]) if len(p) == 7 else None)
                 for p in nums]
        return cls(grid, h_density, B_density, tuple(atoms))


def mollify(data: RoughInitialData,
            eps: float) -> tuple[ScalarField, VectorField3]:
    """Smooth the rough data: densities by spectral convolution with the
    periodized Gaussian, atoms as translated kernel copies scaled by mass."""
    _check_eps(eps)
    g = data.grid
    shells = gaussian_shell_count(eps)
    pts = g.points
    # the kernel's spectrum, scaled so a product with a spectrum convolves
    kernel_hat = g.fft(periodized_gaussian(g, eps).values) / g.num_points

    h = np.zeros(g.shape)
    B = np.zeros((3, *g.shape))
    if data.h_density is not None:
        h += g.ifft(g.fft(data.h_density.values) * kernel_hat)
    if data.B_density is not None:
        B += g.ifft(g.fft(data.B_density.values) * kernel_hat)
    for loc, m, vec in data.atoms:
        bump = _gaussian_sum(pts - np.asarray(loc, dtype=float),
                             eps, shells).reshape(g.shape)
        h += m * bump
        if vec is not None:
            B += np.multiply.outer(vec, bump)
    return ScalarField(g, h), VectorField3(g, B)


@dataclass
class MonotonicityReport:
    eps_schedule: list[float]
    lambda_values: list[float]
    reference: float | None   # modulated energy of the rough data, if finite


def lambda_monotonicity_check(
        data: RoughInitialData, eps_schedule,
        each: Callable[[float, ScalarField, VectorField3], None] | None = None
) -> MonotonicityReport:
    """Modulated energy of the mollified data along a decreasing eps schedule.

    For pure density data the rough reference integral((1+|B0|^2)/(2 h0)) is
    computed directly (+inf marker if h0 vanishes against |U0| > 0); for
    atomic data there is no reference and the trend is logged only. Every
    width is checked before anything is computed, and each is mollified
    once: each(eps, h, B), when given, receives that width's fields, which
    are dropped before the next width, so memory does not grow with the
    schedule.
    """
    for eps in eps_schedule:
        _check_eps(eps)
    if any(vec is not None for _, _, vec in data.atoms):
        logger.info("atomic vector data: finiteness of the rough modulated "
                    "energy depends on mutual absolute continuity and is "
                    "not adjudicated; trend logged only")

    def energy(h: ScalarField, B: VectorField3) -> float:
        U = np.concatenate([np.ones((1, *h.grid.shape)), B.values])
        return lambda_functional(h, U, h_floor=LAMBDA_H_FLOOR)

    reference = None
    if not data.atoms and data.h_density is not None:
        reference = energy(data.h_density, VectorField3.zero(data.grid)
                           if data.B_density is None else data.B_density)
    values = []
    for eps in eps_schedule:
        h, B = mollify(data, eps)
        values.append(energy(h, B))
        if each is not None:
            each(eps, h, B)
        del h, B
    return MonotonicityReport(list(eps_schedule), values, reference)
