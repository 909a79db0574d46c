"""Spectral field algebra on the periodic unit torus [0,1)^3.

Fields are real samples on a uniform n x n x n grid (row-major over x, y, z).
All differential operators act through the real FFT, so derivatives are exact
for band-limited data. Pointwise products are formed in physical space and
masked by the 2/3 rule in spectral space (Orszag 1971): a product that is
differentiated next is transformed once, and the mask and the derivative
symbol 2 pi i k act on its spectrum before the single inverse transform
(`fft_masked` followed by `curl_hat`, `div_hat` or `grad_hat`, and
`div_sym_masked` for symmetric tensors). Divisions by a density are done in physical space behind a
positivity guard.

Point evaluation sums the modes exactly, without spreading to a grid (the
exact counterpart of a type-2 nonuniform FFT). Its phases are separable:
`_phase_blocks` takes exp(2 pi i k_a x_a) over the distinct |k_a| of each
axis and multiplies the three factors of every mode in place, EVAL_CHUNK
points at a time. `eval_at`, `galerkin.ModalScalar.eval` and the point side
of `galerkin.TrigBasis` all build their phases this way.

Every operation here is a pure function of immutable inputs: field values are
stored read-only and new arrays are returned, so concurrent use is safe and
repeated runs are bit-identical. The one held state is outside this module:
`galerkin.TrigBasis` keeps the phase table of the last point set it was
asked about, keyed on a copy of the points and stored as one tuple, so the
basis calls at one characteristics stage share it and a concurrent or
in-place change of points only costs a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField3",
    "FieldDataError",
    "PositivityError",
    "DEFAULT_H_FLOOR",
    "SYM_PAIRS",
    "grad",
    "div",
    "curl",
    "hyper_laplacian",
    "integrate",
    "eval_at",
    "dealias",
    "shift",
    "guarded_reciprocal",
    "random_band_limited",
    "random_divergence_free",
    "random_vector",
    "project_divergence_free",
]

DEFAULT_H_FLOOR = 1e-8

# points per (points x modes) phase block of `_phase_blocks`, behind
# `eval_at`, `galerkin.ModalScalar.eval` and the point side of
# `galerkin.TrigBasis`
EVAL_CHUNK = 256

# index pairs (i, j) of the six distinct entries of a symmetric 3x3 tensor,
# in the order `GridSpec.div_sym_masked` reads them
SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


class FieldDataError(ValueError):
    """Raised when field data violates a structural precondition."""


class PositivityError(ValueError):
    """Raised when a density drops to or below its positivity floor."""

    def __init__(self, message: str, index: tuple[int, ...] | None = None,
                 value: float | None = None):
        super().__init__(message)
        self.index = index
        self.value = value


def _first_bad_index(values: np.ndarray) -> tuple[int, ...]:
    bad = np.argwhere(~np.isfinite(values))
    return tuple(int(i) for i in bad[0])


def require_finite(values: np.ndarray, name: str = "field") -> None:
    """Reject non-finite data, naming the first offending index."""
    if not np.isfinite(values).all():
        idx = _first_bad_index(values)
        raise FieldDataError(f"{name} has non-finite value at index {idx}: "
                             f"{values[idx]!r}")


def require_positive(values: np.ndarray, floor: float = DEFAULT_H_FLOOR,
                     name: str = "h") -> None:
    """Positivity guard preceding every division by a density."""
    m = values.min()
    if not m > floor:
        flat = int(np.argmin(values))
        idx = tuple(int(i) for i in np.unravel_index(flat, values.shape))
        raise PositivityError(
            f"{name} violates positivity floor {floor:g} at index {idx}: "
            f"min value {m!r}", index=idx, value=float(m))


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the unit 3-torus: n points per axis, spacing 1/n."""

    n: int = 32

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise FieldDataError(f"grid size must be even and >= 4, got {self.n}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def num_points(self) -> int:
        return self.n ** 3

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    @cached_property
    def mesh(self) -> np.ndarray:
        """Coordinates of every node, shape (3, n, n, n)."""
        x = self.axis_coords
        return np.stack(np.meshgrid(x, x, x, indexing="ij"))

    # Integer wavenumbers of the half-complex (rfftn) layout, broadcastable
    # against spectra of shape (n, n, n//2 + 1).
    @cached_property
    def _kx(self) -> np.ndarray:
        return np.fft.fftfreq(self.n, d=1.0 / self.n).reshape(-1, 1, 1)

    @cached_property
    def _ky(self) -> np.ndarray:
        return np.fft.fftfreq(self.n, d=1.0 / self.n).reshape(1, -1, 1)

    @cached_property
    def _kz(self) -> np.ndarray:
        return np.fft.rfftfreq(self.n, d=1.0 / self.n).reshape(1, 1, -1)

    @cached_property
    def _k_squared_4pi2(self) -> np.ndarray:
        """(2 pi |k|)^2, the symbol of -Laplacian."""
        return (2.0 * np.pi) ** 2 * (self._kx ** 2 + self._ky ** 2 + self._kz ** 2)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep modes with |k_i| <= n//3 on every axis."""
        kmax = self.n // 3
        return ((np.abs(self._kx) <= kmax)
                & (np.abs(self._ky) <= kmax)
                & (np.abs(self._kz) <= kmax))

    # ------------------------------------------------------------------
    # Raw-array spectral kernels. Solvers use these on plain ndarrays; the
    # public operations below wrap them with the field types and checks.
    # ------------------------------------------------------------------

    def fft(self, a: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(a, axes=(-3, -2, -1))

    def ifft(self, ah: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(ah, s=self.shape, axes=(-3, -2, -1))

    def fft_masked(self, a: np.ndarray) -> np.ndarray:
        """Spectrum of `a` with the 2/3-rule mask applied."""
        ah = self.fft(a)
        ah *= self.dealias_mask
        return ah

    @cached_property
    def _ik(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derivative symbols 2 pi i k_x, 2 pi i k_y, 2 pi i k_z."""
        two_pi_i = 2j * np.pi
        return two_pi_i * self._kx, two_pi_i * self._ky, two_pi_i * self._kz

    # Spectral-input kernels: they map spectra to spectra, so a caller can
    # sum several terms before one inverse transform.

    def grad_hat(self, ah: np.ndarray) -> np.ndarray:
        dx, dy, dz = self._ik
        return np.stack([ah * dx, ah * dy, ah * dz])

    def div_hat(self, vh: np.ndarray) -> np.ndarray:
        dx, dy, dz = self._ik
        return vh[0] * dx + vh[1] * dy + vh[2] * dz

    def curl_hat(self, vh: np.ndarray) -> np.ndarray:
        dx, dy, dz = self._ik
        return np.stack([dy * vh[2] - dz * vh[1],
                         dz * vh[0] - dx * vh[2],
                         dx * vh[1] - dy * vh[0]])

    def div_sym_masked(self, entries: Iterable[np.ndarray]) -> np.ndarray:
        """Spectrum of the row divergence d_j T_ij of a symmetric tensor,
        with its entries masked by the 2/3 rule.

        `entries` yields the six distinct entries T_ij in SYM_PAIRS order,
        in physical space; each is transformed once, and a generator keeps
        only one of them alive at a time.
        """
        out = np.zeros((3, self.n, self.n, self.n // 2 + 1), dtype=complex)
        for (i, j), t in zip(SYM_PAIRS, entries):
            th = self.fft_masked(t)
            out[i] += self._ik[j] * th
            if i != j:
                out[j] += self._ik[i] * th
        return out

    def deriv(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self.ifft(self.fft(a) * self._ik[axis])

    def grad_arr(self, a: np.ndarray) -> np.ndarray:
        return self.ifft(self.grad_hat(self.fft(a)))

    def div_arr(self, v: np.ndarray) -> np.ndarray:
        return self.ifft(self.div_hat(self.fft(v)))

    def curl_arr(self, v: np.ndarray) -> np.ndarray:
        return self.ifft(self.curl_hat(self.fft(v)))

    def hyper_laplacian_arr(self, v: np.ndarray, order: int) -> np.ndarray:
        return self.ifft(self.fft(v) * self._k_squared_4pi2 ** order)

    def dealias_arr(self, a: np.ndarray) -> np.ndarray:
        return self.ifft(self.fft_masked(a))

    def jacobian_arr(self, v: np.ndarray) -> np.ndarray:
        """Gradient of a vector field with (i, j) entry d_j v_i, shape (3,3,n,n,n)."""
        return np.stack([self.grad_arr(v[i]) for i in range(3)])

    def shift_arr(self, a: np.ndarray, delta: Sequence[float]) -> np.ndarray:
        """Sample a(x + delta) by a spectral phase factor."""
        dx, dy, dz = (float(d) for d in delta)
        phase = np.exp(2j * np.pi * (self._kx * dx + self._ky * dy + self._kz * dz))
        return self.ifft(self.fft(a) * phase)


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a GridSpec, row-major over (x, y, z)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise FieldDataError(
                f"scalar field shape {v.shape} does not match grid {self.grid.shape}")
        require_finite(v, "scalar field")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def constant(cls, grid: GridSpec, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(c)))

    @classmethod
    def from_function(cls, grid: GridSpec, f) -> "ScalarField":
        x, y, z = grid.mesh
        return cls(grid, f(x, y, z))

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class VectorField3:
    """Three scalar components sharing one GridSpec, stored (3, n, n, n)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (3, *self.grid.shape):
            raise FieldDataError(
                f"vector field shape {v.shape} does not match grid (3, n, n, n)")
        require_finite(v, "vector field")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def constant(cls, grid: GridSpec, c: Sequence[float]) -> "VectorField3":
        vals = np.empty((3, *grid.shape))
        for i in range(3):
            vals[i] = float(c[i])
        return cls(grid, vals)

    @classmethod
    def zero(cls, grid: GridSpec) -> "VectorField3":
        return cls(grid, np.zeros((3, *grid.shape)))

    @classmethod
    def from_function(cls, grid: GridSpec, f) -> "VectorField3":
        x, y, z = grid.mesh
        return cls(grid, np.stack(f(x, y, z)))

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.values[i])

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


# ----------------------------------------------------------------------
# Public spectral operations.
# ----------------------------------------------------------------------

def grad(f: ScalarField) -> VectorField3:
    require_finite(f.values, "grad input")
    return VectorField3(f.grid, f.grid.grad_arr(f.values))


def div(v: VectorField3) -> ScalarField:
    require_finite(v.values, "div input")
    return ScalarField(v.grid, v.grid.div_arr(v.values))


def curl(v: VectorField3) -> VectorField3:
    require_finite(v.values, "curl input")
    return VectorField3(v.grid, v.grid.curl_arr(v.values))


def hyper_laplacian(v: VectorField3, order: int) -> VectorField3:
    """Apply (-Laplacian)^order: each mode k is scaled by (4 pi^2 |k|^2)^order."""
    if order < 1:
        raise FieldDataError(f"hyper-Laplacian order must be >= 1, got {order}")
    require_finite(v.values, "hyper_laplacian input")
    return VectorField3(v.grid, v.grid.hyper_laplacian_arr(v.values, order))


def integrate(f: ScalarField) -> float:
    """Integral over the unit torus: the mean value (zeroth Fourier mode)."""
    return float(f.values.mean())


def dealias(f: ScalarField | VectorField3) -> ScalarField | VectorField3:
    out = f.grid.dealias_arr(f.values)
    return type(f)(f.grid, out)


def shift(f: ScalarField | VectorField3, delta: Sequence[float]):
    """Translate the field, returning samples of f(x + delta)."""
    return type(f)(f.grid, f.grid.shift_arr(f.values, delta))


def guarded_reciprocal(h: np.ndarray, floor: float = DEFAULT_H_FLOOR,
                       name: str = "h") -> np.ndarray:
    require_positive(h, floor, name)
    return 1.0 / h


def _full_modes(grid: GridSpec, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full complex mode list of one scalar component: (coeffs, wavevectors)."""
    ch = np.fft.fftn(a) / grid.num_points
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
    kvecs = np.stack([kx.ravel(), ky.ravel(), kz.ravel()], axis=1)
    return ch.ravel(), kvecs


def _phase_blocks(pts: np.ndarray, kvecs: np.ndarray):
    """Yield (rows, exp(2 pi i k.x)) for the EVAL_CHUNK points `pts[rows]`
    and every wavevector of `kvecs`, shape (points, modes).

    The phases are separable, exp(2 pi i k.x) = prod_a exp(2 pi i k_a x_a),
    so a block takes one exponential per point and distinct nonzero |k_a|
    of each axis: k_a = 0 gives 1, and -|k_a| the conjugate. It gathers the
    three factors of every mode and multiplies them in place, so at most two
    (points x modes) blocks are alive at once.
    """
    k = np.asarray(kvecs, dtype=float)
    mags = [np.unique(np.abs(k[k[:, a] != 0, a])) for a in range(3)]
    axis_of = np.repeat(np.arange(3), [len(m) for m in mags])
    all_mags = np.concatenate(mags)
    # column of each mode's factor in [1, exp(2 pi i |k_a| x_a) for every
    # axis and magnitude, then the conjugates of those]
    cols, offset = [], 1
    for ka, m in zip(k.T, mags):
        col = (offset + np.searchsorted(m, np.abs(ka))
               + len(all_mags) * (ka < 0))
        cols.append(np.where(ka == 0, 0, col))
        offset += len(m)
    for lo in range(0, pts.shape[0], EVAL_CHUNK):
        rows = slice(lo, lo + EVAL_CHUNK)
        chunk = pts[rows]
        e = np.exp(2j * np.pi * (chunk[:, axis_of] * all_mags))
        factors = np.concatenate([np.ones((len(chunk), 1)), e, e.conj()],
                                 axis=1)
        block = factors[:, cols[0]]
        block *= factors[:, cols[1]]
        block *= factors[:, cols[2]]
        yield rows, block


def _mode_sum(pts: np.ndarray, coeffs: np.ndarray,
              kvecs: np.ndarray) -> np.ndarray:
    """Real part of sum_k c_k exp(2 pi i k.x) at each point, formed
    EVAL_CHUNK points at a time so the phase block stays bounded."""
    out = np.empty(pts.shape[0])
    for rows, phases in _phase_blocks(pts, kvecs):
        out[rows] = (phases @ coeffs).real
    return out


def eval_at(f: ScalarField | VectorField3, points: np.ndarray) -> np.ndarray:
    """Evaluate a band-limited field exactly at arbitrary points.

    Point coordinates are wrapped into [0,1) rather than rejected. The value
    is the exact trigonometric sum of the field's modes, so points on grid
    nodes reproduce the stored samples to round-off.

    Args:
        f: scalar or vector field (its samples define the mode expansion).
        points: array of shape (M, 3) or (3,); they are evaluated
            EVAL_CHUNK at a time against every mode of the field, with the
            phases built from per-axis factor tables (`_phase_blocks`).

    Returns:
        (M,) array for a scalar field, (M, 3) for a vector field.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64)) % 1.0
    comps = f.values if isinstance(f, VectorField3) else f.values[None]
    out = np.empty((pts.shape[0], comps.shape[0]))
    for c in range(comps.shape[0]):
        out[:, c] = _mode_sum(pts, *_full_modes(f.grid, comps[c]))
    if isinstance(f, VectorField3):
        return out
    return out[:, 0]


# ----------------------------------------------------------------------
# Random band-limited test data.
# ----------------------------------------------------------------------

def random_band_limited(grid: GridSpec, rng: np.random.Generator,
                        kmax: int = 3, amplitude: float = 1.0,
                        zero_mean: bool = False) -> ScalarField:
    """Random real field supported on modes with |k_i| <= kmax, sup-normalized."""
    noise = rng.standard_normal(grid.shape)
    nh = grid.fft(noise)
    keep = ((np.abs(grid._kx) <= kmax) & (np.abs(grid._ky) <= kmax)
            & (np.abs(grid._kz) <= kmax))
    nh *= keep
    if zero_mean:
        nh[0, 0, 0] = 0.0
    vals = grid.ifft(nh)
    peak = np.abs(vals).max()
    if peak > 0:
        vals *= amplitude / peak
    return ScalarField(grid, vals)


def project_divergence_free(v: VectorField3) -> VectorField3:
    """Leray projection: remove the gradient part in spectral space."""
    g = v.grid
    vh = g.fft(v.values)
    kx, ky, kz = g._kx, g._ky, g._kz
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    k2safe = np.where(k2 == 0, 1.0, k2)
    kdotv = kx * vh[0] + ky * vh[1] + kz * vh[2]
    vh[0] -= kx * kdotv / k2safe
    vh[1] -= ky * kdotv / k2safe
    vh[2] -= kz * kdotv / k2safe
    return VectorField3(g, g.ifft(vh))


def random_divergence_free(grid: GridSpec, rng: np.random.Generator,
                           kmax: int = 3, amplitude: float = 1.0) -> VectorField3:
    comps = [random_band_limited(grid, rng, kmax, 1.0, zero_mean=True).values
             for _ in range(3)]
    v = project_divergence_free(VectorField3(grid, np.stack(comps)))
    peak = np.abs(v.values).max()
    scale = amplitude / peak if peak > 0 else 1.0
    return VectorField3(grid, v.values * scale)


def random_vector(grid: GridSpec, rng: np.random.Generator, kmax: int = 3,
                  amplitude: float = 1.0) -> VectorField3:
    comps = [random_band_limited(grid, rng, kmax, amplitude).values
             for _ in range(3)]
    return VectorField3(grid, np.stack(comps))
