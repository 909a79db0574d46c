"""Spectral field algebra on the periodic unit torus [0,1)^3.

Fields are real samples on a uniform n x n x n grid (row-major over x, y, z).
All differential operators act through the real FFT, so derivatives are exact
for band-limited data. Pointwise products are formed in physical space and
dealiased by the 2/3 rule (Orszag 1971): a product that is differentiated
next is transformed once into its band spectrum (`fft(a, band=True)`), which
holds only the kept modes |k_i| <= m = n//3, shape (..., 2m+1, 2m+1, m+1).
The derivative symbol 2 pi i k acts on the band (`curl_hat`, `div_hat`,
`grad_hat`, and `div_sym_masked` for symmetric tensors) before the single
inverse transform, and `ifft` tells a band spectrum from a full one by its
last axis. The band transforms skip the FFT lines known to be zero (pruning,
Markel 1971) and keep numpy's axis order, so they equal the masked full
transforms bit for bit. Divisions by a density are done in physical space
behind a positivity guard.

Point evaluation sums a field's mode list exactly, without spreading to a
grid (the exact counterpart of a type-2 nonuniform FFT): `ModalScalar` keeps
one mode list for all components, the union of their modes above
MODE_REL_TOL of their largest, and `eval_at` evaluates it. The phases are
separable: `_phase_blocks` takes exp(2 pi i k_a x_a) over the distinct |k_a|
of each axis and multiplies the three factors of every mode in place,
EVAL_CHUNK points at a time, each block serving every component, for
`ModalScalar.eval` and the point side of `galerkin.TrigBasis`. The pointwise
vector algebra and the energy integral that the solvers share live here too.

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
    "integrate",
    "eval_at",
    "ModalScalar",
    "ModalVector",
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
# `ModalScalar.eval` and the point side of `galerkin.TrigBasis`
EVAL_CHUNK = 256

# ModalScalar.from_field keeps the modes with |c| > MODE_REL_TOL * max |c|
MODE_REL_TOL = 1e-14

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


def require_finite(values: np.ndarray, name: str = "field") -> None:
    """Reject non-finite data, naming the first offending index."""
    if not np.isfinite(values).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
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

    @property
    def points(self) -> np.ndarray:
        """Coordinates of every node as rows, shape (n^3, 3)."""
        return np.stack([m.ravel() for m in self.mesh], axis=1)

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

    # A band spectrum holds the modes that the 2/3 rule keeps, |k_i| <= m =
    # n//3: kx and ky at the FFT-order lines 0..m, -m..-1 and kz at 0..m.

    @property
    def _band_shape(self) -> tuple[int, int, int]:
        m = self.n // 3
        return (2 * m + 1, 2 * m + 1, m + 1)

    @cached_property
    def _band_lines(self) -> np.ndarray:
        """Indices of the kept kx (and ky) lines in the full layout."""
        m = self.n // 3
        return np.r_[0:m + 1, self.n - m:self.n]

    @cached_property
    def _band_at(self) -> tuple:
        """Index of a band spectrum's modes in the full layout."""
        lines = self._band_lines
        return (Ellipsis, *np.ix_(lines, lines, np.arange(self._band_shape[2])))

    # ------------------------------------------------------------------
    # Raw-array spectral kernels. Solvers use these on plain ndarrays; the
    # public operations below wrap them with the field types and checks.
    # ------------------------------------------------------------------

    def fft(self, a: np.ndarray, band: bool = False) -> np.ndarray:
        """Spectrum of `a`; with `band`, its 2/3-rule band spectrum: rfft
        along z, then fft along y on the kept kz columns and along x on the
        kept (ky, kz) lines."""
        if not band:
            return np.fft.rfftn(a, axes=(-3, -2, -1))
        lines = self._band_lines
        ah = np.fft.rfftn(a, axes=(-1,))[..., :self._band_shape[2]]
        ah = np.fft.fft(ah, axis=-2).take(lines, axis=-2)
        return np.fft.fft(ah, axis=-3).take(lines, axis=-3)

    def ifft(self, ah: np.ndarray) -> np.ndarray:
        """Physical values of a full or band spectrum (told apart by the
        last axis, n//2+1 or n//3+1). A band spectrum is scattered into x
        lines, inverted along x on its (ky, kz) lines, along y on its kz
        columns, and along z by irfft, which pads kz itself."""
        if ah.shape[-1] != self._band_shape[2]:
            return np.fft.irfftn(ah, s=self.shape, axes=(-3, -2, -1))
        n, lines = self.n, self._band_lines
        lead, kz = ah.shape[:-3], ah.shape[-1]
        ax = np.zeros((*lead, n, len(lines), kz), dtype=complex)
        ax[..., lines, :, :] = ah
        ay = np.zeros((*lead, n, n, kz), dtype=complex)
        ay[..., lines, :] = np.fft.ifft(ax, axis=-3)
        return np.fft.irfftn(np.fft.ifft(ay, axis=-2), s=(n,), axes=(-1,))

    @cached_property
    def _ik(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derivative symbols 2 pi i k_x, 2 pi i k_y, 2 pi i k_z."""
        two_pi_i = 2j * np.pi
        return two_pi_i * self._kx, two_pi_i * self._ky, two_pi_i * self._kz

    @cached_property
    def _ik_band(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        dx, dy, dz = self._ik
        lines = self._band_lines
        return dx[lines], dy[:, lines], dz[..., :self._band_shape[2]]

    def _symbols(self, ah: np.ndarray) -> tuple[np.ndarray, ...]:
        """The derivative symbols in the layout of the spectrum `ah`."""
        band = ah.shape[-1] == self._band_shape[2]
        return self._ik_band if band else self._ik

    # Spectral-input kernels: they map spectra to spectra of the same
    # layout, so a caller can sum several terms before one inverse transform.

    def grad_hat(self, ah: np.ndarray) -> np.ndarray:
        dx, dy, dz = self._symbols(ah)
        return np.stack([ah * dx, ah * dy, ah * dz])

    def div_hat(self, vh: np.ndarray) -> np.ndarray:
        dx, dy, dz = self._symbols(vh)
        return vh[0] * dx + vh[1] * dy + vh[2] * dz

    def curl_hat(self, vh: np.ndarray) -> np.ndarray:
        dx, dy, dz = self._symbols(vh)
        return np.stack([dy * vh[2] - dz * vh[1],
                         dz * vh[0] - dx * vh[2],
                         dx * vh[1] - dy * vh[0]])

    def div_sym_masked(self, entries: Iterable[np.ndarray]) -> np.ndarray:
        """Band spectrum of the row divergence d_j T_ij of a symmetric
        tensor, with its entries dealiased by the 2/3 rule.

        `entries` yields the six distinct entries T_ij in SYM_PAIRS order,
        in physical space; each is transformed once, and a generator keeps
        only one of them alive at a time.
        """
        out = np.zeros((3, *self._band_shape), dtype=complex)
        ik = self._ik_band
        for (i, j), t in zip(SYM_PAIRS, entries):
            th = self.fft(t, band=True)
            out[i] += ik[j] * th
            if i != j:
                out[j] += ik[i] * th
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
        return self.ifft(self.fft(a, band=True))

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
    return VectorField3(f.grid, f.grid.grad_arr(f.values))


def div(v: VectorField3) -> ScalarField:
    return ScalarField(v.grid, v.grid.div_arr(v.values))


def curl(v: VectorField3) -> VectorField3:
    return VectorField3(v.grid, v.grid.curl_arr(v.values))


def integrate(f: ScalarField) -> float:
    """Integral over the unit torus: the mean value (zeroth Fourier mode)."""
    return float(f.values.mean())


def dealias(f: ScalarField | VectorField3) -> ScalarField | VectorField3:
    out = f.grid.dealias_arr(f.values)
    return type(f)(f.grid, out)


def shift(f: ScalarField | VectorField3, delta: Sequence[float]):
    """Translate the field, returning samples of f(x + delta)."""
    return type(f)(f.grid, f.grid.shift_arr(f.values, delta))


def guarded_reciprocal(h: np.ndarray) -> np.ndarray:
    require_positive(h)
    return 1.0 / h


# ----------------------------------------------------------------------
# Shared pointwise algebra, energy integral and exact point evaluation.
# ----------------------------------------------------------------------

def cross_component(a: np.ndarray, b: np.ndarray, i: int) -> np.ndarray:
    """Component i of a x b."""
    j, k = (i + 1) % 3, (i + 2) % 3
    return a[j] * b[k] - a[k] * b[j]


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([cross_component(a, b, i) for i in range(3)])


def vec_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(a[0] ** 2 + a[1] ** 2 + a[2] ** 2)


def _matvec(M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise M w for a (3, 3, ...) matrix field and a (3, ...) vector."""
    return np.einsum("ij...,j...->i...", M, w)


def _curl_of(jac: np.ndarray) -> np.ndarray:
    """Curl from a Jacobian [i, j] = d_j v_i: curl_i = J[k, j] - J[j, k]
    for (i, j, k) cyclic."""
    return np.stack([jac[2, 1] - jac[1, 2],
                     jac[0, 2] - jac[2, 0],
                     jac[1, 0] - jac[0, 1]])


def _energy_arrays(h: np.ndarray, *vectors: np.ndarray) -> float:
    """integral((1 + sum |V|^2) / (2h)) over the vector fields V: the DMHD
    energy of (h, B) and the ABI entropy of (h, B, D, P)."""
    r = guarded_reciprocal(h)
    nsq = sum((V ** 2).sum(0) for V in vectors)
    return float(((1.0 + nsq) * r * 0.5).mean())


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


@dataclass(frozen=True)
class ModalScalar:
    """Explicit mode list of a band-limited field: wavevectors (modes, 3)
    shared by its k components, coefficients (modes,) or (modes, k)."""

    kvecs: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_field(cls, f: ScalarField | VectorField3) -> "ModalScalar":
        return cls.from_values(f.grid, f.values)

    @classmethod
    def from_values(cls, g: GridSpec, values: np.ndarray) -> "ModalScalar":
        """The union of the modes above MODE_REL_TOL of their component's
        largest in values (n, n, n) or (k, n, n, n), zero where not kept."""
        c = np.fft.fftn(values, axes=(-3, -2, -1)) / g.num_points
        flat = c.reshape(-1, g.num_points)
        mag = np.abs(flat)
        kept = mag > MODE_REL_TOL * mag.max(axis=1, keepdims=True)
        keep = kept.any(0)
        k = np.fft.fftfreq(g.n, d=1.0 / g.n)
        kv = np.stack(np.meshgrid(k, k, k, indexing="ij"), -1).reshape(-1, 3)
        coeffs = np.where(kept, flat, 0)[:, keep].T.copy()
        return cls(kv[keep], coeffs.reshape(-1) if values.ndim == 3 else coeffs)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Real part of sum_k c_k exp(2 pi i k.x) at each point, (M,) or
        (M, k), in one pass over EVAL_CHUNK-point phase blocks."""
        pts = np.asarray(points, dtype=float)
        out = np.empty((pts.shape[0], *self.coeffs.shape[1:]))
        for rows, phases in _phase_blocks(pts, self.kvecs):
            out[rows] = (phases @ self.coeffs).real
        return out


ModalVector = ModalScalar     # the mode list of a VectorField3 has k = 3


def eval_at(f: ScalarField | VectorField3, points: np.ndarray) -> np.ndarray:
    """Exact values of a band-limited field at points (M, 3) or (3,), wrapped
    into [0,1): the trigonometric sum of its mode list, shape (M,) for a
    scalar field and (M, 3) for a vector field. Grid nodes reproduce the
    stored samples to round-off."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64)) % 1.0
    return ModalScalar.from_field(f).eval(pts)


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
