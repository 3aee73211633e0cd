"""Measure-weighted sample grids and seeded Monte Carlo volume estimation.

Grids are uniform lattices in the log-height coordinate u = log y (resp.
u = log a), where the Riemannian measure factorizes: on the half-plane a
cell [x0,x1] x [u0,u1] has exact measure (x1-x0)(e^{-u0} - e^{-u1}); on
an NA group the height factor is (e^{-nu u0} - e^{-nu u1})/nu.  Monte
Carlo sampling draws directly from the Riemannian measure restricted to
a coordinate box, so indicator estimates are plain binomial proportions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import drsets, hyp2
from .drsets import AdmissibleCylinder, Cylinder
from .htype import HTypeAlgebra
from .hyp2 import H2Family, H2Set
from .report import VolumeEstimate


@dataclass
class SampleGrid:
    """Finite weighted point cloud with attached function values.

    ``space`` is 'h2' or 'na'.  The points form a tensor lattice of
    ``shape`` in C order, with the height axis last; ``axes`` holds the
    sorted centres of each axis (y resp. a for the height axis).
    ``values`` holds the samples of f, one per point, and is the only
    per-point array stored.  A cell's exact Riemannian measure is the
    product of the horizontal steps and a factor of its height, so
    ``height_weights`` holds one cell measure per height index.  The
    per-cell ``weights``, the coordinates x, y (for 'h2') and X (n, p),
    Z (n, q), heights a (for 'na') are read-only properties built on
    every access, so every access allocates a new array.
    """

    space: str
    height_weights: np.ndarray
    values: np.ndarray
    window: tuple
    shape: tuple
    alg: Optional[HTypeAlgebra] = None
    axes: tuple = field(default=(), repr=False)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def weights(self) -> np.ndarray:
        """The exact measure of every cell, in C order: ``height_weights``
        repeated once per horizontal cell."""
        return np.tile(self.height_weights, self.size // self.shape[-1])

    def _coords(self, space: str, k0: int, k1: int) -> np.ndarray:
        """(n, k1 - k0): axes k0..k1-1 of the lattice as per-point columns."""
        if self.space != space:
            raise AttributeError(f"a {self.space} grid has no such coordinate")
        out = np.empty(self.shape + (k1 - k0,))
        for j, k in enumerate(range(k0, k1)):
            out[..., j] = self.axes[k].reshape([-1 if i == k else 1 for i in range(len(self.shape))])
        return out.reshape(self.size, k1 - k0)

    @property
    def x(self) -> np.ndarray:
        return self._coords("h2", 0, 1)[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self._coords("h2", 1, 2)[:, 0]

    @property
    def X(self) -> np.ndarray:
        return self._coords("na", 0, self.alg.p)

    @property
    def Z(self) -> np.ndarray:
        return self._coords("na", self.alg.p, self.alg.p + self.alg.q)

    @property
    def a(self) -> np.ndarray:
        k = len(self.shape) - 1
        return self._coords("na", k, k + 1)[:, 0]

    def total_measure(self) -> float:
        return float(self.weights.sum())

    def set_values(self, f: Callable) -> "SampleGrid":
        """Attach samples of f; f receives coordinate arrays and returns a
        scalar or one value per point."""
        v = f(self.x, self.y) if self.space == "h2" else f(self.X, self.Z, self.a)
        self.values = np.broadcast_to(np.asarray(v, dtype=float), (self.size,)).copy()
        return self


def _axis_centers(lo: float, hi: float, n: int):
    if not hi > lo:
        raise ValueError("degenerate window")
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:]), edges


def build_grid(space: str, window, resolution, alg: HTypeAlgebra = None) -> SampleGrid:
    """Uniform lattice with exact per-cell measure weights.

    For 'h2': window = (x_lo, x_hi, u_lo, u_hi), resolution = (nx, nu).
    For 'na': window = (x_boxes, z_boxes, (u_lo, u_hi)) with one (lo, hi)
    pair per coordinate of v and z, resolution likewise nested.
    """
    if space == "h2":
        (x_lo, x_hi, u_lo, u_hi), (nx, nu) = window, resolution
        xc, _ = _axis_centers(x_lo, x_hi, nx)
        uc, ue = _axis_centers(u_lo, u_hi, nu)
        dx = (x_hi - x_lo) / nx
        wu = np.exp(-ue[:-1]) - np.exp(-ue[1:])
        return SampleGrid(
            space="h2",
            height_weights=dx * wu,
            values=np.zeros(nx * nu),
            window=tuple(window),
            shape=(nx, nu),
            axes=(xc, np.exp(uc)),
        )
    if space == "na":
        if alg is None:
            raise ValueError("na grid requires an algebra")
        x_boxes, z_boxes, (u_lo, u_hi) = window
        nx_list, nz_list, nu = resolution
        axes, steps = [], []
        for (lo, hi), n in zip(list(x_boxes) + list(z_boxes), list(nx_list) + list(nz_list)):
            c, _ = _axis_centers(lo, hi, n)
            axes.append(c)
            steps.append((hi - lo) / n)
        uc, ue = _axis_centers(u_lo, u_hi, nu)
        nu_dim = alg.nu
        wu = (np.exp(-nu_dim * ue[:-1]) - np.exp(-nu_dim * ue[1:])) / nu_dim
        shape = tuple(list(nx_list) + list(nz_list) + [nu])
        # weight of a cell = product of horizontal steps times the height factor
        cell = math.prod(steps) if steps else 1.0
        return SampleGrid(
            space="na",
            height_weights=cell * wu,
            values=np.zeros(math.prod(shape)),
            window=(tuple(map(tuple, x_boxes)), tuple(map(tuple, z_boxes)), (u_lo, u_hi)),
            shape=shape,
            alg=alg,
            axes=(*axes, np.exp(uc)),
        )
    raise ValueError(f"unknown space {space!r}")


# ----------------------------------------------------------- member blocks

def _spans(axes, lo, hi) -> tuple:
    """(i0, i1), each of shape (m, len(axes)): per row, the cells [i0, i1) of
    each sorted axis whose centres may lie in the open interval (lo, hi) of
    that row, padded by one cell per side because the bounds are rounded."""
    i0 = np.column_stack([ax.searchsorted(lo[:, k], side="right") for k, ax in enumerate(axes)]) - 1
    i1 = np.column_stack([ax.searchsorted(hi[:, k], side="left") for k, ax in enumerate(axes)]) + 1
    return np.maximum(i0, 0), np.minimum(i1, [ax.size for ax in axes])


_DESCRIPTORS = {"h2": H2Set, "na": (Cylinder, AdmissibleCylinder)}


def _check_descriptors(grid: SampleGrid, members) -> None:
    if isinstance(members, H2Family):
        members = members[:1]  # one kind of descriptor: check the first
    want = _DESCRIPTORS[grid.space]
    for s in members:
        if isinstance(s, want):
            continue
        if isinstance(s, H2Set):
            raise ValueError("half-plane descriptor on a non-h2 grid")
        if isinstance(s, (Cylinder, AdmissibleCylinder)):
            raise ValueError("cylinder descriptor on a non-na grid")
        raise TypeError(f"unsupported descriptor {type(s)}")


def member_blocks(grid: SampleGrid, members) -> tuple:
    """(lo, hi), int arrays of shape (m, len(grid.shape)): row i is the
    axis-aligned sub-block [lo, hi) of the grid lattice that can meet
    members[i]; every point outside it lies outside the member.

    Half-plane sets (an ``H2Family`` or a list of ``H2Set``) take their
    blocks from ``hyp2.bounding_boxes``, cylinders from
    ``base_ball_box_batch`` and the height suffix above the base; both are
    padded by one cell per side.  Rows may be empty (lo >= hi on some
    axis)."""
    _check_descriptors(grid, members)
    m = len(members)
    if grid.space == "h2":
        box = hyp2.bounding_boxes(H2Family.of(members))
        lo, hi = box[:, 0::2], box[:, 1::2]
    else:
        b_lo, b_hi = base_ball_box_batch(grid.alg, *cylinder_bases(grid.alg, members))
        lo = np.column_stack([b_lo, [c.base_height for c in members]])
        hi = np.column_stack([b_hi, np.full(m, math.inf)])
    return _spans(grid.axes, lo, hi)


def block_mask(grid: SampleGrid, s, block: tuple) -> np.ndarray:
    """Strict membership in s of the points of ``block`` (one slice per axis
    of ``grid.shape``), with the block's shape.

    Both kinds of set are tested on the block's axes, with no point of the
    block built.  A cylinder's horizontal axes are the columns of
    ``drsets.cylinder_contains_batch``, each shaped to run along its own
    dimension of the block, so every term of the translate and of the
    gauge is formed on the axes it depends on (see ``htype``).  The last
    dimension of the columns has length 1, and the heights are passed as
    the block's 1-D last axis: the base-ball test gives one verdict per
    horizontal point, the height test one per height, and their AND
    broadcasts to the block's shape, where the cylinder is a suffix."""
    if grid.space == "h2":
        xs, ys = grid.axes
        return hyp2.contains_mask(s, xs[block[0], None], ys[None, block[1]])
    alg, d = grid.alg, len(block)
    *horiz, a = (ax[sl] for ax, sl in zip(grid.axes, block))
    cols = [ax.reshape([-1 if i == k else 1 for i in range(d)]) for k, ax in enumerate(horiz)]
    return drsets.cylinder_contains_batch(alg, s, cols[: alg.p], cols[alg.p :], a)


def membership_mask(grid: SampleGrid, s) -> tuple:
    """(block, mask): the block of ``member_blocks`` for s, as one slice per
    axis of ``grid.shape``, and the strict membership of the block's points
    in s, with the block's shape.

    Every point outside the block lies outside s.  Selecting a per-cell
    array through ``arr.reshape(grid.shape)[block][mask]`` yields the
    member's cells in the same C order as a full-grid mask would."""
    lo, hi = member_blocks(grid, [s])
    block = tuple(map(slice, lo[0].tolist(), hi[0].tolist()))
    return block, block_mask(grid, s, block)


def cylinder_bases(alg: HTypeAlgebra, cyls) -> tuple:
    """Centres X (m, p), Z (m, q) and base radii (m,) of the cylinders."""
    m = len(cyls)
    X = np.array([c.n0.X for c in cyls]).reshape(m, alg.p)
    Z = np.array([c.n0.Z for c in cyls]).reshape(m, alg.q)
    return X, Z, np.array([c.base_radius for c in cyls])


def base_ball_box(alg: HTypeAlgebra, c) -> tuple:
    """(lo, hi) over the p + q horizontal coordinates: an open box holding
    every point that the rounded test gauge(n0^{-1} n) < r of the cylinder
    c accepts.  A one-row call of ``base_ball_box_batch``."""
    lo, hi = base_ball_box_batch(alg, c.n0.X[None, :], c.n0.Z[None, :], np.array([c.base_radius]))
    return lo[0], hi[0]


def base_ball_box_batch(alg: HTypeAlgebra, X0, Z0, r) -> tuple:
    """(lo, hi), each of shape (m, p + q): row i is the open box of
    ``base_ball_box`` for the base ball of radius r[i] about (X0[i], Z0[i])."""
    r = np.asarray(r, dtype=float)[:, None]
    aX0 = np.abs(X0)
    # gauge < r gives |X - X0| < 2r and |Z - Z0 - [X0, X - X0]/2| < r^2 (the
    # bracket is antisymmetric), so |Z_k - Z0_k| < r^2 + r sum_ij |X0_i c_ijk|;
    # the sum over i runs in index order, whatever the number of rows
    cx = (aX0[:, :, None] * np.abs(alg.bracket_coeffs).sum(axis=1)).sum(axis=1)
    x_half = 2.0 * r
    z_half = r * r + r * cx
    # the test rounds X - X0, Z - Z0 and the bracket [X0, X], whose terms
    # reach cx |X|; widen each side far beyond those rounding errors
    x_half = x_half + 1e-9 * (aX0 + x_half)
    z_half = z_half + 1e-9 * (np.abs(Z0) + z_half + cx * (aX0.max(axis=1, initial=0.0)[:, None] + 2.0 * r))
    return np.hstack([X0 - x_half, Z0 - z_half]), np.hstack([X0 + x_half, Z0 + z_half])


# -------------------------------------------------------------- Monte Carlo

def sample_h2_box(box, samples: int, rng) -> tuple:
    """Draw from the hyperbolic measure restricted to box = (x_lo, x_hi,
    y_lo, y_hi); y_hi may be inf.  Returns (x, y, box_measure)."""
    x_lo, x_hi, y_lo, y_hi = box
    inv_hi = 0.0 if math.isinf(y_hi) else 1.0 / y_hi
    x = rng.uniform(x_lo, x_hi, samples)
    v = rng.uniform(0.0, 1.0, samples)
    y = 1.0 / (1.0 / y_lo - v * (1.0 / y_lo - inv_hi))
    return x, y, (x_hi - x_lo) * (1.0 / y_lo - inv_hi)


def sample_na_box(alg: HTypeAlgebra, box, samples: int, rng) -> tuple:
    """Draw from the NA Haar measure restricted to box = (x_boxes, z_boxes,
    (a_lo, a_hi)); a_hi may be inf.  Returns (X, Z, a, box_measure)."""
    x_boxes, z_boxes, (a_lo, a_hi) = box
    nu = alg.nu
    X = np.column_stack([rng.uniform(lo, hi, samples) for lo, hi in x_boxes]) if alg.p else np.zeros((samples, 0))
    Z = np.column_stack([rng.uniform(lo, hi, samples) for lo, hi in z_boxes])
    hi_term = 0.0 if math.isinf(a_hi) else a_hi**-nu
    v = rng.uniform(0.0, 1.0, samples)
    a = (a_lo**-nu - v * (a_lo**-nu - hi_term)) ** (-1.0 / nu)
    horiz = math.prod(hi - lo for lo, hi in list(x_boxes) + list(z_boxes))
    return X, Z, a, horiz * (a_lo**-nu - hi_term) / nu


def mc_volume(space: str, s, box, samples: int, seed: int, alg: HTypeAlgebra = None) -> VolumeEstimate:
    """Seeded Monte Carlo volume of the descriptor s inside a coordinate
    box; exact-measure sampling makes the indicator a Bernoulli draw."""
    rng = np.random.default_rng(seed)
    if space == "h2":
        x, y, total = sample_h2_box(box, samples, rng)
        mask = hyp2.contains_mask(s, x, y)
    elif space == "na":
        if alg is None:
            raise ValueError("na sampling requires an algebra")
        X, Z, a, total = sample_na_box(alg, box, samples, rng)
        mask = drsets.cylinder_contains_batch(alg, s, X.T, Z.T, a)
    else:
        raise ValueError(f"unknown space {space!r}")
    hits = int(np.count_nonzero(mask))
    if not hits:
        warnings.warn("Monte Carlo produced zero hits; box likely misses the set")
    return VolumeEstimate.of_hits(total, hits, samples, seed)


def suggested_box_h2(s: H2Set) -> tuple:
    """Coordinate box containing s, padded by a tenth of its width and of
    its heights so the estimate is nontrivial."""
    x_lo, x_hi, y_lo, y_hi = hyp2.bounding_box(s)
    w = x_hi - x_lo
    x_lo, x_hi = x_lo - 0.1 * w, x_hi + 0.1 * w
    y_lo = y_lo / 1.1
    if not math.isinf(y_hi):
        y_hi = y_hi * 1.1
    return (x_lo, x_hi, y_lo, y_hi)
