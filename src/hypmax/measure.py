"""Measure-weighted sample grids and seeded Monte Carlo volume estimation.

Grids are uniform lattices in the log-height coordinate u = log y (resp.
u = log a), where the Riemannian measure factorizes: on the half-plane a
cell [x0,x1] x [u0,u1] has exact measure (x1-x0)(e^{-u0} - e^{-u1}); on
an NA group the height factor is (e^{-nu u0} - e^{-nu u1})/nu.  Monte
Carlo sampling draws directly from the Riemannian measure restricted to
a coordinate box, so indicator estimates are plain binomial proportions;
the draws stream in chunks of ``drsets.MC_CHUNK`` samples, with the values
of one draw of each coordinate.

Members reach a grid as a family, through one conversion, ``family_of``:
``hyp2.H2Family`` on 'h2', ``drsets.CylFamily`` on 'na'.  The family class
owns its boxes, block masks, cells and point test; ``member_blocks`` spans
the boxes on the grid's axes, ``membership_mask`` adds one block mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import drsets, hyp2
from .drsets import CylFamily
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
    pair per coordinate of v and z, resolution likewise nested.  The
    half-plane is the lattice with one horizontal axis and nu = 1.
    """
    if space == "h2":
        (x_lo, x_hi, u_lo, u_hi), (nx, n_u) = window, resolution
        boxes, counts, nu = [(x_lo, x_hi)], [nx], 1.0
        window = tuple(window)
    elif space == "na":
        if alg is None:
            raise ValueError("na grid requires an algebra")
        x_boxes, z_boxes, (u_lo, u_hi) = window
        nx_list, nz_list, n_u = resolution
        boxes, counts, nu = [*x_boxes, *z_boxes], [*nx_list, *nz_list], alg.nu
        window = (tuple(map(tuple, x_boxes)), tuple(map(tuple, z_boxes)), (u_lo, u_hi))
    else:
        raise ValueError(f"unknown space {space!r}")
    axes = [_axis_centers(lo, hi, n)[0] for (lo, hi), n in zip(boxes, counts)]
    uc, ue = _axis_centers(u_lo, u_hi, n_u)
    wu = (np.exp(-nu * ue[:-1]) - np.exp(-nu * ue[1:])) / nu
    shape = (*counts, n_u)
    # weight of a cell = product of horizontal steps times the height factor
    cell = math.prod((hi - lo) / n for (lo, hi), n in zip(boxes, counts))
    return SampleGrid(
        space=space,
        height_weights=cell * wu,
        values=np.zeros(math.prod(shape)),
        window=window,
        shape=shape,
        alg=alg,
        axes=(*axes, np.exp(uc)),
    )


# ----------------------------------------------------------- member blocks

def _spans(axes, lo, hi) -> tuple:
    """(i0, i1), each of shape (m, len(axes)): per row, the cells [i0, i1) of
    each sorted axis whose centres may lie in the open interval (lo, hi) of
    that row, padded by one cell per side because the bounds are rounded."""
    i0 = np.column_stack([ax.searchsorted(lo[:, k], side="right") for k, ax in enumerate(axes)]) - 1
    i1 = np.column_stack([ax.searchsorted(hi[:, k], side="left") for k, ax in enumerate(axes)]) + 1
    return np.maximum(i0, 0), np.minimum(i1, [ax.size for ax in axes])


_FAMILY = {cls.space: cls for cls in (H2Family, CylFamily)}


def family_of(grid: SampleGrid, members):
    """``members`` as the family class of the grid's space (an ``H2Family``
    on 'h2', a ``CylFamily`` on 'na'): a family of that class is returned as
    it is, a list is turned into one.  This is the one conversion; the
    family owns its boxes, block masks, cells and point test.  The first
    member of the other space raises ``ValueError``, the first that is of
    no space (or an iterator of members) ``TypeError``."""
    own = _FAMILY[grid.space]
    if isinstance(members, own):
        return members
    if iter(members) is members:
        raise TypeError("members must be a family or a sequence: the operators index them")
    for s in members:
        if not isinstance(s, own.member_types):
            space = next((cls.space for cls in _FAMILY.values() if isinstance(s, cls.member_types)), None)
            if space is None:
                raise TypeError(f"unsupported descriptor {type(s)}")
            raise ValueError(f"{type(s).__name__} descriptor of the {space} space on an {grid.space} grid")
    return own.on(grid, members)


def member_blocks(grid: SampleGrid, members) -> tuple:
    """(lo, hi), int arrays of shape (m, len(grid.shape)): row i is the
    axis-aligned sub-block [lo, hi) of the grid lattice that can meet
    members[i]; every point outside it lies outside the member.

    The blocks span the boxes of the family (``family_of``): searchsorted
    on the axis centres, padded by one cell per side.  Rows may be empty
    (lo >= hi on some axis)."""
    return _spans(grid.axes, *family_of(grid, members).boxes())


def membership_mask(grid: SampleGrid, s) -> tuple:
    """(block, mask): the block of ``member_blocks`` for s, as one slice per
    axis of ``grid.shape``, and the strict membership of the block's points
    in s (the family's ``block_mask``), with the block's shape.

    Every point outside the block lies outside s.  Selecting a per-cell
    array through ``arr.reshape(grid.shape)[block][mask]`` yields the
    member's cells in the same C order as a full-grid mask would."""
    fam = family_of(grid, [s])
    lo, hi = member_blocks(grid, fam)
    block = tuple(map(slice, lo[0].tolist(), hi[0].tolist()))
    return block, fam.block_mask(0, grid, block)


# -------------------------------------------------------------- Monte Carlo

def _pcg64_after(state: dict, draws: int) -> np.random.Generator:
    """A generator on a copy of the PCG64 ``state``, advanced by ``draws``
    64-bit outputs."""
    bits = np.random.PCG64(0)
    bits.state = state
    return np.random.Generator(bits.advance(draws))


def uniform_chunks(rng, bounds, samples: int):
    """The columns ``rng.uniform(lo_k, hi_k, samples)``, one per (lo_k,
    hi_k) of ``bounds``, drawn in that order, as an iterator that yields,
    for each run of at most ``drsets.MC_CHUNK`` samples in order, the list
    of the columns' values on that run, bit for bit those of the one-shot
    draws.  On return ``rng`` is advanced past all the draws, to the state
    the one-shot draws leave.

    A PCG64 double takes one 64-bit output, so column k of the one-shot
    draws starts k * samples outputs after ``rng``'s state: it is drawn
    from a copy of the generator advanced that far, and each chunk takes the
    next values of every copy.  ``advance`` clears the generator's buffered
    32-bit half, which doubles do not use, so ``rng`` keeps its own."""
    if type(rng.bit_generator) is not np.random.PCG64:
        raise TypeError("streamed draws need a PCG64 generator")
    start = rng.bit_generator.state
    gens = [_pcg64_after(start, k * samples) for k in range(len(bounds) + 1)]
    rng.bit_generator.state = gens.pop().bit_generator.state | {
        k: start[k] for k in ("has_uint32", "uinteger")
    }
    return (
        [g.uniform(lo, hi, min(drsets.MC_CHUNK, samples - i)) for g, (lo, hi) in zip(gens, bounds)]
        for i in range(0, samples, drsets.MC_CHUNK)
    )


def h2_box_chunks(box, samples: int, rng) -> tuple:
    """(chunks, box_measure): ``samples`` draws from the hyperbolic measure
    restricted to box = (x_lo, x_hi, y_lo, y_hi), y_hi may be inf, as an
    iterator of (x, y) over runs of at most ``drsets.MC_CHUNK`` samples
    (``uniform_chunks`` of x and of the height's uniform variable)."""
    x_lo, x_hi, y_lo, y_hi = box
    inv_lo, inv_hi = 1.0 / y_lo, 0.0 if math.isinf(y_hi) else 1.0 / y_hi
    cols = uniform_chunks(rng, [(x_lo, x_hi), (0.0, 1.0)], samples)
    chunks = ((x, 1.0 / (inv_lo - v * (inv_lo - inv_hi))) for x, v in cols)
    return chunks, (x_hi - x_lo) * (inv_lo - inv_hi)


def sample_h2_box(box, samples: int, rng) -> tuple:
    """(x, y, box_measure): all the draws of ``h2_box_chunks`` at once."""
    chunks, total = h2_box_chunks(box, samples, rng)
    x, y = (np.concatenate(col) for col in zip(*chunks))
    return x, y, total


def na_box_chunks(alg: HTypeAlgebra, box, samples: int, rng) -> tuple:
    """(chunks, box_measure): ``samples`` draws from the NA Haar measure
    restricted to box = (x_boxes, z_boxes, (a_lo, a_hi)), a_hi may be inf,
    as an iterator of (X, Z, a) over runs of at most ``drsets.MC_CHUNK``
    samples, X and Z the lists of the p and q horizontal columns
    (``uniform_chunks`` of each coordinate and of the height's uniform
    variable)."""
    x_boxes, z_boxes, (a_lo, a_hi) = box
    nu, p = alg.nu, alg.p
    lo_term, hi_term = a_lo**-nu, 0.0 if math.isinf(a_hi) else a_hi**-nu
    cols = uniform_chunks(rng, [*x_boxes, *z_boxes, (0.0, 1.0)], samples)
    chunks = ((c[:p], c[p:-1], (lo_term - c[-1] * (lo_term - hi_term)) ** (-1.0 / nu)) for c in cols)
    horiz = math.prod(hi - lo for lo, hi in [*x_boxes, *z_boxes])
    return chunks, horiz * (lo_term - hi_term) / nu


def mc_volume(space: str, s, box, samples: int, seed: int, alg: HTypeAlgebra = None) -> VolumeEstimate:
    """Seeded Monte Carlo volume of the descriptor s inside a coordinate
    box; exact-measure sampling makes the indicator a Bernoulli draw.  The
    hits are counted chunk by chunk (``h2_box_chunks``, ``na_box_chunks``),
    so the draws held at a time do not grow with ``samples``.  A draw with
    no hit raises ``report.NoHits`` (``VolumeEstimate.of_hits``)."""
    rng = np.random.default_rng(seed)
    if space == "h2":
        chunks, total = h2_box_chunks(box, samples, rng)
        masks = (hyp2.contains_mask(s, x, y) for x, y in chunks)
    elif space == "na":
        if alg is None:
            raise ValueError("na sampling requires an algebra")
        chunks, total = na_box_chunks(alg, box, samples, rng)
        masks = (drsets.cylinder_contains_batch(alg, s, X, Z, a) for X, Z, a in chunks)
    else:
        raise ValueError(f"unknown space {space!r}")
    hits = sum(int(np.count_nonzero(mask)) for mask in masks)
    return VolumeEstimate.of_hits(total, hits, samples)


def suggested_box_h2(s: H2Set) -> tuple:
    """Coordinate box containing s: ``hyp2.bounding_box``, which fits s at
    every radius, padded by a tenth of its width and of its log-height span
    (the heights by at most a factor 1.1), so the estimate is nontrivial at
    every admitted radius."""
    x_lo, x_hi, y_lo, y_hi = hyp2.bounding_box(s)
    w = x_hi - x_lo
    x_lo, x_hi = x_lo - 0.1 * w, x_hi + 0.1 * w
    grow = min(1.1, (y_hi / y_lo) ** 0.1)
    return (x_lo, x_hi, y_lo / grow, y_hi * grow)
