"""Lattice discretization of near-ball domains in C^n (n = 1 or 2).

A domain is a uniform Cartesian grid on a symmetric box in R^{2n}.  Nodes
strictly inside the continuum shape with full stencil support are interior;
the value-carrying collar around them is the boundary set.  Dirichlet data
is tied to the continuum boundary through per-node extrapolation constraints
through cut points: three-point, exact on quadratics, where two interior
nodes line up behind the boundary node, else two-point, exact on linears.

Complex derivatives follow d/dz_i = (d/dx_i - i d/dy_i)/2; real coordinate
axes are ordered (x_1, y_1, ..., x_n, y_n).  Every finite difference is
read at a set of flat node indices through one lookup (node_lookup): the
centered differences (node_differences), the complex Hessian fields over
a node set (hessian_fields) and at one node (node_jet, complex_hessian)
are arrays over the nodes read, NaN where the stencil leaves the box or
meets an unvalued node.  Nothing differentiates the whole box.  The
complex Hessian at a node is a complex (n, n) array.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import BoundaryConstraintError, MemoryCapError, StencilViolationError

CACHE_MAGIC = b"CMAG"
CACHE_VERSION = 1
_MEMORY_CAP_BYTES = 2 << 30     # largest solve footprint build_domain accepts
# Peak RSS per lattice node of build_domain plus two Dirichlet solves, net of
# the imports, from tools/solver_memory.py with at least 15% headroom: n=1,
# whose LU factor is ordered by minimum degree on A + A^T, reads 877 / 717
# / 736 / 797 B at res 65 / 129 / 257 / 513 (COLAMD read up to 1608 B, and
# 1850 B is kept so that no lattice changes admission); n=2, where odd and even
# lattices alike coarsen to a V-cycle level of at most 7 nodes per axis and
# Newton steps never fold their operator, reads 272 / 281 / 272 / 285 / 291
# / 276 / 284 / 287 / 287 B at res 16 / 17 / 18 / 20 / 24 / 33 / 40 / 44 /
# 45.  At 480 B the cap admits every n=2 resolution from 9 to 45.
_BYTES_PER_NODE = {1: 1850, 2: 480}
COARSEST_RES = 5        # fewest nodes per axis of a multigrid coarse lattice


# ---------------------------------------------------------------------------
# Lattice offsets and shifts


def shift(mask: np.ndarray, off) -> np.ndarray:
    """The boolean mask read at x + off; False where x + off leaves the box."""
    out = np.zeros_like(mask)
    out[tuple(slice(max(-o, 0), s - max(o, 0)) for o, s in zip(off, mask.shape))] = (
        mask[tuple(slice(max(o, 0), s + min(o, 0)) for o, s in zip(off, mask.shape))])
    return out


def _offset(d: int, steps) -> tuple[int, ...]:
    """Lattice offset moving s along axis a for each (a, s) in steps."""
    o = [0] * d
    for a, s in steps:
        o[a] = s
    return tuple(o)


def lattice_offsets(d: int, pairs=()) -> list[tuple[int, ...]]:
    """Axis steps (-e_a, +e_a for each axis a), then the four diagonals
    (--, -+, +-, ++) of each axis pair (a, b), in that order."""
    return ([_offset(d, [(a, s)]) for a in range(d) for s in (-1, 1)]
            + [_offset(d, [(a, sa), (b, sb)]) for a, b in pairs
               for sa in (-1, 1) for sb in (-1, 1)])


def mixed_terms(d: int, a: int, b: int) -> list[tuple[tuple[int, ...], float]]:
    """(offset, sign) of the mixed difference D_ab, in summation order; the
    signed sum over the four diagonals is divided by 4 h^2."""
    return [(_offset(d, [(a, sa), (b, sb)]), sign)
            for sa, sb, sign in ((1, 1, 1.0), (1, -1, -1.0), (-1, 1, -1.0), (-1, -1, 1.0))]


def mask_window(mask: np.ndarray) -> tuple[slice, ...] | None:
    """The mask's bounding box padded by one node and clipped to the
    lattice, from per-axis projections; None for an empty mask."""
    out = []
    for a in range(mask.ndim):
        hit = np.flatnonzero(mask.any(axis=tuple(b for b in range(mask.ndim) if b != a)))
        if hit.size == 0:
            return None
        out.append(slice(max(hit[0] - 1, 0), hit[-1] + 2))
    return tuple(out)


def grow(mask: np.ndarray, diagonal: bool) -> np.ndarray:
    """The mask dilated by one node: to its face neighbours, or with
    `diagonal` to its whole Moore cube, which is the face step along each
    axis in turn."""
    out = mask.copy()
    for a in range(mask.ndim):
        line = out.swapaxes(a, 0)
        # In place: numpy reads an operand that overlaps its output as a
        # copy.  In the Moore case the down step reads the up step's output,
        # whose new nodes copy the node below them, so it adds only the
        # step down from what the earlier axes grew.
        src = line if diagonal else mask.swapaxes(a, 0)
        line[1:] |= src[:-1]
        line[:-1] |= src[1:]
    return out


def component(mask: np.ndarray, seed: tuple) -> np.ndarray:
    """The face-connected component of the mask through `seed`; empty when
    the seed is off the mask.

    The work runs on the mask's bounding box.  Along each axis the mask
    splits into runs of consecutive nodes, numbered by one cumsum over the
    runs' first nodes.  Each sweep along an axis takes in every run that
    holds a reached node.  Once the sweeps along every axis since the one
    that last grew the reached set have added nothing, it is closed under
    face steps.
    """
    out = np.zeros_like(mask)
    if not mask[seed]:
        return out
    win = mask_window(mask)
    box = mask[win]
    d = box.ndim
    # per axis: the run number of each mask node of the box, in C order
    runs = []
    for a in range(d):
        lines = box.swapaxes(a, -1)
        first = lines.copy()
        first[..., 1:] &= ~lines[..., :-1]
        number = np.cumsum(first, axis=None)
        runs.append((number.reshape(lines.shape).swapaxes(a, -1)[box], number[-1] + 1))
    reached = np.zeros(runs[0][0].size, dtype=bool)
    at = np.ravel_multi_index([c - w.start for c, w in zip(seed, win)], box.shape)
    reached[np.count_nonzero(box.ravel()[:at])] = True
    count, closed, a = 1, 0, 0
    while closed < d and count < reached.size:
        run, size = runs[a]
        hit = np.zeros(size, dtype=bool)
        hit[run[reached]] = True
        reached = hit[run]
        grown = int(np.count_nonzero(reached))
        closed = closed + 1 if grown == count else 1
        count, a = grown, (a + 1) % d
    out[win][box] = reached
    return out


# Offsets the complex-Hessian stencil touches.  Pure second differences use
# axis steps; the mixed terms of u_{z_i zbar_j} (i != j) pair a real axis of
# z_i with one of z_j, so n = 1 needs no diagonals at all and n = 2 only
# cross-pair diagonals (never x_i with its own y_i).
def _stencil_offsets(d: int) -> list[tuple[int, ...]]:
    return lattice_offsets(d, [(a, b) for a, b in combinations(range(d), 2) if a // 2 != b // 2])


# ---------------------------------------------------------------------------
# Continuum shapes


class BallShape:
    """Exact ball of radius r centered at the origin."""

    kind = "ball"

    def __init__(self, radius: float):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def outer_radius(self) -> float:
        return self.radius

    def signed(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(pts, axis=-1) - self.radius

    def spec(self) -> dict:
        return {"kind": self.kind, "radius": self.radius}


def _profile_cos3(pts, r):
    # cos(3*theta) in the first complex plane; |.| <= 1 by construction.
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    return np.cos(3.0 * theta)


def _profile_harmonic(pts, r):
    # (x_1^2 - y_1^2)/|x|^2, a smooth direction function bounded by 1.
    r2 = np.maximum(r * r, 1e-300)
    return (pts[:, 0] ** 2 - pts[:, 1] ** 2) / r2


_PROFILES = {"cos3": _profile_cos3, "harmonic": _profile_harmonic}


class PerturbedBallShape:
    """Radial graph r(omega) = 1 + gamma * profile(omega), |profile| <= 1."""

    kind = "perturbed_ball"

    def __init__(self, gamma: float, profile: str):
        if not 0.0 <= gamma < 0.5:
            raise ValueError("gamma must lie in [0, 0.5)")
        if profile not in _PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        self.gamma = float(gamma)
        self.profile = profile

    def outer_radius(self) -> float:
        return 1.0 + self.gamma

    def signed(self, pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        rho = _PROFILES[self.profile](pts, r)
        out = r - (1.0 + self.gamma * rho)
        # The origin is always deep inside.
        return np.where(r < 1e-14, -1.0, out)

    def spec(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma, "profile": self.profile}


def shape_from_spec(spec) -> "BallShape | PerturbedBallShape":
    """Build a shape from a dict (a shape's spec()) or a compact string,
    "ball:0.8" or "perturbed:0.05:cos3"."""
    if isinstance(spec, dict):
        if spec["kind"] == "ball":
            return BallShape(spec["radius"])
        if spec["kind"] == "perturbed_ball":
            return PerturbedBallShape(spec["gamma"], spec["profile"])
    elif isinstance(spec, str):
        parts = spec.split(":")
        if parts[0] == "ball" and len(parts) == 2:
            return BallShape(float(parts[1]))
        if parts[0] == "perturbed" and len(parts) == 3:
            return PerturbedBallShape(float(parts[1]), parts[2])
    raise ValueError(f"cannot interpret shape spec {spec!r}")


# ---------------------------------------------------------------------------
# Multilinear interpolation on the full box


def interp_multilinear(axes: list[np.ndarray], values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation; NaN wherever a cell corner is unvalued
    or the point leaves the box."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = len(axes)
    m = pts.shape[0]
    lo = np.array([ax[0] for ax in axes])
    h = axes[0][1] - axes[0][0]
    res = values.shape[0]

    t = (pts - lo) / h
    inside = np.all((t >= -1e-9) & (t <= res - 1 + 1e-9), axis=1)
    t = np.clip(t, 0.0, res - 1)
    base = np.minimum(t.astype(int), res - 2)
    frac = np.ascontiguousarray((t - base).T)
    rest = 1.0 - frac
    strides = [res ** (d - 1 - a) for a in range(d)]
    flat = values.ravel()
    base_flat = base @ np.array(strides)

    # Each cell corner is one flat offset from the cell's base node.
    out = np.zeros(m)
    for corner in range(1 << d):
        off = 0
        w = np.ones(m)
        for a in range(d):
            bit = (corner >> a) & 1
            off += bit * strides[a]
            w = w * (frac[a] if bit else rest[a])
        out = out + w * flat[base_flat + off]
    out[~inside] = np.nan
    return out


# ---------------------------------------------------------------------------
# Grid domain


@dataclass(eq=False)
class GridDomain:
    """Uniform lattice covering a near-ball continuum domain, or a lattice
    domain given only by its values (a chain level, shape None)."""

    n: int
    resolution: int
    h: float
    box: np.ndarray                 # (d, 2) lower/upper bounds
    shape: object                   # continuum shape; None on a lattice domain
    interior_mask: np.ndarray       # bool, (res,)*d
    boundary_mask: np.ndarray       # bool, (res,)*d
    _cache: dict = field(repr=False, default_factory=dict)

    @property
    def d(self) -> int:
        return 2 * self.n

    @property
    def bc_table(self) -> dict:
        """Boundary-constraint table (_build_bc_table), built on first read
        from the lattice values of the signed function that lattice_domain
        left in the cache; a domain read only for its masks never builds
        one."""
        if "bc_table" not in self._cache:
            self._cache["bc_table"] = _build_bc_table(self, self._cache.pop("signed"))
        return self._cache["bc_table"]

    @property
    def axes(self) -> list[np.ndarray]:
        if "axes" not in self._cache:
            self._cache["axes"] = [
                np.linspace(self.box[a, 0], self.box[a, 1], self.resolution)
                for a in range(self.d)
            ]
        return self._cache["axes"]

    @property
    def valued_mask(self) -> np.ndarray:
        return self.interior_mask | self.boundary_mask

    def coords(self, mask_or_index=None) -> np.ndarray:
        """Physical coordinates; of all nodes, of the nodes of a mask (flat
        or lattice-shaped, in row-major order, read from the axes without a
        full mesh), or of one index."""
        if isinstance(mask_or_index, tuple):
            return np.array([self.axes[a][mask_or_index[a]] for a in range(self.d)])
        if mask_or_index is None:
            return self.window_coords((slice(None),) * self.d)
        idx = np.nonzero(np.reshape(mask_or_index, self.interior_mask.shape))
        return np.column_stack([ax[i] for ax, i in zip(self.axes, idx)])

    def window_coords(self, win: tuple[slice, ...]) -> np.ndarray:
        """Coordinates (m, d) of the nodes of a box window, one slice per
        axis, in row-major order: the rows of coords() for those nodes."""
        axes = [ax[s] for ax, s in zip(self.axes, win)]
        pts = np.empty(tuple(ax.size for ax in axes) + (self.d,))
        for a, ax in enumerate(axes):
            pts[..., a] = ax.reshape([-1 if b == a else 1 for b in range(self.d)])
        return pts.reshape(-1, self.d)

    def node_index(self, point) -> tuple:
        """Index tuple of the lattice node nearest to a physical point."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.d,):
            raise ValueError(f"a point of this lattice has {self.d} coordinates, "
                             f"got shape {point.shape}")
        idx = np.rint((point - self.box[:, 0]) / self.h).astype(int)
        idx = np.clip(idx, 0, self.resolution - 1)
        return tuple(int(i) for i in idx)

    def same_lattice(self, other: "GridDomain") -> bool:
        return (
            self.n == other.n
            and self.resolution == other.resolution
            and np.allclose(self.box, other.box)
        )


def coarse_twin(count: int) -> int:
    """Nodes per axis of the multigrid twin, of spacing 2h, of a lattice with
    `count` nodes per axis: its even-index nodes, count // 2 + 1 of them once
    an even count is padded by one node at the high end.  0 where the V-cycle
    stops coarsening, because the twin would keep fewer than COARSEST_RES
    nodes."""
    twin = count // 2 + 1
    return twin if twin >= COARSEST_RES else 0


def build_domain(n: int, shape_spec, resolution: int) -> GridDomain:
    """Discretize a near-ball domain in C^n on a symmetric box.

    The box half-width is the shape's outer radius, so an exact unit ball at
    resolution R has h = 2/(R-1).  Interior nodes are strictly inside the
    shape with full stencil support; boundary nodes carry Dirichlet
    constraints through continuum cut points, in a table built the
    first time something reads it (GridDomain.bc_table).
    """
    if n not in (1, 2):
        raise ValueError("complex dimension must be 1 or 2")
    if resolution < 9:
        raise ValueError("resolution must be at least 9")
    shape = shape_from_spec(shape_spec)
    d = 2 * n
    footprint = _BYTES_PER_NODE[n] * resolution ** d
    if footprint > _MEMORY_CAP_BYTES:
        raise MemoryCapError(
            f"resolution {resolution} in {d} real dimensions needs about "
            f"{footprint / 1e9:.1f} GB (> cap {_MEMORY_CAP_BYTES / 1e9:.1f} GB)")

    L = shape.outer_radius()
    axes = [np.linspace(-L, L, resolution) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return lattice_domain(n, L, shape.signed(pts).reshape((resolution,) * d), shape)


def lattice_domain(n: int, L: float, signed: np.ndarray, shape=None) -> GridDomain:
    """The domain {signed < 0} on the lattice of the values `signed`, which
    spans the box [-L, L]^d.  Cut points are closed form in the multilinear
    interpolant of `signed`, refined on `shape` when one is given.
    """
    resolution = signed.shape[0]
    d = 2 * n
    inside = signed < 0.0

    ring = grow(inside, diagonal=False) & ~inside

    ok = inside | ring
    good = inside.copy()
    offsets = _stencil_offsets(d)
    for off in offsets:
        good &= shift(ok, off)
    interior = inside & good

    # Boundary nodes are exactly the stencil-referenced collar of the
    # interior; unreferenced ring nodes carry no information and are dropped.
    referenced = np.zeros_like(inside)
    for off in offsets:
        referenced |= shift(interior, off)
    boundary = referenced & ~interior

    return GridDomain(
        n=n, resolution=resolution, h=2.0 * L / (resolution - 1),
        box=np.array([[-L, L]] * d), shape=shape,
        interior_mask=interior, boundary_mask=boundary, _cache={"signed": signed},
    )


def _build_bc_table(dom: GridDomain, signed: np.ndarray) -> dict:
    """Per boundary node: a collinear extrapolation constraint through the
    continuum cut point and one or two interior values.

        u_b = c_cut * g(x_cut) + c_1 * u(x_1) + c_2 * u(x_2)

    The three-point (quadratic) form through (x_1, x_2) is exact on
    quadratic functions; where x_2 is not interior, the two-point (linear)
    form through x_1 is exact on linear ones.  Supports are interior nodes
    only, so boundary values are an explicit function of interior ones.
    Every boundary node has an interior stencil neighbor by construction.
    A row that fits neither form raises BoundaryConstraintError: its cut
    nearly collides with x_1, or it is an inside node with no cut within
    two steps behind it.
    """
    d = dom.d
    res = dom.resolution
    shape = dom.shape
    h = dom.h
    lo = dom.box[:, 0]
    signed_flat = signed.ravel()
    strides = np.array([res ** (d - 1 - a) for a in range(d)], dtype=np.int64)

    b_idx = np.argwhere(dom.boundary_mask).astype(np.int64)
    b_flat = b_idx @ strides
    nb = b_idx.shape[0]
    # Candidate directions are richer than the stencil: any axis or two-axis
    # diagonal may carry the extrapolation line.  A step is one flat offset.
    # Two steps from a node stay inside the interior mask padded by two
    # non-interior layers, so x_1 and x_2 are tested there without a bounds
    # check.  x_1's value is gathered with clipped indices and counts only
    # where x_1 is interior, hence in the box.
    steps = np.array(lattice_offsets(d, combinations(range(d), 2)), dtype=np.int64)
    step_off = steps @ strides
    interior_pad = np.pad(dom.interior_mask, 2).ravel()
    pad_strides = np.array([(res + 4) ** (d - 1 - a) for a in range(d)], dtype=np.int64)
    b_pad = (b_idx + 2) @ pad_strides
    pad_off = steps @ pad_strides

    # Score each direction by the normalized depth of x_1, with a strong
    # bonus when x_2 is interior (making the three-point form available).
    best_score = np.full(nb, -np.inf)
    best_k = np.zeros(nb, dtype=np.int64)
    for k, st in enumerate(steps):
        slen_st = math.sqrt(float(st @ st))
        x1 = b_pad + pad_off[k]
        depth = -signed_flat.take(b_flat + step_off[k], mode="clip") / slen_st
        score = np.where(interior_pad[x1], depth, -np.inf)
        np.add(score, 1e6, out=score, where=interior_pad[x1 + pad_off[k]])
        better = score > best_score
        np.copyto(best_score, score, where=better)
        np.copyto(best_k, k, where=better)
    if not np.all(np.isfinite(best_score)):
        raise StencilViolationError("boundary node without an interior stencil neighbor")
    best_step = steps[best_k]
    best_off = step_off[best_k]

    xb = lo + h * b_idx
    slen = h * np.sqrt((best_step ** 2).sum(axis=1).astype(float))
    dhat = best_step * h / slen[:, None]
    sb = signed_flat[b_flat]

    # Every cut lies on one lattice step, from `start` to `start + step`:
    # for a ring node, from the node to x_1; for an inside node, the first
    # step back from it whose far end is outside (off the box counts as
    # outside), `back` steps behind it.  The cut is closed form in the
    # multilinear interpolant of the lattice values, which is the whole of
    # a lattice domain; on a shape that is the seed of _shape_cut, given the
    # step's end values f_start, f_end: lattice values, which build_domain
    # samples from the shape, or shape values the hit tests below read.
    ring = sb > 0.0
    start, step = b_idx.copy(), best_step.copy()
    back = np.zeros(nb)
    f_start, f_end = sb.copy(), signed_flat[b_flat + best_off]
    rows = np.flatnonzero(sb < 0.0)
    for reach in (1, 2):
        if rows.size == 0:
            break
        far = b_idx[rows] - reach * best_step[rows]
        if shape is None:
            in_box = np.all((far >= 0) & (far < res), axis=1)
            s_out = np.ones(rows.size)
            s_out[in_box] = signed[tuple(far[in_box].T)]
        else:
            s_out = shape.signed(lo + h * far)
        hit = s_out > 0.0
        rr = rows[hit]
        start[rr] = far[hit] + best_step[rr]
        step[rr] = -best_step[rr]
        back[rr] = reach - 1
        f_end[rr] = s_out[hit]
        rows = rows[~hit]
        f_start[rows] = s_out[~hit]
    if rows.size:
        raise BoundaryConstraintError(
            f"{rows.size} inside boundary nodes have no cut within two steps")
    t_c = np.zeros(nb)
    cut = np.flatnonzero(sb != 0.0)
    t = _lattice_cut(signed, start[cut], step[cut])
    if shape is not None:
        t = _shape_cut(shape, lo + h * start[cut], step[cut] * h, t, f_start[cut], f_end[cut])
    t_c[cut] = np.where(ring[cut], 1.0, -1.0) * slen[cut] * (back[cut] + t)
    cuts = xb + dhat * t_c[:, None]

    # x_1 is interior on every row (its direction scored finite).  A cut
    # that nearly collides with x_1 would blow up the extrapolation weights.
    t1 = slen
    if np.any((t1 - t_c) <= 1e-3 * slen):
        raise BoundaryConstraintError("a boundary cut point nearly collides with x_1")
    t2 = 2.0 * slen
    quad = interior_pad[b_pad + 2 * pad_off[best_k]]

    # Three-point (quadratic) form through (x_1, x_2) where x_2 is interior,
    # else two-point (linear) through x_1.
    return {
        "flat": b_flat,
        "idx1": b_flat + best_off,
        "idx2": np.where(quad, b_flat + 2 * best_off, -1),
        "coef_c": np.where(quad, (t1 * t2) / ((t_c - t1) * (t_c - t2)), -t1 / (t_c - t1)),
        "coef_1": np.where(quad, (t_c * t2) / ((t1 - t_c) * (t1 - t2)), -t_c / (t1 - t_c)),
        "coef_2": np.where(quad, (t_c * t1) / ((t2 - t_c) * (t2 - t1)), 0.0),
        "cuts": cuts,
    }


def _lattice_cut(signed: np.ndarray, start: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Fractions t in [0, 1] at which the multilinear interpolant of the
    lattice values vanishes on the cells start_i -> start_i + step_i.

    Along an axis edge the interpolant is linear; along a two-axis diagonal
    it is f0 + (p + q - 2 f0) t + (f0 + f1 - p - q) t^2, with p, q the
    off-diagonal cell corners.  Segment ends must have opposite signs.  An
    end off the box counts as outside, with the cut at the box face (t = 0).
    """
    res = signed.shape[0]
    end = start + step
    t = np.zeros(start.shape[0])
    ok = np.flatnonzero(np.all((end >= 0) & (end < res), axis=1))
    f0 = signed[tuple(start[ok].T)]
    f1 = signed[tuple(end[ok].T)]

    axis = np.count_nonzero(step[ok], axis=1) == 1
    t[ok[axis]] = f0[axis] / (f0[axis] - f1[axis])

    diag = ~axis
    s, e, st = start[ok[diag]], end[ok[diag]], step[ok[diag]]
    f0, f1 = f0[diag], f1[diag]
    rows = np.arange(st.shape[0])
    first = np.argmax(st != 0, axis=1)
    ea = np.zeros_like(st)
    ea[rows, first] = st[rows, first]
    p = signed[tuple((s + ea).T)]
    q = signed[tuple((e - ea).T)]
    # Cancellation-free roots c/Q and Q/a of a t^2 + b t + c; take the one
    # nearest [0, 1] (there is exactly one inside, up to rounding).
    a, b, c = f0 + f1 - p - q, p + q - 2.0 * f0, f0
    Q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.stack([c / Q, Q / a])
    miss = np.nan_to_num(np.maximum(-roots, roots - 1.0), nan=np.inf)
    t[ok[diag]] = np.clip(roots[np.argmin(miss, axis=0), rows], 0.0, 1.0)
    return t


_CUT_TOL = 2.0 * np.finfo(float).eps   # bracket width that closes a cut, per unit segment
_CUT_SWEEPS = 64                        # refinement sweeps before a cut counts as stuck


def _shape_cut(shape, p0: np.ndarray, span: np.ndarray, seed: np.ndarray,
               f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """Fractions t in [0, 1] at which shape.signed vanishes on the segments
    p0_i + t span_i, whose ends have the signed values f0_i and f1_i.

    Regula falsi with the Illinois step (Dowell & Jarratt, BIT 11, 1971),
    vectorized over the rows still open: the seed is the first iterate, a
    sign-changing bracket is kept, and a step that does not fall strictly
    inside it takes the bracket's midpoint.  A row closes on an exact zero
    or once its bracket is _CUT_TOL wide, at the bracket's midpoint.  Ends
    of one sign, or a row still open after _CUT_SWEEPS sweeps, raise
    BoundaryConstraintError.
    """
    same = np.sign(f0) * np.sign(f1) > 0.0
    if np.any(same):
        raise BoundaryConstraintError(
            f"{np.count_nonzero(same)} cut segments have ends of one sign")
    t = np.where(f0 == 0.0, 0.0, 1.0)
    rows = np.flatnonzero((f0 != 0.0) & (f1 != 0.0))
    # The bracket by sign: signed(xn) = fn < 0 < fp = signed(xp).
    up = f1[rows] > 0.0
    xn, xp = np.where(up, 0.0, 1.0), np.where(up, 1.0, 0.0)
    fn, fp = np.where(up, f0[rows], f1[rows]), np.where(up, f1[rows], f0[rows])
    p0, span, x = p0[rows], span[rows], seed[rows]
    moved_p = None                  # per row: the last step replaced xp
    for _ in range(_CUT_SWEEPS):
        if rows.size == 0:
            return t
        x = np.where((x - xn) * (x - xp) < 0.0, x, 0.5 * (xn + xp))
        fx = shape.signed(p0 + x[:, None] * span)
        pos = fx > 0.0
        if moved_p is not None:
            # Illinois: an end kept twice running has its value halved.
            np.multiply(fn, 0.5, out=fn, where=pos & moved_p)
            np.multiply(fp, 0.5, out=fp, where=~(pos | moved_p))
        np.copyto(xp, x, where=pos)
        np.copyto(fp, fx, where=pos)
        np.copyto(xn, x, where=~pos)
        np.copyto(fn, fx, where=~pos)
        moved_p = pos
        zero = fx == 0.0
        done = zero | (np.abs(xp - xn) <= _CUT_TOL)
        if done.any():
            t[rows[done]] = np.where(zero, x, 0.5 * (xn + xp))[done]
            keep = np.flatnonzero(~done)
            rows, xn, xp, fn, fp, moved_p, p0, span = (
                v.take(keep, axis=0) for v in (rows, xn, xp, fn, fp, moved_p, p0, span))
        x = xp - fp * (xp - xn) / (fp - fn)
    if rows.size:
        raise BoundaryConstraintError(
            f"{rows.size} cut refinements still open after {_CUT_SWEEPS} sweeps")
    return t


# ---------------------------------------------------------------------------
# Grid functions


@dataclass(eq=False)
class GridFunction:
    """Real scalar field on a GridDomain; NaN outside the valued node set."""

    domain: GridDomain
    values: np.ndarray

    @classmethod
    def from_callable(cls, domain: GridDomain, fn) -> "GridFunction":
        pts = domain.coords()
        vals = np.asarray(fn(pts), dtype=float).reshape((domain.resolution,) * domain.d)
        out = np.full_like(vals, np.nan)
        out[domain.valued_mask] = vals[domain.valued_mask]
        return cls(domain, out)

    @classmethod
    def constant(cls, domain: GridDomain, value: float) -> "GridFunction":
        vals = np.full((domain.resolution,) * domain.d, np.nan)
        vals[domain.valued_mask] = value
        return cls(domain, vals)

    def interp(self, pts: np.ndarray) -> np.ndarray:
        return interp_multilinear(self.domain.axes, self.values, pts)

    # -- persistence --------------------------------------------------------

    def write_csv(self, path) -> None:
        dom = self.domain
        valued = dom.valued_mask.ravel()
        pts = dom.coords()
        vals = self.values.ravel()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index"] + [f"c{a}" for a in range(dom.d)] + ["value"])
            for i in np.flatnonzero(valued):
                w.writerow([int(i)] + [f"{c:.17g}" for c in pts[i]] + [f"{vals[i]:.17g}"])

    def write_cache(self, path) -> None:
        dom = self.domain
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<HHId", CACHE_VERSION, dom.n, dom.resolution, dom.h))
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())


def read_cache(path) -> tuple[int, int, float, np.ndarray]:
    """Read a binary cache; returns (n, resolution, h, values array)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise ValueError("not a grid cache file")
        version, n, resolution, h = struct.unpack("<HHId", fh.read(16))
        if version != CACHE_VERSION:
            raise ValueError(f"unsupported cache version {version}")
        d = 2 * n
        raw = fh.read(8 * resolution ** d)
        values = np.frombuffer(raw, dtype="<f8").reshape((resolution,) * d).copy()
    return n, resolution, h, values


# ---------------------------------------------------------------------------
# Complex differential calculus


def _clear_of_faces(shape: tuple, nodes: np.ndarray) -> bool:
    """Whether no flat index of `nodes` lies on a face of a box of this
    shape.  A set under 1/64 of the box is read from its own unravelled
    indices (each in 1..res-2), at a cost in its size; a larger one by one
    boolean gather of the box's inner core, at a cost in the box's."""
    if 64 * nodes.size < math.prod(shape):
        return all(np.all((i >= 1) & (i <= s - 2))
                   for i, s in zip(np.unravel_index(nodes, shape), shape))
    core = np.zeros(shape, dtype=bool)
    core[(slice(1, -1),) * len(shape)] = True
    return bool(core.ravel()[nodes].all())


def node_lookup(values: np.ndarray, nodes):
    """at(off): the values at x + off for each flat index x of `nodes`, an
    array of their shape; NaN where x + off leaves the box or meets an
    unvalued (NaN) node.  off moves at most one node along each axis.  A node
    set clear of the box faces (_clear_of_faces) reads a flat gather; any
    other, clipped index tuples."""
    nodes = np.asarray(nodes)
    shape = values.shape
    flat = values.ravel()
    strides = [math.prod(shape[a + 1:]) for a in range(values.ndim)]
    if _clear_of_faces(shape, nodes):
        return lambda off: flat[nodes + sum(o * s for o, s in zip(off, strides))]
    idx = np.unravel_index(nodes, shape)

    def at(off):
        y = [i + o for i, o in zip(idx, off)]
        inside = np.logical_and.reduce([(c >= 0) & (c < s) for c, s in zip(y, shape)])
        got = values[tuple(np.clip(c, 0, s - 1) for c, s in zip(y, shape))]
        return np.where(inside, got, np.nan)

    return at


def node_differences(values: np.ndarray, nodes, h: float):
    """Centered-difference accessors D1(a) and D2(a, b) at the flat node
    indices `nodes`, arrays of their shape, through one node_lookup (NaN
    where the stencil leaves the box or meets an unvalued node).  D2 is
    pure for a == b, else the 4-point mixed difference."""
    at = node_lookup(values, nodes)
    d = values.ndim
    axis = lattice_offsets(d)

    def D1(a):
        return (at(axis[2 * a + 1]) - at(axis[2 * a])) / (2.0 * h)

    def D2(a, b):
        if a == b:
            return (at(axis[2 * a + 1]) - 2.0 * at((0,) * d) + at(axis[2 * a])) / h ** 2
        acc = 0.0
        for off, sign in mixed_terms(d, a, b):
            acc = acc + sign * at(off)
        return acc / (4.0 * h ** 2)

    return D1, D2


def _hessian_parts(D, n: int) -> dict:
    """Complex Hessian u_{z_i zbar_j} from a second-difference accessor D(a, b).

    Entry (i, j) is ((D_{x_i x_j} + D_{y_i y_j}) + i (D_{x_i y_j} - D_{y_i x_j}))/4;
    n = 1: {"h11"}; n = 2: {"h11", "h22", "h12re", "h12im"}.
    """
    parts = {"h11": 0.25 * (D(0, 0) + D(1, 1))}
    if n == 2:
        parts["h22"] = 0.25 * (D(2, 2) + D(3, 3))
        parts["h12re"] = 0.25 * (D(0, 2) + D(1, 3))
        parts["h12im"] = 0.25 * (D(0, 3) - D(1, 2))
    return parts


def node_jet(u: GridFunction, x: tuple):
    """(D1, D2, H) at an interior node x, from one lookup of the one-node
    set: node_differences there, and the mixed complex Hessian
    u_{z_i zbar_j} (_hessian_parts), an exactly Hermitian complex (n, n)
    array, exact on quadratics.  Raises StencilViolationError where x is
    not interior or the Hessian stencil meets an unvalued node."""
    dom = u.domain
    x = tuple(x)
    if not dom.interior_mask[x]:
        raise StencilViolationError(f"node {x} is not interior")
    D1, D2 = node_differences(u.values, np.ravel_multi_index(x, u.values.shape), dom.h)
    p = _hessian_parts(D2, dom.n)
    if np.isnan(list(p.values())).any():
        raise StencilViolationError(f"difference stencil leaves domain at {x}")
    if dom.n == 1:
        return D1, D2, np.array([[p["h11"]]], dtype=complex)
    h12 = complex(p["h12re"], p["h12im"])
    return D1, D2, np.array([[p["h11"], h12], [h12.conjugate(), p["h22"]]])


def complex_hessian(u: GridFunction, x: tuple) -> np.ndarray:
    """The complex Hessian of node_jet at an interior node x."""
    return node_jet(u, x)[2]


def hessian_fields(u: GridFunction, nodes: np.ndarray) -> dict:
    """Complex Hessian components as arrays over the flat node indices
    `nodes` (NaN as node_differences): n = 1 {"h11"}; n = 2 {"h11", "h22",
    "h12re", "h12im"}."""
    return _hessian_parts(node_differences(u.values, nodes, u.domain.h)[1], u.domain.n)


def hessian_eigen_fields(fields: dict) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) eigenvalue arrays of the complex Hessian fields."""
    if "h22" not in fields:
        return fields["h11"], fields["h11"]
    tr = fields["h11"] + fields["h22"]
    det = hessian_det_field(fields)
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def hessian_det_field(fields: dict) -> np.ndarray:
    if "h22" not in fields:
        return fields["h11"]
    return fields["h11"] * fields["h22"] - (fields["h12re"] ** 2 + fields["h12im"] ** 2)
