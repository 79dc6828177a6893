"""Lattice discretization of near-ball domains in C^n (n = 1 or 2).

A domain is a uniform Cartesian grid on a symmetric box in R^{2n}.  Nodes
strictly inside the continuum shape with full stencil support are interior;
the value-carrying collar around them is the boundary set.  Dirichlet data
is tied to the continuum boundary through per-node extrapolation constraints
anchored at cut points, so that boundary imposition stays second-order
accurate (and exact on quadratics).

Complex derivatives follow d/dz_i = (d/dx_i - i d/dy_i)/2; real coordinate
axes are ordered (x_1, y_1, ..., x_n, y_n).  One set of centered
differences serves the whole box (the fields), a set of interior nodes
(hessian_fields_at, the fields read there) and a single node
(node_differences, the fields read at that node): both box and node are NaN
where the stencil leaves the box or meets an unvalued node.  The complex
Hessian at a node is a complex (n, n) array.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from operator import add

import numpy as np

from .errors import MemoryCapError, StencilViolationError

CACHE_MAGIC = b"CMAG"
CACHE_VERSION = 1
_MEMORY_CAP_BYTES = 2 << 30     # largest solve footprint build_domain accepts
# Peak RSS per lattice node of build_domain plus two Dirichlet solves, net of
# the imports: n=1 grows with the LU fill from 1.4 KB at res 129 to 1.8 KB at
# res 513; n=2 (multigrid) is 600 B at res 17 and 690 B at res 33.
_BYTES_PER_NODE = {1: 1800, 2: 700}


# ---------------------------------------------------------------------------
# Lattice offsets and shifts


def shift(values: np.ndarray, off, fill=np.nan) -> np.ndarray:
    """values evaluated at x + off; fill where x + off leaves the box."""
    out = np.full_like(values, fill)
    src = tuple(
        slice(o, None) if o > 0 else slice(None, o if o < 0 else None)
        for o in off
    )
    dst = tuple(
        slice(None, -o) if o > 0 else slice(-o if o < 0 else 0, None)
        for o in off
    )
    out[dst] = values[src]
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

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def outer_radius(self) -> float:
        return self.radius

    def signed(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(pts, axis=-1) - self.radius

    def spec(self) -> dict:
        return {"kind": self.kind, "radius": self.radius}


_PROFILES = {}


def _register_profile(name):
    def deco(fn):
        _PROFILES[name] = fn
        return fn
    return deco


@_register_profile("none")
def _profile_none(pts, r):
    return np.zeros(pts.shape[0])


@_register_profile("cos3")
def _profile_cos3(pts, r):
    # cos(3*theta) in the first complex plane; |.| <= 1 by construction.
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    return np.cos(3.0 * theta)


@_register_profile("harmonic")
def _profile_harmonic(pts, r):
    # (x_1^2 - y_1^2)/|x|^2, a smooth direction function bounded by 1.
    r2 = np.maximum(r * r, 1e-300)
    return (pts[:, 0] ** 2 - pts[:, 1] ** 2) / r2


class PerturbedBallShape:
    """Radial graph r(omega) = 1 + gamma * profile(omega), |profile| <= 1."""

    kind = "perturbed_ball"

    def __init__(self, gamma: float, profile: str = "cos3"):
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
    """Build a shape from a dict (a shape's spec()) or a compact string.

    Strings: "ball" / "ball:0.8" / "perturbed:0.05" / "perturbed:0.05:cos3".
    """
    if isinstance(spec, dict):
        kind = spec["kind"]
        if kind == "ball":
            return BallShape(spec.get("radius", 1.0))
        if kind == "perturbed_ball":
            return PerturbedBallShape(spec["gamma"], spec.get("profile", "cos3"))
        raise ValueError(f"unknown shape kind {kind!r}")
    if isinstance(spec, str):
        parts = spec.split(":")
        if parts[0] == "ball":
            return BallShape(float(parts[1]) if len(parts) > 1 else 1.0)
        if parts[0] == "perturbed":
            gamma = float(parts[1]) if len(parts) > 1 else 0.0
            profile = parts[2] if len(parts) > 2 else "cos3"
            return PerturbedBallShape(gamma, profile)
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

    def interp(self, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return interp_multilinear(self.axes, values, pts)

    def same_lattice(self, other: "GridDomain") -> bool:
        return (
            self.n == other.n
            and self.resolution == other.resolution
            and np.allclose(self.box, other.box)
        )


def build_domain(n: int, shape_spec, resolution: int) -> GridDomain:
    """Discretize a near-ball domain in C^n on a symmetric box.

    The box half-width is the shape's outer radius, so an exact unit ball at
    resolution R has h = 2/(R-1).  Interior nodes are strictly inside the
    shape with full stencil support; boundary nodes carry Dirichlet
    constraints anchored at continuum cut points, in a table built the
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
    spans the box [-L, L]^d.  Cut points come from `shape` when one is
    given, else in closed form from the multilinear interpolant of `signed`.
    """
    resolution = signed.shape[0]
    d = 2 * n
    inside = signed < 0.0

    ring = np.zeros_like(inside)
    for off in lattice_offsets(d):
        ring |= (~inside) & shift(inside, off, fill=False)

    ok = inside | ring
    good = inside.copy()
    offsets = _stencil_offsets(d)
    for off in offsets:
        good &= shift(ok, off, fill=False)
    interior = inside & good

    # Boundary nodes are exactly the stencil-referenced collar of the
    # interior; unreferenced ring nodes carry no information and are dropped.
    referenced = np.zeros_like(inside)
    for off in offsets:
        referenced |= shift(interior, off, fill=False)
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

    The three-point (quadratic) form is exact on quadratic functions; it
    degrades to a two-point form when the second support node is not interior
    or the cut point sits too close to x_1.  Supports are interior nodes only,
    so boundary values are an explicit function of interior ones.  Every
    boundary node has an interior stencil neighbor by construction.
    """
    d = dom.d
    res = dom.resolution
    shape = dom.shape
    h = dom.h
    lo = dom.box[:, 0]
    interior_flat = dom.interior_mask.ravel()
    signed_flat = signed.ravel()
    strides = np.array([res ** (d - 1 - a) for a in range(d)], dtype=np.int64)

    b_idx = np.argwhere(dom.boundary_mask).astype(np.int64)
    b_flat = b_idx @ strides
    nb = b_idx.shape[0]
    # Candidate directions are richer than the stencil: any axis or two-axis
    # diagonal may carry the extrapolation line.  A step is one flat offset;
    # node + r * step stays in the box while every axis the step moves along
    # has room for r nodes in its direction.
    steps = np.array(lattice_offsets(d, combinations(range(d), 2)), dtype=np.int64)
    step_off = steps @ strides
    room_up = (res - 1 - b_idx).T
    room_down = b_idx.T

    # Score each direction by the normalized depth of x_1, with a strong
    # bonus when x_2 is interior (making the three-point form available).
    best_score = np.full(nb, -np.inf)
    best_k = np.zeros(nb, dtype=np.int64)
    best_room = np.zeros(nb, dtype=np.int64)
    for k, st in enumerate(steps):
        slen_st = math.sqrt(float(st @ st))
        room = np.minimum.reduce([room_up[a] if st[a] > 0 else room_down[a]
                                  for a in np.flatnonzero(st)])
        valid = room >= 1
        score = np.full(nb, -np.inf)
        f1 = b_flat[valid] + step_off[k]
        sub = interior_flat[f1]
        rows_v = np.flatnonzero(valid)[sub]
        score[rows_v] = -signed_flat[f1[sub]] / slen_st
        ok2 = room >= 2
        ok2[ok2] = interior_flat[b_flat[ok2] + 2 * step_off[k]]
        score[ok2] += 1e6
        better = score > best_score
        best_score[better] = score[better]
        best_k[better] = k
        best_room[better] = room[better]
    if not np.all(np.isfinite(best_score)):
        raise StencilViolationError("boundary node without an interior stencil neighbor")
    best_step = steps[best_k]
    best_off = step_off[best_k]

    xb = lo + h * b_idx
    slen = h * np.sqrt((best_step ** 2).sum(axis=1).astype(float))
    dhat = best_step * h / slen[:, None]
    sb = signed_flat[b_flat]

    # A lattice domain is the multilinear interpolant of `signed` itself, so
    # its cuts have a closed form in the lattice values; a shape is bisected.
    t_c = np.zeros(nb)
    ring = sb > 0.0
    if np.any(ring):
        if shape is None:
            t_c[ring] = slen[ring] * _lattice_cut(signed, b_idx[ring], best_step[ring])
        else:
            t_c[ring] = _bisect_cut_batch(shape, xb[ring], xb[ring] + best_step[ring] * h)
    dem = sb < 0.0
    if np.any(dem):
        rows = np.flatnonzero(dem)
        for reach in (1, 2):
            if rows.size == 0:
                break
            if shape is None:
                far = b_idx[rows] - reach * best_step[rows]
                in_box = np.all((far >= 0) & (far < res), axis=1)
                s_out = np.ones(rows.size)
                s_out[in_box] = signed[tuple(far[in_box].T)]
            else:
                x_out = xb[rows] - dhat[rows] * (reach * slen[rows])[:, None]
                s_out = shape.signed(x_out)
            hit = s_out > 0.0
            rr = rows[hit]
            if rr.size:
                if shape is None:
                    near = b_idx[rr] - (reach - 1) * best_step[rr]
                    t = _lattice_cut(signed, near, -best_step[rr])
                    t_c[rr] = -slen[rr] * ((reach - 1) + t)
                else:
                    t_c[rr] = -_bisect_cut_batch(shape, xb[rr], x_out[hit])
            rows = rows[~hit]
        # Unresolved leftovers anchor at the node itself (t_c stays 0).
    cuts = xb + dhat * t_c[:, None]

    def flat_of(reach):
        ok = best_room >= reach
        f = np.full(nb, -1, dtype=np.int64)
        f[ok] = b_flat[ok] + reach * best_off[ok]
        have = ok.copy()
        have[ok] = interior_flat[f[ok]]
        return f, have

    f1, have1 = flat_of(1)
    f2, have2 = flat_of(2)
    f3, have3 = flat_of(3)

    t1 = slen
    t2 = 2.0 * slen
    t3 = 3.0 * slen

    idx1 = np.full(nb, -1, dtype=np.int64)
    idx2 = np.full(nb, -1, dtype=np.int64)
    coef_c = np.zeros(nb)
    coef_1 = np.zeros(nb)
    coef_2 = np.zeros(nb)

    def quad_fill(mask, fa, ta, fb, tb):
        qc, qa, qb = t_c[mask], ta[mask], tb[mask]
        idx1[mask] = fa[mask]
        idx2[mask] = fb[mask]
        coef_c[mask] = (qa * qb) / ((t_c[mask] - qa) * (t_c[mask] - qb))
        coef_1[mask] = (qc * qb) / ((qa - qc) * (qa - qb))
        coef_2[mask] = (qc * qa) / ((qb - qc) * (qb - qa))

    def lin_fill(mask, fa, ta):
        lc, la = t_c[mask], ta[mask]
        idx1[mask] = fa[mask]
        coef_c[mask] = -la / (lc - la)
        coef_1[mask] = -lc / (la - lc)

    # Three-point extrapolation is exact on quadratics; the cut point only
    # disqualifies a support node when it nearly collides with it.
    clear1 = (t1 - t_c) > 1e-3 * slen
    quad12 = have1 & have2 & clear1
    quad23 = ~quad12 & have2 & have3
    lin2 = ~quad12 & ~quad23 & have2
    lin1 = ~quad12 & ~quad23 & ~lin2 & have1 & clear1
    anchor = ~(quad12 | quad23 | lin2 | lin1)

    quad_fill(quad12, f1, t1, f2, t2)
    quad_fill(quad23, f2, t2, f3, t3)
    lin_fill(lin2, f2, t2)
    lin_fill(lin1, f1, t1)
    coef_c[anchor] = 1.0

    return {
        "flat": b_flat,
        "idx1": idx1,
        "idx2": idx2,
        "coef_c": coef_c,
        "coef_1": coef_1,
        "coef_2": coef_2,
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


def _bisect_cut_batch(shape, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Roots of the signed shape function on segments [p0_i, p1_i], returned
    as distances from p0_i.  Endpoints must have opposite signs."""
    a = np.atleast_2d(p0).astype(float)
    b = np.atleast_2d(p1).astype(float)
    fa = shape.signed(a)
    lo_t = np.zeros(a.shape[0])
    hi_t = np.ones(a.shape[0])
    # 60 halvings of [0, 1] reach below double-precision resolution.
    for _ in range(60):
        mid = 0.5 * (lo_t + hi_t)
        fm = shape.signed(a + mid[:, None] * (b - a))
        same = (fm > 0.0) == (fa > 0.0)
        lo_t = np.where(same, mid, lo_t)
        hi_t = np.where(same, hi_t, mid)
    t = 0.5 * (lo_t + hi_t)
    return t * np.linalg.norm(b - a, axis=1)


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
        return self.domain.interp(self.values, pts)

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


def _differences(at, d: int, h: float):
    """Centered-difference accessors D1(a) and D2(a, b) over a lookup at(off)
    of the values at x + off: a whole-box shift or a single node.  D2 is
    pure for a == b, else the 4-point mixed difference."""
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


def node_differences(values: np.ndarray, x: tuple, h: float):
    """D1, D2 read at node x: first_diff_field and second_diff_field at x,
    NaN where the stencil leaves the box or meets a NaN value."""
    def at(off):
        y = tuple(map(add, x, off))
        inside = all(0 <= i < s for i, s in zip(y, values.shape))
        return values[y] if inside else np.nan

    return _differences(at, values.ndim, h)


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


def complex_hessian(u: GridFunction, x: tuple) -> np.ndarray:
    """Mixed complex Hessian u_{z_i zbar_j} at an interior node, as an
    exactly Hermitian complex (n, n) array.

    Entry (i, j) is ((u_{x_i x_j} + u_{y_i y_j}) + i (u_{x_i y_j} - u_{y_i x_j}))/4
    from centered differences; exact on quadratics.  Raises
    StencilViolationError where the stencil meets an unvalued node.
    """
    dom = u.domain
    x = tuple(x)
    if not dom.interior_mask[x]:
        raise StencilViolationError(f"node {x} is not interior")
    p = _hessian_parts(node_differences(u.values, x, dom.h)[1], dom.n)
    if np.isnan(list(p.values())).any():
        raise StencilViolationError(f"difference stencil leaves domain at {x}")
    if dom.n == 1:
        return np.array([[p["h11"]]], dtype=complex)
    h12 = complex(p["h12re"], p["h12im"])
    return np.array([[p["h11"], h12], [h12.conjugate(), p["h22"]]])


# Vectorized Hessian components over the whole box (NaN where unsupported).


def second_diff_field(values: np.ndarray, a: int, b: int, h: float) -> np.ndarray:
    """Centered second difference D_ab of the values over the whole box."""
    return _differences(partial(shift, values), values.ndim, h)[1](a, b)


def first_diff_field(values: np.ndarray, a: int, h: float) -> np.ndarray:
    """Centered first difference along axis a over the whole box."""
    return _differences(partial(shift, values), values.ndim, h)[0](a)


def hessian_fields(u: GridFunction) -> dict:
    """Complex Hessian components as full-box arrays.

    n = 1: {"h11"}; n = 2: {"h11", "h22", "h12re", "h12im"}.
    """
    return _hessian_parts(partial(second_diff_field, u.values, h=u.domain.h), u.domain.n)


def hessian_fields_at(u: GridFunction, nodes: np.ndarray) -> dict:
    """hessian_fields at the flat indices `nodes`, computed there only: the
    same floats, for nodes whose stencil stays in the box (interior nodes)."""
    dom = u.domain
    values = u.values.ravel()
    strides = np.array([dom.resolution ** (dom.d - 1 - a) for a in range(dom.d)])
    D2 = _differences(lambda off: values[nodes + np.dot(off, strides)], dom.d, dom.h)[1]
    return _hessian_parts(D2, dom.n)


def real_hessian_field(values: np.ndarray, h: float) -> np.ndarray:
    """Real Hessian by centered differences as a (..., d, d) array."""
    d = values.ndim
    H = np.empty(values.shape + (d, d))
    for a in range(d):
        for b in range(a, d):
            H[..., a, b] = H[..., b, a] = second_diff_field(values, a, b, h)
    return H


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
