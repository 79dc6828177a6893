"""Good/bad-set classification and the dyadic measure-decay experiment.

A node is k-good when every available section at that node fits inside the
ball of radius sqrt(10^k mu); the bad sets A_k are the complements, and
their measures inside the balls B_{r_k} of one radius schedule, against the
geometric bound, form the decay report.
One lower convex hull of the lifted nodes gives the convex envelope, its
contact set and its Monge-Ampere (Alexandrov) measure, whose cell at a hull
vertex is the convex hull of the gradients of the incident facets, at both
n; with touching paraboloids they supply the pointwise second-derivative
control.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    GridDomain,
    GridFunction,
    complex_hessian,
    node_differences,
    node_lookup,
)
from .sections import DIM_CHAIN_RESOLUTION, SectionChain, construct_section_chain


# ---------------------------------------------------------------------------
# Per-node chains and D_k classification


@dataclass
class NodeSections:
    """Ball-fit data of the sections available at one sampled node:
    (height, max distance of section nodes from the center), and the break
    of its chain (SectionChain.broken)."""

    idx: tuple
    radii: list[tuple[float, float]]
    broken: tuple[int, str, str] | None = None


def section_ball_radii(u: GridFunction, chain: SectionChain) -> NodeSections:
    """Max center-distance of each resolvable section of the chain (height
    at least (2h)^2), evaluated on the original grid.  A broken chain gets
    no radii and keeps its break."""
    if chain.broken is not None:
        return NodeSections(chain.center_idx, [], chain.broken)
    dom = u.domain
    mu_min = (2.0 * dom.h) ** 2
    ctr = chain.center_point
    out = []
    for lv in chain.levels:
        mu = lv.height
        if mu < mu_min:
            continue
        sec = chain.section(u, mu)
        pts = dom.coords(sec.mask)
        rad = float(np.max(np.linalg.norm(pts - ctr, axis=1), initial=0.0))
        out.append((mu, rad))
    return NodeSections(chain.center_idx, out)


def _stride_lattice(dom: GridDomain, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Interior nodes whose every index is a multiple of stride (index rows
    in row-major order) and their distances from the origin."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    idx = np.argwhere(dom.interior_mask)
    idx = idx[np.all(idx % stride == 0, axis=1)]
    pts = np.column_stack([ax[i] for ax, i in zip(dom.axes, idx.T)])
    return idx, np.linalg.norm(pts, axis=1)


def sample_badset_chains(u: GridFunction, v0: GridFunction,
                         stride: int, levels: int = 2,
                         sigma: float = 0.2, mu0: float = 0.1,
                         chain_resolution: int | None = None) -> list[NodeSections]:
    """Chains (reduced to ball-fit radii) at the stride-lattice nodes inside
    B_{r_1}, the largest ball a decay row counts, on the dimension's chain
    lattice unless chain_resolution is given.  A node whose chain breaks
    gets no radii (it classifies as bad at every k) and keeps the break."""
    if chain_resolution is None:
        chain_resolution = DIM_CHAIN_RESOLUTION[u.domain.n]
    nodes, dist = _stride_lattice(u.domain, stride)
    out = [section_ball_radii(u, construct_section_chain(
               u, tuple(int(i) for i in idx), sigma=sigma, k_max=levels, mu0=mu0,
               chain_resolution=chain_resolution, v0=v0))
           for idx in nodes[dist <= radius_schedule(1)[1]]]
    if not out:
        raise ValueError("no sampled nodes; lower the stride")
    return out


def classify_Dk(node_sections: list[NodeSections], k: int,
                domain: GridDomain) -> np.ndarray:
    """Boolean array over the sampled nodes: True when every available
    section fits in B(z0, sqrt(10^k mu)) with one-cell slack.

    Nodes with no available sections classify as bad (False).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    slack = domain.h * math.sqrt(domain.d)
    out = np.zeros(len(node_sections), dtype=bool)
    for i, ns in enumerate(node_sections):
        if not ns.radii:
            continue
        out[i] = all(rad <= math.sqrt(10.0 ** k * mu) + slack
                     for mu, rad in ns.radii)
    return out


# ---------------------------------------------------------------------------
# Decay experiment


@dataclass
class BadSetRow:
    k: int
    r_k: float
    measure: float          # m(A_k intersect B_{r_k})
    measure_b06: float      # m(A_k intersect B_0.6), for the dyadic series
    bound: float
    ratio: float
    passed: bool
    vacuous: bool

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class BadSetReport:
    rows: list[BadSetRow]
    eps_bar: float
    n: int
    cell_measure: float
    m_b07: float
    m_b06: float
    monotone: bool
    stride: int
    params: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {**self.__dict__, "rows": [r.to_dict() for r in self.rows]}


# The dyadic ball B_0.6: the limit of the radius schedule and the region of
# the W^{2,p} accounting.
DYADIC_RADIUS = 0.6


def radius_schedule(k_max: int) -> list[float]:
    """r_0 = 0.7 and r_k = r_{k-1} - 2^{-k}/10 (limit DYADIC_RADIUS)."""
    rs = [0.7]
    for k in range(1, k_max + 1):
        rs.append(rs[-1] - 0.1 * 2.0 ** (-k))
    return rs


def badset_decay_experiment(u: GridFunction, node_sections: list[NodeSections],
                            eps_bar: float, k_max: int,
                            stride: int, params: dict | None = None
                            ) -> BadSetReport:
    """Measure decay of the bad sets against m(B_0.7) (12^{2n} eps_bar)^{k-1}.

    Measures count nodes of the stride lattice with the stride-adjusted cell
    volume: m(B_0.7) and m(B_0.6) all of them, m(A_k) the sampled nodes
    that are bad.  Empty rows pass vacuously and are flagged.  The sampled
    nodes must be exactly the stride-lattice nodes inside B_{r_1}, those
    sample_badset_chains takes at this stride; a sample at another stride
    would be counted with the wrong cell volume.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if not 0.0 < eps_bar < 1.0:
        raise ValueError("eps_bar must lie in (0, 1)")
    dom = u.domain
    d = dom.d
    cell = (stride * dom.h) ** d
    rs = radius_schedule(k_max)
    lattice, lattice_dist = _stride_lattice(dom, stride)
    sampled = sorted(tuple(int(i) for i in ns.idx) for ns in node_sections)
    if sampled != [tuple(int(i) for i in idx) for idx in lattice[lattice_dist <= rs[1]]]:
        raise ValueError(f"the sampled nodes are not the stride-{stride} lattice "
                         f"inside B_{rs[1]:.4g}")
    centers = np.array([dom.coords(tuple(ns.idx)) for ns in node_sections])
    dist = np.linalg.norm(centers, axis=1)
    m_b07 = float(np.sum(lattice_dist <= rs[0])) * cell
    m_b06 = float(np.sum(lattice_dist <= DYADIC_RADIUS)) * cell

    rows = []
    prev = None
    monotone = True
    for k in range(1, k_max + 1):
        good = classify_Dk(node_sections, k, dom)
        bad = ~good
        meas = float(np.sum(bad & (dist <= rs[k]))) * cell
        meas06 = float(np.sum(bad & (dist <= DYADIC_RADIUS))) * cell
        bound = m_b07 * (12.0 ** d * eps_bar) ** (k - 1)
        vac = meas == 0.0
        passed = meas <= bound + cell
        rows.append(BadSetRow(k, rs[k], meas, meas06, bound,
                              meas / bound if bound > 0 else math.inf,
                              bool(passed), bool(vac)))
        if prev is not None and meas > prev + 1e-15:
            monotone = False
        prev = meas
    return BadSetReport(rows, eps_bar, dom.n, cell, m_b07, m_b06,
                        monotone, stride, params or {})


# ---------------------------------------------------------------------------
# Convex envelope and contact set


# Lower facets are those whose unit normal points down by more than this:
# nearly vertical rim facets turn Qhull's offset rounding into plane errors
# of order 1e-4.
_LOWER_FACET_TILT = 1e-6
_PLANE_CHUNK = 1 << 20      # plane evaluations per envelope chunk
_BLOCK_NODES = 64           # lattice nodes per envelope block, about
_CONVEXITY_TOL = 1e-7


def _envelope_directions(d: int) -> list[tuple[int, ...]]:
    dirs = []
    seen = set()
    for off in np.ndindex(*(3,) * d):
        v = tuple(int(o) - 1 for o in off)
        if all(x == 0 for x in v):
            continue
        if v in seen or tuple(-x for x in v) in seen:
            continue
        seen.add(v)
        dirs.append(v)
    return dirs


def _lower_hull(w: GridFunction, region: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower convex hull of the lifted region nodes (x, w(x)).

    Returns the hull values at the region nodes (row-major order), the
    gradients of the lower facets, and each facet's vertices as indices
    into the region nodes.  A cloud of rank at most d is affine: its hull
    is w itself and it has no facets.

    Off the hull vertices the hull is the largest lower-facet plane.  The
    facet whose projection holds a node attains it, so the nodes are taken
    in lattice blocks of about _BLOCK_NODES, and each block evaluates only
    the facets whose projected bounding box meets the block's, in chunks
    of at most _PLANE_CHUNK plane evaluations.
    """
    # Imported on first use, here and in _hull_cell_measure: loading
    # scipy.spatial, which brings scipy.special with it, adds about 7.5 MB
    # (11%) to the peak resident memory of an n=1 res-65 pipeline run
    # (67.0 -> 74.5 MiB), and the pipeline calls neither function.
    from scipy.spatial import ConvexHull

    pts = w.domain.coords()[region.ravel()]
    vals = w.values[region]
    if not np.all(np.isfinite(vals)):
        raise ValueError("w must be finite on the region")
    d = pts.shape[1]
    cloud = np.column_stack([pts, vals])
    if np.linalg.matrix_rank(cloud - cloud.mean(axis=0)) <= d:
        return vals.copy(), np.empty((0, d)), np.empty((0, d + 1), dtype=int)
    hull = ConvexHull(cloud)
    lower = hull.equations[:, d] < -_LOWER_FACET_TILT
    eq, simplices = hull.equations[lower], hull.simplices[lower]
    del hull    # the upper facets and the neighbour table
    grads = -eq[:, :d] / eq[:, d:d + 1]
    heights = -eq[:, d + 1] / eq[:, d]
    del eq

    # Off the hull vertices, each node takes the largest plane among the
    # facets listed for its block, clipped so that rounding never lifts it
    # above w.
    env = vals.copy()
    off_hull = np.ones(vals.size, dtype=bool)
    off_hull[simplices] = False
    rest = np.flatnonzero(off_hull)
    if rest.size == 0:
        return env, grads, simplices
    side = max(1, round(_BLOCK_NODES ** (1.0 / d)))
    nblocks = (region.shape[0] - 1) // side + 1
    node_blocks = (np.argwhere(region) // side).astype(np.int32)
    block_of = np.ravel_multi_index(node_blocks[rest].T, (nblocks,) * d)
    order = np.argsort(block_of, kind="stable")
    rest = rest[order]
    blocks, node_starts = np.unique(block_of[order], return_index=True)
    facet, facet_starts = _facets_by_block(node_blocks, simplices, nblocks, blocks)

    node_bounds = np.r_[node_starts, rest.size]
    facet_bounds = np.r_[facet_starts, facet.size]
    for b in range(blocks.size):
        nodes = rest[node_bounds[b]:node_bounds[b + 1]]
        cand = facet[facet_bounds[b]:facet_bounds[b + 1]]
        step = max(1, _PLANE_CHUNK // nodes.size)
        best = np.max([np.max(pts[nodes] @ grads[f].T + heights[f], axis=1)
                       for f in np.split(cand, range(step, cand.size, step))], axis=0)
        env[nodes] = np.minimum(vals[nodes], best)
    return env, grads, simplices


def _facets_by_block(node_blocks: np.ndarray, simplices: np.ndarray,
                     nblocks: int, blocks: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The facets whose box of blocks meets each of the given blocks.

    node_blocks holds the block coordinates of each node, in a lattice of
    nblocks blocks per axis, simplices each facet's vertices, and blocks
    sorted block numbers (row-major).  Returns the facets grouped by block
    and the start of each block's group.  A facet's box spans its vertices'
    blocks, so it meets every block that holds a node of the facet's
    projection.
    """
    nfacets, d = len(simplices), node_blocks.shape[1]
    lo = np.empty((nfacets, d), dtype=np.int32)
    span = np.empty((nfacets, d), dtype=np.int32)
    for k in range(d):
        corner = node_blocks[:, k][simplices]
        lo[:, k] = corner.min(axis=1)
        span[:, k] = corner.max(axis=1) - lo[:, k] + 1
    # Pair j of a facet is the j-th block of its box, in mixed radix.  At
    # n = 2 a facet meets a few blocks, so the pairs outnumber the facets:
    # they are int32, worked in place, and freed before the sort.
    count = np.prod(span, axis=1)
    facet = np.repeat(np.arange(nfacets, dtype=np.int32), count)
    j = np.arange(facet.size, dtype=np.int32)
    j -= np.repeat((np.cumsum(count) - count).astype(np.int32), count)
    facet_block = np.zeros_like(j)
    for k in reversed(range(d)):
        radix = span[facet, k]
        offset = j % radix
        offset += lo[facet, k]
        offset *= nblocks ** (d - 1 - k)
        facet_block += offset
        j //= radix
    del j, radix, offset
    wanted = np.zeros(nblocks ** d, dtype=bool)
    wanted[blocks] = True
    keep = wanted[facet_block]
    facet, facet_block = facet[keep], facet_block[keep]
    order = np.argsort(facet_block, kind="stable")
    return facet[order], np.searchsorted(facet_block[order], blocks)


# The hull each convex_envelope result was built from, as (domain, bytes of
# the returned values, facet gradients, facet vertices); an entry is freed
# with its envelope.
_ENVELOPE_HULLS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def convex_envelope(w: GridFunction, region: np.ndarray) -> GridFunction:
    """Convex envelope of w on the region: the lower convex hull of the
    lifted region nodes, NaN off the region.  The hull is kept with the
    returned function, for ma_measure."""
    env, grads, simplices = _lower_hull(w, region)
    out = np.full_like(w.values, np.nan)
    out[region] = env
    gamma = GridFunction(w.domain, out)
    _ENVELOPE_HULLS[gamma] = (w.domain, out.tobytes(), grads, simplices)
    return gamma


def contact_set(w: GridFunction, gamma: GridFunction, tol: float = 1e-8
                ) -> np.ndarray:
    """Nodes where the envelope touches: w - gamma <= tol."""
    diff = w.values - gamma.values
    out = np.zeros(diff.shape, dtype=bool)
    np.less_equal(diff, tol, out=out, where=~np.isnan(diff))
    return out


def lattice_convexity_defect(gamma: GridFunction, region: np.ndarray) -> float:
    """Largest midpoint-concavity violation along lattice directions at the
    region nodes."""
    vals = np.where(region, gamma.values, np.nan)
    at = node_lookup(vals, np.flatnonzero(region))
    center = at((0,) * vals.ndim)
    worst = 0.0
    for e in _envelope_directions(vals.ndim):
        mid = 0.5 * (at(e) + at(tuple(-x for x in e)))
        gap = center - mid
        if np.any(~np.isnan(gap)):
            worst = max(worst, float(np.nanmax(gap)))
    return worst


# ---------------------------------------------------------------------------
# Monge-Ampere measure of a convex grid function


def ma_measure(gamma: GridFunction, E: np.ndarray) -> float:
    """Alexandrov measure of E: the volume of its subgradient image under
    the convex function gamma (NaN off its region).

    The subgradient image of a lower-hull vertex is the convex hull of the
    gradients of its incident lower facets; a cell of rank below d has
    volume 0, and nodes that are not hull vertices carry no measure.  At
    n = 1 (d = 2) each cell is the polygon of the facet gradients taken in
    the angular order of the facets about the vertex, its area the shoelace
    sum; at n = 2 each cell is a Qhull hull of its gradients.

    A convex_envelope result whose domain and values are byte for byte
    those it was returned with is measured on the hull that built it.  Any
    other gamma gets a hull of its own, and ValueError is raised when gamma
    exceeds that hull, i.e. is not convex.
    """
    region = ~np.isnan(gamma.values)
    built = _ENVELOPE_HULLS.get(gamma)
    if (built is not None and built[0] is gamma.domain
            and built[1] == gamma.values.tobytes()):
        grads, simplices = built[2:]
    else:
        env, grads, simplices = _lower_hull(gamma, region)
        excess = float(np.max(gamma.values[region] - env, initial=0.0))
        if excess > _CONVEXITY_TOL:
            raise ValueError(f"function is not convex (exceeds its hull by {excess:.2e})")
    in_E = E[region]
    if grads.shape[1] != 2:
        return _hull_cell_measure(grads, simplices, in_E)

    # (vertex, facet) incidences at vertices in E, each vertex's facets in
    # the order of their centroids' angles about it: the fan order, open at
    # region-boundary vertices, whose gradients run round the cell polygon.
    vert = simplices.ravel()
    facet = np.repeat(np.arange(len(simplices)), simplices.shape[1])
    keep = in_E[vert]
    vert, facet = vert[keep], facet[keep]
    if vert.size == 0:
        return 0.0
    pts = gamma.domain.coords()[region.ravel()]
    rel = pts[simplices].mean(axis=1)[facet] - pts[vert]
    order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), vert))
    vert, g = vert[order], grads[facet[order]]
    starts = np.flatnonzero(np.r_[True, vert[1:] != vert[:-1]])
    nxt = np.arange(1, vert.size + 1)
    nxt[np.r_[starts[1:], vert.size] - 1] = starts
    cross = g[:, 0] * g[nxt, 1] - g[:, 1] * g[nxt, 0]
    return float(np.sum(np.abs(np.add.reduceat(cross, starts)))) / 2.0


def _hull_cell_measure(grads: np.ndarray, simplices: np.ndarray,
                       in_E: np.ndarray) -> float:
    """Sum over the hull vertices in E of the Qhull volume of the convex
    hull of their incident facets' gradients (rank-d cells only)."""
    from scipy.spatial import ConvexHull

    d = grads.shape[1]
    flat = simplices.ravel()
    order = np.argsort(flat, kind="stable")
    verts, starts = np.unique(flat[order], return_index=True)
    val = 0.0
    for v, facets in zip(verts, np.split(order // (d + 1), starts[1:])):
        if not in_E[v]:
            continue
        cell = grads[facets]
        if np.linalg.matrix_rank(cell - cell[0]) == d:
            val += ConvexHull(cell).volume
    return val


# ---------------------------------------------------------------------------
# Touching paraboloids


@dataclass
class ParaboloidResult:
    kappa: float
    supported: bool
    slope: np.ndarray


def touching_paraboloid_opening(u: GridFunction, x0: tuple,
                                region: np.ndarray) -> ParaboloidResult:
    """Largest opening of a paraboloid touching u from below at x0.

    The affine part is the centered-difference supporting slope at x0; the
    opening is found by bisection to within 1e-6.  Returns 0 with
    supported=False when no positive opening works.
    """
    dom = u.domain
    x0 = tuple(x0)
    if not region[x0]:
        raise ValueError("x0 must lie in the region")
    pts = dom.coords()[region.ravel()]
    vals = u.values[region]
    x0_pt = dom.coords(x0)
    u0 = float(u.values[x0])
    r2 = np.sum((pts - x0_pt) ** 2, axis=1)

    # Supporting slope of u - kappa |z - x0|^2 for every kappa: the
    # paraboloid's gradient vanishes at the center, so this is the centered
    # gradient of u.  Where it is NaN no opening is admissible.
    D1, _ = node_differences(u.values, np.ravel_multi_index(x0, u.values.shape), dom.h)
    slope = np.array([D1(a) for a in range(dom.d)])
    gap0 = vals - u0 - (pts - x0_pt) @ slope

    geom_tol = 1e-12 * max(1.0, abs(u0))

    def admissible(kappa):
        return float(np.min(gap0 - kappa * r2)) >= -geom_tol

    if not admissible(1e-9):
        return ParaboloidResult(0.0, False, slope)
    lo = 1e-9
    hi = 1.0
    while admissible(hi) and hi < 1e6:
        lo = hi
        hi *= 2.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return ParaboloidResult(lo, True, slope)


# ---------------------------------------------------------------------------
# Hessian bounds on the good set


def hessian_bounds_on_Dk(u: GridFunction, nodes: list[tuple], k: int) -> dict:
    """Eigenvalues of the complex Hessian at k-good nodes against
    [10^-k, 2 * 10^{(n-1)k}], widened by the multiplicative slack 0.1."""
    n = u.domain.n
    slack = 0.1
    lo = 10.0 ** (-k) * (1.0 - slack)
    hi = 2.0 * 10.0 ** ((n - 1) * k) * (1.0 + slack)
    worst_low = math.inf
    worst_high = -math.inf
    violations = 0
    for idx in nodes:
        lam = np.linalg.eigvalsh(complex_hessian(u, tuple(idx)))
        worst_low = min(worst_low, float(lam.min()))
        worst_high = max(worst_high, float(lam.max()))
        if lam.min() < lo or lam.max() > hi:
            violations += 1
    return {
        "k": k,
        "nodes": len(nodes),
        "violations": violations,
        "lower_bound": lo,
        "upper_bound": hi,
        "worst_min_eigenvalue": worst_low if nodes else float("nan"),
        "worst_max_eigenvalue": worst_high if nodes else float("nan"),
        "passed": violations == 0,
    }


def _real_hessian(values: np.ndarray, nodes: np.ndarray, h: float) -> np.ndarray:
    """Real Hessian (m, d, d) by centered differences at flat node indices."""
    D2 = node_differences(values, nodes, h)[1]
    d = values.ndim
    H = np.empty(nodes.shape + (d, d))
    for a in range(d):
        for b in range(a, d):
            H[:, a, b] = H[:, b, a] = D2(a, b)
    return H


def subdeterminant_check(u0: GridFunction, v0: GridFunction,
                         gamma: GridFunction, contact: np.ndarray) -> dict:
    """det(D^2 Gamma)^(1/2n) + det(D^2 v0/2)^(1/2n) <= det(D^2 u0)^(1/2n)
    at the contact nodes where all three real Hessians are positive
    semidefinite."""
    dom = u0.domain
    nodes = np.flatnonzero(contact)
    Hs = [_real_hessian(gamma.values, nodes, dom.h),
          0.5 * _real_hessian(v0.values, nodes, dom.h),
          _real_hessian(u0.values, nodes, dom.h)]
    ok = ~np.any([np.isnan(H).any(axis=(-2, -1)) for H in Hs], axis=0)
    eigs = [np.linalg.eigvalsh(H[ok]) for H in Hs]
    psd = np.all([e.min(axis=1) >= -1e-8 for e in eigs], axis=0)
    roots = [np.prod(np.clip(e[psd], 0.0, None), axis=1) ** (1.0 / (2 * dom.n))
             for e in eigs]
    checked = int(psd.sum())
    worst = float(np.max(roots[0] + roots[1] - roots[2])) if checked else float("nan")
    return {
        "checked": checked,
        "worst_excess": worst,
        "passed": bool(checked == 0 or worst <= 1e-6),
    }
