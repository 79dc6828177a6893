"""Good/bad-set classification and the dyadic measure-decay experiment.

A node is k-good when every available section at that node fits inside the
ball of radius sqrt(10^k mu); the bad sets A_k are the complements inside
B_0.8 and their measures against the geometric bound form the decay report.
Convex envelopes, contact sets, Monge-Ampere measures of convex functions,
and touching paraboloids supply the pointwise second-derivative control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChainBrokenError, EnvelopeConvergenceError
from .grid import (
    GridDomain,
    GridFunction,
    complex_hessian,
    first_diff_field,
    real_hessian_field,
    shift,
)
from .sections import SectionChain, construct_section_chain
from .solver import SolveConfig


# ---------------------------------------------------------------------------
# Per-node chains and D_k classification


@dataclass
class NodeSections:
    """Ball-fit data of the sections available at one sampled node:
    (height, max distance of section nodes from the center)."""

    idx: tuple
    radii: list[tuple[float, float]]


def section_ball_radii(u: GridFunction, chain: SectionChain,
                       mu_min: float | None = None) -> NodeSections:
    """Max center-distance of each resolvable section of the chain,
    evaluated on the original grid."""
    dom = u.domain
    if mu_min is None:
        mu_min = (2.0 * dom.h) ** 2
    ctr = chain.center_point
    out = []
    for lv in chain.levels:
        mu = lv.height
        if mu < mu_min:
            continue
        sec = chain.section(u, mu)
        pts = dom.coords(sec.mask.ravel())
        rad = float(np.max(np.linalg.norm(pts - ctr, axis=1), initial=0.0))
        out.append((mu, rad))
    return NodeSections(chain.center_idx, out)


def sample_badset_chains(u: GridFunction, v0: GridFunction,
                         stride: int = 2, levels: int = 2,
                         sigma: float = 0.2, mu0: float = 0.1,
                         chain_resolution: int = 33,
                         cfg: SolveConfig | None = None,
                         sample_radius: float = 0.8) -> list[NodeSections]:
    """Chains (reduced to ball-fit radii) at every stride-th interior node
    of the sample ball.  Nodes whose chain cannot be built are skipped with
    a zero-record (they classify as bad at every k)."""
    dom = u.domain
    res = dom.resolution
    out = []
    for idx in np.argwhere(dom.interior_mask):
        if any(int(i) % stride for i in idx):
            continue
        pt = dom.coords(tuple(idx))
        if float(np.linalg.norm(pt)) > sample_radius:
            continue
        idx = tuple(int(i) for i in idx)
        try:
            chain = construct_section_chain(
                u, idx, sigma=sigma, k_max=levels, cfg=cfg, mu0=mu0,
                mu_top=None, chain_resolution=chain_resolution, v0=v0)
            out.append(section_ball_radii(u, chain))
        except (ChainBrokenError, ValueError):
            out.append(NodeSections(idx, []))
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


def radius_schedule(k_max: int) -> list[float]:
    """r_0 = 0.7 and r_k = r_{k-1} - 2^{-k}/10 (limit 0.6)."""
    rs = [0.7]
    for k in range(1, k_max + 1):
        rs.append(rs[-1] - 0.1 * 2.0 ** (-k))
    return rs


def badset_decay_experiment(u: GridFunction, node_sections: list[NodeSections],
                            eps_bar: float, k_max: int,
                            stride: int = 2, params: dict | None = None
                            ) -> BadSetReport:
    """Measure decay of the bad sets against m(B_0.7) (12^{2n} eps_bar)^{k-1}.

    Sampled-node measures use the stride-adjusted cell volume; empty rows
    pass vacuously and are flagged.
    """
    dom = u.domain
    d = dom.d
    cell = (stride * dom.h) ** d
    centers = np.array([dom.coords(tuple(ns.idx)) for ns in node_sections])
    dist = np.linalg.norm(centers, axis=1)
    rs = radius_schedule(k_max)
    m_b07 = float(np.sum(dist <= 0.7)) * cell
    m_b06 = float(np.sum(dist <= 0.6)) * cell

    rows = []
    prev = None
    monotone = True
    for k in range(1, k_max + 1):
        good = classify_Dk(node_sections, k, dom)
        bad = ~good
        meas = float(np.sum(bad & (dist <= rs[k]))) * cell
        meas06 = float(np.sum(bad & (dist <= 0.6))) * cell
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


_ENVELOPE_TOL = 1e-10


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


def convex_envelope(w: GridFunction, region: np.ndarray,
                    tol: float = _ENVELOPE_TOL, max_sweeps: int | None = None
                    ) -> GridFunction:
    """Largest lattice-convex minorant of w on the region.

    Midpoint relaxation over all lattice directions (axes and diagonals)
    until the largest update drops below tol.  The fixed point is the
    directionally convex envelope; on planar grids it is cross-validated in
    the tests against the exact lower hull of the lifted point cloud.
    """
    vals = w.values
    d = vals.ndim
    res = vals.shape[0]
    gam = np.where(region, vals, np.nan)
    if np.any(np.isnan(gam[region])):
        raise ValueError("w must be finite on the region")
    dirs = _envelope_directions(d)
    if max_sweeps is None:
        max_sweeps = 40 * res

    delta = math.inf
    for sweep in range(max_sweeps):
        delta = 0.0
        for e in dirs:
            up = shift(gam, e)
            dn = shift(gam, tuple(-x for x in e))
            mid = 0.5 * (up + dn)
            cand = np.fmin(gam, mid)
            ok = region & ~np.isnan(mid)
            if np.any(ok):
                change = np.nanmax(np.where(ok, gam - cand, 0.0))
                delta = max(delta, float(change))
                gam[ok] = cand[ok]
        if delta < tol:
            break
    else:
        raise EnvelopeConvergenceError(
            f"envelope relaxation did not converge in {max_sweeps} sweeps "
            f"(last update {delta:.2e})")
    out = np.full_like(vals, np.nan)
    out[region] = gam[region]
    return GridFunction(w.domain, out)


def contact_set(w: GridFunction, gamma: GridFunction, tol: float = 1e-8
                ) -> np.ndarray:
    """Nodes where the envelope touches: w - gamma <= tol."""
    diff = w.values - gamma.values
    out = np.zeros(diff.shape, dtype=bool)
    np.less_equal(diff, tol, out=out, where=~np.isnan(diff))
    return out


def lattice_convexity_defect(gamma: GridFunction, region: np.ndarray) -> float:
    """Largest midpoint-concavity violation along lattice directions."""
    vals = np.where(region, gamma.values, np.nan)
    worst = 0.0
    for e in _envelope_directions(vals.ndim):
        mid = 0.5 * (shift(vals, e) + shift(vals, tuple(-x for x in e)))
        gap = vals - mid
        if np.any(~np.isnan(gap)):
            worst = max(worst, float(np.nanmax(gap)))
    return worst


# ---------------------------------------------------------------------------
# Monge-Ampere measure of a convex grid function


def ma_measure(gamma: GridFunction, E: np.ndarray,
               slope_resolution: int = 201, pad: float = 0.25,
               convexity_tol: float = 1e-7, return_info: bool = False):
    """Measure of the subgradient image of E under the convex function.

    Planar grids (n = 1) get the exact Alexandrov construction: slope space
    is swept on a fine lattice and each slope is charged to the node
    minimizing gamma(x) - p.x, which partitions slopes among nodes exactly.
    n = 2 falls back to the integral of det D^2 gamma over E, flagged as an
    approximation.
    """
    dom = gamma.domain
    region = ~np.isnan(gamma.values)
    defect = lattice_convexity_defect(gamma, region)
    if defect > convexity_tol:
        raise ValueError(f"function is not lattice-convex (defect {defect:.2e})")

    if dom.n == 2:
        hess = real_hessian_field(gamma.values, dom.h)
        dets = np.linalg.det(hess[E & ~np.isnan(hess).any(axis=(-2, -1))])
        val = float(np.sum(np.clip(dets, 0.0, None)) * dom.h ** dom.d)
        return (val, {"method": "det-integral", "approximate": True}) if return_info else val

    # Slope box from difference quotients, padded.
    gx = np.gradient(np.where(region, gamma.values, np.nan), dom.h, axis=0)
    gy = np.gradient(np.where(region, gamma.values, np.nan), dom.h, axis=1)
    lo0, hi0 = np.nanmin(gx), np.nanmax(gx)
    lo1, hi1 = np.nanmin(gy), np.nanmax(gy)
    span0 = max(hi0 - lo0, 1e-6)
    span1 = max(hi1 - lo1, 1e-6)
    p0 = np.linspace(lo0 - pad * span0, hi0 + pad * span0, slope_resolution)
    p1 = np.linspace(lo1 - pad * span1, hi1 + pad * span1, slope_resolution)
    dp = (p0[1] - p0[0]) * (p1[1] - p1[0])

    # Each slope is charged to the node minimizing gamma(x) - p.x (lowest
    # row-major index on ties); the product slope lattice factors the
    # minimization axis by axis, exactly matching flat argmin tie-breaking.
    xs = dom.axes[0]
    ys = dom.axes[1]
    big = np.where(region, gamma.values, np.inf)
    # stage 1: per (x-row, p1): minimize over the y-axis
    scores1 = big[:, None, :] - p1[None, :, None] * ys[None, None, :]
    arg_y = np.argmin(scores1, axis=2)                  # (N0, P1)
    val_y = np.take_along_axis(scores1, arg_y[:, :, None], axis=2)[:, :, 0]
    count = 0
    in_E = E & region
    chunk = 64
    for s in range(0, p0.size, chunk):
        pc = p0[s:s + chunk]
        scores0 = val_y[None, :, :] - pc[:, None, None] * xs[None, :, None]
        arg_x = np.argmin(scores0, axis=1)              # (chunk, P1)
        node_y = arg_y[arg_x, np.arange(p1.size)[None, :]]
        count += int(np.sum(in_E[arg_x, node_y]))
    val = count * dp
    return (val, {"method": "subgradient-sweep", "approximate": False}) if return_info else val


# ---------------------------------------------------------------------------
# Touching paraboloids


@dataclass
class ParaboloidResult:
    kappa: float
    supported: bool
    slope: np.ndarray


def touching_paraboloid_opening(u: GridFunction, x0: tuple,
                                region: np.ndarray,
                                tol: float = 1e-6) -> ParaboloidResult:
    """Largest opening of a paraboloid touching u from below at x0.

    The affine part is the centered-difference supporting slope at x0; the
    opening is found by bisection to the requested tolerance.  Returns 0
    with supported=False when no positive opening works.
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
    # gradient of u.
    slope = np.array([first_diff_field(u.values, a, dom.h)[x0] for a in range(dom.d)])

    geom_tol = 1e-12 * max(1.0, abs(u0))

    def admissible(kappa):
        gap = vals - u0 - (pts - x0_pt) @ slope - kappa * r2
        return float(np.min(gap)) >= -geom_tol

    if not admissible(1e-9):
        return ParaboloidResult(0.0, False, slope)
    lo = 1e-9
    hi = 1.0
    while admissible(hi) and hi < 1e6:
        lo = hi
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return ParaboloidResult(lo, True, slope)


# ---------------------------------------------------------------------------
# Hessian bounds on the good set


def hessian_bounds_on_Dk(u: GridFunction, nodes: list[tuple], k: int,
                         slack: float = 0.1) -> dict:
    """Eigenvalues of the complex Hessian at k-good nodes against
    [10^-k, 2 * 10^{(n-1)k}], with multiplicative slack."""
    n = u.domain.n
    lo = 10.0 ** (-k) * (1.0 - slack)
    hi = 2.0 * 10.0 ** ((n - 1) * k) * (1.0 + slack)
    worst_low = math.inf
    worst_high = -math.inf
    violations = 0
    for idx in nodes:
        lam = complex_hessian(u, tuple(idx)).eigenvalues()
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


def subdeterminant_check(u0: GridFunction, v0: GridFunction,
                         gamma: GridFunction, contact: np.ndarray) -> dict:
    """det(D^2 Gamma)^(1/2n) + det(D^2 v0/2)^(1/2n) <= det(D^2 u0)^(1/2n)
    node-wise where all three real Hessians are positive semidefinite."""
    dom = u0.domain
    Hu = real_hessian_field(u0.values, dom.h)
    Hv = 0.5 * real_hessian_field(v0.values, dom.h)
    Hg = real_hessian_field(gamma.values, dom.h)
    ok = contact & ~(np.isnan(Hu).any(axis=(-2, -1))
                     | np.isnan(Hv).any(axis=(-2, -1))
                     | np.isnan(Hg).any(axis=(-2, -1)))
    idxs = np.argwhere(ok)
    checked = 0
    worst = -math.inf
    for it in idxs:
        it = tuple(it)
        mats = (Hg[it], Hv[it], Hu[it])
        eigs = [np.linalg.eigvalsh(m) for m in mats]
        if any(e.min() < -1e-8 for e in eigs):
            continue
        checked += 1
        roots = [np.prod(np.clip(e, 0.0, None)) ** (1.0 / (2 * dom.n)) for e in eigs]
        worst = max(worst, roots[0] + roots[1] - roots[2])
    return {
        "checked": checked,
        "worst_excess": worst if checked else float("nan"),
        "passed": bool(checked == 0 or worst <= 1e-6),
    }
