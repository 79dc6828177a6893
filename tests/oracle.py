"""Full-box oracles for the tests: quantities the library computes only
where something reads them, or one array at a time, computed here on every
lattice node or one node at a time; and the index-array forms of routines
the library computes on flat indices or with stored operators."""

import math
from itertools import combinations

import numpy as np
from scipy import ndimage

from cmalab import engulfing, grid, sections, solver
from cmalab.errors import SectionEscapeError, StencilViolationError
from cmalab.grid import interp_multilinear, real_hessian_field


def lattice_signed(axes, values):
    """The signed function of a lattice domain: the multilinear interpolant
    of its lattice values, NaN (off the box) meaning outside."""
    def signed(pts):
        v = interp_multilinear(axes, values, pts)
        return np.where(np.isnan(v), 1.0, v)
    return signed


def dilated_mask(ps, c):
    """Lattice mask of the c-dilation of a section (membership of every
    node of its box)."""
    mesh = np.meshgrid(*ps.axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return engulfing.dilate_membership(ps, c, pts).reshape(ps.mask.shape)


def _grown(mask):
    """The Moore dilation of a mask over the whole box."""
    return ndimage.binary_dilation(
        mask, structure=ndimage.generate_binary_structure(mask.ndim, mask.ndim))


def inclusion_with_slack(inner, outer):
    """inner subset of outer up to one-cell slack, judged on the whole box."""
    return bool(np.all(_grown(outer)[inner]))


def sets_intersect(a, b):
    """Shared node or lattice distance 1, judged on the whole box."""
    return bool(np.any(_grown(a.mask) & b.mask))


def subdeterminant_check(u0, v0, gamma, contact):
    """The subdeterminant inequality one contact node at a time."""
    dom = u0.domain
    Hu = real_hessian_field(u0.values, dom.h)
    Hv = 0.5 * real_hessian_field(v0.values, dom.h)
    Hg = real_hessian_field(gamma.values, dom.h)
    ok = contact & ~(np.isnan(Hu).any(axis=(-2, -1))
                     | np.isnan(Hv).any(axis=(-2, -1))
                     | np.isnan(Hg).any(axis=(-2, -1)))
    checked = 0
    worst = -math.inf
    for it in np.argwhere(ok):
        it = tuple(it)
        eigs = [np.linalg.eigvalsh(m) for m in (Hg[it], Hv[it], Hu[it])]
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


def build_section(u, x0, mu, h):
    """The component of {u - h <= u(x0) + mu} through x0, cut on the whole
    box, with the escape test on the whole box."""
    dom = u.domain
    x0 = tuple(x0)
    u0 = float(u.values[x0])
    hvals = h.evaluate(dom.coords()).reshape(u.values.shape)
    sub = np.zeros_like(dom.interior_mask)
    np.less_equal(u.values - hvals, u0 + mu, out=sub, where=~np.isnan(u.values))
    structure = ndimage.generate_binary_structure(dom.d, 1)
    labels, _ = ndimage.label(sub & dom.interior_mask, structure=structure)
    comp = labels == labels[x0]
    if labels[x0] == 0:
        comp = np.zeros_like(sub)
        comp[x0] = True
    sub_bnd = sub & dom.boundary_mask
    if np.any(sub_bnd) and np.any(ndimage.binary_dilation(comp, structure=structure) & sub_bnd):
        raise SectionEscapeError(f"section at {x0} with height {mu} reaches the domain boundary")
    return sections.Section.from_mask(dom, x0, comp, mu)


def fit_ellipsoid(dom, section, A):
    """(c_in, c_out) with q evaluated on every node of the box."""
    pts = dom.coords()
    w = pts[:, 0::2] + 1j * pts[:, 1::2] - sections._complex_center(dom, section.center_idx)
    q = np.einsum("mi,ij,mj->m", w.conj(), A, w).real.reshape(section.mask.shape)
    inside = section.mask
    c_out = float(np.sqrt(np.max(q[inside], initial=0.0) / section.mu))
    c_in = float(np.sqrt(np.min(q[dom.valued_mask & ~inside]) / section.mu))
    return c_in, c_out


def interp_by_index(axes, values, pts):
    """grid.interp_multilinear gathering each cell corner by an index
    tuple."""
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
    frac = t - base

    out = np.zeros(m)
    for corner in range(1 << d):
        idx = []
        w = np.ones(m)
        for a in range(d):
            bit = (corner >> a) & 1
            idx.append(base[:, a] + bit)
            w = w * (frac[:, a] if bit else 1.0 - frac[:, a])
        out = out + w * values[tuple(idx)]
    out[~inside] = np.nan
    return out


def bc_table_by_index(dom, signed):
    """grid._build_bc_table searching directions with (nb, d) index
    arrays for every candidate step."""
    d = dom.d
    res = dom.resolution
    shape = dom.shape
    h = dom.h
    lo = dom.box[:, 0]
    interior_flat = dom.interior_mask.ravel()
    signed_flat = signed.ravel()
    strides = np.array([res ** (d - 1 - a) for a in range(d)], dtype=np.int64)

    b_idx = np.argwhere(dom.boundary_mask).astype(np.int64)
    nb = b_idx.shape[0]
    # Candidate directions are richer than the stencil: any axis or two-axis
    # diagonal may carry the extrapolation line.
    steps = np.array(grid.lattice_offsets(d, combinations(range(d), 2)), dtype=np.int64)

    # Score each direction by the normalized depth of x_1, with a strong
    # bonus when x_2 is interior (making the three-point form available).
    best_score = np.full(nb, -np.inf)
    best_step = np.zeros((nb, d), dtype=np.int64)
    for st in steps:
        slen_st = math.sqrt(float(st @ st))
        n1 = b_idx + st
        n2 = b_idx + 2 * st
        valid = np.all((n1 >= 0) & (n1 < res), axis=1)
        score = np.full(nb, -np.inf)
        f1 = n1[valid] @ strides
        sub = interior_flat[f1]
        rows_v = np.flatnonzero(valid)[sub]
        score[rows_v] = -signed_flat[f1[sub]] / slen_st
        ok2 = np.all((n2 >= 0) & (n2 < res), axis=1)
        f2 = np.zeros(nb, dtype=np.int64)
        f2[ok2] = n2[ok2] @ strides
        ok2 &= interior_flat[f2]
        score[ok2] += 1e6
        better = score > best_score
        best_score[better] = score[better]
        best_step[better] = st
    if not np.all(np.isfinite(best_score)):
        raise StencilViolationError("boundary node without an interior stencil neighbor")

    xb = lo + h * b_idx
    slen = h * np.sqrt((best_step ** 2).sum(axis=1).astype(float))
    dhat = best_step * h / slen[:, None]
    sb = signed_flat[b_idx @ strides]

    # A lattice domain is the multilinear interpolant of `signed` itself, so
    # its cuts have a closed form in the lattice values; a shape is bisected.
    t_c = np.zeros(nb)
    ring = sb > 0.0
    if np.any(ring):
        if shape is None:
            t_c[ring] = slen[ring] * grid._lattice_cut(signed, b_idx[ring], best_step[ring])
        else:
            t_c[ring] = grid._bisect_cut_batch(shape, xb[ring], xb[ring] + best_step[ring] * h)
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
                    t = grid._lattice_cut(signed, near, -best_step[rr])
                    t_c[rr] = -slen[rr] * ((reach - 1) + t)
                else:
                    t_c[rr] = -grid._bisect_cut_batch(shape, xb[rr], x_out[hit])
            rows = rows[~hit]
        # Unresolved leftovers anchor at the node itself (t_c stays 0).
    cuts = xb + dhat * t_c[:, None]

    def flat_of(nidx):
        ok = np.all((nidx >= 0) & (nidx < res), axis=1)
        f = np.full(nb, -1, dtype=np.int64)
        f[ok] = nidx[ok] @ strides
        have = ok.copy()
        have[ok] = interior_flat[f[ok]]
        return f, have

    f1, have1 = flat_of(b_idx + best_step)
    f2, have2 = flat_of(b_idx + 2 * best_step)
    f3, have3 = flat_of(b_idx + 3 * best_step)

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
        "flat": b_idx @ strides,
        "idx1": idx1,
        "idx2": idx2,
        "coef_c": coef_c,
        "coef_1": coef_1,
        "coef_2": coef_2,
        "cuts": cuts,
    }


def cycle_transposing(levels, coarsest, b, lvl=0):
    """solver._cycle transposing P on every call and smoothing from x = 0
    with a product with A."""
    if lvl == len(levels):
        return coarsest.solve(b)
    A, P, _, dinv = levels[lvl]
    x = np.zeros_like(b)
    for _ in range(solver._JACOBI_SWEEPS):
        x += solver._JACOBI_OMEGA * dinv * (b - A @ x)
    x += P @ cycle_transposing(levels, coarsest, P.T @ (b - A @ x), lvl + 1)
    for _ in range(solver._JACOBI_SWEEPS):
        x += solver._JACOBI_OMEGA * dinv * (b - A @ x)
    return x
