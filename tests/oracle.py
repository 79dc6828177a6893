"""Full-box oracles for the tests: quantities the library computes only
where something reads them, or one array at a time, computed here on every
lattice node (every hull facet) or one node at a time; the index-array forms of routines
the library computes on flat indices or with stored operators; the COO
form of the operator assembly; and the centered differences over the whole
box, which the library reads only at node sets."""

import math
from itertools import combinations, product

import numpy as np
import scipy.sparse as sp
from scipy import ndimage

from cmalab import badset, engulfing, grid, sections, solver, w2p
from cmalab.errors import BoundaryConstraintError, SectionEscapeError, StencilViolationError
from cmalab.grid import interp_multilinear


def shifted(values, off):
    """values at x + off over the whole box; NaN where x + off leaves it."""
    padded = np.pad(values, 1, constant_values=np.nan)
    return padded[tuple(slice(1 + o, 1 + o + s) for o, s in zip(off, values.shape))]


def diff_fields(values, h):
    """Centered differences D1(a), D2(a, b) as whole-box arrays, NaN where
    the stencil leaves the box or meets a NaN value: the library's formulas
    in its summation order, each term a whole-box shift."""
    d = values.ndim
    axis = grid.lattice_offsets(d)

    def D1(a):
        return (shifted(values, axis[2 * a + 1]) - shifted(values, axis[2 * a])) / (2.0 * h)

    def D2(a, b):
        if a == b:
            return (shifted(values, axis[2 * a + 1]) - 2.0 * values
                    + shifted(values, axis[2 * a])) / h ** 2
        acc = 0.0
        for off, sign in grid.mixed_terms(d, a, b):
            acc = acc + sign * shifted(values, off)
        return acc / (4.0 * h ** 2)

    return D1, D2


def hessian_fields(u):
    """The complex Hessian components over the whole box."""
    D2 = diff_fields(u.values, u.domain.h)[1]
    parts = {"h11": 0.25 * (D2(0, 0) + D2(1, 1))}
    if u.domain.n == 2:
        parts["h22"] = 0.25 * (D2(2, 2) + D2(3, 3))
        parts["h12re"] = 0.25 * (D2(0, 2) + D2(1, 3))
        parts["h12im"] = 0.25 * (D2(0, 3) - D2(1, 2))
    return parts


def real_hessian_field(values, h):
    """The real Hessian over the whole box, a (..., d, d) array."""
    D2 = diff_fields(values, h)[1]
    d = values.ndim
    H = np.empty(values.shape + (d, d))
    for a in range(d):
        for b in range(a, d):
            H[..., a, b] = H[..., b, a] = D2(a, b)
    return H


def _lp(field, ok, p, h, d):
    return float(np.sum(np.abs(field[ok]) ** p) * h ** d) ** (1.0 / p)


def full_w2p(u, p, region):
    """w2p.full_w2p from whole-box fields, summed over the region nodes
    whose every axis step and two-axis diagonal carries a value."""
    dom = u.domain
    d, h, vals = dom.d, dom.h, u.values
    ok = region & ~np.isnan(vals)
    for off in grid.lattice_offsets(d, combinations(range(d), 2)):
        ok &= ~np.isnan(shifted(vals, off))
    D1, D2 = diff_fields(vals, h)
    total = 0.0
    lap = np.zeros_like(vals)
    for a in range(d):
        for b in range(a, d):
            fld = D2(a, b)
            if a == b:
                lap = lap + fld
            total += _lp(fld, ok, p, h, d)
    grad_norm = 0.0
    for a in range(d):
        grad_norm += _lp(D1(a), ok, p, h, d)
    u_norm = _lp(vals, ok, p, h, d)
    full = total + grad_norm + u_norm
    return full, full / (u_norm + _lp(lap, ok, p, h, d))


def direct_norms(u, p):
    """norm_report's direct integrals of the trace and the inverse trace to
    the p, from whole-box fields, over the interior nodes of B_0.6."""
    dom = u.domain
    r = np.linalg.norm(dom.coords(), axis=1).reshape(u.values.shape)
    region = dom.interior_mask & (r <= badset.DYADIC_RADIUS)
    fields = hessian_fields(u)
    return (_lp(w2p.complex_trace_field(fields), region, p, dom.h, dom.d) ** p,
            _lp(w2p.inverse_trace_field(fields), region, p, dom.h, dom.d) ** p)


def convexity_defect(gamma, region):
    """Largest midpoint-concavity violation along lattice directions, over
    the whole box."""
    vals = np.where(region, gamma.values, np.nan)
    worst = 0.0
    for e in badset._envelope_directions(vals.ndim):
        gap = vals - 0.5 * (shifted(vals, e) + shifted(vals, tuple(-x for x in e)))
        if np.any(~np.isnan(gap)):
            worst = max(worst, float(np.nanmax(gap)))
    return worst


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
    dets = []   # per checked node, the three eigenvalue products
    for it in np.argwhere(ok):
        it = tuple(it)
        eigs = [np.linalg.eigvalsh(m) for m in (Hg[it], Hv[it], Hu[it])]
        if any(e.min() < -1e-8 for e in eigs):
            continue
        dets.append([np.prod(np.clip(e, 0.0, None)) for e in eigs])
    checked = len(dets)
    worst = float("nan")
    if checked:
        # The root is an array power over the checked nodes, as in the
        # library: numpy's array and scalar powers may round apart.
        roots = [np.array(col) ** (1.0 / (2 * dom.n)) for col in zip(*dets)]
        worst = float(np.max(roots[0] + roots[1] - roots[2]))
    return {
        "checked": checked,
        "worst_excess": worst,
        "passed": bool(checked == 0 or worst <= 1e-6),
    }


def envelope_all_planes(w, region):
    """Lower convex hull of the lifted region nodes at the region nodes
    (row-major order), every lower facet's plane evaluated at every node
    that is not a hull vertex."""
    from scipy.spatial import ConvexHull

    pts = w.domain.coords()[region.ravel()]
    vals = w.values[region]
    d = pts.shape[1]
    hull = ConvexHull(np.column_stack([pts, vals]))
    lower = hull.equations[:, d] < -badset._LOWER_FACET_TILT
    eq = hull.equations[lower]
    grads = -eq[:, :d] / eq[:, d:d + 1]
    heights = -eq[:, d + 1] / eq[:, d]
    env = vals.copy()
    off_hull = np.ones(vals.size, dtype=bool)
    off_hull[hull.simplices[lower]] = False
    rest = np.flatnonzero(off_hull)
    step = max(1, badset._PLANE_CHUNK // len(grads))
    for s in range(0, rest.size, step):
        idx = rest[s:s + step]
        planes = np.max(pts[idx] @ grads.T + heights, axis=1)
        env[idx] = np.minimum(vals[idx], planes)
    return env


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


def bisect_cut(shape, p0, p1):
    """Roots of the signed shape function on segments [p0_i, p1_i], whose
    ends have opposite signs, as distances from p0_i: 60 halvings of the
    unit parameter, below double-precision resolution."""
    a = np.atleast_2d(p0).astype(float)
    b = np.atleast_2d(p1).astype(float)
    fa = shape.signed(a)
    lo_t = np.zeros(a.shape[0])
    hi_t = np.ones(a.shape[0])
    for _ in range(60):
        mid = 0.5 * (lo_t + hi_t)
        fm = shape.signed(a + mid[:, None] * (b - a))
        same = (fm > 0.0) == (fa > 0.0)
        lo_t = np.where(same, mid, lo_t)
        hi_t = np.where(same, hi_t, mid)
    t = 0.5 * (lo_t + hi_t)
    return t * np.linalg.norm(b - a, axis=1)


def bc_table_by_index(dom, signed, bisect=False):
    """grid._build_bc_table searching directions with (nb, d) index
    arrays for every candidate step.  With `bisect`, a shape's cuts are
    bisected on the whole segment from the boundary node to the first
    node outside (bisect_cut) instead of taken through the library's
    seeded refinement."""
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

    # Closed-form lattice cuts, refined on a shape by grid._shape_cut from
    # the lattice values of the segment ends, unless bisected.
    t_c = np.zeros(nb)
    ring = sb > 0.0
    if np.any(ring):
        if bisect:
            t_c[ring] = bisect_cut(shape, xb[ring], xb[ring] + best_step[ring] * h)
        else:
            t = grid._lattice_cut(signed, b_idx[ring], best_step[ring])
            if shape is not None:
                x1 = (b_idx[ring] + best_step[ring]) @ strides
                t = grid._shape_cut(shape, xb[ring], best_step[ring] * h, t, sb[ring],
                                    signed_flat[x1])
            t_c[ring] = slen[ring] * t
    dem = sb < 0.0
    if np.any(dem):
        rows = np.flatnonzero(dem)
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
            if rr.size and bisect:
                t_c[rr] = -bisect_cut(shape, xb[rr], lo + h * far[hit])
            elif rr.size:
                near = b_idx[rr] - (reach - 1) * best_step[rr]
                t = grid._lattice_cut(signed, near, -best_step[rr])
                if shape is not None:
                    t = grid._shape_cut(shape, lo + h * near, -best_step[rr] * h, t,
                                        sb[rr] if reach == 1 else s_in[hit], s_out[hit])
                t_c[rr] = -slen[rr] * ((reach - 1) + t)
            rows, s_in = rows[~hit], s_out[~hit]
        if rows.size:
            raise BoundaryConstraintError("inside boundary node with no cut within two steps")
    cuts = xb + dhat * t_c[:, None]

    t1 = slen
    if np.any((t1 - t_c) <= 1e-3 * slen):
        raise BoundaryConstraintError("a boundary cut point nearly collides with x_1")
    t2 = 2.0 * slen
    n2 = b_idx + 2 * best_step
    quad = np.all((n2 >= 0) & (n2 < res), axis=1)
    quad[quad] = interior_flat[n2[quad] @ strides]

    # Three-point form through (x_1, x_2) where x_2 is interior, else
    # two-point through x_1.
    return {
        "flat": b_idx @ strides,
        "idx1": (b_idx + best_step) @ strides,
        "idx2": np.where(quad, n2 @ strides, -1),
        "coef_c": np.where(quad, (t1 * t2) / ((t_c - t1) * (t_c - t2)), -t1 / (t_c - t1)),
        "coef_1": np.where(quad, (t_c * t2) / ((t1 - t_c) * (t1 - t2)), -t_c / (t1 - t_c)),
        "coef_2": np.where(quad, (t_c * t1) / ((t2 - t_c) * (t2 - t1)), 0.0),
        "cuts": cuts,
    }


def prolongation_by_corner(mask):
    """solver._prolongation testing every unknown's index arrays against
    each cell corner in turn."""
    d = mask.ndim
    cmask = mask[(slice(None, None, 2),) * d]
    ccol = np.full(cmask.size, -1, dtype=np.int64)
    ccol[np.flatnonzero(cmask)] = np.arange(np.count_nonzero(cmask))
    idx = np.argwhere(mask)
    odd = idx % 2 == 1
    rows, cols, vals = [], [], []
    for corner in product((0, 1), repeat=d):
        use = np.flatnonzero(np.all(odd | (np.array(corner) == 0), axis=1))
        col = ccol[np.ravel_multi_index(((idx[use] + corner) // 2).T, cmask.shape)]
        keep = col >= 0
        rows.append(use[keep])
        cols.append(col[keep])
        vals.append(0.5 ** np.count_nonzero(odd[use[keep]], axis=1))
    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(idx.shape[0], np.count_nonzero(cmask))).tocsr()
    return P, cmask


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


def assemble_coo(dom, weights):
    """solver._assemble through one preallocated COO triple: every entry,
    interior columns first, summed by tocsr, then the fold N_II + N_IB S."""
    asm = solver._get_assembly(dom)
    n_int, n_bnd = asm["n_int"], asm["n_bnd"]
    inv_h2 = 1.0 / dom.h ** 2
    terms = [(weights[key], entries) for key, entries in asm["ops"].items()
             if key in weights]
    nnz_i = sum(e[1].size for _, entries in terms for e in entries)
    nnz = nnz_i + sum(e[3].size for _, entries in terms for e in entries)
    rows = np.empty(nnz, dtype=np.int32)
    cols = np.empty(nnz, dtype=np.int32)
    vals = np.empty(nnz)
    pi, pb = 0, nnz_i
    for w, entries in terms:
        for c, rows_i, cols_i, rows_b, cols_b in entries:
            coef = w * (c * inv_h2)
            for p, r, cl in ((pi, rows_i, cols_i), (pb, rows_b, cols_b)):
                rows[p:p + r.size] = r
                cols[p:p + r.size] = cl
                vals[p:p + r.size] = coef[r]
            pi += rows_i.size
            pb += rows_b.size
    N_II = sp.coo_matrix((vals[:nnz_i], (rows[:nnz_i], cols[:nnz_i])),
                         shape=(n_int, n_int)).tocsr()
    N_IB = sp.coo_matrix((vals[nnz_i:], (rows[nnz_i:], cols[nnz_i:])),
                         shape=(n_int, n_bnd)).tocsr()
    return N_II + N_IB @ asm["S"], N_IB
