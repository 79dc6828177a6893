"""Full-box oracles for the tests: quantities the library computes only
where something reads them, or one array at a time, computed here on every
lattice node or one node at a time."""

import math

import numpy as np
from scipy import ndimage

from cmalab import engulfing, sections
from cmalab.errors import SectionEscapeError
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
