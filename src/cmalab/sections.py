"""Sections of near-quadratic plurisubharmonic functions.

A section at base point x0 and height mu is the sublevel set
{u - h <= u(x0) + mu} for a degree-2 pluriharmonic shift h.  Shifts come
from Taylor-splitting the solution of the unit-determinant Dirichlet
problem at a node, which also gives its Hermitian form: the complex
Hessian, a complex (n, n) array like the transform it normalizes to.  The
inductive chain re-solves that problem on each normalized section,
accumulating a transform and shift per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CmalabError,
    DegeneracyError,
    DegenerateHessianError,
    SectionEscapeError,
    SectionFitError,
    StencilViolationError,
)
from .grid import (
    GridDomain,
    GridFunction,
    build_domain,  # noqa: F401  perfbench/layers.py wraps cmalab.sections.build_domain
    component,
    grow,
    lattice_domain,
    mask_window,
    node_jet,
)
from .solver import solve_dirichlet


# ---------------------------------------------------------------------------
# Domain types


@dataclass(eq=False)
class PluriharmonicPoly:
    """h(z) = Re(sum l_i (z-c)_i) + Re(sum b_ij (z-c)_i (z-c)_j); h(c) = 0."""

    center: np.ndarray          # complex, (n,)
    linear: np.ndarray          # complex, (n,)
    quad: np.ndarray            # complex symmetric, (n, n)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=complex)
        self.linear = np.asarray(self.linear, dtype=complex)
        q = np.asarray(self.quad, dtype=complex)
        self.quad = 0.5 * (q + q.T)

    @property
    def n(self) -> int:
        return self.center.size

    @classmethod
    def zero(cls, center) -> "PluriharmonicPoly":
        center = np.asarray(center, dtype=complex)
        n = center.size
        return cls(center, np.zeros(n, complex), np.zeros((n, n), complex))

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Values at real-coordinate points (m, 2n)."""
        pts = np.atleast_2d(pts)
        w = pts[:, 0::2] + 1j * pts[:, 1::2] - self.center
        lin = w @ self.linear
        quad = np.einsum("mi,ij,mj->m", w, self.quad, w)
        return (lin + quad).real

    def shifted_compose(self, scale: float, M: np.ndarray, new_center) -> "PluriharmonicPoly":
        """scale * h(M (z - new_center)) as a pluriharmonic polynomial in z."""
        M = np.asarray(M, dtype=complex)
        lin = scale * (M.T @ self.linear)
        quad = scale * (M.T @ self.quad @ M)
        return PluriharmonicPoly(np.asarray(new_center, dtype=complex), lin, quad)

    def add(self, other: "PluriharmonicPoly") -> "PluriharmonicPoly":
        if not np.allclose(self.center, other.center):
            raise ValueError("can only add shifts with a common center")
        return PluriharmonicPoly(self.center, self.linear + other.linear,
                                 self.quad + other.quad)

    def coefficients(self) -> dict:
        return {
            "center": _c2pairs(self.center),
            "linear": _c2pairs(self.linear),
            "quad": _c2pairs(self.quad.ravel()),
        }


def _c2pairs(arr: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(arr).ravel()]


def _c2floats(arr: np.ndarray) -> list:
    return [v for pair in _c2pairs(arr) for v in pair]


def _apply(T: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The C-linear map T on real-coordinate points (m, 2n) -> (m, 2n)."""
    pts = np.atleast_2d(pts)
    w = (pts[:, 0::2] + 1j * pts[:, 1::2]) @ T.T
    out = np.empty_like(pts)
    out[:, 0::2] = w.real
    out[:, 1::2] = w.imag
    return out


@dataclass(eq=False)
class Section:
    """Pointed lattice set: a node mask on a uniform lattice, a center node
    that belongs to it, and the height mu > 0 of the section it stands for.
    build_section cuts {u - h <= u(x0) + mu}; other families (balls, read
    masks) are sections by fiat."""

    center_idx: tuple
    mask: np.ndarray
    lo: np.ndarray              # lower corner coordinates per axis
    h: float
    mu: float

    def __post_init__(self):
        self.center_idx = tuple(self.center_idx)
        self.lo = np.asarray(self.lo, dtype=float)
        if self.mu <= 0:
            raise ValueError("height mu must be positive")
        if not all(0 <= i < s for i, s in zip(self.center_idx, self.mask.shape)):
            raise ValueError(f"center node {self.center_idx} lies off the lattice")
        if not self.mask[self.center_idx]:
            raise ValueError("center node must belong to the set")

    @classmethod
    def from_mask(cls, dom: GridDomain, center_idx: tuple, mask: np.ndarray,
                  mu: float) -> "Section":
        return cls(center_idx, mask, dom.box[:, 0].copy(), dom.h, mu)

    @property
    def ndim(self) -> int:
        return self.mask.ndim

    @property
    def axes(self) -> list[np.ndarray]:
        return [self.lo[a] + self.h * np.arange(self.mask.shape[a])
                for a in range(self.ndim)]

    @property
    def center_point(self) -> np.ndarray:
        return self.lo + self.h * np.asarray(self.center_idx, dtype=float)

    def node_count(self) -> int:
        return int(self.mask.sum())

    def measure(self) -> float:
        return self.node_count() * self.h ** self.ndim


@dataclass
class ChainLevel:
    k: int
    height: float
    transform: np.ndarray                  # complex (n, n) level increment, normalized coords
    shift_increment: PluriharmonicPoly     # in level-(k-1) coordinates
    composite_transform: np.ndarray        # complex (n, n)
    composite_shift: PluriharmonicPoly     # in original coordinates
    fit_in: float
    fit_out: float
    omega_r_in: float
    omega_r_out: float
    solve_iterations: int
    solve_residual: float
    transform_deviation: float


@dataclass(eq=False)
class SectionChain:
    domain: GridDomain
    center_idx: tuple
    sigma: float
    mu0: float
    mu_top: float
    levels: list[ChainLevel] = field(default_factory=list)
    paper_mu0: float = float("nan")
    broken: tuple[int, str, str] | None = None     # (level, cause type, message)

    @property
    def center_point(self) -> np.ndarray:
        return self.domain.coords(self.center_idx)

    def height_of_level(self, k: int) -> float:
        return self.mu_top * self.mu0 ** (k - 1)

    def level_for_height(self, mu: float) -> int:
        """Level whose shift cuts sections of height mu (clamped to built)."""
        if mu > self.mu_top:
            raise ValueError(f"height {mu} above the chain top {self.mu_top}")
        k = 1
        while k < len(self.levels) and mu <= self.height_of_level(k + 1):
            k += 1
        return k

    def shift_for_height(self, mu: float) -> PluriharmonicPoly:
        return self.levels[self.level_for_height(mu) - 1].composite_shift

    def section(self, u: GridFunction, mu: float) -> Section:
        return build_section(u, self.center_idx, mu, self.shift_for_height(mu))

    def to_dict(self) -> dict:
        out = {
            "center": [float(c) for c in self.center_point],
            "sigma": self.sigma,
            "mu0": self.mu0,
            "mu_top": self.mu_top,
            "paper_mu0": self.paper_mu0,
            "levels": [
                {
                    "k": lv.k,
                    "height": lv.height,
                    "transform": _c2floats(lv.transform),
                    "composite_transform": _c2floats(lv.composite_transform),
                    "shift_increment": lv.shift_increment.coefficients(),
                    "composite_shift": lv.composite_shift.coefficients(),
                    "fit": [lv.fit_in, lv.fit_out],
                    "omega_radii": [lv.omega_r_in, lv.omega_r_out],
                    "solve": [lv.solve_iterations, lv.solve_residual],
                    "transform_deviation": lv.transform_deviation,
                }
                for lv in self.levels
            ],
        }
        if self.broken is not None:
            out["broken"] = list(self.broken)
        return out

    @classmethod
    def from_dict(cls, data: dict, domain: GridDomain) -> "SectionChain":
        """Inverse of to_dict on the lattice the chain was built on.  Scalars
        go through float() because artifacts store non-finite values as
        strings ("nan", "inf")."""
        n = domain.n

        def cplx(pairs):
            return np.asarray(pairs, dtype=float).reshape(-1, 2).view(complex).ravel()

        def poly(c):
            return PluriharmonicPoly(cplx(c["center"]), cplx(c["linear"]),
                                     cplx(c["quad"]).reshape(n, n))

        chain = cls(domain, domain.node_index(np.array(data["center"])),
                    float(data["sigma"]), float(data["mu0"]), float(data["mu_top"]),
                    paper_mu0=float(data["paper_mu0"]),
                    broken=tuple(data["broken"]) if "broken" in data else None)
        for lv in data["levels"]:
            chain.levels.append(ChainLevel(
                k=lv["k"], height=float(lv["height"]),
                transform=cplx(lv["transform"]).reshape(n, n),
                shift_increment=poly(lv["shift_increment"]),
                composite_transform=cplx(lv["composite_transform"]).reshape(n, n),
                composite_shift=poly(lv["composite_shift"]),
                fit_in=float(lv["fit"][0]), fit_out=float(lv["fit"][1]),
                omega_r_in=float(lv["omega_radii"][0]),
                omega_r_out=float(lv["omega_radii"][1]),
                solve_iterations=lv["solve"][0], solve_residual=float(lv["solve"][1]),
                transform_deviation=float(lv["transform_deviation"]),
            ))
        return chain


# ---------------------------------------------------------------------------
# Elementary operations


def taylor_split(v: GridFunction, x0: tuple) -> tuple[PluriharmonicPoly, np.ndarray]:
    """Split v near a node into pluriharmonic part and Hermitian form.

    h collects the Re-linear terms 2 v_{z_i} and the holomorphic-quadratic
    terms v_{z_i z_j} of the Taylor expansion, read from one node lookup
    (node_jet); the returned array is the complex Hessian at the node.
    """
    x0 = tuple(x0)
    n = v.domain.n
    D1, D, A = node_jet(v, x0)
    # v_{z_i} = (v_{x_i} - i v_{y_i})/2
    lin = 2.0 * np.array([0.5 * (D1(2 * i) - 1j * D1(2 * i + 1)) for i in range(n)])
    quad = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            # v_{z_i z_j} = ((v_{x_i x_j} - v_{y_i y_j}) - i (v_{x_i y_j} + v_{y_i x_j}))/4
            re = D(2 * i, 2 * j) - D(2 * i + 1, 2 * j + 1)
            im = D(2 * i, 2 * j + 1) + D(2 * i + 1, 2 * j)
            quad[i, j] = quad[j, i] = 0.25 * (re - 1j * im)
    # The Hessian reads every node the gradient does, not the x_i, y_i diagonals.
    if np.isnan(quad).any():
        raise StencilViolationError(f"difference stencil leaves domain at {x0}")
    return PluriharmonicPoly(_complex_center(v.domain, x0), lin, quad), A


def unit_determinant(A: np.ndarray) -> np.ndarray:
    """A Hermitian form scaled to unit determinant (requires det A > 0)."""
    det = float(np.linalg.det(A).real)
    if det <= 0:
        raise DegenerateHessianError(
            f"cannot normalize a matrix with non-positive determinant {det:.3e}")
    return A / det ** (1.0 / A.shape[0])


def normalize_transform(A: np.ndarray) -> np.ndarray:
    """C-linear map T = U diag(lambda^-1/2) U* (a complex (n, n) array)
    mapping B_r onto {<Az,z> <= r^2}, for a Hermitian form A.

    A must be positive definite with determinant within 0.2 of 1;
    eigenvalues are rescaled to unit product so |det T| = 1 exactly up to
    roundoff.
    """
    lam, U = np.linalg.eigh(A)
    if lam.min() <= 0:
        raise DegenerateHessianError(
            f"cannot normalize a non-positive-definite form "
            f"(min eigenvalue {lam.min():.3e})")
    det = float(np.prod(lam))
    if abs(det - 1.0) > 0.2:
        raise DegenerateHessianError(
            f"determinant {det:.4f} too far from 1 to normalize "
            f"(min eigenvalue {lam.min():.3e})")
    lam_hat = lam / det ** (1.0 / lam.size)
    return np.asarray(U @ np.diag(lam_hat ** -0.5) @ U.conj().T, dtype=complex)


def mu0_from_sigma(sigma: float) -> float:
    """Level ratio from the shape tolerance: 3^(3/2) mu0^(1/2) equals
    sigma/20, capped below 0.009."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    root = sigma / (20.0 * 3.0 ** 1.5)
    return min(root * root, 0.009 * (1.0 - 1e-12))


# Windows give each node the full-box floats: numpy's einsum and matmul
# compute every row of a batch of three or more rows alike (one or two rows
# take other paths), and every window below holds at least four nodes.
def _centered_window(x0: tuple, half: int, res: int) -> tuple[slice, ...]:
    return tuple(slice(max(c - half, 0), min(c + half + 1, res)) for c in x0)


def _reaches_window_edge(mask: np.ndarray, win: tuple[slice, ...], res: int) -> bool:
    """Whether a window mask has a node on a window face that is not a box
    face, that is, next to a lattice node outside the window."""
    for a, s in enumerate(win):
        if (s.start > 0 and np.take(mask, 0, axis=a).any()) or (
                s.stop < res and np.take(mask, -1, axis=a).any()):
            return True
    return False


def build_section(u: GridFunction, x0: tuple, mu: float,
                  h: PluriharmonicPoly) -> Section:
    """Connected component of {u - h <= u(x0) + mu} through x0.

    Raises SectionEscapeError when the sublevel set reaches the domain
    boundary collar.  Raises ValueError when x0 is not an interior node, or
    lies outside the set (a shift centred at x0 vanishes there, so this
    takes h(x0) < -mu).

    The work runs on a window of index half-width ceil(1.25 sqrt(mu)/h) + 2
    about x0, doubled while the component reaches a window face that is
    not a box face.  A component clear of those faces is the full-box one,
    and so is its one-node collar, which the escape test reads; a collar
    hit in a smaller window is a hit on the full box too.  Each window
    node gets the full-box arithmetic, so the mask is the full-box mask.
    """
    if mu <= 0:
        raise ValueError("height mu must be positive")
    dom = u.domain
    x0 = tuple(x0)
    u0 = float(u.values[x0])
    if math.isnan(u0):
        raise ValueError(f"base node {x0} carries no value")
    if not dom.interior_mask[x0]:
        raise ValueError(f"base node {x0} is not interior")
    half = math.ceil(1.25 * math.sqrt(mu) / dom.h) + 2
    while True:
        win = _centered_window(x0, half, dom.resolution)
        vals = u.values[win]
        hvals = h.evaluate(dom.window_coords(win)).reshape(vals.shape)
        sub = np.zeros(vals.shape, dtype=bool)
        np.less_equal(vals - hvals, u0 + mu, out=sub, where=~np.isnan(vals))
        seed = tuple(c - s.start for c, s in zip(x0, win))
        if not sub[seed]:
            raise ValueError(f"base node {x0} lies outside its section: h(x0) < -mu")
        comp = component(sub & dom.interior_mask[win], seed)

        # Escape: a boundary-collar node satisfying the sublevel inequality and
        # touching the component means the section is not compactly contained.
        sub_bnd = sub & dom.boundary_mask[win]
        if np.any(sub_bnd) and np.any(grow(comp, diagonal=False) & sub_bnd):
            raise SectionEscapeError(
                f"section at {x0} with height {mu} reaches the domain boundary")
        if not _reaches_window_edge(comp, win, dom.resolution):
            break
        half *= 2
    mask = np.zeros_like(dom.interior_mask)
    mask[win] = comp
    return Section.from_mask(dom, x0, mask, mu)


def fit_ellipsoid(dom: GridDomain, section: Section,
                  A: np.ndarray) -> tuple[float, float]:
    """Inner/outer dilation factors of a section of dom against the
    ellipsoid {q <= mu}, q(z) = <A (z - c), z - c> about the section's base
    point c, by node enumeration.

    c_in is the largest factor whose dilated ellipsoid stays inside the
    section (the valued nodes outside it always include the boundary
    collar); c_out the smallest factor containing it.

    q is evaluated on a window: the section's bounding box padded by one
    node, which holds the section, so c_out is exact there.  For c_in, m is
    the least q over the window's valued nodes outside the section; there
    is always one, since the section's last node along axis 0 is interior,
    so its next neighbor along that axis is valued, and it lies in the
    padding.  A node beyond the window lies at least dist from c, so its
    q >= lam_min(A) dist^2; once that bound exceeds m, no node outside
    can lower m.  Otherwise the window grows once, to a cube about c past
    which the bound exceeds m (m can only fall).  Window nodes get the
    full-box arithmetic, so both factors are the full-box ones.
    """
    res = dom.resolution
    c_idx = section.center_idx
    ctr = _complex_center(dom, c_idx)
    lam = float(np.linalg.eigvalsh(A)[0])
    win = mask_window(section.mask)
    while True:
        pts = dom.window_coords(win)
        w = pts[:, 0::2] + 1j * pts[:, 1::2] - ctr
        inside = section.mask[win]
        q = np.einsum("mi,ij,mj->m", w.conj(), A, w).real.reshape(inside.shape)
        m = float(q[(dom.interior_mask[win] | dom.boundary_mask[win]) & ~inside].min())
        # Index distance from c to the nearest node beyond the window.
        gap = min([c - s.start + 1 for c, s in zip(c_idx, win) if s.start > 0]
                  + [s.stop - c for c, s in zip(c_idx, win) if s.stop < res],
                  default=None)
        if gap is None or lam * (gap * dom.h) ** 2 > m:
            break
        k = gap
        while k < res and not lam * (k * dom.h) ** 2 > m:
            k += 1
        cube = _centered_window(c_idx, k - 1, res)
        win = tuple(slice(min(s.start, t.start), max(s.stop, t.stop))
                    for s, t in zip(win, cube))
    c_out = float(np.sqrt(np.max(q[inside], initial=0.0) / section.mu))
    c_in = float(np.sqrt(m / section.mu))
    return c_in, c_out


def _complex_center(dom: GridDomain, idx: tuple) -> np.ndarray:
    pt = dom.coords(tuple(idx))
    return pt[0::2] + 1j * pt[1::2]


def rescale_to_unit(u: GridFunction, x0: tuple, mu: float,
                    h: PluriharmonicPoly, T: np.ndarray,
                    resolution: int, box_halfwidth: float) -> GridFunction:
    """Zoom the section (x0, mu, h) to unit scale.

        w(zeta) = (u - h - u(x0) - mu)(x0 + T(sqrt(mu) zeta)) / (mu |det T|^{2/n})

    The image lattice is a fresh grid whose domain is the sublevel set
    {w <= 0}, built from the values of w on it (grid.lattice_domain);
    values come from multilinear interpolation of u.  Raises
    SectionEscapeError when the image center, or a node of the image
    domain, maps where w is unavailable: outside the source domain; and
    DegeneracyError when the image center is not an interior node of the
    image domain, which the next level could neither solve on nor cut.
    """
    dom = u.domain
    x0 = tuple(x0)
    u0 = float(u.values[x0])
    x0_pt = dom.coords(x0)
    n = dom.n
    d = dom.d

    axes_new = [np.linspace(-box_halfwidth, box_halfwidth, resolution)] * d
    mesh = np.meshgrid(*axes_new, indexing="ij")
    zeta = np.stack([m.ravel() for m in mesh], axis=1)
    p = x0_pt + _apply(T, zeta * math.sqrt(mu))
    vals = u.interp(p)
    pref = mu * float(abs(np.linalg.det(T))) ** (2.0 / n)
    w = (vals - h.evaluate(p) - u0 - mu) / pref
    w_nd = w.reshape((resolution,) * d)

    center = (resolution // 2,) * d
    if math.isnan(w_nd[center]):
        raise SectionEscapeError("rescaled center maps outside the source domain")

    new_dom = lattice_domain(n, box_halfwidth, np.where(np.isnan(w_nd), 1.0, w_nd))
    out = np.full(w_nd.shape, np.nan)
    valued = new_dom.valued_mask
    if np.any(np.isnan(w_nd[valued])):
        raise SectionEscapeError("rescaled section image escapes the source domain")
    if not new_dom.interior_mask[center]:
        raise DegeneracyError("rescaled section has no interior node at its center")
    out[valued] = w_nd[valued]
    return GridFunction(new_dom, out)


def allowed_top_height(dom: GridDomain, x0: tuple) -> float:
    """Largest safe first-level height at a node, at most 0.25: the
    level-one section must stay well inside the domain."""
    pt = dom.coords(tuple(x0))
    depth = -float(dom.shape.signed(pt[None, :])[0])
    room = depth - 3.0 * dom.h
    if room <= 0:
        return 0.0
    return min(0.25, (room / 1.15) ** 2)


# ---------------------------------------------------------------------------
# The inductive chain


# Default section-chain lattice, nodes per axis, by complex dimension; 4 real
# dimensions cannot afford the planar one.
DIM_CHAIN_RESOLUTION = {1: 33, 2: 13}


def construct_section_chain(u: GridFunction, x0: tuple, sigma: float,
                            k_max: int, mu0: float = 0.1, *, chain_resolution: int,
                            v0: GridFunction) -> SectionChain:
    """Build k_max levels of sections at x0 with shape tolerance sigma.

    Each level solves the unit-determinant Dirichlet problem on the current
    normalized section, Taylor-splits it at the center, updates the shift,
    normalizes the new ellipsoid, and re-grids.  mu0 is the practical level
    ratio (the shape-tolerance formula value is recorded alongside).  The
    first-level height is mu0, capped by the distance to the boundary
    (allowed_top_height).

    Any package failure inside level k, from the solve through the re-grid,
    ends the chain there: it is returned with the k - 1 levels built before,
    and broken holds k and the failure's type name and message.  A node too
    close to the boundary for any first-level height breaks at level 1 with
    SectionEscapeError.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if not 0.01 <= mu0 <= 0.25:
        raise ValueError("practical level ratio mu0 must lie in [0.01, 0.25]")
    if chain_resolution % 2 == 0:
        raise ValueError("chain_resolution must be odd (origin must be a node)")
    dom = u.domain
    x0 = tuple(x0)
    if not dom.interior_mask[x0]:
        raise ValueError(f"base node {x0} is not interior")

    mu_top = min(mu0, allowed_top_height(dom, x0))
    chain = SectionChain(dom, x0, sigma, mu0, mu_top, paper_mu0=mu0_from_sigma(sigma))

    w = u
    w_dom = dom
    center = x0
    x0_complex = _complex_center(dom, x0)
    T_comp = np.eye(dom.n, dtype=complex)
    H_comp = PluriharmonicPoly.zero(x0_complex)
    v_level = v0

    for k in range(1, k_max + 1):
        height_k = chain.height_of_level(k)
        level_mu = mu_top if k == 1 else mu0
        solve_iters, solve_res = 0, float("nan")
        try:
            if level_mu <= 0:
                raise SectionEscapeError(
                    f"no safe first-level height at {x0}: too close to the boundary")
            if k > 1:
                v_level, v_rep = solve_dirichlet(w_dom, 1.0, 0.0)
                solve_iters, solve_res = v_rep.iterations, v_rep.residual
            h_inc, A = taylor_split(v_level, center)
            A_hat = unit_determinant(A)
            T_tilde = normalize_transform(A_hat)
            sec = build_section(w, center, level_mu, h_inc)
            c_in, c_out = fit_ellipsoid(w_dom, sec, A_hat)
            grid_slack = 2.0 * w_dom.h / math.sqrt(level_mu)
            if (c_out > 1.0 + 0.5 * sigma + grid_slack
                    or c_in < 1.0 - 0.5 * sigma - grid_slack):
                raise SectionFitError(
                    f"fit ({c_in:.3f}, {c_out:.3f}) leaves the 0.5-sigma window")
            w = rescale_to_unit(w, center, level_mu, h_inc, T_tilde,
                                chain_resolution, 1.0 + max(0.3, 0.5 * sigma))
        except CmalabError as exc:
            chain.broken = (k, type(exc).__name__, str(exc))
            return chain

        # Composite shift in original coordinates, then composite transform.
        prev_height = chain.height_of_level(k - 1) if k >= 2 else 1.0
        M = np.linalg.inv(T_comp) / math.sqrt(prev_height)
        H_comp = H_comp.add(h_inc.shifted_compose(prev_height, M, x0_complex))
        T_comp = T_comp @ T_tilde

        w_dom = w.domain
        center = (chain_resolution // 2,) * dom.d
        comp = component(w_dom.interior_mask, center)
        pts_new = w_dom.coords()
        rad = np.linalg.norm(pts_new, axis=1).reshape(comp.shape)
        r_out = float(np.max(rad[comp], initial=0.0))
        outside = w_dom.valued_mask & ~comp
        r_in = float(np.min(rad[outside])) if np.any(outside) else float("inf")

        chain.levels.append(ChainLevel(
            k=k, height=height_k,
            transform=T_tilde, shift_increment=h_inc,
            composite_transform=T_comp,
            composite_shift=H_comp,
            fit_in=c_in, fit_out=c_out,
            omega_r_in=r_in, omega_r_out=r_out,
            solve_iterations=solve_iters, solve_residual=solve_res,
            transform_deviation=float(np.linalg.svd(
                T_tilde - np.eye(dom.n), compute_uv=False)[0]),
        ))
    return chain
