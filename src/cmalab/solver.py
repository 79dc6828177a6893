"""Dirichlet solver for det(u_{i jbar}) = f on near-ball domains.

Damped Newton on G(u) = log det u_{i jbar} - log f.  Each step solves the
linearized equation sum_ij u^{i jbar} d_{i jbar}(delta) = -G(u) over interior
nodes; boundary nodes are eliminated through their linear extrapolation
constraints (anchored at continuum cut points), which keeps the inner linear
system elliptic and interior-only.  At n = 1 that system is solved directly;
at n = 2 by GMRES preconditioned with a geometric-multigrid V-cycle of the
domain's Laplacian, built once per domain with each level's restriction
stored.  The harmonic extension of the initial boundary gap is computed once
per domain and cut data, so solves with the same data share it.  A
plurisubharmonicity guard halves the step whenever the smallest
complex-Hessian eigenvalue would drop below the fixed floor _PSH_FLOOR.  The
residual target newton_tol is the solver's only setting.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BoundaryConstraintError,
    DegeneracyError,
    DomainMismatchError,
    LinearSolveError,
    NonConvergenceError,
    StencilViolationError,
)
from .grid import (
    GridDomain,
    GridFunction,
    hessian_det_field,
    hessian_eigen_fields,
    hessian_fields,  # noqa: F401  perfbench/layers.py wraps cmalab.solver.hessian_fields
    hessian_fields_at,
    lattice_offsets,
    mixed_terms,
)


NEWTON_TOL = 1e-8          # default residual target max|log det - log f|
_MAX_ITERS = 30
_PSH_FLOOR = 1e-6          # smallest complex-Hessian eigenvalue kept in a step
_JACOBI_OMEGA = 0.8        # damping of the V-cycle's Jacobi smoother
_JACOBI_SWEEPS = 2         # pre- and post-smoothing sweeps per level
_COARSEST_RES = 5          # fewest nodes per axis of a coarse lattice


@dataclass
class SolveReport:
    iterations: int
    residual: float
    min_eigenvalue: float
    boundary_max_error: float
    converged: bool
    runtime_seconds: float
    quad_distance: float = float("nan")

    def to_dict(self) -> dict:
        return {**self.__dict__, "runtime_seconds": round(self.runtime_seconds, 3)}


# ---------------------------------------------------------------------------
# Assembly machinery (cached per domain)


def _get_assembly(dom: GridDomain) -> dict:
    if "assembly" in dom._cache:
        return dom._cache["assembly"]
    d = dom.d
    res = dom.resolution
    strides = np.array([res ** (d - 1 - a) for a in range(d)], dtype=np.int64)

    int_flat = np.flatnonzero(dom.interior_mask.ravel()).astype(np.int64)
    bnd_flat = dom.bc_table["flat"]
    n_int, n_bnd = int_flat.size, bnd_flat.size

    int_col = np.full(res ** d, -1, dtype=np.int64)
    int_col[int_flat] = np.arange(n_int)
    bnd_col = np.full(res ** d, -1, dtype=np.int64)
    bnd_col[bnd_flat] = np.arange(n_bnd)

    idx_nd = np.argwhere(dom.interior_mask)

    def split_cols(off):
        """Rows and columns of the interior and of the boundary neighbors
        off: (rows_i, cols_i, rows_b, cols_b)."""
        nb = (idx_nd + np.asarray(off, dtype=np.int64)) @ strides
        ic = int_col[nb]
        bcn = bnd_col[nb]
        if np.any((ic < 0) & (bcn < 0)):
            raise StencilViolationError("interior stencil reaches an unvalued node")
        rows_i = np.flatnonzero(ic >= 0)
        rows_b = np.flatnonzero(bcn >= 0)
        return rows_i, ic[rows_i], rows_b, bcn[rows_b]

    ops = {}
    axis = lattice_offsets(d)
    for a in range(d):
        entries = [(axis[2 * a + 1], 1.0), (axis[2 * a], 1.0), ((0,) * d, -2.0)]
        ops[("pure", a)] = [(c,) + split_cols(off) for off, c in entries]
    if dom.n == 2:
        for a, b in ((0, 2), (1, 3), (0, 3), (1, 2)):
            ops[("mixed", a, b)] = [(0.25 * sign,) + split_cols(off)
                                    for off, sign in mixed_terms(d, a, b)]

    # Boundary substitution u_B = S u_I + diag(coef_c) g_cut.  Supports are
    # interior by construction of the bc table; a hand-edited table that
    # leans on a non-interior node has no such closed form.
    bc = dom.bc_table
    rows, cols, vals = [], [], []
    for which in (1, 2):
        idx = bc[f"idx{which}"]
        use = np.flatnonzero(idx >= 0)
        col = int_col[idx[use]]
        if np.any(col < 0):
            raise BoundaryConstraintError(
                "boundary constraint rests on a non-interior node")
        rows.append(use)
        cols.append(col)
        vals.append(bc[f"coef_{which}"][use])
    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_bnd, n_int)).tocsr()

    asm = {
        "int_flat": int_flat, "bnd_flat": bnd_flat,
        "n_int": n_int, "n_bnd": n_bnd,
        "ops": ops,
        "S": S, "coef_c": bc["coef_c"],
    }
    dom._cache["assembly"] = asm
    return asm


def _assemble(dom: GridDomain, weights: dict) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Weighted difference operator restricted to interior unknowns.

    Returns (A_int, A_IB) with A_int = A_II + A_IB S already folded.
    """
    asm = _get_assembly(dom)
    n_int, n_bnd = asm["n_int"], asm["n_bnd"]
    inv_h2 = 1.0 / dom.h ** 2
    ri, ci, vi = [], [], []
    rb, cb, vb = [], [], []
    for key, entries in asm["ops"].items():
        w = weights.get(key)
        if w is None:
            continue
        for c, rows_i, cols_i, rows_b, cols_b in entries:
            coef = w * (c * inv_h2)
            ri.append(rows_i)
            ci.append(cols_i)
            vi.append(coef[rows_i])
            rb.append(rows_b)
            cb.append(cols_b)
            vb.append(coef[rows_b])
    A_II = sp.coo_matrix(
        (np.concatenate(vi), (np.concatenate(ri), np.concatenate(ci))),
        shape=(n_int, n_int)).tocsr()
    A_IB = sp.coo_matrix(
        (np.concatenate(vb), (np.concatenate(rb), np.concatenate(cb))),
        shape=(n_int, n_bnd)).tocsr()
    A_int = (A_II + A_IB @ asm["S"]).tocsr()
    return A_int, A_IB


def _laplacian(dom: GridDomain) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Unit-weight Laplacian (L, L_IB) of the domain, assembled once."""
    if "laplacian" not in dom._cache:
        n_int = _get_assembly(dom)["n_int"]
        dom._cache["laplacian"] = _assemble(
            dom, {("pure", a): np.ones(n_int) for a in range(dom.d)})
    return dom._cache["laplacian"]


def _prolongation(mask: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """Multilinear interpolation P from the lattice of spacing 2h to the
    unknowns of mask (rows), and the mask of the coarse unknowns (columns).

    A coarse unknown is an even-index node whose fine twin is an unknown
    (injection), so P holds an identity block and has full column rank.
    """
    d = mask.ndim
    cmask = mask[(slice(None, None, 2),) * d]
    ccol = np.full(cmask.size, -1, dtype=np.int64)
    ccol[np.flatnonzero(cmask)] = np.arange(np.count_nonzero(cmask))
    idx = np.argwhere(mask)
    odd = idx % 2 == 1
    rows, cols, vals = [], [], []
    for corner in itertools.product((0, 1), repeat=d):
        # An even fine index sits on a coarse node; an odd one between two.
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


def _cycle(levels: list, coarsest, b: np.ndarray, lvl: int = 0) -> np.ndarray:
    """One V-cycle for levels[lvl] from a zero guess: damped-Jacobi sweeps
    around the correction from the next level, a direct solve at the end."""
    if lvl == len(levels):
        return coarsest.solve(b)
    A, P, R, dinv = levels[lvl]
    # The first sweep from x = 0 needs no product with A.
    x = _JACOBI_OMEGA * dinv * b
    for _ in range(_JACOBI_SWEEPS - 1):
        x += _JACOBI_OMEGA * dinv * (b - A @ x)
    x += P @ _cycle(levels, coarsest, R @ (b - A @ x), lvl + 1)
    for _ in range(_JACOBI_SWEEPS):
        x += _JACOBI_OMEGA * dinv * (b - A @ x)
    return x


def _multigrid(dom: GridDomain):
    """V-cycle preconditioner for the domain's negated Laplacian.

    Coarse operators are Galerkin, P^T A P, so every level inherits the fine
    boundary substitution.  A lattice with an odd node count per axis
    coarsens while its coarse twin keeps _COARSEST_RES nodes per axis and at
    least one unknown; the coarsest operator is factored once.  A domain that
    cannot coarsen gets a one-level hierarchy: the direct solve.
    """
    A = (-_laplacian(dom)[0]).tocsr()
    mask = dom.interior_mask
    levels = []
    while mask.shape[0] % 2 == 1 and (mask.shape[0] + 1) // 2 >= _COARSEST_RES:
        P, cmask = _prolongation(mask)
        if P.shape[1] == 0:
            break
        R = P.T.tocsr()
        levels.append((A, P, R, 1.0 / A.diagonal()))
        A = (P.T @ A @ P).tocsr()
        mask = cmask
    # A module-level function, not a closure over itself, so the hierarchy
    # is freed with its domain by reference counting.
    return functools.partial(_cycle, levels, spla.splu(A.tocsc()))


def _linear_solve(dom: GridDomain, A: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve the interior system A x = rhs on the domain.

    Planar (n = 1) grids go direct.  4-dimensional grids run GMRES on -A,
    preconditioned by one multigrid V-cycle of the domain's negated
    Laplacian shared by every solve there; a miss of
    max|A x - rhs| <= 1e-10 max|rhs| raises LinearSolveError.
    """
    if dom.n == 1:
        return spla.spsolve(A.tocsc(), rhs)
    if "multigrid" not in dom._cache:
        dom._cache["multigrid"] = _multigrid(dom)
    M = spla.LinearOperator(A.shape, dom._cache["multigrid"], dtype=A.dtype)
    x, info = spla.gmres((-A).tocsr(), -rhs, M=M, rtol=1e-13, atol=0.0,
                         maxiter=400, restart=80)
    residual = float(np.max(np.abs(A @ x - rhs)))
    target = 1e-10 * (float(np.max(np.abs(rhs))) or 1.0)
    if info != 0 or residual > target:
        raise LinearSolveError(f"GMRES stopped (info {info}) at residual "
                               f"{residual:.3e} > {target:.3e}", residual)
    return x


def _hessian_weights(dom: GridDomain, f: dict) -> dict:
    """Per-operator coefficient arrays of the linearized operator
    tr(H^{-1} dH), from the Hessian fields on the interior nodes."""
    if dom.n == 1:
        w = 0.25 / f["h11"]
        return {("pure", 0): w, ("pure", 1): w}
    det = hessian_det_field(f)
    inv11 = f["h22"] / det
    inv22 = f["h11"] / det
    inv12re = -f["h12re"] / det
    inv12im = -f["h12im"] / det
    return {
        ("pure", 0): 0.25 * inv11, ("pure", 1): 0.25 * inv11,
        ("pure", 2): 0.25 * inv22, ("pure", 3): 0.25 * inv22,
        ("mixed", 0, 2): 0.5 * inv12re, ("mixed", 1, 3): 0.5 * inv12re,
        ("mixed", 0, 3): 0.5 * inv12im, ("mixed", 1, 2): -0.5 * inv12im,
    }


# ---------------------------------------------------------------------------
# Field/data plumbing


def _field_on_interior(dom: GridDomain, f) -> np.ndarray:
    if isinstance(f, GridFunction):
        vals = f.values.ravel()[np.flatnonzero(dom.interior_mask.ravel())]
    elif callable(f):
        pts = dom.coords(dom.interior_mask.ravel())
        vals = np.asarray(f(pts), dtype=float)
    else:
        vals = np.full(int(dom.interior_mask.sum()), float(f))
    return vals


def _g_at_cuts(dom: GridDomain, g) -> np.ndarray:
    cuts = dom.bc_table["cuts"]
    if isinstance(g, GridFunction):
        return g.interp(cuts)
    if callable(g):
        return np.asarray(g(cuts), dtype=float)
    return np.full(cuts.shape[0], float(g))


def _reference_quadratic(dom: GridDomain):
    r = getattr(dom.shape, "radius", 1.0)

    def q(pts):
        return np.sum(np.asarray(pts) ** 2, axis=-1) - r * r

    return q


def _set_boundary(dom: GridDomain, values_flat: np.ndarray, g_off: np.ndarray) -> None:
    asm = _get_assembly(dom)
    values_flat[asm["bnd_flat"]] = asm["S"] @ values_flat[asm["int_flat"]] + g_off


def _boundary_residual(dom: GridDomain, values_flat: np.ndarray, g_cut: np.ndarray) -> np.ndarray:
    bc = dom.bc_table
    v = bc["coef_c"] * g_cut
    for which in (1, 2):
        idx = bc[f"idx{which}"]
        use = idx >= 0
        v[use] += bc[f"coef_{which}"][use] * values_flat[idx[use]]
    return values_flat[bc["flat"]] - v


def harmonic_extension(dom: GridDomain, cut_values: np.ndarray) -> np.ndarray:
    """Discrete-harmonic extension of cut-point data; full-box flat array,
    read-only.  The domain keeps the last one it computed, keyed by the
    bytes of the data, so solves with the same data share one."""
    key = np.ascontiguousarray(cut_values, dtype=float).tobytes()
    cached = dom._cache.get("harmonic_extension")
    if cached is not None and cached[0] == key:
        return cached[1]
    asm = _get_assembly(dom)
    L, L_IB = _laplacian(dom)
    g_off = asm["coef_c"] * cut_values
    out = np.full(dom.resolution ** dom.d, np.nan)
    out[asm["int_flat"]] = _linear_solve(dom, L, -L_IB @ g_off)
    _set_boundary(dom, out, g_off)
    out.flags.writeable = False
    dom._cache["harmonic_extension"] = (key, out)
    return out


# ---------------------------------------------------------------------------
# The solver


def solve_dirichlet(domain: GridDomain, f, g, newton_tol: float = NEWTON_TOL
                    ) -> tuple[GridFunction, SolveReport]:
    """Solve det(u_{i jbar}) = f in the domain with Dirichlet data g.

    f may be a GridFunction, callable, or scalar (positive on the interior);
    g a callable/scalar/GridFunction sampled at the continuum cut points.
    Newton starts from |z|^2 - r^2 plus the harmonic extension of the
    boundary gap and stops once max|log det - log f| <= newton_tol.
    Returns the solution and a residual certificate.  Raises
    NonConvergenceError, DegeneracyError or LinearSolveError on failure.
    """
    if newton_tol <= 0:
        raise ValueError("newton_tol must be positive")
    t0 = time.perf_counter()
    asm = _get_assembly(domain)
    int_flat = asm["int_flat"]
    if asm["n_int"] == 0:
        raise DegeneracyError("domain has no interior node")

    f_int = _field_on_interior(domain, f)
    if np.any(~np.isfinite(f_int)) or np.any(f_int <= 0.0):
        raise ValueError("right side f must be finite and positive on the interior")
    log_f = np.log(f_int)
    g_cut = _g_at_cuts(domain, g)
    if np.any(~np.isfinite(g_cut)):
        raise ValueError("boundary data g must be finite at cut points")
    g_off = asm["coef_c"] * g_cut

    q = _reference_quadratic(domain)
    pts = domain.coords()
    u_flat = np.full(pts.shape[0], np.nan)
    valued = domain.valued_mask.ravel()
    u_flat[valued] = q(pts[valued])
    gap = g_cut - q(domain.bc_table["cuts"])
    if np.max(np.abs(gap)) > 1e-13:
        ext = harmonic_extension(domain, gap)
        u_flat[valued] += ext[valued]
    _set_boundary(domain, u_flat, g_off)

    shape_nd = (domain.resolution,) * domain.d

    def interior_state(u_arr):
        fields = hessian_fields_at(GridFunction(domain, u_arr.reshape(shape_nd)), int_flat)
        lam_min, _ = hessian_eigen_fields(fields)
        return fields, lam_min, hessian_det_field(fields)

    fields, lam_min, det = interior_state(u_flat)
    if np.nanmin(lam_min) <= _PSH_FLOOR:
        raise DegeneracyError(
            "initial guess is not strictly plurisubharmonic "
            f"(min eigenvalue {np.nanmin(lam_min):.3e})")

    residual = float(np.max(np.abs(np.log(det) - log_f)))
    iters = 0
    while residual > newton_tol:
        if iters >= _MAX_ITERS:
            raise NonConvergenceError(
                f"Newton did not reach {newton_tol:.1e} in {_MAX_ITERS} "
                f"iterations (last residual {residual:.3e})", residual, iters)
        weights = _hessian_weights(domain, fields)
        A_int, _ = _assemble(domain, weights)
        delta = _linear_solve(domain, A_int, -(np.log(det) - log_f))

        step = 1.0
        halvings = 0
        while True:
            u_try = u_flat.copy()
            u_try[int_flat] += step * delta
            _set_boundary(domain, u_try, g_off)
            fields_try, lam_try, det_try = interior_state(u_try)
            if np.nanmin(lam_try) > _PSH_FLOOR and np.all(det_try > 0.0):
                break
            halvings += 1
            if halvings > 5:
                raise DegeneracyError(
                    "plurisubharmonicity lost; damping could not repair it "
                    f"(min eigenvalue {np.nanmin(lam_try):.3e})")
            step *= 0.5
        u_flat, fields, lam_min, det = u_try, fields_try, lam_try, det_try
        residual = float(np.max(np.abs(np.log(det) - log_f)))
        iters += 1

    bmax = float(np.max(np.abs(_boundary_residual(domain, u_flat, g_cut)))) \
        if asm["n_bnd"] else 0.0
    u = GridFunction(domain, u_flat.reshape(shape_nd))
    pts_v = domain.coords(domain.valued_mask.ravel())
    quad_dist = float(np.max(np.abs(
        u_flat[np.flatnonzero(domain.valued_mask.ravel())] - q(pts_v))))
    report = SolveReport(
        iterations=iters,
        residual=residual,
        min_eigenvalue=float(np.nanmin(lam_min)),
        boundary_max_error=bmax,
        converged=True,
        runtime_seconds=time.perf_counter() - t0,
        quad_distance=quad_dist,
    )
    return u, report


# ---------------------------------------------------------------------------
# Comparison certificates


@dataclass
class SandwichCertificate:
    violation_lower: float
    violation_upper: float
    max_abs_diff: float
    bound: float
    slack: float
    passed: bool

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def comparison_sandwich(u: GridFunction, v0: GridFunction, eps: float, n: int
                        ) -> SandwichCertificate:
    """Certify (1+eps)^{1/n} v0 <= u <= (1-eps)^{1/n} v0 and |u - v0| <= 4 eps.

    Both functions must share the lattice and vanish on the continuum
    boundary; violations are reported against the slack 10 h^2.
    """
    dom = u.domain
    if not dom.same_lattice(v0.domain):
        raise DomainMismatchError("u and v0 live on different lattices")
    if not 0.0 <= eps < 0.5:
        raise ValueError("eps must lie in [0, 0.5)")
    slack = 10.0 * dom.h ** 2

    cuts = dom.bc_table["cuts"]
    for name, fn in (("u", u), ("v0", v0)):
        bvals = fn.interp(cuts)
        worst = float(np.nanmax(np.abs(bvals)))
        if worst > slack + 1e-8:
            raise ValueError(
                f"{name} does not vanish on the boundary (max {worst:.3e})")

    mask = dom.interior_mask
    uu = u.values[mask]
    vv = v0.values[mask]
    lo = (1.0 + eps) ** (1.0 / n) * vv
    hi = (1.0 - eps) ** (1.0 / n) * vv
    viol_lower = float(np.max(lo - uu, initial=0.0))
    viol_upper = float(np.max(uu - hi, initial=0.0))
    max_diff = float(np.max(np.abs(uu - vv), initial=0.0))
    bound = 4.0 * eps
    passed = viol_lower <= slack and viol_upper <= slack and max_diff <= bound + slack
    return SandwichCertificate(viol_lower, viol_upper, max_diff, bound, slack, passed)
