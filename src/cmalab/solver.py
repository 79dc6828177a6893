"""Dirichlet solver for det(u_{i jbar}) = f on near-ball domains.

Damped Newton on G(u) = log det u_{i jbar} - log f.  Each step solves the
linearized equation sum_ij u^{i jbar} d_{i jbar}(delta) = -G(u) over interior
nodes; boundary nodes are eliminated through their linear extrapolation
constraints (anchored at continuum cut points), which keeps the inner linear
system elliptic and interior-only.  Each operator is negated, in the
positive-definite form both solvers take, and built from int32 stencil
tables cached per domain into row-grouped CSR blocks; the solvers only read
it.  At n = 1 the assembled system is factored by SuperLU (splu) under a
minimum-degree ordering of N + N^T; at n = 2 GMRES
applies a Newton step's blocks unfolded, N_II x + N_IB (S x), preconditioned
with a geometric-multigrid V-cycle of the domain's assembled negated
Laplacian, built once per domain: its finest level is the cached Laplacian
itself, and each level stores its restriction.  The harmonic extension of
the initial boundary gap is computed once per domain and cut data, so solves
with the same data share it.  A plurisubharmonicity guard halves the step
whenever the smallest complex-Hessian eigenvalue would drop below the fixed
floor _PSH_FLOOR.  Both linear paths check their solution's residual
against 1e-10 max|rhs| and raise LinearSolveError on a miss.
Newton stops once max|log det - log f| <= NEWTON_TOL, a module constant read
at each call; the solver has no setting.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    coarse_twin,
    hessian_det_field,
    hessian_eigen_fields,
    hessian_fields,
    lattice_offsets,
    mixed_terms,
)


NEWTON_TOL = 1e-8          # residual target max|log det - log f|
_MAX_ITERS = 30
_PSH_FLOOR = 1e-6          # smallest complex-Hessian eigenvalue kept in a step
_JACOBI_OMEGA = 0.8        # damping of the V-cycle's Jacobi smoother
_JACOBI_SWEEPS = 2         # pre- and post-smoothing sweeps per level
# SuperLU options of the n = 1 factorization, with its default partial
# pivoting.  On the nearly symmetric 5-point operator a minimum-degree
# ordering of A + A^T stores 88k LU entries at res 65 and 467k at res 129,
# where COLAMD (spsolve's default) stores 142k and 842k; with no relaxed
# supernodes and a panel of one column it factors in 3.3 ms and 17 ms, the
# fastest of three orderings, relax 1 / 5 / 20 and panel 1 / 4 / 10.
_N1_PERMC_SPEC = "MMD_AT_PLUS_A"
_N1_RELAX = 1
_N1_PANEL_SIZE = 1


@dataclass
class SolveReport:
    iterations: int
    residual: float
    min_eigenvalue: float
    converged: bool
    quad_distance: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


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

    int_col = np.full(res ** d, -1, dtype=np.int32)
    int_col[int_flat] = np.arange(n_int, dtype=np.int32)
    bnd_col = np.full(res ** d, -1, dtype=np.int32)
    bnd_col[bnd_flat] = np.arange(n_bnd, dtype=np.int32)

    def split_cols(off):
        """Rows and columns of the interior and of the boundary neighbors
        off: (rows_i, cols_i, rows_b, cols_b).  An interior node's stencil
        stays in the box, so a neighbor is one flat offset away."""
        nb = int_flat + np.dot(off, strides)
        ic = int_col[nb]
        bcn = bnd_col[nb]
        if np.any((ic < 0) & (bcn < 0)):
            raise StencilViolationError("interior stencil reaches an unvalued node")
        rows_i = np.flatnonzero(ic >= 0).astype(np.int32)
        rows_b = np.flatnonzero(bcn >= 0).astype(np.int32)
        return rows_i, ic[rows_i], rows_b, bcn[rows_b]

    # Coefficients of the negated second differences, so that every
    # assembled operator is the positive-definite form the solvers take.
    ops = {}
    axis = lattice_offsets(d)
    for a in range(d):
        entries = [(axis[2 * a + 1], -1.0), (axis[2 * a], -1.0), ((0,) * d, 2.0)]
        ops[("pure", a)] = [(c,) + split_cols(off) for off, c in entries]
    if dom.n == 2:
        for a, b in ((0, 2), (1, 3), (0, 3), (1, 2)):
            ops[("mixed", a, b)] = [(-0.25 * sign,) + split_cols(off)
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


def _stencil_blocks(dom: GridDomain, weights: dict) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The interior and boundary blocks (N_II, N_IB) of the negated
    operator N = -sum_key weights[key] * D_key.

    N_II holds one entry per stencil term that lands on an interior node,
    row by row in the order of the assembly's ops, with duplicates neither
    summed nor sorted: each row's entries are counted first, and each entry
    set is then placed at its rows' running fill.  N_IB is small and goes
    through COO.
    """
    asm = _get_assembly(dom)
    n_int, n_bnd = asm["n_int"], asm["n_bnd"]
    inv_h2 = 1.0 / dom.h ** 2
    entries = [(weights[key], e) for key, ops in asm["ops"].items() if key in weights
               for e in ops]
    indptr = np.zeros(n_int + 1, dtype=np.int32)
    for _, (_, rows_i, *_) in entries:
        indptr[1:] += np.bincount(rows_i, minlength=n_int)
    np.cumsum(indptr, out=indptr)
    fill = indptr[:-1].copy()
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    rows, cols, vals = [], [], []
    # take and put, not fancy indexing: this loop is most of a build's time.
    for w, (c, rows_i, cols_i, rows_b, cols_b) in entries:
        k = c * inv_h2
        at = fill.take(rows_i)
        indices.put(at, cols_i)
        data.put(at, w.take(rows_i) * k)
        at += 1
        fill.put(rows_i, at)
        rows.append(rows_b)
        cols.append(cols_b)
        vals.append(w.take(rows_b) * k)
    N_II = sp.csr_matrix((data, indices, indptr), shape=(n_int, n_int))
    N_IB = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_int, n_bnd)).tocsr()
    return N_II, N_IB


def _assemble(dom: GridDomain, weights: dict) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Negated weighted difference operator restricted to interior unknowns.

    Returns (N_int, N_IB) with N_int = N_II + N_IB S already folded, where
    N is minus the operator sum_key weights[key] * D_key, from the blocks of
    _stencil_blocks.  Summing N_II's duplicates in place gives the CSR a
    COO assembly in the same entry order would give.  The domain's Laplacian
    and every n = 1 operator are assembled; an n = 2 Newton step applies its
    blocks unfolded (_newton_operator).
    """
    N_II, N_IB = _stencil_blocks(dom, weights)
    N_II.sum_duplicates()
    return N_II + N_IB @ _get_assembly(dom)["S"], N_IB


def _newton_operator(dom: GridDomain, weights: dict
                     ) -> sp.csr_matrix | spla.LinearOperator:
    """The interior operator of one Newton step, as _linear_solve takes it.

    At n = 1 the assembled matrix, which the direct solve factors.  At
    n = 2 a LinearOperator applying N_II x + N_IB (S x) from the stencil
    blocks, since GMRES only applies N: the folded matrix is never built.
    """
    if dom.n == 1:
        return _assemble(dom, weights)[0]
    N_II, N_IB = _stencil_blocks(dom, weights)
    S = _get_assembly(dom)["S"]

    def apply(x):
        y = N_II @ x
        y += N_IB @ (S @ x)
        return y

    return spla.LinearOperator(N_II.shape, apply, dtype=N_II.dtype)


def _laplacian(dom: GridDomain) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Negated unit-weight Laplacian (-L, -L_IB) of the domain, assembled
    once; the V-cycle's finest level is this matrix."""
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
    An even fine index sits on a coarse node, an odd one between two.  Each
    unknown's odd axes are coded once as bits; a cell corner that steps up
    along some axes reaches the unknowns whose code holds all of them, with
    weight 1/2 per odd axis.
    """
    d = mask.ndim
    cmask = mask[(slice(None, None, 2),) * d]
    ccol = np.full(cmask.size, -1, dtype=np.int64)
    ccol[np.flatnonzero(cmask)] = np.arange(np.count_nonzero(cmask))
    cstrides = [math.prod(cmask.shape[a + 1:]) for a in range(d)]
    idx = np.nonzero(mask)
    code = np.zeros(idx[0].size, dtype=np.int64)   # bit a: odd index on axis a
    base = np.zeros(idx[0].size, dtype=np.int64)   # flat coarse index of idx // 2
    for a, i in enumerate(idx):
        code |= (i & 1) << a
        base += (i >> 1) * cstrides[a]
    weight = 0.5 ** np.bitwise_count(code)
    rows, cols, vals = [], [], []
    for corner in itertools.product((0, 1), repeat=d):
        bits = sum(c << a for a, c in enumerate(corner))
        use = np.flatnonzero((code & bits) == bits)
        col = ccol[base[use] + sum(c * s for c, s in zip(corner, cstrides))]
        keep = col >= 0
        rows.append(use[keep])
        cols.append(col[keep])
        vals.append(weight[use[keep]])
    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(idx[0].size, np.count_nonzero(cmask))).tocsr()
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
    """V-cycle preconditioner for the domain's negated Laplacian, whose
    finest level is the cached matrix of _laplacian itself.

    Coarse operators are Galerkin, P^T A P, so every level inherits the fine
    boundary substitution.  A lattice coarsens while grid.coarse_twin gives
    it a twin with at least one unknown; the coarsest operator is factored
    once.  An even-count lattice is first padded by one high-end layer of
    non-unknowns, which adds no unknown and keeps their row-major numbering,
    so its even-index nodes span the whole lattice.  Every lattice
    build_domain admits, and every chain lattice, has at least 9 nodes per
    axis and so coarsens at least once.
    """
    A = _laplacian(dom)[0]
    mask = dom.interior_mask
    levels = []
    while coarse_twin(mask.shape[0]):
        if mask.shape[0] % 2 == 0:
            mask = np.pad(mask, [(0, 1)] * mask.ndim)
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


def _linear_solve(dom: GridDomain, N: sp.csr_matrix | spla.LinearOperator,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve the interior system N x = rhs on the domain, N a negated
    operator of _assemble or, at n = 2, of _newton_operator (the block
    operator N_II + N_IB S, never folded); N is only read.

    Planar (n = 1) grids factor N with splu, ordered by minimum degree on
    N + N^T.  4-dimensional grids run GMRES on N, preconditioned by one
    multigrid V-cycle of the domain's negated Laplacian shared by every
    solve there.  A singular factor, a GMRES stop short of its tolerance
    (info != 0), or a solution of either path that misses
    max|N x - rhs| <= 1e-10 max|rhs| (a NaN misses) raises LinearSolveError.
    """
    if dom.n == 1:
        try:
            factor = spla.splu(N.tocsc(), permc_spec=_N1_PERMC_SPEC,
                               relax=_N1_RELAX, panel_size=_N1_PANEL_SIZE)
        except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
            raise LinearSolveError(f"direct solve failed: {exc}", math.nan) from exc
        x = factor.solve(rhs)
        info = 0
        method = "direct solve"
    else:
        if "multigrid" not in dom._cache:
            dom._cache["multigrid"] = _multigrid(dom)
        M = spla.LinearOperator(N.shape, dom._cache["multigrid"], dtype=N.dtype)
        x, info = spla.gmres(N, rhs, M=M, rtol=1e-13, atol=0.0,
                             maxiter=400, restart=80)
        method = f"GMRES stopped (info {info})"
    residual = float(np.max(np.abs(N @ x - rhs)))
    target = 1e-10 * (float(np.max(np.abs(rhs))) or 1.0)
    if info != 0 or not residual <= target:
        raise LinearSolveError(f"{method} at residual {residual:.3e} > "
                               f"{target:.3e}", residual)
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
    if callable(f):
        return np.asarray(f(dom.coords(dom.interior_mask.ravel())), dtype=float)
    return np.full(int(dom.interior_mask.sum()), float(f))


def _g_at_cuts(dom: GridDomain, g) -> np.ndarray:
    cuts = dom.bc_table["cuts"]
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


def harmonic_extension(dom: GridDomain, cut_values: np.ndarray) -> np.ndarray:
    """Discrete-harmonic extension of cut-point data; full-box flat array,
    read-only.  The domain keeps the last one it computed, keyed by the
    bytes of the data, so solves with the same data share one."""
    key = np.ascontiguousarray(cut_values, dtype=float).tobytes()
    cached = dom._cache.get("harmonic_extension")
    if cached is not None and cached[0] == key:
        return cached[1]
    asm = _get_assembly(dom)
    N, N_IB = _laplacian(dom)
    g_off = asm["coef_c"] * cut_values
    out = np.full(dom.resolution ** dom.d, np.nan)
    out[asm["int_flat"]] = _linear_solve(dom, N, -(N_IB @ g_off))
    _set_boundary(dom, out, g_off)
    out.flags.writeable = False
    dom._cache["harmonic_extension"] = (key, out)
    return out


# ---------------------------------------------------------------------------
# The solver


def solve_dirichlet(domain: GridDomain, f, g) -> tuple[GridFunction, SolveReport]:
    """Solve det(u_{i jbar}) = f in the domain with Dirichlet data g.

    f is a callable of the points or a scalar (positive on the interior); g
    a callable or scalar sampled at the continuum cut points.
    Newton starts from |z|^2 - r^2 plus the harmonic extension of the
    boundary gap and stops once max|log det - log f| <= NEWTON_TOL.
    Returns the solution and a residual certificate.  Raises
    NonConvergenceError (also for a residual that is not finite, at the
    start or after a step), DegeneracyError or LinearSolveError on failure.
    """
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
    valued = domain.valued_mask.ravel()
    q_valued = q(domain.coords(valued))
    u_flat = np.full(valued.size, np.nan)
    u_flat[valued] = q_valued
    gap = g_cut - q(domain.bc_table["cuts"])
    if np.max(np.abs(gap)) > 1e-13:
        ext = harmonic_extension(domain, gap)
        u_flat[valued] += ext[valued]
    _set_boundary(domain, u_flat, g_off)

    shape_nd = (domain.resolution,) * domain.d

    def interior_state(u_arr):
        fields = hessian_fields(GridFunction(domain, u_arr.reshape(shape_nd)), int_flat)
        lam_min, _ = hessian_eigen_fields(fields)
        return fields, lam_min, hessian_det_field(fields)

    fields, lam_min, det = interior_state(u_flat)
    # Written so that a NaN eigenvalue fails the guard.
    if not np.min(lam_min) > _PSH_FLOOR:
        raise DegeneracyError(
            "initial guess is not strictly plurisubharmonic "
            f"(min eigenvalue {np.min(lam_min):.3e})")

    residual = float(np.max(np.abs(np.log(det) - log_f)))
    iters = 0
    # Written so that a NaN residual enters the loop, and is refused there.
    while not residual <= NEWTON_TOL:
        if not math.isfinite(residual):
            raise NonConvergenceError(
                f"Newton residual is not finite ({residual}) after {iters} "
                "iterations", residual, iters)
        if iters >= _MAX_ITERS:
            raise NonConvergenceError(
                f"Newton did not reach {NEWTON_TOL:.1e} in {_MAX_ITERS} "
                f"iterations (last residual {residual:.3e})", residual, iters)
        # The operator is a temporary, freed before the next step builds one.
        delta = _linear_solve(
            domain, _newton_operator(domain, _hessian_weights(domain, fields)),
            np.log(det) - log_f)

        step = 1.0
        halvings = 0
        while True:
            u_try = u_flat.copy()
            u_try[int_flat] += step * delta
            _set_boundary(domain, u_try, g_off)
            fields_try, lam_try, det_try = interior_state(u_try)
            if np.min(lam_try) > _PSH_FLOOR and np.all(det_try > 0.0):
                break
            halvings += 1
            if halvings > 5:
                raise DegeneracyError(
                    "plurisubharmonicity lost; damping could not repair it "
                    f"(min eigenvalue {np.min(lam_try):.3e})")
            step *= 0.5
        u_flat, fields, lam_min, det = u_try, fields_try, lam_try, det_try
        residual = float(np.max(np.abs(np.log(det) - log_f)))
        iters += 1

    u = GridFunction(domain, u_flat.reshape(shape_nd))
    quad_dist = float(np.max(np.abs(u_flat[valued] - q_valued)))
    report = SolveReport(
        iterations=iters,
        residual=residual,
        min_eigenvalue=float(np.min(lam_min)),
        converged=True,
        quad_distance=quad_dist,
    )
    return u, report


# ---------------------------------------------------------------------------
# Comparison certificates


def certificate_slack(h: float) -> float:
    """The violation 10 h^2 that a certificate at lattice spacing h allows:
    the comparison sandwich's and the pipeline's Dirichlet barrier's."""
    return 10.0 * h ** 2


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
    boundary, read at every cut point from its boundary node's constraint
    row (GridDomain.bc_table): g = (u_b - c_1 u_1 - c_2 u_2) / c_cut.
    Violations are reported against certificate_slack.
    """
    dom = u.domain
    if not dom.same_lattice(v0.domain):
        raise DomainMismatchError("u and v0 live on different lattices")
    if not 0.0 <= eps < 0.5:
        raise ValueError("eps must lie in [0, 0.5)")
    slack = certificate_slack(dom.h)

    bc = dom.bc_table
    for name, fn in (("u", u), ("v0", v0)):
        flat = fn.values.ravel()
        # a two-point row has no x_2 (idx2 = -1)
        u2 = np.where(bc["idx2"] >= 0, flat[bc["idx2"]], 0.0)
        g = (flat[bc["flat"]] - bc["coef_1"] * flat[bc["idx1"]] - bc["coef_2"] * u2) / bc["coef_c"]
        worst = float(np.max(np.abs(g)))
        if not worst <= slack + 1e-8:
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
