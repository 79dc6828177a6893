"""Dirichlet solver: exactness, barriers, comparison certificates."""

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cmalab import grid, sections, solver
from cmalab.cli import ExperimentConfig
from cmalab.errors import (
    BoundaryConstraintError,
    DegeneracyError,
    DomainMismatchError,
    LinearSolveError,
    NonConvergenceError,
)
import oracle
from conftest import perturbed_f


def sup_error_vs_quadratic(dom, u):
    pts = dom.coords(dom.valued_mask.ravel())
    exact = np.sum(pts ** 2, axis=1) - 1.0
    got = u.values.ravel()[np.flatnonzero(dom.valued_mask.ravel())]
    return float(np.max(np.abs(got - exact)))


def test_exact_ball_n1(ball_n1):
    dom, u, rep = ball_n1
    assert sup_error_vs_quadratic(dom, u) <= 5.0 * dom.h ** 2
    assert rep.residual <= 1e-8


def test_exact_ball_n2(ball_n2):
    dom, u, rep = ball_n2
    assert sup_error_vs_quadratic(dom, u) <= 5.0 * dom.h ** 2
    assert rep.min_eigenvalue > 0.9


def test_quadratic_boundary_data_converges_fast():
    # Boundary data sampled from |z|^2 - 1 reproduces the quadratic within
    # NEWTON_TOL in at most 3 Newton steps.
    dom = grid.build_domain(1, "ball:1.0", 65)
    g = lambda p: np.sum(np.atleast_2d(p) ** 2, axis=1) - 1.0
    u, rep = solver.solve_dirichlet(dom, 1.0, g)
    assert rep.iterations <= 3
    assert sup_error_vs_quadratic(dom, u) <= 1e-8


def test_dirichlet_barrier_perturbed_n2(perturbed_n2):
    dom, _, v0 = perturbed_n2
    gamma = 0.05
    pts = dom.coords(dom.interior_mask.ravel())
    q = np.sum(pts ** 2, axis=1) - 1.0
    vals = v0.values[dom.interior_mask]
    slack = solver.certificate_slack(dom.h)
    assert np.max((q - 3 * gamma) - vals) <= slack
    assert np.max(vals - (q + 3 * gamma)) <= slack


def test_dirichlet_barrier_perturbed_n1(perturbed_n1):
    dom, _, v0 = perturbed_n1
    gamma = 0.05
    pts = dom.coords(dom.interior_mask.ravel())
    q = np.sum(pts ** 2, axis=1) - 1.0
    vals = v0.values[dom.interior_mask]
    slack = solver.certificate_slack(dom.h)
    assert np.max((q - 3 * gamma) - vals) <= slack
    assert np.max(vals - (q + 3 * gamma)) <= slack


def test_residual_certificate(perturbed_n1):
    dom, u, _ = perturbed_n1
    fields = grid.hessian_fields(u, np.flatnonzero(dom.interior_mask))
    det = grid.hessian_det_field(fields)
    pts = dom.coords(dom.interior_mask.ravel())
    f = 1.0 + 0.01 * np.cos(2 * np.pi * pts[:, 0]) * np.cos(2 * np.pi * pts[:, 1])
    assert np.max(np.abs(np.log(det) - np.log(f))) <= 1e-8


def test_grid_convergence_on_quartic():
    # Known non-quadratic solution u = |z|^2 - 1 + c(|z|^4 - 1) of
    # det u_{i jbar} = 1 + 4c|z|^2 on the disc; halving h gains >= 3x.
    c = 0.05
    errs = {}
    for res in (33, 65):
        dom = grid.build_domain(1, "ball:1.0", res)
        f = lambda p: 1.0 + 4 * c * np.sum(np.atleast_2d(p) ** 2, axis=1)
        u, _ = solver.solve_dirichlet(dom, f, 0.0)
        pts = dom.coords(dom.interior_mask.ravel())
        r2 = np.sum(pts ** 2, axis=1)
        exact = r2 - 1 + c * (r2 ** 2 - 1)
        errs[res] = np.max(np.abs(u.values[dom.interior_mask] - exact))
    assert errs[33] / errs[65] >= 3.0


def test_comparison_monotonicity_random_pairs():
    # f1 <= f2 with equal boundary data forces u1 >= u2 up to slack.
    dom = grid.build_domain(1, "ball:1.0", 49)
    rng = np.random.default_rng(11)
    for _ in range(10):
        a1, b1 = rng.uniform(0.0, 0.05, size=2)
        bump = rng.uniform(0.0, 0.1)

        def f1(p, a=a1, b=b1):
            p = np.atleast_2d(p)
            return 1.0 + a * np.cos(2 * np.pi * p[:, 0]) + b * np.sin(np.pi * p[:, 1])

        def f2(p, base=f1, c=bump):
            p = np.atleast_2d(p)
            return base(p) + c * np.exp(-4 * np.sum(p ** 2, axis=1))

        u1, _ = solver.solve_dirichlet(dom, f1, 0.0)
        u2, _ = solver.solve_dirichlet(dom, f2, 0.0)
        mask = dom.interior_mask
        assert np.min(u1.values[mask] - u2.values[mask]) >= -10 * dom.h ** 2


def test_rejects_nonpositive_f():
    dom = grid.build_domain(1, "ball:1.0", 33)
    with pytest.raises(ValueError):
        solver.solve_dirichlet(dom, lambda p: 4.0 * np.sum(np.atleast_2d(p) ** 2, axis=1), 0.0)


def test_nonconvergence_carries_last_residual(monkeypatch):
    # A residual target below roundoff is never met: the iteration cap
    # raises, carrying the last residual.  NEWTON_TOL is read at each call.
    dom = grid.build_domain(1, "ball:1.0", 33)
    monkeypatch.setattr(solver, "NEWTON_TOL", 1e-300)
    with pytest.raises(NonConvergenceError) as err:
        solver.solve_dirichlet(dom, lambda p: 1.0 + 0.1 * np.atleast_2d(p)[:, 0] ** 2, 0.0)
    assert err.value.last_residual > 0
    assert err.value.iterations == 30


def test_degenerate_init_raises():
    # g = 2(|z1|^2 - |z2|^2) is harmonic but not pluriharmonic, so the
    # initial guess |z|^2 - 1 + (harmonic extension of g - |z|^2 + 1) has
    # complex Hessian diag(3, -1): not plurisubharmonic.
    dom = grid.build_domain(2, "ball:1.0", 9)

    def g(p):
        p = np.atleast_2d(p)
        return 2.0 * (p[:, 0] ** 2 + p[:, 1] ** 2 - p[:, 2] ** 2 - p[:, 3] ** 2)

    with pytest.raises(DegeneracyError, match="initial guess"):
        solver.solve_dirichlet(dom, 1.0, g)


def test_solve_report_invariant(perturbed_n1):
    # On success: residual below NEWTON_TOL, minimum eigenvalue above the
    # floor.  The boundary is checked against exact solutions below.
    _, u, _ = perturbed_n1
    _, rep = solver.solve_dirichlet(u.domain, 1.0, 0.0)
    assert rep.converged
    assert rep.residual <= solver.NEWTON_TOL
    assert rep.min_eigenvalue >= solver._PSH_FLOOR


def _exact_n1(pts):
    # u* = |z|^2 - 1 + 0.2 e^{x1}: u*_{z zbar} = Delta u* / 4 = 1 + 0.05 e^{x1}
    pts = np.atleast_2d(pts)
    return np.sum(pts ** 2, axis=1) - 1.0 + 0.2 * np.exp(pts[:, 0])


def _f_exact_n1(pts):
    return 1.0 + 0.05 * np.exp(np.atleast_2d(pts)[:, 0])


def _lift_n2(pts):
    # u(z) = U(Re z1, Re z2) has u_{j kbar} = D^2 U / 4, so det = det D^2 U / 16
    pts = np.atleast_2d(pts)
    a, b = pts[:, 0], pts[:, 2]
    return 2 * a * a + 2 * b * b + 0.6 * a * b + 0.2 * a ** 4 + 0.1 * np.exp(b)


def _f_lift_n2(pts):
    pts = np.atleast_2d(pts)
    a, b = pts[:, 0], pts[:, 2]
    return ((4.0 + 2.4 * a * a) * (4.0 + 0.1 * np.exp(b)) - 0.36) / 16.0


# Max errors measured (interior / boundary nodes): n=1 res 33 1.78e-5 /
# 1.58e-5, res 65 4.70e-6 / 1.78e-6; n=2 res 9 4.41e-3 / 1.26e-2, res 17
# 9.86e-4 / 2.33e-3.  Each bound is twice its measurement.
@pytest.mark.parametrize("n, shape, res, exact, f, interior_bound, boundary_bound", [
    (1, "perturbed:0.05:cos3", 33, _exact_n1, _f_exact_n1, 3.6e-5, 3.2e-5),
    (1, "perturbed:0.05:cos3", 65, _exact_n1, _f_exact_n1, 9.4e-6, 3.6e-6),
    (2, "ball:1.0", 9, _lift_n2, _f_lift_n2, 8.8e-3, 2.5e-2),
    (2, "ball:1.0", 17, _lift_n2, _f_lift_n2, 2.0e-3, 4.7e-3),
], ids=["n1-res33", "n1-res65", "n2-res9", "n2-res17"])
def test_manufactured_solution(n, shape, res, exact, f, interior_bound, boundary_bound):
    # An exact solution with g = u* != 0 on a non-ball shape (n=1) and a
    # non-radial lift (n=2): u is compared with u* at the interior nodes and
    # at the boundary nodes the constraint table sets, so a wrong boundary
    # row or stencil weight shows.
    dom = grid.build_domain(n, shape, res)
    u, _ = solver.solve_dirichlet(dom, f, exact)
    for mask, bound in ((dom.interior_mask, interior_bound),
                        (dom.boundary_mask, boundary_bound)):
        err = np.max(np.abs(u.values[mask] - exact(dom.coords(mask.ravel()))))
        assert err <= bound


def test_boundary_support_cycle_raises_typed_error():
    # Two boundary nodes that extrapolate from each other leave the
    # boundary elimination without a closed form.
    dom = grid.build_domain(1, "ball:1.0", 17)
    bc = dom.bc_table
    for row, other in ((0, 1), (1, 0)):
        bc["idx1"][row] = bc["flat"][other]
        bc["idx2"][row] = -1
        bc["coef_1"][row] = 0.5
    with pytest.raises(BoundaryConstraintError):
        solver.solve_dirichlet(dom, 1.0, 0.0)


def test_domain_without_interior_raises_degeneracy():
    # A lattice domain with no interior node has nothing to solve for, and
    # says so with a typed error before any reduction over interior nodes.
    dom = grid.lattice_domain(1, 1.0, np.ones((9, 9)))
    assert not dom.interior_mask.any()
    with pytest.raises(DegeneracyError):
        solver.solve_dirichlet(dom, 1.0, 0.0)


def test_one_preconditioner_per_n2_domain(monkeypatch):
    # The harmonic extension and every Newton step of the v0 and u solves
    # on one n = 2 domain share a single multigrid hierarchy, whose one
    # factorization is that of its coarsest operator.
    calls = []
    real = solver.spla.splu
    monkeypatch.setattr(solver.spla, "splu",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    dom = grid.build_domain(2, "perturbed:0.05:harmonic", 9)
    _, v_rep = solver.solve_dirichlet(dom, 1.0, 0.0)
    _, u_rep = solver.solve_dirichlet(dom, lambda p: 1.0 + 0.01 * np.cos(np.pi * p[:, 0]), 0.0)
    assert v_rep.iterations >= 1 and u_rep.iterations >= 1
    assert len(calls) == 1


def _f_n2(pts):
    pts = np.atleast_2d(pts)
    return 1.0 + 0.01 * np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 2])


def test_one_harmonic_extension_per_domain_and_data(monkeypatch):
    # v0 and u share their boundary data, so the second solve reuses the
    # first one's harmonic extension: every other linear solve is a Newton
    # step.
    calls = []
    real = solver._linear_solve
    monkeypatch.setattr(solver, "_linear_solve", lambda *a: calls.append(1) or real(*a))
    dom = grid.build_domain(2, "perturbed:0.05:harmonic", 9)
    _, v_rep = solver.solve_dirichlet(dom, 1.0, 0.0)
    _, u_rep = solver.solve_dirichlet(dom, _f_n2, 0.0)
    assert len(calls) == 1 + v_rep.iterations + u_rep.iterations


def test_new_boundary_data_gets_its_own_extension():
    # After a solve with g = 0, a solve with other data on the same domain
    # equals the same solve on a fresh domain, bit for bit.
    def g(p):
        return 0.1 * np.atleast_2d(p)[:, 0]

    dom = grid.build_domain(2, "perturbed:0.05:harmonic", 9)
    solver.solve_dirichlet(dom, 1.0, 0.0)
    u, rep = solver.solve_dirichlet(dom, _f_n2, g)
    ref, ref_rep = solver.solve_dirichlet(
        grid.build_domain(2, "perturbed:0.05:harmonic", 9), _f_n2, g)
    assert np.array_equal(u.values, ref.values, equal_nan=True)
    assert rep.iterations == ref_rep.iterations


def test_cached_harmonic_extension_is_read_only():
    dom = grid.build_domain(2, "perturbed:0.05:harmonic", 9)
    cuts = dom.bc_table["cuts"]
    gap = 1.0 - np.sum(cuts ** 2, axis=1)
    ext = solver.harmonic_extension(dom, gap)
    assert solver.harmonic_extension(dom, gap.copy()) is ext
    assert not ext.flags.writeable
    with pytest.raises(ValueError):
        ext[0] = 0.0


@pytest.mark.parametrize("res", [9, 17])
def test_v_cycle_matches_the_transposing_cycle(res):
    # The stored restriction and the product-free first sweep change no
    # bit of the V-cycle.
    cycle = solver._multigrid(grid.build_domain(2, "perturbed:0.05:harmonic", res))
    levels, coarsest = cycle.args
    assert len(levels) == (1 if res == 9 else 2)
    rng = np.random.default_rng(res)
    for _ in range(3):
        b = rng.standard_normal(levels[0][0].shape[0])
        assert np.array_equal(cycle(b), oracle.cycle_transposing(levels, coarsest, b))


@pytest.mark.parametrize("res", [17, 18])
def test_prolongation_matches_the_corner_loop(res):
    # One code of odd axes per unknown picks each corner's rows: P is the
    # corner loop's bit for bit, on an odd lattice and a padded even one,
    # at every level of the hierarchy.
    mask = grid.build_domain(2, "perturbed:0.05:harmonic", res).interior_mask
    while grid.coarse_twin(mask.shape[0]):
        if mask.shape[0] % 2 == 0:
            mask = np.pad(mask, [(0, 1)] * mask.ndim)
        P, cmask = solver._prolongation(mask)
        ref, ref_mask = oracle.prolongation_by_corner(mask)
        assert np.array_equal(cmask, ref_mask)
        assert P.shape == ref.shape
        for k in ("data", "indices", "indptr"):
            got, want = getattr(P, k), getattr(ref, k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        mask = cmask


def test_multigrid_solve_matches_direct_solve(monkeypatch):
    # The V-cycle only preconditions: the n = 2 solve equals one whose
    # linear systems are solved directly, Newton step for Newton step.
    u, rep = solver.solve_dirichlet(
        grid.build_domain(2, "perturbed:0.05:harmonic", 9), _f_n2, 0.0)
    monkeypatch.setattr(solver, "_newton_operator",
                        lambda dom, weights: solver._assemble(dom, weights)[0])
    monkeypatch.setattr(solver, "_linear_solve",
                        lambda dom, A, rhs: spla.spsolve(A.tocsc(), rhs))
    ref, ref_rep = solver.solve_dirichlet(
        grid.build_domain(2, "perturbed:0.05:harmonic", 9), _f_n2, 0.0)
    assert np.array_equal(np.isnan(u.values), np.isnan(ref.values))
    assert np.nanmax(np.abs(u.values - ref.values)) <= 1e-12
    assert rep.iterations == ref_rep.iterations


def test_gmres_iterations_do_not_grow_with_resolution(monkeypatch):
    # Halving h leaves the preconditioned Krylov iteration count about
    # level: the V-cycle's contraction rate does not depend on h.
    counts = []
    real = solver.spla.gmres

    def counting(A, b, **kw):
        counts.append(0)

        def tick(_):
            counts[-1] += 1

        return real(A, b, callback=tick, callback_type="pr_norm", **kw)

    monkeypatch.setattr(solver.spla, "gmres", counting)
    worst = {}
    for res in (9, 17, 18):
        counts.clear()
        solver.solve_dirichlet(grid.build_domain(2, "perturbed:0.05:harmonic", res),
                               _f_n2, 0.0)
        worst[res] = max(counts)
    assert worst[17] <= 1.5 * worst[9]
    assert worst[18] <= 1.5 * worst[9]


def test_even_lattice_factors_only_its_coarsest_level(monkeypatch):
    # An even resolution coarsens like an odd one, through one padding
    # layer: splu factors the coarsest level, not the whole lattice.
    shapes = []
    real = solver.spla.splu
    monkeypatch.setattr(solver.spla, "splu",
                        lambda A, *a, **k: shapes.append(A.shape) or real(A, *a, **k))
    dom = grid.build_domain(2, "perturbed:0.05:harmonic", 10)
    _, rep = solver.solve_dirichlet(dom, _f_n2, 0.0)
    n_int = int(dom.interior_mask.sum())
    assert len(shapes) == 1 and shapes[0][0] < n_int
    assert rep.converged and rep.residual <= solver.NEWTON_TOL


def test_krylov_failure_raises_typed_error(monkeypatch):
    monkeypatch.setattr(solver.spla, "gmres", lambda A, b, **kw: (np.zeros_like(b), 7))
    dom = grid.build_domain(2, "perturbed:0.05:harmonic", 9)
    with pytest.raises(LinearSolveError) as err:
        solver.solve_dirichlet(dom, 1.0, 0.0)
    assert np.isfinite(err.value.residual) and err.value.residual > 0.0


def test_singular_direct_solve_raises_typed_error(monkeypatch):
    # A planar operator with a zero row has no factor: SuperLU's "exactly
    # singular" stop is a LinearSolveError, not a bare RuntimeError.
    dom = grid.build_domain(1, "ball:1.0", 17)
    N = solver._laplacian(dom)[0].tolil()
    N[N.shape[0] // 2, :] = 0.0
    rhs = np.ones(N.shape[0])
    with pytest.raises(LinearSolveError):
        solver._linear_solve(dom, N.tocsr(), rhs)
    # A direct solution that is not finite misses the shared residual check.
    monkeypatch.setattr(solver.spla, "splu", lambda A, **kw: type(
        "NaNFactor", (), {"solve": staticmethod(lambda b: np.full_like(b, np.nan))}))
    with pytest.raises(LinearSolveError):
        solver._linear_solve(dom, solver._laplacian(dom)[0], rhs)


def test_nan_residual_is_not_converged(monkeypatch):
    # A NaN start is refused, not solved and reported converged.  The
    # perturbed domain's boundary gap makes the harmonic extension the first
    # linear solve, so the start is NaN at every node, and its NaN
    # eigenvalues fail the plurisubharmonicity guard.
    monkeypatch.setattr(solver, "_linear_solve", lambda dom, N, rhs: np.full_like(rhs, np.nan))
    dom = grid.build_domain(1, "perturbed:0.05:cos3", 33)
    with pytest.raises(DegeneracyError, match=r"initial guess .*\(min eigenvalue nan\)"):
        solver.solve_dirichlet(dom, 1.0, 0.0)


def test_n1_solver_memory_per_node():
    # One n = 1 res-129 domain and its two solves, measured by
    # tools/solver_memory.py in a fresh interpreter: about 720 B per node
    # under the minimum-degree ordering, 1230 B under COLAMD.
    tool = Path(__file__).resolve().parents[1] / "tools" / "solver_memory.py"
    out = subprocess.run([sys.executable, str(tool), "1:129"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert json.loads(out.splitlines()[-1])["bytes_per_node"] <= 900


def _newton_weights(u):
    """The weights of the Newton operator linearized at u."""
    dom = u.domain
    return solver._hessian_weights(
        dom, grid.hessian_fields(u, solver._get_assembly(dom)["int_flat"]))


def _matrix_bytes(*matrices):
    """Each matrix as its shape and bytes."""
    return [(A.shape, A.data.tobytes(), A.indices.tobytes(), A.indptr.tobytes())
            for A in matrices]


@pytest.mark.parametrize("gmres_fails", [False, True])
def test_linear_solve_only_reads_its_matrices(monkeypatch, gmres_fails):
    # GMRES and the V-cycle read the same cached Laplacian; negating a
    # matrix in place for one solve would change the preconditioner of
    # every later solve on the domain.  The Newton operator's stencil
    # blocks and the cached boundary substitution S are only read too.
    dom = grid.build_domain(2, "perturbed:0.05:harmonic", 13)
    weights = _newton_weights(solver.solve_dirichlet(dom, _f_n2, 0.0)[0])
    blocks = []
    real = solver._stencil_blocks
    monkeypatch.setattr(solver, "_stencil_blocks",
                        lambda *a: blocks.append(real(*a)) or blocks[-1])
    newton = solver._newton_operator(dom, weights)
    laplacian = solver._laplacian(dom)[0]
    assert len(blocks) == 1
    read = (laplacian, dom._cache["multigrid"].args[0][0][0], *blocks[0],
            solver._get_assembly(dom)["S"])
    rhs = np.random.default_rng(13).standard_normal(laplacian.shape[0])
    if gmres_fails:
        monkeypatch.setattr(solver.spla, "gmres", lambda A, b, **kw: (np.zeros_like(b), 1))
    for N in (newton, laplacian):
        before = _matrix_bytes(*read)
        if gmres_fails:
            with pytest.raises(LinearSolveError):
                solver._linear_solve(dom, N, rhs)
        else:
            solver._linear_solve(dom, N, rhs)
        assert _matrix_bytes(*read) == before


def _chain_lattice_n1(request):
    # A level-one chain lattice at the chains' n = 1 resolution, built by
    # grid.lattice_domain from the rescaled section's values.
    dom, u, _ = request.getfixturevalue("perturbed_n1")
    x0 = dom.node_index((-0.2, 0.15))
    hh, A = sections.taylor_split(u, x0)
    T = sections.normalize_transform(sections.unit_determinant(A))
    return sections.rescale_to_unit(u, x0, 0.05, hh, T, resolution=33,
                                    box_halfwidth=1.3).domain


@pytest.mark.parametrize("make", [
    lambda request: grid.build_domain(1, "perturbed:0.05:cos3", 33),
    _chain_lattice_n1,
    lambda request: grid.build_domain(2, "perturbed:0.05:harmonic", 9),
], ids=["n1_res33", "n1_chain", "n2_res9"])
def test_assembly_matches_the_coo_oracle(request, make):
    # The row-grouped stencil blocks, their duplicates summed in place,
    # give the matrices of one COO assembly byte for byte: every n = 1
    # solve and every Laplacian are unchanged.
    dom = make(request)
    n_int = solver._get_assembly(dom)["n_int"]
    laplacian = {("pure", a): np.ones(n_int) for a in range(dom.d)}
    u, _ = solver.solve_dirichlet(dom, _f_n2 if dom.n == 2 else perturbed_f(0.01), 0.0)
    for weights in (laplacian, _newton_weights(u)):
        assert (_matrix_bytes(*solver._assemble(dom, weights))
                == _matrix_bytes(*oracle.assemble_coo(dom, weights)))


@pytest.mark.parametrize("make", [
    lambda request: grid.build_domain(1, ExperimentConfig().shape_spec(), 65),
    _chain_lattice_n1,
], ids=["n1_res65", "n1_chain"])
def test_direct_solve_matches_default_ordering_solve(request, monkeypatch, make):
    # The minimum-degree ordering only reorders the factorization: the
    # solve equals one through spsolve's default COLAMD ordering, Newton
    # step for Newton step.
    f = ExperimentConfig().f_function()
    u, rep = solver.solve_dirichlet(make(request), f, 0.0)
    monkeypatch.setattr(solver, "_linear_solve",
                        lambda dom, N, rhs: spla.spsolve(N.tocsc(), rhs))
    ref, ref_rep = solver.solve_dirichlet(make(request), f, 0.0)
    assert np.array_equal(np.isnan(u.values), np.isnan(ref.values))
    assert np.nanmax(np.abs(u.values - ref.values)) <= 1e-12
    assert rep.iterations == ref_rep.iterations


@pytest.mark.parametrize("res", [9, 13])
def test_newton_operator_applies_the_assembled_matrix(res):
    # At n = 2 a Newton step hands GMRES its stencil blocks unfolded; they
    # apply the folded matrix up to the order of summation.
    dom = grid.build_domain(2, "perturbed:0.05:harmonic", res)
    weights = _newton_weights(solver.solve_dirichlet(dom, _f_n2, 0.0)[0])
    N = solver._newton_operator(dom, weights)
    A = solver._assemble(dom, weights)[0]
    assert isinstance(N, spla.LinearOperator)
    rng = np.random.default_rng(res)
    for _ in range(3):
        x = rng.standard_normal(A.shape[0])
        want = A @ x
        assert np.max(np.abs(N @ x - want)) <= 1e-13 * np.max(np.abs(want))


def _u_n1(pts):
    x, y = np.atleast_2d(pts).T
    return x * x + y * y - 1.0 + 0.3 * x ** 3 + 0.2 * x * y * y


def _u_n2(pts):
    # |z|^2 - 1 + 0.2 Re(z1 zbar2) + 0.1 Im(z1 zbar2): h12re and h12im are
    # 0.1 and -0.05, so the mixed weights are far from 0.
    x1, y1, x2, y2 = np.atleast_2d(pts).T
    return (x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2 - 1.0
            + 0.2 * (x1 * x2 + y1 * y2) + 0.1 * (y1 * x2 - x1 * y2))


@pytest.mark.parametrize("n, shape, fn", [
    (1, "perturbed:0.05:cos3", _u_n1),
    (2, "perturbed:0.05:harmonic", _u_n2),
], ids=["n1", "n2"])
def test_newton_operator_is_the_residual_derivative(n, shape, fn):
    # -N delta is the derivative of G(u) = log det H(u) - log f along delta,
    # the boundary following the interior through _set_boundary.  delta is
    # h^2 times white noise, so its second differences are of size 1 and
    # the central difference at t = 1e-5 is accurate to about t^2.
    dom = grid.build_domain(n, shape, 33 if n == 1 else 9)
    asm = solver._get_assembly(dom)
    int_flat = asm["int_flat"]
    valued = dom.valued_mask.ravel()
    u = np.full(valued.size, np.nan)
    u[valued] = fn(dom.coords(valued))
    g_off = asm["coef_c"] * fn(dom.bc_table["cuts"])
    solver._set_boundary(dom, u, g_off)

    def fields(values):
        return grid.hessian_fields(
            grid.GridFunction(dom, values.reshape(dom.interior_mask.shape)), int_flat)

    def log_det(values):
        return np.log(grid.hessian_det_field(fields(values)))

    def moved(step):
        out = u.copy()
        out[int_flat] += step * delta
        solver._set_boundary(dom, out, g_off)
        return out

    delta = dom.h ** 2 * np.random.default_rng(n).standard_normal(asm["n_int"])
    t = 1e-5
    central = (log_det(moved(t)) - log_det(moved(-t))) / (2.0 * t)
    want = -(solver._newton_operator(dom, solver._hessian_weights(dom, fields(u))) @ delta)
    assert np.max(np.abs(central - want)) <= 1e-7 * np.max(np.abs(want))


def test_n2_newton_operator_memory(perturbed_n2):
    # Measured peak (numpy 2.4, scipy 1.17): 5.39 MiB for one Newton
    # operator at n = 2 res 17, against 9.84 MiB for the folded matrix
    # from a COO triple; the bound leaves at least 15% headroom.
    dom, u, _ = perturbed_n2
    weights = _newton_weights(u)
    solver._newton_operator(dom, weights)  # caches out of the count
    tracemalloc.start()
    try:
        solver._newton_operator(dom, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.3 * 2 ** 20


@pytest.mark.parametrize("res, bound_mib", [(17, 27), (18, 35)], ids=["res17", "res18"])
def test_n2_solve_transient_memory(res, bound_mib):
    # Measured peak (numpy 2.4, scipy 1.17): 23.6 MB for build_domain plus
    # the v0 and u solves at n = 2 res 17, against 35.3 MB with int64
    # stencil tables, a list-and-concatenate assembly, a negated copy of
    # each operator for GMRES and of the Laplacian for the V-cycle, and a
    # full-box coordinate array per solve.  The even res 18 coarsens like
    # an odd lattice and peaks at 30.4 MB (15% headroom), where factoring
    # its 16,688 unknowns whole took 660 MiB.
    def build_and_solve():
        dom = grid.build_domain(2, "perturbed:0.05:harmonic", res)
        solver.solve_dirichlet(dom, 1.0, 0.0)
        solver.solve_dirichlet(dom, perturbed_f(0.01), 0.0)

    build_and_solve()  # imports and caches out of the count
    tracemalloc.start()
    try:
        build_and_solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


# -- comparison sandwich -------------------------------------------------------


def test_sandwich_zero_eps_identical():
    dom = grid.build_domain(1, "ball:1.0", 49)
    u, _ = solver.solve_dirichlet(dom, 1.0, 0.0)
    cert = solver.comparison_sandwich(u, u, 0.0, 1)
    assert cert.passed
    assert cert.max_abs_diff == 0.0


def test_sandwich_constant_f_n2(ball_n2):
    # det u = 1.01 against the unit solve: |u - v0| <= 4 eps plus slack.
    dom, v0, _ = ball_n2
    u, _ = solver.solve_dirichlet(dom, 1.01, 0.0)
    cert = solver.comparison_sandwich(u, v0, 0.01, 2)
    assert cert.passed
    assert cert.max_abs_diff <= 0.04 + solver.certificate_slack(dom.h)


def test_sandwich_rejects_shifted_boundary(ball_n1):
    dom, u, _ = ball_n1
    shifted = grid.GridFunction(dom, u.values + 0.1)
    with pytest.raises(ValueError):
        solver.comparison_sandwich(u, shifted, 0.01, 1)


def test_sandwich_rejects_mismatched_domains(ball_n1):
    dom, u, _ = ball_n1
    other = grid.build_domain(1, "ball:1.0", 65)
    v, _ = solver.solve_dirichlet(other, 1.0, 0.0)
    with pytest.raises(DomainMismatchError):
        solver.comparison_sandwich(u, v, 0.01, 1)


def test_sandwich_checks_the_boundary_at_every_cut(perturbed_n2):
    # The boundary check used to read u and v0 at the cut points through
    # their multilinear interpolants and drop the NaNs: at n = 2 res 17
    # most cut cells hold an unvalued node, so those cuts went unchecked.
    # Each cut is now read from its own constraint row, so a boundary value
    # off its constraint is refused wherever its cut lies.
    dom, u, v0 = perturbed_n2
    cuts = dom.bc_table["cuts"]
    unread = np.isnan(v0.interp(cuts))
    assert unread.sum() > cuts.shape[0] // 2
    assert solver.comparison_sandwich(u, v0, 0.01, 2).passed
    row = np.flatnonzero(unread)[0]
    bad = v0.values.copy()
    # g at that cut moves by 2 slack
    bad.ravel()[dom.bc_table["flat"][row]] += (
        2 * solver.certificate_slack(dom.h) * dom.bc_table["coef_c"][row])
    with pytest.raises(ValueError, match="v0 does not vanish"):
        solver.comparison_sandwich(u, grid.GridFunction(dom, bad), 0.01, 2)
