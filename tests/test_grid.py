"""Grid discretization, complex differential calculus, persistence."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from cmalab import grid, sections
from cmalab.errors import BoundaryConstraintError, MemoryCapError, StencilViolationError
import oracle


def test_exact_ball_res129_spacing_and_count():
    dom = grid.build_domain(1, "ball:1.0", 129)
    assert dom.h == pytest.approx(2.0 / 128, abs=1e-15)
    expected = math.pi / dom.h ** 2
    count = int(dom.interior_mask.sum())
    assert abs(count - expected) / expected < 0.01


def test_res9_center_is_interior():
    dom = grid.build_domain(1, "ball:1.0", 9)
    assert dom.interior_mask[dom.node_index((0.0, 0.0))]


def test_perturbed_ball_boundary_window_n2():
    dom = grid.build_domain(2, "perturbed:0.05:harmonic", 17)
    radii = np.linalg.norm(dom.coords(dom.boundary_mask.ravel()), axis=1)
    assert radii.min() >= 1.0 - 0.05 - dom.h - 1e-12
    assert radii.max() <= 1.0 + 0.05 + dom.h + 1e-12


def test_masks_disjoint_and_stencils_supported():
    dom = grid.build_domain(1, "perturbed:0.1:cos3", 65)
    assert not np.any(dom.interior_mask & dom.boundary_mask)
    valued = dom.valued_mask
    for idx in np.argwhere(dom.interior_mask)[:: 7]:
        for off in grid._stencil_offsets(dom.d):
            nb = tuple(idx + np.array(off))
            assert valued[nb]


def test_build_domain_validation():
    with pytest.raises(ValueError):
        grid.build_domain(3, "ball:1.0", 33)
    with pytest.raises(ValueError):
        grid.build_domain(1, "ball:1.0", 8)
    with pytest.raises(ValueError):
        grid.build_domain(1, "perturbed:0.6:cos3", 33)
    with pytest.raises(MemoryCapError):
        grid.build_domain(2, "ball:1.0", 129)


def test_n2_res65_is_refused_before_allocating():
    # 17.85M nodes at the cap's 480 B per node need about 8.6 GB.  A
    # guess of 96 B per node put them under the 2 GiB cap, so the domain
    # was built and the solve ran the host out of memory.
    tracemalloc.start()
    try:
        with pytest.raises(MemoryCapError):
            grid.build_domain(2, "ball:1.0", 65)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coarse_twin_halves_odd_and_even_counts():
    # The twin is the even-index nodes, of an even count padded by one node.
    assert [grid.coarse_twin(c) for c in (45, 12, 18, 10, 9, 7)] == [23, 7, 10, 6, 5, 0]


class _Admitted(Exception):
    pass


class _UnbuiltBall(grid.BallShape):
    def outer_radius(self):
        raise _Admitted


@pytest.mark.parametrize("res", [20, 39, 42, 43, 44, 45, 46])
def test_n2_lattice_meets_only_the_byte_cap_before_allocating(monkeypatch, res):
    # Every n = 2 lattice coarsens, so only the byte cap decides: 45**4 *
    # 480 B is under 2 GiB and 46**4 * 480 B over it.  A shape that raises
    # when the lattice is laid out shows that a lattice passed the cap
    # without building it.
    monkeypatch.setattr(grid, "shape_from_spec", lambda spec: _UnbuiltBall(1.0))
    tracemalloc.start()
    try:
        with pytest.raises(_Admitted if res <= 45 else MemoryCapError):
            grid.build_domain(2, "ball:1.0", res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- boundary cut points -------------------------------------------------------


def _lattice_signed(dom):
    """The lattice values the masks were cut from: those a lattice domain
    holds until its table is built, or the shape sampled on the lattice."""
    if dom.shape is None:
        return dom._cache["signed"]
    return dom.shape.signed(dom.coords()).reshape((dom.resolution,) * dom.d)


def _bisection_table(dom, signed):
    """The domain's bc table with every cut bisected (oracle.bisect_cut) on
    the shape, or on the multilinear interpolant of a lattice domain's
    values, hidden behind an object that has only `signed`."""
    fn = oracle.lattice_signed(dom.axes, signed) if dom.shape is None else dom.shape.signed
    opaque = dataclasses.replace(dom, shape=SimpleNamespace(signed=fn))
    return oracle.bc_table_by_index(opaque, signed, bisect=True)


class _CountingShape:
    """A shape that counts the points its signed function is read at."""

    def __init__(self, shape):
        self.shape = shape
        self.points = 0

    def signed(self, pts):
        self.points += len(pts)
        return self.shape.signed(pts)


def _chain_domain_n1(request):
    dom, u, _ = request.getfixturevalue("perturbed_n1")
    x0 = dom.node_index((-0.2, 0.15))
    hh, A = sections.taylor_split(u, x0)
    T = sections.normalize_transform(sections.unit_determinant(A))
    return sections.rescale_to_unit(u, x0, 0.05, hh, T, resolution=65, box_halfwidth=1.3)


def _chain_domain_n2(request):
    # Level one of the chain at an off-origin base of the n = 2 growth test.
    dom, u, v0 = request.getfixturevalue("perturbed_n2")
    x0 = (5, 10, 8, 7)
    hh, A = sections.taylor_split(v0, x0)
    T = sections.normalize_transform(sections.unit_determinant(A))
    mu = min(0.1, sections.allowed_top_height(dom, x0))
    return sections.rescale_to_unit(u, x0, mu, hh, T, resolution=13, box_halfwidth=1.3)


def _lattice_disk():
    axes = [np.linspace(-1.3, 1.3, 33)] * 2
    mesh = np.meshgrid(*axes, indexing="ij")
    return grid.lattice_domain(1, 1.3, mesh[0] ** 2 + mesh[1] ** 2 - 1.0)


@pytest.mark.parametrize("make", [lambda: grid.build_domain(1, "ball:1.0", 33),
                                  lambda: grid.build_domain(2, "perturbed:0.05:harmonic", 13),
                                  _lattice_disk],
                         ids=["ball", "perturbed", "sublevel"])
def test_bc_table_built_on_first_read_is_the_eager_table(make):
    dom = make()
    assert "bc_table" not in dom._cache
    ref = grid._build_bc_table(dom, _lattice_signed(dom))
    table = dom.bc_table
    assert table.keys() == ref.keys()
    assert all(np.array_equal(table[k], ref[k]) for k in ref)
    assert dom.bc_table is table and "signed" not in dom._cache


def test_two_level_chain_builds_one_bc_table(perturbed_n1, monkeypatch):
    # The level-1 re-grid is solved on at level 2; the level-2 re-grid is
    # read only for its masks, so its table is never built.
    dom, u, v0 = perturbed_n1
    calls = []
    real = grid._build_bc_table
    monkeypatch.setattr(grid, "_build_bc_table", lambda d, s: calls.append(d) or real(d, s))
    chain = sections.construct_section_chain(u, dom.node_index((0.1, -0.1)), sigma=0.2,
                                             k_max=2, v0=v0, chain_resolution=33)
    assert len(chain.levels) == 2
    assert len(calls) == 1


@pytest.mark.parametrize("make", [
    lambda request: grid.build_domain(1, "ball:1.0", 33),
    lambda request: grid.build_domain(1, "perturbed:0.05:cos3", 33),
    lambda request: grid.build_domain(2, "ball:1.0", 13),
    lambda request: grid.build_domain(2, "perturbed:0.05:harmonic", 13),
    lambda request: _chain_domain_n2(request).domain,
], ids=["ball-n1", "perturbed-n1", "ball-n2", "perturbed-n2", "chain-n2"])
def test_flat_direction_search_matches_index_arrays(request, make):
    # Flat step offsets and per-axis room pick the same direction, ties to
    # the first step, as (nb, d) index arrays checked against the box.
    dom = make(request)
    ref = oracle.bc_table_by_index(dom, _lattice_signed(dom))
    table = dom.bc_table
    assert table.keys() == ref.keys()
    assert all(np.array_equal(table[k], ref[k]) for k in ref)


# In one complex dimension the stencil has no diagonals, so an inside node
# lacks stencil support only on the box face; inward rows there are the
# off-box case below.  n = 2 chain domains have inward rows in the box.
@pytest.mark.parametrize("make, inward", [(_chain_domain_n1, False), (_chain_domain_n2, True)],
                         ids=["n1", "n2"])
def test_chain_domain_cuts_match_bisection(request, make, inward):
    w = make(request)
    dom = w.domain
    assert dom.shape is None
    signed = _lattice_signed(dom)
    table = dom.bc_table
    ref = _bisection_table(dom, signed)
    sb = signed.ravel()[table["flat"]]
    assert np.any(sb > 0.0)
    assert np.any(sb < 0.0) == inward
    assert np.array_equal(table["idx1"], ref["idx1"])
    assert np.array_equal(table["idx2"], ref["idx2"])
    err = np.abs(table["cuts"] - ref["cuts"]).max(axis=1)
    assert err.max() <= 1e-12 * dom.h
    on_cut = w.interp(table["cuts"])
    assert np.any(np.isfinite(on_cut))
    assert np.nanmax(np.abs(on_cut)) <= 1e-12


def test_lattice_cut_off_box_counts_as_outside():
    # A disk crossing the low x-face of the box.  Boundary nodes on that face
    # have their outward neighbor off the box; a wrapped -1 index would read
    # the opposite face, which lies outside the disk.
    axes = [np.linspace(-1.3, 1.3, 17)] * 2
    X, Y = np.meshgrid(*axes, indexing="ij")
    signed = (X + 1.0) ** 2 + Y ** 2 - 0.36
    dom = grid.lattice_domain(1, 1.3, signed)
    table = dom.bc_table
    b_idx = np.argwhere(dom.boundary_mask)
    on_face = (b_idx[:, 0] == 0) & (signed[tuple(b_idx.T)] < 0.0)
    assert np.any(on_face)
    assert np.all(signed[-1] > 0.0)
    ref = _bisection_table(dom, signed)
    assert np.abs(table["cuts"] - ref["cuts"]).max() <= 1e-8 * dom.h
    # The face cuts sit on the face nodes themselves.
    nodes = dom.coords()[table["flat"][on_face]]
    assert np.abs(table["cuts"][on_face] - nodes).max() <= 1e-14


@pytest.mark.parametrize("n, res", [(1, 33), (1, 65), (2, 13), (2, 17)])
@pytest.mark.parametrize("kind", ["ball", "perturbed"])
def test_shape_cuts_match_bisection(n, res, kind):
    # The seeded regula falsi lands within rounding of 60 bisection sweeps,
    # on ring rows and (n = 2) inward rows, picks the same supports, and
    # reads the shape at no more than 8 points per cut, hit tests included.
    spec = "ball:1.0" if kind == "ball" else f"perturbed:0.05:{'cos3' if n == 1 else 'harmonic'}"
    dom = grid.build_domain(n, spec, res)
    signed = _lattice_signed(dom)
    counting = _CountingShape(dom.shape)
    table = grid._build_bc_table(dataclasses.replace(dom, shape=counting), signed)
    ref = _bisection_table(dom, signed)
    for k in ("flat", "idx1", "idx2"):
        assert table[k].tobytes() == ref[k].tobytes()
    sb = signed.ravel()[table["flat"]]
    assert np.any(sb > 0.0)
    assert np.any(sb < 0.0) == (n == 2)
    assert np.abs(table["cuts"] - ref["cuts"]).max() <= 1e-13 * dom.h
    assert counting.points <= 8 * table["flat"].size


def test_shape_cut_of_a_segment_without_a_sign_change_raises():
    # Both ends of the second segment lie inside the unit disk; bisection
    # would have returned a point of it all the same.
    shape = grid.BallShape(1.0)
    p0 = np.array([[0.9, 0.0], [0.0, 0.0]])
    span = np.array([[0.2, 0.0], [0.5, 0.0]])
    f0, f1 = shape.signed(p0), shape.signed(p0 + span)
    with pytest.raises(BoundaryConstraintError, match="1 cut segments have ends of one sign"):
        grid._shape_cut(shape, p0, span, np.array([0.5, 0.5]), f0, f1)
    t = grid._shape_cut(shape, p0[:1], span[:1], np.array([0.2]), f0[:1], f1[:1])
    assert abs(0.9 + 0.2 * t[0] - 1.0) <= 1e-15


def test_shape_cut_still_open_after_the_sweep_cap_raises(monkeypatch):
    dom = grid.build_domain(1, "perturbed:0.05:cos3", 33)
    monkeypatch.setattr(grid, "_CUT_SWEEPS", 2)
    with pytest.raises(BoundaryConstraintError, match="still open after 2 sweeps"):
        dom.bc_table


def _row_domain(run: int, deep: bool = False):
    """A 9x9 lattice with one boundary node b = (5, 2) and `run` interior
    nodes to its right; the row is the only direction with an interior x1.
    The cut on b -> x1 falls 1e-9 of a step short of x1, or, when `deep`,
    halfway between b and x1."""
    res = 9
    signed = np.ones((res, res))
    for k in range(run):
        signed[5, 3 + k] = -1e-9 if k == 0 and not deep else -1.0
    boundary = np.zeros((res, res), dtype=bool)
    boundary[5, 2] = True
    return grid.GridDomain(
        n=1, resolution=res, h=0.25, box=np.array([[-1.0, 1.0]] * 2),
        shape=None, interior_mask=signed < 0.0,
        boundary_mask=boundary), signed


# The ids name the fallback forms that once took these rows (three-point on
# (x2, x3), two-point on x2, the cut value alone).
@pytest.mark.parametrize("run", [3, 2, 1], ids=["quad23", "lin2", "anchor"])
def test_rare_boundary_constraint_forms(run):
    # A cut that nearly collides with x1 fits neither form: it would blow
    # up the extrapolation weights.
    dom, signed = _row_domain(run)
    with pytest.raises(BoundaryConstraintError, match="nearly collides"):
        grid._build_bc_table(dom, signed)


@pytest.mark.parametrize("run, supports, exact_on", [
    (3, [(5, 3), (5, 4)], lambda x, y: 1.0 + 0.3 * x - 0.7 * y
     + 0.5 * x * x - 0.2 * x * y + 0.9 * y * y),
    (1, [(5, 3), None], lambda x, y: 1.0 + 0.3 * x - 0.7 * y),
], ids=["three-point", "two-point"])
def test_boundary_constraint_forms_are_exact(run, supports, exact_on):
    # The three-point form through (x1, x2) is exact on quadratics, the
    # two-point form through x1 on linears.
    dom, signed = _row_domain(run, deep=True)
    table = grid._build_bc_table(dom, signed)
    flat = [-1 if nd is None else np.ravel_multi_index(nd, signed.shape)
            for nd in supports]
    assert [table["idx1"][0], table["idx2"][0]] == flat
    pts = dom.coords()
    vals = exact_on(pts[:, 0], pts[:, 1])
    cut = table["cuts"][0]
    got = (table["coef_c"][0] * exact_on(cut[0], cut[1])
           + sum(table[f"coef_{k}"][0] * vals[f] for k, f in ((1, flat[0]), (2, flat[1]))
                 if f >= 0))
    assert got == pytest.approx(vals[table["flat"][0]], abs=1e-12)


def test_inside_row_without_cut_raises():
    # b = (5, 2) is inside, and so are the two nodes behind it on its only
    # direction: no cut lies within two steps, so no constraint is anchored
    # at the boundary.
    dom, signed = _row_domain(3, deep=True)
    signed[5, :3] = -1.0
    with pytest.raises(BoundaryConstraintError, match="no cut within two steps"):
        grid._build_bc_table(dom, signed)


# -- complex Hessian ---------------------------------------------------------


def test_hessian_of_squared_modulus_is_identity():
    dom = grid.build_domain(2, "ball:1.2", 17)
    u = grid.GridFunction.from_callable(dom, lambda p: np.sum(p ** 2, axis=1))
    H = grid.complex_hessian(u, dom.node_index((0.1, -0.2, 0.3, 0.0)))
    assert np.allclose(H, np.eye(2), atol=1e-12)


def test_hessian_of_pluriharmonic_is_zero_exactly():
    dom = grid.build_domain(1, "ball:1.0", 33)
    u = grid.GridFunction.from_callable(dom, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    H = grid.complex_hessian(u, dom.node_index((0.3, 0.4)))
    assert np.all(H == 0.0)


def test_hessian_quartic_against_symbolic_oracle():
    # Sympy independently differentiates |z1|^4 at (1, 0).
    x1, y1 = sympy.symbols("x1 y1", real=True)
    expr = (x1 ** 2 + y1 ** 2) ** 2
    u11 = (sympy.diff(expr, x1, 2) + sympy.diff(expr, y1, 2)) / 4
    expected = float(u11.subs({x1: 1.0, y1: 0.0}))
    assert expected == 4.0

    dom = grid.build_domain(2, "ball:1.2", 25)
    u = grid.GridFunction.from_callable(
        dom, lambda p: (p[:, 0] ** 2 + p[:, 1] ** 2) ** 2)
    H = grid.complex_hessian(u, dom.node_index((1.0, 0.0, 0.0, 0.0)))
    assert H[0, 0].real == pytest.approx(expected, abs=10 * dom.h ** 2)
    assert H[1, 1].real == pytest.approx(0.0, abs=1e-12)


def test_hessian_order_of_accuracy():
    # Halving h cuts the max-node error on |z1|^4 by a factor in [3.5, 4.5].
    errs = {}
    for res in (13, 25):
        dom = grid.build_domain(2, "ball:1.2", res)
        u = grid.GridFunction.from_callable(
            dom, lambda p: (p[:, 0] ** 2 + p[:, 1] ** 2) ** 2)
        worst = 0.0
        for idx in np.argwhere(dom.interior_mask)[:: 17]:
            H = grid.complex_hessian(u, tuple(idx))
            pt = dom.coords(tuple(idx))
            exact = 4.0 * (pt[0] ** 2 + pt[1] ** 2)
            worst = max(worst, abs(H[0, 0].real - exact))
        errs[res] = worst
    ratio = errs[13] / errs[25]
    assert 3.5 <= ratio <= 4.5


def test_hessian_hermitian_exactly():
    rng = np.random.default_rng(0)
    dom = grid.build_domain(2, "ball:1.0", 13)
    vals = rng.standard_normal((13,) * 4)
    u = grid.GridFunction(dom, np.where(dom.valued_mask, vals, np.nan))
    for idx in np.argwhere(dom.interior_mask)[:: 211]:
        H = grid.complex_hessian(u, tuple(idx))
        assert np.array_equal(H, H.conj().T)


@pytest.mark.parametrize("n, res, spec", [(1, 33, "perturbed:0.05:cos3"),
                                          (2, 13, "perturbed:0.05:harmonic")])
def test_pointwise_hessian_equals_field_hessian(n, res, spec):
    # One formula: the node-wise complex Hessian, the fields read at the
    # interior nodes or at every node, and taylor_split's linear and
    # quadratic coefficients, are bit-for-bit the whole-box fields of the
    # reference at every node read, on non-quadratic data.  Where a field is
    # NaN (the holomorphic part reads diagonals the Hessian stencil does
    # not) the split is refused.
    dom = grid.build_domain(n, spec, res)
    rng = np.random.default_rng(5)
    vals = np.full((res,) * dom.d, np.nan)
    vals[dom.valued_mask] = rng.standard_normal(int(dom.valued_mask.sum()))
    u = grid.GridFunction(dom, vals)
    f = oracle.hessian_fields(u)
    at = grid.hessian_fields(u, np.flatnonzero(dom.interior_mask.ravel()))
    every = grid.hessian_fields(u, np.arange(vals.size))
    assert at.keys() == every.keys() == f.keys()
    assert all(np.array_equal(at[k], f[k][dom.interior_mask]) for k in f)
    assert all(np.array_equal(every[k], f[k].ravel(), equal_nan=True) for k in f)
    D1, D2 = oracle.diff_fields(vals, dom.h)
    D1 = [D1(a) for a in range(dom.d)]
    D2 = {(a, b): D2(a, b) for a in range(dom.d) for b in range(dom.d)}
    lin = np.stack([2.0 * (0.5 * (D1[2 * i] - 1j * D1[2 * i + 1])) for i in range(n)], -1)
    quad = np.empty(vals.shape + (n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
            quad[..., i, j] = quad[..., j, i] = 0.25 * ((D2[xi, xj] - D2[yi, yj])
                                                        - 1j * (D2[xi, yj] + D2[yi, xj]))
    split = 0
    for idx in map(tuple, np.argwhere(dom.interior_mask)):
        H = grid.complex_hessian(u, idx)
        assert H[0, 0] == f["h11"][idx]
        if n == 2:
            assert H[1, 1] == f["h22"][idx]
            assert H[0, 1] == complex(f["h12re"][idx], f["h12im"][idx])
        if np.isnan(lin[idx]).any() or np.isnan(quad[idx]).any():
            with pytest.raises(StencilViolationError):
                sections.taylor_split(u, idx)
            continue
        h, A = sections.taylor_split(u, idx)
        assert np.array_equal(A, H)
        assert np.all(h.linear == lin[idx])
        assert np.all(h.quad == quad[idx])
        split += 1
    assert split > 0


@pytest.mark.parametrize("node", [(0, 8), (16, 8)])
def test_box_face_node_reads_nan_off_the_box(node):
    # On a 17^2 lattice valued at every node, a node on an x-face of the box
    # reads the whole-box fields: NaN in the x terms, which step off the
    # box, and no read wrapped to the opposite face or past the last node.
    dom = grid.build_domain(1, "ball:1.0", 17)
    u = grid.GridFunction(dom, np.sum(dom.coords() ** 3, axis=1).reshape((17, 17)))
    flat = [np.ravel_multi_index(node, (17, 17))]
    got = grid.hessian_fields(u, flat)
    want = oracle.hessian_fields(u)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k][node][None], equal_nan=True) for k in want)
    assert np.isnan(got["h11"][0])
    D1, D2 = grid.node_differences(u.values, flat, dom.h)
    W1, W2 = oracle.diff_fields(u.values, dom.h)
    assert np.isnan(D1(0)[0]) and np.isnan(D2(0, 0)[0]) and np.isnan(D2(0, 1)[0])
    assert D1(1)[0] == W1(1)[node] and D2(1, 1)[0] == W2(1, 1)[node]
    assert np.isfinite(D2(1, 1)[0])


def _face_node_sets(shape, inner):
    """Node sets of a box of this shape: the clear set `inner`, and for each
    face one that adds a node on it."""
    out = [inner]
    for a, s in enumerate(shape):
        for i in (0, s - 1):
            node = [s // 2] * len(shape)
            node[a] = i
            out.append(np.append(inner, np.ravel_multi_index(node, shape)))
    return out


@pytest.mark.parametrize("shape", [(17, 17), (9, 8, 9, 10)])
def test_node_lookup_branches_on_the_box_faces(shape):
    # A node set takes the flat gather exactly when the inner core of the
    # box holds it, and every read equals the NaN-padded box's; small sets
    # are judged by their indices, the whole core and more by the core mask.
    values = np.random.default_rng(3).standard_normal(shape)
    core = np.zeros(shape, dtype=bool)
    core[(slice(1, -1),) * len(shape)] = True
    small = np.ravel_multi_index(([1, 2],) * len(shape), shape)
    sets = _face_node_sets(shape, small) + _face_node_sets(shape, np.flatnonzero(core))
    clear = [core.ravel()[nodes].all() for nodes in sets]
    assert clear == ([True] + [False] * 2 * len(shape)) * 2
    for nodes in sets:
        at = grid.node_lookup(values, nodes)
        # The flat gather is the lambda; the clipped reads are named `at`.
        assert (at.__name__ == "<lambda>") == core.ravel()[nodes].all()
        idx = np.unravel_index(nodes, shape)
        for off in grid.lattice_offsets(len(shape), [(0, 1)]):
            want = oracle.shifted(values, off)[idx]
            assert np.array_equal(at(off), want, equal_nan=True)


def test_one_node_lookup_allocates_nothing_box_sized():
    values = np.zeros((33,) * 4)
    node = np.ravel_multi_index((5, 10, 8, 7), values.shape)
    tracemalloc.start()
    try:
        at = grid.node_lookup(values, node)
        at((1, 0, 0, -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_taylor_split_on_the_high_box_face_is_refused():
    # A disk crossing the high x-face of the box: valued nodes on that face
    # have their outward neighbor off the box, where the stencil reads NaN.
    axes = [np.linspace(-1.3, 1.3, 17)] * 2
    X, Y = np.meshgrid(*axes, indexing="ij")
    dom = grid.lattice_domain(1, 1.3, (X - 1.0) ** 2 + Y ** 2 - 0.36)
    u = grid.GridFunction.from_callable(dom, lambda p: np.sum(p ** 2, axis=1))
    face = np.argwhere(dom.valued_mask[-1])
    assert face.size
    with pytest.raises(StencilViolationError):
        sections.taylor_split(u, (16, int(face[0, 0])))


def test_stencil_violation_raises():
    dom = grid.build_domain(1, "ball:1.0", 33)
    u = grid.GridFunction.constant(dom, 1.0)
    bidx = tuple(np.argwhere(dom.boundary_mask)[0])
    with pytest.raises(StencilViolationError):
        grid.complex_hessian(u, bidx)


# -- persistence ---------------------------------------------------------------


def test_csv_and_cache_roundtrip(tmp_path):
    dom = grid.build_domain(1, "ball:1.0", 17)
    u = grid.GridFunction.from_callable(dom, lambda p: np.sum(p ** 2, axis=1))
    cache = tmp_path / "u.bin"
    u.write_cache(cache)
    n, res, h, vals = grid.read_cache(cache)
    assert (n, res) == (1, 17)
    assert h == pytest.approx(dom.h)
    mask = dom.valued_mask
    assert np.allclose(vals[mask], u.values[mask])
    assert np.all(np.isnan(vals[~mask]))

    csvp = tmp_path / "u.csv"
    u.write_csv(csvp)
    lines = csvp.read_text().strip().splitlines()
    assert lines[0] == "index,c0,c1,value"
    assert len(lines) == 1 + int(mask.sum())


def test_cache_magic_guard(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        grid.read_cache(bad)


# -- interpolation -------------------------------------------------------------


@pytest.mark.parametrize("d, res", [(2, 65), (4, 13), (4, 33)])
def test_flat_gather_interpolation_matches_index_tuples(d, res):
    # Random values with NaN holes, at random points in and off the box and
    # on its high face and corner: bit for bit the index-tuple gather.
    rng = np.random.default_rng(d * 100 + res)
    axes = [np.linspace(-1.3, 1.3, res)] * d
    values = rng.standard_normal((res,) * d)
    values[rng.random(values.shape) < 0.05] = np.nan
    pts = rng.uniform(-1.5, 1.5, size=(4000, d))
    pts[:200, rng.integers(d)] = 1.3
    pts[200:210] = 1.3
    got = grid.interp_multilinear(axes, values, pts)
    ref = oracle.interp_by_index(axes, values, pts)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.isfinite(ref[:200]).any()
    assert np.isnan(ref).any() and np.isfinite(ref).any()


# -- lattice morphology -----------------------------------------------------------


@st.composite
def _masks_and_seeds(draw):
    """A random mask of d = 2, 3 or 4 axes of 1 to 9 - d nodes, and a node
    of its box, on the mask or off it."""
    d = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(1, 9 - d)) for _ in range(d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random(shape) < draw(st.floats(0.0, 1.0))
    return mask, tuple(draw(st.integers(0, s - 1)) for s in shape)


@given(case=_masks_and_seeds())
@example(case=(np.zeros((4, 3), dtype=bool), (1, 2)))
@example(case=(np.array([[[True, False, True, True]]]), (0, 0, 1)))
@example(case=(np.ones((1, 5, 1, 2), dtype=bool), (0, 3, 0, 1)))
@settings(max_examples=150, deadline=None)
def test_lattice_morphology_matches_ndimage(case):
    # grow is binary_dilation by the face (rank 1) or Moore (rank d)
    # structure; component is the face-structure label through the seed.
    # ndimage labels off-mask nodes 0, so a seed off the mask would select
    # the complement; the component is empty there.
    mask, seed = case
    d = mask.ndim
    for diagonal, rank in ((False, 1), (True, d)):
        ref = ndimage.binary_dilation(mask, structure=ndimage.generate_binary_structure(d, rank))
        assert np.array_equal(grid.grow(mask, diagonal=diagonal), ref)
    labels, _ = ndimage.label(mask, structure=ndimage.generate_binary_structure(d, 1))
    ref = (labels == labels[seed]) & mask
    got = grid.component(mask, seed)
    assert got.shape == mask.shape and got.dtype == bool
    assert np.array_equal(got, ref)
