"""Taylor splitting, ellipsoid normalization, sections and chains."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from cmalab import cli, grid, sections, solver
from cmalab.errors import LinearSolveError, SectionEscapeError
from cmalab.grid import GridFunction


# -- taylor_split ---------------------------------------------------------------


def test_taylor_split_squared_modulus():
    dom = grid.build_domain(1, "ball:1.0", 65)
    v = GridFunction.from_callable(dom, lambda p: np.sum(p ** 2, axis=1))
    x0 = dom.node_index((0.25, -0.375))
    h, A = sections.taylor_split(v, x0)
    x0c = sections._complex_center(dom, x0)
    assert np.allclose(h.linear, 2.0 * np.conj(x0c), atol=1e-10)
    assert np.allclose(h.quad, 0.0, atol=1e-10)
    assert np.allclose(A, np.eye(1), atol=1e-10)


def test_taylor_split_pluriharmonic_reproduced():
    dom = grid.build_domain(1, "ball:1.0", 65)
    v = GridFunction.from_callable(dom, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    x0 = dom.node_index((0.0, 0.0))
    h, A = sections.taylor_split(v, x0)
    assert np.allclose(h.linear, 0.0, atol=1e-12)
    assert np.allclose(h.quad, [[1.0]], atol=1e-10)
    assert np.allclose(A, 0.0, atol=1e-12)
    pts = dom.coords(dom.interior_mask.ravel())
    assert np.allclose(h.evaluate(pts), pts[:, 0] ** 2 - pts[:, 1] ** 2, atol=1e-10)


def test_taylor_split_sum_case():
    dom = grid.build_domain(1, "ball:1.0", 65)
    v = GridFunction.from_callable(
        dom, lambda p: np.sum(p ** 2, axis=1) + p[:, 0] ** 2 - p[:, 1] ** 2)
    x0 = dom.node_index((0.0, 0.0))
    h, A = sections.taylor_split(v, x0)
    assert np.allclose(h.linear, 0.0, atol=1e-12)
    assert np.allclose(h.quad, [[1.0]], atol=1e-10)
    assert np.allclose(A, np.eye(1), atol=1e-10)


def test_taylor_remainder_is_cubic():
    dom = grid.build_domain(1, "ball:1.0", 129)
    v = GridFunction.from_callable(dom, lambda p: np.exp(0.3 * p[:, 0]) + np.sum(p ** 2, axis=1))
    x0 = dom.node_index((0.1, 0.2))
    x0_pt = dom.coords(x0)
    h, A = sections.taylor_split(v, x0)
    for rad in (0.05, 0.1):
        pts = x0_pt + rad * np.array([[1.0, 0.0], [0.0, 1.0], [-0.7, 0.7]])
        w = pts[:, 0::2] + 1j * pts[:, 1::2] - sections._complex_center(dom, x0)
        rem = (v.interp(pts) - float(v.values[x0]) - h.evaluate(pts)
               - np.einsum("mi,ij,mj->m", w.conj(), A, w).real)
        # remainder O(rad^3) + interpolation O(h^2)
        assert np.max(np.abs(rem)) <= 2.0 * rad ** 3 + 5 * dom.h ** 2


def test_shift_has_zero_complex_hessian_on_grid():
    dom = grid.build_domain(2, "ball:1.0", 13)
    rng = np.random.default_rng(5)
    l = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    poly = sections.PluriharmonicPoly(np.zeros(2, complex), l, b)
    gf = GridFunction.from_callable(dom, poly.evaluate)
    H = grid.complex_hessian(gf, dom.node_index((0.0,) * 4))
    assert np.allclose(H, 0.0, atol=1e-10)
    assert poly.evaluate(np.zeros((1, 4)))[0] == pytest.approx(0.0, abs=1e-14)


# -- normalize_transform -----------------------------------------------------------


def test_normalize_identity():
    T = sections.normalize_transform(np.eye(2))
    assert np.allclose(T, np.eye(2))


def test_normalize_diagonal_eigen_bounds():
    A = np.diag([4.0, 0.25])
    T = sections.normalize_transform(A)
    assert np.allclose(T, np.diag([0.5, 2.0]))
    lam = np.array([4.0, 0.25])
    assert np.linalg.norm(T - np.eye(2), 2) == pytest.approx(np.max(np.abs(lam ** -0.5 - 1)))
    T_inv = np.linalg.inv(T)
    assert np.linalg.norm(T_inv - np.eye(2), 2) == pytest.approx(
        np.max(np.abs(lam ** 0.5 - 1)))
    assert abs(np.linalg.det(T)) == pytest.approx(1.0, abs=1e-12)


def test_normalize_monte_carlo_membership_oracle():
    # 1000 sampled sphere points must land on the ellipsoid shell.
    rng = np.random.default_rng(2)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(X)
    A = U @ np.diag([2.0, 0.5]) @ U.conj().T
    T = sections.normalize_transform(A)
    r = 0.37
    z = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
    z = r * z / np.linalg.norm(z, axis=1)[:, None]
    w = z @ T.T
    q = np.einsum("mi,ij,mj->m", w.conj(), A, w).real
    assert np.max(np.abs(q - r * r)) < 1e-10


def test_normalize_rejects_nonpd():
    from cmalab.errors import DegenerateHessianError
    with pytest.raises(DegenerateHessianError):
        sections.normalize_transform(np.diag([1.0, -1.0]))


# -- mu0 -------------------------------------------------------------------------


def test_mu0_paper_arithmetic():
    assert sections.mu0_from_sigma(0.2) == pytest.approx(3.704e-6, rel=1e-3)
    # formal sigma = 1 - eps: cap not binding
    val = sections.mu0_from_sigma(0.999999)
    assert val == pytest.approx((0.05 / (3 ** 1.5)) ** 2, rel=1e-4)
    assert val < 0.009


@given(s=st.floats(0.01, 0.9), t=st.floats(0.01, 0.9))
@settings(max_examples=30, deadline=None)
def test_mu0_monotone_in_sigma(s, t):
    lo, hi = sorted((s, t))
    assert sections.mu0_from_sigma(lo) <= sections.mu0_from_sigma(hi)


# -- build_section / fit_ellipsoid ------------------------------------------------


def test_section_of_quadratic_is_lattice_ball(ball_n1):
    dom, u, _ = ball_n1
    x0 = dom.node_index((0.2, 0.1))
    h, A = sections.taylor_split(u, x0)
    mu = 0.04
    sec = sections.build_section(u, x0, mu, h)
    pts = dom.coords()
    ball = (np.linalg.norm(pts - dom.coords(x0), axis=1) <= math.sqrt(mu) + 1e-12)
    ball = ball.reshape(sec.mask.shape) & dom.interior_mask
    sym = np.logical_xor(sec.mask, ball).sum()
    assert sym <= 0.02 * ball.sum()


def test_section_with_ripple_close_to_ball(ball_n1):
    dom, u, _ = ball_n1
    pts = dom.coords()
    ripple = 0.001 * np.sin(40 * pts[:, 0]) * np.cos(40 * pts[:, 1])
    u2 = GridFunction(dom, u.values + ripple.reshape(u.values.shape))
    x0 = dom.node_index((0.0, 0.0))
    h, _ = sections.taylor_split(u, x0)
    mu = 0.01
    sec = sections.build_section(u2, x0, mu, h)
    ball = (np.linalg.norm(pts - dom.coords(x0), axis=1) <= math.sqrt(mu))
    ball = ball.reshape(sec.mask.shape) & dom.interior_mask
    sym = np.logical_xor(sec.mask, ball).sum()
    assert sym <= 0.15 * ball.sum()


def test_section_escape_raises(ball_n1):
    dom, u, _ = ball_n1
    x0 = dom.node_index((0.7, 0.0))
    h, _ = sections.taylor_split(u, x0)
    with pytest.raises(SectionEscapeError):
        sections.build_section(u, x0, 0.5, h)


def test_section_base_outside_its_component_raises(ball_n1):
    # The component through x0 exists only when x0 is an interior node of
    # its own sublevel set; otherwise the labelling has no component to
    # pick, and label 0 would select the complement.
    dom, u, _ = ball_n1
    x0 = dom.node_index((0.2, 0.0))
    h, _ = sections.taylor_split(u, x0)
    b = tuple(int(i) for i in np.argwhere(dom.boundary_mask)[0])
    with pytest.raises(ValueError, match="not interior"):
        sections.build_section(u, b, 0.04, h)
    # h(x0) = -0.2 < -mu: a shift centred at the origin, not at x0.
    off = sections.PluriharmonicPoly(np.zeros(1), -np.ones(1), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="outside its section"):
        sections.build_section(u, x0, 0.04, off)


def test_fit_ellipsoid_ball_window(ball_n1):
    dom, u, _ = ball_n1
    x0 = dom.node_index((0.0, 0.0))
    h, A = sections.taylor_split(u, x0)
    mu = 0.04
    sec = sections.build_section(u, x0, mu, h)
    c_in, c_out = sections.fit_ellipsoid(dom, sec, sections.unit_determinant(A))
    slack = 2.0 * dom.h / math.sqrt(mu)
    assert 1.0 - slack <= c_in <= 1.0 + slack
    assert 1.0 - slack <= c_out <= 1.0 + slack


def test_fit_ellipsoid_square_aspect():
    # A lattice square against the round form: c_out/c_in = sqrt(2).
    dom = grid.build_domain(1, "ball:1.0", 129)
    x0 = dom.node_index((0.0, 0.0))
    pts = dom.coords()
    side = 0.2
    square = ((np.abs(pts[:, 0]) <= side) & (np.abs(pts[:, 1]) <= side))
    square = square.reshape(dom.interior_mask.shape) & dom.interior_mask
    sec = sections.Section.from_mask(dom, x0, square, side ** 2)
    c_in, c_out = sections.fit_ellipsoid(dom, sec, np.eye(1))
    assert c_out / c_in == pytest.approx(math.sqrt(2.0), rel=3 * dom.h / side)


# -- windowed section and fit against the full box ---------------------------


@pytest.fixture(scope="module", params=[1, 2], ids=["n1-res65", "n2-res17"])
def level_one(request):
    """A solved instance: n = 1 at res 65, n = 2 at res 17."""
    if request.param == 1:
        dom = grid.build_domain(1, "perturbed:0.05:cos3", 65)
        u, _ = solver.solve_dirichlet(dom, 1.0, 0.0)
        return dom, u
    dom, u, _ = request.getfixturevalue("perturbed_n2")
    return dom, u


def _node(dom, *lead):
    """The node nearest to the point whose leading coordinates are lead."""
    return dom.node_index(np.array(lead + (0.0,) * (dom.d - len(lead))))


def _split_at(u, x0):
    h, A = sections.taylor_split(u, x0)
    return h, sections.unit_determinant(A)


def _matches_full_box(u, x0, mu, h, A):
    """The windowed section and fit equal the full-box ones exactly."""
    sec = sections.build_section(u, x0, mu, h)
    ref = oracle.build_section(u, x0, mu, h)
    assert np.array_equal(sec.mask, ref.mask)
    assert sections.fit_ellipsoid(u.domain, sec, A) == oracle.fit_ellipsoid(u.domain, ref, A)
    return sec


def _first_half_width(dom, mu):
    return math.ceil(1.25 * math.sqrt(mu) / dom.h) + 2


def test_small_section_matches_the_full_box(level_one):
    dom, u = level_one
    x0 = _node(dom, 0.1, -0.05)
    mu = 0.01 if dom.n == 1 else 0.05
    sec = _matches_full_box(u, x0, mu, *_split_at(u, x0))
    assert 1 < sec.node_count() < dom.interior_mask.sum() // 4


def test_sheared_section_doubles_its_window(level_one):
    # Subtracting Re(b sum z_i^2) leaves about (1 - b) x_i^2 + (1 + b) y_i^2:
    # the section reaches sqrt(mu / (1 - b)) along the x axes, past the
    # first window.
    dom, u = level_one
    x0 = _node(dom, 0.0, 0.0)
    mu, b = (0.01, 0.9) if dom.n == 1 else (0.03, 0.95)
    h, A = _split_at(u, x0)
    sheared = sections.PluriharmonicPoly(h.center, h.linear, h.quad + b * np.eye(dom.n))
    sec = _matches_full_box(u, x0, mu, sheared, A)
    reach = np.abs(np.argwhere(sec.mask) - np.array(x0)).max()
    assert reach > _first_half_width(dom, mu)


def test_section_on_a_box_face_matches_the_full_box(level_one):
    # Every node interior: the section runs into the box face, which clips
    # both windows without counting as a window edge.
    dom, _ = level_one
    box = dataclasses.replace(dom, interior_mask=np.ones_like(dom.interior_mask),
                              boundary_mask=np.zeros_like(dom.boundary_mask))
    u = grid.GridFunction.from_callable(box, lambda p: np.sum(p ** 2, axis=1))
    x0 = _node(box, 0.8)
    sec = _matches_full_box(u, x0, 0.08 if dom.n == 1 else 0.1, *_split_at(u, x0))
    assert sec.mask[-1].any()


def test_anisotropic_fit_grows_its_window(perturbed_n2, monkeypatch):
    # q = 2|z_1|^2 + |z_2|^2/2 on its own section: the section's long axis
    # is the small eigenvalue's, so the padded box misses nodes of lower q
    # until the window grows.
    dom, _, _ = perturbed_n2
    u = grid.GridFunction.from_callable(
        dom, lambda p: 2.0 * (p[:, 0] ** 2 + p[:, 1] ** 2) + 0.5 * (p[:, 2] ** 2 + p[:, 3] ** 2))
    A = np.diag([2.0, 0.5]).astype(complex)
    x0 = _node(dom, 0.0)
    sec = _matches_full_box(u, x0, 0.2, sections.PluriharmonicPoly.zero(
        sections._complex_center(dom, x0)), A)
    windows = []
    real = grid.GridDomain.window_coords
    monkeypatch.setattr(grid.GridDomain, "window_coords",
                        lambda d, win: windows.append(win) or real(d, win))
    sections.fit_ellipsoid(dom, sec, A)
    assert len(windows) == 2


def test_escaping_section_raises_like_the_full_box(level_one):
    dom, u = level_one
    x0 = _node(dom, 0.6)
    h, _ = _split_at(u, x0)
    with pytest.raises(SectionEscapeError):
        oracle.build_section(u, x0, 0.3, h)
    with pytest.raises(SectionEscapeError):
        sections.build_section(u, x0, 0.3, h)


# -- rescale_to_unit ---------------------------------------------------------------


def test_rescale_self_similarity(ball_n1):
    dom, u, _ = ball_n1
    x0 = dom.node_index((0.0, 0.0))
    h0 = sections.PluriharmonicPoly.zero(np.zeros(1, complex))
    T = np.eye(1, dtype=complex)
    w = sections.rescale_to_unit(u, x0, 0.25, h0, T, resolution=65, box_halfwidth=1.3)
    pts = w.domain.coords(w.domain.interior_mask.ravel())
    exact = np.sum(pts ** 2, axis=1) - 1.0
    err = np.max(np.abs(w.values[w.domain.interior_mask] - exact))
    assert err <= 5e-3  # interpolation-level agreement with |zeta|^2 - 1


def test_rescale_unit_det_prefactor(ball_n1):
    dom, u, _ = ball_n1
    x0 = dom.node_index((0.0, 0.0))
    h0 = sections.PluriharmonicPoly.zero(np.zeros(1, complex))
    T = np.eye(1, dtype=complex)
    assert abs(np.linalg.det(T)) == 1.0
    mu = 0.25
    w = sections.rescale_to_unit(u, x0, mu, h0, T, resolution=33, box_halfwidth=1.3)
    # prefactor 1/mu: center value is exactly (u(x0) - u(x0) - mu)/mu = -1
    ctr = (33 // 2,) * 2
    assert w.values[ctr] == pytest.approx(-1.0, abs=1e-12)


def test_rescale_det_residual(perturbed_n1):
    # The rescaled function solves det = f(map) within 2x the original solve
    # residual plus interpolation slack.  Differencing interpolated data
    # amplifies interpolation error, so the slack is measured independently
    # by pushing the exact quadratic through the same rescale.
    dom, u, _ = perturbed_n1
    x0 = dom.node_index((0.1, 0.0))
    hh, A = sections.taylor_split(u, x0)
    T = sections.normalize_transform(sections.unit_determinant(A))
    mu = 0.05
    res = 17

    quad = GridFunction.from_callable(dom, lambda p: np.sum(p ** 2, axis=1) - 1.0)
    h0 = sections.PluriharmonicPoly(
        sections._complex_center(dom, x0),
        2.0 * np.conj(sections._complex_center(dom, x0)),
        np.zeros((1, 1), complex))
    w_oracle = sections.rescale_to_unit(quad, x0, mu, h0,
                                        np.eye(1, dtype=complex),
                                        resolution=res, box_halfwidth=1.3)
    det_o = grid.hessian_det_field(grid.hessian_fields(w_oracle))
    slack = float(np.nanmax(np.abs(det_o[w_oracle.domain.interior_mask] - 1.0)))

    w = sections.rescale_to_unit(u, x0, mu, hh, T, resolution=res, box_halfwidth=1.3)
    wdom = w.domain
    det = grid.hessian_det_field(grid.hessian_fields(w))
    pts = wdom.coords()
    p = dom.coords(x0) + sections._apply(T, pts * math.sqrt(mu))
    f_map = 1.0 + 0.01 * np.cos(2 * np.pi * p[:, 0]) * np.cos(2 * np.pi * p[:, 1])
    mask = wdom.interior_mask
    resid = float(np.max(np.abs(det[mask] - f_map.reshape(det.shape)[mask])))
    assert resid <= 2.0 * 1e-8 + 2.0 * slack + 0.01


def test_rescale_vanishes_on_section_image(perturbed_n1):
    dom, u, _ = perturbed_n1
    x0 = dom.node_index((-0.2, 0.15))
    hh, A = sections.taylor_split(u, x0)
    T = sections.normalize_transform(sections.unit_determinant(A))
    w = sections.rescale_to_unit(u, x0, 0.05, hh, T, resolution=65, box_halfwidth=1.3)
    cuts = w.domain.bc_table["cuts"]
    vals = w.interp(cuts)
    assert np.nanmax(np.abs(vals)) <= 0.05


# -- chains -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exact_chain(ball_n1):
    dom, u, _ = ball_n1
    x0 = dom.node_index((0.25, -0.125))
    return dom, u, sections.construct_section_chain(
        u, x0, sigma=0.2, k_max=3, v0=u, chain_resolution=65)


def test_chain_exact_ball_trivial_transforms(exact_chain):
    _, _, chain = exact_chain
    for lv in chain.levels:
        assert lv.transform_deviation <= 1e-9
        assert abs(abs(np.linalg.det(lv.composite_transform)) - 1.0) <= 1e-9


def test_chain_exact_ball_fits(exact_chain):
    dom, _, chain = exact_chain
    sigma = chain.sigma
    for lv in chain.levels:
        h_here = dom.h if lv.k == 1 else 2.6 / 64
        mu_here = chain.mu_top if lv.k == 1 else chain.mu0
        slack = 2.0 * h_here / math.sqrt(mu_here)
        assert 1.0 - 0.1 * sigma - slack <= lv.fit_in
        assert lv.fit_out <= 1.0 + 0.1 * sigma + slack


def test_chain_omega_close_to_ball(exact_chain):
    _, _, chain = exact_chain
    sigma = chain.sigma
    for lv in chain.levels:
        grid_slack = 2 * 2.6 / 64
        assert lv.omega_r_in >= 1.0 - 0.1 * sigma - grid_slack
        assert lv.omega_r_out <= 1.0 + 0.1 * sigma + grid_slack


def test_chain_shift_telescoping(exact_chain):
    # Composite shifts stay pluriharmonic (zero complex Hessian on a grid)
    # and vanish at the base point, at every level.
    dom, u, chain = exact_chain
    x0_pt = dom.coords(chain.center_idx)
    probe = grid.build_domain(1, "ball:1.0", 33)
    for lv in chain.levels:
        shift = lv.composite_shift
        assert abs(shift.evaluate(x0_pt[None, :])[0]) <= 1e-12
        gf = GridFunction.from_callable(probe, shift.evaluate)
        H = grid.complex_hessian(gf, probe.node_index((0.0, 0.0)))
        assert np.allclose(H, 0.0, atol=1e-9)


def test_chain_margin_precondition(ball_n1):
    dom, u, _ = ball_n1
    near = dom.node_index((0.985, 0.0))
    if not dom.interior_mask[near]:
        near = tuple(np.argwhere(dom.interior_mask)[
            np.argmax(np.linalg.norm(dom.coords(dom.interior_mask.ravel()), axis=1))])
    # No room for a first level is a chain failure at level 1.
    chain = sections.construct_section_chain(u, near, sigma=0.2, k_max=1, v0=u,
                                             chain_resolution=49)
    assert chain.levels == []
    assert chain.broken[:2] == (1, "SectionEscapeError")


def test_chain_solves_to_the_given_newton_tol(ball_n1, monkeypatch):
    # The level-2 solve works to solver.NEWTON_TOL: a target below roundoff
    # breaks the chain there, with the solver's failure as the cause.
    dom, u, _ = ball_n1
    monkeypatch.setattr(solver, "NEWTON_TOL", 1e-300)
    chain = sections.construct_section_chain(
        u, dom.node_index((0.25, -0.125)), sigma=0.2, k_max=2,
        v0=u, chain_resolution=33)
    assert len(chain.levels) == 1
    assert chain.broken[:2] == (2, "NonConvergenceError")


@pytest.mark.parametrize("stage, exc, expected", [
    ("solve_dirichlet", LinearSolveError("no convergence", 1.0), "broken"),
    ("solve_dirichlet", TypeError("programming error"), TypeError),
    ("taylor_split", TypeError("programming error"), TypeError),
])
def test_chain_wraps_only_package_failures(ball_n1, monkeypatch, stage, exc, expected):
    # A package failure in a level's solve breaks the chain at that level,
    # recorded with its type and message; a programming error surfaces
    # unchanged.
    dom, u, _ = ball_n1

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(sections, stage, broken)

    def build():
        return sections.construct_section_chain(
            u, dom.node_index((0.25, -0.125)), sigma=0.2, k_max=2, v0=u,
            chain_resolution=33)

    if expected is TypeError:
        with pytest.raises(TypeError, match="programming error"):
            build()
    else:
        assert build().broken == (2, "LinearSolveError", "no convergence")


def test_chain_perturbed_instance(perturbed_n1):
    dom, u, v0 = perturbed_n1
    sigma = 0.2
    chain = sections.construct_section_chain(
        u, dom.node_index((0.3, -0.2)), sigma=sigma, k_max=3, v0=v0,
        chain_resolution=65)
    for lv in chain.levels:
        h_here = dom.h if lv.k == 1 else 2.6 / 64
        mu_here = chain.mu_top if lv.k == 1 else chain.mu0
        slack = 2.0 * h_here / math.sqrt(mu_here)
        assert 1.0 - 0.1 * sigma - slack <= lv.fit_in
        assert lv.fit_out <= 1.0 + 0.1 * sigma + slack
    cprime = max(lv.transform_deviation for lv in chain.levels) / math.sqrt(sigma)
    assert cprime < 1.0
    assert chain.paper_mu0 == pytest.approx(3.704e-6, rel=1e-3)


def test_chain_n2_one_level(perturbed_n2):
    dom, u, v0 = perturbed_n2
    chain = sections.construct_section_chain(
        u, dom.node_index((0.0,) * 4), sigma=0.3, k_max=1, v0=v0,
        chain_resolution=13)
    lv = chain.levels[0]
    assert lv.transform_deviation <= 0.3 ** 0.5  # ||T - I|| <= C' sigma^(1/2)
    assert abs(abs(np.linalg.det(lv.composite_transform)) - 1.0) <= 1e-9


def test_chain_monotonicity_with_slack(perturbed_n1):
    # S_{mu1} subset of S_{(1+c) mu2} for mu1 <= mu2, c = C sigma^(1/2).
    from cmalab.engulfing import inclusion_with_slack
    dom, u, v0 = perturbed_n1
    sigma = 0.2
    chain = sections.construct_section_chain(
        u, dom.node_index((0.0, 0.0)), sigma=sigma, k_max=2, v0=v0,
        chain_resolution=49)
    rng = np.random.default_rng(3)
    c = 1.0 * math.sqrt(sigma)
    lo = chain.height_of_level(2) * 1.05
    hi = chain.mu_top / (1 + c)
    checked = 0
    for _ in range(40):
        mu1, mu2 = np.sort(rng.uniform(lo, hi, size=2))
        if math.sqrt(mu1) < 2.5 * dom.h:
            continue
        s1 = chain.section(u, float(mu1))
        s2 = chain.section(u, float((1 + c) * mu2))
        assert inclusion_with_slack(s1.mask, s2.mask)
        checked += 1
    assert checked >= 20


def test_chain_transform_growth_log_linear(perturbed_n1):
    # log ||T_{mu1} T_{mu2}^{-1}|| <= a + b log(mu2/mu1) with small fitted b.
    dom, u, v0 = perturbed_n1
    chain = sections.construct_section_chain(
        u, dom.node_index((0.1, 0.1)), sigma=0.2, k_max=3, v0=v0,
        chain_resolution=49)
    xs, ys = [], []
    for ka in range(len(chain.levels)):
        for kb in range(ka + 1, len(chain.levels)):
            Ta = chain.levels[ka].composite_transform
            Tb = chain.levels[kb].composite_transform
            norm = np.linalg.norm(np.linalg.inv(Ta) @ Tb, 2)
            xs.append(math.log(chain.height_of_level(ka + 1)
                               / chain.height_of_level(kb + 1)))
            ys.append(math.log(norm))
    b, a = np.polyfit(xs, ys, 1)
    assert abs(b) <= 1.0 * math.sqrt(0.2) / abs(math.log(0.1 * 0.2))
    assert ys == pytest.approx([0.0] * len(ys), abs=1e-6)  # n=1: all identities


def test_chain_diameter_decay(perturbed_n1):
    dom, u, v0 = perturbed_n1
    chain = sections.construct_section_chain(
        u, dom.node_index((0.0, 0.0)), sigma=0.2, k_max=3, v0=v0,
        chain_resolution=49)
    diams = []
    for k in range(1, 3):
        mu = chain.height_of_level(k)
        sec = chain.section(u, mu)
        pts = dom.coords(sec.mask.ravel())
        diams.append(float(np.max(np.linalg.norm(pts - dom.coords(chain.center_idx), axis=1))))
    assert diams[1] <= diams[0] + dom.h


def test_chain_composite_consistency(perturbed_n1):
    # The accumulated transform and shift must reproduce the level-2
    # normalized picture: w2(zeta) = (u - H2 - u(x0) - mu2)(x0 + T2(sqrt(mu2) zeta)) / mu2
    # holds on the level-2 grid up to interpolation noise.
    dom, u, v0 = perturbed_n1
    x0 = dom.node_index((0.2, -0.1))
    chain = sections.construct_section_chain(
        u, x0, sigma=0.2, k_max=2, v0=v0, chain_resolution=49)

    # rebuild w2 by replaying the per-level rescales
    lv1, lv2 = chain.levels
    w1 = sections.rescale_to_unit(u, x0, chain.mu_top, lv1.shift_increment,
                                  lv1.transform, resolution=49, box_halfwidth=1.3)
    c = (49 // 2,) * 2
    w2 = sections.rescale_to_unit(w1, c, chain.mu0, lv2.shift_increment,
                                  lv2.transform, resolution=49, box_halfwidth=1.3)

    mu2 = chain.height_of_level(2)
    T2 = lv2.composite_transform
    H2 = lv2.composite_shift
    x0_pt = dom.coords(x0)
    u0 = float(u.values[x0])
    mask = w2.domain.interior_mask
    zeta = w2.domain.coords(mask.ravel())
    z = x0_pt + sections._apply(T2, zeta * math.sqrt(mu2))
    direct = (u.interp(z) - H2.evaluate(z) - u0 - mu2) / mu2
    diff = np.abs(direct - w2.values[mask])
    assert np.nanmax(diff) <= 0.05  # interpolation noise only


@pytest.mark.parametrize(
    "base", [(8, 8, 8, 8), (5, 10, 8, 7), (8, 11, 8, 7), (6, 8, 8, 11)],
    ids=["origin", "5-10-8-7", "8-11-8-7", "6-8-8-11"])
def test_chain_transform_growth_n2(perturbed_n2, base):
    # n = 2 transforms are nontrivial; deviations stay within C' sigma^(1/2)
    # and composites keep unit determinant.  The off-origin base points give
    # level-2 domains whose boundary constraints would lean on boundary nodes
    # if supports were not restricted to the interior.
    _, u, v0 = perturbed_n2
    sigma = 0.3
    chain = sections.construct_section_chain(
        u, base, sigma=sigma, k_max=2, v0=v0, chain_resolution=13)
    assert len(chain.levels) == 2
    for lv in chain.levels:
        assert lv.transform_deviation <= 1.5 * math.sqrt(sigma)
        assert abs(abs(np.linalg.det(lv.composite_transform)) - 1.0) <= 1e-8
    T1 = chain.levels[0].composite_transform
    T2 = chain.levels[1].composite_transform
    growth = np.linalg.norm(np.linalg.inv(T1) @ T2, 2)
    assert growth <= 1.0 + 1.5 * math.sqrt(sigma)


def test_grid_function_finite_invariant(ball_n1):
    dom, u, _ = ball_n1
    assert np.all(np.isfinite(u.values[dom.valued_mask]))


def test_chain_serialization_roundtrip(exact_chain):
    _, _, chain = exact_chain
    d = chain.to_dict()
    assert len(d["levels"]) == 3
    lv = d["levels"][0]
    assert len(lv["transform"]) == 2 * chain.domain.n ** 2
    assert "fit" in lv and "omega_radii" in lv and "composite_shift" in lv
    assert "broken" not in d


def test_chain_from_dict_cuts_the_written_sections(perturbed_n1, tmp_path):
    # A chain read back from its JSON artifact is the chain that was written:
    # same artifact bytes and the same section masks at every height.
    dom, u, v0 = perturbed_n1
    chain = sections.construct_section_chain(
        u, dom.node_index((0.2, -0.1)), sigma=0.2, k_max=2, v0=v0,
        chain_resolution=33)
    path = tmp_path / "chains.json"
    cli.write_json(path, [chain.to_dict()])
    back = sections.SectionChain.from_dict(json.loads(path.read_text())[0], dom)
    cli.write_json(tmp_path / "again.json", [back.to_dict()])
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert back.center_idx == chain.center_idx
    mu2 = chain.height_of_level(2)
    for mu in (chain.mu_top, 0.5 * (chain.mu_top + mu2), mu2, 0.5 * mu2):
        assert np.array_equal(back.section(u, mu).mask, chain.section(u, mu).mask)


def test_broken_chain_from_dict_keeps_its_break(ball_n1, monkeypatch, tmp_path):
    # A chain broken at level 2 writes its break beside the level it built,
    # and reads both back.
    dom, u, _ = ball_n1
    monkeypatch.setattr(solver, "NEWTON_TOL", 1e-300)
    chain = sections.construct_section_chain(
        u, dom.node_index((0.25, -0.125)), sigma=0.2, k_max=2, v0=u, chain_resolution=33)
    path = tmp_path / "chains.json"
    cli.write_json(path, [chain.to_dict()])
    data = json.loads(path.read_text())[0]
    assert data["broken"] == list(chain.broken)
    back = sections.SectionChain.from_dict(data, dom)
    assert back.broken == chain.broken
    assert len(back.levels) == 1
    assert np.array_equal(back.section(u, chain.mu_top).mask,
                          chain.section(u, chain.mu_top).mask)
