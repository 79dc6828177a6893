"""Norm accounting: quadrature, dyadic bounds, classical-constant ratios."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmalab import badset, grid, solver, w2p
from cmalab.grid import GridFunction
import oracle


def region_ball(dom, radius):
    pts = dom.coords()
    r = np.linalg.norm(pts, axis=1).reshape(dom.interior_mask.shape)
    return (r <= radius) & dom.interior_mask


def test_lp_norm_constant_field():
    dom = grid.build_domain(1, "ball:1.0", 65)
    region = region_ball(dom, 0.5)
    vals = np.full(dom.interior_mask.shape, 3.0)
    m = float(region.sum()) * dom.h ** 2
    got = w2p.lp_norm(vals[region], 2.0, dom.h, 2)
    assert got == pytest.approx(3.0 * m ** 0.5, rel=1e-12)
    got1 = w2p.lp_norm(vals[region], 1.0, dom.h, 2)
    assert got1 == pytest.approx(3.0 * m, rel=1e-12)


def test_lp_norm_laplacian_closed_form(ball_n1):
    # Real Laplacian of |z|^2 is 4; integral of its square over B_1/2 is
    # 16 pi/4 = 4 pi, so the norm is about 3.5449.
    dom, u, _ = ball_n1
    region = region_ball(dom, 0.5)
    lap = 4.0 * w2p.complex_trace_field(grid.hessian_fields(u, np.flatnonzero(region)))
    got = w2p.lp_norm(lap, 2.0, dom.h, 2)
    assert got == pytest.approx(math.sqrt(4.0 * math.pi), rel=0.01)
    assert got == pytest.approx(3.5449, rel=0.01)


def test_lp_norm_refinement_stability():
    vals = {}
    for res in (65, 129):
        dom = grid.build_domain(1, "ball:1.0", res)
        u, _ = solver.solve_dirichlet(dom, 1.0, 0.0)
        region = region_ball(dom, 0.5)
        lap = 4.0 * w2p.complex_trace_field(grid.hessian_fields(u, np.flatnonzero(region)))
        vals[res] = w2p.lp_norm(lap, 2.0, dom.h, 2)
    assert abs(vals[65] - vals[129]) / vals[129] < 0.01


@given(p_pair=st.tuples(st.floats(1.0, 6.0), st.floats(1.0, 6.0)))
@settings(max_examples=20, deadline=None)
def test_lp_norm_holder_monotone(p_pair):
    p1, p2 = sorted(p_pair)
    dom = grid.build_domain(1, "ball:1.0", 33)
    region = region_ball(dom, 0.6)
    rng = np.random.default_rng(0)
    vals = np.abs(rng.standard_normal(dom.interior_mask.shape)) + 0.1
    m = float(region.sum()) * dom.h ** 2
    n1 = w2p.lp_norm(vals[region], p1, dom.h, 2) / m ** (1.0 / p1)
    n2 = w2p.lp_norm(vals[region], p2, dom.h, 2) / m ** (1.0 / p2)
    assert n1 <= n2 * (1 + 1e-12)


def test_trace_am_hm_inequality(perturbed_n2):
    # tr(A) tr(A^{-1}) >= n^2 node-wise for the complex Hessian.
    dom, u, _ = perturbed_n2
    fields = grid.hessian_fields(u, np.flatnonzero(dom.interior_mask))
    tr = w2p.complex_trace_field(fields)
    itr = w2p.inverse_trace_field(fields)
    assert not np.isnan(tr).any() and not np.isnan(itr).any()
    assert np.all(tr * itr >= dom.n ** 2 - 1e-9)


# -- eps_bar and dyadic bounds -----------------------------------------------------


def test_eps_bar_recipe_values():
    assert w2p.eps_bar_recipe(2.0, 1) == pytest.approx(1.0 / 288.0)
    ratio = 10.0 ** 0 * 12 ** 2 * w2p.eps_bar_recipe(2.0, 1)
    assert ratio == pytest.approx(0.5)


@pytest.fixture(scope="module")
def exact_report():
    dom = grid.build_domain(1, "ball:1.0", 65)
    u, _ = solver.solve_dirichlet(dom, 1.0, 0.0)
    ns = badset.sample_badset_chains(u, u, stride=4, levels=2, chain_resolution=33)
    eps_bar = w2p.eps_bar_recipe(2.0, 1)
    rep = badset.badset_decay_experiment(u, ns, eps_bar, k_max=4, stride=4)
    return dom, u, rep


def test_dyadic_bound_empty_badsets_is_base_only(exact_report):
    _, _, rep = exact_report
    out = w2p.dyadic_bound(rep, 2.0, kind="trace")
    assert out.tail == 0.0
    assert sum(out.series_terms) == 0.0
    assert out.total == pytest.approx(out.base)
    assert out.flag == "tail closed by empty final level"


def test_dyadic_bound_ratio_arithmetic(exact_report):
    # With the recipe threshold the ratio is exactly 1/2; the smaller
    # threshold 3.472e-4 gives ratio about 0.05 and a convergent tail with
    # closure factor at most 2x the next term.
    _, u, rep = exact_report
    out_half = w2p.dyadic_bound(rep, 2.0, kind="trace")
    assert out_half.ratio == pytest.approx(0.5)

    rep_small = badset.BadSetReport(
        rows=rep.rows, eps_bar=3.472e-4, n=rep.n, cell_measure=rep.cell_measure,
        m_b07=rep.m_b07, m_b06=rep.m_b06, monotone=rep.monotone, stride=rep.stride)
    out_small = w2p.dyadic_bound(rep_small, 2.0, kind="trace")
    assert out_small.ratio == pytest.approx(144 * 3.472e-4, rel=1e-9)
    assert out_small.ratio <= 0.5


def test_dyadic_bound_tail_invariant_under_empty_refinement(exact_report):
    # Adding further empty levels does not change the bound.
    _, u, rep = exact_report
    rows6 = list(rep.rows)
    k = rows6[-1].k
    for extra in (1, 2):
        last = rows6[-1]
        rows6.append(badset.BadSetRow(
            k + extra, last.r_k, 0.0, 0.0, last.bound * 0.5, 0.0, True, True))
    rep6 = badset.BadSetReport(
        rows=rows6, eps_bar=rep.eps_bar, n=rep.n, cell_measure=rep.cell_measure,
        m_b07=rep.m_b07, m_b06=rep.m_b06, monotone=True, stride=rep.stride)
    out4 = w2p.dyadic_bound(rep, 2.0, kind="trace")
    out6 = w2p.dyadic_bound(rep6, 2.0, kind="trace")
    assert out6.total == pytest.approx(out4.total)


def test_dyadic_flags_invalid_tail_on_failed_rows(exact_report):
    _, _, rep = exact_report
    bad_rows = [badset.BadSetRow(1, 0.65, 1.0, 1.0, 0.5, 2.0, False, False)]
    rep_bad = badset.BadSetReport(
        rows=bad_rows, eps_bar=rep.eps_bar, n=rep.n, cell_measure=rep.cell_measure,
        m_b07=rep.m_b07, m_b06=rep.m_b06, monotone=True, stride=rep.stride)
    out = w2p.dyadic_bound(rep_bad, 2.0, kind="trace")
    assert not out.tail_valid
    assert "invalid" in out.flag


def test_norm_report_domination(exact_report):
    dom, u, rep = exact_report
    nr = w2p.norm_report(u, rep, 2.0)
    assert nr.dominated
    assert nr.direct_trace <= nr.dyadic_trace.total
    assert nr.direct_inverse_trace <= nr.dyadic_inverse_trace.total
    d = nr.to_dict()
    assert "dyadic_trace" in d and d["p"] == 2.0


# -- full W^{2,p} -----------------------------------------------------------------


def test_full_w2p_quadratic_closed_form(ball_n1):
    dom, u, _ = ball_n1
    region = region_ball(dom, 0.5)
    full, ratio = w2p.full_w2p(u, 2.0, region)
    R = 0.5
    m = math.pi * R ** 2
    # second derivatives: xx = yy = 2, xy = 0
    second = 2.0 * 2.0 * math.sqrt(m)
    # gradient components 2x, 2y: each has squared integral pi R^4
    gradn = 2.0 * math.sqrt(math.pi * R ** 4)
    # u = r^2 - 1: integral of (r^2-1)^2 over B_R in closed form
    u2 = math.pi * (R ** 6 / 3 - R ** 4 + R ** 2)
    expected = second + gradn + math.sqrt(u2)
    assert full == pytest.approx(expected, rel=0.02)
    lap = 4.0 * math.sqrt(m)
    assert ratio == pytest.approx(expected / (math.sqrt(u2) + lap), rel=0.02)


def test_full_w2p_harmonic_has_nonzero_hessian():
    # Re(z^2): zero Laplacian but a full Hessian; the classical-estimate
    # ratio stays finite only because of the zeroth-order term.
    dom = grid.build_domain(1, "ball:1.0", 65)
    u = GridFunction.from_callable(dom, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    region = region_ball(dom, 0.5)
    full, ratio = w2p.full_w2p(u, 2.0, region)
    assert full > 1.0
    assert np.isfinite(ratio)
    assert ratio > 5.0  # the Laplacian term vanishes


def test_full_w2p_refinement_stability():
    vals = {}
    for res in (65, 129):
        dom = grid.build_domain(1, "perturbed:0.05:cos3", res)
        f = lambda p: 1.0 + 0.01 * np.cos(2 * np.pi * np.atleast_2d(p)[:, 0])
        u, _ = solver.solve_dirichlet(dom, f, 0.0)
        region = region_ball(dom, 0.5)
        vals[res], _ = w2p.full_w2p(u, 2.0, region)
    assert abs(vals[65] - vals[129]) / vals[129] < 0.05


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_norms_match_the_whole_box_reference(perturbed_n1, perturbed_n2, p):
    # Read at the region's nodes, every norm is the whole-box one bit for bit.
    for dom, u, v0 in (perturbed_n1, perturbed_n2):
        for w in (u, v0):
            region = region_ball(dom, 0.6)
            assert w2p.full_w2p(w, p, region) == oracle.full_w2p(w, p, region)
            report = badset.BadSetReport(rows=[], eps_bar=w2p.eps_bar_recipe(p, dom.n),
                                         n=dom.n, cell_measure=dom.h ** dom.d,
                                         m_b07=1.0, m_b06=1.0, monotone=True, stride=1)
            nr = w2p.norm_report(w, report, p)
            assert (nr.direct_trace, nr.direct_inverse_trace) == oracle.direct_norms(w, p)
            assert (nr.full_w2p, nr.classical_ratio) == oracle.full_w2p(
                w, p, region_ball(dom, badset.DYADIC_RADIUS))


def test_node_set_reads_stay_small_at_n2():
    # At n = 2 res 25 one float field over the box is 3 MiB.  The W^{2,p}
    # reads stay on the region's nodes: measured peaks 1.3 MiB for
    # full_w2p, where whole-box fields took 12.7 MiB.
    dom = grid.build_domain(2, "perturbed:0.05:harmonic", 25)
    u = GridFunction.from_callable(
        dom, lambda p: np.sum(p ** 2, axis=1) + 0.1 * p[:, 0] ** 3 + 0.05 * p[:, 1] * p[:, 2])
    region = region_ball(dom, 0.6)
    nodes = np.flatnonzero(region)
    peaks = []
    tracemalloc.start()
    try:
        for read in (lambda: w2p.full_w2p(u, 2.0, region),
                     lambda: grid.hessian_fields(u, nodes)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            read()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert nodes.size > 5000
    assert max(peaks) < 4 << 20, peaks


@pytest.mark.parametrize("n, shape, res", [
    (1, "ball:1.0", 65), (1, "perturbed:0.05:cos3", 129), (1, "ball:1.3", 97),
    (2, "perturbed:0.05:harmonic", 17), (2, "ball:1.0", 21),
])
def test_dyadic_region_matches_the_norms_of_the_interior_coordinates(n, shape, res):
    # B_0.6 is cut from the per-axis squared coordinates, without the
    # coordinates of every interior node; the mask is the one their norms give.
    dom = grid.build_domain(n, shape, res)
    assert np.array_equal(w2p._dyadic_region(dom), region_ball(dom, badset.DYADIC_RADIUS))
