"""Good/bad sets, envelopes, contact sets, MA measure, paraboloids, decay."""

import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import ndimage, spatial
from scipy.spatial import ConvexHull

from cmalab import badset, cli, grid, sections, solver, w2p
from cmalab.grid import GridFunction
import oracle


def region_ball(dom, radius):
    pts = dom.coords()
    r = np.linalg.norm(pts, axis=1).reshape(dom.interior_mask.shape)
    return (r <= radius) & dom.valued_mask, r


# -- D_k classification ----------------------------------------------------------


def test_classify_all_good_for_round_sections():
    dom = grid.build_domain(1, "ball:1.0", 65)
    ns = [badset.NodeSections((32, 32), [(0.04, math.sqrt(0.04)),
                                         (0.004, math.sqrt(0.004))])]
    for k in (1, 2, 3):
        assert badset.classify_Dk(ns, k, dom)[0]


def test_classify_synthetic_anisotropic_bounding():
    # A section stretching to 10 sqrt(mu) needs 10^k >= 100: out of D_1,
    # inside D_3.
    dom = grid.build_domain(1, "ball:1.0", 129)
    mu = 0.01
    ns = [badset.NodeSections((64, 64), [(mu, 10.0 * math.sqrt(mu))])]
    assert not badset.classify_Dk(ns, 1, dom)[0]
    assert badset.classify_Dk(ns, 3, dom)[0]


def test_classify_monotone_in_k():
    dom = grid.build_domain(1, "ball:1.0", 65)
    rng = np.random.default_rng(9)
    ns = []
    for i in range(30):
        mu = float(rng.uniform(0.001, 0.05))
        stretch = float(rng.uniform(0.5, 12.0))
        ns.append(badset.NodeSections((i, i), [(mu, stretch * math.sqrt(mu))]))
    prev = None
    for k in (1, 2, 3, 4):
        good = badset.classify_Dk(ns, k, dom)
        if prev is not None:
            assert np.all(prev <= good)  # D_k subset of D_{k+1}
        prev = good


def test_classify_missing_chain_counts_bad():
    dom = grid.build_domain(1, "ball:1.0", 65)
    ns = [badset.NodeSections((32, 32), [])]
    assert not badset.classify_Dk(ns, 5, dom)[0]


# -- decay experiment --------------------------------------------------------------


def test_radius_schedule():
    rs = badset.radius_schedule(4)
    assert rs[0] == 0.7
    assert rs[1] == pytest.approx(0.7 - 0.05)
    assert rs[2] == pytest.approx(0.65 - 0.025)
    assert all(r > 0.6 for r in rs)


@pytest.fixture(scope="module")
def exact_ball_experiment():
    dom = grid.build_domain(1, "ball:1.0", 65)
    u, _ = solver.solve_dirichlet(dom, 1.0, 0.0)
    ns = badset.sample_badset_chains(u, u, stride=4, levels=2, chain_resolution=33)
    return dom, u, ns


def test_decay_exact_ball_all_rows_pass(exact_ball_experiment):
    dom, u, ns = exact_ball_experiment
    eps_bar = w2p.eps_bar_recipe(2, 1)
    rep = badset.badset_decay_experiment(u, ns, eps_bar, k_max=4, stride=4)
    measures = [r.measure for r in rep.rows]
    assert all(b <= a for a, b in zip(measures, measures[1:]))
    # Chains only inside B_{r_1}; B_0.7 and B_0.6 count the whole stride
    # lattice, so the ring between r_1 and 0.7 has no chains.
    r1 = badset.radius_schedule(1)[1]
    dist = np.array([np.linalg.norm(dom.coords(n.idx)) for n in ns])
    assert np.all(dist <= r1)
    assert rep.m_b07 > len(ns) * rep.cell_measure
    assert rep.m_b06 == np.sum(dist <= 0.6) * rep.cell_measure
    for row in rep.rows:
        assert row.passed
        assert row.vacuous  # bad sets empty on the exact ball
        assert row.measure == 0.0


def test_stride_and_k_max_below_one_are_refused(exact_ball_experiment, monkeypatch):
    # Stride 0 made every interior node of B_{r_1} a chain node (idx % 0)
    # and a zero cell measure; k_max 0 gave a report with no rows.
    dom, u, ns = exact_ball_experiment

    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(badset, "construct_section_chain", no_chain)
    for stride in (0, -1):
        with pytest.raises(ValueError, match="stride"):
            badset._stride_lattice(dom, stride)
        with pytest.raises(ValueError, match="stride"):
            badset.sample_badset_chains(u, u, stride=stride)
        with pytest.raises(ValueError, match="stride"):
            badset.badset_decay_experiment(u, ns, 1e-3, k_max=2, stride=stride)
    with pytest.raises(ValueError, match="k_max"):
        badset.badset_decay_experiment(u, ns, 1e-3, k_max=0, stride=4)
    for eps_bar in (-1.0, 0.0):
        with pytest.raises(ValueError, match="eps_bar"):
            badset.badset_decay_experiment(u, ns, eps_bar, k_max=2, stride=4)


def _default_instance(**kw):
    cfg = cli.ExperimentConfig(**kw)
    dom = grid.build_domain(1, cfg.shape_spec(), cfg.resolution)
    u, _ = solver.solve_dirichlet(dom, cfg.f_function(), 0.0)
    v0, _ = solver.solve_dirichlet(dom, 1.0, 0.0)
    return cfg, dom, u, v0


def test_sampling_records_every_chain_failure():
    # With f = exp(2 x_1) the level-one sections at (16, 24..40) reach the
    # boundary, which breaks the chain at level 1; the sampling records
    # those nodes as empty (bad), with the break, and goes on.
    cfg, dom, u, v0 = _default_instance(f_expr="exp(2*x1)")
    chain = sections.construct_section_chain(
        u, (16, 24), sigma=cfg.sigma, k_max=2, mu0=cfg.mu0,
        chain_resolution=cfg.chain_resolution, v0=v0)
    assert chain.levels == []
    assert chain.broken[:2] == (1, "SectionEscapeError")
    ns = badset.sample_badset_chains(u, v0, stride=4, levels=2, sigma=cfg.sigma,
                                     mu0=cfg.mu0, chain_resolution=cfg.chain_resolution)
    records = {n.idx: n for n in ns}
    assert len(records) == 69
    for j in range(24, 41, 4):
        assert records[(16, j)].radii == []
        assert records[(16, j)].broken[:2] == (1, "SectionEscapeError")


def test_sampling_solves_to_the_given_newton_tol(monkeypatch):
    # Every chain's level-2 solve works to solver.NEWTON_TOL: at a target
    # below roundoff each chain breaks there and its node gets an empty
    # record that names the solver's failure.
    dom = grid.build_domain(1, "ball:1.0", 33)
    u, _ = solver.solve_dirichlet(dom, 1.0, 0.0)
    kw = dict(stride=8, levels=2, chain_resolution=33)
    assert all(ns.radii for ns in badset.sample_badset_chains(u, u, **kw))
    monkeypatch.setattr(solver, "NEWTON_TOL", 1e-300)
    ns = badset.sample_badset_chains(u, u, **kw)
    assert len(ns) == 5
    assert all(n.radii == [] for n in ns)
    assert all(n.broken[:2] == (2, "NonConvergenceError") for n in ns)


def test_sampling_defaults_to_the_dimension_chain_lattice(perturbed_n2, monkeypatch):
    # Left unset, the chain lattice is the dimension's (13 nodes per axis at
    # n = 2, as the pipeline's config), not the planar 33.
    dom, u, v0 = perturbed_n2
    seen = []

    class Stop(Exception):
        pass

    def record(*args, chain_resolution, **kwargs):
        seen.append(chain_resolution)
        raise Stop

    monkeypatch.setattr(badset, "construct_section_chain", record)
    with pytest.raises(Stop):
        badset.sample_badset_chains(u, v0, stride=4)
    assert seen == [sections.DIM_CHAIN_RESOLUTION[2]]
    assert seen == [cli.ExperimentConfig(n=2).chain_resolution] == [13]


def test_known_level2_failures_outside_counted_ball():
    # Known failure at the default n=1 config: the chains at the two nodes
    # at r = 0.798 break at level 2.  They lie beyond r_1, so the bad-set
    # sampling no longer builds them.
    cfg, dom, u, v0 = _default_instance()
    for idx in ((8, 28), (8, 36)):
        assert np.linalg.norm(dom.coords(idx)) > badset.radius_schedule(1)[1]
        chain = sections.construct_section_chain(
            u, idx, sigma=cfg.sigma, k_max=cfg.chain_levels, mu0=cfg.mu0,
            chain_resolution=cfg.chain_resolution, v0=v0)
        assert len(chain.levels) == 1
        level, cause, message = chain.broken
        assert (level, cause) == (2, "SectionFitError")
        assert message.startswith("fit (0.363, 0.514)")


def test_n2_census_of_counted_nodes(perturbed_n2):
    # n=2 res 17 at stride 4 and the n=2 chain resolution: 9 lattice nodes
    # lie inside B_{r_1}, and only the origin's chain builds.  The other 8
    # break, each with its typed cause: 4 at level 2 in the re-grid, whose
    # image leaves the source domain; 2 at level 2 in the level solve, from
    # an initial guess that is not strictly plurisubharmonic; and 2 at
    # level 1 in the re-grid, whose image has no interior node at its
    # center.
    dom, u, v0 = perturbed_n2
    ns = badset.sample_badset_chains(u, v0, stride=4, levels=2, chain_resolution=13)
    assert len(ns) == 9
    assert [n.idx for n in ns if n.radii] == [(8, 8, 8, 8)]
    assert [n.idx for n in ns if not n.broken] == [(8, 8, 8, 8)]
    assert Counter(n.broken[:2] for n in ns if n.broken) == {
        (2, "SectionEscapeError"): 4, (2, "DegeneracyError"): 2, (1, "DegeneracyError"): 2}


@pytest.mark.parametrize("idx", [(8, 4, 8, 8), (8, 12, 8, 8)])
def test_empty_regrid_breaks_its_own_level(perturbed_n2, idx):
    # At these two nodes the level-one re-grid has no interior node at its
    # center.  The chain breaks there, at level 1; it must not build with
    # omega radii (inf, 0.0) when k_max = 1.
    _, u, v0 = perturbed_n2
    chain = sections.construct_section_chain(u, idx, sigma=0.2, k_max=1,
                                             chain_resolution=13, v0=v0)
    assert chain.levels == []
    assert chain.broken == (1, "DegeneracyError",
                            "rescaled section has no interior node at its center")


def test_positive_control_anisotropic_quadratic():
    # The sections of u = lam |z_1|^2 + |z_2|^2/lam - 1 are ellipsoids with
    # rad/sqrt(mu) = sqrt(lam) (the lattice holds a node on the long axis's
    # circle at mu = 0.025, h = 1/16).  At lam = 20 that exceeds the k = 1
    # threshold sqrt(10) + h sqrt(d)/sqrt(mu) = 3.95, so every built node
    # is bad at k = 1 and good at k = 2; at lam = 1 every node is good.
    dom = grid.build_domain(2, "ball:1.0", 33)
    lattice = np.argwhere(dom.interior_mask)
    lattice = lattice[np.all(lattice % 4 == 0, axis=1)]
    nodes = [tuple(int(i) for i in idx) for idx in lattice
             if np.linalg.norm(dom.coords(tuple(idx))) <= 0.4]
    assert len(nodes) == 33
    mu = 0.025

    def sample(lam):
        u = GridFunction.from_callable(
            dom, lambda p: lam * (p[:, 0] ** 2 + p[:, 1] ** 2)
            + (p[:, 2] ** 2 + p[:, 3] ** 2) / lam - 1.0)
        out = [badset.section_ball_radii(u, sections.construct_section_chain(
                   u, node, sigma=0.2, k_max=1, mu0=mu, chain_resolution=13, v0=u))
               for node in nodes]
        return u, out, [ns.broken[:2] for ns in out if ns.broken]

    u, out, breaks = sample(20.0)
    built = [bool(ns.radii) for ns in out]
    assert sum(built) == 29
    assert breaks == [(1, "SectionEscapeError")] * 4
    for ns in (ns for ns in out if ns.radii):
        (height, rad), = ns.radii
        assert height == mu
        assert rad / math.sqrt(mu) == pytest.approx(math.sqrt(20.0), abs=1e-12)
    assert not badset.classify_Dk(out, 1, dom).any()
    assert list(badset.classify_Dk(out, 2, dom)) == built
    # The decay rows read the whole stride lattice of B_{r_1}: its nodes
    # outside B_0.4 enter with one section of radius 0, good at every k.
    # Row 1 counts every chain node and passes: it cannot fail.  Row 2
    # counts only the 4 broken chains, and those alone fail it.
    r1 = badset.radius_schedule(1)[1]
    out += [badset.NodeSections(tuple(int(i) for i in idx), [(mu, 0.0)]) for idx in lattice
            if 0.4 < np.linalg.norm(dom.coords(tuple(idx))) <= r1]
    rep = badset.badset_decay_experiment(u, out, w2p.eps_bar_recipe(2, 2), k_max=2, stride=4)
    row1, row2 = rep.rows
    assert row1.measure == pytest.approx(33 * rep.cell_measure) and row1.passed
    assert row2.measure == pytest.approx(4 * rep.cell_measure) and not row2.passed
    assert row2.bound / rep.cell_measure == pytest.approx(1.485)

    _, out, breaks = sample(1.0)
    assert breaks == []
    assert all(rad / math.sqrt(mu) == pytest.approx(0.968, abs=1e-3)
               for ns in out for _, rad in ns.radii)
    assert badset.classify_Dk(out, 1, dom).all()


def test_eps_bar_recipe_paper_arithmetic():
    # 10^{(n-1)p} 12^{2n} eps_bar = 1/2.
    assert w2p.eps_bar_recipe(2, 1) == pytest.approx(1.0 / 288.0)
    assert w2p.eps_bar_recipe(2, 2) == pytest.approx(0.5 / (100.0 * 12 ** 4))
    # the ratio check also accepts any smaller threshold, e.g. 3.472e-4
    assert 10 ** 0 * 144 * 3.472e-4 == pytest.approx(0.05, rel=0.01)


# -- convex envelope ---------------------------------------------------------------


@pytest.mark.parametrize("case", ["quadratic", "affine"])
def test_envelope_of_convex_quadratic_is_identity(case):
    dom = grid.build_domain(1, "ball:1.0", 49)
    region, r = region_ball(dom, 0.9)
    pts = dom.coords()
    wv = r ** 2 if case == "quadratic" else (
        0.3 * pts[:, 0] - 0.1 * pts[:, 1]).reshape(r.shape)
    w = GridFunction(dom, np.where(region, wv, np.nan))
    env = badset.convex_envelope(w, region)
    assert np.nanmax(np.abs(env.values[region] - w.values[region])) <= 1e-9
    cs = badset.contact_set(w, env)
    assert np.all(cs[region])
    if case == "affine":  # a flat cloud has no hull cells at all
        assert np.array_equal(env.values[region], w.values[region])
        assert badset.ma_measure(env, region) == 0.0


def test_envelope_double_well_against_hull_oracle():
    dom = grid.build_domain(1, "ball:1.0", 65)
    region, r = region_ball(dom, 0.9)
    pts = dom.coords()
    a = np.array([0.35, 0.0])
    wv = np.minimum(np.sum((pts - a) ** 2, axis=1),
                    np.sum((pts + a) ** 2, axis=1)).reshape(r.shape)
    w = GridFunction(dom, np.where(region, wv, np.nan))
    env = badset.convex_envelope(w, region)

    reg_pts = pts[region.ravel()]
    cloud = np.column_stack([reg_pts, wv[region]])
    hull = ConvexHull(cloud)
    lower = hull.equations[hull.equations[:, 2] < -1e-9]
    planes = -(lower[:, 0][None, :] * reg_pts[:, 0][:, None]
               + lower[:, 1][None, :] * reg_pts[:, 1][:, None]
               + lower[:, 3][None, :]) / lower[:, 2][None, :]
    oracle = planes.max(axis=1)
    assert np.max(np.abs(env.values[region] - oracle)) <= 1e-6

    # outside the bridge the envelope touches; the bridge interior detaches
    cs = badset.contact_set(w, env, tol=1e-8)
    assert not cs[dom.node_index((0.0, 0.0))]
    assert cs[dom.node_index((0.35, 0.0))]
    assert cs[dom.node_index((-0.35, 0.0))]


def test_envelope_of_lattice_convex_indefinite_quadratic():
    # Second differences along (1,0), (0,1) and (1,+-1) are all positive, but
    # the form has determinant -0.11: lattice-convex yet not convex.
    dom = grid.build_domain(1, "ball:1.0", 33)
    region, r = region_ball(dom, 0.9)
    pts = dom.coords()
    x, y = pts[:, 0], pts[:, 1]
    qv = (x ** 2 + 1.2 * x * y + 0.25 * y ** 2).reshape(r.shape)
    q = GridFunction(dom, np.where(region, qv, np.nan))
    env = badset.convex_envelope(q, region)

    reg_pts = pts[region.ravel()]
    hull = ConvexHull(np.column_stack([reg_pts, qv[region]]))
    lower = hull.equations[hull.equations[:, 2] < -1e-9]
    oracle = np.max(-(reg_pts @ lower[:, :2].T + lower[:, 3]) / lower[:, 2], axis=1)
    assert np.max(np.abs(env.values[region] - oracle)) <= 1e-9
    origin = dom.node_index((0.0, 0.0))
    assert env.values[origin] <= qv[origin] - 0.06

    assert not badset.contact_set(q, env)[origin]
    with pytest.raises(ValueError):
        badset.ma_measure(q, (r <= 0.4) & region)


def test_envelope_cone_becomes_boundary_plateau():
    dom = grid.build_domain(1, "ball:1.0", 49)
    region, r = region_ball(dom, 0.9)
    w = GridFunction(dom, np.where(region, -r, np.nan))
    env = badset.convex_envelope(w, region)
    vals = env.values[region]
    # affine bridge across boundary values: essentially the constant minimum
    assert np.nanmin(vals) >= -0.9 - 1e-9
    assert np.nanmax(vals) <= -0.85


def test_envelope_idempotent():
    dom = grid.build_domain(1, "ball:1.0", 49)
    region, r = region_ball(dom, 0.9)
    pts = dom.coords()
    wv = np.minimum(np.sum((pts - 0.3) ** 2, axis=1),
                    np.sum((pts + 0.3) ** 2, axis=1)).reshape(r.shape)
    w = GridFunction(dom, np.where(region, wv, np.nan))
    env = badset.convex_envelope(w, region)
    env2 = badset.convex_envelope(env, region)
    assert np.nanmax(np.abs(env.values[region] - env2.values[region])) <= 1e-8


def _double_well(dom):
    region, r = region_ball(dom, 0.9)
    pts = dom.coords()
    a = np.zeros(dom.d)
    a[0] = 0.35
    wv = np.minimum(np.sum((pts - a) ** 2, axis=1),
                    np.sum((pts + a) ** 2, axis=1)).reshape(r.shape)
    return GridFunction(dom, np.where(region, wv, np.nan)), region


def _u_minus_v0(dom, f):
    u, _ = solver.solve_dirichlet(dom, f, 0.0)
    v0, _ = solver.solve_dirichlet(dom, 1.0, 0.0)
    region, _ = region_ball(dom, 0.9)
    return GridFunction(dom, np.where(region, u.values - v0.values, np.nan)), region


@pytest.fixture(scope="module")
def u_minus_v0_n1():
    """u - v0 on B_0.9 of the res-129 instance that perfbench's analysis
    workload solves."""
    dom = grid.build_domain(1, "perturbed:0.05:cos3", 129)
    return _u_minus_v0(dom, cli.ExperimentConfig(eps=0.01).f_function())


def _u_minus_v0_n2():
    def f(pts):
        pts = np.atleast_2d(pts)
        return 1.0 + 0.01 * np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 2])
    return _u_minus_v0(grid.build_domain(2, "perturbed:0.05:harmonic", 9), f)


@pytest.mark.parametrize("case", ["double_well", "u_minus_v0_n1", "u_minus_v0_n2"])
def test_envelope_blocks_match_every_plane(case, request):
    # Each block evaluates only the facets whose bounding box meets it; the
    # facet that holds a node is one of them, so every off-hull node gets
    # the value of the largest of all planes.  The u - v0 inputs have nodes
    # off the hull on the rim, next to nearly vertical facets that
    # _LOWER_FACET_TILT drops.
    if case == "double_well":
        w, region = _double_well(grid.build_domain(1, "ball:1.0", 65))
    elif case == "u_minus_v0_n1":
        w, region = request.getfixturevalue("u_minus_v0_n1")
    else:
        w, region = _u_minus_v0_n2()
    d = w.domain.d
    hull = ConvexHull(np.column_stack([w.domain.coords()[region.ravel()], w.values[region]]))
    z = hull.equations[:, d]
    lower = z < -badset._LOWER_FACET_TILT
    off_hull = np.ones(region.sum(), dtype=bool)
    off_hull[hull.simplices[lower]] = False
    dropped = np.zeros(region.sum(), dtype=bool)
    dropped[hull.simplices[(z < 0) & ~lower]] = True
    moore = ndimage.generate_binary_structure(d, d)
    by_dropped = np.zeros_like(region)
    by_dropped[region] = dropped
    by_dropped = ndimage.binary_dilation(by_dropped, moore)[region]
    rim = (region & ~ndimage.binary_erosion(region, moore))[region]
    assert off_hull.sum() >= (5000 if case == "u_minus_v0_n1" else 100)
    assert case == "double_well" or np.any(off_hull & rim & by_dropped)

    env = badset.convex_envelope(w, region)
    assert np.max(np.abs(env.values[region] - oracle.envelope_all_planes(w, region))) <= 1e-12


def _traced_peak(fn):
    fn()  # imports and caches out of the count
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_envelope_transient_memory(u_minus_v0_n1):
    # Measured peaks (numpy 2.4, scipy 1.17): 1.1 MB for u - v0 at n = 1
    # res 129, against 16.8 MB when every plane was evaluated at every
    # off-hull node; 12.9 MB for the n = 2 res-13 double well, against
    # 28.0 MB.
    w, region = u_minus_v0_n1
    assert _traced_peak(lambda: badset.convex_envelope(w, region)) <= 4 * 2 ** 20
    w, region = _double_well(grid.build_domain(2, "ball:1.0", 13))
    assert _traced_peak(lambda: badset.convex_envelope(w, region)) <= 20 * 2 ** 20


# -- contact density on solved instances -------------------------------------------


def test_contact_density_exact_ball(ball_n1):
    dom, u, _ = ball_n1
    region, r = region_ball(dom, 0.9)
    w = GridFunction(dom, np.where(region, u.values - 0.5 * u.values, np.nan))
    env = badset.convex_envelope(w, region)
    cs = badset.contact_set(w, env, tol=1e-9)
    inner = (r <= 0.5) & region
    assert (cs & inner).sum() / inner.sum() >= 0.99


def test_contact_density_perturbed_with_measured_constant(perturbed_n1):
    dom, u, v0 = perturbed_n1
    region, r = region_ball(dom, 0.9)
    w = GridFunction(dom, np.where(region, u.values - 0.5 * v0.values, np.nan))
    env = badset.convex_envelope(w, region)
    cs = badset.contact_set(w, env, tol=1e-9)
    inner = (r <= 0.5) & region
    frac = (cs & inner).sum() / inner.sum()
    eps, gamma = 0.01, 0.05
    c_measured = (1.0 - frac) / (math.sqrt(eps) + math.sqrt(gamma))
    assert frac >= 1.0 - c_measured * (math.sqrt(eps) + math.sqrt(gamma)) - 1e-12
    assert c_measured <= 1.0


def test_envelope_of_nonconvex_data_n2_is_convex(perturbed_n2):
    # u - v0 is not convex; near-vertical rim facets of its 5-D hull would
    # lift the envelope off convexity by about 1e-4 if they were kept.
    dom, u, v0 = perturbed_n2
    region, r = region_ball(dom, 0.9)
    w = GridFunction(dom, np.where(region, u.values - v0.values, np.nan))
    env = badset.convex_envelope(w, region)
    assert badset.lattice_convexity_defect(env, region) <= 1e-12
    assert np.all(env.values[region] <= w.values[region])
    assert not np.all(badset.contact_set(w, env)[region])


def test_convexity_defect_matches_the_whole_box_reference(perturbed_n1, perturbed_n2):
    # Read at the region nodes, the defect is the whole-box one bit for bit,
    # on convex, non-convex and box-face data.
    cases = []
    for dom, u, v0 in (perturbed_n1, perturbed_n2):
        region, _ = region_ball(dom, 0.9)
        w = GridFunction(dom, np.where(region, u.values - 0.5 * v0.values, np.nan))
        cases += [(w, region), (u, dom.valued_mask)]
    face = grid.build_domain(1, "ball:1.0", 17)
    every = np.ones_like(face.valued_mask)
    bumps = GridFunction(face, np.random.default_rng(2).standard_normal(every.shape))
    cases.append((bumps, every))
    for gam, region in cases:
        want = oracle.convexity_defect(gam, region)
        assert badset.lattice_convexity_defect(gam, region) == want
    assert want > 0.0


def test_subdeterminant_inequality_at_contact(perturbed_n1):
    dom, u, v0 = perturbed_n1
    region, r = region_ball(dom, 0.9)
    w = GridFunction(dom, np.where(region, u.values - 0.5 * v0.values, np.nan))
    env = badset.convex_envelope(w, region)
    cs = badset.contact_set(w, env, tol=1e-9)
    out = badset.subdeterminant_check(u, v0, env, cs & (r <= 0.5))
    assert out["checked"] > 100
    assert out["passed"], out


def test_subdeterminant_check_matches_the_node_loop(perturbed_n1, perturbed_n2):
    # Stacked eigenvalues give the dict of the one-node-at-a-time loop, with
    # and without nodes that fail positive semidefiniteness.
    dom, u, v0 = perturbed_n1
    region, r = region_ball(dom, 0.9)
    w = GridFunction(dom, np.where(region, u.values - 0.5 * v0.values, np.nan))
    env = badset.convex_envelope(w, region)
    cs = badset.contact_set(w, env, tol=1e-9)
    raw = GridFunction(dom, np.where(region, u.values - 1.1 * v0.values, np.nan))
    cases = [(env, cs & (r <= 0.5)), (raw, region), (env, np.zeros_like(region))]
    dom2, u2, v02 = perturbed_n2
    w2 = GridFunction(dom2, np.where(dom2.valued_mask, u2.values - 0.5 * v02.values, np.nan))
    for gam, contact in cases:
        want = oracle.subdeterminant_check(u, v0, gam, contact)
        got = badset.subdeterminant_check(u, v0, gam, contact)
        assert got.keys() == want.keys()
        assert got["checked"] == want["checked"]
        assert got["passed"] == want["passed"]
        assert np.array_equal(got["worst_excess"], want["worst_excess"], equal_nan=True)
    want = oracle.subdeterminant_check(u2, v02, w2, dom2.interior_mask)
    assert want["checked"] > 0
    assert badset.subdeterminant_check(u2, v02, w2, dom2.interior_mask) == want
    assert oracle.subdeterminant_check(u, v0, raw, region)["checked"] < region.sum()


# -- Monge-Ampere measure ------------------------------------------------------------


def test_ma_measure_quadratic_gradient_image():
    dom = grid.build_domain(1, "ball:1.0", 97)
    region, r = region_ball(dom, 0.9)
    gam = GridFunction(dom, np.where(region, r ** 2, np.nan))
    E = (r <= 0.4) & region
    val = badset.ma_measure(gam, E)
    assert val == pytest.approx(4.0 * math.pi * 0.16, rel=0.03)


def test_ma_measure_affine_is_zero():
    dom = grid.build_domain(1, "ball:1.0", 49)
    region, r = region_ball(dom, 0.9)
    pts = dom.coords()
    gam = GridFunction(dom, np.where(region, (0.3 * pts[:, 0] - 0.1 * pts[:, 1]
                                              ).reshape(r.shape), np.nan))
    E = (r <= 0.4) & region
    val = badset.ma_measure(gam, E)
    assert val <= 1e-2


def test_ma_measure_concentrates_off_flat_region():
    dom = grid.build_domain(1, "ball:1.0", 97)
    region, r = region_ball(dom, 0.9)
    gam = GridFunction(dom, np.where(region, np.maximum(r ** 2, 0.25), np.nan))
    flat = (r <= 0.3) & region
    curved = (r >= 0.6) & (r <= 0.8) & region
    m_flat = badset.ma_measure(gam, flat)
    m_curved = badset.ma_measure(gam, curved)
    assert m_flat <= 0.05
    assert m_curved == pytest.approx(math.pi * (1.6 ** 2 - 1.2 ** 2), rel=0.05)


def test_ma_measure_additive_and_contact_supported():
    dom = grid.build_domain(1, "ball:1.0", 65)
    region, r = region_ball(dom, 0.9)
    pts = dom.coords()
    a = np.array([0.35, 0.0])
    wv = np.minimum(np.sum((pts - a) ** 2, axis=1),
                    np.sum((pts + a) ** 2, axis=1)).reshape(r.shape)
    w = GridFunction(dom, np.where(region, wv, np.nan))
    env = badset.convex_envelope(w, region)
    cs = badset.contact_set(w, env, tol=1e-8)
    E = (r <= 0.5) & region
    halves = [E & (pts[:, 0] >= 0).reshape(r.shape),
              E & (pts[:, 0] < 0).reshape(r.shape)]
    total = badset.ma_measure(env, E)
    split = sum(badset.ma_measure(env, Epart) for Epart in halves)
    assert total == pytest.approx(split, abs=1e-9)  # argmin partition is exact
    on_contact = badset.ma_measure(env, E & cs)
    assert total == pytest.approx(on_contact, abs=0.05 * max(total, 1.0))


def test_ma_measure_rejects_nonconvex():
    dom = grid.build_domain(1, "ball:1.0", 49)
    region, r = region_ball(dom, 0.9)
    gam = GridFunction(dom, np.where(region, -(r ** 2), np.nan))
    with pytest.raises(ValueError):
        badset.ma_measure(gam, region)


def _hull_cell_reference(gam, E):
    """ma_measure through one Qhull cell per hull vertex, the path d > 2 takes."""
    region = ~np.isnan(gam.values)
    _, grads, simplices = badset._lower_hull(gam, region)
    return badset._hull_cell_measure(grads, simplices, E[region])


@pytest.mark.parametrize("case", ["double_well", "r2", "r2_floor", "whole_region"])
def test_ma_measure_polygon_cells_match_the_hull_cells(case):
    # At d = 2 the cells are polygons summed by the shoelace formula; they
    # agree with the per-vertex hull volumes up to float64 rounding over
    # about 10^4 terms, also on the open fans of region-boundary vertices.
    dom = grid.build_domain(1, "ball:1.0", 65)
    region, r = region_ball(dom, 0.9)
    pts = dom.coords()
    if case == "double_well":
        a = np.array([0.35, 0.0])
        wv = np.minimum(np.sum((pts - a) ** 2, axis=1),
                        np.sum((pts + a) ** 2, axis=1)).reshape(r.shape)
        gam = badset.convex_envelope(GridFunction(dom, np.where(region, wv, np.nan)),
                                     region)
        Es = [(r <= 0.5) & region]
    else:
        wv = r ** 2 if case != "r2_floor" else np.maximum(r ** 2, 0.25)
        gam = GridFunction(dom, np.where(region, wv, np.nan))
        Es = [(r <= 0.4) & region, (r >= 0.6) & (r <= 0.8) & region]
    if case == "whole_region":
        Es = [region]
        rim = region & ~ndimage.binary_erosion(region)
        _, _, simplices = badset._lower_hull(gam, region)
        assert np.any(rim[region][np.unique(simplices)])
    refs = []
    for E in Es:
        refs.append(_hull_cell_reference(gam, E))
        assert badset.ma_measure(gam, E) == pytest.approx(refs[-1], rel=1e-12, abs=0.0)
    assert max(refs) > 0.1


@pytest.mark.parametrize("n, res", [(1, 65), (2, 9)])
def test_ma_measure_reuses_the_envelope_hull(n, res, monkeypatch):
    # The measure of an untouched envelope needs no hull of its own (at
    # n = 2 it still builds one d-dimensional hull per cell); a rescaled
    # copy gets one, and its measure scales by 2^d.
    dims = []  # point dimension of every ConvexHull built
    real = spatial.ConvexHull
    monkeypatch.setattr(spatial, "ConvexHull",
                        lambda pts, *a, **k: dims.append(pts.shape[1]) or real(pts, *a, **k))
    w, region = _double_well(grid.build_domain(n, "ball:1.0", res))
    env = badset.convex_envelope(w, region)
    E, _ = region_ball(w.domain, 0.5)
    val = badset.ma_measure(env, E)
    assert dims.count(2 * n + 1) == 1
    assert val > 0.1

    env.values *= 2.0
    assert badset.ma_measure(env, E) == pytest.approx(2.0 ** (2 * n) * val, rel=1e-9)
    assert dims.count(2 * n + 1) == 2

    # This envelope's own entry goes with it, whatever other tests left.
    entry = badset._ENVELOPE_HULLS[env]
    del env
    gc.collect()
    assert all(v is not entry for v in badset._ENVELOPE_HULLS.values())


def test_ma_measure_reused_hull_matches_a_rebuilt_one():
    # On the double well the envelope is not w: its hull has the bridge
    # nodes on facets that the hull of w spans without them.
    w, region = _double_well(grid.build_domain(1, "ball:1.0", 65))
    env = badset.convex_envelope(w, region)
    assert np.max(w.values[region] - env.values[region]) > 0.01
    E, _ = region_ball(w.domain, 0.5)
    rebuilt = badset.ma_measure(GridFunction(env.domain, env.values.copy()), E)
    assert badset.ma_measure(env, E) == pytest.approx(rebuilt, rel=1e-12, abs=0.0)


def test_ma_measure_is_exactly_zero_without_cells():
    dom = grid.build_domain(1, "ball:1.0", 33)
    region, r = region_ball(dom, 0.9)
    pts = dom.coords()
    bowl = GridFunction(dom, np.where(region, r ** 2, np.nan))
    plane = GridFunction(dom, np.where(region, (0.3 * pts[:, 0] - 0.1 * pts[:, 1]
                                                ).reshape(r.shape), np.nan))
    assert badset.ma_measure(bowl, np.zeros_like(region)) == 0.0
    assert badset.ma_measure(plane, region) == 0.0


def test_ma_measure_n2_det_fallback():
    dom = grid.build_domain(2, "ball:1.0", 13)
    region = dom.valued_mask
    pts = dom.coords()
    gam = GridFunction(dom, np.where(region, np.sum(pts ** 2, axis=1
                                                    ).reshape(region.shape), np.nan))
    E = region & (np.linalg.norm(pts, axis=1).reshape(region.shape) <= 0.5)
    val = badset.ma_measure(gam, E)
    # det D^2 |x|^2 = 2^4; measure = 16 m(E)
    m_E = float(E.sum()) * dom.h ** 4
    assert val == pytest.approx(16.0 * m_E, rel=0.2)
    assert val == pytest.approx(16.0 * m_E, rel=1e-12)


# -- touching paraboloids -------------------------------------------------------------


def test_paraboloid_exact_opening():
    dom = grid.build_domain(1, "ball:1.0", 65)
    region, r = region_ball(dom, 0.8)
    for kappa0 in (0.5, 1.0, 2.0):
        pts = dom.coords()
        x0 = dom.node_index((0.15, -0.2))
        vals = kappa0 * np.sum((pts - dom.coords(x0)) ** 2, axis=1).reshape(r.shape)
        u = GridFunction(dom, np.where(dom.valued_mask, vals, np.nan))
        res = badset.touching_paraboloid_opening(u, x0, region & dom.interior_mask)
        assert res.supported
        assert res.kappa == pytest.approx(kappa0, abs=2e-6)


def test_paraboloid_squared_modulus_any_point(ball_n1):
    dom, u, _ = ball_n1
    region, _ = region_ball(dom, 0.8)
    for ctr in ((0.0, 0.0), (0.3, 0.1), (-0.2, -0.4)):
        res = badset.touching_paraboloid_opening(
            u, dom.node_index(ctr), region & dom.interior_mask)
        assert res.kappa == pytest.approx(1.0, abs=1e-3)


def test_paraboloid_unsupported_flag():
    dom = grid.build_domain(1, "ball:1.0", 49)
    region, r = region_ball(dom, 0.8)
    pts = dom.coords()
    u = GridFunction(dom, np.where(dom.valued_mask,
                                   -np.abs(pts[:, 0]).reshape(r.shape), np.nan))
    res = badset.touching_paraboloid_opening(
        u, dom.node_index((0.0, 0.0)), region & dom.interior_mask)
    assert res.kappa == 0.0
    assert not res.supported


def test_paraboloid_on_perturbed_contact_nodes(perturbed_n1):
    # At contact nodes the opening clears half the unit curvature.
    dom, u, v0 = perturbed_n1
    region, r = region_ball(dom, 0.9)
    w = GridFunction(dom, np.where(region, u.values - 0.5 * v0.values, np.nan))
    env = badset.convex_envelope(w, region)
    cs = badset.contact_set(w, env, tol=1e-9) & (r <= 0.5)
    idxs = np.argwhere(cs)[:: max(1, cs.sum() // 25)]
    probe_region = region & dom.interior_mask
    good = 0
    for it in idxs:
        res = badset.touching_paraboloid_opening(u, tuple(it), probe_region)
        if res.kappa >= 0.5 * (1.0 - 0.25):
            good += 1
    eps, gamma = 0.01, 0.05
    assert good / len(idxs) >= 1.0 - 1.0 * (math.sqrt(eps) + math.sqrt(gamma))


def test_paraboloid_slope_is_the_centred_difference_at_x0(perturbed_n1):
    # The slope is the full-box centred difference read at x0; where its
    # stencil meets an unvalued node, or leaves the box at a box-face node,
    # it is NaN and the opening unsupported.
    dom, u, _ = perturbed_n1
    region, r = region_ball(dom, 0.9)
    D1 = oracle.diff_fields(u.values, dom.h)[0]
    field = np.stack([D1(a) for a in range(dom.d)], axis=-1)
    for it in np.argwhere(region & (r <= 0.6))[::97]:
        res = badset.touching_paraboloid_opening(u, tuple(it), region)
        assert np.array_equal(res.slope, field[tuple(it)])
    edge = tuple(np.argwhere(dom.boundary_mask & np.isnan(field).any(axis=-1))[0])
    res = badset.touching_paraboloid_opening(u, edge, dom.valued_mask)
    assert np.array_equal(res.slope, field[edge], equal_nan=True)
    assert not res.supported and res.kappa == 0.0

    face = grid.build_domain(1, "ball:1.0", 17)
    quad = GridFunction(face, np.sum(face.coords() ** 2, axis=1).reshape((17, 17)))
    D1 = oracle.diff_fields(quad.values, face.h)[0]
    field = np.stack([D1(a) for a in range(face.d)], axis=-1)
    res = badset.touching_paraboloid_opening(quad, (16, 8), np.ones((17, 17), dtype=bool))
    assert np.array_equal(res.slope, field[16, 8], equal_nan=True)
    assert np.isnan(res.slope[0]) and res.slope[1] == 0.0
    assert not res.supported


# -- Hessian bounds on good sets -------------------------------------------------------


def test_hessian_bounds_identity_case(ball_n1):
    dom, u, _ = ball_n1
    nodes = [dom.node_index((0.1, 0.0)), dom.node_index((0.0, 0.2))]
    out = badset.hessian_bounds_on_Dk(u, nodes, 1)
    assert out["passed"]
    assert out["worst_min_eigenvalue"] == pytest.approx(1.0, abs=1e-6)


def test_hessian_bounds_diagonal_case_smallest_k():
    dom = grid.build_domain(2, "ball:1.0", 13)
    u = GridFunction.from_callable(
        dom, lambda p: 5.0 * (p[:, 0] ** 2 + p[:, 1] ** 2)
        + 0.2 * (p[:, 2] ** 2 + p[:, 3] ** 2))
    nodes = [tuple(i) for i in np.argwhere(dom.interior_mask)[:: 400]]
    out1 = badset.hessian_bounds_on_Dk(u, nodes, 1)
    assert out1["passed"]  # 10^-1 <= 1/5 and 5 <= 2*10


def test_hessian_bounds_inconsistency_detected():
    dom = grid.build_domain(2, "ball:1.0", 13)
    u = GridFunction.from_callable(
        dom, lambda p: 1e-3 * (p[:, 0] ** 2 + p[:, 1] ** 2)
        + 1e3 * (p[:, 2] ** 2 + p[:, 3] ** 2))
    nodes = [tuple(np.argwhere(dom.interior_mask)[0])]
    out = badset.hessian_bounds_on_Dk(u, nodes, 1)
    assert not out["passed"]
    assert out["violations"] == 1


def test_decay_refuses_a_sample_at_another_stride(exact_ball_experiment):
    # Node sections sampled at stride 8 and reported at stride 4 were
    # counted with the cell (4h)^d, 2^d times too small for their nodes.
    # The sample must be the report's stride lattice inside B_{r_1}, all
    # of it.
    dom, u, ns = exact_ball_experiment
    eps_bar = w2p.eps_bar_recipe(2, 1)
    coarse = [s for s in ns if all(i % 8 == 0 for i in s.idx)]
    for sample in (coarse, ns[1:], ns + ns[:1]):
        with pytest.raises(ValueError, match="stride-4 lattice"):
            badset.badset_decay_experiment(u, sample, eps_bar, k_max=2, stride=4)
    assert badset.badset_decay_experiment(u, coarse, eps_bar, k_max=2, stride=8).rows
    assert badset.badset_decay_experiment(u, ns[::-1], eps_bar, k_max=2, stride=4).rows
