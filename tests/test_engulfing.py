"""Dilation and engulfing verdicts, against full-box oracles."""

import math

import numpy as np
import pytest

from cmalab import engulfing, grid, sections
import oracle
from oracle import dilated_mask


@pytest.fixture(scope="module")
def disc129():
    dom = grid.build_domain(1, "ball:1.0", 129)
    pts = dom.coords()
    r = np.linalg.norm(pts, axis=1).reshape(dom.interior_mask.shape)
    return dom, pts, r


def ball_set(dom, r, center, radius, mu=None):
    ci = dom.node_index(center)
    dist = np.linalg.norm(dom.coords() - dom.coords(ci), axis=1).reshape(r.shape)
    mask = (dist <= radius) & dom.interior_mask
    return sections.Section.from_mask(dom, ci, mask,
                                      mu=mu if mu is not None else radius ** 2)


def test_dilate_identity(disc129):
    dom, _, r = disc129
    ps = ball_set(dom, r, (0.1, 0.0), 0.25)
    out = dilated_mask(ps, 1.0)
    assert np.array_equal(out, ps.mask)


def test_dilate_balls_double(disc129):
    dom, _, r = disc129
    ps = ball_set(dom, r, (0.0, 0.0), 0.3)
    out = dilated_mask(ps, 2.0)
    big = ball_set(dom, r, (0.0, 0.0), 0.6)
    assert engulfing.inclusion_with_slack(out, big.mask)
    assert engulfing.inclusion_with_slack(big.mask, out)


def test_dilate_measure_scaling_anisotropic():
    # Ellipse 4x^2 + y^2/4 <= mu in the plane: measure scales by c^2
    # within 3 percent at resolution 129.
    dom = grid.build_domain(1, "ball:2.6", 129)
    pts = dom.coords()
    mu = 0.36
    q = 4.0 * pts[:, 0] ** 2 + 0.25 * pts[:, 1] ** 2
    mask = (q <= mu).reshape(dom.interior_mask.shape) & dom.interior_mask
    ps = sections.Section.from_mask(dom, dom.node_index((0.0, 0.0)), mask, mu=mu)
    for c in (1.5, 2.0):
        ratio = dilated_mask(ps, c).sum() / ps.node_count()
        assert ratio == pytest.approx(c ** 2, rel=0.03)


def test_dilate_semigroup(disc129):
    dom, _, r = disc129
    ps = ball_set(dom, r, (0.05, -0.05), 0.2)
    for a, b in ((0.5, 2.0), (2.0, 0.5), (0.5, 3.0)):
        if a * b * 0.2 > 0.9:
            continue
        inner = sections.Section(ps.center_idx, dilated_mask(ps, a), ps.lo, ps.h, a * a * ps.mu)
        lhs = dilated_mask(inner, b)
        rhs = dilated_mask(ps, a * b)
        assert engulfing.inclusion_with_slack(lhs, rhs)
        assert engulfing.inclusion_with_slack(rhs, lhs)


def test_engulfing_analytic_balls_strict(disc129):
    # Intersecting balls with mu1 <= 4 mu2: triangle inequality reaches
    # radius sqrt(mu1) + 2 sqrt(mu2) <= 4 sqrt(mu2) < 10 sqrt(mu2); the
    # inclusion holds without any slack beyond one cell.
    dom, _, r = disc129
    s1 = ball_set(dom, r, (0.2, 0.0), math.sqrt(0.04), mu=0.04)
    s2 = ball_set(dom, r, (0.0, 0.1), math.sqrt(0.02), mu=0.02)
    assert engulfing.sets_intersect(s1, s2)
    strict = dilated_mask(s2, 10.0)
    assert bool(np.all(strict[s1.mask]))
    assert engulfing.check_engulfing(s1, s2) == "pass"


def test_engulfing_disjoint_not_applicable(disc129):
    dom, _, r = disc129
    s1 = ball_set(dom, r, (-0.6, 0.0), 0.05, mu=0.0025)
    s2 = ball_set(dom, r, (0.6, 0.0), 0.08, mu=0.0064)
    assert engulfing.check_engulfing(s1, s2) == "not-applicable"


def test_engulfing_hypothesis_violation_raises(disc129):
    dom, _, r = disc129
    s1 = ball_set(dom, r, (0.0, 0.0), 0.5, mu=0.25)
    s2 = ball_set(dom, r, (0.1, 0.0), 0.1, mu=0.01)
    with pytest.raises(ValueError):
        engulfing.check_engulfing(s1, s2)


def test_engulfing_symmetry_on_comparable_pairs(perturbed_n1):
    # Swapped roles with mu2 <= 4 mu1 pass on the same sampled pairs.
    dom, u, v0 = perturbed_n1
    rng = np.random.default_rng(5)
    chains = []
    for _ in range(6):
        p = rng.uniform(-0.35, 0.35, size=2)
        idx = dom.node_index(p)
        if not dom.interior_mask[idx]:
            continue
        chains.append(sections.construct_section_chain(
            u, idx, sigma=0.2, k_max=1, v0=v0, chain_resolution=49))
    done = 0
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            c1, c2 = chains[i], chains[j]
            mu = 0.8 * min(c1.mu_top, c2.mu_top)
            s1 = c1.section(u, mu)
            s2 = c2.section(u, mu)
            v12 = engulfing.check_engulfing(s1, s2)
            v21 = engulfing.check_engulfing(s2, s1)
            if v12 == "not-applicable":
                assert v21 == "not-applicable"
            else:
                assert v12 == "pass" and v21 == "pass"
                done += 1
    assert done >= 3


def test_sandwich_dilation_between_heights(ball_n1):
    # 10 S_mu within S_{121 mu} within 12 S_mu where both heights exist.
    dom, u, _ = ball_n1
    chain = sections.construct_section_chain(
        u, dom.node_index((0.0, 0.0)), sigma=0.2, k_max=2, v0=u, mu0=0.24,
        chain_resolution=49)
    mu = chain.mu_top / 121.0
    assert math.sqrt(mu) >= 2 * dom.h
    s_small = chain.section(u, mu)
    s_big = chain.section(u, 121.0 * mu)
    ten = dilated_mask(s_small, 10.0)
    twelve = dilated_mask(s_small, 12.0)
    assert engulfing.inclusion_with_slack(ten, s_big.mask)
    assert engulfing.inclusion_with_slack(s_big.mask, twelve)


def _blobs(shape, rng, count):
    """Random small boxes with holes; every third one is pressed against a
    face of the lattice box."""
    out = []
    for k in range(count):
        lo = rng.integers(0, shape)
        ext = rng.integers(1, 5, size=len(shape))
        if k % 3 == 0:
            a = int(rng.integers(len(shape)))
            lo[a] = 0 if k % 2 else shape[a] - 1
        box = tuple(slice(lo[a], lo[a] + ext[a]) for a in range(len(shape)))
        m = np.zeros(shape, dtype=bool)
        m[box] = rng.random(m[box].shape) < 0.8
        out.append(m)
    return out


@pytest.mark.parametrize("n, res", [(1, 17), (2, 9)])
def test_windowed_dilations_match_the_full_box(n, res):
    # sets_intersect, inclusion_with_slack and in_dilations dilate only a
    # padded bounding box; their verdicts equal the full-box ones, also for
    # masks on a face of the box and for an empty mask.
    dom = grid.build_domain(n, "ball:1.0", res)
    shape = dom.interior_mask.shape
    masks = [np.zeros(shape, dtype=bool)] + _blobs(shape, np.random.default_rng(3), 24)
    on_face = [m for m in masks if any(
        np.any(np.take(m, [0, -1], axis=a)) for a in range(m.ndim))]
    assert len(on_face) >= 8

    seen = set()
    for a in masks:
        for b in masks:
            want = oracle.inclusion_with_slack(a, b)
            assert engulfing.inclusion_with_slack(a, b) == want
            seen.add(("inclusion", want))

    sets = [sections.Section.from_mask(dom, tuple(np.argwhere(m)[0]), m, mu=0.01)
            for m in masks if m.any()]
    for s in sets:
        for t in sets:
            want = oracle.sets_intersect(s, t)
            assert engulfing.sets_intersect(s, t) == want
            seen.add(("intersect", want))

    for c in (1.0, 2.5):
        for i in range(0, len(sets) - 1, 2):
            pair = sets[i:i + 2]
            cover = dilated_mask(pair[0], c) | dilated_mask(pair[1], c)
            for inner in (masks[0], masks[-1 - i], pair[0].mask | pair[1].mask):
                want = oracle.inclusion_with_slack(inner, cover)
                assert engulfing.in_dilations(inner, pair, c) == want
                seen.add(("dilations", want))
    assert seen == {(kind, v) for kind in ("inclusion", "intersect", "dilations")
                    for v in (True, False)}
