"""Vitali selection, maximal functions, measure comparison."""

import itertools

import numpy as np
import pytest

from cmalab import cli, covering, engulfing, grid, sections
from cmalab.errors import CoverageError
import oracle
from oracle import dilated_mask


def make_disc_domain():
    return grid.build_domain(1, "ball:1.0", 97)


def ball_member(dom, center, radius):
    ci = dom.node_index(center)
    pts = dom.coords()
    dist = np.linalg.norm(pts - dom.coords(ci), axis=1).reshape(dom.interior_mask.shape)
    mask = (dist <= radius) & dom.interior_mask
    return sections.Section.from_mask(dom, ci, mask, mu=radius ** 2)


@pytest.fixture(scope="module")
def disc():
    return make_disc_domain()


def test_family_volume_comparability_enforced(disc):
    good = ball_member(disc, (0.0, 0.0), 0.3)
    covering.SectionFamily([good])
    thin = ball_member(disc, (0.0, 0.0), 0.3)
    thin.mu = 25.0  # claims a huge height for a small set
    with pytest.raises(ValueError):
        covering.SectionFamily([thin])


def test_vitali_single_member_covers(disc):
    m = ball_member(disc, (0.1, 0.0), 0.4)
    fam = covering.SectionFamily([m])
    sel = covering.vitali_select(fam, m.mask)
    assert sel.indices == [0]
    assert sel.covered


def test_vitali_coverage_precondition(disc):
    m = ball_member(disc, (0.3, 0.0), 0.2)
    fam = covering.SectionFamily([m])
    target = ball_member(disc, (-0.5, 0.0), 0.2).mask
    with pytest.raises(CoverageError):
        covering.vitali_select(fam, target)


def interval_set(lo_b, length, box_lo, h, n_nodes, center=None):
    mask = np.zeros(n_nodes, dtype=bool)
    i0 = int(round((lo_b - box_lo) / h))
    i1 = int(round((lo_b + length - box_lo) / h))
    mask[i0:i1 + 1] = True
    ci = (i0 + i1) // 2 if center is None else int(round((center - box_lo) / h))
    return sections.Section((ci,), mask, np.array([box_lo]), h,
                            mu=(length / 2) ** 2)


def test_vitali_1d_toy_against_bruteforce():
    # Intervals [0,1], [0.5,1.5], [3,3.2]; target [0,1.5] union [3,3.2].
    h = 0.025
    box_lo, n_nodes = -1.0, 241  # covers [-1, 5]
    f1 = interval_set(0.0, 1.0, box_lo, h, n_nodes)
    f2 = interval_set(0.5, 1.0, box_lo, h, n_nodes)
    f3 = interval_set(3.0, 0.2, box_lo, h, n_nodes)
    fam = covering.SectionFamily([f1, f2, f3])
    target = f1.mask | f2.mask | f3.mask
    sel = covering.vitali_select(fam, target)
    assert oracle.pairwise_disjoint([fam.members[i].mask for i in sel.indices])
    assert sel.covered
    assert 2 in sel.indices
    assert sel.indices[0] in (0, 1)

    # Brute force: the greedy's selection is among the valid ones.
    valid = []
    members = fam.members
    for rset in range(1, 8):
        idxs = [i for i in range(3) if rset & (1 << i)]
        disjoint = all(
            not np.any(members[a].mask & members[b].mask)
            for a, b in itertools.combinations(idxs, 2))
        if not disjoint:
            continue
        cover = np.zeros_like(target)
        for i in idxs:
            cover |= dilated_mask(members[i], 10.0)
        if engulfing.inclusion_with_slack(target, cover):
            valid.append(sorted(idxs))
    assert sorted(sel.indices) in valid


def test_vitali_property_sweep_random_families(disc):
    rng = np.random.default_rng(21)
    for trial in range(50):
        members = []
        while len(members) < 12:
            ctr = rng.uniform(-0.55, 0.55, size=2)
            rad = float(rng.uniform(5 * disc.h, 0.25))
            idx = disc.node_index(ctr)
            if not disc.interior_mask[idx]:
                continue
            m = ball_member(disc, ctr, rad)
            if m.mask[idx]:
                members.append(m)
        fam = covering.SectionFamily(members)
        chosen = rng.choice(12, size=4, replace=False)
        target = np.zeros_like(disc.interior_mask)
        for i in chosen:
            target |= members[int(i)].mask
        sel = covering.vitali_select(fam, target)
        assert oracle.pairwise_disjoint([members[i].mask for i in sel.indices])
        assert sel.covered


def test_vitali_deterministic_tiebreak(disc):
    a = ball_member(disc, (-0.4, 0.0), 0.2)
    b = ball_member(disc, (0.4, 0.0), 0.2)  # equal heights, disjoint
    fam = covering.SectionFamily([a, b])
    target = a.mask | b.mask
    sel = covering.vitali_select(fam, target)
    assert sel.indices[0] == 0  # lowest index wins the tie
    sel2 = covering.vitali_select(fam, target)
    assert sel.indices == sel2.indices


# -- maximal function -----------------------------------------------------------


def test_maximal_function_constant(disc):
    members = [ball_member(disc, c, r) for c, r in
               (((0.0, 0.0), 0.4), ((0.3, 0.1), 0.2), ((-0.2, -0.3), 0.25))]
    fam = covering.SectionFamily(members)
    f = np.ones_like(disc.interior_mask, dtype=float)
    M = covering.maximal_function(f, fam, fam.union_mask())
    union = fam.union_mask()
    assert np.allclose(M[union], 1.0)
    assert np.all(np.isnan(M[~union]))


def test_maximal_function_indicator_overlap(disc):
    b0 = ball_member(disc, (0.0, 0.0), 0.3)
    b1 = ball_member(disc, (0.25, 0.0), 0.3)
    fam = covering.SectionFamily([b0, b1])
    f = b0.mask.astype(float)
    M = covering.maximal_function(f, fam, fam.union_mask())
    # On the core ball the best containing member is the ball itself.
    assert M[b0.center_idx] == pytest.approx(1.0)
    overlap = float(np.sum(b1.mask & b0.mask)) / b1.node_count()
    only_b1 = b1.mask & ~b0.mask
    assert np.allclose(M[only_b1], overlap)


def test_maximal_function_uncovered_raises(disc):
    fam = covering.SectionFamily([ball_member(disc, (0.0, 0.0), 0.2)])
    f = np.ones_like(disc.interior_mask, dtype=float)
    with pytest.raises(CoverageError):
        covering.maximal_function(f, fam, region=disc.interior_mask)


def test_weak_11_random_fields(disc):
    rng = np.random.default_rng(8)
    members = [ball_member(disc, rng.uniform(-0.5, 0.5, 2), rng.uniform(0.08, 0.3))
               for _ in range(25)]
    fam = covering.SectionFamily(members)
    for _ in range(5):
        f = np.where(disc.interior_mask, np.abs(rng.standard_normal(disc.interior_mask.shape)), 0.0)
        out = covering.weak_11_certificate(f, fam)
        assert out["ok"], out["rows"]
        assert out["constant"] == 100.0


# -- measure comparison -----------------------------------------------------------


def annulus(dom, r_lo, r_hi):
    pts = dom.coords()
    r = np.linalg.norm(pts, axis=1).reshape(dom.interior_mask.shape)
    return (r >= r_lo) & (r <= r_hi) & dom.interior_mask


@pytest.fixture(scope="module")
def disc_fine():
    return grid.build_domain(1, "ball:1.0", 193)


def _comparison_family(dom, rng):
    # Big members at top heights covering the annulus thinly, plus small
    # ones (height ratio beyond 121) sitting on it; with mu0 = 2 the top
    # window [mu0/484, mu0/4] holds exactly the big members.
    members = [ball_member(dom, (0.0, 0.0), 0.65),
               ball_member(dom, (0.02, 0.0), 0.65),
               ball_member(dom, (0.0, -0.02), 0.64)]
    for theta in np.linspace(0, 2 * np.pi, 20, endpoint=False):
        ctr = 0.59 * np.array([np.cos(theta), np.sin(theta)])
        ctr = ctr + rng.uniform(-0.005, 0.005, size=2)
        members.append(ball_member(dom, ctr, 0.055))
    return covering.SectionFamily(members)


def test_measure_comparison_empty_X(disc_fine):
    rng = np.random.default_rng(2)
    fam = _comparison_family(disc_fine, rng)
    X = np.zeros_like(disc_fine.interior_mask)
    Y = annulus(disc_fine, 0.45, 0.7)
    out = covering.measure_comparison(X, Y, fam, eps_bar=0.1, mu0=2.0)
    assert out["status"] == "pass"
    assert out["m_X"] == 0.0


def test_measure_comparison_annuli_counting(disc_fine):
    rng = np.random.default_rng(2)
    fam = _comparison_family(disc_fine, rng)
    X = annulus(disc_fine, 0.58, 0.6)
    Y = annulus(disc_fine, 0.45, 0.7)
    out = covering.measure_comparison(X, Y, fam, eps_bar=0.1, mu0=2.0)
    assert out["hypotheses_ok"], (out["hypothesis_1_violations"],
                                  out["hypothesis_2_violations"])
    assert out["status"] == "pass"
    assert out["m_X"] <= out["bound"]


def test_measure_comparison_hypothesis_violation_reported(disc_fine):
    rng = np.random.default_rng(2)
    fam = _comparison_family(disc_fine, rng)
    X = annulus(disc_fine, 0.0, 0.7)  # dense in every big member
    Y = annulus(disc_fine, 0.45, 0.7)
    out = covering.measure_comparison(X, Y, fam, eps_bar=0.1, mu0=2.0)
    assert out["status"] == "hypothesis-violation"
    assert out["passed"] is None
    assert out["hypothesis_1_violations"]


def test_n2_verdicts_and_coverage_match_the_full_box_oracle():
    # n = 2, res 13: engulfing verdicts, Vitali `covered` flags and the
    # dilation inclusion they share equal what the full-box 10-dilation
    # gives through the full-box inclusion and intersection oracles.  At this
    # resolution every member's 10-dilation leaves the box.
    dom = grid.build_domain(2, "ball:1.0", 13)
    rng = np.random.default_rng(0)
    escaped = 0
    inclusions = set()
    for _ in range(2):
        fam, X = cli._random_ball_family(dom, rng)
        members = fam.members
        ten = {}

        def dilated_ten(i):
            if i not in ten:
                ten[i] = dilated_mask(members[i], 10.0)
            return ten[i]

        for i, j in rng.integers(0, len(members), size=(20, 2)):
            p1, p2 = members[int(i)], members[int(j)]
            if p1.mu > 4.0 * p2.mu:
                continue
            if not oracle.sets_intersect(p1, p2):
                want = "not-applicable"
            else:
                inside = oracle.inclusion_with_slack(p1.mask, dilated_ten(int(j)))
                want = "pass" if inside else "fail"
                reach = np.asarray(p2.center_idx) + 10.0 * (
                    np.argwhere(p2.mask) - np.asarray(p2.center_idx))
                escaped += bool(reach.min() < 0 or reach.max() > dom.resolution - 1)
            assert engulfing.check_engulfing(p1, p2) == want

        for target in (X, fam.union_mask()):
            sel = covering.vitali_select(fam, target)
            cover = np.zeros_like(target)
            for i in sel.indices:
                cover |= dilated_ten(i)
            assert sel.covered == oracle.inclusion_with_slack(target, cover)

        # Smaller factors, where the inclusion can fail.
        for c in (1.0, 1.5):
            sets = [members[int(i)] for i in rng.choice(len(members), 3, replace=False)]
            for inner in (sets[0].mask | sets[1].mask, X):
                cover = np.zeros_like(X)
                for s in sets:
                    cover |= dilated_mask(s, c)
                want = oracle.inclusion_with_slack(inner, cover)
                assert engulfing.in_dilations(inner, sets, c) == want
                inclusions.add(want)
    assert escaped >= 1
    assert inclusions == {True, False}
