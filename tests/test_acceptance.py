"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time

import numpy as np

from cmalab import badset, cli, covering, engulfing, grid, sections, solver, w2p
from cmalab.grid import GridFunction
import oracle
from oracle import dilated_mask


def _report(name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


def _sup_error_vs_quadratic(dom, u):
    pts = dom.coords(dom.valued_mask.ravel())
    exact = np.sum(pts ** 2, axis=1) - 1.0
    got = u.values.ravel()[np.flatnonzero(dom.valued_mask.ravel())]
    return float(np.max(np.abs(got - exact)))


# -- 1. Solver exactness ------------------------------------------------------


def test_acceptance_solver_exactness():
    results = []
    for n, res in ((1, 129), (2, 17)):
        t0 = time.perf_counter()
        dom = grid.build_domain(n, "ball:1.0", res)
        u, _ = solver.solve_dirichlet(dom, 1.0, 0.0)
        runtime = time.perf_counter() - t0
        err = _sup_error_vs_quadratic(dom, u)
        results.append((n, res, err, 5 * dom.h ** 2, runtime))
    ok = all(err <= tol and rt <= 60.0 for _, _, err, tol, rt in results)
    detail = "; ".join(
        f"n={n} res={res} err={err:.2e}<=5h^2={tol:.2e} t={rt:.1f}s"
        for n, res, err, tol, rt in results)
    _report("solver exactness", ok, detail)


# -- 2. Comparison sandwich ---------------------------------------------------


def test_acceptance_comparison_sandwich(perturbed_n2):
    dom, u, v0 = perturbed_n2
    eps = 0.01
    cert = solver.comparison_sandwich(u, v0, eps, 2)
    tol = 4 * eps + solver.certificate_slack(dom.h)
    ok = cert.passed and cert.max_abs_diff <= tol
    _report("comparison sandwich", ok,
            f"max|u-v0|={cert.max_abs_diff:.4f} <= {tol:.4f} (4 eps + 10h^2)")


# -- 3. Dirichlet barrier -----------------------------------------------------


def test_acceptance_dirichlet_barrier(perturbed_n2, perturbed_n1):
    gamma = 0.05
    rows = []
    for dom, _, v0 in (perturbed_n2, perturbed_n1):
        pts = dom.coords(dom.interior_mask.ravel())
        q = np.sum(pts ** 2, axis=1) - 1.0
        vals = v0.values[dom.interior_mask]
        slack = solver.certificate_slack(dom.h)
        lo = float(np.max((q - 3 * gamma) - vals, initial=0.0))
        hi = float(np.max(vals - (q + 3 * gamma), initial=0.0))
        rows.append((dom.n, lo, hi, slack))
    ok = all(lo <= s and hi <= s for _, lo, hi, s in rows)
    _report("dirichlet barrier", ok,
            "; ".join(f"n={n} viol=({lo:.2e},{hi:.2e})<= {s:.2e}"
                      for n, lo, hi, s in rows))


# -- 4. Section fits ----------------------------------------------------------


def test_acceptance_section_fits(perturbed_n1):
    dom, u, v0 = perturbed_n1
    sigma = 0.2
    rng = np.random.default_rng(42)
    base_points = []
    while len(base_points) < 25:
        p = rng.uniform(-0.45, 0.45, size=2)
        idx = dom.node_index(p)
        if np.linalg.norm(p) <= 0.45 and dom.interior_mask[idx] \
                and idx not in base_points:
            base_points.append(idx)
    chain_res = 65
    worst_low = math.inf
    worst_high = math.inf
    for idx in base_points:
        chain = sections.construct_section_chain(
            u, idx, sigma=sigma, k_max=3, v0=v0, chain_resolution=chain_res)
        for lv in chain.levels:
            h_here = dom.h if lv.k == 1 else 2.6 / (chain_res - 1)
            mu_here = chain.mu_top if lv.k == 1 else chain.mu0
            slack = 2.0 * h_here / math.sqrt(mu_here)
            worst_low = min(worst_low, lv.fit_in - (1 - 0.1 * sigma - slack))
            worst_high = min(worst_high, (1 + 0.1 * sigma + slack) - lv.fit_out)
    ok = worst_low >= 0 and worst_high >= 0
    _report("section fits", ok,
            f"25 chains x 3 levels, min margins in/out = "
            f"{worst_low:.3f}/{worst_high:.3f} vs [1 +- 0.1 sigma +- 2h/sqrt(mu)]")


# -- 5. Engulfing ------------------------------------------------------------


def test_acceptance_engulfing(perturbed_n1, ball_n1):
    dom, u, v0 = perturbed_n1
    rng = np.random.default_rng(1234)
    chains = []
    while len(chains) < 30:
        p = rng.uniform(-0.4, 0.4, size=2)
        idx = dom.node_index(p)
        if np.linalg.norm(p) > 0.4 or not dom.interior_mask[idx]:
            continue
        chains.append(sections.construct_section_chain(
            u, idx, sigma=0.2, k_max=2, v0=v0, chain_resolution=33))
    tested = 0
    passed = 0
    attempts = 0
    while tested < 200 and attempts < 5000:
        attempts += 1
        i, j = rng.integers(0, len(chains), size=2)
        c1, c2 = chains[int(i)], chains[int(j)]
        mu2 = c2.mu_top * float(rng.uniform(0.3, 1.0))
        mu1 = min(float(rng.uniform(0.25, 4.0)) * mu2, c1.mu_top)
        if math.sqrt(mu1) < 2 * dom.h or math.sqrt(mu2) < 2 * dom.h:
            continue
        s1 = c1.section(u, mu1)
        s2 = c2.section(u, mu2)
        verdict = engulfing.check_engulfing(s1, s2)
        if verdict == "not-applicable":
            continue
        tested += 1
        passed += verdict == "pass"

    # Exact-ball analytic case: strict inclusion, no slack beyond one cell.
    bdom, bu, _ = ball_n1
    b1 = sections.build_section(bu, bdom.node_index((0.2, 0.0)), 0.04,
                                sections.taylor_split(bu, bdom.node_index((0.2, 0.0)))[0])
    b2 = sections.build_section(bu, bdom.node_index((0.0, 0.1)), 0.02,
                                sections.taylor_split(bu, bdom.node_index((0.0, 0.1)))[0])
    strict = dilated_mask(b2, 10.0)
    analytic_ok = bool(np.all(strict[b1.mask]))

    ok = tested >= 200 and passed == tested and analytic_ok
    _report("engulfing", ok,
            f"{passed}/{tested} intersecting pairs pass (mu1 <= 4 mu2); "
            f"analytic ball case strict={analytic_ok}")


# -- 6. Covering --------------------------------------------------------------


def test_acceptance_covering():
    dom = grid.build_domain(1, "ball:1.0", 97)
    pts = dom.coords()
    rng = np.random.default_rng(77)

    def ball(ctr, rad):
        ci = dom.node_index(ctr)
        dist = np.linalg.norm(pts - dom.coords(ci), axis=1)
        mask = (dist <= rad).reshape(dom.interior_mask.shape) & dom.interior_mask
        return sections.Section.from_mask(dom, ci, mask, mu=rad ** 2)

    all_ok = True
    oracle_checked = 0
    for trial in range(50):
        size = int(rng.integers(6, 13))
        members = []
        while len(members) < size:
            ctr = rng.uniform(-0.55, 0.55, size=2)
            rad = float(rng.uniform(5 * dom.h, 0.25))
            idx = dom.node_index(ctr)
            if not dom.interior_mask[idx]:
                continue
            m = ball(ctr, rad)
            if m.mask[idx]:
                members.append(m)
        fam = covering.SectionFamily(members)
        target = np.zeros_like(dom.interior_mask)
        for i in rng.choice(size, size=max(2, size // 3), replace=False):
            target |= members[int(i)].mask
        sel = covering.vitali_select(fam, target)
        all_ok &= (oracle.pairwise_disjoint([members[i].mask for i in sel.indices])
                   and sel.covered)

        if size <= 12:
            # Brute-force oracle: greedy's selection must be a valid one.
            dilated = [dilated_mask(m, 10.0) for m in members]
            valid = []
            for rset in range(1, 1 << size):
                idxs = [i for i in range(size) if rset & (1 << i)]
                if len(idxs) > len(sel.indices) + 2:
                    continue
                if any(np.any(members[a].mask & members[b].mask)
                       for a, b in itertools.combinations(idxs, 2)):
                    continue
                cover = np.zeros_like(target)
                for i in idxs:
                    cover |= dilated[i]
                if engulfing.inclusion_with_slack(target, cover):
                    valid.append(sorted(idxs))
            if sorted(sel.indices) in valid:
                oracle_checked += 1
            else:
                all_ok = False
    _report("covering", all_ok,
            f"50 random families: selections disjoint + 10-dilations cover; "
            f"brute-force oracle confirmed {oracle_checked} families")


# -- 7. Weak (1,1) ------------------------------------------------------------


def test_acceptance_weak_11():
    dom = grid.build_domain(1, "ball:1.0", 97)
    pts = dom.coords()
    rng = np.random.default_rng(99)

    members = []
    while len(members) < 30:
        ctr = rng.uniform(-0.55, 0.55, size=2)
        rad = float(rng.uniform(0.06, 0.3))
        ci = dom.node_index(ctr)
        if not dom.interior_mask[ci]:
            continue
        dist = np.linalg.norm(pts - dom.coords(ci), axis=1)
        mask = (dist <= rad).reshape(dom.interior_mask.shape) & dom.interior_mask
        if mask[ci]:
            members.append(sections.Section.from_mask(dom, ci, mask, mu=rad ** 2))
    fam = covering.SectionFamily(members)
    worst = 0.0
    ok = True
    for _ in range(20):
        f = np.where(dom.interior_mask,
                     np.abs(rng.standard_normal(dom.interior_mask.shape)), 0.0)
        out = covering.weak_11_certificate(f, fam)
        ok &= out["ok"]
        for row in out["rows"]:
            if row["bound"] > 0:
                worst = max(worst, row["level_measure"] / (row["bound"] / 1.1))
    _report("weak (1,1)", ok,
            f"20 random fields, dyadic t-sweep, constant 10^2 + 10% slack; "
            f"worst level/bound ratio {worst:.3f}")


# -- 8. Contact density ---------------------------------------------------------


def _contact_fraction(dom, u, v0):
    ptsr = np.linalg.norm(dom.coords(), axis=1).reshape(dom.interior_mask.shape)
    region = (ptsr <= 0.9) & dom.valued_mask
    w = GridFunction(dom, np.where(region, u.values - 0.5 * v0.values, np.nan))
    env = badset.convex_envelope(w, region)
    cs = badset.contact_set(w, env, tol=1e-9)
    inner = (ptsr <= 0.5) & region
    return float((cs & inner).sum()) / float(inner.sum())


def test_acceptance_contact_density(ball_n1, perturbed_n1):
    dom, u, _ = ball_n1
    frac_exact = _contact_fraction(dom, u, u)

    eps, gamma = 0.01, 0.05
    denom = math.sqrt(eps) + math.sqrt(gamma)
    cs = {}
    pdom, pu, pv0 = perturbed_n1
    cs[97] = (1.0 - _contact_fraction(pdom, pu, pv0)) / denom
    dom65 = grid.build_domain(1, "perturbed:0.05:cos3", 65)
    f = lambda p: 1.0 + eps * np.cos(2 * np.pi * np.atleast_2d(p)[:, 0]) \
        * np.cos(2 * np.pi * np.atleast_2d(p)[:, 1])
    u65, _ = solver.solve_dirichlet(dom65, f, 0.0)
    v65, _ = solver.solve_dirichlet(dom65, 1.0, 0.0)
    cs[65] = (1.0 - _contact_fraction(dom65, u65, v65)) / denom

    stable = (max(cs.values()) <= 0.05
              or abs(cs[97] - cs[65]) <= 0.3 * max(cs.values()))
    ok = frac_exact >= 0.99 and stable
    _report("contact density", ok,
            f"exact fraction={frac_exact:.4f}>=0.99; measured C at res 65/97 = "
            f"{cs[65]:.4f}/{cs[97]:.4f} (stable within 30% or both negligible)")


# -- 9. Hessian bounds on D_k ----------------------------------------------------


def _chains_out_to(u, v0, stride, radius):
    """Ball-fit records of two-level chains at every stride-th interior node
    within radius; a broken chain gives an empty (bad) record."""
    dom = u.domain
    out = []
    for idx in np.argwhere(dom.interior_mask):
        if np.any(idx % stride) or np.linalg.norm(dom.coords(tuple(idx))) > radius:
            continue
        chain = sections.construct_section_chain(
            u, tuple(int(i) for i in idx), sigma=0.2, k_max=2, v0=v0, chain_resolution=33)
        out.append(badset.section_ball_radii(u, chain))
    return out


def test_acceptance_hessian_bounds(perturbed_n1, ball_n1):
    # The bounds are checked out to radius 0.8, beyond the balls the decay
    # report counts, so these chains are built here.
    rows = []
    for dom, u, v0 in (perturbed_n1, (ball_n1[0], ball_n1[1], ball_n1[1])):
        ns = _chains_out_to(u, v0, stride=6, radius=0.8)
        for k in (1, 2):
            good = badset.classify_Dk(ns, k, dom)
            nodes = [ns[i].idx for i in np.flatnonzero(good)]
            out = badset.hessian_bounds_on_Dk(u, nodes, k)
            rows.append((dom.shape.kind, k, out["violations"], len(nodes)))
    ok = all(v == 0 for _, _, v, _ in rows)
    _report("hessian bounds on D_k", ok,
            "; ".join(f"{kind} k={k}: {v} violations over {n} nodes"
                      for kind, k, v, n in rows))


# -- 10. Decay bookkeeping --------------------------------------------------------


def test_acceptance_decay_bookkeeping(perturbed_n1):
    dom, u, v0 = perturbed_n1
    p = 2.0
    eps_bar = w2p.eps_bar_recipe(p, dom.n)
    ns = badset.sample_badset_chains(u, v0, stride=4, levels=2,
                                     chain_resolution=33)
    rep = badset.badset_decay_experiment(u, ns, eps_bar, k_max=4, stride=4)
    nr = w2p.norm_report(u, rep, p)
    vacuous_flagged = all(r.vacuous == (r.measure == 0.0) for r in rep.rows)
    measures = [r.measure for r in rep.rows]
    monotone = all(b <= a for a, b in zip(measures, measures[1:]))
    ok = (monotone and rep.all_passed() and vacuous_flagged and nr.dominated)
    _report("decay bookkeeping", ok,
            f"rows pass={rep.all_passed()} monotone={monotone} "
            f"vacuous flagged={vacuous_flagged}; direct {nr.direct_trace:.3f} "
            f"<= dyadic {nr.dyadic_trace.total:.3f} (eps_bar={eps_bar:.3e})")


# -- 11. Determinism ---------------------------------------------------------------


def test_acceptance_determinism(tmp_path):
    cfg = cli.ExperimentConfig(
        n=1, resolution=49, gamma=0.05, eps=0.01, sigma=0.2, k_max=2,
        stride=4, seed=3, chain_points=4, chain_levels=2,
        chain_resolution=33, engulf_pairs=10, cover_families=2)
    m1 = cli.run_pipeline(cfg, tmp_path / "a")
    m2 = cli.run_pipeline(cfg, tmp_path / "b")
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in m1["files"])
    ok = identical and set(m1["files"]) == set(m2["files"])
    _report("determinism", ok,
            f"{len(m1['files'])} structured artifacts byte-identical on rerun")
