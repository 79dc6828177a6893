"""The three benchmark workloads: set-up, timed body and correctness gates.

Each workload is a closed loop with one caller: the next body iteration
starts when the previous one has returned.  ``setup`` builds the inputs
from the seed; ``body`` is the timed work and calls the library with its
defaults; ``check`` runs after the clock stops and returns the gates that
failed.  The library sees only the generated inputs, except that
``pipeline_n1`` passes the seed in its ExperimentConfig, as the README's
experiment does.

Calls go through module attributes (``badset.convex_envelope``), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cmalab import badset, cli, covering, engulfing, grid, solver, w2p
from cmalab.errors import CmalabError
from cmalab.grid import GridFunction

NEWTON_TOL = 1e-8            # the library default, asserted by the solve gates
ENVELOPE_DEFECT_TOL = 1e-7   # the convexity tolerance ma_measure applies
EPS = 0.01                   # right-hand side perturbation size
GAMMA = 0.05                 # boundary perturbation of the domains


@dataclass
class Workload:
    name: str
    setup: Callable          # (seed, smoke, work_dir) -> state
    body: Callable           # state -> outcome
    check: Callable          # (state, outcome) -> list of failed gates
    ops: set[str]            # span names counted as operations
    min_iterations: int = 1


# ---------------------------------------------------------------------------
# pipeline_n1: the README's default experiment, end to end


@dataclass
class PipelineState:
    cfg: cli.ExperimentConfig
    work: Path
    first_files: dict | None = None


def pipeline_setup(seed: int, smoke: bool, work: Path) -> PipelineState:
    if smoke:
        cfg = cli.ExperimentConfig(n=1, resolution=33, seed=seed, chain_points=4,
                                   stride=8, engulf_pairs=10, cover_families=2)
    else:
        cfg = cli.ExperimentConfig(n=1, resolution=65, seed=seed)
    return PipelineState(cfg, work)


def pipeline_body(state: PipelineState) -> tuple[dict, Path]:
    out = Path(tempfile.mkdtemp(dir=state.work))
    return cli.run_pipeline(state.cfg, out), out


def pipeline_check(state: PipelineState, outcome) -> list[str]:
    manifest, out = outcome
    try:
        failed = [f"stage {s}: {v}" for s, v in manifest["stages"].items() if v != "ok"]
        certs = json.loads((out / "certificates.json").read_text())
        if not certs["sandwich"]["passed"]:
            failed.append("comparison sandwich failed")
        if not certs["barrier"]["passed"]:
            failed.append("Dirichlet barrier failed")
        engulf = json.loads((out / "engulf.json").read_text())
        if engulf["counts"]["fail"]:
            failed.append(f"{engulf['counts']['fail']} engulfing verdicts are 'fail'")
        rows = json.loads((out / "badset.json").read_text())["rows"]
        if not all(r["passed"] for r in rows):
            failed.append("bad-set decay report: not all rows passed")
    finally:
        shutil.rmtree(out)
    if state.first_files is None:
        state.first_files = manifest["files"]
    elif manifest["files"] != state.first_files:
        failed.append("manifest hashes differ between runs with one seed")
    return failed


# ---------------------------------------------------------------------------
# solve_n2: the n=2 solve and certificate stages (ILU + GMRES path)


@dataclass
class SolveState:
    resolution: int
    f: Callable


def solve_setup(seed: int, smoke: bool, work: Path) -> SolveState:
    ph = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=2)

    def f(pts):
        pts = np.atleast_2d(pts)
        return 1.0 + EPS * np.cos(math.pi * pts[:, 0] + ph[0]) \
            * np.cos(math.pi * pts[:, 2] + ph[1])

    return SolveState(9 if smoke else 17, f)


def solve_body(state: SolveState):
    dom = grid.build_domain(2, f"perturbed:{GAMMA}:harmonic", state.resolution)
    v0, v_rep = solver.solve_dirichlet(dom, 1.0, 0.0)
    u, u_rep = solver.solve_dirichlet(dom, state.f, 0.0)
    return v_rep, u_rep, solver.comparison_sandwich(u, v0, EPS, 2)


def solve_check(state: SolveState, outcome) -> list[str]:
    v_rep, u_rep, cert = outcome
    failed = [f"{name} solve: converged={rep.converged} residual={rep.residual:.2e}"
              for name, rep in (("v0", v_rep), ("u", u_rep))
              if not (rep.converged and rep.residual <= NEWTON_TOL)]
    if not cert.passed:
        failed.append(f"comparison sandwich failed: {cert.to_dict()}")
    return failed


# ---------------------------------------------------------------------------
# analysis_n1: the post-processing layers on saved n=1 instances


@dataclass
class AnalysisState:
    base: Path
    seed: int
    stride: int
    node_sections: list
    families: list = field(default_factory=list)   # (family, target, f values)
    paraboloids: int = 32


def analysis_setup(seed: int, smoke: bool, work: Path) -> AnalysisState:
    dom = grid.build_domain(1, f"perturbed:{GAMMA}:cos3", 33 if smoke else 129)
    # f is the pipeline's default, not seeded: whether the u - v0 envelope
    # converges within its default sweep cap depends on f's phases, so a
    # seeded f would switch that known failure on and off by seed.
    f = cli.ExperimentConfig(eps=EPS).f_function()
    u, u_rep = solver.solve_dirichlet(dom, f, 0.0)
    v0, v_rep = solver.solve_dirichlet(dom, 1.0, 0.0)
    base = work / "instance"
    base.mkdir(exist_ok=True)
    cli.save_instance(u, base / "u", u_rep)
    cli.save_instance(v0, base / "v0", v_rep)
    stride = 8 if smoke else 16
    state = AnalysisState(base, seed, stride,
                          badset.sample_badset_chains(u, v0, stride=stride),
                          paraboloids=4 if smoke else 32)
    rng = np.random.default_rng(seed)
    for _ in range(2 if smoke else 10):
        fam, target = cli._random_ball_family(dom, rng)
        fvals = np.where(dom.interior_mask,
                         np.abs(rng.standard_normal(dom.interior_mask.shape)), 0.0)
        state.families.append((fam, target, fvals))
    return state


def analysis_body(state: AnalysisState) -> dict:
    u = cli.load_instance(state.base / "u")
    v0 = cli.load_instance(state.base / "v0")
    dom = u.domain
    r = np.linalg.norm(dom.coords(), axis=1).reshape(dom.interior_mask.shape)
    region = (r <= 0.9) & dom.valued_mask
    inner = (r <= 0.5) & region
    out = {"region": region, "inner": inner, "envelopes": {}, "errors": {}}

    for c in (0.5, 1.0):
        w = GridFunction(dom, np.where(region, u.values - c * v0.values, np.nan))
        try:
            env = badset.convex_envelope(w, region)
        except CmalabError as exc:
            out["errors"][c] = type(exc).__name__
            continue
        out["envelopes"][c] = (w, env, badset.contact_set(w, env))

    if 0.5 in out["envelopes"]:
        _, env, contact = out["envelopes"][0.5]
        touch = contact & inner
        out["ma"] = badset.ma_measure(env, touch)
        out["subdet"] = badset.subdeterminant_check(u, v0, env, touch)
        nodes = np.argwhere(touch)
        pick = np.random.default_rng(state.seed).choice(
            len(nodes), size=min(state.paraboloids, len(nodes)), replace=False)
        out["paraboloids"] = [badset.touching_paraboloid_opening(
            u, tuple(int(i) for i in nodes[k]), region) for k in pick]

    out["norms"] = {}
    for p in (1.5, 2.0, 4.0):
        report = badset.badset_decay_experiment(
            u, state.node_sections, w2p.eps_bar_recipe(p, dom.n), k_max=3,
            stride=state.stride)
        out["norms"][p] = w2p.norm_report(u, report, p)

    eps_bar = w2p.eps_bar_recipe(2.0, dom.n)
    for fam, target, fvals in state.families:
        covering.vitali_select(fam, target)
        covering.weak_11_certificate(fvals, fam)
        covering.measure_comparison(target, fam.union_mask(), fam, eps_bar, mu0=0.1)

    verdicts = {"pass": 0, "fail": 0, "not-applicable": 0}
    members = state.families[0][0].members
    for a in members:
        for b in members:
            if a is not b and a.mu <= 4.0 * b.mu:
                verdicts[engulfing.check_engulfing(a, b)] += 1
    out["verdicts"] = verdicts
    return out


def analysis_check(state: AnalysisState, out: dict) -> list[str]:
    failed = []
    region, inner = out["region"], out["inner"]
    for c, (w, env, _) in out["envelopes"].items():
        defect = badset.lattice_convexity_defect(env, region)
        if defect > ENVELOPE_DEFECT_TOL:
            failed.append(f"envelope of u - {c} v0: convexity defect {defect:.2e}")
        if not np.all(env.values[region] <= w.values[region]):
            failed.append(f"envelope of u - {c} v0 exceeds w on the region")
    if 0.5 not in out["envelopes"]:
        failed.append(f"envelope of u - 0.5 v0 failed: {out['errors'].get(0.5)}")
    else:
        contact = out["envelopes"][0.5][2]
        frac = (contact & inner).sum() / inner.sum()
        c_measured = (1.0 - frac) / (math.sqrt(EPS) + math.sqrt(GAMMA))
        if c_measured > 1.0:
            failed.append(f"contact fraction {frac:.4f} in B_0.5: C = {c_measured:.3f} > 1")
    failed += [f"norm report p={p} not dominated"
               for p, nr in out["norms"].items() if not nr.dominated]
    if out["verdicts"]["fail"]:
        failed.append(f"{out['verdicts']['fail']} engulfing verdicts are 'fail'")
    return failed


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("pipeline_n1", pipeline_setup, pipeline_body, pipeline_check,
                 ops={"cli.run_pipeline", "sections.chain"}, min_iterations=2),
        Workload("solve_n2", solve_setup, solve_body, solve_check,
                 ops={"grid.build_domain", "solver.solve_dirichlet",
                      "solver.comparison_sandwich"}),
        Workload("analysis_n1", analysis_setup, analysis_body, analysis_check,
                 ops={"cli.load_instance", "badset.convex_envelope",
                      "badset.contact_set", "badset.ma_measure",
                      "badset.subdeterminant_check",
                      "badset.touching_paraboloid_opening",
                      "badset.badset_decay_experiment", "w2p.norm_report",
                      "covering.vitali_select", "covering.weak_11_certificate",
                      "covering.measure_comparison", "engulfing.check_engulfing"}),
    )
}
