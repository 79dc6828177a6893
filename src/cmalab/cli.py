"""Experiment orchestration and command-line interface.

Subcommands: solve, sections, engulf, cover, badset, w2p, pipeline.
A pipeline run writes a solver cache, chain JSONs, verdict tables, the
bad-set CSV, the norm report, and a manifest with a config hash and content
hashes of every artifact; reruns with the same config and seed are
byte-identical in all JSON/CSV outputs.
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import math
import operator
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import badset as badset_mod
from . import covering as covering_mod
from . import engulfing as engulfing_mod
from . import w2p as w2p_mod
from .errors import CmalabError, DomainMismatchError
from .grid import GridDomain, GridFunction, build_domain, read_cache
from .sections import DIM_CHAIN_RESOLUTION, Section, SectionChain, construct_section_chain
from .solver import comparison_sandwich, solve_dirichlet

_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
    "abs": np.abs, "atan2": np.arctan2, "log": np.log,
}
_CONSTS = {"pi": math.pi, "e": math.e}
_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.USub: operator.neg, ast.UAdd: operator.pos,
}


def compile_expression(expr: str, d: int):
    """Small arithmetic expression language over the node coordinates.

    Variables: x1, y1 (and x2, y2 for n = 2), r = |z|, r2 = |z|^2; constants
    pi, e; functions sin, cos, exp, sqrt, abs, log, atan2.  Evaluated
    vectorized over points; anything outside the whitelist is rejected.
    """
    tree = ast.parse(expr, mode="eval")
    allowed = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
               ast.Call, ast.Load, *_OPS)
    for node in ast.walk(tree):
        if not isinstance(node, allowed):
            raise ValueError(f"expression token {type(node).__name__} not allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ValueError("only whitelisted function calls are allowed")

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        names = {"x1": pts[:, 0], "y1": pts[:, 1]}
        if d >= 4:
            names["x2"] = pts[:, 2]
            names["y2"] = pts[:, 3]
        names["r2"] = np.sum(pts ** 2, axis=1)
        names["r"] = np.sqrt(names["r2"])
        names.update(_CONSTS)

        # Past the whitelist a node is a constant, a name, an operation or
        # a whitelisted call.
        def rec(node):
            if isinstance(node, ast.Constant):
                return float(node.value)
            if isinstance(node, ast.Name):
                if node.id not in names:
                    raise ValueError(f"unknown variable {node.id!r}")
                return names[node.id]
            if isinstance(node, ast.BinOp):
                return _OPS[type(node.op)](rec(node.left), rec(node.right))
            if isinstance(node, ast.UnaryOp):
                return _OPS[type(node.op)](rec(node.operand))
            return _FUNCS[node.func.id](*[rec(a) for a in node.args])

        out = rec(tree.body)
        return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()

    return evaluate


# ---------------------------------------------------------------------------
# Experiment configuration


# cos3 is the planar boundary profile, harmonic the 4-dimensional one
_DIM_PROFILE = {1: "cos3", 2: "harmonic"}
# default experiment lattice; at n = 2 res 65 exceeds the memory cap
_DIM_RESOLUTION = {1: 65, 2: 33}


def _resolution_for(n: int, resolution: int | None) -> int:
    """The experiment lattice resolution: the dimension's default when None."""
    if n not in _DIM_RESOLUTION:
        raise ValueError("n must be 1 or 2")
    return _DIM_RESOLUTION[n] if resolution is None else resolution


@dataclass
class ExperimentConfig:
    n: int = 1
    resolution: int | None = None
    gamma: float = 0.05
    eps: float = 0.01
    f_expr: str | None = None
    sigma: float = 0.2
    mu0: float = 0.1
    k_max: int = 3
    eps_bar: str | float = "recipe"
    p_list: tuple = (2.0,)
    stride: int = 4
    seed: int = 0
    chain_points: int = 12
    chain_levels: int = 2
    chain_resolution: int | None = None
    engulf_pairs: int = 60
    cover_families: int = 10

    def __post_init__(self):
        self.resolution = _resolution_for(self.n, self.resolution)
        if self.resolution < 9:
            raise ValueError("resolution must be at least 9")
        if not 0.0 <= self.gamma < 0.5:
            raise ValueError("gamma must lie in [0, 0.5)")
        if not 0.0 <= self.eps <= 0.2:
            raise ValueError("eps must lie in [0, 0.2] (perturbative regime)")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0.01 <= self.mu0 <= 0.25:
            raise ValueError("mu0 must lie in [0.01, 0.25]")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.chain_levels < 1:
            raise ValueError("chain_levels must be at least 1")
        if isinstance(self.eps_bar, str):
            if self.eps_bar != "recipe":
                raise ValueError("eps_bar must be a float or 'recipe'")
        elif not 0.0 < self.eps_bar < 1.0:
            raise ValueError("eps_bar must lie in (0, 1)")
        if any(p < 1 for p in self.p_list):
            raise ValueError("every p must be at least 1")
        self.p_list = tuple(float(p) for p in self.p_list)
        if self.chain_resolution is None:
            self.chain_resolution = DIM_CHAIN_RESOLUTION[self.n]
        if self.chain_resolution < 9:
            raise ValueError("chain_resolution must be at least 9")
        if self.chain_resolution % 2 == 0:
            raise ValueError("chain_resolution must be odd")

    def eps_bar_value(self, p: float) -> float:
        if self.eps_bar == "recipe":
            return w2p_mod.eps_bar_recipe(p, self.n)
        return float(self.eps_bar)

    def shape_spec(self) -> str:
        if self.gamma == 0.0:
            return "ball:1.0"
        return f"perturbed:{self.gamma}:{_DIM_PROFILE[self.n]}"

    def f_function(self):
        if self.f_expr is not None:
            return compile_expression(self.f_expr, 2 * self.n)
        eps = self.eps

        def default_f(pts):
            pts = np.atleast_2d(pts)
            return 1.0 + eps * np.cos(2.0 * math.pi * pts[:, 0]) * np.cos(2.0 * math.pi * pts[:, 1])

        return default_f

    def to_dict(self) -> dict:
        out = self.__dict__.copy()
        out["p_list"] = list(self.p_list)
        return out


# ---------------------------------------------------------------------------
# Artifact helpers


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _nonfinite_as_strings(obj):
    """obj with every non-finite float replaced by its repr ("nan", "inf")."""
    if isinstance(obj, dict):
        return {k: _nonfinite_as_strings(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_nonfinite_as_strings(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path: Path, obj) -> None:
    path.write_text(_canonical_json(_nonfinite_as_strings(obj)))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def save_instance(u: GridFunction, base: Path, report) -> dict:
    """Write the binary cache and a meta sidecar holding the solve report;
    returns meta."""
    base = Path(base)
    u.write_cache(base.with_suffix(".bin"))
    meta = {
        "n": u.domain.n,
        "resolution": u.domain.resolution,
        "h": u.domain.h,
        "shape": u.domain.shape.spec(),
        "report": report.to_dict(),
    }
    write_json(base.with_suffix(".meta.json"), meta)
    return meta


def load_instance(base: Path) -> GridFunction:
    base = Path(base)
    meta = json.loads(base.with_suffix(".meta.json").read_text())
    n, resolution, h, values = read_cache(base.with_suffix(".bin"))
    dom = build_domain(meta["n"], meta["shape"], meta["resolution"])
    if dom.n != n or dom.resolution != resolution or abs(dom.h - h) > 1e-12:
        raise CmalabError("cache and meta sidecar disagree")
    out = np.full_like(values, np.nan)
    out[dom.valued_mask] = values[dom.valued_mask]
    return GridFunction(dom, out)


# ---------------------------------------------------------------------------
# Pipeline


def _sample_base_points(dom: GridDomain, rng, count: int):
    radius = 0.45
    pts = []
    tries = 0
    while len(pts) < count and tries < 100 * count:
        tries += 1
        p = rng.uniform(-radius, radius, size=dom.d)
        if np.linalg.norm(p) > radius:
            continue
        idx = dom.node_index(p)
        if dom.interior_mask[idx] and idx not in pts:
            pts.append(idx)
    return pts


def build_chains(cfg: ExperimentConfig, u: GridFunction, v0: GridFunction,
                 centres) -> list[SectionChain]:
    """The sections stage: a chain of cfg.chain_levels levels at each centre
    (a node index of u's lattice)."""
    return [construct_section_chain(
                u, idx, sigma=cfg.sigma, k_max=cfg.chain_levels, mu0=cfg.mu0,
                chain_resolution=cfg.chain_resolution, v0=v0)
            for idx in centres]


def decay_report(cfg: ExperimentConfig, u: GridFunction, v0: GridFunction,
                 params: dict | None = None) -> badset_mod.BadSetReport:
    """The badset stage: chains at the stride-lattice nodes inside B_{r_1}
    and the decay rows up to cfg.k_max, with eps_bar taken at the first p."""
    node_sections = badset_mod.sample_badset_chains(
        u, v0, stride=cfg.stride, levels=cfg.chain_levels,
        sigma=cfg.sigma, mu0=cfg.mu0, chain_resolution=cfg.chain_resolution)
    return badset_mod.badset_decay_experiment(
        u, node_sections, cfg.eps_bar_value(cfg.p_list[0]), cfg.k_max,
        stride=cfg.stride, params=params)


def _eps_f(cfg: ExperimentConfig, dom: GridDomain, f) -> float:
    """Distance eps_f of f from 1: max|f - 1| over the interior nodes for an
    f_expr, eps for the default f (its amplitude by construction)."""
    if cfg.f_expr is None:
        return cfg.eps
    return float(np.max(np.abs(f(dom.coords(dom.interior_mask.ravel())) - 1.0)))


def run_pipeline(cfg: ExperimentConfig, out_dir) -> dict:
    """Run solve -> chains -> engulf/cover -> badset -> w2p, writing all
    artifacts plus a hash manifest.  Stage failures are recorded in the
    manifest and re-raised with the stage name.  The manifest records eps_f,
    which the sandwich certifies against and the bad-set parameters record;
    eps_f > 0.2 is refused before either solve.  timings.json holds the wall
    seconds of each completed stage; the manifest does not hash it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": hashlib.sha256(
            _canonical_json(cfg.to_dict()).encode()).hexdigest(),
        "version": __version__,
        "stages": {},
        "files": {},
    }
    files: list[Path] = []
    timings: dict[str, float] = {}
    clock = time.perf_counter()

    def stage_done(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        timings[name] = round(now - clock, 3)
        clock = now
        manifest["stages"][name] = "ok"

    stage = "init"
    try:
        stage = "solve"
        dom = build_domain(cfg.n, cfg.shape_spec(), cfg.resolution)
        f = cfg.f_function()
        eps_f = manifest["eps_f"] = _eps_f(cfg, dom, f)
        if not eps_f <= 0.2:
            raise ValueError(f"eps_f = max|f - 1| = {eps_f:.4g} on the interior nodes "
                             f"must lie in [0, 0.2] (perturbative regime)")
        u, urep = solve_dirichlet(dom, f, 0.0)
        v0, vrep = solve_dirichlet(dom, 1.0, 0.0)
        save_instance(u, out / "u", urep)
        save_instance(v0, out / "v0", vrep)
        u.write_csv(out / "u.csv")
        files += [out / "u.bin", out / "u.meta.json", out / "v0.bin",
                  out / "v0.meta.json", out / "u.csv"]
        stage_done("solve")

        stage = "certificates"
        cert = comparison_sandwich(u, v0, eps_f, cfg.n)
        pts_int = dom.coords(dom.interior_mask.ravel())
        qv = np.sum(pts_int ** 2, axis=1) - 1.0
        vv = v0.values[dom.interior_mask]
        barrier = {
            "gamma": cfg.gamma,
            "lower_violation": float(np.max((qv - 3 * cfg.gamma) - vv, initial=0.0)),
            "upper_violation": float(np.max(vv - (qv + 3 * cfg.gamma), initial=0.0)),
            "slack": 10.0 * dom.h ** 2,
        }
        barrier["passed"] = bool(
            barrier["lower_violation"] <= barrier["slack"]
            and barrier["upper_violation"] <= barrier["slack"])
        write_json(out / "certificates.json",
                   {"sandwich": cert.to_dict(), "barrier": barrier})
        files.append(out / "certificates.json")
        stage_done("certificates")

        stage = "sections"
        chains = build_chains(cfg, u, v0, _sample_base_points(dom, rng, cfg.chain_points))
        write_json(out / "chains.json", [c.to_dict() for c in chains])
        files.append(out / "chains.json")
        stage_done("sections")

        stage = "engulf"
        verdicts, pair_rows = _engulf_pairs(u, chains, rng, cfg.engulf_pairs)
        write_json(out / "engulf.json", {"counts": verdicts, "pairs": pair_rows})
        files.append(out / "engulf.json")
        stage_done("engulf")

        stage = "cover"
        cover_out = []
        w11_rows = None
        for fam_id in range(cfg.cover_families):
            fam, X = _random_ball_family(dom, rng)
            sel = covering_mod.vitali_select(fam, X)
            fvals = np.where(dom.interior_mask,
                             np.abs(rng.standard_normal(dom.interior_mask.shape)), 0.0)
            w11 = covering_mod.weak_11_certificate(fvals, fam)
            if w11_rows is None:
                w11_rows = w11["rows"]
            cover_out.append({
                "family": fam_id,
                "selected": sel.indices,
                "disjoint": sel.disjoint,
                "covered": sel.covered,
                "weak11_ok": w11["ok"],
            })
        write_json(out / "cover.json", cover_out)
        files.append(out / "cover.json")
        if w11_rows:
            _write_two_column_csv(out / "plot_weak11.csv", "t", "level_measure",
                                  [(r["t"], r["level_measure"]) for r in w11_rows])
            files.append(out / "plot_weak11.csv")
        stage_done("cover")

        stage = "badset"
        report = decay_report(cfg, u, v0, params={"eps": eps_f, "gamma": cfg.gamma,
                                                  "sigma": cfg.sigma})
        write_badset(out / "badset.json", report)
        _write_two_column_csv(out / "plot_decay.csv", "k", "measure",
                              [(r.k, r.measure) for r in report.rows])
        files += [out / "badset.json", out / "badset.csv", out / "plot_decay.csv"]
        stage_done("badset")

        stage = "w2p"
        write_json(out / "w2p.json", {str(p): w2p_mod.norm_report(u, report, p).to_dict()
                                      for p in cfg.p_list})
        files.append(out / "w2p.json")
        stage_done("w2p")
    except Exception as exc:
        manifest["stages"][stage] = f"error: {exc}"
        manifest["files"] = {f.name: sha256_file(f) for f in files if f.exists()}
        write_json(out / "manifest.json", manifest)
        write_json(out / "timings.json", timings)
        raise CmalabError(f"pipeline stage {stage!r} failed: {exc}") from exc

    manifest["files"] = {f.name: sha256_file(f) for f in files}
    write_json(out / "manifest.json", manifest)
    write_json(out / "timings.json", timings)
    return manifest


def _engulf_pairs(u: GridFunction, chains: list, rng, pairs: int) -> tuple[dict, list]:
    """Engulfing verdicts on random section pairs drawn from the chains
    with a built level, none when fewer than two have one.  Both heights
    stay at or below their chain's mu_top, whose section the chain cut
    without escape when it was built; a pair that cannot be cut raises,
    and is never skipped."""
    usable = [i for i, c in enumerate(chains) if c.levels]
    verdicts = {"pass": 0, "fail": 0, "not-applicable": 0}
    rows = []
    for _ in range(pairs if len(usable) >= 2 else 0):
        i, j = (usable[int(a)] for a in rng.integers(0, len(usable), size=2))
        c1, c2 = chains[i], chains[j]
        mu2 = c2.mu_top * float(rng.uniform(0.4, 1.0))
        mu1 = min(float(rng.uniform(0.25, 4.0)) * mu2, c1.mu_top)
        v = engulfing_mod.check_engulfing(c1.section(u, mu1), c2.section(u, mu2))
        verdicts[v] += 1
        rows.append({"i": i, "j": j, "mu1": mu1, "mu2": mu2, "verdict": v})
    return verdicts, rows


def _random_ball_family(dom: GridDomain, rng):
    members = 24
    pts = dom.coords().reshape(dom.interior_mask.shape + (dom.d,))
    rad_lo = 2.5 * dom.h
    rad_hi = max(4.5 * dom.h, 0.3)
    ctr_range = max(0.1, 0.9 - rad_hi - 2 * dom.h)
    fam_members = []
    tries = 0
    while len(fam_members) < members and tries < 100 * members:
        tries += 1
        ctr = rng.uniform(-ctr_range, ctr_range, size=dom.d)
        rad = float(rng.uniform(rad_lo, rad_hi))
        idx = dom.node_index(ctr)
        if not dom.interior_mask[idx]:
            continue
        # the ball's nodes lie within ceil(rad/h) index steps of its center;
        # one step more absorbs the rounding of the axis coordinates
        reach = math.ceil(rad / dom.h) + 1
        win = tuple(slice(max(i - reach, 0), i + reach + 1) for i in idx)
        dist = np.linalg.norm(pts[win] - dom.coords(idx), axis=-1)
        mask = np.zeros_like(dom.interior_mask)
        mask[win] = (dist <= rad) & dom.interior_mask[win]
        if not mask[idx]:
            continue
        fam_members.append(Section.from_mask(dom, idx, mask, rad * rad))
    fam = covering_mod.SectionFamily(fam_members, comparability=8.0)
    k = max(2, len(fam_members) // 3)
    X = np.zeros_like(dom.interior_mask)
    for i in rng.choice(len(fam_members), size=k, replace=False):
        X |= fam_members[int(i)].mask
    return fam, X


def write_badset(path: Path, report) -> None:
    """The decay report as JSON at path and as a CSV table beside it."""
    write_json(path, report.to_dict())
    with open(path.with_suffix(".csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "r_k", "measure", "measure_b06", "bound", "ratio",
                    "passed", "vacuous"])
        for r in report.rows:
            w.writerow([r.k, f"{r.r_k:.10g}", f"{r.measure:.10g}",
                        f"{r.measure_b06:.10g}", f"{r.bound:.10g}",
                        f"{r.ratio:.10g}", int(r.passed), int(r.vacuous)])


def _write_two_column_csv(path: Path, col_a: str, col_b: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([col_a, col_b])
        for a, b in rows:
            w.writerow([f"{a:.10g}", f"{b:.10g}"])


# ---------------------------------------------------------------------------
# Subcommands


def _add_instance_args(sp):
    sp.add_argument("--instance", required=True,
                    help="base path of a solver cache (without extension)")


def _cmd_solve(args) -> int:
    resolution = _resolution_for(args.n, args.resolution)
    dom = build_domain(args.n, _shape_from_args(args), resolution)
    f = compile_expression(args.f_expr, dom.d) if args.f_expr else 1.0
    u, rep = solve_dirichlet(dom, f, 0.0)
    if args.out:
        save_instance(u, Path(args.out), rep)
        if args.csv:
            u.write_csv(Path(args.out).with_suffix(".csv"))
    if args.report:
        write_json(Path(args.report), rep.to_dict())
    print(f"solved: iterations={rep.iterations} residual={rep.residual:.3e} "
          f"min_eig={rep.min_eigenvalue:.3e}")
    return 0


def _shape_from_args(args) -> str:
    """The shape spec of the solve flags; n must already be checked."""
    if args.gamma and args.gamma > 0:
        return f"perturbed:{args.gamma}:{_DIM_PROFILE[args.n]}"
    return f"ball:{args.radius}"


def _stage_inputs(args, **settings) -> tuple[ExperimentConfig, GridFunction, GridFunction]:
    """The ExperimentConfig of the given settings at the --instance's n, the
    instance u, and v0 from --v0 or else solved on u's domain.  The config
    is checked before v0 is read or solved; a --v0 from another lattice or
    domain raises DomainMismatchError."""
    u = load_instance(Path(args.instance))
    cfg = ExperimentConfig(n=u.domain.n, **settings)
    if not args.v0:
        return cfg, u, solve_dirichlet(u.domain, 1.0, 0.0)[0]
    v0 = load_instance(Path(args.v0))
    if not (u.domain.same_lattice(v0.domain)
            and u.domain.shape.spec() == v0.domain.shape.spec()):
        raise DomainMismatchError(f"--v0 {args.v0} is not on the instance's lattice")
    return cfg, u, v0


def _cmd_sections(args) -> int:
    cfg, u, v0 = _stage_inputs(args, sigma=args.sigma, mu0=args.mu0,
                               chain_levels=args.levels,
                               chain_resolution=args.chain_resolution)
    centres = [u.domain.node_index(np.array([float(x) for x in spec.split(",")]))
               for spec in args.center]
    chains = build_chains(cfg, u, v0, centres)
    write_json(Path(args.out_chain), [c.to_dict() for c in chains])
    print(f"built {len(chains)} chains -> {args.out_chain}")
    broken = Counter(c.broken[:2] for c in chains if c.broken)
    for (level, cause), count in sorted(broken.items()):
        print(f"  {count} broken at level {level}: {cause}")
    return 0


def _cmd_engulf(args) -> int:
    u = load_instance(Path(args.instance))
    chains = [SectionChain.from_dict(cd, u.domain)
              for cd in json.loads(Path(args.chains).read_text())]
    verdicts, _ = _engulf_pairs(u, chains, np.random.default_rng(args.seed), args.pairs)
    if args.report:
        write_json(Path(args.report), verdicts)
    print(f"engulfing verdicts: {verdicts}")
    return 0 if verdicts["fail"] == 0 else 1


def _node_mask(shape: tuple, idx, what: str) -> np.ndarray:
    """Mask of the listed node indices (rows); an index off the lattice
    raises instead of wrapping to the far side of the box."""
    idx = np.array(idx, dtype=int, ndmin=2)
    if idx.shape[1] != len(shape) or np.any((idx < 0) | (idx >= shape)):
        raise ValueError(f"{what} lists a node off the {shape} lattice")
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(idx.T)] = True
    return mask


def _cmd_cover(args) -> int:
    data = json.loads(Path(args.family).read_text())
    shape = tuple(data["shape"])
    members = [Section(m["center"], _node_mask(shape, m["nodes"], f"member {i}"),
                       data["lo"], data["h"], m["mu"])
               for i, m in enumerate(data["members"])]
    fam = covering_mod.SectionFamily(members)
    target = _node_mask(shape, np.loadtxt(Path(args.target_set), delimiter=",",
                                          dtype=int, ndmin=2), "--target-set")
    sel = covering_mod.vitali_select(fam, target)
    result = {"selected": sel.indices, "disjoint": sel.disjoint,
              "covered": sel.covered,
              "witnesses": [list(wit) for wit in sel.witnesses]}
    if args.report:
        write_json(Path(args.report), result)
    print(f"selected {len(sel.indices)} members; disjoint={sel.disjoint} "
          f"covered={sel.covered}")
    return 0 if sel.disjoint and sel.covered else 1


def _cmd_badset(args) -> int:
    cfg, u, v0 = _stage_inputs(
        args, eps_bar="recipe" if args.eps_bar is None else args.eps_bar,
        p_list=(args.recipe_p,), k_max=args.k_max, stride=args.stride,
        chain_levels=args.levels)
    report = decay_report(cfg, u, v0)
    if args.report:
        write_badset(Path(args.report), report)
    for r in report.rows:
        print(f"k={r.k} r_k={r.r_k:.4f} m={r.measure:.5f} bound={r.bound:.5f} "
              f"passed={r.passed} vacuous={r.vacuous}")
    return 0 if report.all_passed() else 1


def _cmd_w2p(args) -> int:
    cfg, u, v0 = _stage_inputs(args, p_list=(args.p,), k_max=args.k_max,
                               stride=args.stride)
    nr = w2p_mod.norm_report(u, decay_report(cfg, u, v0), args.p)
    if args.report:
        write_json(Path(args.report), nr.to_dict())
    print(f"p={args.p}: direct={nr.direct_trace:.4f} "
          f"dyadic={nr.dyadic_trace.total:.4f} dominated={nr.dominated}")
    return 0


# the pipeline's config flags; each defaults to None, which leaves its
# ExperimentConfig field at the field's default
_PIPELINE_FLAGS = ("n", "resolution", "gamma", "eps", "sigma", "k_max", "stride", "seed")


def _pipeline_flags_given(args) -> dict:
    """The pipeline config flags on the command line, by field name."""
    return {name: getattr(args, name) for name in _PIPELINE_FLAGS
            if getattr(args, name) is not None}


def _cmd_pipeline(args) -> int:
    """Run the pipeline on the --config file's settings or else on the
    config flags that were given; main refuses the two together."""
    cfg = ExperimentConfig(**(json.loads(Path(args.config).read_text()) if args.config
                              else _pipeline_flags_given(args)))
    manifest = run_pipeline(cfg, args.out_dir)
    print(f"pipeline complete: {len(manifest['files'])} artifacts in {args.out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmalab",
        description="Numerical laboratory for complex Monge-Ampere "
                    "interior estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="Dirichlet solve on a near-ball domain")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--resolution", type=int, default=None,
                    help="default 65 for n=1, 33 for n=2")
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--f-expr", dest="f_expr", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("sections", help="build section chains")
    _add_instance_args(sp)
    sp.add_argument("--v0", default=None)
    sp.add_argument("--center", action="append", required=True,
                    help="comma-separated coordinates; repeatable")
    sp.add_argument("--sigma", type=float, default=ExperimentConfig.sigma)
    sp.add_argument("--mu0", type=float, default=ExperimentConfig.mu0)
    sp.add_argument("--levels", type=int, default=ExperimentConfig.chain_levels)
    sp.add_argument("--chain-resolution", dest="chain_resolution", type=int)
    sp.add_argument("--out-chain", dest="out_chain", required=True)
    sp.set_defaults(func=_cmd_sections)

    sp = sub.add_parser("engulf", help="engulfing verdict sweep")
    _add_instance_args(sp)
    sp.add_argument("--chains", required=True)
    sp.add_argument("--pairs", type=int, default=ExperimentConfig.engulf_pairs)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=_cmd_engulf)

    sp = sub.add_parser("cover", help="Vitali selection on a family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--target-set", dest="target_set", required=True)
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=_cmd_cover)

    sp = sub.add_parser("badset", help="bad-set decay experiment")
    _add_instance_args(sp)
    sp.add_argument("--v0", default=None)
    sp.add_argument("--eps-bar", dest="eps_bar", type=float, default=None)
    sp.add_argument("--recipe-p", dest="recipe_p", type=float, default=2.0)
    sp.add_argument("--k-max", dest="k_max", type=int, default=ExperimentConfig.k_max)
    sp.add_argument("--stride", type=int, default=ExperimentConfig.stride)
    sp.add_argument("--levels", type=int, default=ExperimentConfig.chain_levels)
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=_cmd_badset)

    sp = sub.add_parser("w2p", help="norm accounting")
    _add_instance_args(sp)
    sp.add_argument("--v0", default=None)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--k-max", dest="k_max", type=int, default=ExperimentConfig.k_max)
    sp.add_argument("--stride", type=int, default=ExperimentConfig.stride)
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=_cmd_w2p)

    sp = sub.add_parser("pipeline", help="full experiment pipeline")
    sp.add_argument("--config", default=None)
    sp.add_argument("--out-dir", dest="out_dir", required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--resolution", type=int, default=None,
                    help="default 65 for n=1, 33 for n=2")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--sigma", type=float, default=None)
    sp.add_argument("--k-max", dest="k_max", type=int, default=None)
    sp.add_argument("--stride", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=_cmd_pipeline)

    args = parser.parse_args(argv)
    if args.command == "pipeline" and args.config and (given := _pipeline_flags_given(args)):
        parser.error("--config cannot be combined with "
                     + ", ".join("--" + name.replace("_", "-") for name in given))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
