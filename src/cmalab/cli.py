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
from contextlib import contextmanager
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
from .solver import certificate_slack, comparison_sandwich, solve_dirichlet

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
    p: float = 2.0
    stride: int = 4
    seed: int = 0
    chain_points: int = 12
    chain_levels: int = 2
    chain_resolution: int | None = None
    engulf_pairs: int = 60
    cover_families: int = 10

    def __post_init__(self):
        if self.n not in _DIM_RESOLUTION:
            raise ValueError("n must be 1 or 2")
        if self.resolution is None:
            self.resolution = _DIM_RESOLUTION[self.n]
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("chain_points", "engulf_pairs", "cover_families"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        self.p = float(self.p)
        if self.chain_resolution is None:
            self.chain_resolution = DIM_CHAIN_RESOLUTION[self.n]
        if self.chain_resolution < 9:
            raise ValueError("chain_resolution must be at least 9")
        if self.chain_resolution % 2 == 0:
            raise ValueError("chain_resolution must be odd")

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
        return self.__dict__.copy()


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
    and the decay rows up to cfg.k_max, against the eps_bar recipe at cfg.p
    (w2p.eps_bar_recipe)."""
    node_sections = badset_mod.sample_badset_chains(
        u, v0, stride=cfg.stride, levels=cfg.chain_levels,
        sigma=cfg.sigma, mu0=cfg.mu0, chain_resolution=cfg.chain_resolution)
    return badset_mod.badset_decay_experiment(
        u, node_sections, w2p_mod.eps_bar_recipe(cfg.p, cfg.n), cfg.k_max,
        stride=cfg.stride, params=params)


# the files the solve stage writes, in this order
_SOLVE_FILES = ("u.bin", "u.meta.json", "v0.bin", "v0.meta.json", "u.csv")


def solve_stage(cfg: ExperimentConfig, out: Path, record: dict
                ) -> tuple[GridFunction, GridFunction]:
    """The solve stage: u for the config's f and v0 for f = 1 on the
    config's domain, saved in out as _SOLVE_FILES.  record["eps_f"] gets
    the distance eps_f of f from 1 first: max|f - 1| over the interior
    nodes for an f_expr, eps for the default f (its amplitude by
    construction).  eps_f > 0.2 is refused before either solve."""
    dom = build_domain(cfg.n, cfg.shape_spec(), cfg.resolution)
    f = cfg.f_function()
    eps_f = record["eps_f"] = cfg.eps if cfg.f_expr is None else float(
        np.max(np.abs(f(dom.coords(dom.interior_mask.ravel())) - 1.0)))
    if not eps_f <= 0.2:
        raise ValueError(f"eps_f = max|f - 1| = {eps_f:.4g} on the interior nodes "
                         f"must lie in [0, 0.2] (perturbative regime)")
    u, urep = solve_dirichlet(dom, f, 0.0)
    v0, vrep = solve_dirichlet(dom, 1.0, 0.0)
    save_instance(u, out / "u", urep)
    save_instance(v0, out / "v0", vrep)
    u.write_csv(out / "u.csv")
    return u, v0


def cover_report(cfg: ExperimentConfig, dom: GridDomain, rng) -> tuple[list, list | None]:
    """The cover stage: cfg.cover_families random ball families on dom, each
    with the Vitali selection of its target set and the weak (1,1)
    certificate of a random density.  Returns the rows of cover.json and
    the first family's weak (1,1) sweep, None with no family."""
    rows = []
    w11_rows = None
    for fam_id in range(cfg.cover_families):
        fam, X = _random_ball_family(dom, rng)
        sel = covering_mod.vitali_select(fam, X)
        fvals = np.where(dom.interior_mask,
                         np.abs(rng.standard_normal(dom.interior_mask.shape)), 0.0)
        w11 = covering_mod.weak_11_certificate(fvals, fam)
        if w11_rows is None:
            w11_rows = w11["rows"]
        rows.append({
            "family": fam_id,
            "selected": sel.indices,
            "disjoint": sel.disjoint,
            "covered": sel.covered,
            "weak11_ok": w11["ok"],
        })
    return rows, w11_rows


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

    @contextmanager
    def stage(name: str):
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            manifest["stages"][name] = f"error: {exc}"
            raise CmalabError(f"pipeline stage {name!r} failed: {exc}") from exc
        timings[name] = round(time.perf_counter() - start, 3)
        manifest["stages"][name] = "ok"

    def emit(name: str, obj) -> None:
        write_json(out / name, obj)
        files.append(out / name)

    try:
        with stage("solve"):
            u, v0 = solve_stage(cfg, out, manifest)
            files += [out / name for name in _SOLVE_FILES]
        dom, eps_f = u.domain, manifest["eps_f"]

        with stage("certificates"):
            cert = comparison_sandwich(u, v0, eps_f, cfg.n)
            pts_int = dom.coords(dom.interior_mask.ravel())
            qv = np.sum(pts_int ** 2, axis=1) - 1.0
            vv = v0.values[dom.interior_mask]
            barrier = {
                "gamma": cfg.gamma,
                "lower_violation": float(np.max((qv - 3 * cfg.gamma) - vv, initial=0.0)),
                "upper_violation": float(np.max(vv - (qv + 3 * cfg.gamma), initial=0.0)),
                "slack": certificate_slack(dom.h),
            }
            barrier["passed"] = bool(
                barrier["lower_violation"] <= barrier["slack"]
                and barrier["upper_violation"] <= barrier["slack"])
            emit("certificates.json", {"sandwich": cert.to_dict(), "barrier": barrier})

        with stage("sections"):
            chains = build_chains(cfg, u, v0,
                                  _sample_base_points(dom, rng, cfg.chain_points))
            emit("chains.json", [c.to_dict() for c in chains])

        with stage("engulf"):
            verdicts, pair_rows = _engulf_pairs(u, chains, rng, cfg.engulf_pairs)
            emit("engulf.json", {"counts": verdicts, "pairs": pair_rows})

        with stage("cover"):
            cover_rows, w11_rows = cover_report(cfg, dom, rng)
            emit("cover.json", cover_rows)
            if w11_rows:
                _write_two_column_csv(out / "plot_weak11.csv", "t", "level_measure",
                                      [(r["t"], r["level_measure"]) for r in w11_rows])
                files.append(out / "plot_weak11.csv")

        with stage("badset"):
            report = decay_report(cfg, u, v0, params={"eps": eps_f, "gamma": cfg.gamma,
                                                      "sigma": cfg.sigma})
            write_badset(out / "badset.json", report)
            _write_two_column_csv(out / "plot_decay.csv", "k", "measure",
                                  [(r.k, r.measure) for r in report.rows])
            files += [out / "badset.json", out / "badset.csv", out / "plot_decay.csv"]

        with stage("w2p"):
            emit("w2p.json", {str(cfg.p): w2p_mod.norm_report(u, report, cfg.p).to_dict()})
    finally:
        # files lists each artifact once it is written
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


# ExperimentConfig fields the subcommands set from flags: field -> (flag, type).
# Every flag defaults to None, which leaves its field at the config's default.
_CONFIG_FLAGS = {
    "n": ("--n", int), "resolution": ("--resolution", int),
    "gamma": ("--gamma", float), "eps": ("--eps", float), "f_expr": ("--f-expr", str),
    "sigma": ("--sigma", float), "mu0": ("--mu0", float),
    "chain_levels": ("--levels", int), "chain_resolution": ("--chain-resolution", int),
    "p": ("--p", float), "k_max": ("--k-max", int), "stride": ("--stride", int),
    "engulf_pairs": ("--pairs", int), "cover_families": ("--families", int),
    "seed": ("--seed", int),
}
# the fields the sections stage reads, and those the badset and w2p stages read
_CHAIN_FIELDS = ("sigma", "mu0", "chain_levels", "chain_resolution")
_DECAY_FIELDS = ("p", "k_max", "stride", *_CHAIN_FIELDS)


def _config_given(args) -> dict:
    """The config flags on the command line, by field name."""
    return {field: getattr(args, field) for field in _CONFIG_FLAGS
            if getattr(args, field, None) is not None}


def _cmd_solve(args) -> int:
    """The solve stage into --out-dir, on the ExperimentConfig of the flags."""
    cfg = ExperimentConfig(**_config_given(args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = {}
    solve_stage(cfg, out, record)
    print(f"solved u and v0 (eps_f = {record['eps_f']:.4g}) -> {out}")
    return 0


def _stage_inputs(args) -> tuple[ExperimentConfig, GridFunction, GridFunction]:
    """The ExperimentConfig of the given flags at the --instance's n, the
    instance u, and v0 from --v0 or else solved on u's domain.  The config
    is checked before v0 is read or solved; a --v0 from another lattice or
    domain raises DomainMismatchError."""
    u = load_instance(Path(args.instance))
    cfg = ExperimentConfig(n=u.domain.n, **_config_given(args))
    if not args.v0:
        return cfg, u, solve_dirichlet(u.domain, 1.0, 0.0)[0]
    v0 = load_instance(Path(args.v0))
    if not (u.domain.same_lattice(v0.domain)
            and u.domain.shape.spec() == v0.domain.shape.spec()):
        raise DomainMismatchError(f"--v0 {args.v0} is not on the instance's lattice")
    return cfg, u, v0


def _cmd_sections(args) -> int:
    cfg, u, v0 = _stage_inputs(args)
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
    """Engulfing verdicts on random section pairs of the --chains file; the
    config (engulf_pairs, seed) is checked before the chains are read."""
    u = load_instance(Path(args.instance))
    cfg = ExperimentConfig(n=u.domain.n, **_config_given(args))
    chains = [SectionChain.from_dict(cd, u.domain)
              for cd in json.loads(Path(args.chains).read_text())]
    verdicts, _ = _engulf_pairs(u, chains, np.random.default_rng(cfg.seed), cfg.engulf_pairs)
    if args.report:
        write_json(Path(args.report), verdicts)
    print(f"engulfing verdicts: {verdicts}")
    return 0 if verdicts["fail"] == 0 else 1


def _cmd_cover(args) -> int:
    """The cover stage on the --instance's domain, with a generator of its
    own seeded by --seed; exits 1 unless every family is disjoint, covered
    and weak (1,1)."""
    u = load_instance(Path(args.instance))
    cfg = ExperimentConfig(n=u.domain.n, **_config_given(args))
    rows, _ = cover_report(cfg, u.domain, np.random.default_rng(cfg.seed))
    if args.report:
        write_json(Path(args.report), rows)
    ok = sum(r["disjoint"] and r["covered"] and r["weak11_ok"] for r in rows)
    print(f"{ok} of {len(rows)} families disjoint, covered and weak (1,1)")
    return 0 if ok == len(rows) else 1


def _cmd_badset(args) -> int:
    cfg, u, v0 = _stage_inputs(args)
    report = decay_report(cfg, u, v0)
    if args.report:
        write_badset(Path(args.report), report)
    for r in report.rows:
        print(f"k={r.k} r_k={r.r_k:.4f} m={r.measure:.5f} bound={r.bound:.5f} "
              f"passed={r.passed} vacuous={r.vacuous}")
    return 0 if report.all_passed() else 1


def _cmd_w2p(args) -> int:
    cfg, u, v0 = _stage_inputs(args)
    nr = w2p_mod.norm_report(u, decay_report(cfg, u, v0), cfg.p)
    if args.report:
        write_json(Path(args.report), nr.to_dict())
    print(f"p={cfg.p}: direct={nr.direct_trace:.4f} "
          f"dyadic={nr.dyadic_trace.total:.4f} dominated={nr.dominated}")
    return 0


def _cmd_pipeline(args) -> int:
    """Run the pipeline on the --config file's settings or else on the
    config flags that were given; main refuses the two together."""
    cfg = ExperimentConfig(**(json.loads(Path(args.config).read_text()) if args.config
                              else _config_given(args)))
    manifest = run_pipeline(cfg, args.out_dir)
    print(f"pipeline complete: {len(manifest['files'])} artifacts in {args.out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmalab",
        description="Numerical laboratory for complex Monge-Ampere "
                    "interior estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, fields=(), inputs=(), report=True):
        """A subparser running func, with the flags of the config fields and
        of the saved inputs (instance, v0) that its stage reads."""
        sp = sub.add_parser(name, help=help)
        if "instance" in inputs:
            sp.add_argument("--instance", required=True,
                            help="base path of a solver cache (without extension)")
        if "v0" in inputs:
            sp.add_argument("--v0", help="solver cache of v0; solved on u's domain if omitted")
        for field in fields:
            flag, kind = _CONFIG_FLAGS[field]
            sp.add_argument(flag, dest=field, type=kind, help=(
                "default 65 for n=1, 33 for n=2" if field == "resolution" else None))
        if report:
            sp.add_argument("--report", default=None)
        sp.set_defaults(func=func)
        return sp

    sp = command("solve", _cmd_solve, "Dirichlet solves of u and v0 on a near-ball domain",
                 ("n", "resolution", "gamma", "eps", "f_expr"), report=False)
    sp.add_argument("--out-dir", dest="out_dir", required=True)

    sp = command("sections", _cmd_sections, "build section chains", _CHAIN_FIELDS,
                 ("instance", "v0"), report=False)
    sp.add_argument("--center", action="append", required=True,
                    help="comma-separated coordinates; repeatable")
    sp.add_argument("--out-chain", dest="out_chain", required=True)

    sp = command("engulf", _cmd_engulf, "engulfing verdict sweep",
                 ("engulf_pairs", "seed"), ("instance",))
    sp.add_argument("--chains", required=True)

    command("cover", _cmd_cover, "Vitali selections and weak (1,1) on random ball families",
            ("cover_families", "seed"), ("instance",))

    command("badset", _cmd_badset, "bad-set decay experiment", _DECAY_FIELDS, ("instance", "v0"))
    command("w2p", _cmd_w2p, "norm accounting", _DECAY_FIELDS, ("instance", "v0"))

    sp = command("pipeline", _cmd_pipeline, "full experiment pipeline",
                 ("n", "resolution", "gamma", "eps", "sigma", "k_max", "stride", "seed"),
                 report=False)
    sp.add_argument("--config", default=None)
    sp.add_argument("--out-dir", dest="out_dir", required=True)

    args = parser.parse_args(argv)
    if args.command == "pipeline" and args.config and (given := _config_given(args)):
        parser.error("--config cannot be combined with "
                     + ", ".join(_CONFIG_FLAGS[field][0] for field in given))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
