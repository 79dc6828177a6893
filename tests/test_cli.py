"""Expression language, config validation, subcommands, pipeline artifacts."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cmalab import badset, cli, grid, sections, solver, w2p
from cmalab.errors import CmalabError, DomainMismatchError


# -- expression language -----------------------------------------------------------


def test_expression_basics():
    f = cli.compile_expression("1 + 0.5*cos(pi*x1)*sin(y1)", 2)
    pts = np.array([[0.0, 0.0], [1.0, 0.5]])
    got = f(pts)
    assert got[0] == pytest.approx(1.0 + 0.5 * np.cos(0.0) * np.sin(0.0))
    assert got[1] == pytest.approx(1.0 + 0.5 * np.cos(np.pi) * np.sin(0.5))


def test_expression_radius_variables():
    f = cli.compile_expression("r2 - r", 2)
    pts = np.array([[0.3, 0.4]])
    assert f(pts)[0] == pytest.approx(0.25 - 0.5)


def test_expression_rejects_attributes_and_imports():
    with pytest.raises(ValueError):
        cli.compile_expression("__import__('os')", 2)
    with pytest.raises(ValueError):
        cli.compile_expression("x1.real", 2)
    with pytest.raises(ValueError):
        cli.compile_expression("open('x')", 2)


def test_expression_unknown_variable_rejected():
    f = cli.compile_expression("x2 + 1", 2)  # x2 undefined at n=1
    with pytest.raises(ValueError):
        f(np.zeros((1, 2)))


# -- config validation --------------------------------------------------------------


def test_config_validates_before_compute(tmp_path, tmp_path_factory):
    with pytest.raises(ValueError):
        cli.ExperimentConfig(gamma=0.6)
    with pytest.raises(ValueError):
        cli.ExperimentConfig(eps=0.5)
    with pytest.raises(ValueError):
        cli.ExperimentConfig(mu0=0.5)
    with pytest.raises(ValueError, match="p must"):
        cli.ExperimentConfig(p=0.5)
    with pytest.raises(ValueError):
        cli.ExperimentConfig(chain_levels=0)
    with pytest.raises(ValueError):
        cli.ExperimentConfig(chain_resolution=7)
    # a negative seed used to die in numpy after the output directory was
    # made; negative counts ran their stages empty
    with pytest.raises(ValueError, match="seed must"):
        cli.ExperimentConfig(seed=-1)
    for field in ("chain_points", "engulf_pairs", "cover_families"):
        with pytest.raises(ValueError, match=f"{field} must"):
            cli.ExperimentConfig(**{field: -1})
    with pytest.raises(ValueError, match="seed must"):
        cli.main(["pipeline", "--seed", "-1", "--out-dir", str(tmp_path / "p")])
    # `cmalab solve` had a shape rule of its own, which solved --gamma -0.1
    # on the unit ball
    with pytest.raises(ValueError, match="gamma must"):
        cli.main(["solve", "--resolution", "17", "--gamma", "-0.1",
                  "--out-dir", str(tmp_path / "solve")])
    # `cmalab engulf` read --pairs and --seed outside the config: --pairs -5
    # exited 0 with every count 0, and --seed -1 died in numpy.  The config
    # now refuses both before the chains file (absent here) is read, and
    # `cmalab cover` refuses a negative --families or --seed before it
    # draws a family.
    run = tmp_path_factory.mktemp("engulf")
    cli.main(["solve", "--resolution", "17", "--out-dir", str(run)])
    for flag, value, field in (("--pairs", "-5", "engulf_pairs"), ("--seed", "-1", "seed")):
        with pytest.raises(ValueError, match=f"{field} must"):
            cli.main(["engulf", "--instance", str(run / "u"), "--chains", str(tmp_path / "c.json"),
                      flag, value, "--report", str(tmp_path / "engulf.json")])
    for flag, value, field in (("--families", "-1", "cover_families"), ("--seed", "-1", "seed")):
        with pytest.raises(ValueError, match=f"{field} must"):
            cli.main(["cover", "--instance", str(run / "u"), flag, value,
                      "--report", str(tmp_path / "cover.json")])
    assert not list(tmp_path.iterdir())


def test_config_profile_fits_dimension():
    # Each dimension has its own boundary profile, fixed by n: it is part of
    # the shape spec and no config field.
    assert cli.ExperimentConfig().shape_spec() == "perturbed:0.05:cos3"
    assert cli.ExperimentConfig(n=2, resolution=17).shape_spec() == "perturbed:0.05:harmonic"
    assert "profile" not in cli.ExperimentConfig().to_dict()


def test_config_resolution_defaults_by_dimension():
    # n = 2 gets a lattice whose domain and solves fit in memory; the n = 1
    # default, and with it the n = 1 config hash, stays as it was.
    assert cli.ExperimentConfig().resolution == 65
    assert cli.ExperimentConfig().to_dict() == cli.ExperimentConfig(resolution=65).to_dict()
    assert cli.ExperimentConfig(n=2).resolution == 33
    assert cli.ExperimentConfig(n=2, resolution=17).resolution == 17


@pytest.mark.parametrize("n, res", [(1, 65), (2, 33)])
def test_subcommand_resolution_defaults_by_dimension(tmp_path, monkeypatch, n, res):
    # `solve` and `pipeline` with no --resolution resolve it by the config's rule.
    seen = {}

    class Stop(Exception):
        pass

    def build(n_, shape, resolution):
        seen["solve"] = resolution
        raise Stop

    def run(cfg, out_dir):
        seen["pipeline"] = cfg.resolution
        raise Stop

    monkeypatch.setattr(cli, "build_domain", build)
    monkeypatch.setattr(cli, "run_pipeline", run)
    with pytest.raises(Stop):
        cli.main(["solve", "--n", str(n), "--out-dir", str(tmp_path / "s")])
    with pytest.raises(Stop):
        cli.main(["pipeline", "--n", str(n), "--out-dir", str(tmp_path / "p")])
    assert seen == {"solve": res, "pipeline": res}


def test_config_eps_bar_recipe(monkeypatch):
    # The bad-set stage's density threshold is the recipe at the config's
    # one exponent p, at either dimension; the config has no eps_bar.
    assert cli.ExperimentConfig().p == 2.0
    assert "eps_bar" not in cli.ExperimentConfig().to_dict()
    for n, p in ((1, 2.0), (1, 3.0), (2, 2.0), (2, 3.0)):
        dom = grid.build_domain(n, "ball:1.0", 9)
        u = grid.GridFunction(dom, np.zeros(dom.interior_mask.shape))
        monkeypatch.setattr(badset, "sample_badset_chains", lambda *args, **kwargs: [
            badset.NodeSections((4,) * dom.d, [])])
        report = cli.decay_report(cli.ExperimentConfig(n=n, resolution=9, p=p), u, u)
        assert report.eps_bar == w2p.eps_bar_recipe(p, n)


# -- solve subcommand ----------------------------------------------------------------


def test_solve_subcommand_roundtrip(tmp_path):
    # `cmalab solve` writes what the pipeline's solve stage writes.  On the
    # unit ball with eps 0 the default f is exactly 1, so u and v0 are the
    # f = 1 solve bit for bit.
    rc = cli.main(["solve", "--n", "1", "--resolution", "33", "--gamma", "0", "--eps", "0",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(cli._SOLVE_FILES)
    assert json.loads((tmp_path / "u.meta.json").read_text())["report"]["converged"]

    u = cli.load_instance(tmp_path / "u")
    pts = u.domain.coords(u.domain.interior_mask.ravel())
    exact = np.sum(pts ** 2, axis=1) - 1.0
    assert np.max(np.abs(u.values[u.domain.interior_mask] - exact)) < 1e-8
    ref, rep = solver.solve_dirichlet(grid.build_domain(1, "ball:1.0", 33), 1.0, 0.0)
    cli.save_instance(ref, tmp_path / "ref", rep)
    assert (tmp_path / "ref.bin").read_bytes() == (tmp_path / "u.bin").read_bytes()
    assert (tmp_path / "ref.bin").read_bytes() == (tmp_path / "v0.bin").read_bytes()


def test_solve_subcommand_refuses_f_far_from_one(tmp_path):
    # The pipeline's eps_f refusal, before either solve writes a file.
    with pytest.raises(ValueError, match="eps_f"):
        cli.main(["solve", "--resolution", "33", "--f-expr", "exp(2*x1)",
                  "--out-dir", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_load_instance_refuses_a_sidecar_of_another_dimension(tmp_path):
    # An n=1 cache under a sidecar that says n=2 is refused, not misread.
    u, rep = solver.solve_dirichlet(grid.build_domain(1, "ball:1.0", 9), 1.0, 0.0)
    base = tmp_path / "inst"
    cli.save_instance(u, base, rep)
    meta_path = base.with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text())
    meta["n"] = 2
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(CmalabError, match="cache and meta sidecar disagree"):
        cli.load_instance(base)


def test_solve_subcommand_with_expression(tmp_path):
    rc = cli.main([
        "solve", "--n", "1", "--resolution", "33",
        "--f-expr", "1 + 0.05*cos(pi*x1)",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0


def test_solve_subcommand_profile_fits_dimension(tmp_path):
    # The solve subcommand takes its profile from n, as ExperimentConfig
    # does: harmonic at n = 2.  An n with no profile is refused as such.
    rc = cli.main(["solve", "--n", "2", "--resolution", "9", "--gamma", "0.05",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "u.meta.json").read_text())
    assert meta["shape"] == {"kind": "perturbed_ball", "gamma": 0.05, "profile": "harmonic"}
    with pytest.raises(ValueError, match="n must be 1 or 2"):
        cli.main(["solve", "--n", "3", "--gamma", "0.05", "--out-dir", str(tmp_path / "n3")])


# -- sections / engulf subcommands ----------------------------------------------------


def test_sections_and_engulf_subcommands(tmp_path):
    base = tmp_path / "u"
    cli.main(["solve", "--n", "1", "--resolution", "65", "--gamma", "0", "--eps", "0",
              "--out-dir", str(tmp_path)])
    chains = tmp_path / "chains.json"
    rc = cli.main([
        "sections", "--instance", str(base), "--center", "0.1,0.0",
        "--center=-0.1,0.1", "--sigma", "0.2", "--levels", "2",
        "--chain-resolution", "33", "--out-chain", str(chains),
    ])
    assert rc == 0
    data = json.loads(chains.read_text())
    assert len(data) == 2
    assert len(data[0]["levels"]) == 2

    rc = cli.main([
        "engulf", "--instance", str(base), "--chains", str(chains),
        "--pairs", "10", "--seed", "3", "--report", str(tmp_path / "eng.json"),
    ])
    assert rc == 0
    counts = json.loads((tmp_path / "eng.json").read_text())
    assert counts["fail"] == 0


def test_engulf_needs_two_chains_with_a_level(tmp_path, capsys):
    # Pairs are drawn only from chains that built a level, and none when
    # fewer than two did.  One chain was paired with itself --pairs times,
    # and an empty file died in numpy with "high <= 0".
    base = tmp_path / "u"
    cli.main(["solve", "--n", "1", "--resolution", "17", "--eps", "0", "--out-dir", str(tmp_path)])
    intact, broken = tmp_path / "intact.json", tmp_path / "broken.json"
    lines = []
    for path, centre in ((intact, "0.1,0.0"), (broken, "0.7,0.0")):
        capsys.readouterr()
        cli.main(["sections", "--instance", str(base), "--center", centre,
                  "--out-chain", str(path)])
        lines.append(capsys.readouterr().out.splitlines())
    assert lines == [[f"built 1 chains -> {intact}"],
                     [f"built 1 chains -> {broken}", "  1 broken at level 1: SectionEscapeError"]]
    (broken_chain,) = json.loads(broken.read_text())
    assert broken_chain["levels"] == [] and broken_chain["broken"][:2] == [1, "SectionEscapeError"]
    files = {"one": json.loads(intact.read_text()), "none": [],
             "one with a level": json.loads(intact.read_text()) + [broken_chain]}
    for name, chains in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(chains))
        report = tmp_path / f"{name}.report.json"
        assert cli.main(["engulf", "--instance", str(base), "--chains", str(path),
                         "--pairs", "5", "--report", str(report)]) == 0
        assert json.loads(report.read_text()) == {"pass": 0, "fail": 0, "not-applicable": 0}


# -- cover subcommand ------------------------------------------------------------------


def _full_box_ball_family(dom, rng):
    """_random_ball_family as it was, with each try's distances taken over
    the whole box."""
    members = 24
    pts = dom.coords()
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
        dist = np.linalg.norm(pts - dom.coords(idx), axis=1).reshape(
            dom.interior_mask.shape)
        mask = (dist <= rad) & dom.interior_mask
        if not mask[idx]:
            continue
        fam_members.append(sections.Section.from_mask(dom, idx, mask, rad * rad))
    k = max(2, len(fam_members) // 3)
    X = np.zeros_like(dom.interior_mask)
    for i in rng.choice(len(fam_members), size=k, replace=False):
        X |= fam_members[int(i)].mask
    return fam_members, X


@pytest.mark.parametrize("n, res", [(1, 129), (2, 17)])
def test_random_ball_family_matches_the_full_box(n, res):
    # Distances taken in a window around each candidate ball give the same
    # members, heights and target set, and leave the generator where the
    # full-box draws leave it.
    dom = grid.build_domain(n, "ball:1.0", res)
    for seed in (0, 1):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fam, X = cli._random_ball_family(dom, rng)
        ref, ref_X = _full_box_ball_family(dom, ref_rng)
        assert len(fam.members) == len(ref)
        for m, r in zip(fam.members, ref):
            assert m.center_idx == r.center_idx and m.mu == r.mu
            assert np.array_equal(m.mask, r.mask)
        assert np.array_equal(X, ref_X)
        assert rng.random() == ref_rng.random()


def test_cover_subcommand(tmp_path):
    # `cmalab cover` runs the pipeline's cover stage on the instance's
    # domain with a generator of its own; every family is disjoint, covered
    # and weak (1,1), so it exits 0.
    cli.main(["solve", "--resolution", "33", "--out-dir", str(tmp_path)])
    report = tmp_path / "cover.json"
    assert cli.main(["cover", "--instance", str(tmp_path / "u"), "--families", "3",
                     "--seed", "4", "--report", str(report)]) == 0
    rows = json.loads(report.read_text())
    dom = cli.load_instance(tmp_path / "u").domain
    cfg = cli.ExperimentConfig(cover_families=3, seed=4)
    assert rows == cli.cover_report(cfg, dom, np.random.default_rng(4))[0]
    assert [r["family"] for r in rows] == [0, 1, 2]
    assert all(r["disjoint"] and r["covered"] and r["weak11_ok"] for r in rows)


def test_cover_subcommand_exits_1_on_a_failed_family(tmp_path, monkeypatch, capsys):
    cli.main(["solve", "--resolution", "17", "--out-dir", str(tmp_path)])
    rows = [{"family": 0, "selected": [0], "disjoint": True, "covered": True, "weak11_ok": True},
            {"family": 1, "selected": [0], "disjoint": True, "covered": True, "weak11_ok": False}]
    monkeypatch.setattr(cli, "cover_report", lambda cfg, dom, rng: (rows, None))
    assert cli.main(["cover", "--instance", str(tmp_path / "u")]) == 1
    assert "1 of 2 families" in capsys.readouterr().out


# -- pipeline ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    cfg = cli.ExperimentConfig(
        n=1, resolution=49, gamma=0.05, eps=0.01, sigma=0.2, k_max=2,
        stride=4, seed=7, chain_points=4, chain_levels=2,
        chain_resolution=33, engulf_pairs=12, cover_families=2)
    d1 = tmp_path_factory.mktemp("run1")
    d2 = tmp_path_factory.mktemp("run2")
    m1 = cli.run_pipeline(cfg, d1)
    m2 = cli.run_pipeline(cfg, d2)
    return d1, d2, m1, m2


def test_pipeline_deterministic(pipeline_runs):
    d1, d2, m1, m2 = pipeline_runs
    assert set(m1["files"]) == set(m2["files"])
    for name in m1["files"]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    assert m1["config_hash"] == m2["config_hash"]


def test_pipeline_manifest_complete(pipeline_runs):
    d1, _, m1, _ = pipeline_runs
    assert all(m1["stages"][s] == "ok" for s in m1["stages"])
    for name, digest in m1["files"].items():
        assert (d1 / name).exists()
        assert cli.sha256_file(d1 / name) == digest
    expected = {"u.bin", "u.meta.json", "v0.bin", "v0.meta.json", "u.csv",
                "certificates.json", "chains.json", "engulf.json",
                "cover.json", "badset.json", "badset.csv", "w2p.json"}
    assert expected <= set(m1["files"])


def test_pipeline_artifacts_content(pipeline_runs):
    d1, _, _, _ = pipeline_runs
    certs = json.loads((d1 / "certificates.json").read_text())
    assert certs["sandwich"]["passed"]
    assert certs["barrier"]["passed"]
    bs = json.loads((d1 / "badset.json").read_text())
    assert all(r["passed"] for r in bs["rows"])
    eng = json.loads((d1 / "engulf.json").read_text())
    assert eng["counts"]["fail"] == 0
    lines = (d1 / "badset.csv").read_text().strip().splitlines()
    assert lines[0].startswith("k,r_k,measure")


def test_compare_artifacts_tool(pipeline_runs, tmp_path, capsys):
    # Two runs of one config compare identical; one perturbed JSON float
    # shows up as exactly its own difference.
    spec = importlib.util.spec_from_file_location(
        "compare_artifacts",
        Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    d1, d2, m1, _ = pipeline_runs
    assert tool.main([str(d1), str(d2)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split()[0] for line in lines) == sorted([*m1["files"], "manifest.json"])
    assert all(line.split()[1:] == ["identical"] for line in lines)

    copy = tmp_path / "perturbed"
    shutil.copytree(d2, copy)
    data = json.loads((copy / "badset.json").read_text())
    before = data["m_b07"]
    data["m_b07"] = before * (1 + 1e-9)
    (copy / "badset.json").write_text(cli._canonical_json(data))
    assert tool.main([str(d1), str(copy)]) == 0
    report = {line.split()[0]: line.split(None, 1)[1]
              for line in capsys.readouterr().out.splitlines()}
    assert report.pop("badset.json") == (
        f"max|d| {abs(data['m_b07'] - before):.3g}, 0 other differences")
    assert set(report.values()) == {"identical"}


def test_pipeline_writes_unhashed_stage_timings(pipeline_runs):
    d1, _, m1, _ = pipeline_runs
    timings = json.loads((d1 / "timings.json").read_text())
    assert set(timings) == {"solve", "certificates", "sections", "engulf", "cover",
                            "badset", "w2p"}
    assert all(t >= 0.0 for t in timings.values())
    assert "timings.json" not in m1["files"]


def test_pipeline_n2_runs_every_stage(tmp_path):
    # At this n = 2 res-17 config the level-2 chain domains need boundary
    # constraints resting on interior nodes only; then every stage runs.
    cfg = cli.ExperimentConfig(n=2, resolution=17, chain_points=4, engulf_pairs=10,
                               cover_families=2, k_max=2, stride=8)
    m = cli.run_pipeline(cfg, tmp_path / "n2")
    assert m["stages"] == {s: "ok" for s in ("solve", "certificates", "sections", "engulf",
                                             "cover", "badset", "w2p")}
    assert len(m["files"]) == 14


def test_pipeline_n2_even_res20_runs_every_stage(tmp_path):
    # An even n = 2 lattice coarsens through the V-cycle like an odd one;
    # res 20 used to be refused, because its V-cycle stopped at the whole
    # lattice and factoring that would have taken more than 1.5 GiB.
    m = cli.run_pipeline(cli.ExperimentConfig(n=2, resolution=20), tmp_path / "n2")
    assert m["stages"] == {s: "ok" for s in ("solve", "certificates", "sections", "engulf",
                                             "cover", "badset", "w2p")}


_FOOTPRINT_CHILD = """
import json, sys
from cmalab.cli import ExperimentConfig, run_pipeline
cfg = ExperimentConfig(n=1, resolution=33, chain_points=4, stride=8, engulf_pairs=10,
                       cover_families=2)
run_pipeline(cfg, sys.argv[1])
print(json.dumps([m for m in ("scipy.ndimage", "scipy.spatial") if m in sys.modules]))
"""


def test_pipeline_loads_neither_ndimage_nor_spatial(tmp_path):
    # Imports are most of a pipeline run's peak memory.  The library's
    # dilations and components are lattice-native (grid.grow,
    # grid.component), and the pipeline builds no convex envelope, the one
    # user of scipy.spatial; a fresh interpreter sees what a run loads.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT_CHILD, str(tmp_path)], env=env,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == []


def test_pipeline_stage_error_recorded_in_manifest(tmp_path, monkeypatch):
    # A stage that raises: the manifest records it, and the error propagates
    # by name.
    def no_chains(*args, **kwargs):
        raise CmalabError("no chains today")

    monkeypatch.setattr(cli, "build_chains", no_chains)
    cfg = cli.ExperimentConfig(n=1, resolution=9, gamma=0.0, eps=0.0,
                               chain_points=2, stride=2)
    with pytest.raises(CmalabError, match="sections"):
        cli.run_pipeline(cfg, tmp_path / "broken")
    out = tmp_path / "broken"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"]["sections"] == "error: no chains today"
    assert manifest["stages"]["solve"] == "ok"
    # timings.json holds the completed stages, and the manifest hashes every
    # file written before the failure.
    assert set(json.loads((out / "timings.json").read_text())) == {"solve", "certificates"}
    written = ["u.bin", "u.meta.json", "v0.bin", "v0.meta.json", "u.csv", "certificates.json"]
    assert manifest["files"] == {name: cli.sha256_file(out / name) for name in written}


@pytest.mark.parametrize("settings, breaks", [
    ({"resolution": 17, "seed": 0}, {(2, "SectionFitError"): 5}),
    ({"resolution": 17, "seed": 1}, {(2, "SectionFitError"): 4}),
    ({"n": 2, "resolution": 18}, {(2, "DegeneracyError"): 1}),
    ({"resolution": 9}, {(1, "SectionEscapeError"): 11, (2, "SectionFitError"): 1}),
])
def test_pipeline_records_broken_chains(tmp_path, settings, breaks):
    # A broken chain is recorded in chains.json, with the levels it built,
    # and the pipeline goes on.  The first three configs aborted in stage
    # sections; at res 9 at most one chain has a level, so no engulfing
    # pair is drawn.
    m = cli.run_pipeline(cli.ExperimentConfig(**settings), tmp_path)
    assert m["stages"] == {s: "ok" for s in ("solve", "certificates", "sections", "engulf",
                                             "cover", "badset", "w2p")}
    chains = json.loads((tmp_path / "chains.json").read_text())
    assert Counter(tuple(c["broken"][:2]) for c in chains if "broken" in c) == breaks
    assert all(len(c["levels"]) == c["broken"][0] - 1 for c in chains if "broken" in c)


def test_pipeline_n2_eps_bar_follows_p(tmp_path):
    # Regression: the bad-set report was built at the first p's eps_bar and
    # read for every p, so at n = 2 the entry "3.0" of a (2.0, 3.0) p list
    # rested on the p = 2 threshold 2.41e-7 and its dyadic trace ratio read
    # 5.  The one p now sets both.
    cfg = cli.ExperimentConfig(n=2, resolution=17, p=3.0, chain_points=4, engulf_pairs=10,
                               cover_families=2, k_max=2, stride=8)
    cli.run_pipeline(cfg, tmp_path)
    bs = json.loads((tmp_path / "badset.json").read_text())
    assert bs["eps_bar"] == w2p.eps_bar_recipe(3.0, 2) == pytest.approx(2.41e-8, rel=1e-3)
    norms = json.loads((tmp_path / "w2p.json").read_text())
    assert list(norms) == ["3.0"]
    assert norms["3.0"]["dyadic_trace"]["ratio"] == pytest.approx(0.5)
    # `badset --p` reproduces the run's report at its p.
    assert cli.main(["badset", "--instance", str(tmp_path / "u"), "--v0", str(tmp_path / "v0"),
                     "--p", "3.0", "--k-max", "2", "--stride", "8",
                     "--report", str(tmp_path / "bs.json")]) == int(not all(
                         r["passed"] for r in bs["rows"]))
    assert (tmp_path / "bs.csv").read_bytes() == (tmp_path / "badset.csv").read_bytes()


def test_pipeline_refuses_f_far_from_one(tmp_path):
    # exp(2 x1) lies 6.65 from 1 on the res-65 interior: outside the
    # perturbative regime, refused before the solve writes anything.
    from cmalab.errors import CmalabError

    cfg = cli.ExperimentConfig(n=1, resolution=65, f_expr="exp(2*x1)")
    with pytest.raises(CmalabError, match="eps_f"):
        cli.run_pipeline(cfg, tmp_path / "far")
    assert not (tmp_path / "far" / "u.bin").exists()
    manifest = json.loads((tmp_path / "far" / "manifest.json").read_text())
    assert manifest["eps_f"] == pytest.approx(6.65, abs=0.01)
    assert "eps_f" in manifest["stages"]["solve"]


def test_pipeline_sandwich_bound_uses_eps_f(tmp_path):
    # An f_expr 0.15 from 1 is certified against 4 eps_f, not 4 eps, and the
    # bad-set parameters record eps_f.
    cfg = cli.ExperimentConfig(n=1, resolution=17, gamma=0.0, eps=0.01,
                               f_expr="1 + 0.15*cos(2*pi*x1)", chain_points=1,
                               k_max=1, stride=8, engulf_pairs=0, cover_families=0)
    m = cli.run_pipeline(cfg, tmp_path / "near")
    assert m["eps_f"] == pytest.approx(0.15, abs=1e-12)
    certs = json.loads((tmp_path / "near" / "certificates.json").read_text())
    assert certs["sandwich"]["bound"] == 4.0 * m["eps_f"]
    bs = json.loads((tmp_path / "near" / "badset.json").read_text())
    assert bs["params"]["eps"] == m["eps_f"]


def test_badset_and_w2p_subcommands(tmp_path):
    base = tmp_path / "u"
    cli.main(["solve", "--n", "1", "--resolution", "49", "--gamma", "0", "--eps", "0",
              "--out-dir", str(tmp_path)])
    rc = cli.main([
        "badset", "--instance", str(base), "--k-max", "3", "--stride", "6",
        "--report", str(tmp_path / "bs.json"),
    ])
    assert rc == 0
    rows = json.loads((tmp_path / "bs.json").read_text())["rows"]
    assert len(rows) == 3 and all(r["passed"] for r in rows)
    assert (tmp_path / "bs.csv").exists()

    rc = cli.main([
        "w2p", "--instance", str(base), "--p", "2.0", "--stride", "6",
        "--report", str(tmp_path / "np.json"),
    ])
    assert rc == 0
    rep = json.loads((tmp_path / "np.json").read_text())
    assert rep["dominated"]

    # The saved v0 (the f = 1 solve on the same domain) gives the same
    # reports as the v0 the subcommands solve for themselves.
    for cmd, report, extra in (("badset", "bs_v0.json", ["--k-max", "3"]),
                               ("w2p", "np_v0.json", ["--p", "2.0"])):
        rc = cli.main([cmd, "--instance", str(base), "--v0", str(tmp_path / "v0"),
                       "--stride", "6", "--report", str(tmp_path / report), *extra])
        assert rc == 0
    assert (json.loads((tmp_path / "bs_v0.json").read_text())["rows"]
            == json.loads((tmp_path / "bs.json").read_text())["rows"])
    assert (json.loads((tmp_path / "np_v0.json").read_text())
            == json.loads((tmp_path / "np.json").read_text()))


@pytest.mark.parametrize("cmd", ["badset", "w2p", "sections"])
def test_decay_subcommands_use_the_pipeline_chain_resolution(tmp_path, monkeypatch, cmd):
    # At n=2 the subcommands build chains on the lattice the n=2 pipeline
    # uses, not on the planar one.
    base = tmp_path / "u"
    cli.main(["solve", "--n", "2", "--resolution", "9", "--gamma", "0", "--eps", "0",
              "--out-dir", str(tmp_path)])
    seen = []

    def record(u, v0, **kwargs):
        seen.append(kwargs.get("chain_resolution"))
        return [badset.NodeSections((4, 4, 4, 4), [])]

    class ChainStub:
        broken = None

        def to_dict(self):
            return {}

    def record_chain(u, idx, **kwargs):
        seen.append(kwargs.get("chain_resolution"))
        return ChainStub()

    monkeypatch.setattr(badset, "sample_badset_chains", record)
    monkeypatch.setattr(cli, "construct_section_chain", record_chain)
    extra = (["--center", "0,0,0,0", "--out-chain", str(tmp_path / "c.json")]
             if cmd == "sections" else ["--k-max", "1"])
    cli.main([cmd, "--instance", str(base), *extra])
    assert seen == [cli.ExperimentConfig(n=2).chain_resolution]


@pytest.mark.parametrize("settings, flags, badset_rc", [
    ({}, [], 0),
    ({"sigma": 0.3, "mu0": 0.2, "chain_levels": 3, "chain_resolution": 35},
     ["--sigma", "0.3", "--mu0", "0.2", "--levels", "3", "--chain-resolution", "35"], 1),
], ids=["defaults", "chain-settings"])
def test_stage_subcommands_reproduce_the_pipeline_artifacts(tmp_path, settings, flags,
                                                            badset_rc):
    # Given the flags of the run's config, the stage subcommands run the
    # pipeline's own stage code and write the pipeline's numbers, from
    # `cmalab solve` on.  badset and w2p used to take no --sigma, --mu0 or
    # --chain-resolution, and w2p no --levels.  Every decay row passes at the
    # defaults; at the second settings broken chains fail row 3, so badset
    # exits 1.
    run, solved = tmp_path / "run", tmp_path / "solved"
    cli.run_pipeline(cli.ExperimentConfig(n=1, resolution=33, chain_points=2,
                                          engulf_pairs=4, cover_families=1, **settings), run)
    assert cli.main(["solve", "--n", "1", "--resolution", "33", "--out-dir", str(solved)]) == 0
    for name in cli._SOLVE_FILES:
        assert (solved / name).read_bytes() == (run / name).read_bytes(), name
    inputs = ["--instance", str(solved / "u"), "--v0", str(solved / "v0"), *flags]

    want = json.loads((run / "badset.json").read_text())
    assert cli.main(["badset", *inputs, "--report", str(tmp_path / "bs.json")]) == badset_rc
    got = json.loads((tmp_path / "bs.json").read_text())
    assert got.pop("params") == {}
    want.pop("params")
    assert got == want
    assert (tmp_path / "bs.csv").read_bytes() == (run / "badset.csv").read_bytes()

    assert cli.main(["w2p", *inputs, "--report", str(tmp_path / "np.json")]) == 0
    assert (json.loads((tmp_path / "np.json").read_text())
            == json.loads((run / "w2p.json").read_text())["2.0"])

    centres = [f"--center={','.join(repr(x) for x in c['center'])}"
               for c in json.loads((run / "chains.json").read_text())]
    assert cli.main(["sections", *inputs, *centres,
                     "--out-chain", str(tmp_path / "chains.json")]) == 0
    assert (tmp_path / "chains.json").read_bytes() == (run / "chains.json").read_bytes()

    # cover draws from a generator of its own, so only the schema is the run's
    assert cli.main(["cover", "--instance", str(solved / "u"), "--families", "1",
                     "--report", str(tmp_path / "cover.json")]) == 0
    (got,), (want,) = (json.loads(path.read_text())
                       for path in (tmp_path / "cover.json", run / "cover.json"))
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


@pytest.mark.parametrize("argv", [
    ["badset", "--stride", "0"],
    ["badset", "--k-max", "0"],
    ["w2p", "--stride", "0"],
    ["w2p", "--k-max", "0"],
], ids=["badset-stride", "badset-k-max", "w2p-stride", "w2p-k-max"])
def test_stage_subcommands_check_stride_and_k_max(tmp_path, monkeypatch, argv):
    # Stride 0 used to sample a chain at every node and report every row
    # passed with cell measure 0; k_max 0 reported no rows.  Both exited 0.
    cli.main(["solve", "--n", "1", "--resolution", "17", "--gamma", "0", "--eps", "0",
              "--out-dir", str(tmp_path)])

    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(badset, "construct_section_chain", no_chain)
    with pytest.raises(ValueError):
        cli.main([*argv, "--instance", str(tmp_path / "u"), "--v0", str(tmp_path / "v0")])


def test_sections_center_with_too_few_coordinates_is_refused(tmp_path):
    # At n = 1 a one-coordinate --center was broadcast over both axes: the
    # subcommand exited 0 with a chain at (0.125, 0.125).
    base = tmp_path / "u"
    cli.main(["solve", "--n", "1", "--resolution", "17", "--gamma", "0", "--eps", "0",
              "--out-dir", str(tmp_path)])
    with pytest.raises(ValueError, match="2 coordinates"):
        cli.main(["sections", "--instance", str(base), "--center", "0.1",
                  "--out-chain", str(tmp_path / "c.json")])
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("v0_shape, v0_resolution", [
    ("perturbed:0.05:cos3", 21),
    ("ball:1.0", 17),
    ("ball:1.05", 17),
], ids=["other-resolution", "other-box", "same-lattice-other-shape"])
def test_v0_from_another_domain_is_refused(tmp_path, v0_shape, v0_resolution):
    # A --v0 solved on another lattice or shape would be read node by node
    # as if it were the instance's own.
    cli.main(["solve", "--n", "1", "--resolution", "17", "--eps", "0",
              "--out-dir", str(tmp_path)])
    v0, rep = solver.solve_dirichlet(grid.build_domain(1, v0_shape, v0_resolution), 1.0, 0.0)
    cli.save_instance(v0, tmp_path / "other", rep)
    for cmd, *extra in (["badset"], ["w2p"],
                        ["sections", "--center", "0,0", "--out-chain", str(tmp_path / "c.json")]):
        with pytest.raises(DomainMismatchError):
            cli.main([cmd, "--instance", str(tmp_path / "u"), "--v0", str(tmp_path / "other"),
                      *extra])
    assert not (tmp_path / "c.json").exists()


def test_pipeline_plot_exports(pipeline_runs):
    d1, _, m1, _ = pipeline_runs
    assert "plot_decay.csv" in m1["files"]
    assert "plot_weak11.csv" in m1["files"]
    decay = (d1 / "plot_decay.csv").read_text().strip().splitlines()
    assert decay[0] == "k,measure"
    w11 = (d1 / "plot_weak11.csv").read_text().strip().splitlines()
    assert w11[0] == "t,level_measure"
    assert len(w11) >= 5


def test_pipeline_cli_entry(tmp_path):
    rc = cli.main([
        "pipeline", "--out-dir", str(tmp_path / "out"), "--n", "1",
        "--resolution", "33", "--gamma", "0.0", "--eps", "0.0",
        "--k-max", "2", "--stride", "4", "--seed", "1",
    ])
    assert rc == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def _stub_pipeline(monkeypatch):
    """Stub run_pipeline; the returned list receives each config it gets."""
    seen = []

    def run(cfg, out_dir):
        seen.append(cfg)
        return {"files": {}}

    monkeypatch.setattr(cli, "run_pipeline", run)
    return seen


def test_pipeline_flags_and_config_file_reach_the_config(tmp_path, monkeypatch):
    # The flags given set their fields and the rest keep the config's
    # defaults; a --config file's fields all reach the config, f_expr too.
    seen = _stub_pipeline(monkeypatch)
    out = str(tmp_path / "out")
    cli.main(["pipeline", "--out-dir", out, "--seed", "5", "--n", "2"])
    settings = {"n": 1, "resolution": 17, "seed": 7, "chain_points": 3,
                "f_expr": "1 + 0.01*x1", "p": 3.0}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    cli.main(["pipeline", "--out-dir", out, "--config", str(config)])
    assert [cfg.to_dict() for cfg in seen] == [
        cli.ExperimentConfig(n=2, seed=5).to_dict(),
        cli.ExperimentConfig(**settings).to_dict()]
    assert seen[1].f_expr == "1 + 0.01*x1" and seen[1].p == 3.0


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--n", "2"], ["--k-max", "2"]])
def test_pipeline_refuses_config_with_flags(tmp_path, monkeypatch, capsys, flag):
    # Regression: --config with other flags ran the file's config and
    # dropped the flags without a word.
    seen = _stub_pipeline(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 1, "resolution": 17}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", "--out-dir", str(tmp_path / "out"),
                  "--config", str(config), *flag])
    assert exc.value.code == 2 and not seen
    assert "--config cannot be combined with " + flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("newton_tol", 1e-8), ("profile", "cos3"),
                                          ("eps_bar", "recipe"), ("p_list", [2.0])])
def test_pipeline_config_with_a_deleted_field_is_refused(tmp_path, field, value):
    # An old manifest's config names the deleted settings; such a file is
    # refused before any stage writes a file.
    settings = dict(cli.ExperimentConfig(resolution=17).to_dict(), **{field: value})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    out = tmp_path / "out"
    with pytest.raises(TypeError, match=field):
        cli.main(["pipeline", "--out-dir", str(out), "--config", str(config)])
    assert not out.exists()
