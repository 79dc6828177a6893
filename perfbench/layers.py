"""Which library functions the traced run wraps, and the per-layer metrics
derived from its spans and counts.

Every function is wrapped at each name a caller looks it up by, so a call
is seen whichever module makes it.  Span names are ``<layer>.<function>``.
"""

from __future__ import annotations

import os
from pathlib import Path


# -- counts taken from return values --------------------------------------


def _bc_mix(tracer, dom, args, kwargs):
    bc = dom.bc_table
    idx1, idx2 = bc["idx1"], bc["idx2"]
    tracer.counters["grid.boundary_nodes"] += int(idx1.size)
    tracer.counters["grid.bc_quad_nodes"] += int((idx2 >= 0).sum())
    tracer.counters["grid.bc_lin_nodes"] += int(((idx1 >= 0) & (idx2 < 0)).sum())
    tracer.counters["grid.bc_anchor_nodes"] += int((idx1 < 0).sum())


def _written(tracer, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["grid.io.write_bytes"] += os.path.getsize(path)


def _newton(tracer, result, args, kwargs):
    tracer.counters["solver.newton_iters"] += int(result[1].iterations)


def _nodes(tracer, result, args, kwargs):
    tracer.counters["badset.nodes_sampled"] += len(result)
    tracer.counters["badset.nodes_empty"] += sum(1 for ns in result if not ns.radii)


def _verdict(tracer, result, args, kwargs):
    tracer.counters[f"engulfing.verdict.{result}"] += 1


def _artifacts(tracer, result, args, kwargs):
    out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    tracer.counters["cli.artifact_bytes"] += sum(
        p.stat().st_size for p in out.iterdir() if p.is_file())


# (names the function is looked up by, span name, post hook)
WRAPS = [
    (["cmalab.grid.build_domain", "cmalab.cli.build_domain",
      "cmalab.sections.build_domain"], "grid.build_domain", _bc_mix),
    (["cmalab.grid.interp_multilinear", "cmalab.engulfing.interp_multilinear"],
     "grid.interp", None),
    (["cmalab.grid.hessian_fields", "cmalab.solver.hessian_fields",
      "cmalab.w2p.hessian_fields"], "grid.hessian_fields", None),
    (["cmalab.grid.GridFunction.write_cache", "cmalab.grid.GridFunction.write_csv"],
     "grid.io.write", _written),
    (["cmalab.grid.read_cache", "cmalab.cli.read_cache"], "grid.io.read", None),
    (["cmalab.solver.solve_dirichlet", "cmalab.cli.solve_dirichlet",
      "cmalab.sections.solve_dirichlet"], "solver.solve_dirichlet", _newton),
    (["cmalab.solver.spla.spilu"], "solver.spilu", None),
    (["cmalab.solver.spla.gmres"], "solver.gmres", None),
    (["cmalab.solver.spla.spsolve"], "solver.spsolve", None),
    (["cmalab.solver.comparison_sandwich", "cmalab.cli.comparison_sandwich"],
     "solver.comparison_sandwich", None),
    (["cmalab.sections.construct_section_chain", "cmalab.cli.construct_section_chain",
      "cmalab.badset.construct_section_chain"], "sections.chain", None),
    (["cmalab.sections.rescale_to_unit"], "sections.rescale_to_unit", None),
    (["cmalab.sections.build_section"], "sections.build_section", None),
    (["cmalab.sections.fit_ellipsoid"], "sections.fit_ellipsoid", None),
    (["cmalab.sections.taylor_split"], "sections.taylor_split", None),
    (["cmalab.badset.sample_badset_chains"], "badset.sample_badset_chains", _nodes),
    (["cmalab.badset.badset_decay_experiment"], "badset.badset_decay_experiment", None),
    (["cmalab.badset.convex_envelope"], "badset.convex_envelope", None),
    (["cmalab.badset.contact_set"], "badset.contact_set", None),
    (["cmalab.badset.ma_measure"], "badset.ma_measure", None),
    (["cmalab.badset.subdeterminant_check"], "badset.subdeterminant_check", None),
    (["cmalab.badset.touching_paraboloid_opening"],
     "badset.touching_paraboloid_opening", None),
    (["cmalab.engulfing.check_engulfing"], "engulfing.check_engulfing", _verdict),
    (["cmalab.covering.vitali_select"], "covering.vitali_select", None),
    (["cmalab.covering.weak_11_certificate"], "covering.weak_11_certificate", None),
    (["cmalab.covering.maximal_function"], "covering.maximal_function", None),
    (["cmalab.covering.measure_comparison"], "covering.measure_comparison", None),
    (["cmalab.w2p.norm_report"], "w2p.norm_report", None),
    (["cmalab.cli.run_pipeline"], "cli.run_pipeline", _artifacts),
    (["cmalab.cli.load_instance"], "cli.load_instance", None),
    (["cmalab.cli.save_instance"], "cli.save_instance", None),
]


def install(tracer, only: set[str] | None = None) -> None:
    """Wrap every entry of WRAPS (or those whose span name is in ``only``)."""
    if only is None or only & {"solver.spilu", "solver.gmres", "solver.spsolve"}:
        tracer.proxy_module("cmalab.solver.spla")
    for dotted_names, name, post in WRAPS:
        if only is not None and name not in only:
            continue
        for dotted in dotted_names:
            tracer.wrap(dotted, name, post)


# -- per-layer metrics ------------------------------------------------------

CHAIN_FAILURE_CAUSES = [("ChainBrokenError", 1), ("ChainBrokenError", 2),
                        ("ChainBrokenError", -1)]

# (metric, unit, source kind, span or counter name)
PER_LAYER = [
    ("grid.build_domain.calls", "count", "calls", "grid.build_domain"),
    ("grid.build_domain.self_s", "s", "self", "grid.build_domain"),
    ("grid.interp.calls", "count", "calls", "grid.interp"),
    ("grid.interp.self_s", "s", "self", "grid.interp"),
    ("grid.boundary_nodes", "count", "counter", "grid.boundary_nodes"),
    ("grid.bc_quad_nodes", "count", "counter", "grid.bc_quad_nodes"),
    ("grid.bc_lin_nodes", "count", "counter", "grid.bc_lin_nodes"),
    ("grid.bc_anchor_nodes", "count", "counter", "grid.bc_anchor_nodes"),
    ("grid.hessian_fields.calls", "count", "calls", "grid.hessian_fields"),
    ("grid.hessian_fields.self_s", "s", "self", "grid.hessian_fields"),
    ("grid.io.write_bytes", "B", "counter", "grid.io.write_bytes"),
    ("grid.io.write_s", "s", "self", "grid.io.write"),
    ("grid.io.read_s", "s", "self", "grid.io.read"),
    ("solver.solve_dirichlet.calls", "count", "calls", "solver.solve_dirichlet"),
    ("solver.solve_dirichlet.self_s", "s", "self", "solver.solve_dirichlet"),
    ("solver.solve_dirichlet.failed", "count", "failed", "solver.solve_dirichlet"),
    ("solver.newton_iters", "count", "counter", "solver.newton_iters"),
    ("solver.spilu.calls", "count", "calls", "solver.spilu"),
    ("solver.spilu.s", "s", "self", "solver.spilu"),
    ("solver.gmres.calls", "count", "calls", "solver.gmres"),
    ("solver.gmres.s", "s", "self", "solver.gmres"),
    ("solver.spsolve.calls", "count", "calls", "solver.spsolve"),
    ("solver.spsolve.s", "s", "self", "solver.spsolve"),
    ("sections.chain.calls", "count", "calls", "sections.chain"),
    ("sections.chain.self_s", "s", "self", "sections.chain"),
    ("sections.chain_p50_s", "s", "chain_pct", 50),
    ("sections.chain_p90_s", "s", "chain_pct", 90),
    ("sections.chains_per_s", "1/s", "derived", "sections.chains_per_s"),
    ("sections.rescale_to_unit.self_s", "s", "self", "sections.rescale_to_unit"),
    ("sections.build_section.self_s", "s", "self", "sections.build_section"),
    ("sections.fit_ellipsoid.self_s", "s", "self", "sections.fit_ellipsoid"),
    ("sections.taylor_split.self_s", "s", "self", "sections.taylor_split"),
    ("sections.chain.failed", "count", "failed", "sections.chain"),
    *[(f"sections.chain.failed.{err}.L{lvl}", "count", "cause", (err, lvl))
      for err, lvl in CHAIN_FAILURE_CAUSES],
    ("sections.chain.failed.other", "count", "cause", None),
    ("badset.sample_badset_chains.self_s", "s", "self", "badset.sample_badset_chains"),
    ("badset.nodes_sampled", "count", "counter", "badset.nodes_sampled"),
    ("badset.nodes_empty", "count", "counter", "badset.nodes_empty"),
    ("badset.convex_envelope.calls", "count", "calls", "badset.convex_envelope"),
    ("badset.convex_envelope.self_s", "s", "self", "badset.convex_envelope"),
    ("badset.convex_envelope.failed", "count", "failed", "badset.convex_envelope"),
    ("badset.ma_measure.self_s", "s", "self", "badset.ma_measure"),
    ("badset.subdeterminant_check.self_s", "s", "self", "badset.subdeterminant_check"),
    ("badset.touching_paraboloid_opening.self_s", "s", "self",
     "badset.touching_paraboloid_opening"),
    ("engulfing.check_engulfing.calls", "count", "calls", "engulfing.check_engulfing"),
    ("engulfing.check_engulfing.self_s", "s", "self", "engulfing.check_engulfing"),
    ("engulfing.verdict.pass", "count", "counter", "engulfing.verdict.pass"),
    ("engulfing.verdict.fail", "count", "counter", "engulfing.verdict.fail"),
    ("engulfing.verdict.not-applicable", "count", "counter",
     "engulfing.verdict.not-applicable"),
    ("covering.vitali_select.self_s", "s", "self", "covering.vitali_select"),
    ("covering.weak_11_certificate.self_s", "s", "self", "covering.weak_11_certificate"),
    ("covering.maximal_function.self_s", "s", "self", "covering.maximal_function"),
    ("covering.measure_comparison.self_s", "s", "self", "covering.measure_comparison"),
    ("w2p.norm_report.self_s", "s", "self", "w2p.norm_report"),
    ("cli.run_pipeline.self_s", "s", "self", "cli.run_pipeline"),
    ("cli.artifact_bytes", "B", "counter", "cli.artifact_bytes"),
    ("cli.load_instance.self_s", "s", "self", "cli.load_instance"),
    ("trace.overhead_frac", "ratio", "derived", "trace.overhead_frac"),
    ("trace.untracked_frac", "ratio", "derived", "trace.untracked_frac"),
    ("trace.self_sum_error", "ratio", "derived", "trace.self_sum_error"),
    ("trace.body_iterations", "count", "derived", "trace.body_iterations"),
]


class PhaseTotals:
    """Span totals of one phase (the set-up, or the traced body iterations)
    under the given root spans, with the phase's counts and failures."""

    def __init__(self, tracer, roots: list[int], counters, failures):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.chain_durations: list[float] = []
        self.chains_ok = 0
        self.root_self = 0.0
        self.root_total = 0.0
        self.self_sum_error = 0.0
        for root in roots:
            selft = tracer.self_times(root)
            total = tracer.ends[root] - tracer.starts[root]
            self.root_total += total
            self.root_self += selft[root]
            self.self_sum_error = max(
                self.self_sum_error, abs(sum(selft.values()) - total) / total)
            for sid, s in selft.items():
                if sid == root:
                    continue
                name = tracer.names[sid]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + s
                if name == "sections.chain":
                    self.chain_durations.append(tracer.ends[sid] - tracer.starts[sid])
                    self.chains_ok += tracer.errors[sid] is None
        self.counters = counters
        self.failures = failures


def _percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile, or 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def per_layer_metrics(setup: PhaseTotals, body: PhaseTotals, n_body: int,
                      derived: dict[str, float]) -> dict:
    """Per-layer figures for one set-up plus one timed-body iteration
    (body figures are the mean over the ``n_body`` traced iterations)."""
    def phase_sum(get):
        return get(setup) + get(body) / n_body

    chain_durations = setup.chain_durations + body.chain_durations
    out = {}
    for metric, unit, kind, key in PER_LAYER:
        if kind == "calls":
            value = phase_sum(lambda p: p.calls.get(key, 0))
        elif kind == "self":
            value = phase_sum(lambda p: p.self_s.get(key, 0.0))
        elif kind == "counter":
            value = phase_sum(lambda p: p.counters.get(key, 0))
        elif kind == "failed":
            value = phase_sum(lambda p: sum(
                n for (name, _, _), n in p.failures.items() if name == key))
        elif kind == "cause":
            def count(p):
                return sum(n for (name, err, lvl), n in p.failures.items()
                           if name == "sections.chain"
                           and ((err, lvl) == key if key is not None
                                else (err, lvl) not in CHAIN_FAILURE_CAUSES))
            value = phase_sum(count)
        elif kind == "chain_pct":
            value = _percentile(chain_durations, key)
        else:
            value = derived[key]
        out[metric] = {"value": value, "unit": unit}
    return out


def failure_table(failures) -> dict[str, int]:
    """Failures by cause as ``<span>.<ErrorType>.L<level>`` -> count."""
    return {f"{name}.{err}.L{'na' if lvl is None else lvl}": n
            for (name, err, lvl), n in sorted(failures.items(), key=str)}
