"""L^p accounting for second derivatives: direct quadrature over the grid
and the dyadic bound assembled from bad-set measures.

The integrand pair is (trace of the complex Hessian)^p and (trace of its
inverse)^p; the good-set bounds trace <= 2n 10^{(n-1)k} and inverse trace
<= n 10^k turn the decay report into a convergent series once
10^{(n-1)p} 12^{2n} eps_bar <= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .badset import DYADIC_RADIUS, BadSetReport
from .grid import (
    GridFunction,
    hessian_eigen_fields,
    hessian_fields,
    lattice_offsets,
    node_differences,
    shift,
)


def eps_bar_recipe(p: float, n: int) -> float:
    """Density threshold making the dyadic series geometric with ratio 1/2:
    10^{(n-1)p} 12^{2n} eps_bar = 1/2."""
    if p < 1:
        raise ValueError("p must be at least 1")
    return 0.5 / (10.0 ** ((n - 1) * p) * 12.0 ** (2 * n))


def lp_norm(values, p: float, h: float, d: int) -> float:
    """Node-sum quadrature over the values given, one per node of the
    region: (sum |f|^p h^d)^(1/p)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if np.any(~np.isfinite(values)):
        raise ValueError("field must be finite on the region")
    return float(np.sum(np.abs(values) ** p) * h ** d) ** (1.0 / p)


def complex_trace_field(fields: dict) -> np.ndarray:
    """Trace of the complex Hessian fields (a quarter of the real Laplacian)."""
    out = fields["h11"].copy()
    if "h22" in fields:
        out = out + fields["h22"]
    return out


def inverse_trace_field(fields: dict) -> np.ndarray:
    """Trace of the inverse complex Hessian fields; NaN where not positive definite."""
    lam_min, lam_max = hessian_eigen_fields(fields)
    pd = lam_min > 0.0
    safe_min = np.where(pd, lam_min, 1.0)
    out = 1.0 / safe_min
    if "h22" in fields:
        out = out + 1.0 / np.where(pd, lam_max, 1.0)
    return np.where(pd, out, np.nan)


@dataclass
class DyadicBound:
    base: float
    series_terms: list[float]
    tail: float
    total: float
    ratio: float
    tail_valid: bool
    flag: str = ""

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def dyadic_bound(report: BadSetReport, p: float, kind: str) -> DyadicBound:
    """Truncated dyadic series with geometric tail closure.

    kind "trace": band height 2n 10^{(n-1)(k+1)}; kind "inverse-trace":
    band height n 10^{k+1}.  The tail uses the recipe ratio when every
    report row meets its geometric bound; a vacuous final row (A_k empty,
    hence all deeper A empty) closes the tail at zero.  The density
    threshold is the report's eps_bar.
    """
    n, eps_bar = report.n, report.eps_bar
    if kind == "trace":
        def band(k):
            return 2.0 * n * 10.0 ** ((n - 1) * (k + 1))
        ratio = 10.0 ** ((n - 1) * p) * 12.0 ** (2 * n) * eps_bar
    elif kind == "inverse-trace":
        def band(k):
            return n * 10.0 ** (k + 1)
        ratio = 10.0 ** p * 12.0 ** (2 * n) * eps_bar
    else:
        raise ValueError(f"unknown kind {kind!r}")

    base = band(0) ** p * report.m_b06
    terms = [band(r.k) ** p * r.measure_b06 for r in report.rows]
    flag = ""
    if report.rows and report.rows[-1].vacuous:
        tail = 0.0
        tail_valid = True
        flag = "tail closed by empty final level"
    elif report.all_passed() and ratio < 1.0:
        k_next = report.rows[-1].k + 1 if report.rows else 1
        next_bound = band(k_next) ** p * report.m_b07 * (12.0 ** (2 * n) * eps_bar) ** (k_next - 1)
        tail = next_bound / (1.0 - ratio)
        tail_valid = True
    else:
        tail = float("nan")
        tail_valid = False
        flag = "geometric bound failed; tail estimate invalid"
    total = base + sum(terms) + (tail if tail_valid else 0.0)
    return DyadicBound(base, terms, tail, total, ratio, tail_valid, flag)


@dataclass
class NormReport:
    p: float
    region_label: str
    direct_trace: float
    direct_inverse_trace: float
    dyadic_trace: DyadicBound
    dyadic_inverse_trace: DyadicBound
    full_w2p: float
    classical_ratio: float
    dominated: bool

    def to_dict(self) -> dict:
        out = self.__dict__.copy()
        out["dyadic_trace"] = self.dyadic_trace.to_dict()
        out["dyadic_inverse_trace"] = self.dyadic_inverse_trace.to_dict()
        return out


def full_w2p(u: GridFunction, p: float, region: np.ndarray) -> tuple[float, float]:
    """L^p norm of all real second derivatives plus lower-order terms,
    and the measured constant of the classical Laplacian estimate.

    Returns (full_norm, full_norm / (||u||_p + ||real Laplacian||_p)).
    """
    dom = u.domain
    d = dom.d
    h = dom.h
    vals = u.values
    valued = ~np.isnan(vals)
    # Every second difference is supported where all axis steps and two-axis
    # diagonals around the node carry values.
    ok = region & valued
    for off in lattice_offsets(d, combinations(range(d), 2)):
        ok &= shift(valued, off)
    nodes = np.flatnonzero(ok)
    if nodes.size == 0:
        raise ValueError("no region nodes with full second-difference stencils")

    D1, D2 = node_differences(vals, nodes, h)
    total = 0.0
    lap = 0.0
    for a in range(d):
        for b in range(a, d):
            fld = D2(a, b)
            if a == b:
                lap = lap + fld
            total += lp_norm(fld, p, h, d)
    grad_norm = 0.0
    for a in range(d):
        grad_norm += lp_norm(D1(a), p, h, d)
    u_norm = lp_norm(vals.ravel()[nodes], p, h, d)
    full = total + grad_norm + u_norm
    lap_norm = lp_norm(lap, p, h, d)
    denom = u_norm + lap_norm
    return full, full / denom if denom > 0 else float("inf")


def norm_report(u: GridFunction, report: BadSetReport, p: float) -> NormReport:
    """Full accounting over the dyadic ball B_0.6 (``badset.DYADIC_RADIUS``,
    where the report's m_b06 and measure_b06 are counted): direct
    quadrature, dyadic bounds, and the classical-constant measurement.
    The direct integrals run over every interior node of B_0.6; a node
    where u is not strictly plurisubharmonic has no inverse trace and
    raises, rather than leaving the region."""
    dom = u.domain
    region = dom.interior_mask.copy()
    region[region] = np.linalg.norm(dom.coords(region), axis=1) <= DYADIC_RADIUS

    fields = hessian_fields(u, np.flatnonzero(region))
    tr = complex_trace_field(fields)
    itr = inverse_trace_field(fields)
    direct_tr = lp_norm(tr, p, dom.h, dom.d) ** p
    direct_itr = lp_norm(itr, p, dom.h, dom.d) ** p

    dy_tr = dyadic_bound(report, p, kind="trace")
    dy_itr = dyadic_bound(report, p, kind="inverse-trace")
    full, ratio = full_w2p(u, p, region)
    dominated = bool(
        dy_tr.tail_valid and direct_tr <= dy_tr.total + 1e-9
        and dy_itr.tail_valid and direct_itr <= dy_itr.total + 1e-9)
    return NormReport(
        p=p, region_label=f"B_{DYADIC_RADIUS}",
        direct_trace=direct_tr, direct_inverse_trace=direct_itr,
        dyadic_trace=dy_tr, dyadic_inverse_trace=dy_itr,
        full_w2p=full, classical_ratio=ratio, dominated=dominated,
    )
