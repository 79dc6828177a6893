"""Vitali-type selection, maximal functions, and measure comparison for
finite families of sections.

The grid world is finite, so the possibly-infinite branch of the greedy
selection collapses; everything else follows the classical pattern with
10-dilations standing in for 3x balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .engulfing import in_dilations, inclusion_with_slack
from .sections import Section

_UNIT_BALL_VOLUME = {
    1: 2.0,
    2: math.pi,
    3: 4.0 * math.pi / 3.0,
    4: math.pi ** 2 / 2.0,
}


def ball_volume(d: int, radius: float) -> float:
    return _UNIT_BALL_VOLUME[d] * radius ** d


@dataclass
class SectionFamily:
    """Finite family of sections with ball-comparable volumes."""

    members: list[Section]
    comparability: float = 4.0

    def __post_init__(self):
        if not self.members:
            raise ValueError("family must not be empty")
        d = self.members[0].ndim
        shape = self.members[0].mask.shape
        for i, m in enumerate(self.members):
            if m.mask.shape != shape:
                raise ValueError("family members live on different lattices")
            ref = ball_volume(d, math.sqrt(m.mu))
            vol = m.measure()
            if not ref / self.comparability <= vol <= ref * self.comparability:
                raise ValueError(
                    f"member {i} volume {vol:.3e} not comparable to ball "
                    f"volume {ref:.3e} within factor {self.comparability}")

    @property
    def ndim(self) -> int:
        return self.members[0].ndim

    def union_mask(self) -> np.ndarray:
        out = np.zeros_like(self.members[0].mask)
        for m in self.members:
            out |= m.mask
        return out


@dataclass
class VitaliSelection:
    indices: list[int]
    witnesses: list[tuple[float, float]]    # (sup of admissible sqrt-mu, chosen)
    covered: bool
    disjoint: bool


def vitali_select(family: SectionFamily, target: np.ndarray) -> VitaliSelection:
    """Greedy half-sup selection: disjoint members whose 10-dilations cover
    the target set.

    Each round picks the largest remaining non-intersecting member (lowest
    index on ties), which certainly exceeds half the running supremum; the
    supremum witness is recorded per round.
    """
    union = family.union_mask()
    if not np.all(union[target]):
        raise CoverageError("target set is not covered by the family")

    n = len(family.members)
    alive = np.ones(n, dtype=bool)
    roots = np.array([math.sqrt(m.mu) for m in family.members])
    selected: list[int] = []
    witnesses: list[tuple[float, float]] = []
    while np.any(alive):
        sup = float(roots[alive].max())
        pick = int(np.flatnonzero(alive & (roots >= sup - 1e-15))[0])
        witnesses.append((sup, float(roots[pick])))
        selected.append(pick)
        pm = family.members[pick].mask
        for j in np.flatnonzero(alive):
            if np.any(family.members[j].mask & pm):
                alive[j] = False

    covered = in_dilations(target, [family.members[i] for i in selected], 10.0)
    disjoint = True
    for a in range(len(selected)):
        for b in range(a + 1, len(selected)):
            if np.any(family.members[selected[a]].mask
                      & family.members[selected[b]].mask):
                disjoint = False
    return VitaliSelection(selected, witnesses, covered, disjoint)


def maximal_function(f_values: np.ndarray, family: SectionFamily,
                     region: np.ndarray) -> np.ndarray:
    """M f at lattice nodes: the largest member-average among members
    containing the node; NaN outside all members.

    Raises CoverageError if a region node is uncovered.
    """
    out = np.full(f_values.shape, -np.inf)
    covered = np.zeros(f_values.shape, dtype=bool)
    for m in family.members:
        avg = float(np.mean(f_values[m.mask]))
        np.maximum(out, np.where(m.mask, avg, -np.inf), out=out)
        covered |= m.mask
    if not np.all(covered[region]):
        raise CoverageError("maximal function requested outside the family union")
    out[~covered] = np.nan
    return out


def weak_11_certificate(f_values: np.ndarray, family: SectionFamily) -> dict:
    """Dyadic sweep of m{M|f| > t} <= (1+slack) 10^d ||f||_L1 / t over
    t = 2^-4 .. 2^4 on the family union, with slack 0.1."""
    d = family.ndim
    h = family.members[0].h
    slack = 0.1
    region = family.union_mask()
    M = maximal_function(np.abs(f_values), family, region)
    l1 = float(np.nansum(np.abs(f_values)[region]) * h ** d)
    constant = 10.0 ** d
    rows = []
    ok_all = True
    for t in (2.0 ** k for k in range(-4, 5)):
        level = float(np.sum((M > t) & region) * h ** d)
        bound = (1.0 + slack) * constant * l1 / t
        ok = level <= bound
        ok_all &= ok
        rows.append({"t": t, "level_measure": level, "bound": bound, "ok": bool(ok)})
    return {"ok": ok_all, "rows": rows, "l1": l1, "constant": constant, "slack": slack}


def measure_comparison(X: np.ndarray, Y: np.ndarray, family: SectionFamily,
                       eps_bar: float, mu0: float) -> dict:
    """Verdict for m(X) <= 12^d eps_bar m(Y) with enumerated hypotheses.

    Hypothesis 1: members at top heights (mu0/484 to mu0/4) meet X in
    density < eps_bar.
    Hypothesis 2: members of density >= eps_bar with mu <= mu0/2 lie in Y
    (one-cell slack).  A hypothesis violation is recorded and the conclusion
    left untested.
    """
    if not 0.0 < eps_bar < 1.0:
        raise ValueError("eps_bar must lie in (0, 1)")
    d = family.ndim
    h = family.members[0].h

    hyp1_violations = []
    hyp2_violations = []
    for i, m in enumerate(family.members):
        dens = float((m.mask & X).sum()) / max(1, m.node_count())
        if mu0 / 484.0 <= m.mu <= mu0 / 4.0 and dens >= eps_bar:
            hyp1_violations.append(i)
        if dens >= eps_bar and m.mu <= mu0 / 2.0 and not inclusion_with_slack(m.mask, Y):
            hyp2_violations.append(i)

    mX = float(X.sum()) * h ** d
    mY = float(Y.sum()) * h ** d
    bound = 12.0 ** d * eps_bar * mY
    hyp_ok = not hyp1_violations and not hyp2_violations
    verdict = {
        "m_X": mX,
        "m_Y": mY,
        "bound": bound,
        "eps_bar": eps_bar,
        "hypothesis_1_violations": hyp1_violations,
        "hypothesis_2_violations": hyp2_violations,
        "hypotheses_ok": hyp_ok,
    }
    if hyp_ok:
        verdict["passed"] = bool(mX <= bound + h ** d)
        verdict["status"] = "pass" if verdict["passed"] else "fail"
    else:
        verdict["passed"] = None
        verdict["status"] = "hypothesis-violation"
    return verdict
