"""Dilation of pointed node sets and engulfing checks.

All set inclusions are lattice statements "up to one-cell slack": an
offending node must lie within lattice (Chebyshev) distance 1 of the target
set.  Two sets intersect when they share a node or sit within lattice
distance 1, symmetric with the inclusion slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import GridDomain, interp_multilinear
from .sections import Section


@dataclass(eq=False)
class PointedSet:
    """Node mask on a uniform lattice with a distinguished center node."""

    center_idx: tuple
    mask: np.ndarray
    lo: np.ndarray              # lower corner coordinates per axis
    h: float
    mu: float | None = None     # section height, when the set is a section

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        if not self.mask[tuple(self.center_idx)]:
            raise ValueError("center node must belong to the set")

    @property
    def ndim(self) -> int:
        return self.mask.ndim

    @property
    def axes(self) -> list[np.ndarray]:
        return [self.lo[a] + self.h * np.arange(self.mask.shape[a])
                for a in range(self.ndim)]

    @property
    def center_point(self) -> np.ndarray:
        return self.lo + self.h * np.asarray(self.center_idx, dtype=float)

    @classmethod
    def from_section(cls, section: Section) -> "PointedSet":
        dom = section.domain
        return cls(section.center_idx, section.mask.copy(),
                   dom.box[:, 0].copy(), dom.h, mu=section.mu)

    @classmethod
    def from_mask(cls, domain: GridDomain, center_idx: tuple, mask: np.ndarray,
                  mu: float | None = None) -> "PointedSet":
        return cls(tuple(center_idx), mask, domain.box[:, 0].copy(), domain.h, mu=mu)

    def node_count(self) -> int:
        return int(self.mask.sum())

    def measure(self) -> float:
        return self.node_count() * self.h ** self.ndim


def _moore(ndim: int) -> np.ndarray:
    return ndimage.generate_binary_structure(ndim, ndim)


def dilate_membership(ps: PointedSet, c: float, pts: np.ndarray) -> np.ndarray:
    """Whether points belong to the c-dilation of the set about its center,
    judged by the multilinearly interpolated indicator at threshold 1/2."""
    if c <= 0:
        raise ValueError("dilation factor must be positive")
    ctr = ps.center_point
    pre = ctr + (np.atleast_2d(pts) - ctr) / c
    ind = interp_multilinear(ps.axes, ps.mask.astype(float), pre)
    return np.nan_to_num(ind, nan=0.0) >= 0.5


def inclusion_with_slack(inner: np.ndarray, outer: np.ndarray) -> bool:
    """inner subset of outer, up to one-cell slack."""
    grown = ndimage.binary_dilation(outer, structure=_moore(outer.ndim))
    return bool(np.all(grown[inner]))


def in_dilations(inner: np.ndarray, sets: list[PointedSet], c: float) -> bool:
    """Whether inner lies in the union of the c-dilations of the sets, up to
    one-cell slack.

    The slack reads the union only on inner and its one-node collar, so
    membership is judged on those nodes alone, and a node is not judged
    again once a set holds it.  The verdict is that of inclusion_with_slack
    against the union of the full-box dilations.
    """
    hit = np.zeros_like(inner)
    todo = ndimage.binary_dilation(inner, structure=_moore(inner.ndim))
    for ps in sets:
        idx = np.argwhere(todo)
        if idx.size == 0:
            break
        hit[tuple(idx.T)] = dilate_membership(ps, c, ps.lo + ps.h * idx)
        todo &= ~hit
    return inclusion_with_slack(inner, hit)


def sets_intersect(a: PointedSet, b: PointedSet) -> bool:
    """Shared node, or within lattice distance 1."""
    grown = ndimage.binary_dilation(a.mask, structure=_moore(a.mask.ndim))
    return bool(np.any(grown & b.mask))


def check_engulfing(s1: PointedSet | Section, s2: PointedSet | Section) -> str:
    """Engulfing verdict for two sections with mu_1 <= 4 mu_2.

    "not-applicable" when disjoint; otherwise "pass" iff the first set lies
    in the 10-dilation of the second, up to one-cell slack.
    """
    p1 = PointedSet.from_section(s1) if isinstance(s1, Section) else s1
    p2 = PointedSet.from_section(s2) if isinstance(s2, Section) else s2
    if p1.mu is None or p2.mu is None:
        raise ValueError("engulfing check needs section heights")
    if p1.mu > 4.0 * p2.mu + 1e-12:
        raise ValueError(f"hypothesis mu1 <= 4 mu2 violated ({p1.mu} vs {p2.mu})")
    if p1.mask.shape != p2.mask.shape or p1.h != p2.h:
        raise ValueError("sections live on different lattices")
    if not sets_intersect(p1, p2):
        return "not-applicable"
    return "pass" if in_dilations(p1.mask, [p2], 10.0) else "fail"
