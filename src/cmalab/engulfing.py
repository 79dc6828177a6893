"""Dilation of sections and engulfing checks.

A section here is any sections.Section: a node mask with a center node
and a height, whether cut from a function by build_section or given as a
ball or a read mask.

All set inclusions are lattice statements "up to one-cell slack": an
offending node must lie within lattice (Chebyshev) distance 1 of the target
set.  Two sets intersect when they share a node or sit within lattice
distance 1, symmetric with the inclusion slack.

The one-cell slack reaches one node, so every dilation by the Moore
structure runs only on a mask's bounding box padded by one node (clipped to
the lattice); the verdicts are those of full-box dilations.
"""

from __future__ import annotations

import numpy as np

from .grid import grow, interp_multilinear, mask_window
from .sections import Section


def dilate_membership(sec: Section, c: float, pts: np.ndarray) -> np.ndarray:
    """Whether points belong to the c-dilation of the set about its center,
    judged by the multilinearly interpolated indicator at threshold 1/2."""
    if c <= 0:
        raise ValueError("dilation factor must be positive")
    ctr = sec.center_point
    pre = ctr + (np.atleast_2d(pts) - ctr) / c
    ind = interp_multilinear(sec.axes, sec.mask.astype(float), pre)
    return np.nan_to_num(ind, nan=0.0) >= 0.5


def inclusion_with_slack(inner: np.ndarray, outer: np.ndarray) -> bool:
    """inner subset of outer, up to one-cell slack."""
    win = mask_window(inner)
    return win is None or bool(np.all(grow(outer[win], diagonal=True)[inner[win]]))


def in_dilations(inner: np.ndarray, sets: list[Section], c: float) -> bool:
    """Whether inner lies in the union of the c-dilations of the sets, up to
    one-cell slack.

    The slack reads the union only on inner and its one-node collar, so
    membership is judged on those nodes alone, and a node is not judged
    again once a set holds it.  The verdict is that of inclusion_with_slack
    against the union of the full-box dilations.
    """
    win = mask_window(inner)
    if win is None:
        return True
    # from here on every mask and index is the window's
    corner = np.array([w.start for w in win])
    inner = inner[win]
    hit = np.zeros_like(inner)
    todo = grow(inner, diagonal=True)
    for sec in sets:
        idx = np.argwhere(todo)
        if idx.size == 0:
            break
        hit[tuple(idx.T)] = dilate_membership(sec, c, sec.lo + sec.h * (idx + corner))
        todo &= ~hit
    return inclusion_with_slack(inner, hit)


def sets_intersect(a: Section, b: Section) -> bool:
    """Shared node, or within lattice distance 1."""
    win = mask_window(a.mask)
    return bool(np.any(grow(a.mask[win], diagonal=True) & b.mask[win]))


def check_engulfing(s1: Section, s2: Section) -> str:
    """Engulfing verdict for two sections with mu_1 <= 4 mu_2.

    "not-applicable" when disjoint; otherwise "pass" iff the first set lies
    in the 10-dilation of the second, up to one-cell slack.
    """
    if s1.mu > 4.0 * s2.mu + 1e-12:
        raise ValueError(f"hypothesis mu1 <= 4 mu2 violated ({s1.mu} vs {s2.mu})")
    if s1.mask.shape != s2.mask.shape or s1.h != s2.h:
        raise ValueError("sections live on different lattices")
    if not sets_intersect(s1, s2):
        return "not-applicable"
    return "pass" if in_dilations(s1.mask, [s2], 10.0) else "fail"
