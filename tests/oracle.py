"""Full-box oracles for the tests: quantities the library computes only
where something reads them, computed here on every lattice node."""

import numpy as np

from cmalab import engulfing


def dilated_mask(ps, c):
    """Lattice mask of the c-dilation of a section (membership of every
    node of its box)."""
    mesh = np.meshgrid(*ps.axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return engulfing.dilate_membership(ps, c, pts).reshape(ps.mask.shape)
