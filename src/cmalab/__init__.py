"""Numerical laboratory for interior second-derivative estimates of the
complex Monge-Ampere equation on near-ball domains."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    GridDomain,
    GridFunction,
    build_domain,
    complex_hessian,
)
from .solver import (  # noqa: F401
    SolveReport,
    comparison_sandwich,
    solve_dirichlet,
)
from .sections import (  # noqa: F401
    PluriharmonicPoly,
    Section,
    SectionChain,
    build_section,
    construct_section_chain,
    fit_ellipsoid,
    mu0_from_sigma,
    normalize_transform,
    rescale_to_unit,
    taylor_split,
)
