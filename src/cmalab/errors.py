"""Exception types shared across the package."""


class CmalabError(Exception):
    """Base class for all package-specific failures."""


class MemoryCapError(CmalabError):
    """Requested resolution needs more than the fixed 2 GiB memory cap, by
    a measured peak footprint per lattice node of a domain and its solves;
    raised by build_domain before it allocates anything."""


class StencilViolationError(CmalabError):
    """A finite-difference stencil reaches outside the valued node set."""


class BoundaryConstraintError(CmalabError):
    """A boundary extrapolation constraint rests on a node that is not
    interior, or a boundary node fits neither the three-point nor the
    two-point form."""


class DegenerateHessianError(CmalabError):
    """Complex Hessian is not positive definite where positivity is required,
    or its determinant is too far from 1 to normalize."""


class NonConvergenceError(CmalabError):
    """Newton iteration hit the cap before reaching the residual target."""

    def __init__(self, message: str, last_residual: float, iterations: int):
        super().__init__(message)
        self.last_residual = last_residual
        self.iterations = iterations


class LinearSolveError(CmalabError):
    """A Krylov solve of the linearized system missed its residual target."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DegeneracyError(CmalabError):
    """The solver's initial guess is not strictly plurisubharmonic, a Newton
    step lost plurisubharmonicity and damping could not repair it, or the
    domain has no interior node to solve on."""


class SectionEscapeError(CmalabError):
    """A sublevel set reached the domain boundary instead of closing up, or
    a rescaled section maps outside the domain it was cut from."""


class SectionFitError(CmalabError):
    """A section's inner or outer ellipsoid fit factor leaves the window
    1 +- 0.5 sigma (plus grid slack) that the chain's shape tolerance
    allows."""


class CoverageError(CmalabError):
    """Target set is not covered by the supplied family."""


class DomainMismatchError(CmalabError):
    """Two grid functions were expected to share a domain but do not."""
