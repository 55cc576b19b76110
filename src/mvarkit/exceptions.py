"""Exception hierarchy shared across the package.

Every failure mode a caller may want to branch on gets its own class;
all inherit from :class:`MvarError` so ``except MvarError`` catches any
library-level problem without swallowing programming errors.
"""


class MvarError(Exception):
    """Base class for all mvarkit errors."""


class DimensionError(MvarError, ValueError):
    """Shapes of inputs do not agree (a series' width vs the model, weight length, ...)."""


class TimeIndexError(MvarError, IndexError):
    """A time index falls outside the admissible range for the operation."""


class NotPositiveDefiniteError(MvarError, ValueError):
    """A matrix required to be symmetric positive definite is not."""


class DensityUnderflowError(MvarError, ArithmeticError):
    """Every mixture component underflowed at some observation (catastrophic misfit)."""

    def __init__(self, t: int):
        self.t = t
        super().__init__(
            f"all component densities underflowed at time index t={t}; "
            "the model is catastrophically misfit to this observation"
        )


class SingularComponentError(MvarError, ValueError):
    """The weighted regression for one component is singular (empty or degenerate component)."""

    def __init__(self, component: int, detail: str = ""):
        self.component = component
        msg = f"weighted least squares is singular for component k={component}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ComponentCollapseError(MvarError, RuntimeError):
    """An innovation covariance collapsed towards singularity during fitting."""

    def __init__(self, component: int, eigenvalue: float):
        self.component = component
        self.eigenvalue = eigenvalue
        super().__init__(
            f"component k={component} collapsed: smallest covariance eigenvalue "
            f"{eigenvalue:.3e} < 1e-12"
        )


class DegenerateFrontierError(MvarError, ValueError):
    """Mean vector proportional to ones: no unique efficient portfolio per target."""


class EigenSolverError(MvarError, RuntimeError):
    """The eigenvalue routine failed; distinct from an 'unstable' verdict."""


class BracketError(MvarError, RuntimeError):
    """Quantile bracketing failed even after adaptive widening."""


class DataFormatError(MvarError, ValueError):
    """Malformed input table (dates, missing cells, nonpositive prices, ...)."""


class ModelFileError(MvarError, ValueError):
    """Model file cannot be read: unknown version or invalid schema."""
