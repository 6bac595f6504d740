"""Exception hierarchy shared across the solver modules.

``SolverError`` marks computational failures (as opposed to usage errors);
the CLI maps it to exit code 2.
"""


class SolverError(Exception):
    """Base class for all computational failures."""


# -- ground state -----------------------------------------------------------

class NoConvergence(SolverError):
    """Shooting bisection or radial Newton failed to converge within budget."""


class TailNotResolved(SolverError):
    """Radial grid too short to detect an exponential-decay plateau."""


class MassCriticalInfeasible(SolverError):
    """Pure-scaling problem has no solution at this mass in the critical regime."""


# -- linearized radial problems ---------------------------------------------

class SingularOperator(SolverError):
    """Discrete linearized operator is numerically rank-deficient."""


class ZeroCountMismatch(SolverError):
    """Profile does not have the expected number of sign changes."""


# -- nonlinear boundary-value solver ----------------------------------------

class NewtonDiverged(SolverError):
    """Damped Newton exhausted its backtracking/iteration budget."""


class NonPositive(SolverError):
    """Computed solution crossed zero; the concentrating branch was lost."""


class NoSolutionInRegime(SolverError):
    """Requested mass lies on the forbidden side of the critical threshold."""


class BracketFailed(SolverError):
    """Outer root-find could not bracket the requested mass."""


# -- asymptotic predictions --------------------------------------------------

class RegimeMismatch(SolverError):
    """Requested (p, rho) combination is outside the asymptotic regime."""


class WrongSide(SolverError):
    """Mass offset has the wrong sign for the critical expansion."""


class DegenerateFit(SolverError):
    """Convergence-order fit received non-positive or non-monotone data."""


# -- mean-field-games transforms ----------------------------------------------

class NonPositiveDensity(SolverError):
    """Density must be strictly positive for the Hopf-Cole transform."""
