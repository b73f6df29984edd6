"""Exception hierarchy.

The CLI maps these onto exit codes:

* configuration / usage problems (:class:`InvalidSpecError`,
  :class:`ModelFileError`) -> 2
* parameter outside a model's validity range, or an entry undefined or
  not finite there (:class:`ModelDomainError`) -> 3
* numerical failures (:class:`NumericalError` subclasses) -> 4
"""

from __future__ import annotations


class PtLatticeError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpecError(PtLatticeError):
    """Builder or solver input violates a structural invariant."""


class ModelDomainError(PtLatticeError):
    """t is outside a model's validity range, or an entry there is not a finite number."""

    def __init__(
        self, message: str, *, t: float | None = None, radical: str | None = None
    ):
        super().__init__(message)
        self.t = t
        self.radical = radical


class ModelFileError(PtLatticeError):
    """A custom model document is malformed."""

    def __init__(
        self,
        message: str,
        *,
        field: str | None = None,
        line: int | None = None,
        column: int | None = None,
    ):
        super().__init__(message)
        self.field = field
        self.line = line
        self.column = column


class ExprError(ModelFileError):
    """An entry expression failed to parse or left the allowed grammar."""


class NumericalError(PtLatticeError):
    """Base class for failures of numerical procedures; carries whatever diagnostics exist."""

    def __init__(self, message: str, *, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class SolverError(NumericalError):
    """The dense eigensolver failed."""


class OracleError(NumericalError):
    """The polynomial root finder behind the oracle stagnated.

    Its diagnostics hold the factor's degree, the steps taken, the error
    estimate and the threshold it failed.
    """


class DegenerateSpectrumError(NumericalError):
    """Minimal eigenvalue gap is below the non-degeneracy gate."""


class BrokenPhaseError(NumericalError):
    """The operation requires a fully real (unbroken-phase) spectrum."""


class ConsistencyError(NumericalError):
    """Two independent criteria that must agree did not."""


class BracketError(NumericalError):
    """Bracket endpoints do not enclose the sought transition."""


class EpNotFoundError(NumericalError):
    """No eigenvalue coalescence was found inside the bracket."""


class TrackingError(NumericalError):
    """Continuous-section tracking lost the metric branch."""
