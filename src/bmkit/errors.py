"""Exception types shared across the toolkit."""


class BmkitError(ValueError):
    """Base class for all toolkit errors."""


class ChartMismatchError(BmkitError):
    """Operands live on different charts."""


class DegreeError(BmkitError):
    """Form degree out of range for the requested operation."""


class DomainError(BmkitError):
    """Point outside the chart domain (interval axis bounds, r_min floor)."""


class DegeneratePointError(BmkitError):
    """Reeb extraction attempted where lambda . Omega vanishes."""


class DegenerateInstantError(BmkitError):
    """Reeb field requested at an instant where the defining 1-form vanishes."""


class SingularFieldError(BmkitError):
    """A field required to be non-singular vanishes on the sample grid."""


class ConfigError(BmkitError):
    """Invalid run configuration (CLI exit code 2)."""
