"""Exception types shared across the toolkit."""


class BmkitError(ValueError):
    """Base class for all toolkit errors."""


def require_storable(n_values, what: str) -> None:
    """Raise BmkitError("<what> cannot be stored") unless n_values floats fit in 2^63 bytes."""
    if not n_values * 8 < 2.0 ** 63:
        raise BmkitError(f"{what} cannot be stored")


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
