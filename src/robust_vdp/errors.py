"""Shared exception types."""


class DeskScaleExceededError(RuntimeError):
    """An exact enumeration would exceed the configured budget."""


class SupNotExistsError(RuntimeError):
    """A required vector supremum does not exist."""


class UnsupportedConeError(ValueError):
    """The operation is restricted to a cone class the input is not in."""


class DualNotLIError(ValueError):
    """Dual generators are linearly dependent."""


class DimensionMismatchError(ValueError):
    """A vector or representation has the wrong dimension."""


class RepresentationError(ValueError):
    """The operation needs a cone representation that was not supplied."""


class InstanceError(ValueError):
    """Invalid instance document; carries a path into the document."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
