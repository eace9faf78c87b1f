"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
degenerate precoding scenarios with 3, and so do numerical failures
(``np.linalg.LinAlgError``, such as a zero-length patch offset).
"""


class ConfigError(ValueError):
    """Scenario or command-line configuration is invalid."""


class GeometryError(ValueError):
    """A surface layout cannot be realized."""


class PrecoderDegeneracyError(RuntimeError):
    """A channel block required by the precoder has collapsed rank."""

    def __init__(self, block: str, detail: str = ""):
        self.block = block
        msg = f"degenerate channel block {block}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class CapacityExceededError(RuntimeError):
    """Too many users for the transmit aperture: no interference-free subspace left."""
