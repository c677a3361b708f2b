"""Exception types shared across the package.

The CLI maps one class onto each process exit code; library code raises
them directly:

* ``InputError`` -> exit 2 (a malformed argument, spec or config);
  ``ConfigError`` is the ``InputError`` whose message leads with the
  config key path;
* ``ThresholdError`` -> exit 3 (a smallness condition is violated);
* ``NumericalBlowupError`` -> exit 4 (integration left the finite floats).
"""


class InputError(ValueError):
    """Malformed argument or spec (non-monotone grid, bad support, too small a
    horizon, an empty search grid, ...)."""


class ConfigError(InputError):
    """Invalid experiment configuration; message carries the key path."""


class ThresholdError(ValueError):
    """A smallness condition on the Lipschitz constant is violated."""


class NumericalBlowupError(RuntimeError):
    """Integration produced non-finite values."""

    def __init__(self, time: float, message: str = ""):
        self.time = time
        super().__init__(message or f"non-finite state at t = {time:g}")
