"""Exception types shared across the package, and `decimal`, the one rule
for reading an integer from text.

There is one class for each exit code the CLI tells apart: it maps
ExistenceViolated to exit code 2, BoundExceeded to exit code 3, every
other AnisogaugeError (BadParameter) to exit code 64 and an
ArithmeticError (a failed certification) to exit code 1.  Inside a
verify check, an AnisogaugeError or ArithmeticError becomes a fail row
instead (`suite.verify_rows`).
"""


class AnisogaugeError(ValueError):
    """Base class for all package errors."""


class BoundExceeded(AnisogaugeError):
    """A size parameter exceeds the configured bound."""


class ExistenceViolated(AnisogaugeError):
    """The divisibility condition for the construction fails."""


class BadParameter(AnisogaugeError):
    """A parameter is outside the documented domain: not prime, of even
    characteristic, not of norm one, a singular block, no such element."""


def decimal(text: str) -> int:
    """A plain ASCII decimal: an optional leading `-`, then the digits 0-9
    alone; ValueError otherwise.  `int` would also take `_`, spaces, a `+`
    and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a plain decimal")
    return int(text)
