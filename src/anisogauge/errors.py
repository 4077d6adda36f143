"""Exception types shared across the package, and `decimal`, the one rule
for reading an integer from text.

The CLI maps ExistenceViolated to exit code 2, BoundExceeded to exit
code 3, every other AnisogaugeError to exit code 64 and an ArithmeticError
(a failed certification) to exit code 1.  Inside a verify check, an
AnisogaugeError or ArithmeticError becomes a fail row instead
(`suite.verify_rows`).
"""


class AnisogaugeError(ValueError):
    """Base class for all package errors."""


class NotPrime(AnisogaugeError):
    """A parameter that must be prime is not."""


class BoundExceeded(AnisogaugeError):
    """A size parameter exceeds the configured bound."""


class NoSuchElement(AnisogaugeError):
    """No field element satisfies the requested constraints."""


class EvenCharacteristic(AnisogaugeError):
    """Operation requires odd characteristic (needs division by 2)."""


class NotNormOne(AnisogaugeError):
    """Rotation coefficient must lie in the norm-one subgroup."""


class ExistenceViolated(AnisogaugeError):
    """The divisibility condition for the construction fails."""


class BetaSingular(AnisogaugeError):
    """The off-diagonal block of the split map is not invertible."""


class ZeroEigenvalue(AnisogaugeError):
    """An eigenvalue vanishes, so the eigenvalue ratio is undefined."""


class NotACharacter(AnisogaugeError):
    """No consistent positive character exists for the fusion ring."""


class BadParameter(AnisogaugeError):
    """A parameter is outside the documented domain."""


def decimal(text: str) -> int:
    """A plain ASCII decimal: an optional leading `-`, then the digits 0-9
    alone; ValueError otherwise.  `int` would also take `_`, spaces, a `+`
    and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a plain decimal")
    return int(text)
