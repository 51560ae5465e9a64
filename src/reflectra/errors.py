"""Error types shared across the package."""


class ReflectraError(Exception):
    """Base class for all library errors."""


class ParameterError(ReflectraError, ValueError):
    """Invalid parameters or malformed input text."""


class SizeLimitError(ReflectraError):
    """A computation would exceed a configured size cap."""


class ConnectivityError(ReflectraError):
    """A connection set fails to generate the group."""


class NumericError(ReflectraError):
    """A numeric routine failed to converge or to separate eigenvalues."""


class ConsistencyError(ReflectraError):
    """Two routes that must agree produced different answers."""


def format_size(value: int) -> str:
    """A size for a message: in full up to 18 digits, above that as about
    10^k, read off the bit length, so that no huge int is turned into text."""
    if value < 10**18:
        return str(value)
    return f"about 10^{round(value.bit_length() * 0.30103)}"
