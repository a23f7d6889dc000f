"""Error types shared across the package, and the integer rule of its options."""

import operator

import numpy as np


class CapacityError(ValueError):
    """Dense materialization requested beyond the supported qubit cap."""


class DimensionError(ValueError):
    """Operator and state dimensions do not match."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


class NumericalIntegrityError(RuntimeError):
    """A numerical invariant (norm, realness, probability range) was violated."""


def integer(value, field: str) -> int:
    """`value` as a Python int. A Python or numpy integer passes
    (`operator.index`); a bool, a float or anything else raises ValueError
    naming `field`."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{field} must be an integer, got {value!r}") from None
