"""Exception types shared across the package, and its one array, integer and real-number checks."""

import math
import reprlib

import numpy as np


class NewtonBenchError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(NewtonBenchError):
    """Operands have incompatible dimensions."""


class SingularMatrix(NewtonBenchError):
    """A (regularized) linear system is numerically singular."""


class NonFiniteResult(NewtonBenchError):
    """A computation produced or received NaN/inf values."""


class TooLarge(NewtonBenchError):
    """Input exceeds a hard size limit of an exhaustive routine."""


class ConfigError(NewtonBenchError, ValueError):
    """Invalid experiment, library or CLI configuration; a ValueError too."""


def checked(a, name, shape):
    """a as a float64 array, once it has the given shape and only finite entries.

    An int entry of shape matches that length exactly, a None entry any
    nonzero length.  Raises ShapeMismatch, then NonFiniteResult, each naming
    the argument.  A float64 array comes back as it is, without a copy.
    """
    a = np.asarray(a, dtype=np.float64)
    got = a.shape
    # a plain loop and the bare ufunc reduction: the ranking loss runs this
    # hundreds of times per training step, and generators or np.all cost more
    fits = len(got) == len(shape)
    for d, s in zip(got, shape):
        fits = fits and (d == s or s is None and d > 0)
    if not fits:
        if shape and shape.count(None) == len(shape):
            raise ShapeMismatch(f"{name} must be {len(shape)}-D and nonempty, got shape {got}")
        want = str(tuple(shape)).replace("None", "*")
        raise ShapeMismatch(f"{name} must have shape {want}, got shape {got}")
    finite = np.isfinite(a)
    if not np.logical_and.reduce(finite, axis=None):
        raise NonFiniteResult(f"{name} must be finite, got {a[~finite][0]}")
    return a


def _holds(value, types, least, strict):
    """Whether value is one of types but not a bool, finite as a float (an int
    too large for one is not) and >= least, or > least when strict."""
    try:
        return (
            not isinstance(value, bool)
            and isinstance(value, types)
            and math.isfinite(float(value))
            and (least is None or (value > least if strict else value >= least))
        )
    except OverflowError:
        return False


def _shown(value):
    """value's repr cut to reprlib's length; an int too long for str(), its bit length."""
    try:
        return reprlib.repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def checked_int(value, name, least):
    """value, once it is an integer >= least, Python's or numpy's (a bool is
    not, nor an int too large for a float); raises ConfigError naming the
    setting and showing value cut to a fixed length."""
    if not _holds(value, (int, np.integer), least, False):
        raise ConfigError(f"{name} must be an integer >= {least}, got {_shown(value)}")
    return value


def checked_real(value, name, least=None, strict=False):
    """value, once it is a finite real number numpy computes with, >= least
    (> least when strict) if least is given: an int or a float, Python's or
    numpy's (a bool is not, nor a Fraction, which numpy keeps as an object,
    nor an int too large for a float); raises ConfigError naming the setting
    and showing value cut to a fixed length."""
    if not _holds(value, (int, float, np.integer, np.floating), least, strict):
        bound = "" if least is None else f" {'>' if strict else '>='} {least}"
        raise ConfigError(f"{name} must be a finite real number{bound}, got {_shown(value)}")
    return value
