"""Exception types, and the two value rules that input checks share."""

import numpy as np


class ShapeError(ValueError):
    """Tensor/array dimensions do not satisfy an operation's contract."""


class ValidationError(ValueError):
    """Input values violate a documented precondition (range, binarity, ...)."""


class StateError(RuntimeError):
    """Operation invoked on an object in an unusable state (e.g. empty memory)."""


class EvaluationError(RuntimeError):
    """A function under test produced a non-finite or non-scalar output."""


class GenerationError(RuntimeError):
    """Synthetic sequence generation failed (e.g. lesion leaves the frame)."""


class TrainingDivergedError(RuntimeError):
    """The weights diverged: a non-finite loss, or a NaN prediction before any loss."""


def is_probability(x: np.ndarray) -> bool:
    return bool(((x >= 0.0) & (x <= 1.0)).all())   # NaN fails both comparisons


def is_binary(x: np.ndarray) -> bool:
    return bool(((x == 0.0) | (x == 1.0)).all())   # NaN is neither
