"""Value and array rules, the one place where input is checked.

Each rule raises ``ValueError`` naming what it refuses, and the module
imports nothing from the package.  Scalar rules: ``_is_int`` and
``_check_int`` (an int or numpy integer, never a bool, at least a
bound), ``_check_bool``, ``_check_choice`` (one of some strings),
``_check_number`` (an int or float, finite, within an interval),
``_check_rank`` (a CP or Tucker rank config) and ``_resolve_ranks``
(per-mode ranks within a shape).  Array rules: ``_check_array`` (the
only code that turns an argument into an array: float64, real values,
no mask, a mode count in range), ``_check_arrays`` (a sequence of
such arrays, of a length in range), ``_check_squares`` (finite values whose
squares sum to a finite value), ``_check_stacked`` (a fit's stacked inputs
and responses, C-ordered), ``_check_features`` (stacked inputs of a feature
shape; ``_check_feature_shape`` compares the shape alone), ``_check_output``,
``_check_coords`` (one cell of a feature shape), ``_check_ranks`` (a
grow config's tuple ranks), ``_check_keys`` (a config object's keys),
``_finite_array`` (a model document's numbers) and
``_finite_predictions`` (a predict whose output must be finite).  The
int, bool and number rules return what they accept, with a fast path for
a Python int or finite float: loading a model reads a few per node.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

MAX_MODES = 4
# the modes of a stacked input: an observation mode, then 2 or 3 feature modes
STACKED_MODES = (3, MAX_MODES)
_FLOAT64 = np.dtype(np.float64)
_NO_RESPONSES = object()


def _is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is neither here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(value, name: str, low: int | None = None) -> int:
    """``value`` as an int, if it is one (see :func:`_is_int`) of at least ``low``; else ``ValueError``."""
    number = value if type(value) is int else int(value) if _is_int(value) else None
    if number is None or (low is not None and number < low):
        form = "an int" if low is None else f"an int >= {low}"
        raise ValueError(f"{name} must be {form}, got {value!r}")
    return number


def _check_bool(value, name: str):
    """``value``, provided it is a bool or a numpy bool, or ``ValueError``."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def _check_choice(value, choices, what: str) -> None:
    """Raise ``ValueError`` unless ``value`` is one of the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"unknown {what} {value!r}; choose from {sorted(choices)}")


def _check_number(value, name: str, interval: str | None = None) -> float:
    """``value`` as a float; ``ValueError`` unless it is an int or float, finite as a float.

    A bool is neither here.  An int beyond the float range is not finite;
    it is compared, not converted, since ``float()`` would overflow on it.
    ``interval``, written as in mathematics (``"(0, 1]"``, ``"[0, inf)"``),
    is the range the value must lie in.
    """
    if type(value) is float and math.isfinite(value):
        number = value
    elif not (_is_int(value) or isinstance(value, (float, np.floating))):
        raise ValueError(f"{name} must be a number, got {value!r}")
    elif not (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    else:
        number = float(value)
    if interval is not None:
        low, high = (float(end) for end in interval[1:-1].split(","))
        if not ((low < number if interval[0] == "(" else low <= number)
                and (number < high if interval[-1] == ")" else number <= high)):
            raise ValueError(f"{name} must be in {interval}, got {value!r}")
    return number


def _check_rank(rank, family: str, name: str = "rank") -> None:
    """Raise ``ValueError`` unless ``rank`` is a valid ``family`` rank config.

    ``family`` is ``"cp"`` or ``"tucker"``.  A CP rank is an int >= 1; a
    Tucker rank is an int >= 1 or a nonempty tuple of ints >= 1.  A bool
    is not an int here.  Extents are checked later, by :func:`_resolve_ranks`.
    """
    _check_choice(family, ("cp", "tucker"), "decomposition")
    if rank is None:
        raise ValueError(f"{family} needs a {name}")

    def positive_int(r) -> bool:
        return _is_int(r) and r >= 1

    if isinstance(rank, (tuple, list)):
        ok = family == "tucker" and len(rank) > 0 and all(positive_int(r) for r in rank)
    else:
        ok = positive_int(rank)
    if not ok:
        form = "an int >= 1" if family == "cp" else "an int >= 1 or a tuple of ints >= 1"
        raise ValueError(f"{family} {name} must be {form}, got {rank!r}")


def _resolve_ranks(rank, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-mode Tucker ranks for a tensor of ``shape``.

    An int is clamped to each mode's extent; a tuple needs one entry per
    mode, each in ``[1, extent]``, or ``ValueError`` is raised.
    """
    if isinstance(rank, (int, np.integer)):
        return tuple(min(int(rank), d) for d in shape)
    ranks = tuple(int(r) for r in rank)
    if len(ranks) != len(shape):
        raise ValueError(f"need {len(shape)} ranks, got {len(ranks)}")
    for q, (r, d) in enumerate(zip(ranks, shape)):
        if not 1 <= r <= d:
            raise ValueError(f"rank {r} invalid for mode {q} with extent {d}")
    return ranks


def _check_array(a, name: str, modes: tuple[int, int]) -> np.ndarray:
    """``a`` as a float64 ndarray of ``modes[0]`` to ``modes[1]`` modes, or ``ValueError``.

    The one place where an argument becomes an array.  A float64 ndarray
    is returned as it is, with no copy and no change of layout: a predict
    reads the caller's layout, and :func:`_check_stacked` makes a fit's
    input C-ordered.  Bool, int, uint and float values are converted.
    Complex, string, bytes, object, datetime and void values are refused,
    and so is a masked array, whose mask a conversion would drop.
    """
    # dtype by identity: an equal dtype object takes the longer path, which returns ``a`` as it is
    if type(a) is not np.ndarray or a.dtype is not _FLOAT64:
        if isinstance(a, np.ma.MaskedArray):
            raise ValueError(f"{name} must not be a masked array")
        a = np.asarray(a)
        if a.dtype.kind not in "biuf":
            raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
        a = a.astype(np.float64, copy=False)
    low, high = modes
    if not low <= a.ndim <= high:
        count = low if low == high else f"{low} to {high}"
        raise ValueError(f"{name} must have {count} modes, got shape {a.shape}")
    return a


def _check_arrays(arrays, name: str, modes: tuple[int, int], count: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """``arrays`` as a tuple of :func:`_check_array` results, or ``ValueError``.

    ``arrays`` must be a list, tuple or ndarray of ``count[0]`` to
    ``count[1]`` entries; an ndarray's entries are its sub-arrays along
    its first mode, so a 0-d array is refused.
    """
    if not isinstance(arrays, (list, tuple, np.ndarray)) or getattr(arrays, "ndim", 1) == 0:
        raise ValueError(f"{name}s must be a list, tuple or ndarray of one mode or more, "
                         f"got {type(arrays).__name__}")
    if not count[0] <= len(arrays) <= count[1]:
        raise ValueError(f"need {count[0]}..{count[1]} {name}s, got {len(arrays)}")
    return tuple([_check_array(a, name, modes) for a in arrays])


def _check_squares(values: np.ndarray, total: float, name: str) -> None:
    """Raise ``ValueError`` unless ``values`` are finite and so is ``total``, their sum of squares.

    ``total`` may also be its root.  Callers compute it anyway, with
    overflow warnings silenced, and a non-finite value makes it NaN or
    infinite, so valid values take no pass of their own.
    """
    if not math.isfinite(total):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} contain non-finite values")
        raise ValueError(f"{name} too large: the sum of their squares overflows")


def _check_stacked(x, y=_NO_RESPONSES) -> tuple[np.ndarray, np.ndarray | None]:
    """Stacked inputs ``x`` (and responses ``y``, flattened) as C-ordered float64, validated.

    ``x`` needs 2 or 3 feature modes, at least one sample and only finite
    values, and ``y`` one value per sample that passes
    :func:`_check_squares`, so that no mean, residual or variance a fit
    takes of them overflows.  Without ``y`` the responses returned are
    None; a ``y`` of None is refused, like any other non-array.  An ``x``
    that is not C-ordered is copied, since BLAS bits can follow layout.
    """
    x = np.ascontiguousarray(_check_array(x, "stacked input", STACKED_MODES))
    if x.shape[0] == 0:
        raise ValueError("need at least one sample")
    if not np.isfinite(x).all():
        raise ValueError("inputs contain non-finite values")
    if y is _NO_RESPONSES:
        return x, None
    y = _check_array(y, "responses", (1, MAX_MODES)).ravel()
    if y.size != x.shape[0]:
        raise ValueError(f"response length {y.size} does not match {x.shape[0]} samples")
    with np.errstate(over="ignore"):
        sum_sq = float(np.dot(y, y))
    _check_squares(y, sum_sq, "responses")
    return x, y


def _check_features(x, feature_shape: tuple[int, ...]) -> np.ndarray:
    """Stacked inputs ``x`` as float64, provided their feature modes have ``feature_shape``."""
    return _check_feature_shape(_check_array(x, "stacked input", STACKED_MODES), feature_shape)


def _check_feature_shape(x: np.ndarray, feature_shape: tuple[int, ...]) -> np.ndarray:
    """Checked stacked inputs ``x``, provided their feature modes have ``feature_shape``."""
    if x.shape[1:] != feature_shape:
        raise ValueError(
            f"feature shape {x.shape[1:]} does not match training shape {feature_shape}"
        )
    return x


def _check_output(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Checked stacked inputs, and a stacked output with one or two modes per row."""
    x, _ = _check_stacked(x)
    y = _check_array(y, "stacked output", (2, 3))
    if y.shape[0] != x.shape[0]:
        raise ValueError(
            f"input stacks {x.shape[0]} observations but output stacks {y.shape[0]}"
        )
    return x, y


def _check_shape(extents, name: str, modes: tuple[int, int]) -> tuple[int, ...]:
    """``extents`` as a tuple of ints >= 1, provided there are ``modes[0]`` to ``modes[1]`` of them."""
    shape = tuple([_check_int(d, name, 1) for d in extents])
    if not modes[0] <= len(shape) <= modes[1]:
        raise ValueError(f"{name} must have {modes[0]} to {modes[1]} extents, got {list(shape)}")
    return shape


def _check_coords(coords, feature_shape: tuple[int, ...]) -> tuple[int, ...]:
    """``coords`` as a tuple of ints, provided they index one cell of ``feature_shape``."""
    coords = tuple([_check_int(c, "coords") for c in coords])
    if len(coords) != len(feature_shape):
        raise ValueError(f"coords {coords} do not index feature shape {feature_shape}")
    for c, d in zip(coords, feature_shape):
        if not 0 <= c < d:
            raise ValueError(f"coords {coords} out of range for feature shape {feature_shape}")
    return coords


def _check_ranks(criterion, specs, feature_shape: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless the tuple ranks of a grow config fit ``feature_shape``.

    ``specs`` are the config's leaf and ``lre`` model specs (None where
    absent), whose ranks cover the feature modes.  An ``lae`` Tucker rank
    of the split ``criterion`` leads with the observation mode, whose
    extent is the node size (a smaller node falls back to the mean), so
    only its length and feature entries are checked here.
    """
    for spec in specs:
        if spec is not None and spec.kind == "tucker":
            _resolve_ranks(spec.rank, feature_shape)
    rank = criterion.split_rank
    if criterion.kind == "lae" and criterion.decomp == "tucker" and isinstance(rank, (tuple, list)):
        _resolve_ranks(rank, (rank[0],) + tuple(feature_shape))


def _check_keys(doc, allowed: set, where: str) -> None:
    """Raise ``ValueError`` unless the ``where`` object ``doc`` is a dict with keys in ``allowed``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object")
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _finite_array(values) -> np.ndarray:
    """Nested number lists as a float64 array, each entry a :func:`_check_number`."""
    # each entry is checked before the cast, which would read a bool among numbers as 0 or 1
    cells = np.asarray(values, dtype=object)
    for value in cells.flat:
        _check_number(value, "array entry")
    return cells.astype(np.float64)


def _finite_predictions(predict):
    """Decorate a public predict: non-finite output raises ``ValueError``.

    Overflow inside the model's arithmetic is silenced and caught by one
    check of the returned array, as is a non-finite input value that a
    low-rank leaf reads, so no ``inf`` or ``nan`` reaches a caller.
    """

    @functools.wraps(predict)
    def checked(*args):
        with np.errstate(over="ignore", invalid="ignore"):
            out = predict(*args)
        # An ensemble checks only its result, not each tree's output: a
        # non-finite tree output cannot turn finite on its way there.  Scaling
        # by the learning rate keeps it non-finite (inf * eta is inf, or nan
        # for eta = 0), so does each later sum (inf - inf and nan + v are nan)
        # and the forest's division by its tree count, and a low-rank
        # reconstruction multiplies it into every output entry of its row,
        # where 0 * inf is nan.
        if not np.isfinite(out).all():
            raise ValueError("non-finite prediction: a non-finite input value, or overflow in the model")
        return out

    return checked
