"""Canonical ordering and formatting of structured labels.

Ground-set elements, flats and complex vertices are drawn from ints,
strings, tuples and frozensets, nested arbitrarily.  ``label_key`` is the
one total order on them, so results are bit-identical across runs.  A
simplicial complex keys its vertices once and sorts them; complexes cut
from it inherit that order, and simplex orderings, boundary matrices and
exports follow it without keying a vertex again.
"""

from __future__ import annotations


def label_key(x):
    """Total-order key for the label types used across the package."""
    if isinstance(x, bool):
        raise TypeError("bool labels are not supported")
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, tuple(label_key(e) for e in x))
    if isinstance(x, frozenset):
        return (3, tuple(sorted(label_key(e) for e in x)))
    raise TypeError(f"unsupported label type: {type(x).__name__}")


def sort_labels(labels):
    return sorted(labels, key=label_key)


def format_label(x) -> str:
    """Deterministic readable string for a label (used by exports/reports).

    It is read off the label's key, whose frozensets are already sorted.
    """
    return _format_key(label_key(x))


def _format_key(key) -> str:
    kind, value = key
    if kind == 0:
        return str(value)
    if kind == 1:
        return value
    inner = ",".join(_format_key(k) for k in value)
    return f"({inner})" if kind == 2 else "{" + inner + "}"
