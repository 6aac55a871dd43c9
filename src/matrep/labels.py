"""Canonical ordering and formatting of structured labels.

Ground-set elements, flats and complex vertices are drawn from ints,
strings, tuples and frozensets, nested arbitrarily.  ``label_key`` is the
one total order on them, so results are bit-identical across runs.  A
simplicial complex keys its vertices once and sorts them, and simplex
orderings, boundary matrices and exports follow that order without keying
a vertex again.  Constructions hand their complexes and posets over
already in this order: building T keys its flats and its template's
vertices, never a vertex of T, and T's subcomplexes over up-sets of flats
take T's order.
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
    """Deterministic readable string for a label (used by exports and
    reports): a tuple's parts in order, a frozenset's elements in
    ``label_key`` order, and an int or string as itself, so ``True`` is
    refused as ``label_key`` refuses it."""
    if isinstance(x, tuple):
        return "(" + ",".join(map(format_label, x)) + ")"
    if isinstance(x, frozenset):
        return "{" + ",".join(map(format_label, sort_labels(x))) + "}"
    return str(label_key(x)[1])
