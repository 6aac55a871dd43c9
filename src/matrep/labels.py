"""Canonical ordering and formatting of structured labels.

Ground-set elements, flats and complex vertices are drawn from ints,
strings, tuples and frozensets, nested arbitrarily.  ``label_key`` is the
one total order on them, so results are bit-identical across runs.  A
simplicial complex keys its vertices once and sorts them, and simplex
orderings, boundary matrices and exports follow that order without keying
a vertex again.  Constructions hand their complexes and posets over
already in this order: building T keys its flats and its template's
vertices, never a vertex of T, and T's subcomplexes over up-sets of flats
take T's order.  An export formats each distinct sub-label once
(``label_formatter``).
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
    """Deterministic readable string for a label (used by exports/reports)."""
    return label_formatter()(x)


def label_formatter():
    """A ``format_label`` that formats each distinct sub-label once.

    It keeps each sub-label's key and string, so formatting many labels
    that share parts, such as the vertices of one complex, keys and formats
    every part once; a frozenset's elements are joined in key order.
    Entries are looked up by type as well as value, so ``1`` and ``True``
    never share one, and ``True`` is refused as ``label_key`` refuses it.
    """
    known = {}
    return lambda x: _entry(known, x)[1]


def _entry(known, x):
    """The key and string of the label x, kept in ``known``."""
    found = known.get((type(x), x))
    if found is None:
        if isinstance(x, tuple):
            found = _compound(2, [_entry(known, e) for e in x], "(", ")")
        elif isinstance(x, frozenset):
            found = _compound(3, sorted(_entry(known, e) for e in x), "{", "}")
        else:
            key = label_key(x)
            found = (key, str(key[1]))
        known[type(x), x] = found
    return found


def _compound(kind, parts, left, right):
    """Key and string of a tuple or frozenset from its parts' entries;
    the parts' keys differ, so sorting them never compares strings."""
    key = (kind, tuple(k for k, _ in parts))
    return key, left + ",".join(s for _, s in parts) + right
