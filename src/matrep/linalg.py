"""Exact column reduction over the rationals.

Every Betti number and homology matrix in the package comes out of one
routine: the standard column reduction of persistent homology
(Zomorodian-Carlsson, "Computing persistent homology", 2005) on sparse
``{row: value}`` columns.  A column's pivot is its largest row.  The
routine subtracts earlier columns until a column's pivot is new or the
column is zero, and applies the same steps to a tracked column, so a column
that reduces to zero yields the combination of inputs that cancels: a cycle.

Values are ints or ``Fraction``s and every operation is exact.  Stored
pivot columns are scaled to a pivot entry of 1, so elimination needs no
division and stays in ints wherever the pivots are +-1, as they are on
boundary matrices in practice.  ``fractions`` is therefore imported only
at the first pivot that is not +-1, and importing the package does not
load it.
"""

from __future__ import annotations


def reduce_columns(columns, pivots=None):
    """Reduce ``(column, tracked)`` pairs left to right against ``pivots``.

    Both parts are sparse ``{row: value}`` dicts and are reduced in place.
    ``pivots`` maps a pivot row to a ``(column, tracked)`` pair whose
    column has entry 1 at that row; it starts empty unless given, and gains
    every column that stays nonzero.

    Returns ``(pivots, cycles)``, where ``cycles[j]`` is the tracked part
    of each pair ``j`` whose column reduced to zero.
    """
    pivots = {} if pivots is None else pivots
    cycles = {}
    for j, (column, tracked) in enumerate(columns):
        while column:
            low = max(column)
            hit = pivots.get(low)
            if hit is None:
                break
            factor = column[low]
            for other, entries in zip((column, tracked), hit):
                for row, value in entries.items():
                    new = other.get(row, 0) - factor * value
                    if new:
                        other[row] = new
                    else:
                        del other[row]
        if not column:
            cycles[j] = tracked
            continue
        entry = column[low]
        if entry != 1:
            if entry == -1:
                scale = -1
            else:
                from fractions import Fraction

                scale = 1 / Fraction(entry)
            for other in (column, tracked):
                for row in other:
                    other[row] *= scale
        pivots[low] = (column, tracked)
    return pivots, cycles
