"""Sorted-array stand-ins for np.quantile and np.unique.

numpy 2 imports numpy.ma, about 12 ms, the first time either runs (each
asks whether its input is masked), and gramspec never builds a masked
array; these give the same values from one np.sort.
"""

from __future__ import annotations

import numpy as np


def quantiles(v, qs) -> np.ndarray:
    """np.quantile(v, qs) by its default 'linear' method, bit for bit: the
    value at position (n - 1) q of the sorted v, interpolated as numpy
    does, from the left neighbour when the fraction is below 1/2 and from
    the right one otherwise."""
    a = np.sort(np.asarray(v, dtype=float))
    pos = (a.size - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(pos)
    frac = pos - lo
    left = a[lo.astype(np.intp)]
    right = a[np.minimum(lo + 1, a.size - 1).astype(np.intp)]
    diff = right - left
    return np.where(frac >= 0.5, right - diff * (1.0 - frac),
                    left + diff * frac)


def unique(v) -> np.ndarray:
    """np.unique(v) for a float array without NaN: its distinct values,
    sorted."""
    a = np.sort(np.asarray(v, dtype=float), axis=None)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]
