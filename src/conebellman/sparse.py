"""Matrix supports: the nonzero entries of a matrix as flat arrays.

A support holds the row ids, column ids and values of a matrix's nonzero
entries in row-major order (by row, then column): the index arrays of a
compressed sparse row matrix without its row pointer.  A dense matrix is
scanned once for its support, and the solvers work on the support in
O(nnz).  Column sums are one ``np.bincount`` over the column ids; in
row-major order each column's entries come in ascending row order, the
order ``M.sum(axis=0)`` adds them in, so sums keep the bits of the dense
formulas.  `reaches` searches any index arrays: a support or an edge list.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Support(NamedTuple):
    """Nonzero entries of a matrix in row-major order (by row, then column)."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def scan(M: np.ndarray) -> Support:
    """The support of the dense 2-D M; NaN and infinite entries are in it."""
    rows, cols = np.divmod(np.flatnonzero(M != 0.0), M.shape[1])
    return Support(M.shape, rows, cols, M[rows, cols])


def coalesced(shape, rows, cols, vals) -> Support:
    """The support of the matrix whose entries at (rows, cols) add up to vals.

    Entries at one position are added in the order given, so q followed by
    -p sums to q - p, as a dense scatter of q followed by subtracting p
    rounds it; a sum that cancels to zero is dropped, as a scan of that
    dense matrix would drop it.
    """
    key = rows * shape[1] + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    first = first.nonzero()[0]
    sums = np.add.reduceat(vals[order], first) if key.size else vals
    kept = sums != 0.0
    rows, cols = np.divmod(key[first[kept]], shape[1])
    return Support(shape, rows, cols, sums[kept])


def colsums(cols: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per-column sums of support weights, each added in the order given.

    np.bincount returns int64 zeros for an empty support; the sums stay float.
    """
    return np.bincount(cols, weights=weights, minlength=n).astype(float, copy=False)


def tdot(S: Support, x: np.ndarray) -> np.ndarray:
    """M^T x, each column's entries added in ascending row order."""
    return colsums(S.cols, S.vals * x[S.rows], S.shape[1])


def row_pointer(S: Support) -> np.ndarray:
    """Where each row's entries start in S, then nnz: the CSR row pointer."""
    return np.searchsorted(S.rows, np.arange(S.shape[0] + 1))


def row_entries(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of every entry of the given rows, row by row, and how many
    entries each row has, from the support's row pointer ptr."""
    start = ptr[rows]
    counts = ptr[rows + 1] - start
    offset = np.repeat(start - (np.cumsum(counts) - counts), counts)
    return offset + np.arange(offset.size), counts


def reaches(rows: np.ndarray, cols: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Mask of ids with a path into the mask ``sources``.

    i -> j iff some entry has row j and column i, so each pass marks the
    column of every entry whose row is marked: one level of a reverse
    breadth-first search, in three numpy calls over all entries.  The
    passes stop at the first that marks nothing new, so the work is O(nnz)
    per level.  A frontier search that reads each entry once takes some
    fifteen numpy calls per level, which cost small systems more than the
    rescans do.
    """
    reached = sources.copy()
    count = -1
    while count != (count := int(np.count_nonzero(reached))):
        reached[cols[reached[rows]]] = True
    return reached


def dense(S: Support) -> np.ndarray:
    """The dense matrix of S, as a new writeable array."""
    M = np.zeros(S.shape)
    M[S.rows, S.cols] = S.vals
    return M


def frozen(a, dtype=float) -> np.ndarray:
    """A read-only copy of a; a read-only array that owns its data is kept.

    A problem rebuilt from another one's arrays shares them: copying again
    costs a page fault per page of the new buffer.
    """
    owned = isinstance(a, np.ndarray) and a.dtype == dtype and a.base is None
    if not (owned and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a
