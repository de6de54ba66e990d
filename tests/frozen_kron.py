"""Frozen column oracle of the Kronecker measurement matrix.

A verbatim copy of the ``kron_columns`` that the package used to build
support columns for its SVD rechecks, before the search and the fits decided
everything from the Gram matrix.  The tests build SVD references from it.
"""

import numpy as np


def kron_columns(pilots, n_s, cols):
    """Columns ``cols`` of kron(X^T, I_ns), for one pilot block or a stack.

    ``pilots`` (n_d, k) with ``cols`` (l,), or a stack (T, n_d, k) with one
    column set per block, ``cols`` (T, l); the result is the C-ordered
    (k*n_s, l) or (T, k*n_s, l) array of those columns.  Column j*n_s + i
    holds the products X[j, :] * I[:, i] that :func:`measurement_matrix`
    forms, so its entries carry the same bits, signs of zero included (LAPACK
    and BLAS results can depend on those signs).
    """
    cols = np.asarray(cols, dtype=np.intp)
    j, i = np.divmod(cols, n_s)
    # pilot rows j of each block: one index array per axis, cheaper than take_along_axis
    rows = pilots[j] if j.ndim == 1 else pilots[np.arange(len(j))[:, None], j]
    # the products written straight into the (..., k, n_s, l) output
    x = rows.swapaxes(-1, -2)[..., :, None, :]
    ident = np.eye(n_s, dtype=np.complex128)[i].swapaxes(-1, -2)[..., None, :, :]
    out = np.multiply(x, ident, order="C")
    return out.reshape(out.shape[:-3] + (-1, cols.shape[-1]))
