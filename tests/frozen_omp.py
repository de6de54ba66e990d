"""Frozen per-trial reference for the OMP baseline.

A literal copy of the one-problem orthogonal matching pursuit that the stacked,
Gram-domain ``ris_crlb.estimator.omp_estimate`` replaced: correlations from
the materialised matrix and a least-squares refit (``np.linalg.lstsq``) per
step.  It shares no code with the package, so the tests that use it do not
depend on the code they check.
"""

from collections import namedtuple

import numpy as np

Result = namedtuple("Result", "support upsilon_hat statistic subsets_examined failed degenerate")


def omp_estimate(y, upsilon_mat, l):
    """Orthogonal matching pursuit baseline.

    Each iteration picks the unselected column with the largest normalized
    residual correlation (ties break to the lowest index), then refits by
    least squares on the selected set.  If the selected columns ever become
    dependent the partial estimate is returned with ``degenerate`` set.
    Unchecked: the caller passes a complex y, upsilon_mat and 1 <= l <= n.
    """
    n_cols = upsilon_mat.shape[1]
    col_norms = np.linalg.norm(upsilon_mat, axis=0)
    safe_norms = np.where(col_norms > 0, col_norms, 1.0)
    selected = []
    coef = np.zeros(0, dtype=np.complex128)
    residual = y.copy()
    degenerate = False
    for _ in range(l):
        corr = np.abs(upsilon_mat.conj().T @ residual) / safe_norms
        corr[selected] = -1.0
        pick = int(np.argmax(corr))
        trial_coef, _, rank, _ = np.linalg.lstsq(upsilon_mat[:, selected + [pick]], y, rcond=None)
        if rank <= len(selected):
            degenerate = True
            break
        selected.append(pick)
        coef = trial_coef
        residual = y - upsilon_mat[:, selected] @ coef

    estimate = np.zeros(n_cols, dtype=np.complex128)
    if selected:
        estimate[selected] = coef
    statistic = float(np.sum(np.abs(residual) ** 2)) / y.shape[0]
    return Result(
        support=tuple(sorted(selected)),
        upsilon_hat=estimate,
        statistic=statistic,
        subsets_examined=len(selected),
        failed=False,
        degenerate=degenerate,
    )
