"""Frozen LDL^H screen of the joint-typicality search.

A verbatim copy of the ``_gram_statistics`` that the package used to score
every (problem, subset) pair, before the search scored subsets from per-block
Gram tables: it gathers each L x L G_J (``numerics.kron_gram``) and
eliminates it whole, pivot by pivot, cross-block zeros included.  The tests
assert that the table screen gives the same statistic and proof bits.
"""

import numpy as np

from ris_crlb.numerics import GRAM_COND, kron_gram


def _gram_statistics(outer, reps, corr, yy, noise_var, subsets, m):
    """Typicality statistic of each (problem, subset) pair from G and c.

    G = kron(outer, I_reps), ``outer`` (R, p, p); ``corr`` is (R, p*reps),
    ``yy`` and ``noise_var`` (R,) and ``subsets`` (b, l); the results are
    (R, b).  An LDL^H elimination of the stack of G_J (:func:`kron_gram`),
    each pivot step on all pairs at once, with c_J forward substituted to
    c', gives ||P_J y||^2 = sum_p |c'_p|^2 / d_p.  Returns the statistics
    and whether the elimination proves G_J full rank (``numerics.full_rank``):
    every pivot is > 0 (not just det = prod_p d_p) and tr(G_J)^l / det <
    GRAM_COND, which bounds w_max / w_min from above, as w_max <= tr and
    w_min >= det / w_max^(l-1) (the bound is 1 at l = 1).
    """
    l = subsets.shape[1]
    g = kron_gram(outer, reps, subsets[None])
    c, cond = corr[:, subsets], np.einsum("...ii->...", g).real ** l
    energy, ok = 0.0, True
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in range(l):
            d = g[..., p, p].real
            f = g[..., p + 1:, p] / d[..., None]
            g[..., p + 1:, p + 1:] -= f[..., :, None] * g[..., None, p, p + 1:]
            c[..., p + 1:] -= f * c[..., p, None]
            energy, cond, ok = energy + np.abs(c[..., p]) ** 2 / d, cond / d, ok & (d > 0)
        stat = np.abs(np.maximum(yy[:, None] - energy, 0.0) / m - (m - l) / m * noise_var[:, None])
    return stat, ok & (cond < GRAM_COND)
