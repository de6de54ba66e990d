"""Frozen per-lane reference for the raw-word draws.

A copy of the per-generator ``raw_draws`` that the package used
before it drew all lanes at once: each PCG64's raw words read one at a
time as Python ints, numpy's 32-bit half stream as a generator, and each
Lemire bounded draw as its own call.  The tests spy on :func:`bounded` to
see which draws a crafted state rejects.
"""

from itertools import chain, islice

import numpy as np


def halves(words):
    """numpy's ``next_uint32`` stream: the low, then the high half of each word.  A high
    half not yet read waits here while doubles take whole words, as numpy buffers it."""
    for w in words:
        yield w & 0xFFFFFFFF
        yield w >> 32


def bounded(halves, j):
    """numpy's unmasked ``random_bounded_uint64(0, j)`` for ``j < 2^32``: Lemire's
    multiply-shift of a 32-bit draw, redrawn while its low word is below
    ``2^32 mod (j + 1)``."""
    if not j:
        return 0
    n = j + 1
    m = next(halves) * n
    if m & 0xFFFFFFFF < n:
        floor = (1 << 32) % n
        while m & 0xFFFFFFFF < floor:
            m = next(halves) * n
    return m >> 32


def choice(halves, dim, l):
    """``choice(dim, l, replace=False)`` from numpy's 32-bit draws ``halves``: the tail
    shuffle for ``dim > 10000`` and ``l > dim // 50``, else Floyd's selection and a
    shuffle of the picks."""
    if dim > 10000 and l > dim // 50:
        moved = {}  # the entries of range(dim) the shuffle has swapped
        for i in range(dim - 1, max(dim - l, 1) - 1, -1):
            j = bounded(halves, i)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return [moved.get(i, i) for i in range(dim - l, dim)]
    picks, taken = [], set()
    for j in range(dim - l, dim):
        v = bounded(halves, j)
        v = j if v in taken else v
        taken.add(v)
        picks.append(v)
    for i in range(l - 1, 0, -1):
        j = bounded(halves, i)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def raw_draws(bits, steps):
    """The draws of ``np.random.Generator(b)`` for each PCG64 ``b`` of ``bits``: for each
    ``(dim, l, n)`` of ``steps``, ``choice(dim, l, replace=False)`` (none where ``l`` is 0)
    and then ``random(n)``.  Returns the (T, l) picks of each choice and the (T, sum of n)
    doubles."""
    n_words = sum(l + n for _dim, l, n in steps)
    choosing, picks, raws = any(l for _dim, l, _n in steps), [], []
    for b in bits:
        row = b.random_raw(n_words)
        if choosing:
            words = chain(row.tolist(), iter(b.random_raw, None))
            half, chosen, row = halves(words), [], []
            for dim, l, n in steps:
                if l:
                    chosen.append(choice(half, dim, l))
                row.extend(islice(words, n))
            picks.append(chosen)
        raws.append(row)
    doubles = (np.array(raws, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53
    return [np.array(column, dtype=np.int64) for column in zip(*picks)], doubles
