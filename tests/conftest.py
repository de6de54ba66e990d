"""Shared fixtures; the full default sweep is expensive and session-scoped."""

import os

import pytest

from ris_crlb import harness as hn


@pytest.fixture(scope="session")
def default_sweep():
    """Full default-config sweep (3 SNRs x 8 Ks x 1000 trials), with its trials.

    Used by the convergence/bound acceptance criteria and the curve-shape
    checks; deterministic in the default master seed for any thread count.
    """
    cfg = hn.default_config()
    threads = min(8, os.cpu_count() or 1)
    return cfg, hn.run_sweep(cfg, threads=threads)
