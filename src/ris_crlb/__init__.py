"""Cascade channel estimation toolkit for RIS-assisted mmWave links.

Simulates the two-hop physical channel, its sparse angular-domain
representation, and pilot-based sensing; recovers the sparse channel with an
exhaustive joint-typicality search (plus genie least-squares and orthogonal
matching pursuit baselines); and benchmarks the Monte Carlo MSE against the
Cramer-Rao lower bound and an analytic upper bound.
"""

__version__ = "0.1.0"
