"""Exact front tracking for scalar conservation laws.

Simulates u_t + F(u)_x = 0 for a grid-sampled flux with exact rational
arithmetic, traces every wave from birth to cancellation, and verifies the
interaction-potential inequalities (weight bounds, drop estimates, and the
forward-in-time restart property) with zero tolerance on every run.
"""

__version__ = "0.1.0"
