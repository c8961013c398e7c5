"""Shared test setup: one Hypothesis profile for every property test.

Derandomized, so every run of the suite checks the same examples, and
without an example database, so no run depends on an earlier one.
"""

from hypothesis import settings

settings.register_profile("sentinel", derandomize=True, deadline=None, database=None)
settings.load_profile("sentinel")
