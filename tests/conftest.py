"""Shared test settings.

Property tests run under one deterministic hypothesis profile: examples are
derived from each test's own code, not from a random seed or a stored example
database, and their number is bounded, so every run of the suite checks the
same cases in about the same time.
"""

from hypothesis import settings

settings.register_profile("thinspray", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("thinspray")
