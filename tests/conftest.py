"""Suite-wide Hypothesis settings: every property test draws the same
examples on every run and none fails on timing."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
