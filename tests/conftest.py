"""Test-suite settings shared by every module.

Hypothesis draws its examples from a seed derived from each test, keeps no
example database and sets no deadline, so every run of the suite checks
the same inputs and a slow machine cannot fail a property test.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")
