"""Test-suite settings: one hypothesis profile for every property test.

No per-example deadline (the first call of a kernel may be slow), and
derandomized draws, so each run of the suite checks the same examples.
"""

from hypothesis import settings

settings.register_profile("bessim", deadline=None, derandomize=True)
settings.load_profile("bessim")
