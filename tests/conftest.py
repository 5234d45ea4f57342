"""Suite-wide settings: hypothesis draws the same examples on every run.

The "deterministic" profile derandomizes example generation and drops the
per-example deadline, so a tier-1 run is reproducible on any machine.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
