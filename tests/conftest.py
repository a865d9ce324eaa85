"""Shared test settings.

Hypothesis tests run a modest number of examples by default.  For a long
differential run, select the ``fuzz`` profile:

    HYPOTHESIS_PROFILE=fuzz pytest tests/test_yaml_paths.py
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "fuzz",
    max_examples=20_000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
