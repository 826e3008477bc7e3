"""Hypothesis profiles for the test suite: ``ci`` prints the reproduction
blob of a failing example and sets no deadline.  Select it with
``pytest --hypothesis-profile=ci``."""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
