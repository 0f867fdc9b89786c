"""Shared settings for the property-based tests.

Every `hypothesis` test draws the same examples on every run and keeps
no example database; each sets only its own `max_examples`.  There is no
deadline, since per-example times vary with the host's load.
"""

from hypothesis import settings

settings.register_profile("ebchannels", derandomize=True, deadline=None, database=None)
settings.load_profile("ebchannels")
