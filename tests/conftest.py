"""One hypothesis profile for every property test: derandomized, so a run
repeats exactly; no example database; no per-example deadline, since
timings on a loaded host are no property of the code."""

from hypothesis import settings

settings.register_profile("crkron", derandomize=True, database=None, deadline=None)
settings.load_profile("crkron")
