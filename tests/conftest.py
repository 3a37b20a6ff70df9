"""Shared test settings: `hypothesis` examples run without a per-example
deadline, since exact arithmetic makes single examples slow on a busy machine."""

from hypothesis import settings

settings.register_profile("narratables", deadline=None)
settings.load_profile("narratables")
