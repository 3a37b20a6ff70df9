"""Shared test settings for `hypothesis` properties.

Examples run without a per-example deadline, since exact arithmetic makes
single examples slow on a busy machine.  A failure is reported as first found:
the shrink and explain phases are off, because on a composite property they
can take minutes and hundreds of MB before the report.  A red run thus stops
at its first failing example and never runs more examples than a green one.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "narratables",
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
settings.load_profile("narratables")
