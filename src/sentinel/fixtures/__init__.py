"""Bundled reference result tables for the 0, 1, and 2 agent baselines."""

from importlib import resources
from pathlib import Path

FIXTURE_NAMES = ("no_ea", "one_ea", "two_ea")


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture, by name."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    return Path(str(resources.files(__package__).joinpath(f"{name}.csv")))
