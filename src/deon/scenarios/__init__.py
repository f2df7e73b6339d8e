"""Bundled example scenarios, one file per worked story."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

NAMES = ("theft", "ambulance", "merge", "bus", "pedestrian")


def source(name: str) -> str:
    """Raw text of a bundled scenario file."""
    if name not in NAMES:
        raise KeyError(f"no bundled scenario named {name!r}")
    return resources.files(__package__).joinpath(f"{name}.deon").read_text("utf-8")


def path(name: str) -> Path:
    """Filesystem path of a bundled scenario file."""
    if name not in NAMES:
        raise KeyError(f"no bundled scenario named {name!r}")
    return Path(str(resources.files(__package__).joinpath(f"{name}.deon")))

