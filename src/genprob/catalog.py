"""Named corpus of small groups, stored as generator files plus a manifest.

Each entry is a group-spec text file under ``data/groups`` and a manifest
record with the expected order and structural tags.  Loading re-derives the
order from the generators and refuses a mismatch, so the data files cannot
drift from the manifest silently.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .errors import GroupError, UnknownName
from .group import DEFAULT_MATERIALIZATION_CAP, FiniteGroup, parse_group_spec
from .util import Frozen, Record

__all__ = ["CatalogEntry", "entry", "load", "list_entries", "names"]


class CatalogEntry(Record, Frozen):
    def __init__(self, name: str, file: str, expected_order: int, tags: dict) -> None:
        if expected_order < 1:
            raise GroupError(f"entry {name}: expected order must be positive")
        self.__dict__.update(name=name, file=file, expected_order=expected_order, tags=tags)


@lru_cache(maxsize=1)
def _manifest() -> dict[str, CatalogEntry]:
    text = resources.files("genprob.data").joinpath("manifest.json").read_text()
    entries = [CatalogEntry(**record) for record in json.loads(text)]
    return {e.name: e for e in entries}


def names() -> list[str]:
    return list(_manifest())


def list_entries() -> list[CatalogEntry]:
    return list(_manifest().values())


def entry(name: str) -> CatalogEntry:
    try:
        return _manifest()[name]
    except KeyError:
        raise UnknownName(
            f"unknown catalog group {name!r}; see list_entries()"
        ) from None


def load(name: str, cap: int = DEFAULT_MATERIALIZATION_CAP) -> FiniteGroup:
    e = entry(name)
    text = resources.files("genprob.data").joinpath(e.file).read_text()
    group = parse_group_spec(text, cap=cap, name=e.name)
    if group.order != e.expected_order:
        raise GroupError(
            f"catalog entry {name!r}: generators yield order {group.order}, "
            f"manifest says {e.expected_order}"
        )
    return group
