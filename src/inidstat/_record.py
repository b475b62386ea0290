"""Serialization and the ``passed`` property of the report dataclasses, written once for all of them."""

from __future__ import annotations

import dataclasses


class Record:
    """Mixin for report dataclasses: plain JSON-ready dicts in field order.

    ``to_dict`` turns nested records into dicts and tuples into lists.
    Reports are written, never read back.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}


class _Verdict:
    """Mixin for records with a ``verdict`` field: ``passed`` is whether it reads "pass"."""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value

