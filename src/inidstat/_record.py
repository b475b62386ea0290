"""Serialization and the ``passed`` property of the report dataclasses, written once for all of them."""

from __future__ import annotations

import dataclasses
import typing


class Record:
    """Mixin for report dataclasses: plain JSON-ready dicts in field order.

    ``to_dict`` turns nested records into dicts and tuples into lists;
    ``from_dict`` rebuilds nested records and tuples from the field types.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, obj: dict):
        types = typing.get_type_hints(cls)
        return cls(**{f.name: _typed(types[f.name], obj[f.name]) for f in dataclasses.fields(cls)})


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


def _typed(tp, value):
    if value is None:
        return None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        # Optional[X]: the value is not None, so it is an X.
        return _typed(next(a for a in args if a is not type(None)), value)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_typed(args[0], v) for v in value)
        return tuple(_typed(a, v) for a, v in zip(args, value))
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.from_dict(value)
    return value
