"""Canonical JSON (sorted keys, no whitespace) and its sha256.

Spec hashes, store keys and integrity digests, fault-plan and traffic
hashes all digest this one byte form.  :func:`fields_dict` and
:func:`build` are the one mapping between a dataclass record and its
JSON object, and :class:`JsonRecord` gives the typed JSON records
(fault plans, recovery policies, traffic traces) their one JSON file
format.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import ClassVar, Optional

__all__ = ["JsonRecord", "build", "dumps", "fields_dict", "sha256"]


def dumps(obj) -> str:
    """``obj`` as canonical JSON (sorted keys, ``","``/``":"`` separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(obj) -> str:
    """Full hex sha256 of :func:`dumps` of ``obj``."""
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


def _jsonable(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return fields_dict(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def fields_dict(obj) -> dict:
    """The dataclass ``obj`` as a JSON object, one key per field.

    A nested record goes through its own ``to_dict``, a nested
    dataclass field by field, and a tuple becomes a list.  ``ClassVar``
    attributes are not fields, so they are left out.
    """
    return {
        f.name: _jsonable(getattr(obj, f.name))
        for f in dataclasses.fields(obj)
    }


def build(cls, data, error: type, noun: str, **decoders):
    """Inverse of :func:`fields_dict`: the ``cls`` record ``data`` describes.

    ``decoders`` maps a field name to the function that decodes its
    non-null value (a nested record, say).  A missing key takes the
    field's default.  A non-object, an unknown key or a constructor
    ``TypeError`` (a required field missing, a decoder given the wrong
    shape) raises ``error``.
    """
    if not isinstance(data, dict):
        raise error(f"{noun} must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls) if f.init}
    unknown = set(data) - known
    if unknown:
        raise error(
            f"{noun} has unknown field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    try:
        return cls(**{
            k: decoders[k](v) if k in decoders and v is not None else v
            for k, v in data.items()
        })
    except TypeError as e:
        raise error(f"{noun}: {e}") from None


class JsonRecord:
    """``to_dict``/``from_dict``/``to_json``/``from_json``/``load`` for a
    frozen dataclass record type.

    A subclass names itself with ``noun`` (e.g. ``"fault plan"``) and
    ``error``, the :class:`~repro.errors.ReproError` subclass a
    malformed or unreadable document raises.  ``to_dict`` is
    :func:`fields_dict` and ``from_dict`` is :func:`build`; a record
    with nested records overrides ``from_dict`` to pass their decoders.
    """

    noun: ClassVar[str]
    error: ClassVar[type]

    def to_dict(self) -> dict:
        """JSON-ready dict, one key per field."""
        return fields_dict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        return build(cls, data, cls.error, cls.noun)

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """JSON rendition (sorted keys, so equal records diff clean)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Inverse of :meth:`to_json`; validates the whole schema."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise cls.error(f"{cls.noun} is not valid JSON: {e}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str):
        """Read and validate a record file; any failure raises ``error``."""
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise cls.error(
                f"cannot read {cls.noun} {path}: {e.strerror}"
            ) from None
        try:
            return cls.from_json(text)
        except cls.error as e:
            raise cls.error(f"invalid {cls.noun} {path}: {e}") from None
