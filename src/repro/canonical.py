"""Canonical JSON (sorted keys, no whitespace) and its sha256.

Spec hashes, store keys and integrity digests, fault-plan and traffic
hashes all digest this one byte form.  :class:`JsonRecord` gives the
typed JSON records (fault plans, recovery policies, traffic traces)
their one JSON file format.
"""

from __future__ import annotations

import hashlib
import json
from typing import ClassVar, Optional

__all__ = ["JsonRecord", "dumps", "sha256"]


def dumps(obj) -> str:
    """``obj`` as canonical JSON (sorted keys, ``","``/``":"`` separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(obj) -> str:
    """Full hex sha256 of :func:`dumps` of ``obj``."""
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


class JsonRecord:
    """``to_json``/``from_json``/``load`` for a frozen record type.

    A subclass defines ``to_dict`` and ``from_dict``, and names itself
    with ``noun`` (e.g. ``"fault plan"``) and ``error``, the
    :class:`~repro.errors.ReproError` subclass a malformed or unreadable
    document raises.
    """

    noun: ClassVar[str]
    error: ClassVar[type]

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
