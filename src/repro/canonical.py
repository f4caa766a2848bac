"""Canonical JSON (sorted keys, no whitespace) and its sha256.

Spec hashes, store keys and integrity digests, fault-plan and traffic
hashes all digest this one byte form.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["dumps", "sha256"]


def dumps(obj) -> str:
    """``obj`` as canonical JSON (sorted keys, ``","``/``":"`` separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(obj) -> str:
    """Full hex sha256 of :func:`dumps` of ``obj``."""
    return hashlib.sha256(dumps(obj).encode()).hexdigest()
