"""Canonical-JSON content digests.

One recipe addresses every structured input by content: ``json.dumps``
with sorted keys and no whitespace, then SHA-256.  It lives below every
other subpackage so the immutable data types (materials, guideline trees)
can memoize their own digests without importing the pipeline that keys
on them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_digest(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON form.

    ``sort_keys`` makes dict ordering irrelevant; the separator choice
    removes whitespace ambiguity; non-JSON values fall back to ``str``.
    """
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()
