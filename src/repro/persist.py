"""Crash-safe, fingerprinted JSON state: the one on-disk store.

Three resumable computations persist through :func:`write_state` and
:func:`read_state`: the run checkpoint (``runner.run_replicated``,
schema version 2, sections ``snapshots`` and ``partials``), the fleet
checkpoint (``fleet.run_fleet``, version 1, section ``shards``) and the
sweep cache entry (``sweep.grid_sweep``, version 1, section ``points``).

*Layout.*  One JSON object, ``{"fingerprint": {"version": v, ...},
<section>: [...], ...}``.  The fingerprint pins everything the stored
results depend on; checkpoint sections list ``{"index": i, ...}``
entries (parsed by :func:`indexed_entries`), the sweep's ``points`` are
row-major.  Infinite delay bounds are stored as ``"inf"``
(:func:`json_safe`).

*Refusal matrix.*  :func:`read_state` returns None for a missing file
and raises :class:`~repro.exceptions.ParameterError` for an unreadable
file (I/O error, truncated or corrupt bytes, bad JSON), a non-object
payload, a fingerprint that is not an object or has another schema
version, and a foreign fingerprint.  The owners' parsers then refuse a
malformed, out-of-range or duplicate entry (:func:`indexed_entries`), a
fleet shard whose bounds differ from the run's, and a sweep whose
point count differs from its grid's.

*Byte-identical contract.*  :func:`write_state` dumps ``{"fingerprint":
..., **sections}`` with :func:`json.dump`'s defaults, so for fixed
inputs it writes the bytes earlier versions wrote under the same schema
version, and their files resume (or are served) unchanged.

*Atomicity.*  :func:`atomic_write_json` writes a temporary file in the
target directory, fsyncs it and renames it over the target
(:func:`os.replace`): readers see the old payload or the complete new
one, and a killed writer leaves at most an orphaned ``*.tmp``.  On any in-process
failure (``fdopen``, ``json.dump``, ``fsync``, the rename) the
temporary file is unlinked and its descriptor closed.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from .exceptions import ParameterError

__all__ = [
    "atomic_write_json",
    "indexed_entries",
    "json_restore",
    "json_safe",
    "read_state",
    "write_state",
]


def atomic_write_json(path: Union[str, Path], payload: object) -> Path:
    """Atomically serialize ``payload`` as JSON to ``path``.

    Write-to-temp + fsync + rename in ``path``'s own directory (rename
    is only atomic within a filesystem).  On *any* failure the
    temporary file is removed and the original file -- if one existed
    -- is left untouched; the exception propagates unchanged.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    fd_owned = True
    try:
        with os.fdopen(fd, "w") as handle:
            fd_owned = False  # fdopen succeeded; the handle owns fd now
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if fd_owned:
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def json_safe(value):
    """Encode a number for a JSON payload (``inf`` -> ``"inf"``)."""
    return "inf" if value == math.inf else value


def json_restore(value):
    """Inverse of :func:`json_safe`."""
    return math.inf if value == "inf" else value


def write_state(path: Union[str, Path], fingerprint: dict, **sections) -> Path:
    """Atomically store ``{"fingerprint": fingerprint, **sections}``."""
    return atomic_write_json(path, {"fingerprint": fingerprint, **sections})


def read_state(
    path: Union[str, Path], fingerprint: dict, what: str, owner: str, remedy: str
) -> Optional[dict]:
    """The payload stored for ``fingerprint`` at ``path``; None if absent.

    Refusals name the file as ``what`` and a foreign fingerprint's
    ``owner``, and end with the ``remedy``; sections are the caller's.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ParameterError(f"unreadable {what} {path}: {exc}; {remedy}") from exc
    if not isinstance(payload, dict):
        raise ParameterError(f"{what} {path} is not a JSON object; {remedy}")
    stored = payload.get("fingerprint")
    version = stored.get("version") if isinstance(stored, dict) else None
    if version != fingerprint["version"]:
        raise ParameterError(
            f"{what} {path} uses schema version {version!r}, but this library "
            f"writes version {fingerprint['version']}; {remedy}"
        )
    if stored != fingerprint:
        raise ParameterError(f"{what} {path} belongs to a different {owner}; {remedy}")
    return payload


def indexed_entries(
    entries, count: int, parse: Callable[[dict], object], what: str
) -> Dict[int, object]:
    """Parse checkpoint ``entries`` into ``{index: parse(entry)}``.

    Refuses with :class:`ParameterError` whatever a resume must not
    pool: a non-list, an entry without a usable ``index`` or payload,
    an index outside ``range(count)``, and an index listed twice.
    """
    if not isinstance(entries, list):
        raise ParameterError(
            f"{what}: expected a list of entries, got {type(entries).__name__}"
        )
    parsed: Dict[int, object] = {}
    for entry in entries:
        try:
            index = int(entry["index"])
            value = parse(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"{what}: malformed entry: {exc!r}") from exc
        if not 0 <= index < count:
            raise ParameterError(
                f"{what}: index {index} is outside this run's 0..{count - 1}"
            )
        if index in parsed:
            raise ParameterError(f"{what}: index {index} is listed twice")
        parsed[index] = value
    return parsed
