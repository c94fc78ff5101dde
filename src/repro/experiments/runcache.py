"""The persistent run cache: per-writer append-only segments.

A :class:`RunCache` root holds one segment file per writing process (a
sweep's pool worker, or the parent on the serial path), named
``<pid>-<random token>.seg``.  Its first line is :data:`SEGMENT_HEADER`
(kind and profile version); every further line is one entry,
``<key>\\t<compact JSON payload>``.  A process opens its segment once,
keeps the handle across tasks and appends each entry with one
``write``, so no two processes ever write to one file and creating an
entry costs no inode.  Readers index ``key -> (segment, offset,
length)`` and afterwards read only the bytes appended since.  It is a
cache: a torn, unparseable or wrong-kind line is a miss, and the whole
root may be deleted (``rm -rf .repro/cache``) between sweeps.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from pathlib import Path
from typing import Any

#: Kind named in every cache segment's header line.
CACHE_KIND = "cached-run"
#: Bumped whenever the cache payload layout or hashed profile changes;
#: part of the profile hash and of the segment header, so stale layouts
#: simply miss.  Version 2: ``rank_summary`` quantiles are exact
#: (version 1 held estimates).  Version 3: payloads carry the run's
#: ``compute_efficiency``.
CACHE_PROFILE_VERSION = 3
#: File name suffix of a cache segment, and the first line of each one.
SEGMENT_SUFFIX = ".seg"
SEGMENT_HEADER = json.dumps(
    {"kind": CACHE_KIND, "profile_version": CACHE_PROFILE_VERSION}
).encode() + b"\n"
#: Default cache root, overridable with $REPRO_CACHE_DIR.
DEFAULT_CACHE_DIR = ".repro/cache"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class RunCache:
    """Content-addressed store of finished runs under ``root``.

    ``root`` holds one ``<pid>-<token>.seg`` segment per writing process:
    a header line, then one ``key<TAB>compact JSON`` line per entry.
    :meth:`put` appends to this process's segment.  The reader indexes
    offsets, not payloads, on the first :meth:`get`; each
    :meth:`refresh` reads only the bytes appended since.  For a key
    written twice the last line scanned wins (segments are scanned
    oldest-modified first), so a corrupt entry refills on the next
    sweep.
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self._index: dict[str, tuple[Path, int, int]] = {}
        self._scanned: dict[str, int] = {}  # segment -> bytes indexed
        self._indexed = False

    def refresh(self) -> None:
        """Index the entries appended since the last scan (the executor
        calls this once per probe pass).  A segment that vanished or
        shrank -- the root was cleared -- drops the whole index first."""
        self._indexed = True
        try:
            with os.scandir(self.root) as it:
                stats = {e.name: e.stat() for e in it
                         if e.name.endswith(SEGMENT_SUFFIX)}
        except OSError:  # no root yet, or not a directory
            stats = {}
        if any(name not in stats or stats[name].st_size < done
               for name, done in self._scanned.items()):
            self._index.clear()
            self._scanned.clear()
        for name, st in sorted(stats.items(),
                               key=lambda kv: (kv[1].st_mtime_ns, kv[0])):
            done = self._scanned.get(name, 0)
            if st.st_size > done:
                with suppress(OSError):  # deleted meanwhile: next pass
                    self._scanned[name] = self._scan(self.root / name, done)

    def _scan(self, path: Path, pos: int) -> int:
        """Index the complete lines of ``path`` from byte ``pos``; returns
        the offset past the last one (a torn tail is read again later)."""
        with open(path, "rb") as f:
            header = f.readline()
            if not header.endswith(b"\n"):
                return pos
            valid = header == SEGMENT_HEADER
            pos = max(pos, len(header))
            f.seek(pos)
            for line in f:
                if not line.endswith(b"\n"):
                    break
                tab = line.find(b"\t")
                if valid and tab > 0:
                    self._index[line[:tab].decode("latin-1")] = (
                        path, pos + tab + 1, len(line) - tab - 2)
                pos += len(line)
        return pos

    def get(self, key: str) -> dict[str, Any] | None:
        if not self._indexed:
            self.refresh()
        location = self._index.get(key)
        if location is None:
            return None
        path, offset, length = location
        try:
            with open(path, "rb", buffering=0) as f:
                f.seek(offset)
                payload = json.loads(f.read(length))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict[str, Any]) -> Path:
        """Append an entry to this process's segment; returns the segment.
        An instance that has already indexed sees it after its next
        :meth:`refresh`."""
        return append_entry(str(self.root), key, payload)

    def __len__(self) -> int:
        self.refresh()
        return len(self._index)


class _Segment:
    """This process's open segment under one cache root."""

    def __init__(self, root: str):
        os.makedirs(root, exist_ok=True)
        self.pid, self.root = os.getpid(), root
        # A random token per open: a later process that reuses the pid
        # never appends to (so never extends a torn tail of) this file.
        self.path = Path(root, f"{self.pid}-{os.urandom(8).hex()}"
                               f"{SEGMENT_SUFFIX}")
        self.fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                          | os.O_APPEND, 0o644)

    def current(self, root: str) -> bool:
        """Still ours and on disk?  Not in a forked child (the handle is
        the parent's), nor once ``rm -rf`` took the file."""
        try:
            return (self.pid == os.getpid() and self.root == root
                    and os.fstat(self.fd).st_nlink > 0)
        except OSError:
            return False

    def append(self, data: bytes) -> None:
        """Append ``data`` with one ``write``."""
        if os.write(self.fd, data) != len(data):
            raise OSError("short write to a run-cache segment")


#: The one segment this process appends to (see :func:`append_entry`).
_SEGMENT: _Segment | None = None


def append_entry(root: str, key: str, payload: dict[str, Any]) -> Path:
    """Append one entry under ``root``; returns the segment written.

    The segment opens on first use and is kept; a stale one (see
    :meth:`_Segment.current`) or one under another root is closed for a
    new one, and so is one whose write failed.
    """
    global _SEGMENT
    line = b"%s\t%s\n" % (
        key.encode(), json.dumps(payload, separators=(",", ":")).encode())
    try:
        if _SEGMENT is None or not _SEGMENT.current(root):
            _close_segment()
            _SEGMENT = _Segment(root)
            _SEGMENT.append(SEGMENT_HEADER)
        _SEGMENT.append(line)
    except OSError:
        _close_segment()
        raise
    return _SEGMENT.path


def _close_segment() -> None:
    global _SEGMENT
    if _SEGMENT is not None:
        with suppress(OSError):
            os.close(_SEGMENT.fd)
        _SEGMENT = None
