"""Crash-safe JSONL flight recorder with size-based rotation.

One line per event, ``json.dumps(..., sort_keys=True)``, flushed (and
optionally fsync'd) per write — the same torn-tail discipline as the
campaign :class:`~repro.campaign.store.ResultStore`.  On open, a torn
final line (a crash mid-write) is truncated back to the last newline;
on read, undecodable lines are skipped and counted rather than fatal.

Rotation is size-based: when the live file would exceed ``max_bytes``
it is renamed to ``<path>.1`` (older generations shift to ``.2`` …
``.keep``, the oldest is dropped) and a fresh file is started.
:func:`read_events` and :func:`find_trace` read rotated generations
oldest-first so a trace survives rotation boundaries.

Events carrying a ``duration_s`` at or above ``slow_threshold_s`` are
stamped ``"slow": true`` and logged at WARNING — the slow-request log.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from .clock import wall_clock
from .logs import get_logger

__all__ = ["FlightRecorder", "find_trace", "read_events"]

log = get_logger("telemetry.recorder")


class FlightRecorder:
    """Append-only JSONL event log for one service process."""

    def __init__(
        self,
        path: str | Path,
        *,
        max_bytes: int = 16_000_000,
        keep: int = 3,
        fsync: bool = False,
        slow_threshold_s: float | None = None,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if keep < 1:
            raise ValueError("keep at least one rotated generation")
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.keep = int(keep)
        self.fsync = bool(fsync)
        self.slow_threshold_s = slow_threshold_s
        self._clock = clock
        self._lock = threading.Lock()
        self._fh = None
        self._size = 0
        self.events_written = 0
        self.rotations = 0
        self.repaired_bytes = 0

    # -- file lifecycle -------------------------------------------------

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_tail()
        self._fh = open(self.path, "ab")
        self._size = self._fh.tell()

    def _repair_tail(self) -> None:
        """Truncate a torn (newline-less) final line left by a crash."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size == 0:
            return
        with open(self.path, "rb+") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return
            fh.seek(0)
            data = fh.read()
            cut = data.rfind(b"\n") + 1
            fh.truncate(cut)
            self.repaired_bytes += size - cut
        log.warning("repaired torn tail in %s (%d bytes dropped)", self.path, size - cut)

    def _rotate(self) -> None:
        self._fh.close()
        self._fh = None
        oldest = self.path.with_name(self.path.name + f".{self.keep}")
        oldest.unlink(missing_ok=True)
        for gen in range(self.keep - 1, 0, -1):
            src = self.path.with_name(self.path.name + f".{gen}")
            if src.exists():
                os.replace(src, self.path.with_name(self.path.name + f".{gen + 1}"))
        os.replace(self.path, self.path.with_name(self.path.name + ".1"))
        self.rotations += 1
        self._open()

    # -- recording ------------------------------------------------------

    def record(self, kind: str, **fields) -> dict:
        """Append one event; returns the event dict as written."""
        event = {"kind": kind, "ts": round(self._clock(), 6)}
        event.update(fields)
        duration = event.get("duration_s")
        if (
            self.slow_threshold_s is not None
            and isinstance(duration, (int, float))
            and duration >= self.slow_threshold_s
        ):
            event["slow"] = True
            log.warning(
                "slow request: kind=%s request_id=%s duration=%.6fs (threshold %.6fs)",
                kind,
                event.get("request_id"),
                duration,
                self.slow_threshold_s,
            )
        line = (json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n").encode()
        with self._lock:
            if self._fh is None:
                self._open()
            if self._size and self._size + len(line) > self.max_bytes:
                self._rotate()
            self._fh.write(line)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._size += len(line)
            self.events_written += 1
        return event

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> FlightRecorder:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        return {
            "path": str(self.path),
            "events_written": self.events_written,
            "rotations": self.rotations,
            "repaired_bytes": self.repaired_bytes,
        }


def _generations(path: Path) -> list[Path]:
    """Recorder files oldest-first: ``path.N`` … ``path.1``, then ``path``."""
    gens = []
    n = 1
    while True:
        cand = path.with_name(path.name + f".{n}")
        if not cand.exists():
            break
        gens.append(cand)
        n += 1
    return list(reversed(gens)) + ([path] if path.exists() else [])


def read_events(path: str | Path, *, rotated: bool = True) -> list[dict]:
    """Load events from a recorder file (and its rotated generations).

    Undecodable lines — torn tails, partial writes — are skipped.
    """
    path = Path(path)
    files = _generations(path) if rotated else ([path] if path.exists() else [])
    events: list[dict] = []
    for file in files:
        with open(file, "rb") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                except (ValueError, UnicodeDecodeError):
                    continue
                if isinstance(obj, dict):
                    events.append(obj)
    return events


def find_trace(
    request_id: str, paths: Iterable[str | Path]
) -> list[tuple[str, dict]]:
    """Collect every event for ``request_id`` across recorder files.

    Returns ``(source_name, event)`` pairs sorted by wall timestamp.
    """
    hits: list[tuple[str, dict]] = []
    for p in paths:
        p = Path(p)
        for event in read_events(p):
            if event.get("request_id") == request_id:
                hits.append((p.stem, event))
    hits.sort(key=lambda pair: (pair[1].get("ts") or 0.0))
    return hits


def recorder_files(directory: str | Path) -> Iterator[Path]:
    """Yield base (un-rotated) recorder files in a directory."""
    directory = Path(directory)
    if not directory.is_dir():
        return
    for p in sorted(directory.glob("*.jsonl")):
        yield p
