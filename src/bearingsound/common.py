"""What the other modules share: the labels, a channel's record and its
checks, JSON I/O, the framed layout of feature caches and models, and
``map_channels``, whose worker threads run in parallel because numpy releases
the interpreter lock inside its array loops, FFTs and BLAS calls."""

from __future__ import annotations

import json
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DataError, FormatError

# Class index of each label, fixed project-wide: H is 0, D is 1.
LABELS = ("H", "D")

_FRAME_BYTES = 10  # magic, u16 version, u32 header length of a framed file


def check_unique_ids(channel_ids, error=DataError) -> None:
    """Raise error naming the first id that repeats: each channel owns the
    files <id>.wav and <id>.abfc, and its frames must be counted once."""
    seen = set()
    for channel_id in channel_ids:
        if channel_id in seen:
            raise error(f"duplicate channel id: {channel_id}")
        seen.add(channel_id)


def check_channel(channel_id: str, label: str, component: str) -> None:
    """Reject ids that are not a plain file name (<id>.wav and <id>.abfc must
    land in their directory), labels not H/D, components not motor/gearbox."""
    if channel_id in ("", ".", "..") or "/" in channel_id or "\\" in channel_id:
        raise DataError(f"bad channel id {channel_id!r}: it must name a file, "
                        "not a path")
    if label not in LABELS:
        raise DataError(f"{channel_id}: label must be H or D, got {label!r}")
    if component not in ("motor", "gearbox"):
        raise DataError(
            f"{channel_id}: component must be motor or gearbox, got {component!r}")


@dataclass(frozen=True)
class ManifestEntry:
    """A channel's record: its WAV file, label and where it was measured."""

    file: str
    label: str
    axle: str
    component: str
    description: str


# The keys of a manifest entry; a scenario channel has all but file.
MANIFEST_KEYS = frozenset(field.name for field in fields(ManifestEntry))


def manifest_entry(channel_id: str, record: dict) -> ManifestEntry:
    """record as a checked ManifestEntry; a key outside MANIFEST_KEYS is a
    DataError (a misspelt one would leave its field at the default), a
    missing file or label a KeyError, as for any mapping."""
    if unknown := sorted(record.keys() - MANIFEST_KEYS):
        raise DataError(f"{channel_id}: unknown manifest keys: {', '.join(unknown)}")
    entry = ManifestEntry(
        file=str(record["file"]), label=str(record["label"]),
        axle=str(record.get("axle", "")),
        component=str(record.get("component", "motor")),
        description=str(record.get("description", "")))
    check_channel(channel_id, entry.label, entry.component)
    return entry


def read_json(path, what: str):
    """The JSON value in a file; a missing file, bad JSON, bad UTF-8 or an
    object that repeats a key is a DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} not found: {path}")

    def unique_keys(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise DataError(f"{path}: duplicate key in {what}: {key}")
            seen[key] = value
        return seen

    try:
        return json.loads(path.read_text(encoding="utf-8"),
                          object_pairs_hook=unique_keys)
    except (RecursionError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def write_json(path, value) -> None:
    """value as JSON with sorted keys, a two-space indent and a newline."""
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_framed(path, magic: bytes, version: int, header: dict, arrays) -> None:
    """magic | u16 version | u32 header length | sorted-key JSON header | the
    arrays' bytes in turn, all little-endian."""
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    Path(path).write_bytes(b"".join(
        [magic, version.to_bytes(2, "little"), len(head).to_bytes(4, "little"),
         head, *(array.tobytes() for array in arrays)]))


def read_framed(path, magic: bytes, version: int, what: str,
                producer: str) -> tuple[dict, bytes, int]:
    """A framed file's header, its bytes and the payload's offset; the caller
    checks the payload's length, which the header fixes."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} not found: {path} (run {producer} first)")
    blob = path.read_bytes()
    if blob[:4] != magic:
        raise FormatError(f"{path}: not a {what} (bad magic)")
    found = int.from_bytes(blob[4:6], "little")
    if found != version:
        raise FormatError(f"{path}: {what} version {found} is not the supported "
                          f"{version}; re-run {producer}")
    start = _FRAME_BYTES + int.from_bytes(blob[6:_FRAME_BYTES], "little")
    try:
        header = json.loads(blob[_FRAME_BYTES:start])
    except (RecursionError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise FormatError(f"{path}: truncated or corrupt {what} header ({exc})") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: {what} header is not a JSON object")
    return header, blob, start


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_channels(fn, items) -> list:
    """[fn(item) for item in items], run on min(len(items), available CPUs)
    worker threads; with one worker it is that plain loop and starts no
    thread. Results come back in input order. On a failure the items not
    yet started are cancelled and the error of the earliest failing item in
    input order is raised."""
    items = list(items)
    workers = min(len(items), _available_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(fn, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # Items run in submission order, so every item before the first failure
    # ran to completion and no cancelled future is reached.
    return [future.result() for future in futures]
