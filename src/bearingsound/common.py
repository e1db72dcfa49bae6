"""What the other modules share: the labels, the manifest (a channel's record,
and the file that maps channel ids to records), ``from_keys``, ``set_types``
and ``number``, which build and type every record read from JSON, JSON I/O,
the framed layout of feature caches and models, and ``map_channels``, whose
worker threads run in parallel because numpy releases the interpreter lock
inside its array loops, FFTs and BLAS calls."""

from __future__ import annotations

import json
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import MISSING, asdict, dataclass, fields
from numbers import Real
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


@dataclass(frozen=True)
class ManifestEntry:
    """A channel's record: its WAV file, label and where it was measured; its
    fields are a manifest entry's keys, and a scenario channel's but file."""

    file: str
    label: str
    axle: str = ""
    component: str = "motor"
    description: str = ""

    def __post_init__(self):
        set_types(self)
        if self.label not in LABELS:
            raise DataError(f"label must be H or D, got {self.label!r}")
        if self.component not in ("motor", "gearbox"):
            raise DataError(f"component must be motor or gearbox, got {self.component!r}")


@dataclass
class Manifest:
    """Channel metadata table; file paths are kept relative to base_dir."""

    entries: dict[str, ManifestEntry]
    base_dir: Path

    def wav_path(self, channel_id: str) -> Path:
        if channel_id not in self.entries:
            raise DataError(f"channel not in manifest: {channel_id}")
        return self.base_dir / self.entries[channel_id].file

    def label(self, channel_id: str) -> str:
        if channel_id not in self.entries:
            raise DataError(f"channel not in manifest: {channel_id}")
        return self.entries[channel_id].label


def number(key: str, value) -> float:
    """value, a JSON number but not a boolean, as a float; else a DataError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise DataError(f"{key}: {value!r} is not a number")
    return float(value)


def set_types(record) -> None:
    """Make record's float fields ``number``s; a non-string str field is a DataError."""
    for field in fields(record):
        value = getattr(record, field.name)
        if field.type == "float":
            object.__setattr__(record, field.name, number(field.name, value))
        elif field.type == "str" and not isinstance(value, str):
            raise DataError(f"{field.name}: {value!r} is not a string")


def from_keys(cls, what: str, given: dict):
    """cls(**given) for a JSON object; a key that is not a field of cls, or a
    field without a default that given lacks, is a DataError naming it."""
    names = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING}
    for problem, keys in (("unknown", given.keys() - names), ("missing", required - given.keys())):
        if keys:
            raise DataError(f"{problem} {what} keys: {', '.join(sorted(keys))}")
    return cls(**given)


def manifest_entry(channel_id, record) -> ManifestEntry:
    """record, a JSON object, as the ManifestEntry of channel_id, a plain file
    name: <id>.wav and <id>.abfc must land in their directory."""
    if (not isinstance(channel_id, str) or channel_id in ("", ".", "..")
            or any(c in channel_id for c in "/\\\0")):
        raise DataError(f"channel id {channel_id!r} must be a string naming a "
                        "file, not a path")
    if not isinstance(record, dict):
        raise DataError(f"entry must be a JSON object, got {record!r}")
    return from_keys(ManifestEntry, "manifest", record)


def save_manifest(entries: dict[str, ManifestEntry], path) -> None:
    write_json(path, {channel_id: asdict(entry) for channel_id, entry in entries.items()})


def load_manifest(path) -> Manifest:
    """The manifest at path; a bad entry is a DataError naming file and channel."""
    path = Path(path)
    raw = read_json(path, "manifest")
    if not isinstance(raw, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    entries = {}
    for channel_id, record in raw.items():
        try:
            entries[channel_id] = manifest_entry(channel_id, record)
        except DataError as exc:
            raise DataError(f"{path}: bad entry for {channel_id} ({exc})") from exc
    return Manifest(entries=entries, base_dir=path.parent)


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
