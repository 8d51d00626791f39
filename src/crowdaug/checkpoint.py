"""Flat binary checkpoint container for named float64 arrays.

Layout: a UTF-8 text manifest, a blank line, then the raw little-endian
float64 payload. Each manifest entry is ``name|dim0,dim1,...|byte_offset``
with the offset measured from the payload start, so the file is both
self-describing and bit-exact on round-trip.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MAGIC = "crowdaug-checkpoint-v1"


class CheckpointError(ValueError):
    """Corrupt or mismatched checkpoint file."""


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    lines = [MAGIC]
    blobs: list[bytes] = []
    offset = 0
    for name, arr in arrays.items():
        if "|" in name or "\n" in name:
            raise CheckpointError(f"invalid array name {name!r}")
        arr = np.asarray(arr, dtype=np.float64)
        shape = ",".join(str(d) for d in arr.shape)
        lines.append(f"{name}|{shape}|{offset}")
        data = arr.tobytes()
        blobs.append(data)
        offset += len(data)
    manifest = ("\n".join(lines) + "\n\n").encode("utf-8")
    Path(path).write_bytes(manifest + b"".join(blobs))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:  # missing, a directory, or unreadable
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointError(f"{path}: missing manifest terminator")
    try:
        manifest = raw[:sep].decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: manifest is not UTF-8 text") from None
    payload = memoryview(raw)[sep + 2:]  # a view: the payload is not copied
    if not manifest or manifest[0] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    arrays: dict[str, np.ndarray] = {}
    for line in manifest[1:]:
        try:
            name, shape_text, offset_text = line.split("|")
            shape = tuple(int(d) for d in shape_text.split(",")) if shape_text else ()
            offset = int(offset_text)
        except ValueError:
            raise CheckpointError(f"{path}: bad manifest line {line!r}") from None
        if offset < 0 or any(d < 0 for d in shape):
            raise CheckpointError(
                f"{path}: negative offset or dimension in manifest line {line!r}")
        end = offset + 8 * math.prod(shape)  # Python ints: no overflow
        if end > len(payload):
            raise CheckpointError(f"{path}: payload truncated for {name!r}")
        arrays[name] = np.frombuffer(payload[offset:end],
                                     dtype="<f8").reshape(shape).copy()
    return arrays
