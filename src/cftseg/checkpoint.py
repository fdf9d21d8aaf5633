"""Versioned binary checkpoints: params, optimizer moments, config echo.

Layout, all little-endian:
  magic b"CFTK" | u32 version | u64 iteration | u32 len + config utf-8
  then per array: u32 name_len | name utf-8 | u32 ndim | u64 dims... | f64 data
Writes go to a temp file in the same directory and are renamed into place.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import CheckpointError

MAGIC = b"CFTK"
VERSION = 1


@dataclass
class Checkpoint:
    iteration: int
    config_text: str
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    version: int = VERSION


def _read_exact(fh, n: int, end: int) -> bytes:
    """Read n bytes of a file whose size is `end`, checking the size first
    so a corrupt length never asks for more memory than the file holds."""
    left = end - fh.tell()
    buf = fh.read(n) if n <= left else b""
    if len(buf) != n:
        raise CheckpointError(
            f"truncated checkpoint: wanted {n} bytes, {left} left")
    return buf


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise CheckpointError(f"{what} is not valid UTF-8: {err}") from None


def save_checkpoint(path, checkpoint: Checkpoint) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", checkpoint.version))
            fh.write(struct.pack("<Q", checkpoint.iteration))
            config_bytes = checkpoint.config_text.encode("utf-8")
            fh.write(struct.pack("<I", len(config_bytes)))
            fh.write(config_bytes)
            for name, arr in checkpoint.arrays.items():
                name_bytes = name.encode("utf-8")
                # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
                arr = np.asarray(arr, dtype="<f8")
                fh.write(struct.pack("<I", len(name_bytes)))
                fh.write(name_bytes)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    with path.open("rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, 4, end)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, end))
        if version != VERSION:
            raise CheckpointError(f"unsupported version {version}")
        (iteration,) = struct.unpack("<Q", _read_exact(fh, 8, end))
        (config_len,) = struct.unpack("<I", _read_exact(fh, 4, end))
        config_text = _decode(_read_exact(fh, config_len, end), "config text")
        arrays: dict[str, np.ndarray] = {}
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise CheckpointError("truncated record header")
            (name_len,) = struct.unpack("<I", head)
            name = _decode(_read_exact(fh, name_len, end), "array name")
            if name in arrays:
                raise CheckpointError(f"duplicate array {name!r}")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, end))
            shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, end))
            # math.prod: np.prod would wrap a corrupt shape around int64
            payload = _read_exact(fh, 8 * math.prod(shape), end)
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return Checkpoint(iteration=iteration, config_text=config_text,
                      arrays=arrays, version=version)


def _restore_arrays(arrays: Mapping[str, np.ndarray], prefix: str,
                    targets: Mapping[str, np.ndarray]) -> None:
    """Copy `prefix/<name>` arrays into `targets` in place; every name must
    be present with the target's shape."""
    for name, target in targets.items():
        key = f"{prefix}/{name}"
        if key not in arrays:
            raise CheckpointError(f"checkpoint is missing {key}")
        if arrays[key].shape != target.shape:
            raise CheckpointError(f"shape mismatch for {key}")
        target[...] = arrays[key]


def model_state(named_params: Mapping[str, "np.ndarray"],
                optimizer_arrays: Mapping[str, np.ndarray] | None = None
                ) -> dict[str, np.ndarray]:
    """Assemble the checkpoint array dict from params and optimizer state."""
    out = {f"param/{name}": np.asarray(t.data if hasattr(t, "data") else t)
           for name, t in named_params.items()}
    if optimizer_arrays:
        out.update({k: np.asarray(v) for k, v in optimizer_arrays.items()})
    return out
