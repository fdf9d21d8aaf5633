"""Versioned checkpoints: params, optimizer moments, config echo.

One uncompressed `np.savez` archive of the `_MEMBERS` (scalar type, rank): the
arrays' names, ranks, shapes back to back and values concatenated in that order.
zipfile checks each member's CRC-32; members carry a fixed date, so equal
checkpoints are equal bytes. Writes go to a temp file and are renamed into place.
"""

from __future__ import annotations

import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import CheckpointError
from .tensor import Tensor

VERSION = 2
FORMAT = "cftseg checkpoint v{}"
_MEMBERS = {"format": (np.str_, 0), "iteration": (np.int64, 0),
            "config": (np.str_, 0), "names": (np.str_, 1),
            "ndims": (np.int64, 1), "dims": (np.int64, 1),
            "data": (np.float64, 1)}


@dataclass
class Checkpoint:
    iteration: int
    config_text: str
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(path, checkpoint: Checkpoint) -> Path:
    """Raises ValueError, before writing anything, for text holding NUL,
    which numpy str arrays would drop from the end."""
    if any("\x00" in text for text in (checkpoint.config_text, *checkpoint.arrays)):
        raise ValueError("checkpoint config and array names must not contain NUL")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = [np.asarray(a, dtype=np.float64) for a in checkpoint.arrays.values()]
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh, format=np.array(FORMAT.format(VERSION)),
                iteration=np.array(checkpoint.iteration, dtype=np.int64),
                config=np.array(checkpoint.config_text),
                names=np.array(list(checkpoint.arrays), dtype=np.str_),
                ndims=np.array([a.ndim for a in arrays], dtype=np.int64),
                dims=np.array([d for a in arrays for d in a.shape], dtype=np.int64),
                data=np.concatenate([np.empty(0), *(a.ravel() for a in arrays)]))
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def _read_member(archive: zipfile.ZipFile, info: zipfile.ZipInfo, size: int,
                 kind: type, ndim: int) -> np.ndarray:
    """One member's array, its .npy header parsed once. Before anything is
    allocated for what the header claims, refuse the member unless stored
    plainly (bit 0 flags encryption), claiming its own size and holding
    `kind` values at rank `ndim`. The data is read to its end, so zipfile
    checks its CRC-32."""
    if (info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 1
            or info.file_size > size):
        raise CheckpointError(f"{info.filename}: not a plain stored member")
    with archive.open(info) as member:
        version = np.lib.format.read_magic(member)
        # Fortran order changes nothing at the members' rank 0 or 1
        shape, _, dtype = np.lib.format.read_array_header_1_0(member)
        claimed = member.tell() + math.prod(shape) * dtype.itemsize
        if version != (1, 0) or claimed != info.file_size:
            raise CheckpointError(f"{info.filename}: .npy {version} header claims "
                                  f"{claimed} bytes, the member holds {info.file_size}")
        if dtype.type is not kind or len(shape) != ndim:
            raise CheckpointError(f"{info.filename} has the wrong dtype or rank")
        return np.frombuffer(bytearray(member.read()), dtype).reshape(shape)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"PK\x03\x04":
            old = " (v1 CFTK files are not read)" if magic == b"CFTK" else ""
            raise CheckpointError(f"{path} is not a .npz checkpoint{old}")
        fh.seek(0)
        try:
            with zipfile.ZipFile(fh) as archive:
                infos = archive.infolist()
                names = [info.filename.removesuffix(".npy") for info in infos]
                if sorted(names) != sorted(_MEMBERS):
                    raise CheckpointError(f"unexpected members {names}")
                size = os.fstat(fh.fileno()).st_size
                m = {name: _read_member(archive, info, size, *_MEMBERS[name])
                     for name, info in zip(names, infos)}
        except (zipfile.BadZipFile, ValueError, OSError, EOFError, KeyError,
                NotImplementedError) as err:
            raise CheckpointError(f"corrupt checkpoint {path}: {err}") from err
    if m["format"] != FORMAT.format(VERSION):
        raise CheckpointError(f"unsupported format {m['format']}")
    names, ndims, dims = m["names"].tolist(), m["ndims"].tolist(), m["dims"].tolist()
    shapes = [tuple(dims[end - n:end]) for n, end in zip(ndims, accumulate(ndims))]
    # math.prod: np.prod would wrap a corrupt shape around int64
    sizes = [math.prod(shape) for shape in shapes]
    if (len(set(names)) != len(names) or len(ndims) != len(names)
            or min(ndims + dims, default=0) < 0 or sum(ndims) != len(dims)
            or m["iteration"] < 0 or sum(sizes) != m["data"].size):
        raise CheckpointError("inconsistent array index")
    ends, data = accumulate(sizes), m["data"]
    return Checkpoint(iteration=int(m["iteration"]), config_text=str(m["config"]),
                      arrays={name: data[end - size:end].reshape(shape) for
                              name, shape, size, end in zip(names, shapes, sizes, ends)})


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


def model_state(named_params: Mapping[str, Tensor],
                optimizer_arrays: Mapping[str, np.ndarray] | None = None
                ) -> dict[str, np.ndarray]:
    """Assemble the checkpoint array dict from params and optimizer state."""
    out = {f"param/{name}": t.data for name, t in named_params.items()}
    if optimizer_arrays:
        out.update({k: np.asarray(v) for k, v in optimizer_arrays.items()})
    return out
