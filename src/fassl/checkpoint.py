"""Binary serialization for parameter trees.

Checkpoint container layout (all integers little-endian):

    magic "FSSL" | format version u16 | entry count u32
    per entry: name length u16 | name UTF-8 | rank u8 | dims u32 each
               | payload as little-endian f64

Entries are written in canonical name order, so identical trees produce
byte-identical files. A checkpoint, like a run's optima.csv and a cell's
config.txt, is written to a temporary sibling and renamed over its target,
so a killed process or a failed write leaves either the old file or the new
one, never a torn one. Decoding rejects any container ``save_params``
cannot write (malformed or truncated, a non-finite payload, a rank-0 entry,
entries out of canonical order or a repeated name) with a ContractError
that names the file, so a checkpoint that loads saves back to its own bytes.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import ContractError
from .model import ParamTree

MAGIC = b"FSSL"
FORMAT_VERSION = 1
TMP_SUFFIX = ".tmp"  # of the sibling a file is written to before it is renamed over its target


def _pack_entries(entries) -> bytes:
    chunks = [MAGIC, struct.pack("<H", FORMAT_VERSION), struct.pack("<I", len(entries))]
    for name, tensor in entries:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ContractError(f"entry name too long: {name[:40]}...")
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.tobytes())
    return b"".join(chunks)


def _unpack_entries(blob: bytes) -> list[tuple[str, Tensor]]:
    if blob[:4] != MAGIC:
        raise ContractError("bad magic bytes (not a checkpoint container)")
    offset = 4
    entries = []
    try:
        (version,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if version != FORMAT_VERSION:
            raise ContractError(f"unsupported format version {version}")
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            if entries and name < entries[-1][0]:  # a repeated name reaches ParamTree's duplicate check
                raise ContractError(f"entry {name!r} is out of canonical order (after {entries[-1][0]!r})")
            (rank,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            if rank == 0:  # a Tensor holds a scalar as shape (1,)
                raise ContractError(f"entry {name!r} has rank 0, which save_params never writes")
            dims = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            n = math.prod(dims)
            if offset + 8 * n > len(blob):
                raise ContractError(f"entry {name!r} runs past the end of the file")
            try:
                payload = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(dims)
            except ValueError as exc:  # over numpy's dimension limit, or an unindexable empty shape
                raise ContractError(f"entry {name!r} has an unsupported shape {dims}") from exc
            offset += 8 * n
            entries.append((name, Tensor(payload.astype(np.float64))))
    except (struct.error, UnicodeDecodeError) as exc:  # short header reads, non-UTF-8 names
        raise ContractError(f"truncated or corrupt checkpoint ({exc})") from exc
    if offset != len(blob):
        raise ContractError(f"{len(blob) - offset} trailing bytes after last entry")
    return entries


def _write_replacing(path: Path, blob: bytes) -> None:
    """Write blob to path through a temporary sibling renamed over it; a failed write leaves no sibling."""
    tmp = path.with_name(path.name + TMP_SUFFIX)
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_params(params: ParamTree, path: str | Path) -> None:
    _write_replacing(Path(path), _pack_entries(list(params.items())))


def load_params(path: str | Path) -> ParamTree:
    blob = Path(path).read_bytes()
    try:
        return ParamTree(_unpack_entries(blob))
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from exc
