"""Deterministic RNG stream derivation.

Every random draw in a run flows from one master seed. Sub-streams are keyed
by a purpose tag plus integer indices (round, client id, ...) and derived via
SHA-256, so streams never collide and results are reproducible across
processes and platforms (no salted ``hash()``, no OS entropy).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import check

# A stream reads the seed and each index as 64 unsigned bits, so a value outside them would alias another's streams
SEED = (int, lambda v: 0 <= v < 2**64, "{name} must lie in [0, 2**64), got {value}")


def derive_seed(master_seed: int, purpose: str, *indices: int) -> int:
    """Derive a 64-bit child seed from (master_seed, purpose, *indices), each a ``SEED``."""
    check("master_seed", master_seed, SEED)
    h = hashlib.sha256(struct.pack("<Q", master_seed) + purpose.encode("utf-8") + b"\x00")
    for idx in indices:
        check("stream index", idx, SEED)
        h.update(struct.pack("<Q", idx))
    return int.from_bytes(h.digest()[:8], "little")


def rng_for(master_seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """A fresh Generator seeded from the derived child seed."""
    return np.random.default_rng(derive_seed(master_seed, purpose, *indices))
