"""Deterministic file corruption for cache-fault injection.

:func:`corrupt_entry` mutates a cache entry on disk the same way every
time (so a "corrupted sweep cache" chaos test is replayable).
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.faults.spec import CORRUPTION_MODES


def corrupt_entry(
    path: Path, mode: str = "truncate", seed: int = 0
) -> None:
    """Deterministically corrupt the file at ``path`` in place.

    ``"truncate"`` keeps the first half of the bytes (a partial write,
    the classic crash-mid-flush shape); ``"garbage"`` overwrites the
    file with seeded non-JSON bytes (bit rot / cross-format clobber).
    """
    if mode not in CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; "
            f"known modes: {list(CORRUPTION_MODES)}"
        )
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
    else:
        rng = random.Random(seed)
        size = max(1, len(data))
        path.write_bytes(bytes(rng.getrandbits(8) for _ in range(size)))


__all__ = ["corrupt_entry"]
