"""Named, independently-seeded random streams.

A simulation needs several sources of randomness — MRAI jitter, link-delay
jitter, topology construction, ISP placement. If they all shared one
``random.Random``, changing how often one consumer draws would perturb
every other consumer and make results impossible to compare across code
changes. :class:`RngRegistry` derives an independent stream per name from
a single master seed, so each consumer's draws are stable in isolation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """Factory for named random streams derived from one master seed."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed is a stable hash of ``(master_seed, name)``, so
        the same name always yields the same sequence for a given master
        seed, regardless of creation order.
        """
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self._master_seed}:{name}".encode("utf-8")
            ).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw one uniform sample from the named stream."""
        return self.stream(name).uniform(low, high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(master_seed={self._master_seed}, streams={sorted(self._streams)})"
