"""Selective route flap damping — the Mao et al. (2002) comparator.

The paper contrasts RCN with "selective route flap damping": each
announcement carries a *relative preference* compared with the sender's
previous announcement, and the receiver skips the penalty when the
update looks like path exploration. The heuristic: during path
exploration after a failure, a router announces monotonically *less
preferred* paths (longer AS paths); a genuine flap shows up as a
withdrawal or as a preference improvement back to the original path.

The paper notes this heuristic "does not detect all path exploration
updates and does not address the problem of secondary charging" — we
implement it faithfully, including those blind spots, so the comparison
benches show the gap RCN closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.params import UpdateKind


@dataclass(init=False, unsafe_hash=True)
class RelativePreference:
    """Sender-attached comparison with the previous announcement.

    ``direction`` is ``-1`` (worse than the path announced before),
    ``0`` (first announcement / incomparable), or ``+1`` (better).
    ``path_length`` carries the announced AS-path length so receivers can
    sanity-check the claim.

    Slotted, with a hand-written ``__init__`` (one is built per sent
    announcement); compared and hashed by value: never mutate one.
    """

    __slots__ = ("direction", "path_length")

    direction: int
    path_length: int

    def __init__(self, direction: int, path_length: int) -> None:
        self.direction = direction
        self.path_length = path_length


class SelectiveDampingFilter:
    """Receiver-side penalty filter for selective damping.

    ``should_charge`` returns ``False`` for announcements tagged as
    *worse* than their predecessor (the path-exploration signature) and
    ``True`` for everything else: withdrawals, improvements, and first
    announcements. Reuse-triggered announcements typically arrive as
    *improvements* (the suppressed best path coming back), so they are
    charged — this is exactly the secondary-charging blind spot the paper
    points out.
    """

    def __init__(self) -> None:
        self.filtered_count = 0
        self.charged_count = 0
        # Last seen path length per (peer,) to validate sender claims.
        self._last_len: Dict[str, Optional[int]] = {}

    def should_charge(
        self,
        peer: str,
        kind: UpdateKind,
        preference: Optional[RelativePreference],
    ) -> bool:
        """Decide whether this update should increase the penalty."""
        if kind is UpdateKind.WITHDRAWAL:
            # Withdrawals are never exploration artefacts at the sender —
            # they always charge.
            self._last_len[peer] = None
            self.charged_count += 1
            return True
        if preference is None:
            self.charged_count += 1
            self._record(peer, None)
            return True
        exploring = preference.direction < 0 and self._is_consistent(peer, preference)
        self._record(peer, preference.path_length)
        if exploring:
            self.filtered_count += 1
            return False
        self.charged_count += 1
        return True

    def _is_consistent(self, peer: str, preference: RelativePreference) -> bool:
        """Check the sender's 'worse' claim against observed path lengths."""
        last = self._last_len.get(peer)
        if last is None:
            return True
        return preference.path_length >= last

    def _record(self, peer: str, path_length: Optional[int]) -> None:
        self._last_len[peer] = path_length

    def clear(self) -> None:
        self._last_len.clear()
        self.filtered_count = 0
        self.charged_count = 0


def compare_paths(previous_length: Optional[int], new_length: int) -> RelativePreference:
    """Sender-side helper: build the relative-preference tag for a new
    announcement given the previously announced path length."""
    if previous_length is None or new_length == previous_length:
        return RelativePreference(0, new_length)
    return RelativePreference(-1 if new_length > previous_length else 1, new_length)
