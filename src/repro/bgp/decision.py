"""The BGP decision process.

Given the usable candidate routes for a prefix (one per peer, already
filtered for suppression and loops by the router), pick the best:

1. highest local preference (assigned by the routing policy — constant
   under shortest-path routing, relationship-based under no-valley),
2. shortest AS path,
3. lowest peer name (a deterministic stand-in for router-ID tie-breaking).

The comparison is a total order over candidates, so selection is
deterministic and independent of iteration order.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.bgp.attrs import Route

#: ``local_pref(peer, route) -> int`` — supplied by the routing policy.
LocalPrefFunction = Callable[[str, Route], int]


def preference_key(
    peer: str, route: Route, local_pref: LocalPrefFunction
) -> Tuple[int, int, str]:
    """Sort key such that the *minimum* is the best route."""
    return (-local_pref(peer, route), len(route.as_path), peer)


def select_best(
    candidates: Sequence[Tuple[str, Route]],
    local_pref: LocalPrefFunction,
) -> Optional[Tuple[str, Route]]:
    """Pick the best ``(peer, route)`` from ``candidates``.

    Returns ``None`` when there are no candidates (the prefix is
    unreachable).
    """
    best: Optional[Tuple[str, Route]] = None
    best_key: Optional[Tuple[int, int, str]] = None
    for candidate in candidates:
        peer, route = candidate
        # preference_key, inlined: one frame less per candidate.
        key = (-local_pref(peer, route), len(route.as_path), peer)
        if best_key is None or key < best_key:
            best_key = key
            best = candidate
    return best


def rank_candidates(
    candidates: Sequence[Tuple[str, Route]],
    local_pref: LocalPrefFunction,
) -> List[Tuple[str, Route]]:
    """All candidates ordered best-first (useful for tests and debugging)."""
    # The enumerate index breaks preference ties without ever comparing
    # Route objects.
    decorated = sorted(
        (preference_key(peer, route, local_pref), index, peer, route)
        for index, (peer, route) in enumerate(candidates)
    )
    return [(peer, route) for _key, _index, peer, route in decorated]
