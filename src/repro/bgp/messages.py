"""BGP update messages.

One :class:`UpdateMessage` carries either an announcement (``as_path`` set)
or a withdrawal (``as_path`` is ``None``) for a single prefix, plus the
optional attributes this reproduction studies: the Root Cause Notification
(:class:`repro.core.rcn.RootCause`) and the selective-damping relative
preference tag.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from repro.core.rcn import RootCause
from repro.core.selective import RelativePreference
from repro.errors import ProtocolError

_update_ids = itertools.count(1)


class UpdateMessage:
    """A single-prefix BGP UPDATE.

    ``as_path`` is the path as announced by the sender (sender's ASN
    first); ``None`` means the prefix is withdrawn. ``root_cause`` is
    propagated whether or not receivers use it for damping — only the
    damping filter is switched by configuration, as in the paper.

    A plain slotted class rather than a dataclass: one is built per sent
    update, and the generated ``__init__`` + ``__post_init__`` + id
    factory cost three frames where this costs one. Instances are shared
    (a duplicated message carries the same payload): never mutate one.
    """

    __slots__ = ("prefix", "as_path", "root_cause", "preference", "update_id")

    def __init__(
        self,
        prefix: str,
        as_path: Optional[Tuple[str, ...]],
        root_cause: Optional[RootCause] = None,
        preference: Optional[RelativePreference] = None,
        update_id: Optional[int] = None,
    ) -> None:
        if not prefix:
            raise ProtocolError("update prefix must be non-empty")
        if as_path is not None and not as_path:
            raise ProtocolError("announcement must carry a non-empty AS path")
        self.prefix = prefix
        self.as_path = as_path
        self.root_cause = root_cause
        self.preference = preference
        self.update_id = next(_update_ids) if update_id is None else update_id

    @property
    def is_withdrawal(self) -> bool:
        return self.as_path is None

    @property
    def is_announcement(self) -> bool:
        return self.as_path is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UpdateMessage(#{self.update_id} {self})"

    def __str__(self) -> str:
        if self.is_withdrawal:
            body = "withdraw"
        else:
            assert self.as_path is not None
            body = f"announce [{' '.join(self.as_path)}]"
        rc = f" rc={self.root_cause}" if self.root_cause else ""
        return f"UPDATE({self.prefix}: {body}{rc})"
