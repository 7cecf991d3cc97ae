"""Post-commit decoupling queue in front of the UCH (Section IV-A1).

The UCH search/update is off the critical path: at most ``inserts_per_
cycle`` committing memory µ-ops enter the queue each cycle; if it is
full, µ-ops are simply dropped (they will get a chance to train later).
The queue drains at ``drains_per_cycle`` (the number of UCH ports).
The paper finds an 8-entry queue with a single search-and-update port
loses no performance.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional


class _PendingTrain:
    """One queued UCH training record (plain slotted class: the queue
    sees every committing memory µ-op, and a default field would bar
    ``__slots__`` on a dataclass before Python 3.10)."""

    __slots__ = ("pc", "addr", "commit_number", "ghr", "seq")

    def __init__(self, pc: int, addr: int, commit_number: int, ghr: int,
                 seq: int = -1):
        self.pc = pc
        self.addr = addr
        self.commit_number = commit_number
        self.ghr = ghr
        #: Trace sequence number of the committing µ-op — audit
        #: provenance for the commit log, not a hardware field.
        self.seq = seq


class UCHUpdateQueue:
    """Bounded FIFO between Commit and one UCH instance."""

    def __init__(self, capacity: int = 8, inserts_per_cycle: int = 4,
                 drains_per_cycle: int = 1):
        self.capacity = capacity
        self.inserts_per_cycle = inserts_per_cycle
        self.drains_per_cycle = drains_per_cycle
        self._queue: Deque[_PendingTrain] = deque()
        self._inserted_this_cycle = 0

    def begin_cycle(self) -> None:
        self._inserted_this_cycle = 0

    def push(self, pc: int, addr: int, commit_number: int, ghr: int,
             seq: int = -1) -> bool:
        """Offer one committing µ-op; returns False when dropped."""
        if (len(self._queue) >= self.capacity
                or self._inserted_this_cycle >= self.inserts_per_cycle):
            return False
        self._queue.append(_PendingTrain(pc, addr, commit_number, ghr, seq))
        self._inserted_this_cycle += 1
        return True

    def drain(self, observe: Callable[..., Optional[object]],
              train: Callable[[int, int, int], None],
              on_match: Optional[Callable[[object, object], None]] = None,
              ) -> int:
        """Process up to ``drains_per_cycle`` entries.

        ``observe(pc, addr, commit_number, seq)`` is the UCH
        search/update; when it returns a match, ``train(tail_pc, ghr,
        distance)`` updates the fusion predictor and the optional
        ``on_match(pending, match)`` audit hook (the commit log) sees
        the discovery.
        """
        drained = 0
        while self._queue and drained < self.drains_per_cycle:
            pending = self._queue.popleft()
            match = observe(pending.pc, pending.addr,
                            pending.commit_number, pending.seq)
            if match is not None:
                if on_match is not None:
                    on_match(pending, match)
                train(pending.pc, pending.ghr, match.distance)
            drained += 1
        return drained

    def __len__(self) -> int:
        return len(self._queue)
