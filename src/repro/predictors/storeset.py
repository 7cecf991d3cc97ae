"""Store-set memory dependence predictor (Chrysos & Emer [8]).

The pipeline uses it to decide whether a load may issue past older
stores with unresolved or conflicting addresses.  A memory-order
violation (a load that issued before an older overlapping store) trains
the predictor by merging the two instructions into one store set.
"""

from __future__ import annotations

from typing import Dict, Optional


class StoreSetPredictor:
    """SSIT + LFST, sized like a small direct-mapped pair of tables."""

    def __init__(self, ssit_bits: int = 10):
        self._ssit_mask = (1 << ssit_bits) - 1
        # SSIT: PC slot -> store-set id (None = no set).
        self._ssit: Dict[int, int] = {}
        # LFST: store-set id -> in-flight sequence number of the most
        # recent store in the set (None once it completes).
        self._lfst: Dict[int, Optional[int]] = {}
        self._next_ssid = 0

    def _slot(self, pc: int) -> int:
        return (pc >> 2) & self._ssit_mask

    def ssid_for(self, pc: int) -> Optional[int]:
        return self._ssit.get(self._slot(pc))

    def dependence_for_load(self, load_pc: int) -> Optional[int]:
        """Sequence number of the store this load must wait for, if any."""
        ssid = self.ssid_for(load_pc)
        if ssid is None:
            return None
        return self._lfst.get(ssid)

    def same_set(self, load_pc: int, store_pc: int) -> bool:
        """True when the load and store belong to one store set."""
        load_ssid = self.ssid_for(load_pc)
        return load_ssid is not None and load_ssid == self.ssid_for(store_pc)

    def store_dispatched(self, store_pc: int, seq: int) -> None:
        """Record an in-flight store as the last fetched of its set."""
        ssid = self.ssid_for(store_pc)
        if ssid is not None:
            self._lfst[ssid] = seq

    def store_completed(self, store_pc: int, seq: int) -> None:
        """Clear the LFST entry once the store leaves the window."""
        ssid = self.ssid_for(store_pc)
        if ssid is not None and self._lfst.get(ssid) == seq:
            self._lfst[ssid] = None

    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """Merge the violating load and store into one store set."""
        load_slot, store_slot = self._slot(load_pc), self._slot(store_pc)
        load_ssid = self._ssit.get(load_slot)
        store_ssid = self._ssit.get(store_slot)
        if load_ssid is None and store_ssid is None:
            ssid = self._next_ssid
            self._next_ssid += 1
            self._ssit[load_slot] = ssid
            self._ssit[store_slot] = ssid
        elif load_ssid is None:
            self._ssit[load_slot] = store_ssid
        elif store_ssid is None:
            self._ssit[store_slot] = load_ssid
        else:
            # Both assigned: converge on the smaller id (paper's rule).
            winner = min(load_ssid, store_ssid)
            self._ssit[load_slot] = winner
            self._ssit[store_slot] = winner

    def flush(self) -> None:
        """Pipeline flush: no stores are in flight anymore."""
        for ssid in self._lfst:
            self._lfst[ssid] = None
