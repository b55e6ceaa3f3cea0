"""Read and write transaction queues (Table 2: 64 entries each).

The write queue also implements *write coalescing*: a second writeback
to a line already queued overwrites the stale data in place, and a read
that hits the write queue is forwarded without touching DRAM — both
standard memory-controller behaviours that keep the write-drain
machinery honest.
"""

from __future__ import annotations

from .request import MemoryRequest

__all__ = ["TransactionQueue", "QueueFullError"]


class QueueFullError(RuntimeError):
    """Raised when a request is pushed into a full queue."""


class TransactionQueue:
    """Bounded FIFO-ordered queue with address lookup."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: list[MemoryRequest] = []
        self._by_address: dict[int, MemoryRequest] = {}
        # Per-bank index for the controller's scheduling records:
        # (rank, bank_group, bank) -> queued requests in push order.
        self._by_bank: dict[tuple[int, int, int], list[MemoryRequest]] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def occupancy(self) -> float:
        """Fill fraction in [0, 1] (drives the drain watermarks)."""
        return len(self._entries) / self.capacity

    def find(self, address: int) -> MemoryRequest | None:
        """Request queued for ``address``, if any."""
        return self._by_address.get(address)

    def push(self, request: MemoryRequest, coalesce: bool = False) -> bool:
        """Enqueue ``request``.

        With ``coalesce`` (write queues), a request to an address already
        queued replaces the stale entry's payload instead of occupying a
        second slot; returns ``False`` in that case.
        """
        existing = self._by_address.get(request.address)
        if existing is not None and coalesce:
            existing.line_id = request.line_id
            existing.core = request.core
            return False
        if self.full:
            raise QueueFullError(
                f"queue of capacity {self.capacity} overflowed"
            )
        self._entries.append(request)
        # Last writer wins for lookup purposes.
        self._by_address[request.address] = request
        request.queue_seq = self._seq
        self._seq += 1
        m = request.mapped
        if m is not None:
            key = (m.rank, m.bank_group, m.bank)
            bucket = self._by_bank.get(key)
            if bucket is None:
                self._by_bank[key] = [request]
            else:
                bucket.append(request)
        return True

    def remove(self, request: MemoryRequest) -> None:
        """Remove a scheduled request."""
        self._entries.remove(request)
        if self._by_address.get(request.address) is request:
            del self._by_address[request.address]
        m = request.mapped
        if m is not None:
            key = (m.rank, m.bank_group, m.bank)
            bucket = self._by_bank.get(key)
            if bucket is not None and request in bucket:
                bucket.remove(request)
                if not bucket:
                    del self._by_bank[key]

    def bank_buckets(self) -> dict[tuple[int, int, int], list[MemoryRequest]]:
        """Live per-bank view: (rank, group, bank) -> requests, push order.

        Only address-mapped requests appear (the controller maps before
        it enqueues).  Callers must treat the dict and its lists as
        read-only.
        """
        return self._by_bank

    def oldest_first(self) -> list[MemoryRequest]:
        """Entries in arrival order (the FCFS axis of FR-FCFS).

        Pushes happen in non-decreasing arrival order in every caller
        (simulation time is monotonic), so insertion order *is* arrival
        order; a sort here would be pure overhead on the hot path.
        """
        return self._entries
