"""Memory request representation shared by the CPU model and controller."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dram.address import MappedAddress

__all__ = ["MemoryRequest"]

_next_serial = 0


def _serial() -> int:
    global _next_serial
    _next_serial += 1
    return _next_serial


@dataclass(eq=False, slots=True)
class MemoryRequest:
    """One cache-line transfer between the LLC and DRAM.

    Requests compare (and hash) by identity: two transfers of the same
    line are still two requests, and queue removal must find *this*
    one without a field-by-field comparison.

    Attributes
    ----------
    address:
        Physical byte address of the line.
    mapped:
        DRAM coordinates (filled in by the controller front end).
    is_write:
        Writebacks are posted: the issuing core never waits on them.
    core:
        Issuing core id (``-1`` for prefetches and flushes).
    line_id:
        Index into the workload's line-data arrays; the energy model
        looks up precomputed per-scheme zero counts with it.
    is_prefetch:
        Prefetches occupy the bus but nobody stalls on them.
    arrival:
        Cycle the request entered the controller queue (DRAM clock).
    serial:
        Monotonic tie-breaker giving FR-FCFS its FCFS order.
    """

    address: int
    is_write: bool
    core: int = -1
    line_id: int = -1
    is_prefetch: bool = False
    arrival: int = 0
    mapped: MappedAddress | None = None
    serial: int = field(default_factory=_serial)

    # Position stamp assigned by TransactionQueue.push: the queue's own
    # FIFO axis, used to order per-bank bucket heads exactly as the
    # flat entries list would.  (``serial`` is construction order, which
    # callers may not push in.)
    queue_seq: int = 0

    # Filled in while the request is in flight.
    issue_cycle: int | None = None
    finish_cycle: int | None = None
    scheme: str | None = None

    @property
    def completed(self) -> bool:
        """True once the data burst for this request has finished."""
        return self.finish_cycle is not None

    def queue_latency(self) -> int:
        """Cycles from arrival to data completion (requires completion)."""
        if self.finish_cycle is None:
            raise ValueError("request has not completed")
        return self.finish_cycle - self.arrival
