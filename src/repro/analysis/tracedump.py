"""Bus-transaction trace export/import and offline auditing.

A downstream user debugging a controller or validating an energy model
wants the raw transaction log, not just the summaries.  This module
round-trips :class:`~repro.dram.channel.BusTransaction` logs through CSV
and JSON-lines files, and re-runs the protocol auditor over a dump so a
trace captured on one machine can be verified on another.

Example::

    result = simulate(trace, NIAGARA_SERVER)
    dump_transactions_csv("bus.csv", result.controllers[0].channel.transactions)
    report = audit_dump("bus.csv", NIAGARA_SERVER.timing)
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from ..dram.channel import BusAuditor, BusTransaction
from ..dram.timing import TimingParams

__all__ = [
    "dump_transactions_csv",
    "load_transactions_csv",
    "dump_transactions_jsonl",
    "load_transactions_jsonl",
    "audit_dump",
]

_FIELDS = list(BusTransaction._fields)
_INT_FIELDS = {
    "start", "end", "issue_cycle", "rank", "bank_group", "bank",
    "request_id",
}


def dump_transactions_csv(
    path: str | Path, transactions: list[BusTransaction]
) -> int:
    """Write a transaction log as CSV; returns the row count."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_FIELDS)
        writer.writeheader()
        for tr in transactions:
            writer.writerow(tr._asdict())
    return len(transactions)


def load_transactions_csv(path: str | Path) -> list[BusTransaction]:
    """Read a CSV transaction dump back into objects."""
    out = []
    with Path(path).open(newline="") as handle:
        for row in csv.DictReader(handle):
            out.append(_from_strings(row))
    return out


def dump_transactions_jsonl(
    path: str | Path, transactions: list[BusTransaction]
) -> int:
    """Write a transaction log as JSON lines; returns the row count."""
    path = Path(path)
    with path.open("w") as handle:
        for tr in transactions:
            handle.write(json.dumps(tr._asdict()) + "\n")
    return len(transactions)


def load_transactions_jsonl(path: str | Path) -> list[BusTransaction]:
    """Read a JSON-lines transaction dump back into objects."""
    out = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(BusTransaction(**json.loads(line)))
    return out


def _from_strings(row: dict) -> BusTransaction:
    converted = {}
    for key, value in row.items():
        if key in _INT_FIELDS:
            converted[key] = int(value)
        elif key == "is_write":
            converted[key] = value in ("True", "true", "1")
        else:
            converted[key] = value
    return BusTransaction(**converted)


def audit_dump(path: str | Path, timing: TimingParams) -> dict:
    """Re-audit a dumped trace; returns a small report dict.

    The report carries the transaction count, busy cycles, per-scheme
    burst counts, and any protocol violations the auditor found.
    """
    path = Path(path)
    if path.suffix == ".csv":
        transactions = load_transactions_csv(path)
    else:
        transactions = load_transactions_jsonl(path)
    problems = BusAuditor(timing).check(transactions)
    schemes: dict[str, int] = {}
    for tr in transactions:
        schemes[tr.scheme] = schemes.get(tr.scheme, 0) + 1
    return {
        "transactions": len(transactions),
        "busy_cycles": sum(tr.cycles for tr in transactions),
        "schemes": schemes,
        "violations": problems,
        "clean": not problems,
    }
