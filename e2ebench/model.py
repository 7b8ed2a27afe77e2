"""The benchmark's own model of what the serve tier should answer.

Built only from the records the benchmark sent, with the documented
query semantics: a bounded ring of the newest events per victim IP, the
victim sets per /24 and /16, the running Table-1 counts and the newest DPS
status per domain. It shares no code with the program under test.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set

#: The serve tier's default per-victim ring bound (``serve
#: --max-events-per-victim``).
RING = 256


def slash24(ip: int) -> int:
    return ip >> 8


def slash16(ip: int) -> int:
    return ip >> 16


def ip_text(ip: int) -> str:
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class StoreModel:
    """What a correct store holds after applying the given records."""

    def __init__(self, ring: int = RING) -> None:
        self.ring = ring
        self.events = 0
        self.by_victim: Dict[int, Deque[dict]] = {}
        self.victims24: Dict[int, Set[int]] = {}
        self.victims16: Dict[int, Set[int]] = {}
        self.asns: Set[int] = set()
        self.dps: Dict[str, dict] = {}
        self.dps_records = 0

    def apply(self, kind: str, records: Iterable[dict]) -> None:
        for record in records:
            if kind == "dps":
                self.dps_records += 1
                current = self.dps.get(record["domain"])
                if current is None or record["day"] >= current["day"]:
                    self.dps[record["domain"]] = record
                continue
            victim = record["target"]
            self.events += 1
            ring = self.by_victim.get(victim)
            if ring is None:
                ring = self.by_victim[victim] = deque(maxlen=self.ring)
            ring.append(record)
            self.victims24.setdefault(slash24(victim), set()).add(victim)
            self.victims16.setdefault(slash16(victim), set()).add(victim)
            if record.get("asn") is not None:
                self.asns.add(record["asn"])

    # -- answers ---------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """The running Table-1 row: events, targets, /24s, /16s."""
        return {
            "events": self.events,
            "targets": len(self.by_victim),
            "slash24s": len(self.victims24),
            "slash16s": len(self.victims16),
        }

    def events_for_ip(self, ip: int, limit: int = 50) -> List[dict]:
        ring = self.by_victim.get(ip, ())
        return list(ring)[-limit:][::-1]

    def events_for_prefix(self, ip: int, length: int, limit: int = 50) -> List[dict]:
        victims = self._victims(ip, length)
        merged = [event for victim in victims for event in self.by_victim[victim]]
        merged.sort(key=lambda e: (e["start_ts"], e["target"]), reverse=True)
        return merged[:limit]

    def victims_in_prefix(self, ip: int, length: int) -> List[int]:
        return sorted(self._victims(ip, length))

    def domain_status(self, domain: str) -> Optional[dict]:
        return self.dps.get(domain)

    def domain_counts(self) -> Dict[str, int]:
        return {
            "domains": len(self.dps),
            "protected": sum(1 for r in self.dps.values() if r["active"]),
        }

    def _victims(self, ip: int, length: int) -> Set[int]:
        if length == 24:
            return self.victims24.get(slash24(ip), set())
        if length == 16:
            return self.victims16.get(slash16(ip), set())
        raise ValueError("prefix queries support /24 and /16 only")


__all__ = ["RING", "StoreModel", "ip_text", "slash16", "slash24"]
