"""Output checks: each returns a list of failures, empty when the output holds.

None of them compares against a stored copy of earlier output. The
pipeline checks test the events against the scenario's own ground truth
and recompute Table 1 from the event lists; the serve checks compare the
program's answers with :class:`~model.StoreModel`, the benchmark's model
of the records it sent.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from model import StoreModel, slash16, slash24

#: Fields of a Table-1 row the pipeline check recomputes.
TABLE1_FIELDS = ("events", "targets", "slash24s", "slash16s")
#: Counts of the serve store's running summary the serve checks compare.
COUNT_FIELDS = ("events", "targets", "slash24s", "slash16s")
#: Most failures one check reports before it stops listing them.
MAX_LISTED = 5


def _windows(ground_truth, kind: str, pad: float) -> Dict[tuple, Tuple[list, list]]:
    """(target, protocol) -> sorted attack windows widened by *pad*."""
    spans = defaultdict(list)
    for attack in ground_truth:
        if attack.kind != kind:
            continue
        protocol = attack.reflector_protocol if kind == "reflection" else None
        spans[(attack.target, protocol)].append(
            (attack.start - pad, attack.start + attack.duration + pad)
        )
    index = {}
    for key, windows in spans.items():
        windows.sort()
        starts = [start for start, _ in windows]
        # Running max of window ends: the latest end among windows that
        # start at or before a given index, for one bisect per event.
        ends, latest = [], float("-inf")
        for _, end in windows:
            latest = max(latest, end)
            ends.append(latest)
        index[key] = (starts, ends)
    return index


def _on_ground_truth(index, key, start_ts: float) -> bool:
    found = index.get(key)
    if found is None:
        return False
    starts, ends = found
    position = bisect.bisect_right(starts, start_ts) - 1
    return position >= 0 and ends[position] >= start_ts


def check_ground_truth(
    telescope_events: Sequence,
    honeypot_events: Sequence,
    ground_truth: Sequence,
    telescope_timeout: float,
    honeypot_timeout: float,
) -> List[str]:
    """Every event starts inside a launched attack of its kind on its victim.

    Telescope events must sit on a direct attack, honeypot events on a
    reflection attack with the same reflector protocol. An attack's window
    is widened by the feed's flow timeout on both sides, since a flow can
    open on traffic just before the attack's nominal start and close a
    timeout after its last packet.
    """
    failures: List[str] = []
    direct = _windows(ground_truth, "direct", telescope_timeout)
    reflection = _windows(ground_truth, "reflection", honeypot_timeout)
    for event in telescope_events:
        if not _on_ground_truth(direct, (event.victim, None), event.start_ts):
            failures.append(
                f"telescope event on {event.victim} at {event.start_ts} "
                "matches no direct attack"
            )
    for event in honeypot_events:
        key = (event.victim, event.protocol)
        if not _on_ground_truth(reflection, key, event.start_ts):
            failures.append(
                f"honeypot {event.protocol} event on {event.victim} at "
                f"{event.start_ts} matches no reflection attack"
            )
    return failures[:MAX_LISTED]


def table1_rows(telescope_victims: Iterable[int], honeypot_victims: Iterable[int]) -> List[dict]:
    """Table 1's telescope, honeypot and combined rows from victim lists."""
    telescope = list(telescope_victims)
    honeypot = list(honeypot_victims)

    def row(victims: List[int]) -> dict:
        targets = set(victims)
        return {
            "events": len(victims),
            "targets": len(targets),
            "slash24s": len({slash24(ip) for ip in targets}),
            "slash16s": len({slash16(ip) for ip in targets}),
        }

    return [row(telescope), row(honeypot), row(telescope + honeypot)]


def check_table1(
    telescope_events: Sequence, honeypot_events: Sequence, summary_rows: Sequence[Mapping]
) -> List[str]:
    """Table 1's rows equal the counts recomputed from the event lists."""
    expected = table1_rows(
        (event.victim for event in telescope_events),
        (event.victim for event in honeypot_events),
    )
    if len(summary_rows) != len(expected):
        return [f"Table 1 has {len(summary_rows)} rows, expected {len(expected)}"]
    failures = []
    for label, want, got in zip(("telescope", "honeypot", "combined"), expected, summary_rows):
        for field in TABLE1_FIELDS:
            if got.get(field) != want[field]:
                failures.append(
                    f"Table 1 {label} {field}: program {got.get(field)}, "
                    f"recomputed {want[field]}"
                )
    return failures


def check_shards(feed: str, single: Sequence, sharded: Sequence) -> List[str]:
    """Victim-partitioned detection, merged, equals single-shard detection."""
    if list(single) == list(sharded):
        return []
    return [
        f"{feed}: 2-shard detection gives {len(sharded)} events, "
        f"1-shard gives {len(single)}, or the events differ"
    ]


def check_report(report: Mapping[str, str], artifact_ids: Sequence[str]) -> List[str]:
    """Every paper artifact was rendered and is not empty."""
    return [
        f"report artifact {name} missing or empty"
        for name in artifact_ids
        if not (report.get(name) or "").strip()
    ]


def check_counts(summary: Mapping, model: StoreModel) -> List[str]:
    """The store's running counts equal the model's."""
    want = model.counts()
    return [
        f"store {field}: program {summary.get(field)}, model {want[field]}"
        for field in COUNT_FIELDS
        if summary.get(field) != want[field]
    ]


def check_counts_between(summary: Mapping, lows: Mapping, highs: Mapping) -> List[str]:
    """Counts read while writes are in flight lie between two count rows.

    *lows* counts what was certainly applied when the read was sent,
    *highs* everything acknowledged by the time its answer came back.
    """
    return [
        f"store {field}: program {summary.get(field)} outside "
        f"[{lows[field]}, {highs[field]}]"
        for field in COUNT_FIELDS
        if not (
            isinstance(summary.get(field), int)
            and lows[field] <= summary[field] <= highs[field]
        )
    ]


def check_equal(what: str, got, want) -> List[str]:
    if got == want:
        return []
    return [f"{what}: program answer differs from the model"]


__all__ = [
    "check_counts",
    "check_counts_between",
    "check_equal",
    "check_ground_truth",
    "check_report",
    "check_shards",
    "check_table1",
    "table1_rows",
]
