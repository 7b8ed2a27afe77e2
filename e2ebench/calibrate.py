"""Measure the serve stream's shape from one default-preset pipeline run.

``streamgen.py`` freezes the figures this script prints; the README
records them. Rerun it when the simulator's output shape changes::

    python3 e2ebench/calibrate.py --seed 1

It runs ``run_simulation(ScenarioConfig.default().with_seed(seed))`` once
(about 15 s) and prints one JSON object: the per-feed event and DPS usage
counts, the victim concentration (a Zipf exponent fitted to the
per-victim event counts, and the event share of the top victims), the
/24 and /16 fan-in, and the durations and protocol mix per feed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def zipf_exponent(counts: Sequence[int]) -> float:
    """Least-squares slope of log(count) on log(rank), negated.

    Fitted over the victims with at least two events: the one-event tail
    is a flat run of ties that says nothing about the skew.
    """
    ranked = sorted((c for c in counts if c >= 2), reverse=True)
    xs = [math.log(rank + 1) for rank in range(len(ranked))]
    ys = [math.log(count) for count in ranked]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return -num / den


def top_share(counts: Sequence[int], fraction: float) -> float:
    """Share of all events that fall on the top *fraction* of victims."""
    ranked = sorted(counts, reverse=True)
    top = max(1, round(len(ranked) * fraction))
    return sum(ranked[:top]) / sum(ranked)


def deciles(values: Sequence[float]) -> List[float]:
    """The 0th, 10th, ..., 100th percentiles (inclusive method)."""
    inner = statistics.quantiles(values, n=10, method="inclusive")
    return [min(values)] + [round(value, 3) for value in inner] + [max(values)]


def log_moments(values: Sequence[float]) -> Dict[str, float]:
    """Mean and standard deviation of ln(value), values floored at 1."""
    logs = [math.log(max(value, 1.0)) for value in values]
    return {"mu": round(statistics.fmean(logs), 3), "sigma": round(statistics.pstdev(logs), 3)}


def shares(values: Sequence) -> Dict[str, float]:
    counts = Counter(values)
    return {str(key): round(n / len(values), 4) for key, n in sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))}


def measure(seed: int) -> dict:
    from repro.pipeline.config import ScenarioConfig
    from repro.pipeline.simulation import run_simulation

    config = ScenarioConfig.default().with_seed(seed)
    result = run_simulation(config)
    events = result.fused.combined.events
    by_source = {
        source: [event for event in events if event.source == source] for source in ("telescope", "honeypot")
    }
    victims = Counter(event.target for event in events)
    per24: Dict[int, set] = {}
    per16: Dict[int, set] = {}
    for ip in victims:
        per24.setdefault(ip >> 8, set()).add(ip)
        per16.setdefault(ip >> 16, set()).add(ip >> 8)
    counts: List[int] = list(victims.values())
    usages = result.dps_usage.usages
    asn_of = {event.target: event.asn for event in events}
    doc = {
        "seed": seed,
        "n_days": result.n_days,
        "n_domains": config.n_domains,
        "telescope_events": len(by_source["telescope"]),
        "honeypot_events": len(by_source["honeypot"]),
        "dps_usages": len(usages),
        "dps_domains": len({usage.domain for usage in usages}),
        "distinct_victims": len(victims),
        "events_per_victim_mean": round(statistics.fmean(counts), 3),
        "events_per_victim_max": max(counts),
        "zipf_exponent": round(zipf_exponent(counts), 3),
        "top_1pct_share": round(top_share(counts, 0.01), 4),
        "top_10pct_share": round(top_share(counts, 0.10), 4),
        "slash16s": len(per16),
        "slash24s": len(per24),
        "slash24s_per_slash16_deciles": deciles([len(s) for s in per16.values()]),
        "victims_per_slash24": shares([len(s) for s in per24.values()]),
        "victim_asns": len(set(asn_of.values())),
        "victim_country": shares([event.country for event in events]),
        "telescope_ip_proto": shares([event.ip_proto for event in by_source["telescope"]]),
        "telescope_ports_deciles": deciles([len(event.ports) for event in by_source["telescope"]]),
        "honeypot_protocol": shares([event.reflector_protocol for event in by_source["honeypot"]]),
        "dps_provider": shares([usage.provider for usage in usages]),
    }
    for source, feed in by_source.items():
        doc[f"{source}_duration_log"] = log_moments([event.duration for event in feed])
        doc[f"{source}_duration_max"] = round(max(event.duration for event in feed), 3)
        doc[f"{source}_intensity_log"] = log_moments([event.intensity for event in feed])
        doc[f"{source}_packets_log"] = log_moments([event.packets for event in feed])
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
