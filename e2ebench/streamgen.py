"""Seeded generator for the serve workloads' input stream.

The stream is made here, from the workload seed alone, and never from a
pipeline run: a later change to the simulator's RNG streams cannot change
what the serve workloads ingest.

Its shape is frozen from one measured default-preset run
(``calibrate.py --seed 1``; the figures are in the README):

* the feed mix is the run's telescope events : honeypot events : DPS
  usages;
* each victim pool has the run's number of /16s, its /24s-per-/16
  distribution (as deciles) and its victims-per-/24 distribution;
* victim popularity is Zipf with the exponent fitted to the run's
  per-victim event counts;
* durations, intensities and packet counts are log-normal with the run's
  per-feed moments, and protocols, countries and DPS providers follow the
  run's shares;
* start times rise strictly over the preset's 120 days.

The stream carries more records than one run has events (the workloads
set the count), over victim pools of the measured size. So per-victim
counts scale with the volume, while the shares of the top victims match
the run's.

Two disjoint victim pools exist: ``"main"`` for the ingested stream and
``"live"`` for the HTTP mix's writes, so a read in the mix has one exact
answer however far the server's applier has got. Batches hold one feed
each (telescope, honeypot, DPS).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

DAY = 86400.0

# -- measured on the default preset, seed 1 (calibrate.py) --------------------

#: The preset's observation window and domain count.
N_DAYS = 120
N_DOMAINS = 8000
#: Telescope events, honeypot events and DPS usages of the run: the feed
#: mix of the ingest stream, as weights.
FEED_SHARES = (("telescope", 2741), ("honeypot", 3895), ("dps", 1079))
#: Fitted to the per-victim event counts (rank r has weight 1 / r**ZIPF_S).
ZIPF_S = 0.779
#: /16s with a victim, deciles of /24s per /16, and victims per /24.
SLASH16S = 104
SLASH24S_PER_SLASH16 = (1, 2, 5, 11, 15, 17, 19, 21, 23, 30.7, 68)
VICTIMS_PER_SLASH24 = ((1, 0.9118), (2, 0.076), (3, 0.0094), (4, 0.0022), (5, 0.0006))
#: Distinct origin ASes of the victims, and the victims' countries.
VICTIM_ASNS = 336
COUNTRIES = (
    ("US", 0.5689), ("CN", 0.1004), ("FR", 0.0497), ("BR", 0.0399), ("DE", 0.035),
    ("KR", 0.0342), ("RU", 0.0256), ("GB", 0.0238), ("CA", 0.0202), ("IT", 0.02),
    ("MX", 0.0163), ("PL", 0.0098), ("SE", 0.0093), ("NL", 0.0084), ("AU", 0.0069),
    ("TW", 0.0065), ("AR", 0.0059), ("DK", 0.0059), ("JP", 0.0059), ("IN", 0.0057),
    ("ES", 0.0017),
)
TELESCOPE_IP_PROTO = ((6, 0.8285), (17, 0.131), (1, 0.0379), (2, 0.0026))
#: Deciles of the number of ports per telescope event.
TELESCOPE_PORTS = (0, 1, 1, 1, 1, 1, 1, 3, 6, 9, 131)
HONEYPOT_PROTOCOLS = (
    ("NTP", 0.4375), ("DNS", 0.2483), ("CharGen", 0.211), ("SSDP", 0.0791),
    ("RIPv1", 0.0177), ("QOTD", 0.0031), ("TFTP", 0.0023), ("MSSQL", 0.001),
)
DPS_PROVIDERS = (
    ("Neustar", 0.2437), ("Verisign", 0.1724), ("DOSarrest", 0.1492), ("Incapsula", 0.1307),
    ("Akamai", 0.127), ("CloudFlare", 0.0945), ("F5 Networks", 0.0797),
    ("CenturyLink", 0.0019), ("Level3", 0.0009),
)
#: (mu, sigma) of ln(value) per feed, and the longest event in seconds.
LOG_NORMAL = {
    "telescope": {"duration": (6.438, 1.517), "intensity": (1.907, 1.73), "packets": (8.238, 2.394)},
    "honeypot": {"duration": (4.964, 2.662), "intensity": (5.308, 2.359), "packets": (12.624, 2.701)},
}
MAX_DURATION = {"telescope": 490786.786, "honeypot": 74160.652}

Batch = Tuple[str, str, List[dict]]


@dataclass
class VictimPool:
    """Victim IPs in popularity order with cumulative Zipf weights."""

    victims: List[int]
    cum_weights: List[float]
    asn_of: Dict[int, int]
    country_of: Dict[int, str]


@dataclass
class Universe:
    """Everything the stream draws from; a pure function of the seed."""

    seed: int
    pools: Dict[str, VictimPool]
    domains: List[str]


def _weighted(rng: random.Random, table: Sequence[Tuple[object, float]]):
    return rng.choices([value for value, _ in table], weights=[weight for _, weight in table])[0]


def _from_deciles(rng: random.Random, deciles: Sequence[float]) -> int:
    """An integer drawn uniformly inside a uniformly chosen decile band."""
    band = rng.randrange(len(deciles) - 1)
    return rng.randint(math.ceil(deciles[band]), math.floor(deciles[band + 1]))


def _log_normal(rng: random.Random, feed: str, what: str) -> float:
    mu, sigma = LOG_NORMAL[feed][what]
    return rng.lognormvariate(mu, sigma)


def _slash16_bases(rng: random.Random, count: int) -> List[int]:
    bases = set()
    while len(bases) < count:
        first = rng.randint(11, 223)
        if first in (100, 127, 169, 172, 192, 198):
            continue
        bases.add((first << 24) | (rng.randint(0, 255) << 16))
    return sorted(bases)


def _pool(rng: random.Random, bases: Sequence[int], asn_base: int) -> VictimPool:
    countries = {asn_base + index: _weighted(rng, COUNTRIES) for index in range(VICTIM_ASNS)}
    victims: List[int] = []
    asn_of: Dict[int, int] = {}
    for base in bases:
        for third in sorted(rng.sample(range(256), _from_deciles(rng, SLASH24S_PER_SLASH16))):
            asn = asn_base + rng.randrange(VICTIM_ASNS)
            for host in sorted(rng.sample(range(1, 255), _weighted(rng, VICTIMS_PER_SLASH24))):
                ip = base | (third << 8) | host
                victims.append(ip)
                asn_of[ip] = asn
    rng.shuffle(victims)
    cum_weights: List[float] = []
    total = 0.0
    for rank in range(len(victims)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cum_weights.append(total)
    country_of = {ip: countries[asn] for ip, asn in asn_of.items()}
    return VictimPool(victims=victims, cum_weights=cum_weights, asn_of=asn_of, country_of=country_of)


def make_universe(seed: int) -> Universe:
    rng = random.Random(f"e2ebench-universe:{seed}")
    bases = _slash16_bases(rng, 2 * SLASH16S)
    rng.shuffle(bases)
    pools = {
        "main": _pool(rng, sorted(bases[:SLASH16S]), 64500),
        "live": _pool(rng, sorted(bases[SLASH16S:]), 65000),
    }
    domains = [f"site{index:05d}.example" for index in range(N_DOMAINS)]
    return Universe(seed=seed, pools=pools, domains=domains)


def _attack_record(rng: random.Random, pool: VictimPool, feed: str, start: float) -> dict:
    victim = rng.choices(pool.victims, cum_weights=pool.cum_weights)[0]
    duration = round(min(MAX_DURATION[feed], max(1.0, _log_normal(rng, feed, "duration"))), 3)
    if feed == "telescope":
        ip_proto = _weighted(rng, TELESCOPE_IP_PROTO)
        ports = sorted(rng.sample(range(1, 65536), _from_deciles(rng, TELESCOPE_PORTS)))
        protocol = None
    else:
        ip_proto = 17
        ports = []
        protocol = _weighted(rng, HONEYPOT_PROTOCOLS)
    return {
        "source": feed,
        "target": victim,
        "start_ts": start,
        "end_ts": round(start + duration, 3),
        "intensity": round(_log_normal(rng, feed, "intensity"), 4),
        "ip_proto": ip_proto,
        "ports": ports,
        "reflector_protocol": protocol,
        "packets": max(1, int(_log_normal(rng, feed, "packets"))),
        "country": pool.country_of[victim],
        "asn": pool.asn_of[victim],
    }


def _dps_record(rng: random.Random, universe: Universe, start: float) -> dict:
    # The run's usages name every domain at most once and never end, so
    # domains are drawn uniformly and every record is active.
    return {
        "domain": rng.choice(universe.domains),
        "provider": _weighted(rng, DPS_PROVIDERS),
        "day": int(start // DAY),
        "active": True,
    }


def make_batches(
    universe: Universe,
    n_batches: int,
    batch_size: int,
    start_ts: float = 0.0,
    pool: str = "main",
    feeds: Sequence[Tuple[str, float]] = FEED_SHARES,
    days: float = N_DAYS,
    label: str = "stream",
) -> List[Batch]:
    """*n_batches* single-feed batches of *batch_size* records each.

    Start times begin after *start_ts* and rise strictly through every
    batch, spread over about *days* days. *label* keeps streams with
    other roles (preload, mix) on their own RNG.
    """
    rng = random.Random(f"e2ebench-{label}:{universe.seed}:{pool}")
    victims = universe.pools[pool]
    names = [name for name, _ in feeds]
    shares = [share for _, share in feeds]
    mean_gap = days * DAY / max(1, n_batches * batch_size)
    ts = start_ts
    batches: List[Batch] = []
    for _ in range(n_batches):
        feed = rng.choices(names, weights=shares)[0]
        records = []
        for _ in range(batch_size):
            ts = round(ts + 0.01 + rng.expovariate(1.0 / mean_gap), 3)
            if feed == "dps":
                records.append(_dps_record(rng, universe, ts))
            else:
                records.append(_attack_record(rng, victims, feed, ts))
        kind = "dps" if feed == "dps" else "attack"
        batches.append((feed, kind, records))
    return batches


def last_ts(batches: Sequence[Batch]) -> float:
    """Latest start time in *batches* (DPS records carry only a day)."""
    latest = 0.0
    for _, kind, records in batches:
        if kind == "attack" and records:
            latest = max(latest, records[-1]["start_ts"])
    return latest


__all__ = ["Batch", "Universe", "last_ts", "make_batches", "make_universe"]
