"""serve-ingest: the serve tier's write path in one process, no HTTP.

One round drives a fresh ``LiveIngestService`` in ``manual_drive`` mode
(one thread: ``submit`` a batch, then ``tick_apply`` until it is applied)
with the real WAL and snapshots in a data dir inside the checkout. After
the stream the service is hard-stopped (no final snapshot) and restarted
from its data dir; the restart is timed to the recovered state. Every
round ingests the same seeded stream into an empty data dir.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from typing import List

import streamgen
from checks import check_counts, check_equal
from common import Result, Stopwatch, median, peak_rss_mb, percentile, result_path, round_plan, rounds_for, work_dir
from model import StoreModel
from tracer import Target, Tracer, WriteBytes, written_bytes

NAME = "serve-ingest"
#: Records per round: BATCHES single-feed batches of BATCH records.
BATCH = 64
BATCHES = 800
#: Seconds per round (ingest, checks, restart) measured on a 2-vCPU host,
#: 4.2 to 5.7 s; sets rounds per run only.
NOMINAL_ROUND_S = 5.5

SVC = "repro.serve.service"
TARGETS = [
    Target(SVC, "validate_event_dict", "core.validate"),
    Target(SVC, "validate_dps_record", "core.validate"),
    Target(SVC, "LiveIngestService.submit", "serve.submit"),
    Target("repro.serve.wal", "WriteAheadLog.append", "serve.wal.append"),
    Target("repro.serve.disk", "LocalDisk.fsync", "serve.wal.fsync"),
    Target(SVC, "LiveIngestService.tick_apply", "serve.apply"),
    Target("repro.serve.state", "LiveFusedStore.apply_attack", "serve.state.apply"),
    Target("repro.serve.state", "LiveFusedStore.apply_dps", "serve.state.apply"),
    Target("repro.core.streaming", "StreamingFusion.ingest", "core.streaming.ingest"),
    Target(
        "repro.serve.snapshot",
        "SnapshotManager.save",
        "serve.snapshot.save",
        {"serve.snapshot.mb": WriteBytes()},
    ),
    Target("repro.obs.metrics", "Counter.inc", "obs.metrics.inc"),
    Target("repro.serve.snapshot", "SnapshotManager.load_newest_valid", "serve.recover.snapshot_load"),
    Target("repro.serve.state", "LiveFusedStore.from_state_dict", "serve.recover.snapshot_load"),
    Target("repro.serve.wal", "WriteAheadLog.replay", "serve.recover.replay"),
]
#: Write-path layers: self seconds per round inside the ingest phase.
WRITE_LAYERS = [
    "core.validate",
    "serve.submit",
    "serve.wal.append",
    "serve.wal.fsync",
    "serve.apply",
    "serve.state.apply",
    "core.streaming.ingest",
    "serve.snapshot.save",
    "obs.metrics.inc",
]
#: Call counts per round inside the ingest phase.
CALL_COUNTS = [
    ("serve.wal.appends", "serve.wal.append"),
    ("serve.wal.fsyncs", "serve.wal.fsync"),
    ("serve.snapshot.saves", "serve.snapshot.save"),
    ("obs.metrics.incs", "obs.metrics.inc"),
]
#: End-to-end figures reported but not gated (see the README).
OWN_E2E = [
    ("e2e.ingest_rps", "1/s"),
    ("e2e.ack_p50_ms", "ms"),
    ("e2e.recover_s", "s"),
    ("e2e.write_mb", "MB"),
]
PER_LAYER = (
    [(f"{name}_s", "s") for name in WRITE_LAYERS]
    + [(name, "count") for name, _ in CALL_COUNTS]
    + [
        ("serve.snapshot.mb", "MB"),
        ("serve.recover.snapshot_load_s", "s"),
        ("serve.recover.replay_s", "s"),
    ]
    + OWN_E2E
)

_state = {}


def setup(seed: int, seconds: int) -> float:
    """Generate the stream and its model, then import the serve tier.

    Returns the seconds spent generating input, which set-up time leaves
    out.
    """
    global LiveIngestService, ServeConfig
    started = time.perf_counter()
    universe = streamgen.make_universe(seed)
    batches = streamgen.make_batches(universe, BATCHES, BATCH)
    model = StoreModel()
    for _, kind, records in batches:
        model.apply(kind, records)
    generated = time.perf_counter() - started
    from repro.serve.service import LiveIngestService, ServeConfig

    _state.update(batches=batches, model=model, work=work_dir("ingest"))
    return generated


def teardown() -> None:
    work = _state.get("work")
    if work is not None:
        shutil.rmtree(work, ignore_errors=True)


class Round:
    """What one round measured."""

    def __init__(self) -> None:
        self.acks_ms: List[float] = []
        self.failures: List[str] = []
        self.failed = 0


def one_round(index: int, tracer: Tracer = None) -> Round:
    batches = _state["batches"]
    data_dir = _state["work"] / f"round{index}"
    config = ServeConfig(data_dir=str(data_dir), manual_drive=True)
    out = Round()

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    service = LiveIngestService(config)
    service.start()
    written = written_bytes()
    with span("bench.ingest"), Stopwatch() as watch:
        for feed, kind, records in batches:
            sent = time.perf_counter()
            outcome = service.submit(feed, kind, records)
            if outcome.accepted != len(records):
                out.failed += 1
                out.failures.append(f"batch of {len(records)} {feed} records: {outcome.accepted} accepted")
                continue
            while service.applied_seq < outcome.last_seq:
                if service.tick_apply() == 0:
                    out.failed += 1
                    out.failures.append(f"applier stalled below seq {outcome.last_seq}")
                    break
            out.acks_ms.append((time.perf_counter() - sent) * 1e3)
    out.write_mb = (written_bytes() - written) / 1e6
    out.wall, out.cpu = watch.wall, watch.cpu
    live_digest = service.store.state_digest()
    out.failures += check_counts(service.store.summary(), _state["model"])
    out.failures += check_equal(
        "applied DPS records", service.store.applied_dps, _state["model"].dps_records
    )
    service.stop()

    with span("bench.restart"):
        started = time.perf_counter()
        recovered = LiveIngestService(config)
        recovered.start()
        out.recover_s = time.perf_counter() - started
    out.failures += check_equal("state digest after restart", recovered.store.state_digest(), live_digest)
    recovered.stop()
    shutil.rmtree(data_dir, ignore_errors=True)
    return out


def run(seed: int, seconds: int, trace: bool, result: Result) -> None:
    tracer = Tracer() if trace else None
    plain: List[Round] = []
    traced: List[Round] = []
    for index, with_trace in enumerate(round_plan(rounds_for(seconds, NOMINAL_ROUND_S), trace)):
        if not with_trace:
            plain.append(one_round(index))
            continue
        tracer.install(TARGETS)
        try:
            traced.append(one_round(index, tracer))
        finally:
            tracer.uninstall()
    rss = peak_rss_mb()
    records = sum(len(records) for _, _, records in _state["batches"])
    for done in plain + traced:
        result.check(done.failures)
        # One operation per batch submitted, plus the restart.
        result.attempted += len(_state["batches"]) + 1
        result.failed += done.failed
    walls = [done.wall for done in plain]
    acks = [ack for done in plain for ack in done.acks_ms]
    result.put("e2e.ingest_rps", median([records / done.wall for done in plain]), "1/s")
    result.put("e2e.ack_p50_ms", percentile(acks, 50), "ms")
    result.put("e2e.recover_s", median([done.recover_s for done in plain]), "s")
    result.put("e2e.write_mb", median([done.write_mb for done in plain]), "MB")
    result.notes.update(
        {
            "rounds": len(plain) + len(traced),
            "records_per_round": records,
            "round_wall_s": walls,
            "ack_samples": len(acks),
            "ack_p99_ms": percentile(acks, 99),
        }
    )
    result.put("wall_s", median(walls), "s")
    if trace:
        report_layers(tracer, len(traced), walls, [done.wall for done in traced], result)
    else:
        result.put("cpu_s", median([done.cpu for done in plain]), "s")
        result.put("peak_rss_mb", rss, "MB")


def report_layers(tracer: Tracer, rounds: int, walls, traced_walls, result: Result) -> None:
    ingest = tracer.self_times("bench.ingest")
    for name in WRITE_LAYERS:
        result.put(f"{name}_s", ingest.get(name, {}).get("self_s", 0.0) / rounds, "s")
    for metric, name in CALL_COUNTS:
        result.put(metric, ingest.get(name, {}).get("calls", 0) / rounds, "count")
    result.put("serve.snapshot.mb", tracer.totals.get("serve.snapshot.mb", 0.0) / rounds, "MB")
    result.put(
        "serve.recover.snapshot_load_s",
        tracer.total_within("bench.restart", ["serve.recover.snapshot_load"]) / rounds,
        "s",
    )
    result.put(
        "serve.recover.replay_s",
        tracer.total_within("bench.restart", ["serve.recover.replay", "serve.state.apply"]) / rounds,
        "s",
    )
    whole = tracer.self_times()
    result.put("bench.untraced_s", whole["bench.ingest"]["self_s"] / rounds, "s")
    result.put("trace.overhead_pct", 100.0 * (median(traced_walls) / median(walls) - 1.0), "%")
    result.notes["absent_layers"] = tracer.absent
    result.notes["traced_round_wall_s"] = traced_walls
    tracer.dump(str(result_path(result, "spans.json.gz")))
