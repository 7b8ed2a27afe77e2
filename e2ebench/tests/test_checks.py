"""The benchmark's own checks: each passes on good output and fails when
one output record is dropped or altered; the stream generator is a pure
function of its seed.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import streamgen  # noqa: E402
import wl_http  # noqa: E402
from checks import (  # noqa: E402
    check_counts,
    check_counts_between,
    check_equal,
    check_ground_truth,
    check_shards,
    check_table1,
)
from model import StoreModel  # noqa: E402

# -- generator ---------------------------------------------------------------


def _stream_bytes(seed: int) -> bytes:
    universe = streamgen.make_universe(seed)
    batches = streamgen.make_batches(universe, 30, 16)
    return json.dumps(batches, sort_keys=True).encode()


def test_same_seed_gives_same_bytes():
    assert _stream_bytes(7) == _stream_bytes(7)


def test_other_seed_gives_other_bytes():
    assert _stream_bytes(7) != _stream_bytes(8)


def test_stream_is_time_ordered_and_valid():
    from repro.core.events import validate_event_dict
    from repro.serve.state import validate_dps_record

    batches = streamgen.make_batches(streamgen.make_universe(3), 60, 32)
    starts = [r["start_ts"] for _, kind, records in batches if kind == "attack" for r in records]
    assert starts == sorted(starts) and len(set(starts)) == len(starts)
    for feed, kind, records in batches:
        for record in records:
            if kind == "attack":
                assert record["source"] == feed
                assert validate_event_dict(record) is None
            else:
                assert validate_dps_record(record) is None


def test_mix_pool_shares_no_slash16_with_main_pool():
    universe = streamgen.make_universe(5)
    main = {ip >> 16 for ip in universe.pools["main"].victims}
    live = {ip >> 16 for ip in universe.pools["live"].victims}
    assert main and live and not main & live


# -- pipeline checks on a real small-preset run ------------------------------


@pytest.fixture(scope="module")
def small_run():
    from repro.pipeline.config import ScenarioConfig
    from repro.pipeline.simulation import run_simulation

    return run_simulation(ScenarioConfig.small().with_seed(11))


def _ground_truth_failures(result, telescope=None, honeypot=None):
    config = result.config
    return check_ground_truth(
        result.telescope_events if telescope is None else telescope,
        result.honeypot_events if honeypot is None else honeypot,
        result.ground_truth,
        config.rsdos_config().flow_timeout,
        config.honeypot_detection_config().gap_timeout,
    )


def test_ground_truth_holds_on_real_output(small_run):
    assert small_run.telescope_events and small_run.honeypot_events
    assert _ground_truth_failures(small_run) == []


def test_ground_truth_fails_on_altered_victim(small_run):
    attacked = {attack.target for attack in small_run.ground_truth}
    stranger = next(ip for ip in range(1, 1 << 20) if ip not in attacked)
    telescope = list(small_run.telescope_events)
    telescope[0] = dataclasses.replace(telescope[0], victim=stranger)
    assert _ground_truth_failures(small_run, telescope=telescope)


def test_ground_truth_fails_on_altered_protocol(small_run):
    honeypot = list(small_run.honeypot_events)
    honeypot[0] = dataclasses.replace(honeypot[0], protocol="no-such-protocol")
    assert _ground_truth_failures(small_run, honeypot=honeypot)


def test_table1_holds_on_real_output(small_run):
    rows = small_run.fused.summary_rows()
    assert check_table1(small_run.telescope_events, small_run.honeypot_events, rows) == []


def test_table1_fails_on_dropped_event(small_run):
    rows = small_run.fused.summary_rows()
    dropped = list(small_run.honeypot_events)[1:]
    assert check_table1(small_run.telescope_events, dropped, rows)


def test_table1_fails_on_altered_row(small_run):
    rows = [dict(row) for row in small_run.fused.summary_rows()]
    rows[2]["slash24s"] += 1
    assert check_table1(small_run.telescope_events, small_run.honeypot_events, rows)


def test_shard_check_fails_on_dropped_or_altered_event(small_run):
    events = list(small_run.telescope_events)
    assert check_shards("telescope", events, list(events)) == []
    assert check_shards("telescope", events, events[:-1])
    altered = events[:-1] + [dataclasses.replace(events[-1], packets=1)]
    assert check_shards("telescope", events, altered)


# -- serve checks on a real in-process store ---------------------------------


def _ingest(data_dir, batches):
    """Ingest *batches* in manual drive; the summary, live digest and config."""
    from repro.serve.service import LiveIngestService, ServeConfig

    config = ServeConfig(data_dir=str(data_dir), manual_drive=True, snapshot_every_events=500)
    service = LiveIngestService(config)
    service.start()
    for feed, kind, records in batches:
        service.submit(feed, kind, records)
        while service.tick_apply():
            pass
    summary, digest = service.store.summary(), service.store.state_digest()
    service.stop()
    return summary, digest, config


def _recovered_digest(config):
    from repro.serve.service import LiveIngestService

    service = LiveIngestService(config)
    service.start()
    digest = service.store.state_digest()
    service.stop()
    return digest


@pytest.fixture(scope="module")
def batches():
    return streamgen.make_batches(streamgen.make_universe(9), 40, 32)


def _model(batches):
    model = StoreModel()
    for _, kind, records in batches:
        model.apply(kind, records)
    return model


def _without_last_attack(batches):
    trimmed = copy.deepcopy(batches)
    for _, kind, records in reversed(trimmed):
        if kind == "attack":
            records.pop()
            return trimmed
    raise AssertionError("no attack record")


def test_counts_hold_on_real_store(batches, tmp_path):
    summary, _, _ = _ingest(tmp_path, batches)
    assert check_counts(summary, _model(batches)) == []


def test_counts_fail_on_dropped_record(batches, tmp_path):
    summary, _, _ = _ingest(tmp_path, _without_last_attack(batches))
    assert check_counts(summary, _model(batches))


def test_counts_fail_on_altered_record(batches, tmp_path):
    altered = copy.deepcopy(batches)
    attack = next(records for _, kind, records in altered if kind == "attack")
    attack[0]["target"] = (250 << 24) | 7
    summary, _, _ = _ingest(tmp_path, altered)
    assert check_counts(summary, _model(batches))


def test_digest_holds_after_restart(batches, tmp_path):
    _, live, config = _ingest(tmp_path, batches)
    assert check_equal("digest", _recovered_digest(config), live) == []


def test_digest_fails_when_a_logged_record_is_lost(batches, tmp_path):
    _, live, config = _ingest(tmp_path, batches)
    segments = sorted((tmp_path / "wal").glob("*"))
    lines = segments[-1].read_bytes().splitlines(keepends=True)
    segments[-1].write_bytes(b"".join(lines[:-1]))
    assert check_equal("digest", _recovered_digest(config), live)


def test_counts_between_bounds():
    low = {"events": 5, "targets": 3, "slash24s": 2, "slash16s": 1}
    high = {"events": 9, "targets": 6, "slash24s": 4, "slash16s": 2}
    assert check_counts_between(dict(low), low, high) == []
    assert check_counts_between(dict(high, events=10), low, high)
    assert check_counts_between(dict(low, targets=2), low, high)


# -- HTTP answer checks -------------------------------------------------------


@pytest.fixture(scope="module")
def plan_and_answers():
    plan = wl_http._plan(4, 1)
    model = plan["model"]
    answers = []
    for cycle in range(40):
        for label, path, query in plan["reads"][cycle]:
            if query[0] == "summary":
                body = dict(plan["preload_counts"], asns=1)
            else:
                body = dict(wl_http._expected(model, query))
                body["path"] = path
            answers.append((cycle, label, query, 200, json.dumps(body).encode()))
    return plan, answers


def test_http_answers_hold(plan_and_answers):
    plan, answers = plan_and_answers
    assert wl_http._check_answers(plan, answers) == []


def _edit(answers, label, edit):
    edited = list(answers)
    for index, (cycle, got_label, query, status, body) in enumerate(edited):
        doc = json.loads(body)
        if got_label == label and edit(doc):
            edited[index] = (cycle, got_label, query, status, json.dumps(doc).encode())
            return edited
    raise AssertionError(f"no {label} answer to edit")


def test_http_fails_on_dropped_event(plan_and_answers):
    plan, answers = plan_and_answers

    def drop(doc):
        if len(doc["events"]) < 2:
            return False
        doc["events"].pop()
        return True

    assert wl_http._check_answers(plan, _edit(answers, "attacks_prefix", drop))
    assert wl_http._check_answers(plan, _edit(answers, "attacks_ip", drop))


def test_http_fails_on_altered_victim_set(plan_and_answers):
    plan, answers = plan_and_answers

    def alter(doc):
        doc["victims"][0] += 1
        return True

    assert wl_http._check_answers(plan, _edit(answers, "victims", alter))


def test_http_fails_on_summary_out_of_bounds(plan_and_answers):
    plan, answers = plan_and_answers

    def inflate(doc):
        doc["events"] += 10**6
        return True

    assert wl_http._check_answers(plan, _edit(answers, "summary", inflate))


def test_http_fails_on_altered_domain_status(plan_and_answers):
    plan, answers = plan_and_answers

    def alter(doc):
        if "provider" not in doc:
            return False
        doc["active"] = not doc["active"]
        return True

    assert wl_http._check_answers(plan, _edit(answers, "domains", alter))


def test_ground_truth_window_is_padded_by_the_timeout():
    attack = SimpleNamespace(kind="direct", target=5, start=100.0, duration=50.0, reflector_protocol=None)
    event = SimpleNamespace(victim=5, start_ts=120.0, end_ts=140.0)
    assert check_ground_truth([event], [], [attack], 300.0, 3600.0) == []
    late = SimpleNamespace(victim=5, start_ts=1000.0, end_ts=1100.0)
    assert check_ground_truth([late], [], [attack], 300.0, 3600.0)


def test_stream_matches_its_measured_shape():
    """The frozen calibration figures carry through to the stream."""
    batches = streamgen.make_batches(streamgen.make_universe(1), 800, 64)
    total = sum(weight for _, weight in streamgen.FEED_SHARES)
    for feed, weight in streamgen.FEED_SHARES:
        share = sum(1 for name, _, _ in batches if name == feed) / len(batches)
        assert abs(share - weight / total) < 0.05, feed
    hits = {}
    for _, kind, records in batches:
        for record in records if kind == "attack" else ():
            hits[record["target"]] = hits.get(record["target"], 0) + 1
    counts = sorted(hits.values(), reverse=True)
    top_tenth = sum(counts[: round(len(counts) / 10)]) / sum(counts)
    assert abs(top_tenth - 0.529) < 0.05
    assert len({ip >> 16 for ip in hits}) == streamgen.SLASH16S
    per24 = {}
    for ip in hits:
        per24[ip >> 8] = per24.get(ip >> 8, 0) + 1
    assert sum(1 for n in per24.values() if n == 1) / len(per24) > 0.85
