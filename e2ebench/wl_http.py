"""serve-http: ``python -m repro serve`` under one closed-loop client.

The server is started the way an operator starts it, in its own process
with default flags, and preloaded with the seeded stream in batches of
``PRELOAD_BATCH``. One closed-loop client then runs a fixed mix in
rounds of ``CYCLES`` cycles; a cycle is one ingest POST of ``MIX_BATCH``
attack records followed by one read of each of ``/attacks?ip=``,
``/attacks?prefix=``, ``/victims?prefix=``, ``/summary`` and
``/domains``. Each request is sent only after the previous answer has
arrived, on a connection of its own, as the program's own client does.

The mix writes only to victims in the stream's ``live`` pool, which
shares no /16 with the preloaded victims the reads ask about, so every
read has one exact answer however far the server's applier has got.
``/summary`` is the exception: its counts must lie between the preload
alone and everything acknowledged so far.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import streamgen
from checks import check_counts, check_counts_between, check_equal
from common import (
    ROOT,
    ProcCpu,
    Result,
    median,
    peak_rss_mb,
    percentile,
    rounds_for,
    work_dir,
)
from model import StoreModel, ip_text

NAME = "serve-http"
PRELOAD_BATCH = 256
PRELOAD_BATCHES = 80
MIX_BATCH = 8
#: Mix cycles per round; rounds per run come from ``--seconds``.
CYCLES = 250
#: Nominal seconds per round on a 2-core host; sets rounds per run only.
NOMINAL_ROUND_S = 2.5
#: How long the server may take to come up, to drain, to apply a backlog.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
SETTLE_TIMEOUT_S = 60.0

#: Endpoint label -> path in the server's own request histogram.
ENDPOINTS = [
    ("ingest", "/ingest/attacks", "POST"),
    ("attacks_ip", "/attacks", "GET"),
    ("attacks_prefix", "/attacks", "GET"),
    ("victims", "/victims", "GET"),
    ("summary", "/summary", "GET"),
    ("domains", "/domains", "GET"),
]
READS = [label for label, _, method in ENDPOINTS if method == "GET"]
#: End-to-end figures reported but not gated (see the README).
OWN_E2E = [
    ("e2e.ingest_rps", "1/s"),
    ("e2e.ack_p50_ms", "ms"),
    ("e2e.query_rps", "1/s"),
    ("e2e.query_p50_ms", "ms"),
]
#: Server-side means are per path: both /attacks reads share one series.
SERVER_PATHS = [("ingest", "/ingest/attacks"), ("attacks", "/attacks"), ("victims", "/victims"),
                ("summary", "/summary"), ("domains", "/domains")]
PER_LAYER = (
    [(f"http.{label}_p50_ms", "ms") for label, _, _ in ENDPOINTS]
    + [(f"serve.http.{label}_server_ms", "ms") for label, _ in SERVER_PATHS]
    + OWN_E2E
)

_state: Dict[str, object] = {}


# -- input -------------------------------------------------------------------


def _plan(seed: int, seconds: int) -> dict:
    universe = streamgen.make_universe(seed)
    preload = streamgen.make_batches(universe, PRELOAD_BATCHES, PRELOAD_BATCH, label="preload")
    rounds = rounds_for(seconds, NOMINAL_ROUND_S)
    mix = streamgen.make_batches(
        universe,
        rounds * CYCLES,
        MIX_BATCH,
        start_ts=streamgen.last_ts(preload),
        pool="live",
        feeds=[(feed, share) for feed, share in streamgen.FEED_SHARES if feed != "dps"],
        label="mix",
    )
    model = StoreModel()
    for _, kind, records in preload:
        model.apply(kind, records)
    preload_counts = model.counts()
    # Counts after each acknowledged mix batch: the upper bound a
    # /summary read may show.
    high = [dict(preload_counts)]
    seen = {"targets": set(model.by_victim), "s24": set(model.victims24), "s16": set(model.victims16)}
    events = preload_counts["events"]
    for _, _, records in mix:
        for record in records:
            events += 1
            seen["targets"].add(record["target"])
            seen["s24"].add(record["target"] >> 8)
            seen["s16"].add(record["target"] >> 16)
        high.append({
            "events": events,
            "targets": len(seen["targets"]),
            "slash24s": len(seen["s24"]),
            "slash16s": len(seen["s16"]),
        })
    rng = random.Random(f"e2ebench-queries:{seed}")
    hot = sorted(model.by_victim, key=lambda ip: (-len(model.by_victim[ip]), ip))
    victims = [rng.choice(hot[: max(1, len(hot) // 4)]) if rng.random() < 0.5 else rng.choice(hot)
               for _ in range(rounds * CYCLES)]
    domains = sorted(model.dps)
    reads = []
    for cycle, ip in enumerate(victims):
        text = ip_text(ip)
        net24 = ip_text(ip & 0xFFFFFF00) + "/24"
        net16 = ip_text(ip & 0xFFFF0000) + "/16"
        prefix, length = (net24, 24) if cycle % 2 else (net16, 16)
        domain = domains[rng.randrange(len(domains))]
        domain_path = f"/domains?domain={domain}" if cycle % 2 else "/domains"
        reads.append([
            ("attacks_ip", f"/attacks?ip={text}", ("ip", ip)),
            ("attacks_prefix", f"/attacks?prefix={prefix}", ("prefix", ip, length)),
            ("victims", f"/victims?prefix={net16 if cycle % 2 else net24}",
             ("victims", ip, 16 if cycle % 2 else 24)),
            ("summary", "/summary", ("summary",)),
            ("domains", domain_path, ("domain", domain) if cycle % 2 else ("domains",)),
        ])
    return {
        "preload": preload,
        "mix": mix,
        "model": model,
        "preload_counts": preload_counts,
        "high": high,
        "reads": reads,
        "rounds": rounds,
    }


def _expected(model: StoreModel, query: tuple):
    what = query[0]
    if what == "ip":
        events = model.events_for_ip(query[1])
        return {"count": len(events), "events": events}
    if what == "prefix":
        events = model.events_for_prefix(query[1], query[2])
        return {"count": len(events), "events": events}
    if what == "victims":
        victims = model.victims_in_prefix(query[1], query[2])
        return {"count": len(victims), "victims": victims}
    if what == "domain":
        return model.domain_status(query[1])
    if what == "domains":
        return model.domain_counts()
    raise ValueError(what)


# -- server process ----------------------------------------------------------


def _start_server(data_dir) -> Tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    log = open(data_dir.parent / "server.log", "wb")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--data-dir", str(data_dir), "--port", "0"],
        cwd=str(ROOT),
        env=env,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    log.close()
    _state["process"] = process
    endpoint = data_dir / "endpoint.json"
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"server exited with {process.returncode} before it was ready")
        try:
            info = json.loads(endpoint.read_text())
        except (OSError, ValueError):
            time.sleep(0.005)
            continue
        try:
            status, _ = _request((info["host"], info["port"]), "GET", "/healthz")
        except OSError:
            time.sleep(0.005)
            continue
        if status == 200:
            return process, info["host"], info["port"]
    raise RuntimeError("server did not become ready")


def _stop_server() -> None:
    process = _state.pop("process", None)
    if process is None or process.poll() is not None:
        return
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _request(address, method: str, path: str, body: bytes = None) -> Tuple[int, bytes]:
    """One exchange on a fresh connection, closed after the answer.

    One connection per request is how the program's own client
    (``ServeClient`` over urllib) talks to the server. A kept-alive
    connection would instead wait out a delayed ACK on every answer (see
    the README), which would hide the server's own time.
    """
    connection = http.client.HTTPConnection(*address, timeout=60)
    headers = {"Connection": "close"}
    if body is not None:
        headers["Content-Type"] = "application/json"
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _settle(address) -> dict:
    """Wait until the server has applied everything it acknowledged."""
    deadline = time.monotonic() + SETTLE_TIMEOUT_S
    while True:
        status, body = _request(address, "GET", "/stats")
        stats = json.loads(body)
        if status == 200 and stats["applied_seq"] >= stats["seq"] and stats["queue_depth"] == 0:
            return stats
        if time.monotonic() > deadline:
            raise RuntimeError("server did not apply its backlog in time")
        time.sleep(0.002)


def _server_means(exposition: str) -> Dict[str, float]:
    """Mean ms per path from ``serve_http_request_seconds`` sum and count."""
    sums: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    pattern = re.compile(r'^serve_http_request_seconds_(sum|count)\{([^}]*)\} (\S+)$')
    for line in exposition.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2)))
        if labels.get("status") not in ("200", "202"):
            continue
        target = sums if match.group(1) == "sum" else counts
        path = labels.get("endpoint", "")
        target[path] = target.get(path, 0.0) + float(match.group(3))
    return {path: 1e3 * sums[path] / counts[path] for path in sums if counts.get(path)}


# -- workload ----------------------------------------------------------------


def setup(seed: int, seconds: int) -> float:
    """Generate the input, then start the server and wait until it answers.

    Returns the seconds spent generating input, which set-up time leaves
    out; set-up time includes the server's start-up and recovery.
    """
    started = time.perf_counter()
    _state["plan"] = _plan(seed, seconds)
    generated = time.perf_counter() - started
    work = work_dir("http")
    _state["work"] = work
    process, host, port = _start_server(work / "data")
    _state["address"] = (host, port)
    return generated


def teardown() -> None:
    _stop_server()
    work = _state.get("work")
    if work is not None:
        shutil.rmtree(work, ignore_errors=True)


def run(seed: int, seconds: int, trace: bool, result: Result) -> None:
    plan = _state["plan"]
    process = _state["process"]
    cpu = ProcCpu(process.pid)
    address = _state["address"]
    failures: List[str] = []

    def post(feed: str, kind: str, records: List[dict]) -> Tuple[int, bytes]:
        path = "/ingest/dps" if kind == "dps" else f"/ingest/attacks?feed={feed}"
        return _request(address, "POST", path, json.dumps(records).encode())

    # Preload: bulk ingest until everything acknowledged is applied.
    started = time.perf_counter()
    for feed, kind, records in plan["preload"]:
        status, body = post(feed, kind, records)
        result.attempted += 1
        if status != 202:
            result.failed += 1
            failures.append(f"preload POST answered {status}: {body[:120]!r}")
    _settle(address)
    preload_s = time.perf_counter() - started
    preload_records = sum(len(records) for _, _, records in plan["preload"])

    latencies: Dict[str, List[float]] = {label: [] for label, _, _ in ENDPOINTS}
    answers = []
    round_walls: List[float] = []
    round_cpus: List[float] = []
    client_cpus: List[float] = []
    mix = plan["mix"]
    for index in range(plan["rounds"]):
        server_cpu = cpu.seconds()
        client_cpu = time.process_time()
        round_start = time.perf_counter()
        for cycle in range(index * CYCLES, (index + 1) * CYCLES):
            feed, kind, records = mix[cycle]
            sent = time.perf_counter()
            status, body = post(feed, kind, records)
            latencies["ingest"].append(time.perf_counter() - sent)
            result.attempted += 1
            if status != 202:
                result.failed += 1
                failures.append(f"mix POST answered {status}: {body[:120]!r}")
            for label, path, query in plan["reads"][cycle]:
                sent = time.perf_counter()
                status, body = _request(address, "GET", path)
                latencies[label].append(time.perf_counter() - sent)
                result.attempted += 1
                if status != 200:
                    result.failed += 1
                answers.append((cycle, label, query, status, body))
        round_walls.append(time.perf_counter() - round_start)
        # The gated figure is the server's CPU alone; the client's, which
        # is the benchmark's own work, is kept in the notes.
        round_cpus.append(cpu.seconds() - server_cpu)
        client_cpus.append(time.process_time() - client_cpu)

    # Untimed: settle, read the server's own figures, check every answer.
    _settle(address)
    status, body = _request(address, "GET", "/summary")
    full = StoreModel()
    for part in (plan["preload"], mix[: plan["rounds"] * CYCLES]):
        for _, kind, records in part:
            full.apply(kind, records)
    failures += check_counts(json.loads(body), full)
    status, body = _request(address, "GET", "/metrics")
    server_means = _server_means(body.decode())
    rss = peak_rss_mb(process.pid)
    _stop_server()
    if process.returncode != 0:
        failures.append(f"server exited with {process.returncode} on SIGTERM")
    failures += _check_answers(plan, answers)
    result.check(failures[:20])

    ms = {label: [1e3 * value for value in values] for label, values in latencies.items()}
    acks = ms["ingest"]
    reads = [value for label in READS for value in ms[label]]
    result.put("e2e.ingest_rps", preload_records / preload_s, "1/s")
    result.put("e2e.ack_p50_ms", percentile(acks, 50), "ms")
    result.put("e2e.query_rps", len(reads) / (sum(reads) / 1e3), "1/s")
    result.put("e2e.query_p50_ms", percentile(reads, 50), "ms")
    result.notes.update({
        "rounds": plan["rounds"],
        "cycles_per_round": CYCLES,
        "preload_records": preload_records,
        "preload_s": preload_s,
        "acks": len(acks),
        "ack_p99_ms": percentile(acks, 99),
        "reads": len(reads),
        "round_wall_s": round_walls,
        "round_cpu_s": round_cpus,
        "round_client_cpu_s": client_cpus,
        "server_means_ms": server_means,
    })
    for label, _, _ in ENDPOINTS:
        result.put(f"http.{label}_p50_ms", percentile(ms[label], 50), "ms")
    for label, path in SERVER_PATHS:
        result.put(f"serve.http.{label}_server_ms", server_means.get(path, 0.0), "ms")
    result.put("wall_s", median(round_walls), "s")
    if not trace:
        result.put("cpu_s", median(round_cpus), "s")
        result.put("peak_rss_mb", rss, "MB")


def _check_answers(plan, answers) -> List[str]:
    model = plan["model"]
    low = plan["preload_counts"]
    high = plan["high"]
    failures: List[str] = []
    for cycle, label, query, status, body in answers:
        if status not in (200, 404):
            failures.append(f"{label} answered {status}")
            continue
        answer = json.loads(body)
        if query[0] == "summary":
            # cycle + 1 mix batches were acknowledged before this read.
            failures += check_counts_between(answer, low, high[cycle + 1])
            continue
        want = _expected(model, query)
        if query[0] == "domain" and want is None:
            failures += check_equal(f"{label} status", status, 404)
            continue
        got = {key: answer.get(key) for key in want} if isinstance(want, dict) else answer
        failures += check_equal(f"cycle {cycle} {label}", got, want)
    return failures

