"""simulate-default: what ``python -m repro report --preset default`` does.

One round is ``run_simulation(ScenarioConfig.default().with_seed(seed))``
followed by ``generate_full_report``, timed as one unit from scenario to
rendered report. Every round of a run uses the run's seed, so the rounds
repeat identical work and the run reports their median.
"""

from __future__ import annotations

from typing import Dict, List

from checks import check_ground_truth, check_report, check_shards, check_table1
from common import Result, Stopwatch, median, peak_rss_mb, result_path, round_plan, rounds_for
from tracer import ResultLen, RssPeak, Target, Tracer

NAME = "simulate-default"
#: Seconds per round measured on a 2-vCPU host (medians of 13.5 and
#: 15.6 s in two sets of runs); sets rounds per run only.
NOMINAL_ROUND_S = 14.5

SIM = "repro.pipeline.simulation"
TARGETS = [
    Target(SIM, "build_internet", "internet.build"),
    Target(SIM, "schedule_attacks", "attacks.schedule"),
    Target(SIM, "run_migration", "dps.migrate"),
    Target(
        SIM,
        "telescope_capture",
        "telescope.capture",
        {"telescope.capture_batches": ResultLen(), "telescope.capture_peak_mb": RssPeak()},
    ),
    Target(SIM, "detect_telescope_shard", "telescope.detect"),
    Target(SIM, "merge_telescope_shards", "telescope.detect", {"telescope.events": ResultLen()}),
    Target(
        SIM,
        "honeypot_capture",
        "honeypot.capture",
        {"honeypot.capture_batches": ResultLen(), "honeypot.capture_peak_mb": RssPeak()},
    ),
    Target(SIM, "detect_honeypot_shard", "honeypot.detect"),
    Target(SIM, "merge_honeypot_shards", "honeypot.detect", {"honeypot.events": ResultLen()}),
    Target("repro.dns.openintel", "OpenIntelPlatform.measure", "dns.measure"),
    Target("repro.dps.detection", "DPSDetector.scan", "dps.scan"),
    Target(SIM, "fuse_observations", "core.fuse"),
    Target("repro.pipeline.fullreport", "generate_full_report", "core.report"),
]
#: Per-layer metrics: self seconds per round of each span, then counts.
TIMED_LAYERS = [
    "internet.build",
    "attacks.schedule",
    "dps.migrate",
    "telescope.capture",
    "telescope.detect",
    "honeypot.capture",
    "honeypot.detect",
    "dns.measure",
    "dps.scan",
    "core.fuse",
    "core.report",
]
COUNTED = [
    ("telescope.capture_batches", "count"),
    ("telescope.events", "count"),
    ("honeypot.capture_batches", "count"),
    ("honeypot.events", "count"),
    ("telescope.capture_peak_mb", "MB"),
    ("honeypot.capture_peak_mb", "MB"),
]
PER_LAYER = [(f"{name}_s", "s") for name in TIMED_LAYERS] + COUNTED


def setup(seed: int, seconds: int) -> float:
    """Import the pipeline: the cold set-up a report run pays.

    Returns the seconds spent generating input, none here: the scenario
    is generated inside each timed round.
    """
    global simulation, fullreport, ScenarioConfig
    from repro.pipeline import fullreport, simulation
    from repro.pipeline.config import ScenarioConfig

    return 0.0


def teardown() -> None:
    pass


class ShardCheck:
    """Re-runs each single-shard detection as 2 victim shards and compares.

    Installed for one round only; the extra detection time is measured
    and taken off that round's wall and CPU time. A feed whose detection
    it could not wrap or never saw run fails the run.
    """

    FEEDS = (
        ("telescope", "detect_telescope_shard", "merge_telescope_shards"),
        ("honeypot", "detect_honeypot_shard", "merge_honeypot_shards"),
    )

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.checked: List[str] = []
        self.wall = 0.0
        self.cpu = 0.0
        self._saved = []

    def install(self) -> None:
        for feed, detect_name, merge_name in self.FEEDS:
            detect = getattr(simulation, detect_name, None)
            merge = getattr(simulation, merge_name, None)
            if detect is None or merge is None:
                continue
            self._saved.append((detect_name, detect))
            setattr(simulation, detect_name, self._wrap(feed, detect, merge))

    def uninstall(self) -> None:
        for name, original in self._saved:
            setattr(simulation, name, original)
        self._saved.clear()

    def _wrap(self, feed, detect, merge):
        def checked(config, capture, shard_index, n_shards, *args, **kwargs):
            result = detect(config, capture, shard_index, n_shards, *args, **kwargs)
            if n_shards == 1:
                with Stopwatch() as watch:
                    parts = [detect(config, capture, i, 2, *args, **kwargs) for i in range(2)]
                    self.failures += check_shards(feed, merge([result]), merge(parts))
                self.wall += watch.wall
                self.cpu += watch.cpu
                self.checked.append(feed)
            return result

        return checked


def one_round(seed: int, shard_check: ShardCheck = None):
    config = ScenarioConfig.default().with_seed(seed)
    if shard_check is not None:
        shard_check.install()
    try:
        with Stopwatch() as watch:
            result = simulation.run_simulation(config)
            report = fullreport.generate_full_report(result)
    finally:
        if shard_check is not None:
            shard_check.uninstall()
    wall, cpu = watch.wall, watch.cpu
    if shard_check is not None:
        wall -= shard_check.wall
        cpu -= shard_check.cpu
    return wall, cpu, result, report


def run(seed: int, seconds: int, trace: bool, result: Result) -> None:
    plan = round_plan(rounds_for(seconds, NOMINAL_ROUND_S), trace)
    checked = len(plan) - 1 - plan[::-1].index(False)
    walls: List[float] = []
    cpus: List[float] = []
    traced_walls: List[float] = []
    tracer = Tracer() if trace else None
    shard_check = ShardCheck()
    for index, traced in enumerate(plan):
        result.attempted += 1
        if traced:
            tracer.install(TARGETS)
            try:
                with tracer.span("bench.round"):
                    traced_wall, _, _, _ = one_round(seed)
            finally:
                tracer.uninstall()
            traced_walls.append(traced_wall)
            continue
        final = index == checked
        wall, cpu, sim_result, report = one_round(seed, shard_check if final else None)
        walls.append(wall)
        cpus.append(cpu)
        if final:
            rss = peak_rss_mb()
            check_outputs(sim_result, report, result)
            result.check(shard_check.failures)
            missing = [feed for feed, _, _ in ShardCheck.FEEDS if feed not in shard_check.checked]
            if missing:
                result.check([f"2-shard detection check did not run for: {', '.join(missing)}"])
            result.notes["shard_checked_feeds"] = shard_check.checked
        # Nothing of a round outlives it, so a traced round's capture
        # starts from released memory and its RSS growth is its own.
        del sim_result, report
    result.notes.update({"rounds": len(plan), "round_wall_s": walls, "round_cpu_s": cpus})
    result.put("wall_s", median(walls), "s")
    if trace:
        report_layers(tracer, len(traced_walls), walls, traced_walls, result)
    else:
        result.put("cpu_s", median(cpus), "s")
        result.put("peak_rss_mb", rss, "MB")


def check_outputs(sim_result, report, result: Result) -> None:
    config = sim_result.config
    result.check(
        check_ground_truth(
            sim_result.telescope_events,
            sim_result.honeypot_events,
            sim_result.ground_truth,
            config.rsdos_config().flow_timeout,
            config.honeypot_detection_config().gap_timeout,
        )
    )
    result.check(
        check_table1(
            sim_result.telescope_events,
            sim_result.honeypot_events,
            sim_result.fused.summary_rows(),
        )
    )
    result.check(check_report(report, fullreport.REPORT_ORDER))
    result.notes.update(
        {
            "ground_truth_attacks": len(sim_result.ground_truth),
            "telescope_events": len(sim_result.telescope_events),
            "honeypot_events": len(sim_result.honeypot_events),
        }
    )


def report_layers(tracer: Tracer, rounds: int, walls, traced_walls, result: Result) -> None:
    times: Dict[str, Dict[str, float]] = tracer.self_times()
    for name in TIMED_LAYERS:
        result.put(f"{name}_s", times.get(name, {}).get("self_s", 0.0) / rounds, "s")
    for name, unit in COUNTED:
        result.put(name, tracer.totals.get(name, 0.0) / rounds, unit)
    result.put("bench.untraced_s", times["bench.round"]["self_s"] / rounds, "s")
    result.put("trace.overhead_pct", 100.0 * (median(traced_walls) / median(walls) - 1.0), "%")
    result.notes["absent_layers"] = tracer.absent
    result.notes["traced_round_wall_s"] = traced_walls
    tracer.dump(str(result_path(result, "spans.json.gz")))
