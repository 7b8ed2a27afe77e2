"""End-to-end benchmark: the paper-report pipeline and the live serve tier.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload simulate-default --seed 1 --seconds 30 --trace 0

Workloads: ``simulate-default`` (scenario to rendered report),
``serve-ingest`` (in-process ingest, hard stop, recovery) and
``serve-http`` (``python -m repro serve`` under one closed-loop client).
With ``--trace 0`` the last line of output is a JSON object with every
end-to-end metric; with ``--trace 1`` it has every per-layer metric,
measured on traced rounds interleaved with untraced ones. A readable
table comes first, and the full result goes to ``e2ebench/out/``. The
exit code is 1 when an output check fails, 2 when the program under test
cannot be found. See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, Result, since_process_start  # noqa: E402

#: Gated end-to-end metrics every workload reports (the --trace 0 line).
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def _workloads():
    import wl_http
    import wl_ingest
    import wl_simulate

    return {module.NAME: module for module in (wl_simulate, wl_ingest, wl_http)}


def per_layer_names(workloads) -> list:
    """Every per-layer metric of every workload, in a fixed order."""
    names = []
    for module in workloads.values():
        for name, unit in module.PER_LAYER:
            if (name, unit) not in names:
                names.append((name, unit))
    names += [("bench.untraced_s", "s"), ("trace.overhead_pct", "%")]
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r} (workloads: {', '.join(sorted(workloads))})", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    result = Result(args.workload, args.seed, bool(args.trace))

    try:
        generated_s = workload.setup(args.seed, args.seconds)
        # Cold set-up: process start to the program being ready, less the
        # time the benchmark spent generating its own input.
        result.put("setup_s", since_process_start() - generated_s, "s")
        workload.run(args.seed, args.seconds, bool(args.trace), result)
    finally:
        # Stops the server and removes data dirs even when set-up failed.
        workload.teardown()

    if args.trace:
        wanted = [name for name, _ in per_layer_names(workloads)]
        for name, unit in per_layer_names(workloads):
            if name not in result.metrics:
                result.put(name, 0.0, unit)
    else:
        wanted = [name for name, _ in END_TO_END]
    return result.emit(wanted)


if __name__ == "__main__":
    sys.exit(main())
