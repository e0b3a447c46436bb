"""Command-line interface for running Dalorex simulations and experiments.

``python -m repro.cli`` (the ``dalorex`` command) dispatches subcommands:

* ``dalorex run`` -- run one application on one dataset with a chosen
  configuration and print the result summary (optionally as JSON).
* ``dalorex experiments`` -- regenerate the paper's figures (wraps the
  runners in :mod:`repro.experiments`).
* ``dalorex verify`` -- differential conformance: run a workload on both
  engines, check the equality/bounds oracles against the reference executor,
  and replay shrunk fuzzer failures via ``--spec FILE``.
* ``dalorex cache stats`` / ``dalorex cache prune`` -- inspect and bound the
  content-addressed result cache (``prune --policy fifo|lru``, size caps via
  ``--max-size``, per-dataset entry quotas via ``--per-dataset N``).
* ``dalorex broker`` / ``dalorex worker`` -- the distributed execution
  backend: a broker queues specs costliest-first and verifies uploaded
  results; pull-based workers on any number of hosts execute them, each
  holding up to ``--capacity N`` concurrent leases (see
  ``docs/DISTRIBUTED.md``).
* ``dalorex trace FILE...`` -- aggregate the span records of one or more
  telemetry JSONL files (each written by a process run with
  ``DALOREX_TELEMETRY_JSONL=FILE``) into per-span count / total / p50 /
  p99 / max (see ``docs/OBSERVABILITY.md``).

``run`` and ``verify`` additionally accept the NoC-simulation knobs
(``--network analytical|simulated``, ``--routing``, ``--queue-depth``,
``--noc mesh3d|torus3d`` with ``--grid-depth``); see ``docs/NOC.md``.

``run`` and ``experiments`` route their simulations through
:mod:`repro.runtime` and share the execution flags:

* ``--jobs N`` fans independent simulations out over N worker processes;
* ``--backend auto|inline|process|distributed`` picks the execution
  backend explicitly; ``distributed`` ships specs to the broker named by
  ``--connect HOST:PORT``;
* ``--cache-dir PATH`` replays previously computed runs from a
  content-addressed on-disk cache (one JSON blob per run, keyed by the
  SHA-256 of the run's spec) and stores new ones;
* ``--no-cache`` disables the cache even when ``--cache-dir`` is given.

Results are bit-identical whatever the backend/jobs/cache settings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.apps import KERNELS
from repro.baselines.ladder import LADDER_ORDER, dalorex_config, ladder_configs
from repro.core.config import NETWORK_KINDS, NOC_KINDS, ROUTING_KINDS
from repro.errors import ConfigurationError
from repro.graph.datasets import list_datasets
from repro.runtime import (
    BACKEND_CHOICES,
    ExperimentRunner,
    ResultCache,
    RunSpec,
    resolve_backend,
)
from repro.runtime.cache import PRUNE_POLICIES


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--jobs`` / ``--cache-dir`` / ``--no-cache`` flags."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for independent simulations (default: 1, serial; "
             "only batches of two or more points fan out, so a single "
             "dalorex-run executes in-process regardless)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="reuse/store simulation results in this content-addressed cache",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the result cache even if --cache-dir is set",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="execution backend for cache misses (default: auto = inline for "
             "--jobs 1, a local process pool otherwise; 'distributed' ships "
             "specs to the broker named by --connect)",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="broker address for --backend distributed",
    )


def runner_from_args(args: argparse.Namespace) -> ExperimentRunner:
    """Build the shared experiment runner the parsed flags describe."""
    cache = None
    if args.cache_dir and not args.no_cache:
        cache = ResultCache(args.cache_dir)
    try:
        backend = resolve_backend(
            getattr(args, "backend", None),
            jobs=args.jobs,
            connect=getattr(args, "connect", None),
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    return ExperimentRunner(jobs=args.jobs, cache=cache, backend=backend)


def add_workload_arguments(
    parser: argparse.ArgumentParser,
    width_default: int = 16,
    scale_default: float = 1.0,
) -> None:
    """Install the workload flags shared by ``run`` and ``verify``.

    The single definition keeps the two subcommands replay-compatible: any
    workload knob added here is automatically available to both.
    """
    parser.add_argument("--app", choices=sorted(KERNELS), default="bfs", help="application kernel")
    parser.add_argument(
        "--dataset", default="rmat16",
        help=f"dataset stand-in (one of {', '.join(list_datasets())})",
    )
    parser.add_argument("--width", type=int, default=width_default, help="grid width in tiles")
    parser.add_argument("--height", type=int, default=None, help="grid height (default: square)")
    parser.add_argument("--noc", default=None, choices=list(NOC_KINDS))
    parser.add_argument(
        "--grid-depth", type=int, default=None, metavar="LAYERS",
        help="silicon layers of the grid (requires a 3D NoC kind; default: 1)",
    )
    parser.add_argument("--scale", type=float, default=scale_default, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=7, help="dataset generator seed")
    parser.add_argument(
        "--network", default=None, choices=list(NETWORK_KINDS),
        help="message timing model for the cycle engine: 'analytical' "
             "(zero-contention link serialization, the default) or "
             "'simulated' (flit-level queues and credit backpressure)",
    )
    parser.add_argument(
        "--routing", default=None, choices=list(ROUTING_KINDS),
        help="routing policy of the simulated network (default: "
             "dimension_ordered)",
    )
    parser.add_argument(
        "--queue-depth", type=_positive_int, default=None, metavar="FLITS",
        help="router input-queue capacity of the simulated network "
             "(default: 4)",
    )


def resolve_workload_shape(args: argparse.Namespace):
    """Interpret the shared workload flags: ``(width, height, config overrides)``.

    Owns the square-by-default grid rule and the optional NoC/network
    overrides, so ``run`` and ``verify`` cannot drift on how the same flags
    are read.
    """
    height = args.height if args.height is not None else args.width
    overrides = {"noc": args.noc} if args.noc else {}
    for flag, field in (
        ("grid_depth", "depth"),
        ("network", "network"),
        ("routing", "routing"),
        ("queue_depth", "queue_depth"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    return args.width, height, overrides


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    add_workload_arguments(parser)
    parser.add_argument(
        "--config", default="Dalorex", choices=LADDER_ORDER,
        help="configuration rung from the Fig. 5 ladder",
    )
    parser.add_argument("--engine", default=None, choices=["cycle", "analytic"])
    parser.add_argument("--no-verify", action="store_true", help="skip reference validation")
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    add_runtime_arguments(parser)


def run_command(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``dalorex-run``."""
    parser = argparse.ArgumentParser(
        prog="dalorex-run", description="Run one application on a Dalorex machine."
    )
    _add_run_arguments(parser)
    args = parser.parse_args(argv)

    width, height, overrides = resolve_workload_shape(args)
    if args.config == "Dalorex":
        config = dalorex_config(width, height)
    else:
        config = ladder_configs(width, height)[args.config]
    if args.engine:
        overrides["engine"] = args.engine
    elif config.num_tiles > 1024:
        overrides["engine"] = "analytic"
    if overrides:
        try:
            config = config.with_overrides(**overrides)
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}")

    spec = RunSpec(
        app=args.app,
        dataset=args.dataset,
        config=config,
        scale=args.scale,
        seed=args.seed,
        verify=not args.no_verify,
    )
    with runner_from_args(args) as runner:
        result = runner.run(spec)

    summary = result.to_dict()
    summary["energy_breakdown"] = result.energy.grouped_fractions()
    summary["chip_area_mm2"] = result.chip_area_mm2
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
    else:
        print(
            f"{args.app} on {args.dataset} "
            f"({result.num_vertices} V, {result.num_edges} E)"
        )
        print(f"configuration: {config.describe()}")
        for key, value in summary.items():
            print(f"  {key:24s} {value}")
    return 0 if (args.no_verify or result.verified) else 1


def experiments_command(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``dalorex-experiments``."""
    from repro.experiments import (
        contention,
        depth3d,
        fig5,
        fig6,
        fig7,
        fig8,
        fig9,
        fig10,
        textstats,
    )

    runners = {
        "fig5": lambda scale, runner: fig5.report(fig5.run_fig5(scale=scale, runner=runner)),
        "fig6": lambda scale, runner: fig6.report(fig6.run_fig6(scale=scale, runner=runner)),
        "fig7": lambda scale, runner: fig7.report(fig7.run_fig7(scale=scale, runner=runner)),
        "fig8": lambda scale, runner: fig8.report(fig8.run_fig8(scale=scale, runner=runner)),
        "fig9": lambda scale, runner: fig9.report(fig9.run_fig9(scale=scale, runner=runner)),
        "fig10": lambda scale, runner: fig10.report(fig10.run_fig10(scale=scale, runner=runner)),
        "textstats": lambda scale, runner: textstats.report(
            textstats.run_textstats(scale=scale, runner=runner)
        ),
        "contention": lambda scale, runner: contention.report(
            contention.run_contention(scale=scale, runner=runner)
        ),
        "depth3d": lambda scale, runner: depth3d.report(
            depth3d.run_depth3d(scale=scale, runner=runner)
        ),
    }
    parser = argparse.ArgumentParser(
        prog="dalorex-experiments", description="Regenerate the paper's evaluation figures."
    )
    parser.add_argument("figures", nargs="*", default=[],
                        help=f"figures to regenerate (default: all of {', '.join(runners)})")
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("--output", default=None, help="also write the report to this file")
    add_runtime_arguments(parser)
    args = parser.parse_args(argv)

    unknown = [name for name in args.figures if name not in runners]
    if unknown:
        parser.error(f"unknown figures {unknown}; choose from {sorted(runners)}")
    figures = args.figures or list(runners)
    with runner_from_args(args) as shared_runner:
        sections = [runners[name](args.scale, shared_runner) for name in figures]
    report = "\n\n".join(sections)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


def verify_command(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``dalorex verify``: differential conformance runs.

    Either replays one or more JSON repro files (``--spec``, typically shrunk
    failures emitted by the conformance fuzzer) or builds a spec from the
    usual run flags and checks it on the spot.
    """
    from repro.core.config import MachineConfig
    from repro.verify.harness import load_repro_spec, run_conformance

    parser = argparse.ArgumentParser(
        prog="dalorex verify",
        description="Run differential conformance checks (cycle vs analytic vs "
        "reference executor) on one workload.",
    )
    parser.add_argument(
        "--spec", action="append", default=[], metavar="FILE",
        help="replay a JSON repro spec (repeatable); overrides the inline flags",
    )
    # Smaller default shape/scale than `run`: a conformance check simulates
    # the workload twice (both engines) plus the reference executor.
    add_workload_arguments(parser, width_default=4, scale_default=0.1)
    parser.add_argument("--barrier", action="store_true",
                        help="run with per-epoch global barriers")
    parser.add_argument("--detailed-trace", action="store_true",
                        help="record the per-epoch invariant trace in the report")
    parser.add_argument("--json", action="store_true", help="print reports as JSON")
    args = parser.parse_args(argv)

    if args.spec:
        specs = [load_repro_spec(path) for path in args.spec]
    else:
        width, height, overrides = resolve_workload_shape(args)
        try:
            config = MachineConfig(
                width=width, height=height, barrier=args.barrier, **overrides
            ).validate()
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}")
        specs = [
            RunSpec(app=args.app, dataset=args.dataset, config=config,
                    scale=args.scale, seed=args.seed)
        ]

    reports = [run_conformance(spec, detailed_trace=args.detailed_trace) for spec in specs]
    if args.json:
        print(json.dumps([report.to_dict() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.describe())
    return 0 if all(report.ok for report in reports) else 1


def _parse_size(text: str) -> int:
    """Parse a byte size with an optional K/M/G suffix (binary multiples)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    raw = text.strip().lower().removesuffix("b")
    multiplier = 1
    if raw and raw[-1] in units:
        multiplier = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be non-negative, got {text!r}")
    return value


def cache_command(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``dalorex cache``: result-cache inspection and pruning."""
    parser = argparse.ArgumentParser(
        prog="dalorex cache", description="Manage the content-addressed result cache."
    )
    subparsers = parser.add_subparsers(dest="action", required=True)
    stats = subparsers.add_parser("stats", help="summarize cache size and age")
    prune = subparsers.add_parser(
        "prune", help="evict entries until the cache fits --max-size and/or "
                      "--per-dataset quotas"
    )
    for sub in (stats, prune):
        sub.add_argument("--cache-dir", required=True, metavar="PATH")
        sub.add_argument("--json", action="store_true", help="print the summary as JSON")
    prune.add_argument(
        "--max-size", type=_parse_size, default=None, metavar="SIZE",
        help="target cache size in bytes (K/M/G suffixes accepted, e.g. 512M)",
    )
    prune.add_argument(
        "--per-dataset", type=int, default=None, metavar="N",
        help="keep at most N entries per dataset (applied before --max-size, "
             "using the same --policy ordering)",
    )
    prune.add_argument(
        "--policy", choices=PRUNE_POLICIES, default="fifo",
        help="eviction order: fifo = oldest store time first (default); "
             "lru = least recently loaded first (loads bump access time)",
    )
    prune.add_argument(
        "--dry-run", action="store_true", help="report evictions without deleting"
    )
    args = parser.parse_args(argv)

    # Unlike the runners (which create the cache they are about to fill),
    # inspection must not conjure an empty cache out of a mistyped path.
    if not Path(args.cache_dir).is_dir():
        print(f"cache directory {args.cache_dir!r} does not exist", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        summary = cache.stats()
        if args.json:
            print(json.dumps(summary, indent=2))
        else:
            print(f"cache {summary['root']}: {summary['entries']} entries, "
                  f"{summary['total_bytes']} bytes")
        return 0
    if args.max_size is None and args.per_dataset is None:
        parser.error("prune needs --max-size and/or --per-dataset")
    evicted = []
    if args.per_dataset is not None:
        evicted.extend(
            cache.prune_per_dataset(
                args.per_dataset, dry_run=args.dry_run, policy=args.policy
            )
        )
    if args.max_size is not None:
        evicted.extend(
            cache.prune(args.max_size, dry_run=args.dry_run, policy=args.policy)
        )
    summary = cache.stats()
    summary["evicted"] = evicted
    summary["dry_run"] = args.dry_run
    summary["policy"] = args.policy
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        verb = "would evict" if args.dry_run else "evicted"
        print(f"cache {summary['root']}: {verb} {len(evicted)} entries; "
              f"now {summary['entries']} entries, {summary['total_bytes']} bytes")
    return 0


def broker_command(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``dalorex broker``: serve the distributed spec queue."""
    from repro.runtime.distributed import (
        DEFAULT_PORT,
        MAX_FRAME_BYTES,
        Broker,
        BrokerServer,
        format_address,
    )

    parser = argparse.ArgumentParser(
        prog="dalorex broker",
        description="Queue RunSpecs costliest-first for pull-based workers, "
        "with leases, crash requeue and verified result ingest.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (default: {DEFAULT_PORT}; 0 = ephemeral)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="shared result cache; accepted uploads are stored "
                             "here and survive broker restarts")
    parser.add_argument("--state-file", default=None, metavar="PATH",
                        help="journal pending work here so a restarted broker "
                             "resumes the queue")
    parser.add_argument("--lease-timeout", type=float, default=60.0, metavar="SECONDS",
                        help="requeue a spec when its worker stops heartbeating "
                             "for this long (default: 60)")
    parser.add_argument("--max-attempts", type=int, default=5, metavar="N",
                        help="leases per spec before giving up on it (default: 5)")
    parser.add_argument("--verify-ingest", action="store_true",
                        help="re-check every uploaded result against the "
                             "conformance reference executor (bounds + output "
                             "oracles), not just its content digest")
    parser.add_argument("--max-message-bytes", type=_parse_size,
                        default=MAX_FRAME_BYTES, metavar="SIZE",
                        help="cap on one protocol frame; oversized lines are "
                             "rejected with a typed error (default: 64M; "
                             "large payloads stream via chunked fetch)")
    args = parser.parse_args(argv)

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    broker = Broker(
        cache=cache,
        lease_timeout=args.lease_timeout,
        max_attempts=args.max_attempts,
        verify_ingest=args.verify_ingest,
        state_path=args.state_file,
    )
    server = BrokerServer(
        broker,
        host=args.host,
        port=args.port,
        max_message_bytes=args.max_message_bytes,
    )
    print(f"broker listening on {format_address(server.address)}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    status = broker.status()
    print(f"broker exiting: {status['completed']} completed, "
          f"{status['failed']} failed, {status['pending']} still pending")
    return 0


def worker_command(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``dalorex worker``: pull and execute specs from a broker."""
    from repro.runtime.distributed import Worker, parse_address

    parser = argparse.ArgumentParser(
        prog="dalorex worker",
        description="Execute RunSpecs leased from a dalorex broker.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="broker address")
    parser.add_argument("--worker-id", default=None,
                        help="stable identity in leases/logs (default: host-pid)")
    parser.add_argument("--poll-interval", type=float, default=0.5, metavar="SECONDS",
                        help="sleep between polls of an empty queue (default: 0.5)")
    parser.add_argument("--max-runs", type=int, default=None, metavar="N",
                        help="exit after N accepted results (default: unbounded)")
    parser.add_argument("--patience", type=float, default=30.0, metavar="SECONDS",
                        help="exit after this long without reaching the broker "
                             "(default: 30)")
    parser.add_argument("--capacity", type=_positive_int, default=1, metavar="N",
                        help="lease and execute up to N specs concurrently "
                             "(default: 1)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    worker = Worker(
        parse_address(args.connect),
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        max_runs=args.max_runs,
        connect_patience=args.patience,
        capacity=args.capacity,
        log=None if args.quiet else lambda line: print(line, flush=True),
    )
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    stats = worker.stats()
    print(f"worker {worker.worker_id} exiting: {stats['completed']} completed, "
          f"{stats['rejected']} rejected, {stats['errors']} errors "
          f"({stats['leases']} leases, {stats['uploads']} uploads, "
          f"{stats['leaked_heartbeats']} leaked heartbeats)", flush=True)
    return 0


def trace_command(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``dalorex trace``: aggregate telemetry JSONL files.

    The records of every file are merged into one per-span table (or, with
    ``--json``, one flat per-span dict).
    """
    from repro.telemetry.trace import aggregate_spans, format_trace_report, load_many

    parser = argparse.ArgumentParser(
        prog="dalorex trace",
        description="Aggregate the span records of one or more telemetry "
        "JSONL streams (DALOREX_TELEMETRY_JSONL) into per-span count / "
        "total / p50 / p99 / max.",
    )
    parser.add_argument("files", metavar="FILE", nargs="+",
                        help="telemetry JSONL file(s), e.g. one per worker")
    parser.add_argument("--json", action="store_true",
                        help="print the aggregates as JSON")
    args = parser.parse_args(argv)

    missing = [path for path in args.files if not Path(path).is_file()]
    if missing:
        for path in missing:
            print(f"trace file {path!r} does not exist", file=sys.stderr)
        return 2
    aggregates = aggregate_spans(load_many(args.files))
    if args.json:
        print(json.dumps(aggregates, indent=2, sort_keys=True))
    else:
        sys.stdout.write(format_trace_report(aggregates))
    return 0


#: Subcommands of the unified ``dalorex`` entry point.
SUBCOMMANDS = {
    "run": run_command,
    "experiments": experiments_command,
    "verify": verify_command,
    "cache": cache_command,
    "broker": broker_command,
    "worker": worker_command,
    "trace": trace_command,
}


def dalorex_command(argv: Optional[List[str]] = None) -> int:
    """Unified ``dalorex`` entry point dispatching to the subcommands.

    For backwards compatibility, invocations that start with an option
    (``dalorex --app bfs ...``) are treated as ``dalorex run ...``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    if argv and not argv[0].startswith("-"):
        print(f"unknown subcommand {argv[0]!r}; choose from {sorted(SUBCOMMANDS)}",
              file=sys.stderr)
        return 2
    if argv in ([], ["-h"], ["--help"]):
        print("usage: dalorex {run,experiments,verify,cache,broker,worker,trace} ...\n"
              "       dalorex --app ... (alias for 'dalorex run')")
        return 0
    return run_command(argv)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - alias
    return dalorex_command(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(dalorex_command())
