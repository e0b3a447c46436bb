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
* ``dalorex fleet stats`` -- queue depth, active leases, attempts and
  per-worker completion counts of a running broker.
* ``dalorex fleet metrics`` / ``dalorex fleet top`` -- the broker's
  fleet-wide telemetry aggregate (Prometheus text by default) and a
  refreshing dashboard (``--watch SECS``) with autoscaling signals and
  ring-buffer sparklines, built on the v3 ``metrics`` op.  The broker can
  additionally serve the same aggregate over HTTP (``--http-port``:
  ``/metrics``, ``/healthz``, ``/readyz``, ``/stats.json``).
* ``dalorex trace FILE...`` -- aggregate one or more telemetry JSONL
  streams (``DALOREX_TELEMETRY_JSONL``, ``broker --telemetry-jsonl``) into
  per-span count / total / p50 / p99, and -- when records carry trace ids
  -- group spans per trace with a cross-process critical path (see
  ``docs/OBSERVABILITY.md``).

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
    parser.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="tenant queue to submit under on a multi-tenant broker "
             "(--backend distributed only; default: the shared queue)",
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
            tenant=getattr(args, "tenant", None),
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
    parser.add_argument("--tenant-quota", type=_positive_int, default=None,
                        metavar="N",
                        help="admission control: reject a submit that would "
                             "leave one tenant with more than N incomplete "
                             "specs (default: unlimited)")
    parser.add_argument("--max-message-bytes", type=_parse_size,
                        default=MAX_FRAME_BYTES, metavar="SIZE",
                        help="cap on one protocol frame; oversized lines are "
                             "rejected with a typed error (default: 64M; "
                             "large payloads stream via chunked fetch)")
    parser.add_argument("--http-port", type=int, default=None, metavar="PORT",
                        help="also serve the observability gateway over HTTP "
                             "on this port (0 = ephemeral): /metrics "
                             "(fleet-wide Prometheus text), /healthz, "
                             "/readyz, /stats.json; binds the same --host")
    parser.add_argument("--sample-interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="period of the gauge sampler feeding the "
                             "time-series ring behind 'fleet top' sparklines "
                             "and the backlog-ETA signal (default: 2)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="serve without the metrics registry; the "
                             "'metrics' op then answers with an empty "
                             "snapshot (telemetry is on by default for the "
                             "broker service -- it observes the queue, never "
                             "the simulations)")
    parser.add_argument("--telemetry-jsonl", default=None, metavar="PATH",
                        help="append span/event records (lease lifecycle, "
                             "per-op timings) as JSON lines to PATH; read "
                             "back with 'dalorex trace PATH'")
    args = parser.parse_args(argv)

    # The broker service runs with telemetry on unless told otherwise: its
    # registry observes queue/protocol activity only, so the simulation
    # results it brokers are byte-identical either way, and `fleet top` /
    # the `metrics` op always have live counters to show.
    import repro.telemetry as telemetry_mod

    if args.no_telemetry:
        if args.telemetry_jsonl:
            parser.error("--telemetry-jsonl conflicts with --no-telemetry")
        registry = telemetry_mod.NULL
    else:
        registry = telemetry_mod.configure(enabled=True, jsonl=args.telemetry_jsonl)

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    broker = Broker(
        cache=cache,
        lease_timeout=args.lease_timeout,
        max_attempts=args.max_attempts,
        verify_ingest=args.verify_ingest,
        state_path=args.state_file,
        tenant_quota=args.tenant_quota,
        telemetry=registry,
    )
    server = BrokerServer(
        broker,
        host=args.host,
        port=args.port,
        max_message_bytes=args.max_message_bytes,
        http_port=args.http_port,
        sample_interval=args.sample_interval,
    )
    print(f"broker listening on {format_address(server.address)}", flush=True)
    if server.http_address is not None:
        print(f"gateway listening on {format_address(server.http_address)}",
              flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        registry.close()  # flush the JSONL sink before the process exits
    status = broker.status()
    print(f"broker exiting: {status['completed']} completed, "
          f"{status['failed']} failed, {status['pending']} still pending")
    return 0


def _format_duration(seconds: float) -> str:
    """Compact uptime: ``42s``, ``3m42s``, ``2h05m``."""
    seconds = max(0, int(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


def _format_seconds(value: object) -> str:
    """One latency value with an auto-scaled unit (``850us``, ``1.2ms``)."""
    if not isinstance(value, (int, float)):
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _fleet_stats_text(response: dict) -> str:
    """Render one ``stats`` op response for humans (stats and top share it)."""
    lines = [
        f"uptime:         {_format_duration(response.get('uptime_seconds', 0))}",
        f"queue depth:    {response.get('queue_depth', 0)}",
        f"completed:      {response.get('completed', 0)}",
        f"failed:         {response.get('failed', 0)}",
    ]
    tenants = response.get("tenants", {})
    if tenants:
        lines.append(f"tenants:        {len(tenants)}")
        for tenant in sorted(tenants):
            ledger = tenants[tenant]
            lines.append(f"  {tenant}: queued={ledger.get('queued', 0)} "
                         f"leased={ledger.get('leased', 0)}")
    leases = response.get("active_leases", [])
    lines.append(f"active leases:  {len(leases)}")
    for lease in leases:
        lines.append(f"  {lease['key'][:12]}  worker={lease['worker']}  "
                     f"attempt={lease['attempt']}")
    per_worker = response.get("per_worker", {})
    lines.append(f"workers:        {len(per_worker)}")
    for worker, ledger in per_worker.items():
        line = (f"  {worker}: completed={ledger.get('completed', 0)} "
                f"leases={ledger.get('leases', 0)} "
                f"rejected={ledger.get('rejected', 0)} "
                f"released={ledger.get('released', 0)}")
        reported = ledger.get("reported")
        if reported:
            line += (f" | reports: uploads={reported.get('uploads', 0)} "
                     f"errors={reported.get('errors', 0)} "
                     f"leaked_heartbeats={reported.get('leaked_heartbeats', 0)}")
        lines.append(line)
    codes = response.get("codes", {})
    if codes:
        lines.append("protocol codes: " + " ".join(
            f"{code}={codes[code]}" for code in sorted(codes)))
    return "\n".join(lines)


#: Eight block glyphs of the unicode sparkline, shortest to tallest.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: The structured no-telemetry hint that `fleet metrics` and `fleet top`
#: print instead of a raw error when the broker runs --no-telemetry.
_NO_TELEMETRY_HINT = (
    "broker telemetry disabled: it was started with --no-telemetry, so "
    "there is no fleet aggregate to show; restart it without the flag "
    "to collect metrics"
)


def _sparkline(values: list, width: int = 32, unicode_blocks: bool = True) -> str:
    """Render the tail of a numeric series, latest sample rightmost.

    On a terminal this is a block-glyph sparkline with a ``[min..max]``
    legend; the non-TTY fallback is a plain-number summary so piped or
    logged frames stay clean ASCII.
    """
    tail = [float(v) for v in values if isinstance(v, (int, float))][-width:]
    if not tail:
        return "(no samples yet)"
    lo, hi = min(tail), max(tail)
    if not unicode_blocks:
        return f"last={tail[-1]:g} min={lo:g} max={hi:g} n={len(tail)}"
    if hi <= lo:
        bar = _SPARK_BLOCKS[0] * len(tail)
    else:
        top = len(_SPARK_BLOCKS) - 1
        bar = "".join(
            _SPARK_BLOCKS[round((value - lo) / (hi - lo) * top)]
            for value in tail
        )
    return f"{bar} [{lo:g}..{hi:g}] now={tail[-1]:g}"


def _fleet_signals_text(stats: dict) -> List[str]:
    """The autoscaling-signal lines of a ``fleet top`` frame."""
    signals = stats.get("signals")
    if not isinstance(signals, dict):
        return []
    saturation = signals.get("saturation")
    rate = signals.get("completion_rate")
    eta = signals.get("backlog_eta_seconds")
    parts = [
        (f"saturation={saturation:.2f}"
         if isinstance(saturation, (int, float)) else "saturation=-"),
        f"capacity={signals.get('reported_capacity', 0)}",
        (f"rate={rate:.2f}/s" if isinstance(rate, (int, float)) else "rate=-"),
        (f"backlog_eta={_format_duration(eta)}"
         if isinstance(eta, (int, float)) else "backlog_eta=-"),
    ]
    return ["signals:        " + " ".join(parts)]


def _fleet_series_text(stats: dict, unicode_blocks: bool) -> List[str]:
    """Sparkline lines from the broker's sampled time-series ring."""
    series = stats.get("series")
    if not isinstance(series, list) or not series:
        return []
    lines = ["history:"]
    for field, title in (
        ("queue_depth", "queue depth"),
        ("active_leases", "leases"),
        ("completed", "completed"),
    ):
        values = [sample.get(field) for sample in series
                  if isinstance(sample, dict)]
        lines.append(f"  {title:12s} "
                     f"{_sparkline(values, unicode_blocks=unicode_blocks)}")
    return lines


def _fleet_top_text(stats: dict, metrics: dict, unicode_blocks: bool = True) -> str:
    """The ``fleet top`` frame: stats view, autoscaling signals, sampled
    sparklines, plus broker op latencies from the fleet aggregate."""
    lines = [_fleet_stats_text(stats)]
    lines.extend(_fleet_signals_text(stats))
    lines.extend(_fleet_series_text(stats, unicode_blocks))
    if not metrics.get("telemetry_enabled"):
        lines.append(f"op latency:     ({_NO_TELEMETRY_HINT})")
        return "\n".join(lines)
    op_seconds = metrics.get("metrics", {}).get("histograms", {}).get(
        "broker.op.seconds", {})
    lines.append("op latency:")
    for label in sorted(op_seconds):
        hist = op_seconds[label]
        op = label.partition("op=")[2] or "?"
        lines.append(f"  {op:12s} n={hist.get('count', 0):<7d}"
                     f" p50={_format_seconds(hist.get('p50')):>8s}"
                     f" p99={_format_seconds(hist.get('p99')):>8s}"
                     f" max={_format_seconds(hist.get('max')):>8s}")
    if not op_seconds:
        lines.append("  (no requests observed yet)")
    return "\n".join(lines)


def fleet_command(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``dalorex fleet``: inspect a running broker's fleet.

    * ``stats`` asks for queue depth, active leases (with per-spec attempt
      counts), per-tenant depths and per-worker ledgers.
    * ``metrics`` fetches the broker's telemetry snapshot via the v3
      ``metrics`` op -- Prometheus text exposition by default, the raw
      snapshot with ``--json``.
    * ``top`` renders both as a refreshing plain-text dashboard.
    """
    import time

    from repro.runtime.distributed import (
        BrokerError,
        ProtocolError,
        parse_address,
        request,
    )

    parser = argparse.ArgumentParser(
        prog="dalorex fleet",
        description="Inspect a running dalorex broker's fleet state.",
    )
    subparsers = parser.add_subparsers(dest="action", required=True)
    stats = subparsers.add_parser(
        "stats", help="queue depth, active leases, attempts, per-worker counts"
    )
    metrics = subparsers.add_parser(
        "metrics", help="telemetry snapshot (Prometheus text by default)"
    )
    top = subparsers.add_parser(
        "top", help="refreshing fleet dashboard (stats + broker op latency)"
    )
    for sub in (stats, metrics, top):
        sub.add_argument("--connect", required=True, metavar="HOST:PORT",
                         help="broker address")
    stats.add_argument("--json", action="store_true", help="print the raw JSON")
    metrics.add_argument("--prom", action="store_true",
                         help="Prometheus text exposition (the default)")
    metrics.add_argument("--json", action="store_true",
                         help="print the raw snapshot JSON instead")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="refresh period (default: 2)")
    top.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                     help="live-dashboard mode: redraw every SECONDS "
                          "(overrides --interval)")
    top.add_argument("--iterations", type=_positive_int, default=None, metavar="N",
                     help="render N frames then exit (default: until Ctrl-C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")
    args = parser.parse_args(argv)
    if args.action == "metrics" and args.prom and args.json:
        parser.error("--prom and --json are mutually exclusive")

    address = parse_address(args.connect)
    try:
        if args.action == "stats":
            response = request(address, {"op": "stats"})
            response.pop("ok", None)
            response.pop("protocol", None)
            if args.json:
                print(json.dumps(response, indent=2, sort_keys=True))
            else:
                print(_fleet_stats_text(response))
            return 0

        if args.action == "metrics":
            try:
                response = request(address, {"op": "metrics"})
            except BrokerError as exc:
                # A pre-observability broker rejects the op outright; give
                # the operator a structured pointer, not a raw wire error.
                print(f"broker at {args.connect} does not serve the "
                      f"'metrics' op ({exc}); upgrade it or use "
                      f"'dalorex fleet stats'", file=sys.stderr)
                return 2
            if args.json:
                response.pop("ok", None)
                response.pop("protocol", None)
                print(json.dumps(response, indent=2, sort_keys=True))
            else:
                sys.stdout.write(response.get("text", ""))
                if not response.get("telemetry_enabled"):
                    print(f"# {_NO_TELEMETRY_HINT}", file=sys.stderr)
            return 0

        # top: loop until interrupted (or for --iterations frames).
        interval = args.interval if args.watch is None else max(0.1, args.watch)
        is_tty = sys.stdout.isatty()
        frames = 0
        while True:
            stats_response = request(address, {"op": "stats"})
            try:
                metrics_response = request(address, {"op": "metrics"})
            except BrokerError:
                # A pre-v3-observability broker: degrade to the stats view.
                metrics_response = {"telemetry_enabled": False}
            if not args.no_clear and is_tty:
                print("\x1b[2J\x1b[H", end="")
            print(
                _fleet_top_text(
                    stats_response, metrics_response, unicode_blocks=is_tty
                ),
                flush=True,
            )
            frames += 1
            if args.iterations is not None and frames >= args.iterations:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, ProtocolError) as exc:
        # ProtocolError also covers BrokerError: an old (pre-stats) broker
        # answers ok=false for the unknown op, and a non-dalorex endpoint
        # fails framing -- both deserve a clean message, not a traceback.
        print(f"cannot read fleet {args.action} from {args.connect}: {exc}",
              file=sys.stderr)
        return 2


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

    One file behaves exactly as before (per-span aggregate table).  With
    several files -- one per fleet process, e.g. the broker's stream plus
    each worker's ``DALOREX_TELEMETRY_JSONL`` -- records are merged, and
    spans carrying trace ids are additionally grouped per trace with a
    cross-process critical path, which is how a single submitted spec's
    journey through client, broker and worker reads as one story.
    """
    from repro.telemetry.trace import (
        aggregate_spans,
        format_trace_report,
        format_trace_summary,
        group_traces,
        load_many,
    )

    parser = argparse.ArgumentParser(
        prog="dalorex trace",
        description="Aggregate the span records of one or more telemetry "
        "JSONL streams (DALOREX_TELEMETRY_JSONL, broker --telemetry-jsonl) "
        "into per-span count / total / p50 / p99 / max, grouping "
        "trace-linked spans across processes.",
    )
    parser.add_argument("files", metavar="FILE", nargs="+",
                        help="telemetry JSONL file(s); pass the broker's and "
                             "every worker's stream to link a fleet run")
    parser.add_argument("--json", action="store_true",
                        help="print the aggregates as JSON")
    args = parser.parse_args(argv)

    missing = [path for path in args.files if not Path(path).is_file()]
    if missing:
        for path in missing:
            print(f"trace file {path!r} does not exist", file=sys.stderr)
        return 2
    records = load_many(args.files)
    aggregates = aggregate_spans(records)
    grouped = group_traces(records)
    if args.json:
        if len(args.files) == 1:
            # Single-file shape is frozen (scripts parse it): the flat
            # per-span aggregate dict, exactly as previous releases.
            print(json.dumps(aggregates, indent=2, sort_keys=True))
        else:
            from repro.telemetry.trace import summarize_trace

            print(json.dumps(
                {
                    "spans": aggregates,
                    "traces": {
                        trace_id: summarize_trace(spans)
                        for trace_id, spans in grouped.items()
                    },
                },
                indent=2, sort_keys=True,
            ))
    else:
        sys.stdout.write(format_trace_report(aggregates))
        if grouped:
            sys.stdout.write("\n")
            sys.stdout.write(format_trace_summary(grouped))
    return 0


#: Subcommands of the unified ``dalorex`` entry point.
SUBCOMMANDS = {
    "run": run_command,
    "experiments": experiments_command,
    "verify": verify_command,
    "cache": cache_command,
    "broker": broker_command,
    "worker": worker_command,
    "fleet": fleet_command,
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
        print("usage: dalorex {run,experiments,verify,cache,broker,worker,fleet,trace} ...\n"
              "       dalorex --app ... (alias for 'dalorex run')")
        return 0
    return run_command(argv)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - alias
    return dalorex_command(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(dalorex_command())
