"""Command line interface: regenerate the paper's tables and figures.

Examples
--------
Run the quick grid and print Table XI / XII::

    ua-gpnm table-xi
    ua-gpnm table-xii

Regenerate Figure 6 (DBLP) on the quick grid::

    ua-gpnm figure --dataset DBLP

Run everything (slow) and verify each method against the oracle::

    ua-gpnm all --preset full --verify

The adaptive batch execution planner routes each update batch to
per-update, coalesced or partitioned-coalesced SLen maintenance —
``--batch-plan auto`` is the default; force a single strategy with e.g.::

    ua-gpnm table-xi --batch-plan per-update

Run the quick grid on the dense NumPy SLen backend (or ``auto``, which
picks dense above a node-count threshold)::

    ua-gpnm table-xi --slen-backend dense

Serve a dataset as a streaming update service (JSON lines over TCP;
see :mod:`repro.service.server` for the wire protocol), durably — every
accepted delta is journaled before its receipt returns and recovered on
the next start::

    ua-gpnm serve --dataset email-EU-core --port 8765 --deadline 0.05 \
        --journal-dir ./journals
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING, Optional

from repro.experiments.config import ExperimentConfig, full_config, quick_config, tiny_config
from repro.experiments.report import (
    render_figure,
    render_table_xi,
    render_table_xii,
    render_table_xiii,
    render_table_xiv,
)
from repro.experiments.runner import run_experiment
from repro.workloads.datasets import dataset_names

if TYPE_CHECKING:
    from repro.service import ServiceConfig


def _config_for(preset: str) -> ExperimentConfig:
    presets = {"tiny": tiny_config, "quick": quick_config, "full": full_config}
    try:
        return presets[preset]()
    except KeyError:
        raise SystemExit(f"unknown preset {preset!r}; expected one of {sorted(presets)}")


def _add_common_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Register the shared options on ``parser``.

    The options are accepted both before and after the subcommand.  On
    the subparsers the defaults are suppressed so a value parsed before
    the subcommand (by the main parser) is not clobbered by a subparser
    default afterwards.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--preset",
        default=default("quick"),
        choices=("tiny", "quick", "full"),
        help="experiment grid preset (default: quick)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        default=default(False),
        help="cross-check every method's result against the from-scratch oracle",
    )
    parser.add_argument(
        "--batch-plan",
        default=default(None),
        choices=("auto", "per-update", "coalesced", "partitioned"),
        help=(
            "update-batch execution strategy: auto (the default; "
            "cost-model routing per batch, see the epilog), or a forced "
            "per-update / coalesced / partitioned strategy"
        ),
    )
    parser.add_argument(
        "--coalesce-min-batch",
        type=int,
        default=default(None),
        metavar="N",
        help=(
            "batch size below which the auto plan stays on per-update "
            "maintenance (default 64, where the benchmark shows the "
            "coalesced path stops losing); forced strategies ignore it"
        ),
    )
    parser.add_argument(
        "--slen-backend",
        default=default("sparse"),
        choices=("sparse", "dense", "auto"),
        help=(
            "SLen storage backend: sparse dict-of-dicts, dense blocked "
            "int32 NumPy grid with vectorized kernels, or auto (dense "
            "above a node-count threshold); default: sparse"
        ),
    )


#: ``--help`` epilog: how the execution planner selects a strategy.
_EPILOG = """\
batch plan strategy selection (--batch-plan):
  Every update batch is routed by the execution planner to one of three
  SLen maintenance strategies:

    auto         THE DEFAULT: pick per batch via the planner's cost
                 model (see below)
    per-update   one incremental maintenance pass per data update;
                 always fastest for small or insert-dominated batches
    coalesced    compile the batch to its net effect, then maintain SLen
                 in one pass: all deletions share one affected-region
                 settle per source (or per target, transposed), all
                 insertions one relaxation sweep; wins 1.5-2.5x on
                 deletion-bearing batches above the crossover (~64)
    partitioned  coalesced maintenance whose deletion settle recomputes
                 row-heavy sources through the label partition
                 (Section V); requires a partition (UA-GPNM), pays off
                 on large deletion volumes

  'auto' (the default since the planner soaked behind the differential
  and strategy-equivalence gates) picks per batch via a small cost
  model hand-calibrated from BENCH_batching.json and
  BENCH_slen_backend.json: batches under --coalesce-min-batch
  or dominated by insertions stay per-update (insert coalescing is a
  structural non-win); deletion-bearing batches above the crossover go
  coalesced, and partitioned when a partition is available and the
  deletion volume amortises the quotient condensation.  The model
  carries a backend feature column, so the same calibration prices
  sparse and (blocked) dense maintenance differently.  The chosen
  strategy is recorded per run (PlanReport).

SLen backend selection (--slen-backend):
  sparse keeps only finite entries in dicts (pure-Python kernels);
  dense stores a blocked int32 grid with vectorized kernels — 512-wide
  blocks are allocated lazily and all-INF blocks are elided, so memory
  scales with occupied blocks and the dense backend stays usable past
  10^4 nodes.  auto picks dense at or above 256 nodes.  See the
  README's "choosing a backend" guide and BENCH_slen_backend.json.

multi-pattern subscription serving (serve --patterns):
  One served graph can hold many standing patterns.  Each settle runs
  the shared, pattern-independent maintenance (graph application, SLen
  update, affected-region computation) exactly once, then fans the
  delta out to every subscription: patterns provably untouched by the
  batch are skipped, touched ones pay one amendment pass.  --patterns
  FILE subscribes the pattern set in FILE at startup:

    [{"pattern_id": "fraud",
      "pattern": {"kind": "pattern_graph",
                  "nodes": [{"id": "p0", "label": "A"},
                            {"id": "p1", "label": "B"}],
                  "edges": [["p0", "p1", 2]]},
      "k": 3},
     ...]

  ("bound" is an integer or "*"; "k" arms a standing top-k ranking for
  the push channel).  Without --patterns a single pattern is generated
  (--pattern-nodes/--pattern-edges) and subscribed as "default".
  Clients manage further patterns over the wire ({"op": "subscribe",
  ...} / {"op": "unsubscribe", ...}) and receive per-pattern
  {"kind": "notify", ...} deltas after each settle; reads address one
  pattern with "pattern_id" (omitted: "default").  Subscriptions are
  journaled with --journal-dir and recovered on restart; --no-push
  disables the push channel; --max-subscriptions caps the registry.

record & replay (replay):
  Any write-ahead journal (from serve --journal-dir or a live
  start_capture) is a deterministic recording: every accepted delta in
  admission order, every settle boundary (checkpoint), every
  subscribe/unsubscribe.  `ua-gpnm replay` re-runs a [--from-seq,
  --to-seq] window of it through a fresh service:

    ua-gpnm replay --journal-dir ./journals --verify

  replays the window faithfully (the recorded settle boundaries are
  reproduced exactly) under the default configuration as the
  reference, then re-replays it across the dense SLen backend, all
  three forced batch plans and re-admission, differentially comparing
  per-settle matches / top-k / SLen probes, the final graph and
  lifetime stamps, and as_of reads at every checkpointed version —
  exit 1 on any mismatch.  Give --slen-backend / --batch-plan /
  --mode readmit / --patterns FILE to verify one specific candidate
  configuration instead of the sweep, or drop --verify to just re-run
  and print the outcome.  A journal that predates its first compaction
  has no snapshot base; pass --dataset to supply the graph the
  recorded run started from.  See docs/ARCHITECTURE.md ("Record &
  replay") for the determinism contract.
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ua-gpnm",
        description="Reproduce the UA-GPNM evaluation tables and figures.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common_options(parser, suppress=False)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in ("table-xi", "table-xii", "table-xiii", "table-xiv", "all"):
        sub = subparsers.add_parser(name, help=f"print {name.replace('-', ' ')}")
        _add_common_options(sub, suppress=True)
    figure = subparsers.add_parser("figure", help="print one of Figures 5-9")
    _add_common_options(figure, suppress=True)
    figure.add_argument(
        "--dataset",
        default="email-EU-core",
        choices=dataset_names(),
        help="dataset / figure to regenerate",
    )
    serve = subparsers.add_parser(
        "serve",
        help="run the streaming update service (JSON lines over TCP)",
    )
    _add_common_options(serve, suppress=True)
    serve.add_argument(
        "--dataset",
        default="email-EU-core",
        choices=dataset_names(),
        help="dataset to register as the served graph",
    )
    serve.add_argument(
        "--pattern-nodes", type=int, default=6, metavar="N",
        help="generated pattern size: nodes (default 6)",
    )
    serve.add_argument(
        "--pattern-edges", type=int, default=6, metavar="N",
        help="generated pattern size: edges (default 6)",
    )
    serve.add_argument(
        "--patterns", default=None, metavar="FILE",
        help=(
            "subscribe the standing patterns in this JSON file instead "
            "of generating one: a list (or {'patterns': [...]}) of "
            "{'pattern_id', 'pattern': <pattern-graph doc>, 'k': "
            "optional} entries; see the epilog for the doc shape"
        ),
    )
    serve.add_argument(
        "--max-subscriptions", type=int, default=None, metavar="N",
        help="cap on standing patterns per graph (default 64)",
    )
    serve.add_argument(
        "--no-push", action="store_true",
        help=(
            "disable per-pattern push notifications; subscriptions "
            "still settle and serve reads (clients poll)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 picks an ephemeral port; default 8765)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "max time an accepted delta may sit buffered before the "
            "batch is cut regardless of the planner (default 0.05)"
        ),
    )
    serve.add_argument(
        "--max-buffer", type=int, default=None, metavar="N",
        help="cut the buffered batch unconditionally at this size (default 1024)",
    )
    serve.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help=(
            "write-ahead journal directory: every accepted delta is "
            "fsynced here before its receipt is returned, and on startup "
            "any journal found for the graph is recovered (the "
            "uncheckpointed tail is replayed); omit to run without "
            "durability"
        ),
    )
    serve.add_argument(
        "--snapshot-history", type=int, default=None, metavar="N",
        help=(
            "settled snapshot versions retained per graph for "
            "time-travel reads (the 'as_of' request field); older "
            "versions answer with an 'expired' error (default 8)"
        ),
    )
    serve.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help=(
            "refuse updates with an 'overloaded' + retry_after response "
            "once the graph's backlog reaches this size (default 4096)"
        ),
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="close connections that send nothing for this long (default: never)",
    )
    replay_cmd = subparsers.add_parser(
        "replay",
        help="re-run a recorded journal window, optionally differentially verified",
    )
    _add_common_options(replay_cmd, suppress=True)
    replay_cmd.add_argument(
        "--journal-dir", required=True, metavar="DIR",
        help="directory holding the *.journal.jsonl recording(s)",
    )
    replay_cmd.add_argument(
        "--graph", default=None, metavar="KEY",
        help=(
            "which graph's journal to replay (key or file slug); "
            "defaults to the only journal in --journal-dir"
        ),
    )
    replay_cmd.add_argument(
        "--from-seq", type=int, default=None, metavar="SEQ",
        help="first journal seq of the window (default: right after the snapshot base)",
    )
    replay_cmd.add_argument(
        "--to-seq", type=int, default=None, metavar="SEQ",
        help="last journal seq of the window (default: the journal's last seq)",
    )
    replay_cmd.add_argument(
        "--mode", default="faithful", choices=("faithful", "readmit"),
        help=(
            "faithful reproduces the recorded settle boundaries exactly; "
            "readmit pushes the deltas through the replayed "
            "configuration's own admission (final state only)"
        ),
    )
    replay_cmd.add_argument(
        "--patterns", default=None, metavar="FILE",
        help=(
            "replay under this pattern set (same file shape as serve "
            "--patterns) instead of the registry recorded at the window "
            "start"
        ),
    )
    replay_cmd.add_argument(
        "--dataset", default=None, choices=dataset_names(),
        help=(
            "base graph for a journal recorded before its first "
            "compaction (no snapshot record to start from)"
        ),
    )
    replay_cmd.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the replay/verification report here as JSON",
    )
    return parser


def _service_config(args: argparse.Namespace, config: ExperimentConfig) -> ServiceConfig:
    """The ``serve`` flags as a :class:`~repro.service.ServiceConfig`.

    Unset flags keep the ``ServiceConfig`` defaults; the plan, crossover
    and backend come from the global options in ``config``.
    """
    from repro.batching.planner import STRATEGY_AUTO
    from repro.service import ServiceConfig

    flags = {
        "deadline_seconds": args.deadline,
        "max_buffer": args.max_buffer,
        "journal_dir": args.journal_dir,
        "snapshot_history": args.snapshot_history,
        "max_subscriptions": args.max_subscriptions,
    }
    return ServiceConfig(
        coalesce_min_batch=config.coalesce_min_batch,
        batch_plan=config.batch_plan or STRATEGY_AUTO,
        slen_backend=config.slen_backend,
        push_notifications=not args.no_push,
        **{name: value for name, value in flags.items() if value is not None},
    )


def _run_serve(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """The ``serve`` subcommand: register the dataset and serve forever.

    SIGINT and SIGTERM trigger a graceful shutdown: the listener stops
    accepting, open connections are closed, every buffered delta drains
    (settles or is durably quarantined) and the process exits 0.  With
    ``--journal-dir``, a journal left by a previous (possibly killed)
    process is recovered before the server starts answering.
    """
    import asyncio
    import json
    import signal

    from repro.service import (
        DEFAULT_PATTERN_ID,
        ServiceServer,
        StreamingUpdateService,
        parse_pattern_set,
    )
    from repro.workloads.datasets import load_dataset
    from repro.workloads.pattern_gen import pattern_for_dataset

    service_config = _service_config(args, config)
    data = load_dataset(args.dataset, scale=config.dataset_scale)
    if args.patterns is not None:
        with open(args.patterns, encoding="utf-8") as handle:
            subscriptions = parse_pattern_set(json.load(handle))
    else:
        pattern = pattern_for_dataset(
            sorted(data.labels()), args.pattern_nodes, args.pattern_edges, seed=config.seed
        )
        from repro.service import Subscription

        subscriptions = [Subscription(DEFAULT_PATTERN_ID, pattern)]

    async def _serve() -> None:
        service = StreamingUpdateService(service_config)
        await service.register(args.dataset, data)
        for subscription in subscriptions:
            # replace=True keeps a journal-recovered subscription with
            # the same definition instead of erroring on the duplicate.
            await service.subscribe(
                args.dataset,
                subscription.pattern_id,
                subscription.pattern,
                k=subscription.k,
                replace=True,
            )
        server_kwargs = {}
        if args.max_pending is not None:
            server_kwargs["max_pending"] = args.max_pending
        if args.idle_timeout is not None:
            server_kwargs["idle_timeout"] = args.idle_timeout
        server = ServiceServer(service, host=args.host, port=args.port, **server_kwargs)
        host, port = await server.start()
        print(
            f"[serve] {len(service.subscription_docs(args.dataset))} "
            "standing pattern(s) subscribed",
            file=sys.stderr,
        )
        print(
            f"[serve] graph {args.dataset!r} "
            f"({data.number_of_nodes} nodes, {data.number_of_edges} edges) "
            f"on {host}:{port}",
            file=sys.stderr,
        )
        if service_config.journal_dir:
            stats = service.stats(args.dataset)
            journal = stats.get("journal") or {}
            print(
                f"[serve] journal {journal.get('path')} "
                f"(recovered {stats.get('recovered', 0)} delta(s), "
                f"skipped {stats.get('recovery_skipped', 0)})",
                file=sys.stderr,
            )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loop
                pass
        serve_task = asyncio.create_task(server.serve_forever())
        stop_task = asyncio.create_task(stop.wait())
        try:
            done, _ = await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if serve_task in done:
                serve_task.result()
        finally:
            print("[serve] shutting down: draining buffered deltas", file=sys.stderr)
            serve_task.cancel()
            stop_task.cancel()
            for task in (serve_task, stop_task):
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.remove_signal_handler(signum)
                except NotImplementedError:  # pragma: no cover
                    pass
            await server.close()
            await service.close()
            print("[serve] shutdown complete", file=sys.stderr)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        print("[serve] shutting down", file=sys.stderr)
    return 0


def _run_replay(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """The ``replay`` subcommand: re-run (and verify) a recorded window.

    Without ``--verify`` the window is replayed once under the
    requested configuration and the run summary is printed.  With
    ``--verify`` the window is first replayed faithfully under the
    default configuration (the reference) and then re-replayed under
    the candidate configuration(s) — the flags given, or the standard
    sweep (dense backend, the three forced batch plans, re-admission)
    when none are — with every observation differentially compared.
    Exits 1 on any mismatch.
    """
    import asyncio
    import json
    from pathlib import Path

    from repro.replay import ReplayLog, ReplayVerifier, replay
    from repro.service import parse_pattern_set
    from repro.service.journal import journal_slug

    directory = Path(args.journal_dir)
    journals = ReplayLog.discover(directory)
    if not journals:
        raise SystemExit(f"no *.journal.jsonl recordings under {directory}")
    if args.graph is not None:
        slug = args.graph if args.graph in journals else journal_slug(args.graph)
        if slug not in journals:
            raise SystemExit(
                f"no journal for graph {args.graph!r} under {directory}; "
                f"recorded: {', '.join(sorted(journals))}"
            )
    elif len(journals) == 1:
        (slug,) = journals
    else:
        raise SystemExit(
            f"{len(journals)} journals under {directory}; pick one with "
            f"--graph ({', '.join(sorted(journals))})"
        )
    base_graph = None
    if args.dataset is not None:
        from repro.workloads.datasets import load_dataset

        base_graph = load_dataset(args.dataset, scale=config.dataset_scale)
    log = ReplayLog(journals[slug])
    window = log.window(args.from_seq, args.to_seq, base_graph=base_graph)
    described = window.describe()
    print(
        f"[replay] {slug}: seqs [{window.from_seq}, {window.to_seq}] — "
        f"{window.delta_count} delta(s), {window.update_count} update(s), "
        f"{len(window.settle_groups())} settle group(s), "
        f"{len(window.subscriptions)} starting subscription(s)",
        file=sys.stderr,
    )

    overrides: dict = {"mode": args.mode}
    if getattr(args, "slen_backend", "sparse") != "sparse":
        overrides["slen_backend"] = args.slen_backend
    if getattr(args, "batch_plan", None) is not None:
        overrides["batch_plan"] = args.batch_plan
    if args.patterns is not None:
        with open(args.patterns, encoding="utf-8") as handle:
            overrides["subscriptions"] = parse_pattern_set(json.load(handle))

    def _write_report(report_doc: dict) -> None:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(report_doc, handle, indent=2, default=str)
            print(f"[replay] report written to {args.out}", file=sys.stderr)

    if not args.verify:
        run = asyncio.run(replay(window, key=slug, **overrides))
        print(
            f"[replay] {run.mode}: {run.settle_count} settle(s), "
            f"{run.updates_accepted} update(s) accepted "
            f"({run.updates_rejected} rejected) in {run.wall_seconds:.3f}s "
            f"→ final version {run.final.version}, "
            f"{len(run.final.nodes)} node(s), {len(run.final.edges)} edge(s)"
        )
        _write_report({"window": described, "run": run.as_dict()})
        return 0

    explicit = {key: value for key, value in overrides.items() if key != "mode"}
    if explicit or args.mode != "faithful":
        candidates = [dict(overrides)]
    else:
        candidates = [
            {"slen_backend": "dense"},
            {"batch_plan": "per-update"},
            {"batch_plan": "coalesced"},
            {"batch_plan": "partitioned"},
            {"mode": "readmit"},
        ]

    async def _verify() -> tuple[int, dict]:
        verifier = ReplayVerifier()
        reference = await replay(window, key=slug)
        outcomes = []
        failures = 0
        for candidate_overrides in candidates:
            run = await replay(window, key=slug, **candidate_overrides)
            report = verifier.compare(reference, run)
            label = ", ".join(
                f"{key}={value}" for key, value in sorted(candidate_overrides.items())
            ) or "defaults"
            status = "OK" if report.ok else f"{len(report.mismatches)} mismatch(es)"
            print(f"[replay] verify {label}: {status}")
            if not report.ok:
                failures += 1
                print(report.summary(), file=sys.stderr)
            outcomes.append(
                {
                    "overrides": run.overrides,
                    "report": report.as_dict(),
                    "wall_seconds": run.wall_seconds,
                }
            )
        return failures, {
            "window": described,
            "reference": reference.overrides,
            "candidates": outcomes,
        }

    failures, report_doc = asyncio.run(_verify())
    _write_report(report_doc)
    if failures:
        print(f"[replay] FAILED: {failures} candidate(s) diverged", file=sys.stderr)
        return 1
    print(f"[replay] all {len(candidates)} candidate(s) equivalent", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``ua-gpnm`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_for(args.preset)
    if getattr(args, "batch_plan", None) is not None:
        config = dataclasses.replace(config, batch_plan=args.batch_plan)
    if getattr(args, "coalesce_min_batch", None) is not None:
        config = dataclasses.replace(config, coalesce_min_batch=args.coalesce_min_batch)
    if args.slen_backend != "sparse":
        config = dataclasses.replace(config, slen_backend=args.slen_backend)

    if args.command == "serve":
        return _run_serve(args, config)
    if args.command == "replay":
        return _run_replay(args, config)

    def progress(message: str) -> None:
        print(f"[run] {message}", file=sys.stderr)

    records = run_experiment(config, verify_against_oracle=args.verify, progress=progress)
    if args.verify:
        mismatches = [record for record in records if record.matches_oracle is False]
        if mismatches:
            print(f"WARNING: {len(mismatches)} method results differ from the oracle", file=sys.stderr)
        else:
            print("verification: every method matches the from-scratch oracle", file=sys.stderr)

    if args.command == "table-xi":
        print(render_table_xi(records))
    elif args.command == "table-xii":
        print(render_table_xii(records))
    elif args.command == "table-xiii":
        print(render_table_xiii(records))
    elif args.command == "table-xiv":
        print(render_table_xiv(records))
    elif args.command == "figure":
        print(render_figure(records, args.dataset))
    elif args.command == "all":
        print(render_table_xi(records))
        print()
        print(render_table_xii(records))
        print()
        print(render_table_xiii(records))
        print()
        print(render_table_xiv(records))
        for dataset in config.datasets:
            print()
            print(render_figure(records, dataset))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
