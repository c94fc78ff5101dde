"""Command-line interface: regenerate any paper table or figure.

Examples::

    repro-scalability table1
    repro-scalability table3 --nodes 2 4 8
    repro-scalability fig2 --samples 5
    repro-scalability all --quick
    repro profile gaussian --nodes 4 --out /tmp/prof
    repro table3 --nodes 2 4 --trace-out study-trace.json
    repro history --app ge --limit 10
    repro faults run --smoke
    repro faults run --app ge --slowdown 0.5 --trace-out faulted.json
    repro faults sweep --app ge --severities 0 0.2 0.4 0.6
    repro sweep profile --app ge --jobs 2 --sizes 120 160 200 240
    repro version

(``repro`` and ``repro-scalability`` are the same program; ``python -m
repro`` works too.)  Every command is a leaf of the one argparse tree
:func:`build_parser` builds; the options several commands share are
defined once, in :data:`OPTIONS`, and may also be given before the
command name.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Sequence

from .experiments import figures, tables
from .experiments.report import format_series, format_table
from .experiments.runner import (APP_ALIASES, APPLICATIONS, RunRecord,
                                 collect_traces, ledger_recording,
                                 resolve_app, run_app)
from .obs.streaming import warn

#: Node counts used by --quick (skips the expensive 16/32-node searches).
QUICK_NODE_COUNTS = (2, 4, 8)


def _print(text: str) -> None:
    print(text)
    print()


def cmd_table1(args: argparse.Namespace) -> None:
    """Table 1: marked speed of the Sunwulf node types."""
    rows = tables.table1_marked_speeds()
    _print(
        format_table(
            ["node type", "marked speed (Mflops)"],
            [(m.name, m.mflops) for m in rows],
            title="Table 1: marked speed of Sunwulf nodes",
        )
    )


def cmd_table2(args: argparse.Namespace) -> None:
    """Table 2: GE on two nodes."""
    rows = tables.table2_ge_two_nodes(network_kind=args.network)
    _print(
        format_table(
            ["rank N", "workload W (flops)", "time T (s)",
             "achieved speed (Mflops)", "speed-efficiency"],
            [
                (m.problem_size, m.work, m.time, m.speed_mflops,
                 m.speed_efficiency)
                for m in rows
            ],
            title="Table 2: GE on two nodes",
        )
    )


def _node_counts(args: argparse.Namespace) -> tuple[int, ...]:
    if getattr(args, "nodes", None):
        return tuple(args.nodes)
    if getattr(args, "quick", False):
        return QUICK_NODE_COUNTS
    return tables.PAPER_NODE_COUNTS


def cmd_table3(args: argparse.Namespace) -> list[tables.RequiredRankRow]:
    """Table 3: required GE rank for 0.3 speed-efficiency."""
    rows = tables.table3_required_rank(
        node_counts=_node_counts(args), network_kind=args.network
    )
    _print(
        format_table(
            ["nodes", "processes", "rank N", "workload W",
             "marked speed (Mflops)", "measured E_S"],
            [
                (r.nodes, r.nranks, r.rank_n, r.workload, r.marked_mflops,
                 r.efficiency)
                for r in rows
            ],
            title="Table 3: required rank for 0.3 speed-efficiency (GE)",
        )
    )
    return rows


def _print_psi(rows, score, header: str, title: str) -> None:
    """A ``transition | psi`` table of the points ``score(rows)`` gives.

    One node count has no transition to score, so its rank rows stand
    alone and no ψ table is printed.
    """
    if len(rows) < 2:
        return
    _print(
        format_table(
            ["transition", header],
            [(f"{p.label_from} -> {p.label_to}", p.psi)
             for p in score(rows)],
            title=title,
        )
    )


def cmd_table4(args: argparse.Namespace) -> None:
    """Table 4: measured scalability of GE (prints Table 3 first)."""
    _print_psi(cmd_table3(args),
               lambda r: tables.table4_ge_scalability(r).points,
               "psi", "Table 4: measured scalability of GE on Sunwulf")


def cmd_table5(args: argparse.Namespace) -> None:
    """Table 5: measured scalability of MM (prints its rank rows first)."""
    rows = tables.table5_mm_required_rank(
        node_counts=_node_counts(args), network_kind=args.network
    )
    _print(
        format_table(
            ["nodes", "processes", "rank N", "marked speed (Mflops)",
             "measured E_S"],
            [
                (r.nodes, r.nranks, r.rank_n, r.marked_mflops, r.efficiency)
                for r in rows
            ],
            title="Table 5 (inputs): required rank for 0.2 speed-efficiency "
                  "(MM)",
        )
    )
    _print_psi(rows, lambda r: tables.table5_mm_scalability(r).points,
               "psi", "Table 5: measured scalability of MM on Sunwulf")


def cmd_table6(args: argparse.Namespace) -> list[tables.PredictedRankRow]:
    """Table 6: predicted required GE rank."""
    rows = tables.table6_predicted_rank(
        node_counts=_node_counts(args), network_kind=args.network
    )
    _print(
        format_table(
            ["nodes", "processes", "predicted rank N"],
            [(r.nodes, r.nranks, round(r.rank_n)) for r in rows],
            title="Table 6: predicted required rank (GE)",
        )
    )
    return rows


def cmd_table7(args: argparse.Namespace) -> None:
    """Table 7: predicted scalability of GE (prints Table 6 first)."""
    _print_psi(cmd_table6(args), tables.table7_predicted_scalability,
               "psi (predicted)",
               "Table 7: predicted scalability of GE on Sunwulf")


def cmd_fig1(args: argparse.Namespace) -> None:
    """Figure 1: speed-efficiency of GE on two nodes."""
    fig = figures.figure1_ge_two_nodes(network_kind=args.network)
    _print(
        format_series(
            "rank N", "speed-efficiency", fig.series.points,
            title="Figure 1: speed-efficiency of GE on two nodes",
        )
    )
    print(
        f"trend R^2 = {fig.series.trend.r_squared:.4f}; required N for "
        f"E_S={fig.target}: {fig.required_n:.0f}; verification run at "
        f"N={fig.verified_n} measured E_S={fig.verified_efficiency:.4f}"
    )
    print()


def cmd_fig2(args: argparse.Namespace) -> None:
    """Figure 2: MM speed-efficiency curves."""
    fig = figures.figure2_mm_curves(
        node_counts=_node_counts(args), samples=args.samples,
        network_kind=args.network,
    )
    for series in fig.series:
        _print(
            format_series(
                "rank N", "speed-efficiency", series.points,
                title=f"Figure 2 ({series.label}): MM speed-efficiency",
            )
        )
    required = fig.required_sizes()
    _print(
        format_table(
            ["configuration", f"required N for E_S={fig.target}"],
            sorted(required.items()),
            title="Figure 2 trend read-offs",
        )
    )


def _cluster(args: argparse.Namespace, nodes: int | None = None):
    """The app-specific Sunwulf configuration on ``nodes`` nodes
    (default: the first ``--nodes`` count)."""
    from .machine import ge_configuration, mm_configuration

    if nodes is None:
        nodes = _node_counts(args)[0]
    if args.app == "mm":
        return mm_configuration(nodes, args.network)
    return ge_configuration(nodes, args.network)


def cmd_predict(args: argparse.Namespace) -> None:
    """Automatic scalability prediction (AutoPredictor, future work)."""
    from .experiments.autopredict import AutoPredictor

    counts = _node_counts(args)
    predictor = AutoPredictor(args.app, _cluster(args, counts[0]))
    rows = []
    for nodes in counts:
        cluster = _cluster(args, nodes)
        n_pred = predictor.required_size(cluster, args.target)
        rows.append((nodes, round(n_pred)))
    _print(
        format_table(
            ["nodes", f"predicted N for E_S={args.target}"],
            rows,
            title=f"Automatic prediction ({args.app})",
        )
    )
    transitions = []
    for a, b in zip(counts, counts[1:]):
        point = predictor.scalability(
            _cluster(args, a), _cluster(args, b), args.target
        )
        transitions.append((f"{a} -> {b} nodes", point.psi))
    _print(
        format_table(
            ["transition", "psi (predicted)"],
            transitions,
            title="Predicted scalability",
        )
    )


def _record(args: argparse.Namespace, write) -> None:
    """Record one run with ``write(ledger)`` in the ``--ledger`` ledger
    and say where; an unwritable ledger is a warning, not a failure."""
    from .obs.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    try:
        run_id = write(ledger)
    except OSError as err:
        warn("ledger.write_failed", ledger=ledger.root, error=err)
    else:
        print(f"ledger: recorded run {run_id} in {ledger.root}")
    print()


def _recording(args: argparse.Namespace):
    """Context recording every simulated run in the ``--ledger`` ledger."""
    from .obs.ledger import RunLedger

    return ledger_recording(RunLedger(args.ledger))


def cmd_profile(args: argparse.Namespace) -> None:
    """Profile one run: trace, metrics, analyzers and a ledger record."""
    from .obs.profiler import profile_app

    if args.app_name:
        args.app = resolve_app(args.app_name)
    cluster = _cluster(args)
    try:
        report = profile_app(args.app, cluster, args.size, out_dir=args.out)
    except OSError as err:
        raise SystemExit(
            f"error: cannot write profile artifacts to {args.out!r}: {err}"
        ) from None
    print(report.summary)
    print()
    if args.out:
        print(
            f"artifacts in {Path(args.out).resolve()}: "
            "trace.json (chrome://tracing / Perfetto), metrics.json, "
            "summary.txt"
        )
        print()
    _record(args, lambda ledger: ledger.record_report(report, cluster=cluster))


def cmd_memory(args: argparse.Namespace) -> None:
    """Memory-feasibility report for one (app, configuration, N)."""
    from .machine.memory import distributed_feasibility, sequential_reference_feasible

    cluster = _cluster(args)
    report = distributed_feasibility(cluster, args.app, args.size)
    _print(
        format_table(
            ["node", "required (MB)", "capacity (MB)", "fits"],
            [
                (u.node_id, u.required_mb, u.capacity_mb, u.fits)
                for u in report.nodes
            ],
            title=f"Distributed memory feasibility ({args.app}, N={args.size})",
        )
    )
    seq = sequential_reference_feasible(cluster, args.app, args.size)
    print(
        f"distributed run fits: {report.fits}; sequential reference "
        f"measurable on some node: {seq}"
    )
    print()


# -- run-ledger history (repro history) --------------------------------------

def cmd_history(args: argparse.Namespace) -> int:
    """List the runs recorded in the run ledger, newest first."""
    from .obs.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    # `engine` is kept as an alias of the ledger's source="run".
    source = {"engine": "run"}.get(args.source, args.source)
    entries = ledger.history(app=args.app, source=source,
                             limit=args.limit)
    if not entries:
        print(
            f"ledger {ledger.root} has no matching runs "
            "(record one with `repro profile <app>`)"
        )
        return 0

    def fmt(value, pattern="{:.6g}"):
        return pattern.format(value) if value is not None else "-"

    _print(
        format_table(
            ["run id", "created (UTC)", "source", "app", "N", "cluster",
             "makespan (s)", "E_S"],
            [
                (e.run_id, e.created_utc, e.source, e.app,
                 e.problem_size if e.problem_size is not None else "-",
                 e.cluster, fmt(e.makespan), fmt(e.speed_efficiency, "{:.4f}"))
                for e in entries
            ],
            title=f"Run ledger {ledger.root} (newest first)",
        )
    )
    return 0


def _build_executor(
    args: argparse.Namespace,
    cache_root: str | Path | None = None,
    telemetry: bool = False,
):
    """The sweep executor for the shared --jobs/--no-cache/--progress
    options (``cache_root`` overrides the default cache directory)."""
    from .experiments.executor import RunCache, SweepExecutor

    if args.jobs < 1:
        raise SystemExit(f"error: --jobs must be >= 1, got {args.jobs}")
    progress = None
    if args.progress:
        from .obs.streaming import ProgressReporter

        progress = ProgressReporter()
    return SweepExecutor(
        jobs=args.jobs,
        cache=None if args.no_cache else RunCache(cache_root),
        telemetry=telemetry,
        progress=progress,
    )


def _write_json(path: str, payload: dict, what: str) -> None:
    """Write a command's ``--out`` JSON document and say where."""
    import json

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _print(f"wrote {what} to {out}")


def _print_cache_stats(executor) -> None:
    """One summary line when the persistent run cache was in play."""
    if executor is None or executor.cache is None:
        return
    stats = executor.cache_stats()
    if stats["hits"] or stats["misses"]:
        print(
            f"run cache: {stats['hits']} hit(s), {stats['misses']} miss(es) "
            f"({executor.cache.root})"
        )
        print()


# -- fault-injection commands (faults run / sweep / attack) -------------------

def cmd_faults_run(args: argparse.Namespace) -> int:
    """Run one application under a fault schedule."""
    from .faults import (FaultSchedule, NodeCrash, run_app_under_faults,
                         uniform_slowdown)
    from .sim.errors import SimulationError
    from .sim.trace import Tracer

    cluster = _cluster(args)

    baseline: RunRecord | bool = not args.no_baseline
    if args.smoke:
        # Canned crash+restart scenario: crash the last rank at 30% of the
        # fault-free makespan, bring it back after 10% + 5% recompute.  The
        # baseline run doubles as the degraded-psi anchor.
        base = run_app(args.app, cluster, args.size, seed=args.seed)
        t = base.run.makespan
        schedule = FaultSchedule((
            NodeCrash(rank=cluster.nranks - 1, at=0.3 * t,
                      restart_delay=0.1 * t, recompute_seconds=0.05 * t),
        ))
        baseline = base
    elif args.schedule:
        schedule = FaultSchedule.load(args.schedule)
    elif args.slowdown is not None:
        schedule = uniform_slowdown(cluster.nranks, args.slowdown)
    else:
        raise SystemExit(
            "error: give a fault source: --schedule PATH, --slowdown SEV, "
            "or --smoke"
        )

    flight = None
    if args.flight:
        from .sim.flight import FlightRecorder

        flight = FlightRecorder()
    tracer = Tracer() if args.trace_out else None

    def write_trace() -> None:
        from .obs.chrome_trace import write_chrome_trace

        count = write_chrome_trace(args.trace_out, tracer,
                                   topology=cluster.topology())
        suffix = (
            f" ({tracer.dropped} records dropped past the tracer limit)"
            if tracer.dropped else ""
        )
        print(f"wrote {count} trace events to {args.trace_out}{suffix}")
        print()

    try:
        faulty = run_app_under_faults(
            args.app, cluster, args.size, schedule,
            baseline=baseline, tracer=tracer, seed=args.seed, flight=flight,
        )
    except SimulationError as err:
        # With a flight recorder attached the engine dumped its ring on
        # the way out -- point the user at the black box before exiting.
        # A tracer keeps the records up to the failure: write them too.
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        if tracer is not None:
            write_trace()
        if flight is not None:
            for path in flight.dumps:
                print(
                    f"flight dump: {path} "
                    f"(inspect with `repro flight show {path}`)",
                    file=sys.stderr,
                )
        return 1
    if flight is not None:
        # Watchdog dumps from a run that still *completed* (e.g. a
        # utilization collapse after a fail-stop with restart).
        for path in flight.dumps:
            print(f"flight dump (watchdog): {path}")

    m = faulty.faulted.measurement
    print(
        f"{args.app} at N={args.size} on {cluster.name} under "
        f"{len(schedule)} fault event(s) "
        f"[profile {faulty.fault_profile_hash}]"
    )
    rows = [
        ("makespan T' (s)", f"{faulty.makespan:.4f}"),
        ("C_eff (Mflop/s)", f"{faulty.c_eff / 1e6:.1f}"),
        ("availability min", f"{min(faulty.availabilities):.4f}"),
        ("E_S (marked C)", f"{m.speed_efficiency:.4f}"),
        ("E_S^fault (C_eff)", f"{faulty.fault_speed_efficiency:.4f}"),
    ]
    if faulty.baseline is not None:
        rows[0:0] = [
            ("baseline T (s)", f"{faulty.baseline.run.makespan:.4f}"),
        ]
        rows.append(("degraded psi", f"{faulty.psi:.4f}"))
    print()
    _print(format_table(["metric", "value"], rows, title="Faulted run"))
    events = faulty.injector.events
    if events:
        _print(format_table(
            ["t (s)", "rank", "kind", "detail"],
            [
                (f"{e.time:.4f}", e.rank if e.rank >= 0 else "net",
                 e.kind, e.detail)
                for e in events
            ],
            title="Fault events",
        ))

    if tracer is not None:
        write_trace()
    if args.smoke or args.ledger is not None:
        _record(args, faulty.to_ledger)
    return 0


def cmd_faults_sweep(args: argparse.Namespace) -> int:
    """psi-vs-fault-intensity table (uniform slowdown scan)."""
    from .faults import render_sweep, slowdown_sweep
    from .fuzz import check_sweep_invariants

    cluster = _cluster(args)
    executor = _build_executor(args, telemetry=args.profile)
    rows = slowdown_sweep(
        args.app, cluster, args.size, severities=args.severities,
        seed=args.seed, executor=executor,
    )
    _print(render_sweep(
        rows,
        title=f"Scalability under faults ({args.app}, N={args.size}, "
              f"{cluster.name})",
    ))
    monotone = not any(v.kind == "monotonicity"
                       for v in check_sweep_invariants(rows))
    print(f"psi monotone non-increasing with severity: {monotone}")
    print()
    _print_cache_stats(executor)
    if args.profile and executor.timeline is not None:
        _print(executor.timeline.format_report(
            title=f"Sweep overhead attribution ({args.app} faults sweep, "
                  f"jobs={executor.jobs})",
        ))
    if args.out:
        from dataclasses import asdict

        payload = {
            "app": args.app,
            "cluster": cluster.name,
            "problem_size": args.size,
            "rows": [asdict(r) for r in sorted(rows, key=lambda r: r.severity)],
            "psi_monotone_nonincreasing": monotone,
            "cache": executor.cache_stats(),
            "jobs": executor.jobs,
        }
        if args.profile and executor.timeline is not None:
            payload["telemetry"] = executor.timeline.to_dict()
        _write_json(args.out, payload, "sweep data")
    return 0


def _cluster_groups(spec: str) -> tuple[tuple[str, int], ...]:
    """argparse type: ``GROUP:COUNT[,GROUP:COUNT...]`` node groups."""
    groups = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition(":")
        try:
            groups.append((name.strip(), int(count) if count else 1))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad cluster group {part!r} (expected GROUP:COUNT)"
            ) from None
    return tuple(groups)


def cmd_faults_attack(args: argparse.Namespace) -> int:
    """Worst-case resilience curve via adversarial search."""
    from .fuzz import (
        ClusterModel,
        attack_to_ledger,
        load_case,
        make_case,
        render_attack_curve,
        replay_case,
        resilience_curve,
        save_case,
    )
    from .obs.ledger import RunLedger

    if args.smoke:
        # Fast fixed-seed CI shape: small problem, few iterations, the
        # curve recorded to the ledger and the optimum replayed from a
        # corpus entry to prove bit-identical replay.
        size = args.size if args.size is not None else 64
        budgets = args.budgets or [0.2, 0.5]
        iterations = min(args.iterations, 8)
        corpus_dir = args.corpus or ".repro/fuzz/corpus"
        record = True
    else:
        size = args.size if args.size is not None else 96
        budgets = args.budgets or [0.1, 0.25, 0.5, 1.0]
        iterations = args.iterations
        corpus_dir = args.corpus
        record = args.ledger is not None
    cluster = ClusterModel(groups=args.cluster, network=args.network)
    executor = _build_executor(args)
    results = resilience_curve(
        args.app, cluster, size, budgets,
        iterations=iterations, seed=args.seed, executor=executor,
    )
    _print(render_attack_curve(
        results,
        title=f"Worst-case resilience curve ({args.app}, N={size}, "
              f"{cluster.name}[{cluster.network}])",
    ))
    worst = min(results, key=lambda r: r.psi)
    print(
        f"worst case: psi={worst.psi:.4f} at budget {worst.budget:g} "
        f"({len(worst.scenario.schedule)} fault event(s), "
        f"scenario {worst.scenario.scenario_hash()})"
    )
    print()
    if record:
        ledger = RunLedger(args.ledger)
        for result in results:
            run_id = attack_to_ledger(result, ledger, executor=executor)
            print(
                f"ledger: recorded attack run {run_id} "
                f"(budget {result.budget:g}) in {ledger.root}"
            )
        print()
    if corpus_dir:
        case = make_case(
            worst.scenario, executor=executor,
            provenance={
                "origin": "faults-attack",
                "app": args.app, "budget": worst.budget, "seed": args.seed,
                "psi": worst.psi, "score": worst.score,
            },
        )
        path = save_case(case, corpus_dir)
        print(f"corpus: saved worst-case scenario to {path}")
        replay = replay_case(load_case(path), executor=executor)
        if replay.ok:
            print("corpus: replay is bit-identical (psi/makespan match)")
        else:
            for line in replay.mismatches:
                print(f"corpus: replay mismatch: {line}")
            for violation in replay.report.violations:
                print(f"corpus: replay violation: {violation}")
            print()
            return 1
        print()
    _print_cache_stats(executor)
    if args.out:
        payload = {
            "app": args.app,
            "cluster": cluster.to_payload(),
            "problem_size": size,
            "seed": args.seed,
            "iterations": iterations,
            "curve": [r.to_payload() for r in results],
        }
        _write_json(args.out, payload, "attack curve")
    return 0


# -- fuzz commands (repro fuzz) -----------------------------------------------

def cmd_fuzz_run(args: argparse.Namespace) -> int:
    """Run a seeded fuzz campaign against the invariant oracle."""
    from .fuzz import fuzz_campaign, violation_kinds

    executor = _build_executor(args)
    result = fuzz_campaign(
        count=args.count,
        seed=args.seed,
        executor=executor,
        shrink=not args.no_shrink,
        bit_identity_every=args.bit_identity_every,
        corpus_dir=args.corpus,
        artifacts_dir=args.artifacts,
    )
    print(result.summary())
    for report, path in zip(result.violating, result.corpus_paths):
        kinds = ", ".join(sorted(violation_kinds(report))) or "error"
        print(f"  violation [{kinds}]: {report.scenario.describe()}")
        print(f"    corpus case: {path}")
    for path in result.artifact_paths:
        print(f"  artifacts: {path}")
    print()
    _print_cache_stats(executor)
    return 0 if result.ok else 1


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    """Re-run every minimized corpus case as a regression."""
    from .fuzz import (
        CorpusError,
        corpus_paths,
        load_case,
        replay_case,
    )

    paths = corpus_paths(args.corpus)
    if not paths:
        print(f"no corpus cases under {args.corpus or 'tests/fuzz/corpus'}")
        return 0
    executor = _build_executor(args)
    failures = 0
    for path in paths:
        try:
            case = load_case(path)
            replay = replay_case(case, executor=executor)
        except CorpusError as err:
            failures += 1
            print(f"FAIL {path.name}: {err}")
            continue
        if replay.ok:
            print(f"ok   {case.name}: {case.scenario.describe()}")
            continue
        failures += 1
        print(f"FAIL {case.name}: {case.scenario.describe()}")
        for line in replay.mismatches:
            print(f"     mismatch: {line}")
        for violation in replay.report.violations:
            print(f"     violation: {violation}")
    print()
    print(f"replayed {len(paths)} case(s), {failures} failing")
    print()
    _print_cache_stats(executor)
    return 0 if failures == 0 else 1


# -- sweep telemetry commands (sweep profile) ---------------------------------

def cmd_sweep_profile(args: argparse.Namespace) -> int:
    """Run one cache-cold telemetered sweep and attribute its wall time
    to spawn/queue/cache/engine phases.

    The tool that makes a <1x cold "speedup" (perfbench ``sweep_mix``:
    ``experiments.speedup_vs_serial``) diagnosable.  A serial reference
    sweep is timed first (skip with ``--no-serial``) so the report can
    state the measured serial-vs-parallel comparison directly.
    """
    import tempfile

    from .experiments.executor import SweepExecutor
    from .experiments.sweep import efficiency_curve

    cluster = _cluster(args)

    with ExitStack() as stack:
        cache_root = args.cache
        if cache_root is None:
            # A throwaway cache keeps the profiled sweep genuinely cold
            # while still exercising the cache probe/write phases.
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-sweep-profile-")
            )
            cache_root = Path(tmp) / "cache"
        executor = _build_executor(args, cache_root=cache_root,
                                   telemetry=True)
        serial_seconds = None
        if not args.no_serial:
            start = time.perf_counter()
            efficiency_curve(args.app, cluster, args.sizes,
                             executor=SweepExecutor())
            serial_seconds = time.perf_counter() - start
        if args.ledger is not None:
            # Only the profiled sweep is recorded, not the reference.
            stack.enter_context(_recording(args))
        if args.warm_pool:
            # Pay the one-off worker spawn before the profiled window,
            # so the report shows the steady-state (warm-pool) sweep.
            from .experiments.pool import shared_pool

            shared_pool(args.jobs).warm_up()
        efficiency_curve(args.app, cluster, args.sizes, executor=executor)
        timeline = executor.timeline
    _print(timeline.format_report(
        title=f"Sweep overhead attribution ({args.app}, "
              f"sizes {' '.join(map(str, args.sizes))}, jobs={args.jobs}, "
              f"{cluster.name})",
        serial_seconds=serial_seconds,
    ))
    if args.trace_out:
        from .obs.chrome_trace import write_telemetry_trace

        count = write_telemetry_trace(args.trace_out, timeline)
        print(
            f"wrote {count} telemetry trace events to {args.trace_out} "
            "(one track per worker process)"
        )
        print()
    if args.out:
        wall = timeline.wall_seconds
        payload = {
            "app": args.app,
            "cluster": cluster.name,
            "sizes": args.sizes,
            "jobs": args.jobs,
            "serial_seconds": serial_seconds,
            "parallel_seconds": wall,
            "speedup": (
                serial_seconds / wall
                if serial_seconds is not None and wall > 0 else None
            ),
            "telemetry": timeline.to_dict(),
        }
        _write_json(args.out, payload, "sweep profile")
    return 0


# -- flight-recorder commands (flight list / flight show) ---------------------

def cmd_flight_list(args: argparse.Namespace) -> int:
    """List dumps, newest first."""
    from .sim.flight import flight_dir, format_dump_line, list_dumps, load_dump

    root = Path(args.dir) if args.dir else flight_dir()
    dumps = list_dumps(root)
    if not dumps:
        print(
            f"no flight dumps in {root} (a recorder dumps there when an "
            "engine run dies or the watchdog trips; attach one with "
            "`repro faults run --flight`)"
        )
        return 0
    for path in dumps:
        try:
            print(format_dump_line(path, load_dump(path)))
        except (OSError, ValueError) as err:
            print(f"{path.name}  (unreadable: {err})")
    print()
    return 0


def cmd_flight_show(args: argparse.Namespace) -> int:
    """Render one dump as a readable trace tail."""
    from .sim.flight import flight_dir, format_dump, list_dumps, load_dump

    root = Path(args.dir) if args.dir else flight_dir()
    if args.dump:
        path = Path(args.dump)
        if not path.exists() and (root / args.dump).exists():
            path = root / args.dump  # bare file name from `flight list`
    else:
        dumps = list_dumps(root)
        if not dumps:
            raise SystemExit(f"error: no flight dumps in {root}")
        path = dumps[0]
    try:
        doc = load_dump(path)
    except (OSError, ValueError) as err:
        raise SystemExit(f"error: {err}") from None
    print(format_dump(doc, tail=args.tail))
    print()
    print(
        f"source: {path} (the traceEvents key loads in chrome://tracing "
        "/ Perfetto)"
    )
    return 0


COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "table5": cmd_table5,
    "table6": cmd_table6,
    "table7": cmd_table7,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
}


def cmd_all(args: argparse.Namespace) -> None:
    """Every table and figure in turn."""
    for name, command in COMMANDS.items():
        start = time.time()
        command(args)
        print(f"[{name} done in {time.time() - start:.1f}s]")
        print()


def cmd_version(args: argparse.Namespace) -> int:
    """Print the package version."""
    from . import __version__

    # The same string write_json_document stamps into every document.
    print(f"repro {__version__}")
    return 0


# -- the command tree ---------------------------------------------------------

#: Application names and aliases accepted by ``--app``.
APP_CHOICES = (*APPLICATIONS, *APP_ALIASES)


def _int_at_least(k: int):
    """argparse type: an integer >= ``k`` (a smaller one exits 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


def _severity(text: str) -> float:
    """argparse type: a slowdown severity in [0, 1)."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _network_spec(spec: str) -> str:
    """argparse type: a spec :func:`parse_network_spec` accepts."""
    from .network.ethernet import parse_network_spec
    from .sim.errors import InvalidOperationError

    try:
        parse_network_spec(spec)
    except InvalidOperationError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return spec


#: Every option more than one command takes, defined once.  A command
#: names the ones it takes (:func:`_command`); the root takes them all,
#: so each may also come before the command name.
OPTIONS = {
    "--app": dict(
        choices=APP_CHOICES, default="ge",
        help="application (default: ge); `history` lists only this "
             "application's runs (default: all)",
    ),
    "--network": dict(
        type=_network_spec, default="bus", metavar="SPEC",
        help="interconnect model: bus (the paper's, default), switch, or "
             "a hierarchical spec such as fat-tree:8:2, torus:16:8, "
             "tiered:8:4:2",
    ),
    "--jobs": dict(
        type=int, default=1, metavar="J",
        help="fan independent simulation points over J worker processes "
             "(default 1, which runs them serially in-process; "
             "2 for `sweep profile`)",
    ),
    "--no-cache": dict(
        action="store_true",
        help="bypass the persistent run cache ($REPRO_CACHE_DIR or "
             ".repro/cache) and re-simulate every point",
    ),
    "--progress": dict(
        action="store_true",
        help="live sweep heartbeat on stderr: points done/total, ETA, "
             "cache hit-rate and worker utilization",
    ),
    "--nodes": dict(
        type=int, nargs="+", default=None, metavar="K",
        help="node counts of the study (default: the paper's 2..32); a "
             "command that builds one cluster uses the first (default 2)",
    ),
    "--quick": dict(
        action="store_true",
        help="restrict studies to 2-8 nodes (fast smoke run)",
    ),
    "--samples": dict(
        type=_int_at_least(2), default=6,
        help="samples per efficiency curve for figures (default 6)",
    ),
    "--size": dict(
        type=int, default=300,
        help="problem size N (default 300; fft needs a power of two; "
             "`faults attack`: 96, 64 with --smoke)",
    ),
    "--target": dict(
        type=float, default=0.3,
        help="target speed-efficiency for predict (default 0.3)",
    ),
    "--seed": dict(
        type=int, default=0,
        help="seed (default 0): of the workload for `faults run|sweep`, "
             "of the search for `faults attack`, of the campaign for "
             "`fuzz run` (same seed, same scenarios)",
    ),
    "--smoke": dict(
        action="store_true",
        help="the fixed CI shape, recorded to the ledger: `faults run` "
             "injects a canned crash+restart (at 30%% of the fault-free "
             "makespan, back after 10%% + 5%% recompute); `faults attack` "
             "runs a small problem with few iterations and saves the "
             "worst case to a corpus entry and replays it bit-identically",
    ),
    "--out": dict(
        default=None, metavar="PATH",
        help="`profile`: artifact directory (trace.json, metrics.json, "
             "summary.txt); `faults sweep|attack`, `sweep profile`: JSON "
             "report (sweep rows with cache hit/miss counts, the "
             "resilience curve, the overhead phases and speedup)",
    ),
    "--trace-out": dict(
        default=None, metavar="PATH",
        help="write Chrome trace-event JSON (chrome://tracing or "
             "Perfetto): every simulated run of a table, figure or tool "
             "command (run-cache reads off, so each run is really "
             "simulated); the faulted run of `faults run`, fault track "
             "included (a failed run writes the records up to the "
             "failure); the merged worker timeline of `sweep profile`, "
             "one track per worker process",
    ),
    "--ledger": dict(
        default=None, metavar="DIR",
        help="run-ledger directory (default: $REPRO_LEDGER_DIR or "
             ".repro/ledger), which `history` lists.  `profile` and "
             "--smoke always record there; otherwise the flag records "
             "every simulated run of a table, figure or tool command or "
             "of `faults sweep` (with a cache_hit metric), the faulted "
             "run of `faults run`, each budget optimum of `faults attack` "
             "(source=attack), and the profiled runs of `sweep profile` "
             "plus a source=sweep telemetry record",
    ),
    "--corpus": dict(
        default=None, metavar="DIR",
        help="fuzz corpus directory: where `fuzz run` saves violating "
             "scenarios and `fuzz replay` reads them (default: "
             "$REPRO_FUZZ_CORPUS_DIR or tests/fuzz/corpus); where "
             "`faults attack` saves its worst case (default: none; "
             ".repro/fuzz/corpus with --smoke)",
    ),
    "--dir": dict(
        default=None, metavar="DIR",
        help="flight dump directory (default: $REPRO_FLIGHT_DIR or "
             ".repro/flight)",
    ),
}

EXECUTOR = ("--jobs", "--no-cache", "--progress")
WORKLOAD = ("--app", "--network")
#: The options of the table, figure and tool commands.
STUDY = (*WORKLOAD, *EXECUTOR, "--nodes", "--quick", "--samples", "--size",
         "--target", "--out", "--trace-out", "--ledger")


def _options(*flags: str, root: bool = False) -> argparse.ArgumentParser:
    """Parent parser of the named :data:`OPTIONS`.

    ``root=True`` builds the copy a parser takes before its sub-command
    name: every default is SUPPRESS, so an option given there is kept
    and one left out gets the sub-command's default (see
    :class:`_SubCommands`).  Each call builds fresh actions, so one
    command's ``set_defaults`` never leaks into another's.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        spec = OPTIONS[flag]
        if root:
            spec = {**spec, "default": argparse.SUPPRESS}
        parent.add_argument(flag, **spec)
    return parent


class _SubCommands(argparse._SubParsersAction):
    """Sub-command action that parses into the caller's namespace.

    Stock argparse parses a sub-command into a fresh namespace and
    copies it back, so the sub-command's defaults overwrite options
    given before its name.  Parsing into the one namespace keeps them.
    (argparse's own action class is private; ``add_subparsers(action=)``
    is the public hook that takes this one.)
    """

    def __call__(self, parser, namespace, values, option_string=None):
        name, *rest = values
        if self.dest is not argparse.SUPPRESS:
            setattr(namespace, self.dest, name)
        self.choices[name].parse_args(rest, namespace)


def _subcommands(parser: argparse.ArgumentParser, **kwargs):
    return parser.add_subparsers(metavar="COMMAND", action=_SubCommands,
                                 **kwargs)


def _command(group, name: str, func, *flags: str, study: bool = False,
             record: bool = False, **defaults) -> argparse.ArgumentParser:
    """Add the leaf ``name`` taking the shared options ``flags``.

    Its help is the first paragraph of ``func``'s docstring.  The
    contexts :func:`main` enters around ``func``: ``study``, the trace
    collector of ``--trace-out`` and the ambient sweep executor;
    ``record``, ledger recording when ``--ledger`` is given.
    """
    about = func.__doc__.split("\n\n")[0]
    parser = group.add_parser(name, help=about, description=about,
                              parents=[_options(*flags)])
    parser.set_defaults(func=func, study=study, record=record, **defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The one command tree of ``repro``."""
    from .obs.ledger import LEDGER_SOURCES

    parser = argparse.ArgumentParser(
        prog="repro",
        parents=[_options(*OPTIONS, root=True)],
        description=(
            "Regenerate the evaluation tables/figures of 'Scalability of "
            "Heterogeneous Computing' (Sun, Chen, Wu; ICPP 2005) on the "
            "simulated Sunwulf cluster.  The options below are the ones "
            "several commands share; each may also follow the command "
            "name (see `repro COMMAND --help`)."
        ),
    )
    parser.add_argument(
        "-V", "--version", dest="func", action="store_const",
        const=cmd_version, default=argparse.SUPPRESS,
        help="print the version and exit",
    )
    commands = _subcommands(parser, dest="what")
    for name, func in {**COMMANDS, "all": cmd_all, "predict": cmd_predict,
                       "memory": cmd_memory}.items():
        _command(commands, name, func, *STUDY, study=True, record=True)
    # `profile` records its full analyzer report itself.
    profile = _command(commands, "profile", cmd_profile, *STUDY, study=True)
    profile.add_argument(
        "app_name", nargs="?", default=None, choices=APP_CHOICES,
        metavar="APP", help="application (default: --app)",
    )

    faults = commands.add_parser(
        "faults", help="Fault injection: run, sweep, attack.",
        description="Run applications under deterministic fault "
                    "schedules and measure scalability under faults.",
    )
    group = _subcommands(faults, required=True)
    run = _command(group, "run", cmd_faults_run, *WORKLOAD, "--nodes",
                   "--size", "--seed", "--smoke", "--trace-out", "--ledger")
    run.add_argument(
        "--schedule", default=None, metavar="PATH",
        help="fault-schedule JSON document to inject "
             "(see repro.faults.FaultSchedule.save)",
    )
    run.add_argument(
        "--slowdown", type=_severity, default=None, metavar="SEV",
        help="uniform whole-run slowdown of the given severity on every rank",
    )
    run.add_argument(
        "--no-baseline", action="store_true",
        help="skip the fault-free baseline run (degraded psi unavailable)",
    )
    run.add_argument(
        "--flight", action="store_true",
        help="attach a flight recorder to the faulted engine: on a crash "
             "(or watchdog trip) the last-K trace records are dumped to "
             ".repro/flight/ for `repro flight show`",
    )
    sweep = _command(group, "sweep", cmd_faults_sweep, *WORKLOAD, *EXECUTOR,
                     "--nodes", "--size", "--seed", "--out", "--ledger",
                     record=True)
    sweep.add_argument(
        "--severities", type=_severity, nargs="+",
        default=[0.0, 0.2, 0.4, 0.6],
        help="slowdown severities to scan (default: 0.0 0.2 0.4 0.6)",
    )
    sweep.add_argument(
        "--profile", action="store_true",
        help="collect cross-process telemetry and print the "
             "overhead-attribution phase table (also lands in --out "
             "as a `telemetry` block)",
    )
    attack = _command(group, "attack", cmd_faults_attack, *WORKLOAD,
                      *EXECUTOR, "--size", "--seed", "--smoke", "--ledger",
                      "--corpus", "--out", size=None)
    attack.add_argument(
        "--cluster", type=_cluster_groups, default="blade:2,v210:1",
        metavar="SPEC",
        help="heterogeneous cluster as GROUP:COUNT[,GROUP:COUNT...] over "
             "the fuzz node palette (blade, v210, generic, server); "
             "default: blade:2,v210:1",
    )
    attack.add_argument(
        "--budgets", type=float, nargs="+", default=None, metavar="B",
        help="injected-cost budgets for the resilience curve "
             "(default: 0.1 0.25 0.5 1.0; 0.2 0.5 with --smoke)",
    )
    attack.add_argument(
        "--iterations", type=int, default=40,
        help="hill-climbing iterations per budget (default 40, "
             "capped at 8 with --smoke)",
    )

    fuzz = commands.add_parser(
        "fuzz", help="Scenario fuzzing: run, replay.",
        description="Property-based scenario fuzzing: generate adversarial "
                    "(cluster x app x N x fault schedule) scenarios, check "
                    "simulator invariants, shrink violations to minimal "
                    "replayable corpus cases.",
    )
    group = _subcommands(fuzz, required=True)
    run = _command(group, "run", cmd_fuzz_run, *EXECUTOR, "--seed",
                   "--corpus")
    run.add_argument("--count", type=_int_at_least(1), default=20,
                     help="scenarios to generate (default 20)")
    run.add_argument(
        "--bit-identity-every", type=int, default=0, metavar="K",
        help="run the serial==pool==cached bit-identity probe on every "
             "K-th scenario (0: off; the probe spawns a process pool)",
    )
    run.add_argument(
        "--artifacts", default=".repro/fuzz", metavar="DIR",
        help="violation artifacts: scenario+violations JSON and flight "
             "ring dumps (default .repro/fuzz)",
    )
    run.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging violating scenarios before persisting",
    )
    _command(group, "replay", cmd_fuzz_replay, *EXECUTOR, "--corpus")

    sweep = commands.add_parser(
        "sweep", help="Sweep overhead attribution: profile.",
        description="Sweep-executor tooling: cross-process telemetry and "
                    "overhead attribution of the parallel sweep path.",
    )
    profile = _command(_subcommands(sweep, required=True), "profile",
                       cmd_sweep_profile, *WORKLOAD, *EXECUTOR, "--nodes",
                       "--trace-out", "--out", "--ledger", jobs=2)
    profile.add_argument(
        "--sizes", type=int, nargs="+", default=[120, 160, 200, 240],
        help="problem sizes of the sweep (default: 120 160 200 240)",
    )
    profile.add_argument(
        "--no-serial", action="store_true",
        help="skip the serial reference sweep (no speedup comparison "
             "in the report)",
    )
    profile.add_argument(
        "--warm-pool", action="store_true",
        help="pre-spawn the shared worker pool before the profiled "
             "sweep, so the report shows the steady-state warm-pool "
             "phase table (no spawn cost in the window)",
    )
    profile.add_argument(
        "--cache", default=None, metavar="DIR",
        help="run-cache directory to use (default: a throwaway "
             "directory, so the profiled sweep is cache-cold)",
    )

    flight = commands.add_parser(
        "flight", help="Flight-recorder post-mortems: list, show.",
        description="List and render the last-K record dumps written "
                    "when a run dies or the watchdog trips.",
        parents=[_options("--dir", root=True)],
    )
    group = _subcommands(flight, required=True)
    _command(group, "list", cmd_flight_list, "--dir")
    show = _command(group, "show", cmd_flight_show, "--dir")
    show.add_argument(
        "dump", nargs="?", default=None,
        help="dump file (path or bare name from `flight list`; default: "
             "the newest dump)",
    )
    show.add_argument(
        "--tail", type=_int_at_least(0), default=None, metavar="N",
        help="only the last N records before the failure (default: all "
             "retained records)",
    )

    history = _command(commands, "history", cmd_history, "--app",
                       "--ledger", app=None)
    history.add_argument(
        "--source", default=None, choices=LEDGER_SOURCES + ("engine",),
        help="only runs recorded by this source (`run` = one simulation "
             "each, from run_app or a sweep; `engine` is an alias of "
             "`run`; `sweep` = sweep-level telemetry records; `attack` = "
             "worst-case search optima)",
    )
    history.add_argument("--limit", type=_int_at_least(1), default=20,
                         help="show at most this many runs (default 20)")
    _command(commands, "version", cmd_version)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from .core.types import MetricError
    from .fuzz.errors import FuzzError
    from .sim.errors import SimulationError

    parser = build_parser()
    args = parser.parse_args(argv)
    if "func" not in args:
        parser.error("a command is required")
    if getattr(args, "app", None) is not None:
        args.app = resolve_app(args.app)  # normalize aliases once
    study = getattr(args, "study", False)
    executor = None
    collector = None
    try:
        with ExitStack() as stack:
            if study and args.trace_out:
                collector = stack.enter_context(collect_traces())
            if getattr(args, "record", False) and args.ledger:
                stack.enter_context(_recording(args))
            if study:
                from .experiments.executor import sweep_execution

                executor = stack.enter_context(
                    sweep_execution(_build_executor(args))
                )
            code = args.func(args)
    except (SimulationError, MetricError, FuzzError) as err:
        raise SystemExit(f"error: {type(err).__name__}: {err}") from None
    _print_cache_stats(executor)
    if collector is not None:
        from .obs.chrome_trace import write_chrome_trace

        count = write_chrome_trace(args.trace_out, collector.runs)
        dropped = collector.warn_if_dropped()
        suffix = (
            f" ({dropped} records dropped past the per-run limit of "
            f"{collector.limit})" if dropped else ""
        )
        print(
            f"wrote {count} trace events from {len(collector.runs)} "
            f"simulated run(s) to {args.trace_out}{suffix}"
        )
    # The table commands return their rows, not an exit code.
    return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
