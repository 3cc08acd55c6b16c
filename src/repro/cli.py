"""Command-line reproduction runner.

Regenerates the paper's tables and figures as text, without pytest:

    python -m repro.cli table1 fig8a
    python -m repro.cli all            # everything (~3 minutes)
    python -m repro.cli fig8b --quick  # smaller workloads
    python -m repro.cli metrics        # server observability snapshot

Each experiment prints the same rows/series the corresponding
``benchmarks/test_*.py`` asserts on; ``metrics`` replays a synthetic
many-route city through the server and prints the
``WiLocatorServer.metrics_snapshot()`` report (stage latencies, cache hit
rates, index counters).

Durability subcommands drive the :mod:`repro.pipeline` subsystem against
the same synthetic city (all take ``--data-dir``, default
``./wilocator-data``):

    python -m repro.cli checkpoint --data-dir /tmp/wilo --quick
    python -m repro.cli wal-stat   --data-dir /tmp/wilo
    python -m repro.cli replay     --data-dir /tmp/wilo --quick
    python -m repro.cli health     --quick
    python -m repro.cli cluster    --quick --json

``cluster`` runs the sharded serving layer's acceptance story (cross-
shard accuracy parity over the delta bus, then a chaos crash/recover
drill) and prints a warm cluster's health — per-subscriber delta-bus
lag and the live reshard phase; ``--json`` switches ``metrics``,
``health`` and ``cluster`` to machine-readable output.  ``elastic``
runs the live split/merge chaos drill (:mod:`repro.elastic`) and
writes ``BENCH_elastic.json``; ``fusion`` runs the multi-sensor
AP-outage drill (:mod:`repro.eval.outage`) and writes
``BENCH_fusion.json``:

    python -m repro.cli elastic --out BENCH_elastic.json
    python -m repro.cli fusion  --out BENCH_fusion.json

``checkpoint`` ingests the city durably (WAL + micro-batches + periodic
checkpoints), ``wal-stat`` prints the log's segment table, ``replay``
rebuilds a virgin server from the durable state and proves the recovered
rider-query answers.  ``health`` runs a self-contained chaos drill — a
corrupted report stream plus injected disk faults in a temporary
directory — and prints the resulting ``health()`` report (admission
reason codes, breaker state, WAL damage accounting); it never touches
``--data-dir``.

Serving subcommands expose the HTTP front door (:mod:`repro.serving`)
over the same synthetic city:

    python -m repro.cli serve   --backend cluster --port 8080
    python -m repro.cli loadgen --out BENCH_serving.json

``serve`` replays the city into the chosen backend (``plain`` /
``durable`` / ``cluster``) and blocks serving JSON over HTTP;
``loadgen`` fires the deterministic rising-QPS open-loop schedule at
both the durable and 4-shard deployments and writes the per-endpoint
latency artifact.

The model lifecycle (:mod:`repro.lifecycle`) is driven by one
subcommand with ``--action`` (registry state persists under
``--registry-dir``, default ``./wilocator-models``):

    python -m repro.cli lifecycle --action status
    python -m repro.cli lifecycle --action retrain
    python -m repro.cli lifecycle --action promote
    python -m repro.cli lifecycle --action rollback
    python -m repro.cli lifecycle --action bench --out BENCH_lifecycle.json

``bench`` runs the regime-change drill (frozen-model decay -> shadow
detection -> gated promotion -> byte-identical rollback) and writes the
committed ``BENCH_lifecycle.json`` artifact.

``analyze`` runs the AST-based invariant checker (:mod:`repro.analysis`,
rules WL001–WL005) over the given paths and exits non-zero on any
non-baselined finding:

    python -m repro.cli analyze src
    python -m repro.cli analyze src --json
"""

from __future__ import annotations

import argparse
import sys
import time


def _world(quick: bool):
    from repro.eval.scenarios import make_corridor_world

    if quick:
        return make_corridor_world(seed=0, ap_spacing_m=60.0, riders_per_bus=2)
    return make_corridor_world(seed=0)


def run_table1(world, args):
    from repro.eval.experiments import run_table1
    from repro.roadnet.overlap import format_overlap_table

    print(format_overlap_table(run_table1(world)))


def run_table2(world, args):
    from repro.eval.experiments import run_table2
    from repro.eval.scenarios import make_campus_world

    table = run_table2(make_campus_world(seed=0))
    for name in ("A", "B", "C"):
        row = ", ".join(f"{ssid}({rss:.0f})" for ssid, rss in table[name])
        print(f"  {name}: {row}")


def run_fig8a(world, args):
    from repro.eval.experiments import run_fig8a
    from repro.eval.tables import format_cdf_table, format_summary_table

    errors = run_fig8a(world, trips_per_route=1 if args.quick else 2)
    print(format_cdf_table(errors, thresholds=[2, 3, 4, 5, 10, 20]))
    print()
    print(format_summary_table(errors, unit="m"))


def _prediction(world, quick):
    from repro.eval.experiments import run_prediction_experiment

    return run_prediction_experiment(
        world, train_days=2 if quick else 3, eval_days=1 if quick else 2
    )


def run_fig8b(world, args):
    from repro.eval.tables import format_cdf_table, format_summary_table

    exp = _prediction(world, args.quick)
    samples = {
        "WiLocator": exp.wilocator_errors,
        "Transit Agency": exp.agency_errors,
    }
    print(format_cdf_table(samples, thresholds=[30, 60, 120, 200, 400, 800]))
    print()
    print(format_summary_table(samples, unit="s"))


def run_fig8c(world, args):
    from repro.eval.tables import format_stops_ahead

    exp = _prediction(world, args.quick)
    per_route = {
        rid: exp.mean_by_stops_ahead(rid, 19)
        for rid in ("rapid", "9", "14", "16")
    }
    print(format_stops_ahead(per_route, max_stops=19))


def run_fig9a(world, args):
    from repro.eval.experiments import run_fig9a
    from repro.eval.tables import format_series

    spacings = (120.0, 60.0, 34.0) if args.quick else (120.0, 80.0, 60.0, 45.0, 34.0)
    print(
        format_series(
            run_fig9a(spacings_m=spacings),
            x_label="# APs",
            y_label="mean error (m)",
        )
    )


def run_fig9b(world, args):
    from repro.eval.experiments import run_fig9b
    from repro.eval.tables import format_series

    orders = (1, 2, 3) if args.quick else (1, 2, 3, 4)
    print(
        format_series(
            run_fig9b(world, orders=orders),
            x_label="order",
            y_label="mean error (m)",
        )
    )


def run_fig10(world, args):
    from repro.eval.experiments import run_fig10
    from repro.eval.scenarios import make_campus_world

    results = run_fig10(make_campus_world(seed=0))
    for name in ("A", "B", "C"):
        r = results[name]
        print(
            f"  {name}: true {r['true_arc']:6.1f} m  estimated "
            f"{r['estimated_arc']:6.1f} m  error {r['error_m']:.1f} m"
        )


def run_fig11(world, args):
    from repro.eval.experiments import run_fig11

    exp = run_fig11(world, train_days=2)
    order = exp.segment_order
    print("  ('.'=normal 's'=slow 'S'=very slow '?'=unconfirmed)")
    print(f"  WiLocator: {exp.wilocator_map.render_ascii(order)}")
    print(f"  Agency:    {exp.agency_map.render_ascii(order)}")
    print(f"  Velocity:  {exp.velocity_map.render_ascii(order)}")
    print(f"  injected accident: {exp.incident_segment}")
    for a in exp.detected_anomalies:
        print(
            f"  detected anomaly: {a.segment_id} "
            f"[{a.arc_start:.0f}, {a.arc_end:.0f}] m, {a.duration_s:.0f} s"
        )


def run_seasonal(world, args):
    from repro.core.arrival.seasonal import SlotScheme, seasonal_index
    from repro.core.server.training import (
        fit_slot_scheme,
        history_from_ground_truth,
    )
    from repro.eval.ascii_viz import render_seasonal

    sim = world.simulator
    days = 2 if args.quick else 3
    history = history_from_ground_truth(
        sim.run(sim.default_schedules(headway_s=900.0), num_days=days)
    )
    segment = world.scenario.corridor_segment_ids[12]
    si = seasonal_index(history, segment, SlotScheme.hourly())
    print(f"  hourly seasonal index of {segment} (Eq. 6):")
    print(render_seasonal(si))
    slots = fit_slot_scheme(history, world.scenario.corridor_segment_ids)
    hours = [b / 3600.0 for b in slots.boundaries]
    print(f"  learned slot boundaries (h): {[round(h, 1) for h in hours]}")


def run_metrics(world, args):
    import json

    from repro.core.server.metrics import format_snapshot
    from repro.eval.synth_city import build_linear_city

    city = build_linear_city(
        num_routes=4 if args.quick else 10,
        sessions_per_route=3 if args.quick else 8,
        hub_every=2,
    )
    city.replay()
    api = city.api
    api.departures(city.hub_stop_id, now=city.now)
    hub_rid = city.hub_route_ids[0]
    api.plan_trip(
        city.stop_id_on(hub_rid, 0), city.hub_stop_id, now=city.now
    )
    api.live_positions(now=city.now)
    if getattr(args, "json", False):
        print(json.dumps(city.server.metrics_snapshot(), indent=2))
        return
    print(
        f"  synthetic city: {len(city.routes)} routes, "
        f"{city.server.metrics.counter('ingest.sessions_opened')} sessions, "
        f"{len(city.reports)} reports replayed"
    )
    print(format_snapshot(city.server.metrics_snapshot()))


# -- durability subcommands (repro.pipeline against the synthetic city) -----


def _durable_city(quick: bool):
    """The synthetic city the durability subcommands share.

    Sessions *move* (180 m per 10 s scan), so buses cross segment
    boundaries and the durable pipeline has live travel times to log,
    checkpoint and recover.  Deterministic: ``checkpoint`` and ``replay``
    invocations with the same ``--quick`` flag build identical twins.
    """
    from repro.eval.synth_city import build_linear_city

    return build_linear_city(
        num_routes=3 if quick else 8,
        sessions_per_route=3 if quick else 6,
        reports_per_session=6,
        stops_per_route=6,
        segments_per_route=5,
        route_length_m=1500.0,
        hub_every=3,
        aps_per_route=8,
        move_m_per_report=180.0,
    )


def run_checkpoint_cmd(args) -> None:
    from repro.pipeline import DurableServer

    city = _durable_city(args.quick)
    with DurableServer(
        city.server,
        args.data_dir,
        max_batch=16,
        checkpoint_every=50,
        max_segment_records=256,
    ) as durable:
        recovery = durable.last_recovery
        if recovery is not None and recovery.last_seq is not None:
            print(f"  resumed from existing state (seq {recovery.last_seq})")
        durable.submit_many(city.reports)
    counters = city.server.metrics.counters
    print(
        f"  ingested {len(city.reports)} reports durably into {args.data_dir}"
    )
    print(
        f"  wal: {counters.get('wal.appends', 0)} appends in "
        f"{counters.get('wal.flushes', 0)} flushes "
        f"({counters.get('wal.fsyncs', 0)} fsyncs, "
        f"{counters.get('wal.rotations', 0)} rotations)"
    )
    print(
        f"  batch: {counters.get('batch.flushes', 0)} batches, "
        f"{counters.get('batch.dropped', 0)} dropped; "
        f"checkpoints written: {counters.get('checkpoint.writes', 0)}"
    )


def run_wal_stat(args) -> None:
    from repro.pipeline import wal_stat
    from repro.pipeline.replay import WAL_SUBDIR

    stat = wal_stat(f"{args.data_dir}/{WAL_SUBDIR}")
    print(
        f"  {stat['records']} records (seq {stat['first_seq']}..."
        f"{stat['last_seq']}) in {stat['segments']} segments, "
        f"{stat['bytes']} bytes"
    )
    for seg in stat["per_segment"]:
        line = (
            f"  {seg['file']}: {seg['records']} records "
            f"(seq {seg['first_seq']}...{seg['last_seq']}), {seg['bytes']} B"
        )
        if seg["error"]:
            line += f"  [DAMAGED: {seg['error']}]"
        print(line)
    if stat["truncated"]:
        print(f"  log truncated early: {stat['error']}")


def run_replay_cmd(args) -> None:
    from repro.core.server.metrics import format_snapshot
    from repro.pipeline import recover

    city = _durable_city(args.quick)  # virgin twin: same static config
    report = recover(city.server, args.data_dir)
    for line in report.summary().splitlines():
        print(f"  {line}")
    print(
        f"  recovered {city.server.metrics.counter('ingest.sessions_opened')} sessions, "
        f"{len(city.server.predictor.live.segment_ids())} segments with "
        "live travel times"
    )
    departures = city.api.departures(city.hub_stop_id, now=city.now)
    for entry in departures[:5]:
        print(
            f"  departure {entry.route_id}/{entry.session_key}: "
            f"eta {entry.eta_in_s:.0f} s, {entry.distance_away_m:.0f} m away"
        )
    print(format_snapshot(city.server.metrics_snapshot()))


def _print_health(health: dict) -> None:
    print(f"  status: {health['status']}")
    for key in ("breaker", "wal", "guard", "stats", "sessions"):
        section = health.get(key)
        if not isinstance(section, dict):
            continue
        print(f"  {key}:")
        for name, value in section.items():
            if isinstance(value, dict):
                inner = ", ".join(f"{k}={v}" for k, v in value.items())
                print(f"    {name}: {inner}")
            else:
                print(f"    {name}: {value}")
    print(f"  degraded_reports: {health.get('degraded_reports', 0)}")


def run_health_cmd(args) -> None:
    """A self-contained chaos drill, then the server's health report.

    The synthetic city's report stream is corrupted by a seeded
    :class:`ChaosInjector` (duplicates, clock skew, truncated scans,
    drops) and ingested through a strict-guarded :class:`DurableServer`
    whose disk injects fsync failures — all in a temporary directory.
    The printed health report shows what a degraded deployment looks
    like: quarantine reason codes, breaker state, WAL damage accounting.
    """
    import tempfile

    from repro.guard import (
        ChaosConfig,
        ChaosInjector,
        FaultyFS,
        GuardConfig,
        IngestGuard,
    )
    from repro.pipeline import DurableServer

    city = _durable_city(args.quick)
    server = city.server
    # The paper-plausible strict profile, minus the dBm band: the synthetic
    # city uses a pseudo-RSS scale a real band would falsely reject.
    server.guard = IngestGuard(
        GuardConfig.strict(rss_band_dbm=None, reject_negative_t=False),
        metrics=server.metrics,
    )
    injector = ChaosInjector(
        ChaosConfig(drop_p=0.02, duplicate_p=0.05, clock_skew_p=0.03, truncate_p=0.03),
        seed=11,
    )
    corrupted = injector.corrupt(sorted(city.reports, key=lambda r: r.t))
    fs = FaultyFS()
    with tempfile.TemporaryDirectory() as tmp:
        durable = DurableServer(
            server,
            tmp,
            max_batch=16,
            fs=fs,
            breaker_threshold=2,
            breaker_probe_after=32,
        )
        fs.schedule_fsync_failures(3)
        for report in corrupted:  # delivered order — sorting would undo faults
            durable.submit(report)
        durable.flush()
        health = durable.health()
        durable.close()
    if getattr(args, "json", False):
        import json

        print(json.dumps(health, indent=2))
        return
    print(
        f"  chaos drill: {len(corrupted)} reports delivered "
        f"({injector.total_injected} stream faults injected, "
        f"{fs.counters.get('fsync_failures', 0)} fsync failures)"
    )
    _print_health(health)


def run_cluster_cmd(args) -> None:
    """The cluster acceptance story: accuracy parity, then failover.

    Runs the cross-shard accuracy experiment (single server vs a
    pair-splitting cluster with and without the delta bus) and the
    chaos-crash failover drill in a temporary directory; ``--json``
    emits both results machine-readably for CI smoke to consume.
    """
    import tempfile
    from dataclasses import asdict

    from repro.cluster import run_accuracy, run_failover_drill

    accuracy = run_accuracy(
        num_pairs=1 if args.quick else 2,
        feeder_sessions=2 if args.quick else 3,
    )
    with tempfile.TemporaryDirectory() as tmp:
        drill = run_failover_drill(tmp)
    health = _cluster_health_snapshot(args.quick)
    if getattr(args, "json", False):
        import json

        print(
            json.dumps(
                {
                    "accuracy": asdict(accuracy),
                    "failover": asdict(drill),
                    "health": health,
                },
                indent=2,
            )
        )
        return
    print("  accuracy (overlapped pairs split across shards):")
    for line in accuracy.summary().splitlines():
        print(f"    {line}")
    print("  failover drill (crash the feeder shard mid-run):")
    for line in drill.summary().splitlines():
        print(f"    {line}")
    bus = health["bus"]
    lag = ", ".join(
        f"shard {sid}: {n}" for sid, n in bus["lag_by_subscriber"].items()
    )
    print("  live cluster health:")
    print(f"    status {health['status']}, backlog {bus['backlog']} "
          f"(per subscriber: {lag or 'none'})")
    print(f"    reshard phase: {health['reshard']['phase']} "
          f"(hold_active={health['reshard']['hold_active']}, "
          f"parked={health['reshard']['parked']})")


def _cluster_health_snapshot(quick: bool) -> dict:
    """A warm cluster's ``health()``: per-subscriber delta-bus lag plus
    the live reshard phase — the surface the autoscaler and an operator
    dashboard both read."""
    from repro.cluster.build import build_cluster
    from repro.eval.synth_city import build_overlap_city
    from repro.cluster.experiment import split_pairs_plan

    city = build_overlap_city(
        num_pairs=1 if quick else 2, feeder_sessions=2, query_sessions=2
    )
    router = build_cluster(city.server, split_pairs_plan(city, 2))
    router.ingest_many(sorted(city.reports, key=lambda r: r.t))
    router.flush()
    router.pump(now=city.now)
    return router.health()


def run_elastic_cmd(args) -> None:
    """The elastic-reshard chaos drill, then ``BENCH_elastic.json``.

    Runs the full scenario matrix (see :mod:`repro.elastic.drill`): a
    clean autoscaled split under a corrupted stream, one injected fault
    per migration phase with clean rollback, two coordinator-death
    resumes, and a cold-shard merge — every scenario ending in byte
    parity with a never-resharded twin.  The artifact written to
    ``--out`` is the committed benchmark the tier-1 shape gate checks.
    """
    import json
    import tempfile

    from repro.elastic.drill import bench_artifact, run_elastic_drill

    with tempfile.TemporaryDirectory() as tmp:
        result = run_elastic_drill(tmp)
    artifact = bench_artifact(result)
    out = args.out or "BENCH_elastic.json"
    with open(out, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if getattr(args, "json", False):
        print(json.dumps(artifact, indent=2, sort_keys=True))
    else:
        for line in result.summary().splitlines():
            print(f"  {line}")
    print(f"  wrote {out}")


def run_fusion_cmd(args) -> None:
    """The AP-outage fusion drill, then ``BENCH_fusion.json``.

    Runs two identical synthetic cities through the same WiFi stream —
    one also fed calibrated GPS/BLE/cell observations — drops a 100 s
    WiFi window mid-route, and measures both backends' fused-position
    error through the outage (see :mod:`repro.eval.outage`).  The
    artifact written to ``--out`` is the committed benchmark the tier-1
    shape gate checks; the drill is seeded and fully deterministic, so
    the file is byte-reproducible.
    """
    import json

    from repro.eval.outage import bench_artifact, run_outage_drill

    result = run_outage_drill(quick=args.quick)
    artifact = bench_artifact(result)
    out = args.out or "BENCH_fusion.json"
    with open(out, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if getattr(args, "json", False):
        print(json.dumps(artifact, indent=2, sort_keys=True))
    else:
        drill = artifact["drill"]
        print(
            f"  healthy: fused {drill['healthy']['fused_mae_m']:.1f} m vs "
            f"wifi-only {drill['healthy']['wifi_only_mae_m']:.1f} m over "
            f"{drill['healthy']['ticks']} ticks (identical by design)"
        )
        print(
            f"  outage:  fused {drill['outage']['fused_mae_m']:.1f} m vs "
            f"wifi-only {drill['outage']['wifi_only_mae_m']:.1f} m over "
            f"{drill['outage']['ticks']} ticks"
        )
        cal = drill["gps_calibration"]
        print(
            f"  learned GPS calibration: clock skew {cal['clock_skew_s']:.2f} s "
            f"(injected {artifact['config']['gps_skew_s']} s), "
            f"noise {cal['noise_m']:.1f} m over {cal['samples']} co-observations"
        )
    print(f"  wrote {out}")


def run_serve_cmd(args) -> None:
    """Start the HTTP front door on a warm synthetic-city backend.

    ``--backend`` picks the deployment shape: ``plain`` (in-memory
    server), ``durable`` (WAL + micro-batcher under ``--data-dir``) or
    ``cluster`` (4 in-memory shards behind the router).  The city's
    reports are replayed first so rider queries answer immediately;
    the hub stop id and clock are printed for curl-ability.
    """
    import asyncio

    from repro.serving import HttpServer, make_app

    city = _durable_city(args.quick)
    if args.backend == "plain":
        backend = city.server
        city.replay()
    elif args.backend == "cluster":
        from repro.cluster.build import build_cluster
        from repro.cluster.plan import ShardPlan

        backend = build_cluster(city.server, ShardPlan.build(city.routes, 4))
        backend.ingest_many(city.reports)
        backend.flush()
    else:
        from repro.pipeline import DurableServer

        backend = DurableServer(city.server, args.data_dir, max_batch=64)
        backend.submit_many(city.reports)
        backend.flush()
    app = make_app(backend)
    print(f"  backend: {args.backend}; hub stop: {city.hub_stop_id!r}; "
          f"query clock now={city.now}")
    print(f"  try: curl 'http://{args.host}:{args.port}"
          f"/v1/departures?stop={city.hub_stop_id}&now={city.now}'")
    try:
        asyncio.run(HttpServer(app.dispatch).serve_forever(
            args.host, args.port
        ))
    except KeyboardInterrupt:
        pass
    finally:
        if args.backend == "durable":
            backend.close()


def run_loadgen_cmd(args) -> None:
    """Run the open-loop serving benchmark and write ``BENCH_serving.json``.

    Fires the deterministic rising-QPS schedule at both the durable
    single node and the 4-shard cluster (each behind the real asyncio
    front door on an ephemeral port) and writes per-endpoint
    p50/p95/p99 per stage to ``--out``.
    """
    from repro.serving.experiment import run_serving_benchmark

    out = args.out or "BENCH_serving.json"
    artifact = run_serving_benchmark(out, quick=args.quick)
    if getattr(args, "json", False):
        import json

        print(json.dumps(artifact, indent=2, sort_keys=True))
        return
    for backend_name, backend in artifact["backends"].items():
        print(f"  {backend_name}:")
        for stage in backend["stages"]:
            worst = max(
                (ep["p99_ms"] for ep in stage["endpoints"].values()),
                default=0.0,
            )
            print(
                f"    {stage['offered_qps']:6.0f} qps offered -> "
                f"{stage['achieved_qps']:6.1f} achieved, "
                f"errors={stage['errors']}, worst p99={worst:.2f} ms"
                f"{'  [SATURATED]' if stage['saturated'] else ''}"
            )
    print(f"  wrote {out}")


def run_lifecycle_cmd(args) -> None:
    """Model-lifecycle operations against the registry at ``--registry-dir``.

    Every action rebuilds the deterministic synthetic city as the live
    server; the registry directory is the state that persists between
    invocations (snapshots, manifest, serving/previous pointers):

    * ``status``   — replay the city, print the manager's full status;
    * ``retrain``  — replay, refit a candidate from the live window and
      snapshot it into the registry;
    * ``promote``  — replay the first half, retrain, shadow-score the
      candidate on the second half, then run the real promotion gate;
    * ``rollback`` — re-point serving to the previous version (the
      reinstalled model is byte-identical to the pre-promotion snapshot);
    * ``bench``    — run the regime-change drill end to end and write
      the ``BENCH_lifecycle.json`` artifact to ``--out``.
    """
    import json

    from repro.lifecycle import (
        LifecycleConfig,
        LifecycleManager,
        ModelRegistry,
        RetrainConfig,
    )

    if args.action == "bench":
        import tempfile

        from repro.eval.regime import bench_artifact, run_regime_change

        with tempfile.TemporaryDirectory() as tmp:
            result = run_regime_change(tmp, quick=args.quick)
        artifact = bench_artifact(result)
        out = args.out or "BENCH_lifecycle.json"
        with open(out, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if getattr(args, "json", False):
            print(json.dumps(artifact, indent=2, sort_keys=True))
        else:
            drill = artifact["drill"]
            print(
                f"  pre-shift MAE {drill['pre_shift_mae_s']:.1f} s -> "
                f"frozen {drill['post_shift_frozen_mae_s']:.1f} s -> "
                f"promoted {drill['post_promotion_mae_s']:.1f} s"
            )
            print(
                f"  shadow: candidate {drill['shadow']['candidate_mae_s']:.1f} s "
                f"vs serving {drill['shadow']['serving_mae_s']:.1f} s over "
                f"{drill['shadow']['samples']} samples; "
                f"{drill['drift_alarms']} drift alarms"
            )
            print(
                f"  {drill['bootstrap_version']} -> {drill['promoted_version']} "
                f"promoted; rollback byte-identical: "
                f"{drill['rollback_byte_identical']}"
            )
        print(f"  wrote {out}")
        return

    city = _durable_city(args.quick)
    registry = ModelRegistry(args.registry_dir)
    manager = LifecycleManager(
        city.server,
        registry,
        LifecycleConfig(
            retrain=RetrainConfig(min_records=10),
            min_shadow_samples=5,
            auto_retrain=False,
        ),
    )
    if registry.serving_version is not None:
        manager.install_serving()
    manager.attach()
    reports = sorted(city.reports, key=lambda r: (r.t, r.session_key))

    if args.action == "rollback":
        try:
            result = manager.rollback()
        except ValueError as exc:
            print(f"  rollback refused: {exc}")
            return
        print(f"  serving rolled back to {result['version']}")
        print(f"  previous (re-rollback target): {registry.previous_version}")
        return

    if args.action == "status":
        city.server.ingest_many(reports)
        print(json.dumps(manager.status(), indent=2, sort_keys=True))
        return

    if args.action == "retrain":
        city.server.ingest_many(reports)
        result = manager.retrain()
        if not result["ok"]:
            print(f"  retrain skipped: {result['reason']}")
            return
        meta = result["meta"]
        print(
            f"  candidate {result['version']}: {meta['records']} records "
            f"over {meta['segments']} segments "
            f"({meta['fresh_records']} fresh, {meta['carried_records']} carried)"
        )
        print(f"  registry: {args.registry_dir} now holds {registry.versions()}")
        return

    # promote: retrain on the first half, shadow-score on the second,
    # then the real gate decides.
    half = len(reports) // 2
    city.server.ingest_many(reports[:half])
    retrained = manager.retrain()
    if not retrained["ok"]:
        print(f"  retrain skipped: {retrained['reason']}")
        return
    city.server.ingest_many(reports[half:])
    result = manager.try_promote()
    print(f"  gate: {result['reason']}")
    if result["ok"]:
        print(
            f"  promoted {result['version']}; rollback target: "
            f"{registry.previous_version}"
        )
    else:
        print("  candidate kept in shadow (not promoted)")


SERVING_CMDS = {
    "serve": (
        "HTTP front door over a warm synthetic-city backend",
        run_serve_cmd,
    ),
    "loadgen": (
        "Open-loop serving benchmark -> BENCH_serving.json",
        run_loadgen_cmd,
    ),
    "lifecycle": (
        "Model lifecycle: status/retrain/promote/rollback/bench",
        run_lifecycle_cmd,
    ),
}

DURABILITY_CMDS = {
    "checkpoint": (
        "Durable ingest of the synthetic city (WAL + checkpoints)",
        run_checkpoint_cmd,
    ),
    "wal-stat": ("Write-ahead-log segment table", run_wal_stat),
    "replay": ("Crash recovery: checkpoint + WAL suffix replay", run_replay_cmd),
    "health": (
        "Chaos drill: guarded ingest under injected faults, then health",
        run_health_cmd,
    ),
    "cluster": (
        "Sharded cluster: cross-shard accuracy parity + failover drill",
        run_cluster_cmd,
    ),
    "elastic": (
        "Elastic reshard chaos drill -> BENCH_elastic.json",
        run_elastic_cmd,
    ),
    "fusion": (
        "Multi-sensor AP-outage drill -> BENCH_fusion.json",
        run_fusion_cmd,
    ),
}

# Experiments that never touch the (expensive) corridor world.
WORLDLESS = {"metrics"} | set(DURABILITY_CMDS) | set(SERVING_CMDS)

EXPERIMENTS = {
    "table1": ("Table I: the four investigated routes", run_table1),
    "seasonal": ("Section V.B: seasonal index and learned slots", run_seasonal),
    "table2": ("Table II: campus RSSI at A/B/C", run_table2),
    "fig8a": ("Fig. 8(a): positioning error CDF per route", run_fig8a),
    "fig8b": ("Fig. 8(b): prediction error CDF vs agency", run_fig8b),
    "fig8c": ("Fig. 8(c): prediction error vs stops ahead", run_fig8c),
    "fig9a": ("Fig. 9(a): error vs number of APs", run_fig9a),
    "fig9b": ("Fig. 9(b): error vs SVD order", run_fig9b),
    "fig10": ("Fig. 10: campus positioning", run_fig10),
    "fig11": ("Fig. 11: traffic maps + anomaly", run_fig11),
    "metrics": ("Server metrics snapshot (synthetic replay)", run_metrics),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        # The invariant checker has its own argument surface (paths,
        # --baseline, --write-baseline, --json); delegate wholesale.
        from repro.analysis.cli import main as analyze_main

        return analyze_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the WiLocator paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=(
            f"which to run: {', '.join(EXPERIMENTS)} or 'all'; durability "
            f"subcommands: {', '.join(DURABILITY_CMDS)}; serving "
            f"subcommands: {', '.join(SERVING_CMDS)}"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads (sparser APs, fewer days)",
    )
    parser.add_argument(
        "--data-dir",
        default="./wilocator-data",
        help="durable state directory for checkpoint/wal-stat/replay",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (metrics, health, cluster, loadgen)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address for 'serve'"
    )
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port for 'serve'"
    )
    parser.add_argument(
        "--backend",
        choices=("plain", "durable", "cluster"),
        default="durable",
        help="deployment shape behind 'serve'",
    )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "output artifact path (loadgen -> BENCH_serving.json, "
            "lifecycle bench -> BENCH_lifecycle.json, "
            "elastic -> BENCH_elastic.json)"
        ),
    )
    parser.add_argument(
        "--action",
        choices=("status", "retrain", "promote", "rollback", "bench"),
        default="status",
        help="what the 'lifecycle' subcommand does",
    )
    parser.add_argument(
        "--registry-dir",
        default="./wilocator-models",
        help="model registry directory for 'lifecycle'",
    )
    args = parser.parse_args(argv)

    chosen = list(args.experiments) or ["all"]
    if "all" in chosen:
        # 'all' covers the paper experiments; durability subcommands
        # mutate --data-dir and only run when named explicitly.
        chosen = list(EXPERIMENTS)
    unknown = [
        c
        for c in chosen
        if c not in EXPERIMENTS
        and c not in DURABILITY_CMDS
        and c not in SERVING_CMDS
    ]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    world = None
    for name in chosen:
        if name not in WORLDLESS and world is None:
            world = _world(args.quick)
        title, fn = EXPERIMENTS.get(
            name, DURABILITY_CMDS.get(name, SERVING_CMDS.get(name))
        )
        print("=" * 72)
        print(title)
        print("=" * 72)
        start = time.perf_counter()
        if name in DURABILITY_CMDS or name in SERVING_CMDS:
            fn(args)
        else:
            fn(world, args)
        print(f"[{name} done in {time.perf_counter() - start:.1f} s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
