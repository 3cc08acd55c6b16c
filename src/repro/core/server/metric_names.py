"""The central registry of every metric name the system may emit.

Why a registry: checkpointed metrics counters are **crash state**, not
just observability.  ``cluster.delta_out_seq`` and the
``cluster.applied_from.<origin>`` family carry replication sequence
numbers through checkpoint/restore (PR 4), and recovery replays against
the counter values it reads back (PR 2) — so an undeclared or misspelled
name silently corrupts recovery instead of failing loudly.  The WL002
rule in :mod:`repro.analysis` statically checks that every name reaching
``metrics.incr``/``counter``/``observe``/``timer``/``latency`` is
declared here (it *parses* this file, so keep the two literals below as
plain displays — no computed values).

``METRIC_NAMES`` declares exact names (counters and latency stages
alike); ``METRIC_PREFIXES`` declares dynamic families whose tail is
runtime data (a rejection reason, a breaker name, a shard id).
"""

from __future__ import annotations

METRIC_NAMES: frozenset[str] = frozenset({
    # -- latency stages (ServerMetrics.observe/timer/latency) ----------------
    "admission",
    "fusion",
    "ingest",
    "position_fix",
    "predict",
    "query",
    "wal_flush",
    "batch_flush",
    "checkpoint",
    "replay",
    "retrain",
    # -- core server ingest / query counters ---------------------------------
    "ingest.reports",
    "ingest.unroutable",
    "ingest.rider_unmatched",
    "ingest.sessions_opened",
    "ingest.positions_fixed",
    "ingest.traversals_extracted",
    "predict.calls",
    "predict.reused",
    "query.departures",
    "query.plan_trip",
    "query.live_positions",
    "query.traversals",
    # -- guard (admission control, PR 3) -------------------------------------
    "guard.admitted",
    "guard.rejected",
    "guard.bssid_demotions",
    "guard.readings_filtered",
    "guard.internal_errors",
    # -- durable pipeline (PR 2); wal.* and checkpoint.* are recovery state --
    "wal.appends",
    "wal.flushes",
    "wal.fsyncs",
    "wal.rotations",
    "wal.flush_failures",
    "wal.dropped_records",
    "wal.repaired_bytes",
    "batch.submitted",
    "batch.dropped",
    "batch.flushes",
    "batch.flushed_reports",
    "batch.sink_errors",
    "checkpoint.writes",
    "checkpoint.skipped",
    "checkpoint.failures",
    "replay.runs",
    "replay.records",
    "pipeline.degraded_reports",
    # -- cluster (PR 4); delta_out_seq is checkpointed replication state -----
    "cluster.delta_out_seq",
    "cluster.deltas_published",
    "cluster.deltas_applied",
    "cluster.deltas_deduped",
    "cluster.deltas_filtered",
    "cluster.deltas_stale",
    "cluster.delta_gaps",
    "cluster.outbox_dropped",
    "cluster.ingest_routed",
    "cluster.ingest_rejected",
    "cluster.rider_routed",
    "cluster.rider_unmatched",
    "cluster.predict_degraded",
    "cluster.query_shard_skipped",
    "cluster.shard_crashes",
    "cluster.shard_restores",
    "cluster.shard_errors",
    # -- serving front door (PR 6); per-endpoint latency stages + counters ---
    "serving.requests",
    "serving.errors",
    "serving.slo_violations",
    "serving.scans",
    "serving.rider_scans",
    "serving.departures",
    "serving.trip_plan",
    "serving.positions",
    "serving.position",
    "serving.arrival",
    "serving.sessions",
    "serving.traffic_map",
    "serving.health",
    "serving.metrics",
    "serving.models",
    # -- model lifecycle (PR 7): retrain / shadow / promotion / drift --------
    "lifecycle.installs",
    "lifecycle.retrains",
    "lifecycle.retrain_skipped",
    "lifecycle.snapshots_written",
    "lifecycle.promotions",
    "lifecycle.promotions_rejected",
    "lifecycle.rollbacks",
    "lifecycle.shadow_samples",
    "lifecycle.shadow_queries",
    "lifecycle.shadow_query_misses",
    "lifecycle.drift_alarms",
    # -- elastic resharding (PR 8): migration engine + autoscaler ------------
    "reshard.migrations_started",
    "reshard.migrations_committed",
    "reshard.migrations_aborted",
    "reshard.migrations_resumed",
    "reshard.parked_reports",
    "reshard.resubmitted_reports",
    "reshard.handoff_sessions",
    "reshard.handoff_records",
    "reshard.catchup_replayed",
    "reshard.synced_records",
    "reshard.pruned_sessions",
    "reshard.pruned_records",
    "autoscale.evaluations",
    "autoscale.split_proposals",
    "autoscale.merge_proposals",
    "autoscale.holds",
    # -- multi-sensor fusion (PR 9): observation intake + calibrated blend ---
    "fusion.observations",
    "fusion.wifi_reports",
    "fusion.stored",
    "fusion.rejected",
    "fusion.expired",
    "fusion.anchors",
    "fusion.calibrations",
    "fusion.fused_fixes",
    "fusion.fallback_anchor",
    "fusion.corrections_bounded",
    "fusion.routed",
    "fusion.route_rejected",
    "serving.observations",
})

# Dynamic families: the literal head of an f-string metric name must match
# one of these.  The tails are runtime data (closed rejection-reason
# taxonomy, breaker names, delta origin shard ids).
METRIC_PREFIXES: tuple[str, ...] = (
    "breaker.",
    "cluster.applied_from.",
    "fusion.rejected.",
    "guard.rejected.",
    "serving.errors.",
    "serving.slo.",
)


def is_declared(name: str) -> bool:
    """Whether ``name`` is a registered metric name (exact or by family)."""
    return name in METRIC_NAMES or name.startswith(METRIC_PREFIXES)
