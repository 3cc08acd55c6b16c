"""WiLocator end-to-end benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rider_mix --seed 1 --seconds 18 --trace 0

Workloads (see ``workloads.py``): ``rider_mix``, ``noisy_scans``,
``cluster_mix``.  Each run

1. writes the recovery WAL: an in-process ``DurableServer`` replica fed
   the stream's first ``recovery_scans`` scans, with a checkpoint after
   three quarters of them;
2. starts the server process (``launcher.py``) and times it to "ready"
   (city build, warm replay, server start): one ``setup_s`` sample;
3. sends the seeded warm-up, closed loop over two connections (only its
   scans, but its last ``WARMUP_FULL`` requests in full);
4. runs ``ROUNDS`` rounds, each of
   a closed-loop chunk over two connections (``WINDOWS_PER_ROUND``
   goodput windows),
   an open-loop chunk at the workload's fixed offered rate (each request
   timed from its due time), and,
   while the server idles, one timed ``recover()`` of a fresh twin from
   the recovery WAL (one ``recovery_s`` sample); after rounds
   ``SETUP_ROUNDS`` a second server process is started and stopped (one
   more ``setup_s`` sample).  The server publishes a checkpoint before
   the open-loop chunk of round ``ROUNDS // 2``;
5. sends the correctness probes, stops the server and runs the gate
   (``gate.py``): every reply 200, every scan ack ``accepted ==
   submitted``, probe bytes equal to each replica's and to a twin
   recovered from the run's own WAL.

The host this benchmark was tuned on changes speed by up to 1.8x in
phases of seconds to a minute, so every metric's samples are spread over
the whole run.  ``p50_ms`` and ``p95_ms`` are exact nearest-rank
percentiles over all open-loop requests.  ``goodput_rps`` is the
``GOODPUT_PERCENTILE``-th percentile of the closed loop's goodput
windows: the rate the server sustains while the host runs at full speed.
``recovery_s`` is the fastest recovery (every recovery does the same
work, so the fastest is the one the host disturbed least); ``setup_s``
is the median of its samples.

With ``--trace 1`` the rounds' closed-loop chunks run untraced and traced
in the pattern U T T U U T T U, the open-loop chunks and the recoveries
are traced, and the run prints and reports only the per-layer metrics;
end-to-end figures come from untraced runs.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if the gate passed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_ROUNDS = (1, 4, 7)
WINDOWS_PER_ROUND = 4
GOODPUT_PERCENTILE = 90.0
QUERY_ENDPOINTS = ("departures", "positions", "trip_plan")
SAMPLED_ENDPOINTS = ("scans",) + QUERY_ENDPOINTS


def _fail_without_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)


class ServerProcess:
    """The launcher subprocess and its line-oriented JSON control channel."""

    def __init__(self, workload: str, data_dir: Path) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), "--workload", workload,
             "--data-dir", str(data_dir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            self.port = self._read()["ready"]
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def stop(self) -> dict:
        reply = self.command("stop")
        self.proc.wait(timeout=60)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


class Recoveries:
    """Timed ``recover()`` of fresh twins from one fixed recovery WAL."""

    def __init__(self, spec, stream, probes, data_dir: Path, trace: bool) -> None:
        import gate as gates
        from tracing import Tracer

        scans = [raw for endpoint, raw in stream if endpoint == "scans"][:spec.recovery_scans]
        cut = len(scans) * 3 // 4
        self.spec, self.probes, self.data_dir = spec, probes, data_dir
        self.want = gates.durable_replica(spec, scans[:cut], scans[cut:], probes, data_dir)
        self.times: list[float] = []
        self.problems: list[str] = []
        self.tracer = Tracer() if trace else None

    def sample(self) -> None:
        import gate as gates

        if self.tracer is not None:
            self.tracer.install()
        try:
            seconds, got = gates.recovered_twin(self.spec, self.data_dir, self.probes)
        finally:
            if self.tracer is not None:
                self.tracer.remove()
        self.times.append(seconds)
        self.problems += _compare("twin recovered from the recovery WAL", self.probes,
                                  self.want, got)
        # Leave no garbage from the twin for a collection during the next round.
        gc.collect()


def provenance(args, spec, sizes) -> dict:
    from workloads import ROUNDS

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": ROUNDS,
        "warmup_requests": sizes[0],
        "closed_loop_requests": ROUNDS * sizes[1],
        "open_loop_requests": ROUNDS * sizes[2],
        "recovery_scans": spec.recovery_scans,
        "offered_rate_rps": spec.open_rps,
        "connections": 2,
    }


def _goodput(samples, elapsed: float) -> float:
    from repro.serving.app import ENDPOINTS

    slo = {ep.name: ep.slo_s for ep in ENDPOINTS}
    good = sum(1 for s in samples if s.status == 200 and s.latency_s <= slo[s.endpoint])
    return good / elapsed


def nearest_rank(values, q: float) -> float:
    """Exact nearest-rank ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def goodput_windows(closed) -> list[float]:
    """Goodput of ``WINDOWS_PER_ROUND`` equal-count windows of one closed-loop chunk.

    Windows follow completion order; each runs from the previous window's
    last reply (the chunk's first send, for the first) to its own last reply.
    """
    done = sorted(closed, key=lambda s: s.done)
    start = min(s.sent for s in closed)
    rates = []
    for j in range(WINDOWS_PER_ROUND):
        window = done[len(done) * j // WINDOWS_PER_ROUND:
                      len(done) * (j + 1) // WINDOWS_PER_ROUND]
        rates.append(_goodput(window, window[-1].done - start))
        start = window[-1].done
    return rates


def drive(server: ServerProcess, stream, sizes, probes, spec, trace: bool,
          between_rounds) -> dict:
    """Run the warm-up, the rounds and the probes against a started server."""
    from client import closed_loop, open_loop, send_sequential
    from workloads import ROUNDS, WARMUP_FULL

    warm, n_closed, n_open = sizes
    port = server.port
    segments = {"untraced": [[], 0.0], "traced": [[], 0.0]}
    out: dict = {"rounds": [], "closed": [], "open": [], "segments": segments}
    warm_at = [i for i in range(warm) if i >= warm - WARMUP_FULL or stream[i][0] == "scans"]
    out["warmup"], _ = asyncio.run(closed_loop(port, [stream[i] for i in warm_at], warm_at))
    at = warm
    for k in range(ROUNDS):
        # U T T U U T T U: linear drift in server state cancels between the halves.
        traced_closed = trace and k % 4 in (1, 2)
        if traced_closed:
            server.command("trace_on")
        closed, closed_s = asyncio.run(
            closed_loop(port, stream[at:at + n_closed], range(at, at + n_closed)))
        at += n_closed
        if trace and not traced_closed:
            server.command("trace_on")
        if k == ROUNDS // 2:
            server.command("checkpoint")
        opened, open_s = asyncio.run(
            open_loop(port, stream[at:at + n_open], spec.open_rps, first_index=at))
        at += n_open
        if trace:
            server.command("trace_off")
        segment = segments["traced" if traced_closed else "untraced"]
        segment[0].extend(closed)
        segment[1] += closed_s
        out["rounds"].append({"closed": closed, "closed_s": closed_s, "open": opened})
        out["closed"].extend(closed)
        out["open"].extend(opened)
        between_rounds(k)
    out["report"] = server.command("report")
    out["probe_responses"] = asyncio.run(send_sequential(port, probes))
    out["final"] = server.stop()
    return out


def run_gate(spec, stream, run: dict, probes, work: Path) -> list[str]:
    """Correctness checks of the run's answers; returns the problems found."""
    import gate as gates
    from workloads import ROUNDS

    problems: list[str] = []
    chunks = [run["warmup"]] + [c for r in run["rounds"] for c in (r["closed"], r["open"])]
    # The checkpoint came before the open-loop chunk of round ROUNDS // 2.
    before_checkpoint = 2 + 2 * (ROUNDS // 2)
    scans = [[stream[s.index][1] for s in chunk if s.endpoint == "scans"] for chunk in chunks]
    acks = [s.body for chunk in chunks for s in chunk if s.endpoint == "scans"]
    before = [raw for chunk in scans[:before_checkpoint] for raw in chunk]
    after = [raw for chunk in scans[before_checkpoint:] for raw in chunk]
    want = run["probe_responses"]
    twin_acks, twin_probes = gates.plain_twin(spec, before + after, probes)
    if twin_acks != acks:
        problems.append("scan acks differ from the plain twin's")
    problems += _compare("plain twin", probes, want, twin_probes)
    if spec.backend == "cluster":
        wal_dir = work / "replica"
        problems += _compare(
            "durable replica (rider_mix backend)",
            probes,
            want,
            gates.durable_replica(spec, before, after, probes, wal_dir),
        )
    else:
        wal_dir = work / "server"
    _, recovered = gates.recovered_twin(spec, wal_dir, probes)
    problems += _compare("twin recovered from the run's WAL", probes, want, recovered)
    return problems


def _compare(who: str, probes, want, got) -> list[str]:
    return [
        f"{who}: {name} response differs"
        for (name, _), a, b in zip(probes, want, got)
        if a != b
    ]


def _load_samples(run: dict) -> list:
    return run["warmup"] + run["closed"] + run["open"]


def end_to_end(run: dict, setups: list[float], windows: list[float],
               recoveries: list[float], failed: int) -> dict:
    from repro.serving.loadgen import percentile_ms

    attempted = len(_load_samples(run)) + len(run["probe_responses"])
    latencies = [s.latency_s for s in run["open"]]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "goodput_rps": (nearest_rank(windows, GOODPUT_PERCENTILE), "1/s", len(run["closed"])),
        "p50_ms": (percentile_ms(latencies, 50.0), "ms", len(latencies)),
        "p95_ms": (percentile_ms(latencies, 95.0), "ms", len(latencies)),
        "success_ratio": (1.0 - failed / attempted, "ratio", attempted),
        "recovery_s": (min(recoveries), "s", len(recoveries)),
        "peak_rss_mb": (run["final"]["peak_rss_mb"], "MB", 1),
    }


def _failed(run: dict) -> int:
    import gate as gates

    samples = _load_samples(run)
    bad = sum(1 for s in samples if s.status != 200)
    bad += sum(1 for s in samples
               if s.status == 200 and s.endpoint == "scans" and not gates.ack_ok(s.body))
    bad += sum(1 for r in run["probe_responses"] if not r.startswith(b"HTTP/1.1 200 "))
    return bad


def per_layer(run: dict, recoveries: Recoveries) -> dict:
    """The traced run's per-layer metrics (see NOTES.md for definitions)."""
    from repro.core.server.metrics import LatencyHistogram
    from repro.serving.loadgen import percentile_ms

    report = run["report"]
    spans = report["spans"]
    names, tags, edges = spans["names"], spans["tags"], spans["edges"]
    counters = report["counters"]

    def calls(name, table=names):
        return table.get(name, {}).get("calls", 0)

    def mean_us(name, field="total_s", table=names):
        row = table.get(name)
        return row[field] / row["calls"] * 1e6 if row else 0.0

    def per(num, den):
        return num / den if den else 0.0

    traced_samples = run["segments"]["traced"][0] + run["open"]
    by_endpoint = {ep: calls(f"app.dispatch|/v1/{ep.replace('_', '-')}", tags)
                   for ep in SAMPLED_ENDPOINTS}
    traced_queries = sum(by_endpoint[ep] for ep in QUERY_ENDPOINTS)
    # The counter delta stops at "report", before the probes are sent.
    all_queries = sum(1 for s in _load_samples(run) if s.endpoint in QUERY_ENDPOINTS)

    def query_us(ep):
        rows = [edges.get(f"app.dispatch>{layer}.{ep}") for layer in ("rider", "router")]
        rows = [r for r in rows if r]
        n = sum(r["calls"] for r in rows)
        return per(sum(r["total_s"] for r in rows), n) * 1e6

    router_queries = [f"router.{ep}" for ep in QUERY_ENDPOINTS]
    router_names = router_queries + ["router.ingest_many", "router.flush",
                                     "router.metrics_snapshot"]
    fanout = sum(row["calls"] for key, row in edges.items()
                 if key.split(">")[0] in router_queries and key.split(">")[1].startswith("rider."))
    router_calls = sum(calls(n) for n in router_names)
    router_self = sum(names.get(n, {}).get("self_s", 0.0) for n in router_names)

    cache = report["svd_cache"]
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    handle = names.get("http.handle_bytes", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    client_service = statistics.fmean(s.service_s for s in traced_samples)
    untraced, traced = run["segments"]["untraced"], run["segments"]["traced"]
    goodput_u = _goodput(untraced[0], untraced[1])
    goodput_t = _goodput(traced[0], traced[1])
    late = [s.sent - s.due for s in run["open"]]

    ingest = spans["samples"].get("server.ingest_admitted", [])
    hist = LatencyHistogram()
    hist.bucket_counts = list(report["ingest_buckets"])
    hist.count = sum(hist.bucket_counts)
    hist.max_s = max(ingest, default=0.0)

    rec_spans = recoveries.tracer.summary()
    rec = rec_spans["names"]
    n_rec = len(recoveries.times)

    def rec_s(*span_names):
        return sum(rec.get(n, {}).get("total_s", 0.0) for n in span_names) / n_rec

    replay_edge = rec_spans["edges"].get("pipeline.recover>server.ingest_many", {"total_s": 0.0})

    m = {
        "serving.http.parse_us": (mean_us("http.parse_request"), "us"),
        "serving.http.encode_us": (mean_us("http.encode_response"), "us"),
        "serving.app.self_us": (mean_us("app.dispatch", "self_s"), "us"),
        "serving.wire.encode_us": (mean_us("wire.to_wire"), "us"),
        "serving.frontdoor.wait_us": (client_service * 1e6 - mean_us("http.handle_bytes"), "us"),
        **{
            f"serving.handle.{ep}_us": (
                mean_us(f"app.dispatch|/v1/{ep.replace('_', '-')}", table=tags), "us")
            for ep in SAMPLED_ENDPOINTS
        },
        "server.metrics_snapshot_us": (mean_us("server.metrics_snapshot"), "us"),
        "guard.admit_us": (mean_us("server.admit"), "us"),
        "guard.rejected": (counters.get("guard.rejected", 0), "count"),
        "pipeline.durable_self_us": (
            per(names.get("durable.ingest_many", {}).get("self_s", 0.0)
                + names.get("durable.flush", {}).get("self_s", 0.0),
                calls("durable.ingest_many")) * 1e6, "us"),
        "pipeline.wal_append_us": (mean_us("wal.append"), "us"),
        "pipeline.wal_flush_us": (mean_us("wal.flush"), "us"),
        "pipeline.wal_flushes_per_req": (per(calls("wal.flush"), by_endpoint["scans"]), "count"),
        "pipeline.batch_size": (
            per(counters.get("batch.flushed_reports", 0), counters.get("batch.flushes", 0)),
            "count"),
        "pipeline.checkpoint_us": (mean_us("pipeline.write_checkpoint"), "us"),
        "pipeline.read_wal_s": (rec_s("pipeline.read_wal"), "s"),
        "pipeline.restore_s": (rec_s("pipeline.latest_checkpoint", "pipeline.restore_into"), "s"),
        "pipeline.replay_s": (replay_edge["total_s"] / n_rec, "s"),
        "svd.best_matches_us": (mean_us("svd.best_matches"), "us"),
        "svd.match_miss_ratio": (per(cache.get("misses", 0), lookups), "ratio"),
        "svd.misses": (cache.get("misses", 0), "count"),
        "positioning.locate_self_us": (mean_us("positioning.locate", "self_s"), "us"),
        "positioning.process_us": (mean_us("positioning.process"), "us"),
        "server.apply_self_us": (mean_us("server.ingest_admitted", "self_s"), "us"),
        "server.ingest_p95_exact_us": (percentile_ms(ingest, 95.0) * 1e3, "us"),
        "server.ingest_p95_hist_us": (hist.quantile(0.95) * 1e6, "us"),
        "arrival.observe_us": (mean_us("arrival.observe"), "us"),
        "arrival.predict_us": (mean_us("arrival.predict"), "us"),
        "arrival.predicts_per_query": (per(calls("arrival.predict"), traced_queries), "count"),
        **{f"query.{ep}_us": (query_us(ep), "us") for ep in QUERY_ENDPOINTS},
        "index.traversals_per_query": (per(counters.get("query.traversals", 0), all_queries),
                                       "count"),
        "cluster.fanout_per_query": (per(fanout, sum(calls(n) for n in router_queries)), "count"),
        "cluster.router.self_us": (per(router_self, router_calls) * 1e6, "us"),
        "cluster.bus.pump_us": (mean_us("bus.pump"), "us"),
        "cluster.bus.deltas": (report["bus_delivered"], "count"),
        "trace.unattributed_ratio": (per(handle["self_s"], handle["total_s"]), "ratio"),
        "trace.overhead_ratio": (1.0 - per(goodput_t, goodput_u), "ratio"),
        "loadgen.late_p99_ms": (percentile_ms(late, 99.0), "ms"),
    }
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="WiLocator end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _fail_without_source()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import (
        ROUNDS, WORKLOADS, build_city, build_stream, chunk_sizes, probe_requests, stream_now,
    )

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    sizes = chunk_sizes(spec, args.seconds)
    city = build_city(spec)
    stream = build_stream(spec, city, args.seed, sizes[0] + ROUNDS * (sizes[1] + sizes[2]))
    probes = probe_requests(city, stream_now(city, len(stream)))
    trace = bool(args.trace)

    work = ROOT / ".perfbench_run" / f"{spec.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        recoveries = Recoveries(spec, stream, probes, work / "recovery", trace)
        setups: list[float] = []

        def between_rounds(k: int) -> None:
            recoveries.sample()
            if k in SETUP_ROUNDS:
                extra = ServerProcess(spec.name, work / f"setup-{k}")
                try:
                    extra.stop()
                finally:
                    extra.kill()
                setups.append(extra.setup_s)

        server = ServerProcess(spec.name, work / "server")
        setups.append(server.setup_s)
        try:
            run = drive(server, stream, sizes, probes, spec, trace, between_rounds)
        finally:
            server.kill()
        problems = sorted(set(recoveries.problems + run_gate(spec, stream, run, probes, work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from repro.serving.loadgen import percentile_ms

    failed = _failed(run)
    windows = [rate for r in run["rounds"] for rate in goodput_windows(r["closed"])]
    e2e = end_to_end(run, setups, windows, recoveries.times, failed)
    attempted = e2e["success_ratio"][2]
    details = provenance(args, spec, sizes)
    details["peak_rss_mb"] = run["final"]["peak_rss_mb"]
    details["samples"] = {"warmup": len(run["warmup"]), "closed_loop": len(run["closed"]),
                          "open_loop": len(run["open"]), "probes": len(run["probe_responses"])}
    details["error_ratio"] = failed / attempted
    details["counters"] = run["report"]["counters"]
    details["problems"] = problems

    print(f"perfbench {spec.name} seed={args.seed} trace={args.trace}")
    if trace:
        layers = per_layer(run, recoveries)
        for name, (value, unit) in layers.items():
            print(f"  {name:<30} {value:>14.4f} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        details["setups_s"] = setups
        details["goodput_windows_rps"] = windows
        details["recoveries_s"] = recoveries.times
        details["open_loop_p99_ms"] = percentile_ms([s.latency_s for s in run["open"]], 99.0)
        for name, (value, unit, n) in e2e.items():
            print(f"  {name:<16} {value:>12.4f} {unit:<6} n={n}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}
    for problem in problems:
        print(f"  GATE FAILED: {problem}")
    print(json.dumps({"details": details}, sort_keys=True))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
