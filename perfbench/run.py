"""Benchmark of the served estimator, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload writes_tcp --seed 1 --seconds 40 --trace 0

Workloads (all closed loops; see ``perfbench/README.md`` for why each one
exists and which layer metric should move which end-to-end metric):

``adhoc_session``
    one long-lived ``EstimationSession`` answering fresh J2F2/J2F3 SQL one
    query after another: the cold ``getSelectivity`` DP;
``writes_tcp``
    two TCP connections, one request in flight each, SQL over J1-2/F1-2
    templates with fresh constants, plus one table update through an
    ``IngestPipeline`` after every ``READS_PER_UPDATE`` reads: plan-cache
    replay behind queue, batching, wire and parse/bind, interrupted by
    snapshot swaps, invalidation and re-planning.

The program runs with its shipped defaults (``ServiceConfig(port=0)``, a
default ``EstimationSession``).  With ``--trace 0`` the last output line
carries the end-to-end metrics; with ``--trace 1`` the timed phase
alternates untraced and traced blocks and the last line carries the
per-layer metrics.  Every run replays a seeded sample of the served
answers through a fresh ``EstimationSession(catalog, plan_cache=False)``
and requires bit-identical selectivities, checks that the workload still
exercises its layer, and exits 1 when either fails.  The line before the
result records the host, the observed defaults and the stream.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import repro.sql  # noqa: E402
from repro.catalog import EstimationSession  # noqa: E402
from repro.engine.executor import Executor  # noqa: E402
from repro.ingest import IngestPipeline  # noqa: E402
from repro.obs import StalenessTracker, Trace  # noqa: E402
from repro.service import (  # noqa: E402
    EstimationService,
    ServiceConfig,
    ServiceError,
    connect,
    start_in_thread,
)

import workloads  # noqa: E402
from layers import LayerTimers  # noqa: E402

#: TCP connections (and client threads) of the TCP workloads
CLIENTS = 2
#: reads between two table updates on ``writes_tcp``
READS_PER_UPDATE = 1000
#: set-ups per run, at least; ``setup_s`` is their median
SETUP_REPEATS = 5
#: seconds of set-up per run, at least: a cheap set-up repeats until then
SETUP_MIN_S = 2.0
#: length of one timed block; traced runs alternate untraced/traced blocks
BLOCK_S = 1.0
#: template-stream requests generated per timed second (the stream wraps
#: around if a faster program consumes more)
STREAM_PER_SECOND = 1000
#: answers replayed through the reference session, per workload
IDENTITY_SAMPLE = {"adhoc_session": 100, "writes_tcp": 300}
#: answers whose q-error is computed against exact truth, at most
QERROR_SAMPLE = 5000
#: requests per window of the tail-latency figure (p99 then has 10 or
#: more samples beyond it in every window)
P99_WINDOW = 1000
#: warm-up passes over the stream's fingerprints, from every connection
WARMUP_PASSES = 4

#: workloads, metric names and units, as ``BENCHMARK.json`` at the root
#: declares them
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
DP_STAGES = ("dp_enumeration", "factor_matching", "histogram_join", "error_scoring")


class Outcome:
    """One timed request as the caller saw it."""

    __slots__ = ("request", "caller_ms", "answer", "failure", "traced")

    def __init__(self, request, caller_ms, answer, failure, traced):
        self.request = request
        self.caller_ms = caller_ms
        #: ``ServedEstimate`` (TCP) or ``EstimationResult`` (session)
        self.answer = answer
        #: exception class name, ``"degraded"``, or ``None`` when answered
        self.failure = failure
        self.traced = traced


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_gmean(values, share: float) -> float:
    """Geometric mean of the largest ``share`` of the values (0 for none)."""
    tail = sorted(values)[math.floor((1.0 - share) * len(values)) :]
    return math.exp(statistics.fmean(math.log(v) for v in tail)) if tail else 0.0


def tail_latency(latencies: list[float]) -> float:
    """p99 of each run of at least :data:`P99_WINDOW` consecutive requests,
    median over the runs: a host hiccup in one window does not move it."""
    windows = max(1, len(latencies) // P99_WINDOW)
    size = len(latencies) / windows
    return statistics.median(
        percentile(latencies[round(i * size) : round((i + 1) * size)], 0.99)
        for i in range(windows)
    )


def concurrently(target, argument_lists) -> None:
    """Run ``target`` once per argument list, each on its own thread, and
    re-raise the first error any of them hit."""
    with ThreadPoolExecutor(len(argument_lists)) as pool:
        futures = [pool.submit(target, *arguments) for arguments in argument_lists]
        for future in futures:
            future.result()


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def q_error(estimate: float, truth: float) -> float:
    estimate, truth = max(estimate, 1.0), max(truth, 1.0)
    return max(estimate / truth, truth / estimate)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Set-up, timed blocks and teardown shared by every workload."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.database = workloads.build_database()
        self.build_queries = workloads.build_queries(self.database)
        self.timers = LayerTimers()
        self.outcomes: list[Outcome] = []
        self.block_seconds = {False: 0.0, True: 0.0}
        self.setup_times: list[float] = []
        self.catalog = None

    # -- timed phase -------------------------------------------------------
    def run(self) -> None:
        blocks = max(2, round(self.seconds / BLOCK_S))
        length = self.seconds / blocks
        for index in range(blocks):
            # untraced, traced, traced, untraced, ...: each half sees the
            # same mix of early and late blocks, so a session that speeds
            # up as its caches fill does not bias the overhead figure
            traced = self.traced and index % 4 in (1, 2)
            if traced:
                self.timers.install()
                self.begin_traced_block()
            started = time.perf_counter()
            self.run_block(started + length, traced)
            self.block_seconds[traced] += time.perf_counter() - started
            if traced:
                self.end_traced_block()
                self.timers.uninstall()

    def setting_up(self) -> bool:
        """Whether another set-up is due."""
        return (
            len(self.setup_times) < SETUP_REPEATS or sum(self.setup_times) < SETUP_MIN_S
        )

    def begin_traced_block(self) -> None:
        pass

    def end_traced_block(self) -> None:
        pass

    def answered(self, traced: bool | None = None) -> list[Outcome]:
        return [
            o
            for o in self.outcomes
            if o.failure is None and (traced is None or o.traced == traced)
        ]

    def cardinality(self, outcome: Outcome) -> float:
        return outcome.answer.cardinality

    def close(self) -> None:
        pass


class SessionWorkload(Workload):
    """``adhoc_session``: one long-lived session, fresh queries."""

    def setup(self) -> None:
        while self.setting_up():
            started = time.perf_counter()
            catalog = workloads.build_catalog(self.database, self.build_queries)
            session = EstimationSession(catalog)
            self.setup_times.append(time.perf_counter() - started)
        self.catalog, self.session = catalog, session
        self.stream = workloads.AdhocStream(self.database, self.seed)
        self.trace = Trace()
        self.stage_totals = Trace()
        self.stats_before = session.stats_snapshot()

    def run_block(self, deadline: float, traced: bool) -> None:
        session, schema = self.session, self.database.schema
        record = self.outcomes.append
        clock = time.perf_counter
        while clock() < deadline:
            request = self.stream.next()
            started = clock()
            try:
                answer = session.estimate(repro.sql.parse_query(request.sql, schema))
                failure = "degraded" if answer.degradation_level else None
            except Exception as exc:  # a failed request is counted, not fatal
                answer, failure = None, type(exc).__name__
            record(Outcome(request, (clock() - started) * 1e3, answer, failure, traced))
            if traced:
                self.stage_totals.merge(self.trace)

    def begin_traced_block(self) -> None:
        self.session.estimator.enable_tracing(self.trace)

    def end_traced_block(self) -> None:
        self.session.estimator.disable_tracing()

    def cardinality(self, outcome: Outcome) -> float:
        tables = {t for p in outcome.request.predicates for t in p.tables}
        return outcome.answer.selectivity * self.database.cross_product_size(tables)

    def finish(self) -> None:
        self.stats_after = self.session.stats_snapshot()

    def stream_properties(self) -> dict:
        requests = [o.request for o in self.outcomes]
        return {
            "shapes": [f"J2F{f}" for f in workloads.ADHOC_FILTERS],
            "fingerprints": len({r.fingerprint for r in requests}),
            "predicates_per_query": statistics.fmean(
                len(r.predicates) for r in requests
            ),
        }


class TcpWorkload(Workload):
    """``writes_tcp``: SQL over TCP to a served catalog under table updates."""

    def __init__(self, name, seed, seconds, traced):
        super().__init__(name, seed, seconds, traced)
        self.templates, self.stream = workloads.steady_stream(
            self.database, seed, max(1000, int(seconds * STREAM_PER_SECOND))
        )
        first: dict[tuple, workloads.Request] = {}
        for request in self.stream:
            first.setdefault(request.fingerprint, request)
        self.representatives = list(first.values())
        tables = sorted(self.database.schema.tables)
        rng = np.random.default_rng(seed)
        self.update_schedule = [
            tables[int(i)] for i in rng.integers(len(tables), size=4096)
        ]
        self.cursors = list(range(CLIENTS))
        self.reads = 0
        self.updates = 0
        self.lock = threading.Lock()
        self.handle = self.clients = self.pipeline = None
        self.notify_times: list[float] = []

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        while self.setting_up():
            if self.setup_times:
                self.close()
            started = time.perf_counter()
            self.catalog = workloads.build_catalog(self.database, self.build_queries)
            service = EstimationService(self.catalog, config=ServiceConfig(port=0))
            self.handle = start_in_thread(service)
            self.clients = [connect(self.handle) for _ in range(CLIENTS)]
            tracker = StalenessTracker()
            service.attach_staleness(tracker)
            self.pipeline = IngestPipeline(self.catalog, tracker=tracker)
            self.warm_up()
            self.setup_times.append(time.perf_counter() - started)
        self.service = self.handle.service
        self.stats_before = self.service.stats_snapshot()
        self.catalog_before = self.catalog.stats_snapshot()
        if self.traced:
            notify = self.catalog.notify_table_update

            def timed_notify(table):
                started = time.perf_counter()
                try:
                    return notify(table)
                finally:
                    self.notify_times.append(time.perf_counter() - started)

            self.catalog.notify_table_update = timed_notify

    def warm_up(self) -> None:
        """Send every fingerprint of the stream from every connection,
        :data:`WARMUP_PASSES` times, in a fresh seeded order per pass and
        connection: each worker owns its own plan cache, and a fixed order
        would hand a fingerprint to the same worker on every pass."""
        order = random.Random(self.seed)

        def send(client, requests):
            for request in requests:
                client.estimate(request.sql)

        for _ in range(WARMUP_PASSES):
            orders = []
            for client in self.clients:
                requests = list(self.representatives)
                order.shuffle(requests)
                orders.append((client, requests))
            concurrently(send, orders)

    # -- timed blocks -------------------------------------------------------
    def run_block(self, deadline: float, traced: bool) -> None:
        concurrently(self.client_loop, [(i, deadline, traced) for i in range(CLIENTS)])

    def client_loop(self, index: int, deadline: float, traced: bool) -> None:
        client, stream = self.clients[index], self.stream
        record = self.outcomes.append
        clock = time.perf_counter
        while clock() < deadline:
            request = stream[self.cursors[index] % len(stream)]
            self.cursors[index] += CLIENTS
            started = clock()
            try:
                answer = client.estimate(request.sql)
                failure = "degraded" if answer.degradation_level else None
            except ServiceError as exc:  # Overloaded, TransportError, ...
                answer, failure = None, type(exc).__name__
            record(Outcome(request, (clock() - started) * 1e3, answer, failure, traced))
            self.after_read()

    def after_read(self) -> None:
        with self.lock:
            self.reads += 1
            if self.reads % READS_PER_UPDATE:
                return
            table = self.update_schedule[self.updates % len(self.update_schedule)]
            self.updates += 1
        self.pipeline.submit(table)

    def finish(self) -> None:
        if not self.pipeline.flush(timeout=30.0):
            raise RuntimeError("ingest pipeline did not apply every update")
        self.stats_after = self.service.stats_snapshot()
        self.catalog_after = self.catalog.stats_snapshot()
        self.ingest = self.pipeline.stats_snapshot().ingest

    def close(self) -> None:
        for client in self.clients or ():
            client.close()
        if self.pipeline is not None:
            self.pipeline.close()
        if self.handle is not None:
            self.handle.close()
        self.handle = self.clients = self.pipeline = None

    def stream_properties(self) -> dict:
        used = self.stream[: max(self.cursors)]
        uncompiled = uncompiled_fingerprints(self)
        return {
            "templates": len(set(self.templates)),
            "fingerprints": len({r.fingerprint for r in used}),
            "predicates_per_query": statistics.fmean(len(r.predicates) for r in used),
            "stream_length": len(self.stream),
            "stream_wrapped": max(self.cursors) > len(self.stream),
            "uncompiled_fingerprints": len(uncompiled),
            "uncompiled_request_share": share(
                sum(1 for r in used if r.fingerprint in uncompiled), len(used)
            ),
            "reads_per_update": READS_PER_UPDATE,
            "updates": self.updates,
        }


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def check_identity(workload: Workload, rng: random.Random) -> dict:
    """Replay a sample of served answers through a fresh session without
    the plan cache; every selectivity must match bit for bit."""
    answered = workload.answered()
    sample = rng.sample(answered, min(len(answered), IDENTITY_SAMPLE[workload.name]))
    reference = EstimationSession(workload.catalog, plan_cache=False)
    schema = workload.database.schema
    mismatches = bind_errors = 0
    for outcome in sample:
        query = repro.sql.parse_query(outcome.request.sql, schema)
        if query.predicates != outcome.request.predicates:
            bind_errors += 1
            continue
        if reference.estimate(query).selectivity != outcome.answer.selectivity:
            mismatches += 1
    return {
        "checked": len(sample),
        "mismatches": mismatches,
        "bind_errors": bind_errors,
    }


def q_errors(workload: Workload, rng: random.Random) -> list[float]:
    answered = workload.answered()
    sample = rng.sample(answered, min(len(answered), QERROR_SAMPLE))
    executor = Executor(workload.database)
    return [
        q_error(workload.cardinality(o), executor.cardinality(o.request.predicates))
        for o in sample
    ]


def uncompiled_fingerprints(workload: Workload) -> set:
    """Fingerprints none of whose timed requests replayed a plan."""
    seen, replayed = set(), set()
    for outcome in workload.answered():
        seen.add(outcome.request.fingerprint)
        if outcome.answer.plan_cache_hit:
            replayed.add(outcome.request.fingerprint)
    return seen - replayed


def guards(workload: Workload, layer: dict) -> dict:
    """Each workload must still do the work it was chosen for."""
    hit_share = layer["plancache.hit_share"]
    swaps = layer["service.snapshot_swaps"]
    if workload.name == "adhoc_session":
        return {"mostly_misses": hit_share < 0.5}
    return {
        "mostly_replays": hit_share >= 0.5,
        "swaps": swaps > 0,
        "misses": layer["plancache.misses"] > 0,
    }


def layer_metrics(workload: Workload) -> dict:
    """Per-layer figures.  Timings come from the traced blocks; counts
    read from answers and stats snapshots cover the whole timed phase."""
    timers = workload.timers.samples
    every = workload.answered()
    traced = workload.answered(traced=True) if workload.traced else every
    queries = len(traced)
    before, after = workload.stats_before, workload.stats_after

    def p50_ms(key):
        return percentile(timers[key], 0.5) * 1e3

    def per_query_ms(seconds):
        return share(seconds * 1e3, queries)

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def delta(namespace, key, first=before, last=after):
        return last.namespace(namespace).get(key, 0.0) - first.namespace(namespace).get(
            key, 0.0
        )

    hits = sum(1 for o in every if o.answer.plan_cache_hit)
    match_hits = delta("caches", "match_cache_hits")
    out = {
        "plancache.hit_share": share(hits, len(every)),
        "plancache.misses": len(every) - hits,
        "plancache.replay_p50_us": percentile(workload.timers.replay, 0.5) * 1e6,
        "session.estimate_p50_ms": p50_ms("session.estimate"),
        "session.match_cache_hit_share": share(
            match_hits, match_hits + delta("caches", "match_cache_misses")
        ),
        "sql.parse_bind_p50_us": p50_ms("sql.parse_bind") * 1e3,
        "dp.estimate_p50_ms": p50_ms("dp.estimate"),
        "dp.parse_bind_ms": per_query_ms(sum(timers["sql.parse_bind"])),
        "dp.matcher_calls_per_query": share(
            delta("counters", "matcher_calls"), len(every)
        ),
        "histograms.range_calls_per_request": share(
            len(timers["histograms.range"]), queries
        ),
        "histograms.range_us": mean(timers["histograms.range"]) * 1e6,
        "histograms.join_calls_per_query": share(
            len(timers["histograms.join"]), queries
        ),
        "histograms.join_ms": per_query_ms(sum(timers["histograms.join"])),
        "resilience.degraded_answers": sum(
            1 for o in workload.outcomes if o.failure == "degraded"
        ),
    }
    if isinstance(workload, TcpWorkload):
        served = [o.answer.latency_ms for o in traced]
        staleness = [
            o.answer.staleness_s for o in every if o.answer.staleness_s is not None
        ]
        out.update(
            {
                "wire.overhead_p50_ms": percentile(
                    [o.caller_ms - o.answer.latency_ms for o in traced], 0.5
                ),
                "protocol.codec_p50_us": p50_ms("protocol.codec") * 1e3,
                "service.served_latency_p50_ms": percentile(served, 0.5),
                "service.overhead_p50_ms": percentile(served, 0.5)
                - out["session.estimate_p50_ms"],
                "service.batch_size_mean": mean([o.answer.batch_size for o in every]),
                "service.snapshot_swaps": delta("service", "snapshot_swaps"),
                "catalog.invalidations": delta(
                    "catalog",
                    "invalidations",
                    workload.catalog_before,
                    workload.catalog_after,
                ),
                "catalog.notify_ms": mean(workload.notify_times) * 1e3,
                "ingest.epochs_applied": workload.ingest.get("epochs_applied", 0.0),
                "ingest.coalesce_ratio": workload.ingest.get("coalesce_ratio", 0.0),
                "ingest.staleness_p99_ms": percentile(staleness, 0.99) * 1e3,
            }
        )
    else:
        totals = workload.stage_totals
        memo_hits = totals.counters.get("memo_hits", 0)
        for stage in DP_STAGES:
            out[f"dp.{stage}_ms"] = per_query_ms(totals.timings.get(stage, 0.0))
        out["dp.memo_hit_share"] = share(
            memo_hits, memo_hits + totals.counters.get("memo_misses", 0)
        )
    qps = {
        flag: share(len(workload.answered(flag)), workload.block_seconds[flag])
        for flag in (False, True)
    }
    if workload.traced:
        out["trace_overhead_pct"] = (1.0 - share(qps[True], qps[False])) * 100.0
    # layers a workload does not reach read 0
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}


def end_to_end_metrics(workload: Workload, errors: list[float]) -> dict:
    answered = workload.answered()
    latencies = [o.caller_ms for o in answered]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(workload.setup_times),
        "throughput_qps": share(len(answered), workload.block_seconds[False]),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p99_ms": tail_latency(latencies),
        "answered_share": share(len(answered), len(workload.outcomes)),
        "q_error_p50": percentile(errors, 0.5),
        "q_error_top5_gmean": tail_gmean(errors, 0.05),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def host_record(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "service_config": ServiceConfig(port=0).to_dict(),
        "scale": workloads.SCALE,
        "data_seed": workloads.DATA_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kind = SessionWorkload if args.workload == "adhoc_session" else TcpWorkload
    workload = kind(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        workload.setup()
        workload.run()
        workload.finish()
    finally:
        workload.close()
    rng = random.Random(args.seed)
    identity = check_identity(workload, rng)
    layer = layer_metrics(workload)
    guard = guards(workload, layer)
    correct = (
        identity["mismatches"] == 0
        and identity["bind_errors"] == 0
        and identity["checked"] > 0
        and all(guard.values())
    )
    latencies = len(workload.answered(traced=False))
    report = {
        "workload": args.workload,
        "host": host_record(args),
        "stream": workload.stream_properties(),
        "samples": {
            "attempted": len(workload.outcomes),
            "latency": latencies,
            "latency_beyond_p99": latencies - math.ceil(0.99 * latencies),
            "traced": len(workload.answered(traced=True)),
            "setup_repeats": workload.setup_times,
        },
        "identity": identity,
        "guards": guard,
    }
    if args.trace:
        metrics, units = layer, PER_LAYER
    else:
        errors = q_errors(workload, rng)
        report["samples"]["q_error"] = len(errors)
        # recorded, not bounded: each moves too much with the seed on one
        # workload or the other
        report["q_error_tail"] = {
            "p90": percentile(errors, 0.9),
            "p95": percentile(errors, 0.95),
            "p99": percentile(errors, 0.99),
        }
        metrics, units = end_to_end_metrics(workload, errors), END_TO_END
    print(json.dumps({"report": report}))
    failed = sum(1 for o in workload.outcomes if o.failure is not None)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(workload.outcomes),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
