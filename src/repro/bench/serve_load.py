"""Load generator for the estimation-serving subsystem.

Measures three regimes on a *shared-factor* workload (a request stream
sampled from a small set of distinct queries, the optimizer-inner-loop
pattern where many concurrent estimations share decomposition factors):

``baseline``
    single-session sequential: one
    :class:`~repro.catalog.EstimationSession` answers the whole stream
    one query at a time — the pre-service serving story, and the QPS
    the batched service must beat;
``closed_loop``
    ``--clients`` threads drive the service synchronously (each submits,
    waits, submits again).  The service's one serving thread batches
    whatever queued up while it served the previous batch, without
    waiting for more; identical queries in one batch are answered by one
    DP run;
``open_loop``
    requests arrive at a fixed rate (default: 4x the measured baseline
    QPS) against a deliberately small queue — the overload regime.
    Admission control must shed with typed ``Overloaded`` responses, and
    everything admitted must still be answered (no hangs, no crashes).

``--cluster`` additionally drives the multi-process tier
(:mod:`repro.cluster`): the same closed-loop stream through an
``EstimationCluster`` at 1 shard and at ``--shards`` shards, so the
report carries the process-parallel speedup *measured on this host*.
The block records ``cores`` (``os.cpu_count()``) because the headline
scaling claim only materialises with >= ``shards`` physical cores —
on a 1-core container the expected honest result is ~1x (plus IPC
overhead), and the numbers are reported as observed, never projected.

Writes ``BENCH_service.json`` at the repository root::

    PYTHONPATH=src python -m repro.bench.serve_load [output.json]

The acceptance gate reads ``closed_loop.speedup_vs_baseline`` (>= 2x on
this workload) and ``open_loop.shed`` (> 0, with
``served + shed == offered``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import sys
import threading
import time

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.service import (
    EstimationService,
    Overloaded,
    ServiceConfig,
)
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

DEFAULT_OUTPUT = (
    pathlib.Path(__file__).resolve().parents[3] / "BENCH_service.json"
)


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def build_workload(
    scale: float, seed: int, distinct: int
) -> tuple[Database, StatisticsCatalog, list[Query]]:
    """A snowflake database, its catalog, and ``distinct`` queries whose
    decompositions overlap heavily (same join templates, varied
    filters)."""
    database = generate_snowflake(SnowflakeConfig(scale=scale, seed=seed))
    generator = WorkloadGenerator(
        database, WorkloadConfig(join_count=4, filter_count=4, seed=seed)
    )
    queries = generator.generate(distinct)
    catalog = StatisticsCatalog.build(database, queries, max_joins=2)
    return database, catalog, queries


def request_stream(
    queries: list[Query], requests: int, seed: int
) -> list[Query]:
    """The shared-factor stream: ``requests`` draws from the distinct
    query set (duplicates are the point — concurrent consumers of an
    optimizer ask overlapping questions)."""
    rng = random.Random(seed)
    return [rng.choice(queries) for _ in range(requests)]


def _percentiles(latencies_ms: list[float]) -> dict[str, float]:
    if not latencies_ms:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    ordered = sorted(latencies_ms)

    def pick(q: float) -> float:
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    return {
        "p50_ms": pick(0.50),
        "p95_ms": pick(0.95),
        "p99_ms": pick(0.99),
    }


# ----------------------------------------------------------------------
# Regimes
# ----------------------------------------------------------------------
def _distinct(stream: list[Query]) -> list[Query]:
    return list({id(query): query for query in stream}.values())


def run_baseline(
    catalog: StatisticsCatalog, stream: list[Query]
) -> dict:
    """Single-session sequential QPS over the stream."""
    session = EstimationSession(catalog)
    # Warm the pool-pure caches exactly like a long-lived session would
    # be: the first estimation of each template pays one-off factor
    # construction (hundreds of ms) that would otherwise swamp the
    # steady-state numbers this benchmark is about.
    for query in _distinct(stream):
        session.estimate(query)
    latencies: list[float] = []
    started = time.perf_counter()
    for query in stream:
        t0 = time.perf_counter()
        session.estimate(query)
        latencies.append((time.perf_counter() - t0) * 1000.0)
    elapsed = time.perf_counter() - started
    return {
        "requests": len(stream),
        "seconds": elapsed,
        "qps": len(stream) / elapsed if elapsed > 0 else 0.0,
        "mean_ms": sum(latencies) / len(latencies),
        **_percentiles(latencies),
    }


def run_closed_loop(
    catalog: StatisticsCatalog,
    stream: list[Query],
    clients: int,
    pipeline: int = 8,
) -> dict:
    """``clients`` synchronous threads against the batched service.

    Each client keeps up to ``pipeline`` requests in flight (submit
    ahead, then wait for the oldest) — the optimizer-inner-loop shape,
    where one planning thread issues estimation requests for many
    candidate plans before it needs the first answer.  Latency is still
    measured per request, submit to completion.
    """
    config = ServiceConfig(queue_depth=max(256, len(stream)), max_batch=64)
    shards: list[list[Query]] = [stream[i::clients] for i in range(clients)]
    latencies_by_client: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []

    with EstimationService(catalog, config=config) as service:
        # warm the serving session off the clock (same treatment as
        # the baseline's warm-up pass)
        for query in _distinct(stream):
            service.estimate(query)

        def client_loop(index: int) -> None:
            try:
                window: list[tuple[float, object]] = []
                record = latencies_by_client[index].append

                def reap() -> None:
                    t0, future = window.pop(0)
                    future.result(timeout=60.0)
                    record((time.perf_counter() - t0) * 1000.0)

                for query in shards[index]:
                    if len(window) >= pipeline:
                        reap()
                    window.append(
                        (time.perf_counter(), service.submit(query))
                    )
                while window:
                    reap()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client_loop, args=(index,))
            for index in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        snapshot = service.stats_snapshot()

    if errors:
        raise RuntimeError(f"closed-loop client failed: {errors[0]!r}")
    latencies = [value for client in latencies_by_client for value in client]
    service_ns = dict(snapshot.service)
    return {
        "clients": clients,
        "pipeline": pipeline,
        "requests": len(latencies),
        "seconds": elapsed,
        "qps": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "mean_ms": sum(latencies) / len(latencies),
        **_percentiles(latencies),
        "batches": service_ns.get("batches", 0.0),
        "deduplicated": service_ns.get("deduplicated", 0.0),
        "mean_batch_size": (
            service_ns.get("batched_requests", 0.0)
            / max(1.0, service_ns.get("batches", 0.0))
        ),
    }


def run_open_loop(
    catalog: StatisticsCatalog,
    stream: list[Query],
    rate_qps: float,
    queue_depth: int,
) -> dict:
    """Fixed-rate arrivals against a small queue: the overload regime."""
    config = ServiceConfig(queue_depth=queue_depth, max_batch=64)
    interval = 1.0 / rate_qps if rate_qps > 0 else 0.0
    futures = []
    shed = 0
    with EstimationService(catalog, config=config) as service:
        for query in _distinct(stream):  # warm
            service.estimate(query)
        started = time.perf_counter()
        for index, query in enumerate(stream):
            target = started + index * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                futures.append(service.submit(query))
            except Overloaded:
                shed += 1
        # everything admitted must complete (graceful drain)
        for future in futures:
            future.result(timeout=60.0)
        elapsed = time.perf_counter() - started
        snapshot = service.stats_snapshot()
        clean = service.close()
    service_ns = dict(snapshot.service)
    latency = service_ns.get("latency_ms", {})
    offered = len(stream)
    served = len(futures)
    return {
        "offered": offered,
        "offered_qps": rate_qps,
        "served": served,
        "shed": shed,
        "shed_rate": shed / offered if offered else 0.0,
        "seconds": elapsed,
        "achieved_qps": served / elapsed if elapsed > 0 else 0.0,
        "queue_depth": queue_depth,
        "clean_shutdown": clean,
        "p50_ms": latency.get("p50", 0.0),
        "p95_ms": latency.get("p95", 0.0),
        "p99_ms": latency.get("p99", 0.0),
        "conservation_ok": served + shed == offered,
    }


def _drive_cluster(
    catalog,
    stream: list[Query],
    shards: int,
    clients: int,
    pipeline: int = 8,
) -> dict:
    """Closed loop through an :class:`~repro.cluster.EstimationCluster`
    of ``shards`` shard processes."""
    from repro.cluster import EstimationCluster
    from repro.service import ClusterConfig

    config = ServiceConfig(
        queue_depth=max(256, len(stream)),
        cluster=ClusterConfig(
            shards=shards,
            # hedging off for the throughput measurement: a hedge doubles
            # the work of the slowest tail, which is honest for latency
            # but noise when comparing shard counts
            hedge_delay_s=60.0,
        ),
    )
    shards_of_work = [stream[i::clients] for i in range(clients)]
    latencies_by_client: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []

    cluster = EstimationCluster(catalog, config=config)
    try:
        for query in _distinct(stream):  # warm every shard's template
            cluster.estimate(query)

        def client_loop(index: int) -> None:
            try:
                window: list[tuple[float, object]] = []
                record = latencies_by_client[index].append

                def reap() -> None:
                    t0, future = window.pop(0)
                    future.result(timeout=120.0)
                    record((time.perf_counter() - t0) * 1000.0)

                for query in shards_of_work[index]:
                    if len(window) >= pipeline:
                        reap()
                    window.append(
                        (time.perf_counter(), cluster.submit(query))
                    )
                while window:
                    reap()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client_loop, args=(index,))
            for index in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        snapshot = cluster.stats_snapshot()
    finally:
        cluster.close()
    if errors:
        raise RuntimeError(f"cluster client failed: {errors[0]!r}")
    latencies = [value for client in latencies_by_client for value in client]
    cluster_ns = dict(snapshot.cluster)
    return {
        "shards": shards,
        "clients": clients,
        "pipeline": pipeline,
        "requests": len(latencies),
        "seconds": elapsed,
        "qps": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "mean_ms": sum(latencies) / len(latencies),
        **_percentiles(latencies),
        "routed": cluster_ns.get("routed", 0.0),
        "spilled": cluster_ns.get("spilled", 0.0),
        "ejections": cluster_ns.get("ejections", 0.0),
    }


def run_cluster(
    catalog,
    stream: list[Query],
    shards: int,
    clients: int,
) -> dict:
    """The ``cluster`` report block: 1 shard vs ``shards`` shards.

    ``cores`` is recorded so the reader can judge the speedup honestly:
    shard processes beat one process only when they run on distinct
    cores.  The numbers are measured, never projected.
    """
    single = _drive_cluster(catalog, stream, shards=1, clients=clients)
    print(
        f"cluster 1x:  {single['qps']:8.1f} qps", file=sys.stderr
    )
    sharded = _drive_cluster(catalog, stream, shards=shards, clients=clients)
    speedup = sharded["qps"] / single["qps"] if single["qps"] else 0.0
    cores = os.cpu_count() or 1
    print(
        f"cluster {shards}x:  {sharded['qps']:8.1f} qps "
        f"({speedup:.2f}x on {cores} core(s))",
        file=sys.stderr,
    )
    return {
        "cores": cores,
        "single_shard": single,
        "sharded": sharded,
        "speedup_vs_single_shard": speedup,
        "core_limited": cores < shards,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(
    scale: float = 0.15,
    seed: int = 42,
    distinct: int = 4,
    requests: int = 400,
    clients: int = 16,
    overload_queue_depth: int = 8,
    cluster_shards: int = 0,
) -> dict:
    database, catalog, queries = build_workload(scale, seed, distinct)
    stream = request_stream(queries, requests, seed)
    del database

    # Bench-scoped: shrink the GIL switch interval so serving-thread wake-ups
    # (future completions) propagate promptly instead of waiting out the
    # default 5ms scheduling quantum.  Restored before returning.
    previous_switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        return _run_regimes(
            catalog,
            stream,
            scale=scale,
            seed=seed,
            distinct=distinct,
            requests=requests,
            clients=clients,
            overload_queue_depth=overload_queue_depth,
            cluster_shards=cluster_shards,
        )
    finally:
        sys.setswitchinterval(previous_switch_interval)


def _run_regimes(
    catalog: StatisticsCatalog,
    stream: list[Query],
    *,
    scale: float,
    seed: int,
    distinct: int,
    requests: int,
    clients: int,
    overload_queue_depth: int,
    cluster_shards: int = 0,
) -> dict:
    print(
        f"workload: {distinct} distinct queries, {requests} requests, "
        f"{len(catalog)} SITs",
        file=sys.stderr,
    )
    baseline = run_baseline(catalog, stream)
    print(f"baseline:    {baseline['qps']:8.1f} qps", file=sys.stderr)
    closed = run_closed_loop(catalog, stream, clients)
    closed["speedup_vs_baseline"] = (
        closed["qps"] / baseline["qps"] if baseline["qps"] else 0.0
    )
    print(
        f"closed loop: {closed['qps']:8.1f} qps "
        f"({closed['speedup_vs_baseline']:.2f}x, "
        f"mean batch {closed['mean_batch_size']:.1f})",
        file=sys.stderr,
    )
    open_loop = run_open_loop(
        catalog,
        stream,
        rate_qps=4.0 * baseline["qps"],
        queue_depth=overload_queue_depth,
    )
    print(
        f"open loop:   shed {open_loop['shed']}/{open_loop['offered']} "
        f"({open_loop['shed_rate']:.0%}), clean={open_loop['clean_shutdown']}",
        file=sys.stderr,
    )
    cluster = None
    if cluster_shards:
        cluster = run_cluster(
            catalog, stream, shards=cluster_shards, clients=clients
        )
    return {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "scale": scale,
            "seed": seed,
            "distinct_queries": distinct,
            "requests": requests,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "baseline": baseline,
        "closed_loop": closed,
        "open_loop": open_loop,
        **({"cluster": cluster} if cluster is not None else {}),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.serve_load",
        description="closed- and open-loop load generator for repro.service",
    )
    parser.add_argument(
        "output", nargs="?", default=str(DEFAULT_OUTPUT), help="output JSON"
    )
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--distinct", type=int, default=4)
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument(
        "--cluster",
        action="store_true",
        help=(
            "also measure the multi-process tier: closed loop at 1 shard "
            "vs --shards shards, reported with the host core count"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard processes for the --cluster comparison (default 4)",
    )
    args = parser.parse_args(argv)
    report = run(
        scale=args.scale,
        seed=args.seed,
        distinct=args.distinct,
        requests=args.requests,
        clients=args.clients,
        cluster_shards=args.shards if args.cluster else 0,
    )
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
