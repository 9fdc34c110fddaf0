"""CI smoke for the self-tuning advisor (:mod:`repro.advisor`).

Serves a skewed snowflake workload through an :class:`EstimationService`
with the advisor enabled, under a space budget covering only the smaller
half of the candidate conditioned SITs, then asserts:

* feedback flows from served estimates into the advisor;
* at least one tuning proposal is **accepted** and applied through the
  catalog's refresh path;
* the safety constraints hold on a *fresh* holdout workload the tuning
  never saw (q-error bound, space budget, refresh budget);
* an impossible constraint (``max_q_error=0``) always reports
  ``no-solution-found`` and leaves the catalog untouched;
* the service drains cleanly with the tuning thread joined.

Exits non-zero on any violation::

    PYTHONPATH=src python scripts/advisor_smoke.py
"""

from __future__ import annotations

import sys

from repro.advisor import AdvisorConfig, SelfTuningAdvisor
from repro.advisor.loop import ACCEPTED
from repro.advisor.safety import NO_SOLUTION_FOUND
from repro.advisor.search import q_error, sit_space_bytes
from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.predicates import attributes_of
from repro.engine.executor import Executor
from repro.service import EstimationService, ServiceConfig
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

SCALE = 0.1
SEED = 42
FEEDBACK_QUERIES = 20
HOLDOUT_QUERIES = 10
MAX_Q_ERROR = 1000.0
REFRESH_BUDGET_S = 60.0


def build_setup():
    database = generate_snowflake(SnowflakeConfig(scale=SCALE, seed=SEED))
    stream = WorkloadGenerator(
        database, WorkloadConfig(join_count=2, filter_count=2, seed=SEED)
    ).generate(FEEDBACK_QUERIES + HOLDOUT_QUERIES)
    feedback, holdout = stream[:FEEDBACK_QUERIES], stream[FEEDBACK_QUERIES:]
    catalog = StatisticsCatalog.build(database, feedback, max_joins=2)
    present = {sit.attribute for sit in catalog.pool if sit.is_base}
    needed = set()
    for query in stream:
        needed |= attributes_of(query.predicates)
    for attribute in sorted(needed - present):
        catalog.add(catalog.builder.build_base(attribute))
    return database, catalog, feedback, holdout


def half_pool_budget(catalog) -> float:
    spaces = sorted(
        sit_space_bytes(sit) for sit in catalog.pool if not sit.is_base
    )
    budget = sum(spaces[: len(spaces) // 2])
    assert budget < sum(spaces), "budget must exclude part of the pool"
    return budget


def smoke_tuned_service(database, catalog, feedback, holdout) -> None:
    budget = half_pool_budget(catalog)
    config = ServiceConfig(
        queue_depth=256,
        advisor=AdvisorConfig(
            max_q_error=MAX_Q_ERROR,
            space_budget_bytes=budget,
            refresh_budget_s=REFRESH_BUDGET_S,
            min_feedback=8,
            min_interval_s=3600.0,  # the explicit tune() below drives it
        ),
    )
    service = EstimationService(catalog, config=config)
    advisor = service.advisor
    assert advisor is not None, "advisor was not constructed"

    for query in feedback:
        answer = service.estimate(query)
        assert 0.0 <= answer.selectivity <= 1.0, answer
    appended = advisor.log.counters()["feedback_appended"]
    assert appended >= FEEDBACK_QUERIES, (
        f"feedback did not flow: {appended} < {FEEDBACK_QUERIES}"
    )

    report = service.tune()
    assert report is not None, "tune() found no advisor"
    assert report.status == ACCEPTED, f"tuning not accepted: {report.reason}"
    accepts = advisor.metrics.counter("advisor.accepts").value
    assert accepts >= 1, "no accepted proposal recorded"
    decision = report.decision
    assert decision.worst_q_error <= MAX_Q_ERROR, decision
    assert decision.space_bytes <= budget, decision
    assert decision.refresh_seconds <= REFRESH_BUDGET_S, decision

    # the installed configuration: space and refresh budgets must hold on
    # the catalog itself, not just on the gate's bookkeeping
    installed = [sit for sit in catalog.pool if not sit.is_base]
    assert {str(sit) for sit in installed} == set(report.chosen)
    assert sum(sit_space_bytes(sit) for sit in installed) <= budget

    # serving keeps working on the tuned catalog, and the q-error bound
    # generalizes to a fresh holdout workload the tuning never saw
    executor = Executor(database)
    session = EstimationSession(catalog)
    worst = 0.0
    for query in holdout:
        estimated = session.estimate(query).selectivity
        truth = executor.selectivity(query.predicates)
        worst = max(worst, q_error(estimated, truth))
    assert worst <= MAX_Q_ERROR, (
        f"holdout q-error {worst:.1f} breaks the {MAX_Q_ERROR} bound"
    )

    clean = service.close()
    assert clean, "drain/shutdown was not clean"
    print(
        f"tuned-service smoke: {len(report.chosen)} SITs accepted "
        f"(safety worst q-err {decision.worst_q_error:.2f}, "
        f"holdout worst q-err {worst:.2f}), clean drain"
    )


def smoke_no_solution(database, catalog, feedback) -> None:
    """``max_q_error=0`` is unsatisfiable (q-error >= 1): every tick
    must report no-solution-found and change nothing."""
    fingerprint = (
        catalog.version,
        tuple(sorted(str(sit) for sit in catalog.pool)),
    )
    advisor = SelfTuningAdvisor(
        catalog,
        config=AdvisorConfig(
            max_q_error=0.0, min_feedback=8, min_interval_s=0.0
        ),
    )
    session = EstimationSession(catalog)
    session.feedback_sink = advisor.record_result
    for query in feedback:
        session.estimate(query)
    report = advisor.tick()
    assert report.status == NO_SOLUTION_FOUND, report.status
    assert not report.applied
    after = (
        catalog.version,
        tuple(sorted(str(sit) for sit in catalog.pool)),
    )
    assert after == fingerprint, "no-solution-found mutated the catalog"
    print("no-solution smoke: impossible constraint rejected, catalog intact")


def main() -> int:
    database, catalog, feedback, holdout = build_setup()
    conditioned = sum(1 for sit in catalog.pool if not sit.is_base)
    print(f"catalog: {len(catalog)} SITs ({conditioned} conditioned)")
    smoke_tuned_service(database, catalog, feedback, holdout)
    smoke_no_solution(database, catalog, feedback)
    print("advisor smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
