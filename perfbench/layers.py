"""Per-layer timers installed from outside the program, for traced runs.

Each timer wraps one public function of a layer by replacing the attribute
it is looked up through (a class attribute, or a module global that the
calling module imported by name) and records the seconds every call took.
Nothing under ``src/`` is edited; :meth:`LayerTimers.uninstall` restores
the originals, so untraced blocks run the program exactly as shipped.
"""

from __future__ import annotations

import time
from collections import defaultdict

import repro.core.matching
import repro.core.plancache
import repro.service.client
import repro.service.server
import repro.sql
from repro.catalog import EstimationSession
from repro.core.get_selectivity import GetSelectivity
from repro.core.plancache import CompiledPlan
from repro.histograms.base import Histogram

#: (owner, attribute, timer key): the call sites the traced run times
TIMED_CALLS = (
    # sql: parse and bind (the service imports parse_query per call)
    (repro.sql, "parse_query", "sql.parse_bind"),
    # service.protocol: the JSON-lines codec, on both ends of the wire
    (repro.service.server, "decode_line", "protocol.codec"),
    (repro.service.server, "encode_line", "protocol.codec"),
    (repro.service.client, "encode_line", "protocol.codec"),
    (repro.service.client, "decode_line", "protocol.codec"),
    # catalog.session: one call per request (ad hoc) or per micro-batch
    (EstimationSession, "estimate", "session.estimate"),
    (EstimationSession, "estimate_batch", "session.estimate"),
    # core.get_selectivity: one cold Figure 3 DP run
    (GetSelectivity, "__call__", "dp.estimate"),
    # histograms: range lookups (replay and DP) and histogram joins
    (Histogram, "estimate_range_selectivity", "histograms.range"),
    (Histogram, "estimate_range_selectivity_batch", "histograms.range"),
    (repro.core.matching, "join_histograms", "histograms.join"),
    (repro.core.plancache, "join_histograms", "histograms.join"),
)


class LayerTimers:
    """Per-key lists of call durations (seconds) while installed."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: per-request replay time (a batch replay is split evenly)
        self.replay: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, function, record):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record(clock() - started)

        return timed

    def install(self) -> None:
        if self._saved:
            return
        for owner, name, key in TIMED_CALLS:
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, self.samples[key].append))
        self._install_replay()

    def _install_replay(self) -> None:
        replay, replay_batch = CompiledPlan.replay, CompiledPlan.replay_batch
        clock = time.perf_counter

        def timed_replay_batch(plan, ordered_batch):
            if len(ordered_batch) <= 1:
                # a one-member batch replays through the timed ``replay``
                return replay_batch(plan, ordered_batch)
            started = clock()
            try:
                return replay_batch(plan, ordered_batch)
            finally:
                share = (clock() - started) / len(ordered_batch)
                self.replay.extend([share] * len(ordered_batch))

        self._saved.append((CompiledPlan, "replay", replay))
        self._saved.append((CompiledPlan, "replay_batch", replay_batch))
        CompiledPlan.replay = self._wrap(replay, self.replay.append)
        CompiledPlan.replay_batch = timed_replay_batch

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
