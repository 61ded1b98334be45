"""Tests for durable sessions and batch work stealing.

Three layers:

* unit — :class:`CheckpointConfig` validation / resolution and the
  :class:`ReplayJournal` truncation + replay protocol, no service;
* session durability — checkpoint cadence, restore-and-replay recovery
  (cold, pre-first-checkpoint, and warm-standby promote paths) on a
  live local pool;
* work stealing — queued batch requests on a dead or overloaded
  endpoint re-execute exactly once on live endpoints, with the
  maybe-started idempotency guard.
"""

from __future__ import annotations

import time

import pytest

from repro.distributed.computation import DistributedComputation
from repro.errors import MonitorError, ServiceError
from repro.monitor.online import OnlineMonitor
from repro.mtl import parse
from repro.service import CheckpointConfig, MonitorService, ReplayJournal
from repro.service.durability import resolve_checkpoint
from repro.service.rebalance import Rebalancer
from repro.service.tasks import MonitorTask

SPEC = parse("F[0,30) b")

EVENT = ("P1", 3, frozenset({"a"}), None)


# -- unit: config ---------------------------------------------------------------------


class TestCheckpointConfig:
    def test_defaults_are_event_triggered(self):
        config = CheckpointConfig()
        assert config.every_events == 64
        assert config.every_seconds is None
        assert config.standby is False

    def test_needs_at_least_one_interval(self):
        with pytest.raises(MonitorError, match="needs an interval"):
            CheckpointConfig(every_events=None, every_seconds=None)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"every_events": 0}, "every_events"),
            ({"every_seconds": 0.0}, "every_seconds"),
            ({"standby": "warm"}, "standby"),
            ({"max_recovery_attempts": 0}, "max_recovery_attempts"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(MonitorError, match=match):
            CheckpointConfig(**kwargs)

    def test_resolve_maps_the_spec_forms(self):
        assert resolve_checkpoint(None) is None
        assert resolve_checkpoint(False) is None
        assert resolve_checkpoint(True) == CheckpointConfig()
        config = CheckpointConfig(every_events=8)
        assert resolve_checkpoint(config) is config
        assert resolve_checkpoint({"every_events": 8}) == config

    def test_resolve_rejects_junk(self):
        with pytest.raises(MonitorError, match="bad checkpoint spec"):
            resolve_checkpoint({"cadence": 8})
        with pytest.raises(MonitorError, match="checkpoint must be"):
            resolve_checkpoint(42)


# -- unit: journal --------------------------------------------------------------------


class TestReplayJournal:
    def test_mark_and_truncation(self):
        journal = ReplayJournal()
        journal.record_event(EVENT)
        journal.record_advance(10)
        mark = journal.mark()
        assert mark == 2
        journal.record_event(EVENT)  # after the snapshot request: survives
        journal.apply_checkpoint({"fake": True}, mark)
        assert len(journal) == 1
        assert journal.snapshot == {"fake": True}
        assert journal.checkpoints_applied == 1

    def test_replay_ops_batches_consecutive_observes(self):
        journal = ReplayJournal()
        journal.record_event(EVENT)
        journal.record_event(EVENT)
        journal.record_advance(10)
        journal.record_event(EVENT)
        ops = list(journal.replay_ops())
        assert ops == [
            ("observe", [EVENT, EVENT]),
            ("advance", 10),
            ("observe", [EVENT]),
        ]

    def test_clear_releases_state_but_keeps_counters(self):
        journal = ReplayJournal()
        journal.record_event(EVENT)
        journal.apply_checkpoint({"fake": True}, 1)
        journal.clear()
        assert len(journal) == 0
        assert journal.snapshot is None
        assert journal.checkpoints_applied == 1


# -- session durability ---------------------------------------------------------------


def _feed(session, start: int, stop: int) -> None:
    for t in range(start, stop):
        session.observe("P1", t, {"b"} if t % 4 == 0 else {"a"})


class TestCheckpointCadence:
    def test_event_cadence_applies_checkpoints_at_sync_points(self):
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2, checkpoint={"every_events": 4}
            )
            assert session.durable
            _feed(session, 1, 7)
            session.advance_to(6)  # flush 6 events -> snapshot requested
            assert session.checkpoints == 0  # not yet polled back
            _feed(session, 7, 13)
            session.advance_to(12)  # poll adopts the resolved snapshot
            assert session.checkpoints >= 1
            assert session.journal_length < 14  # truncated behind the mark
            session.finish()

    def test_non_durable_session_keeps_no_journal(self):
        with MonitorService(workers=1) as service:
            session = service.open_session(SPEC, epsilon=2)
            assert not session.durable
            assert session.checkpoints == 0
            _feed(session, 1, 5)
            session.advance_to(4)
            assert session.journal_length == 0
            session.finish()

    def test_checkpoint_now_forces_and_waits(self):
        with MonitorService(workers=1) as service:
            session = service.open_session(
                SPEC, epsilon=2, checkpoint={"every_events": 10_000}
            )
            _feed(session, 1, 4)
            assert session.checkpoint_now()
            assert session.checkpoints == 1
            assert session.journal_length == 0
            session.finish()

    def test_failed_snapshot_send_retries_at_next_sync_point(self):
        """A snapshot request that cannot be sent leaves the cadence
        counters untouched: the checkpoint stays due and the next sync
        point retries, instead of the replay window growing by a full
        extra interval."""
        with MonitorService(workers=1) as service:
            session = service.open_session(
                SPEC, epsilon=2, checkpoint={"every_events": 4}
            )
            real = service._send_session
            failed = []

            def flaky(worker_index, op, payload):
                if op == "session_snapshot" and not failed:
                    failed.append(op)
                    raise ServiceError("transient send failure")
                return real(worker_index, op, payload)

            service._send_session = flaky
            try:
                _feed(session, 1, 7)
                session.advance_to(6)  # snapshot send fails; still due
            finally:
                service._send_session = real
            assert failed
            session.poll()  # retried here, not an interval later
            session.poll()  # adopt the resolved snapshot
            assert session.checkpoints >= 1
            session.finish()

    def test_service_level_default_is_inherited_and_overridable(self):
        with MonitorService(workers=1, checkpoint={"every_events": 8}) as service:
            durable = service.open_session(SPEC, epsilon=2)
            plain = service.open_session(SPEC, epsilon=2, checkpoint=False)
            assert durable.durable
            assert not plain.durable
            durable.close()
            plain.close()


def _reference(start: int, stop: int, boundaries: list[int]) -> dict:
    monitor = OnlineMonitor(SPEC, epsilon=2)
    for t in range(start, stop):
        monitor.observe("P1", t, {"b"} if t % 4 == 0 else {"a"})
        if t in boundaries:
            monitor.advance_to(t)
    return monitor.finish().verdict_counts


class TestRecovery:
    def test_kill_before_first_checkpoint_replays_from_open(self):
        """Death before any checkpoint: recovery is a fresh session_open
        plus a full journal replay."""
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2, checkpoint={"every_events": 10_000}
            )
            _feed(session, 1, 6)
            service._connections[session.worker_index].kill()
            _feed(session, 6, 10)
            session.advance_to(8)
            result = session.finish()
            assert session.recoveries == 1
            assert session.checkpoints == 0
            assert result.verdict_counts == _reference(1, 10, [8])

    def test_recovery_attempts_are_bounded(self):
        """With every endpoint dead, the ServiceError surfaces instead of
        retrying forever."""
        with MonitorService(workers=2) as service:
            session = service.open_session(SPEC, epsilon=2, checkpoint=True)
            _feed(session, 1, 4)
            for connection in service._connections:
                connection.kill()
            deadline = time.monotonic() + 15
            while not all(service.dead_endpoints()):
                assert time.monotonic() < deadline, "kill never detected"
                time.sleep(0.05)
            with pytest.raises(ServiceError):
                session.advance_to(3)

    def test_transient_send_failure_does_not_lose_buffered_events(self):
        """A send-side ServiceError with the endpoint still live resolves
        to a recovery whose only pick is the origin itself; that path
        must leave the client buffer intact so the retried advance
        carries the events instead of vacuously succeeding on an empty
        buffer (stranding them in the journal, to be truncated away by
        the next checkpoint)."""
        with MonitorService(workers=1) as service:
            session = service.open_session(
                SPEC, epsilon=2, checkpoint={"every_events": 4}
            )
            _feed(session, 1, 6)
            real = service._send_session
            failed = []

            def flaky(worker_index, op, payload):
                if op == "session_advance" and not failed:
                    failed.append(op)
                    raise ServiceError("transient send failure")
                return real(worker_index, op, payload)

            service._send_session = flaky
            try:
                session.advance_to(5)  # first send fails, retry must deliver
            finally:
                service._send_session = real
            assert failed
            result = session.finish()
            assert session.recoveries == 0  # no restore happened, just a retry
            assert result.verdict_counts == _reference(1, 6, [5])

    def test_replayed_rejections_do_not_resurface(self):
        """A client-rejected observe surfaces exactly once; after a
        recovery its journaled twin is swallowed during replay."""
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2, checkpoint={"every_events": 10_000}
            )
            _feed(session, 4, 8)
            session.advance_to(6)
            session.observe("P1", 2, {"a"})  # behind the frontier
            with pytest.raises(MonitorError, match="rejected"):
                session.poll()
            service._connections[session.worker_index].kill()
            _feed(session, 8, 11)
            result = session.finish()  # replay must not re-raise the rejection
            assert session.recoveries == 1
            assert result.verdict_counts == _reference(4, 11, [6])

    @pytest.mark.parametrize("checkpoint_between", [False, True])
    def test_events_before_a_repeated_boundary_survive_recovery(self, checkpoint_between):
        """advance_to(5), observe, advance_to(5) again: the repeat moves
        nothing on the worker, and replay carries each observe run
        inside the advance after it — where an advance that finds the
        frontier already at its boundary drops what it carries.  The
        event must reach the rebuilt monitor all the same, whether the
        first advance is still in the journal or already behind a
        checkpoint."""
        reference = OnlineMonitor(SPEC, epsilon=2)
        reference.observe("P1", 1, {"a"})
        reference.advance_to(5)
        reference.observe("P1", 6, {"b"})
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2, checkpoint={"every_events": 10_000}
            )
            session.observe("P1", 1, {"a"})
            session.advance_to(5)
            if checkpoint_between:
                assert session.checkpoint_now()
            session.observe("P1", 6, {"b"})
            session.advance_to(5)
            service._connections[session.worker_index].kill()
            result = session.finish()
            assert session.recoveries == 1
            assert result.verdict_counts == reference.finish().verdict_counts


class TestWarmStandby:
    def test_standby_replica_tracks_checkpoints(self):
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2,
                checkpoint={"every_events": 4, "standby": True},
            )
            _feed(session, 1, 7)
            session.advance_to(6)
            _feed(session, 7, 13)
            session.advance_to(12)
            assert session.checkpoint_now()  # settles the store ack too
            assert session.checkpoints >= 1
            assert session.standby_worker is not None
            assert session.standby_worker != session.worker_index
            session.finish()

    def test_replica_commit_is_ack_gated(self):
        """The replica endpoint is recorded only once the worker acks
        the store — an in-flight push is never trusted for failover."""
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2,
                checkpoint={"every_events": 4, "standby": True},
            )
            _feed(session, 1, 7)
            session.advance_to(6)
            _feed(session, 7, 13)
            session.advance_to(12)  # applies a checkpoint, starts the push
            assert session.standby_worker is None  # ack not yet harvested
            assert session.checkpoint_now()
            assert session.standby_worker is not None
            session.finish()

    def test_failover_promotes_the_standby(self):
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2,
                checkpoint={"every_events": 4, "standby": True},
            )
            _feed(session, 1, 7)
            session.advance_to(6)
            _feed(session, 7, 13)
            session.advance_to(12)
            assert session.checkpoint_now()  # applied + acked replica
            standby = session.standby_worker
            assert standby is not None
            service._connections[session.worker_index].kill()
            _feed(session, 13, 16)
            result = session.finish()
            assert session.recoveries == 1
            assert session.worker_index == standby  # promoted, not restored
            assert result.verdict_counts == _reference(1, 16, [6, 12])

    def test_hot_mode_replicates_only_marked_sessions(self):
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2,
                checkpoint={"every_events": 4, "standby": "hot"},
            )
            _feed(session, 1, 7)
            session.advance_to(6)
            _feed(session, 7, 13)
            session.advance_to(12)
            assert session.standby_worker is None  # cold: no replica
            session.mark_hot()
            _feed(session, 13, 19)
            session.advance_to(18)
            session.checkpoint_now()
            assert session.standby_worker is not None
            session.finish()

    def test_mark_cold_retires_the_replica(self):
        """A ``standby="hot"`` stream marked cold drops its replica at
        the next checkpoint instead of letting it freeze: the journal
        keeps truncating, so promoting the frozen blob later would
        silently lose every event since — recovery must take the cold
        restore path, bit-identically."""
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2,
                checkpoint={"every_events": 4, "standby": "hot"},
            )
            session.mark_hot()
            _feed(session, 1, 7)
            session.advance_to(6)
            session.checkpoint_now()
            assert session.standby_worker is not None
            session.mark_cold()
            _feed(session, 7, 13)
            session.advance_to(12)
            session.checkpoint_now()  # journal truncates; replica retired
            assert session.standby_worker is None
            service._connections[session.worker_index].kill()
            _feed(session, 13, 16)
            result = session.finish()
            assert session.recoveries == 1
            assert result.verdict_counts == _reference(1, 16, [6, 12])

    def test_push_skips_endpoints_with_unconfirmed_discards(self):
        """An endpoint that may still hold a stale live copy of this
        session (a migration discard that was never confirmed) is not a
        standby candidate; with no other peer, the stream simply keeps
        no replica."""
        with MonitorService(workers=2) as service:
            session = service.open_session(
                SPEC, epsilon=2,
                checkpoint={"every_events": 4, "standby": True},
            )
            other = 1 - session.worker_index
            session._stale_copies[other] = None  # unconfirmed discard
            _feed(session, 1, 7)
            session.advance_to(6)
            session.checkpoint_now()
            assert session.checkpoints >= 1
            assert session.standby_worker is None
            session.finish()

    def test_promote_rejects_a_stale_replica_blob(self):
        """Worker-side sequence guard: a standby blob whose checkpoint
        sequence does not match the promote's expectation is rejected
        (and discarded) instead of rehydrated with history missing."""
        from repro.service.worker import _dispatch
        from repro.transport.frames import PROMOTE_SESSION, STANDBY_SESSION

        snapshot = OnlineMonitor(SPEC, epsilon=2).snapshot()
        sessions: dict = {}
        standby: dict = {}
        _dispatch(STANDBY_SESSION, (7, 3, snapshot), sessions, standby)
        with pytest.raises(MonitorError, match="stale"):
            _dispatch(PROMOTE_SESSION, (7, 5), sessions, standby)
        assert 7 not in standby  # a stale blob has no future use
        _dispatch(STANDBY_SESSION, (7, 5, snapshot), sessions, standby)
        assert _dispatch(PROMOTE_SESSION, (7, 5), sessions, standby) == 7
        assert 7 in sessions


# -- work stealing --------------------------------------------------------------------


def _task(index: int) -> MonitorTask:
    computation = DistributedComputation.from_event_lists(
        2, {"P1": [(1, "a"), (4, ())], "P2": [(2, "a"), (5, "b")]}
    )
    return MonitorTask(
        index=index,
        kind="auto",
        formula=parse("a U[0,6) b"),
        kwargs={"saturate": False},
        computation=computation,
    )


class TestDeadEndpointStealing:
    def test_queued_batch_work_moves_to_live_endpoints(self):
        """Requests queued behind a parked one on a dead endpoint are
        re-executed exactly once on the survivor; the parked request (the
        only one that may have started) fails."""
        with MonitorService(workers=2) as service:
            pids = service.worker_pids()
            parked = service._send(0, "sleep", 30.0)
            queued = [service._send(0, "monitor", _task(i)) for i in range(3)]
            service._connections[0].kill()
            items = [future.result(20) for future in queued]
            assert [item.ok for item in items] == [True] * 3
            assert {item.worker for item in items} == {pids[1]}  # re-executed
            assert service.steals == 3
            with pytest.raises(ServiceError, match="died"):
                parked.result(20)
            deadline = time.monotonic() + 10
            while service.outstanding() != [0, 0]:
                assert time.monotonic() < deadline
                time.sleep(0.05)

    def test_maybe_started_request_fails_instead_of_double_running(self):
        """The lowest outstanding id on a dead endpoint may have begun
        executing — the idempotency guard fails it rather than re-running."""
        with MonitorService(workers=2) as service:
            pids = service.worker_pids()
            first = service._send(0, "monitor", _task(0))
            second = service._send(0, "monitor", _task(1))
            service._connections[0].kill()
            with pytest.raises(ServiceError, match="died"):
                first.result(20)
            item = second.result(20)
            assert item.ok and item.worker == pids[1]

    def test_no_live_endpoint_fails_the_queue(self):
        with MonitorService(workers=1) as service:
            parked = service._send(0, "sleep", 30.0)
            queued = service._send(0, "monitor", _task(0))
            service._connections[0].kill()
            with pytest.raises(ServiceError, match="died"):
                queued.result(20)
            with pytest.raises(ServiceError, match="died"):
                parked.result(20)


class TestLiveStealing:
    def test_steal_queued_moves_unstarted_work_exactly_once(self):
        with MonitorService(workers=2) as service:
            pids = service.worker_pids()
            parked = service._send(0, "sleep", 2.0)
            queued = [service._send(0, "monitor", _task(i)) for i in range(3)]
            initiated = service.steal_queued(0)
            assert initiated == 3
            items = [future.result(20) for future in queued]
            assert [item.ok for item in items] == [True] * 3
            assert {item.worker for item in items} == {pids[1]}
            assert parked.result(20) == 2.0  # the executing request is untouched
            assert service.steals == 3

    def test_steal_race_lost_still_runs_exactly_once(self):
        """Stealing from an endpoint that already executed the request:
        the drop loses and the original response stands."""
        with MonitorService(workers=2) as service:
            pids = service.worker_pids()
            future = service._send(0, "monitor", _task(0))
            item = future.result(20)  # executed before any steal
            assert service.steal_queued(0) == 0  # nothing left to steal
            assert item.ok and item.worker == pids[0]
            assert service.steals == 0

    def test_rebalancer_steals_from_persistently_overloaded_endpoint(self):
        with MonitorService(workers=2) as service:
            rebalancer = Rebalancer(
                service,
                policy=lambda view: [],
                steal_threshold=2,
                steal_patience=2,
            )
            service._send(0, "sleep", 2.0)
            queued = [service._send(0, "monitor", _task(i)) for i in range(3)]
            assert rebalancer.run_cycle() == []  # patience: streak of 1
            assert rebalancer.stats.steals == 0
            rebalancer.run_cycle()  # streak of 2 -> steal
            assert rebalancer.stats.steals == 3
            items = [future.result(20) for future in queued]
            assert all(item.ok for item in items)

    def test_steal_threshold_knob_requires_rebalance_policy(self):
        with pytest.raises(MonitorError, match="rebalance"):
            MonitorService(workers=1, rebalance_steal_threshold=2)
