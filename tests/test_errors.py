"""Tests for the exception hierarchy and error-path behaviours."""

import pytest

from repro import errors


def test_every_error_derives_from_repro_error():
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError), name


def test_hierarchy_relationships():
    assert issubclass(errors.DeadlockError, errors.SimulationError)
    assert issubclass(errors.ProcessKilled, errors.SimulationError)
    assert issubclass(errors.SynchronizationError, errors.ProtocolError)


def test_deadlock_error_names_blocked_processes():
    err = errors.DeadlockError(["main1", "server2"])
    assert err.blocked == ["main1", "server2"]
    assert "main1" in str(err) and "server2" in str(err)


def test_catching_the_base_class_catches_everything():
    with pytest.raises(errors.ReproError):
        raise errors.RecoveryError("x")
    with pytest.raises(errors.ReproError):
        raise errors.DeadlockError(["p"])


class TestDefaultLoggingHooks:
    """The NoLogging baseline must be a total no-op for every hook."""

    def test_all_hooks_are_noops(self):
        import numpy as np

        from repro.dsm import NoLogging, VectorClock
        from repro.dsm.logginghooks import LogPolicy
        from repro.dsm.messages import DiffBatch
        from repro.memory import Diff

        hooks = NoLogging()
        hooks.bind(object())
        vt = VectorClock.zero(2)
        d = Diff(0, [(0, np.array([1], dtype=np.uint32))])
        hooks.on_notices_received([], 0)
        hooks.on_page_fetched(0, np.zeros(16, np.uint8), vt, 0)
        hooks.on_update_received(DiffBatch(0, 0, vt, [d]))
        hooks.on_early_diff(d, 1, vt)
        hooks.on_interval_end(0, vt, [], [], None)
        assert hooks.overlapped_flush() is None
        assert list(hooks.sync_entry_flush()) == []
        assert hooks.log_summary()["flushes"] == 0
        assert hooks.policy == LogPolicy()
