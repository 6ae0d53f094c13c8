"""Tests for the exception hierarchy and package facade."""

import pytest

import repro
from repro.exceptions import (
    CancelledError,
    DeadlockError,
    HostFailureError,
    NoRouteError,
    PlatformError,
    SimGridError,
    SimTimeoutError,
    TransferFailureError,
)


class TestExceptionHierarchy:
    def test_every_simulation_error_is_a_simgrid_error(self):
        for exc_type in (HostFailureError, TransferFailureError,
                         SimTimeoutError, CancelledError, DeadlockError,
                         PlatformError, NoRouteError):
            assert issubclass(exc_type, SimGridError)

    def test_timeout_is_also_a_builtin_timeout(self):
        assert issubclass(SimTimeoutError, TimeoutError)
        with pytest.raises(TimeoutError):
            raise SimTimeoutError("late")

    def test_no_route_is_a_platform_error(self):
        assert issubclass(NoRouteError, PlatformError)


class TestRemovedMsgApi:
    """The deprecated MSG shim is gone, and so are its names."""

    @pytest.mark.parametrize("name", ["Environment", "Process",
                                      "ProcessState", "Task"])
    def test_legacy_names_raise_import_error(self, name):
        with pytest.raises(ImportError,
                           match=f"cannot import name '{name}' from 'repro'"):
            exec(f"from repro import {name}", {})

    @pytest.mark.parametrize("name", ["Environment", "Process",
                                      "ProcessState", "Task"])
    def test_legacy_names_are_not_attributes(self, name):
        assert not hasattr(repro, name)

    def test_msg_package_is_gone(self):
        with pytest.raises(ImportError):
            import repro.msg  # noqa: F401


class TestRemovedParallelSolveApi:
    """The parallel-solve executor and its ``REPRO_PARALLEL`` knob are gone."""

    def test_executor_class_is_gone(self):
        import repro.surf.shard as shard
        from repro.surf.engine import SurfEngine
        assert not hasattr(shard, "ParallelSolveExecutor")
        assert not hasattr(SurfEngine, "enable_parallel_solves")

    def test_engine_rejects_the_removed_flag(self):
        from repro import s4u
        from repro.platform import make_star
        with pytest.raises(TypeError, match="parallel_solves"):
            s4u.Engine(make_star(num_hosts=2), parallel_solves=True)

    def test_environment_variable_is_ignored(self, monkeypatch):
        from repro.campaign import default_campaign_workers
        from repro.surf.shard import default_workers
        monkeypatch.delenv("REPRO_CAMPAIGN_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_PARALLEL", "8")
        assert default_campaign_workers() == 0
        assert default_workers() == 0


class TestRemovedEagerRealization:
    """Realization is lazy, full stop: the mode parameters are gone."""

    @pytest.mark.parametrize("kwargs", [{"eager": True}, {"lazy": False}])
    def test_realize_rejects_the_removed_parameters(self, kwargs):
        from repro.platform import make_star
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            make_star(num_hosts=2).realize(**kwargs)


class TestPackageFacade:
    def test_version_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_paper_reference_recorded(self):
        from repro.version import PAPER
        assert "SimGrid" in PAPER and "HPDC" in PAPER
