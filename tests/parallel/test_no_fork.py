"""Without ``fork`` the multi-process searches refuse to run.

Plan resolution is the one place that decides what a spawn-only platform
runs (``tests/engine/test_registry.py::TestForkRule``).  Called directly,
the parallel searches neither fall back to serial search nor raise an
error of their own: ``default_mp_context()`` raises ``ValueError`` and
nothing is explored.
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

from repro.engine import CheckPlan
from repro.engine.events import CollectingObserver
from repro.parallel import default_mp_context, parallel_bfs_search, parallel_dfs_search
from repro.protocols.catalog import multicast_entry
from repro.swarm import parallel_swarm_search


@pytest.fixture
def spawn_only(monkeypatch):
    """Make ``multiprocessing`` behave like an interpreter without fork."""
    real_get_context = multiprocessing.get_context
    methods = [method for method in multiprocessing.get_all_start_methods()
               if method != "fork"]

    def get_context(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return real_get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)


def test_default_mp_context_is_fork_or_nothing():
    if "fork" in multiprocessing.get_all_start_methods():
        assert default_mp_context().get_start_method() == "fork"
    else:
        with pytest.raises(ValueError):
            default_mp_context()


def test_default_mp_context_raises_without_fork(spawn_only):
    with pytest.raises(ValueError, match="fork"):
        default_mp_context()


@pytest.mark.parametrize("search,plan", [
    (parallel_bfs_search, CheckPlan(shape="bfs", backend="frontier", workers=2)),
    (parallel_dfs_search, CheckPlan(backend="worksteal", workers=2)),
    (parallel_swarm_search, CheckPlan(backend="swarm", stateful=False, workers=2,
                                      walks=50, walk_seed=7)),
], ids=["frontier-bfs", "worksteal-dfs", "swarm-parallel"])
def test_parallel_searches_never_fall_back_to_serial(spawn_only, search, plan):
    entry = multicast_entry(2, 1, 0, 1)
    observer = CollectingObserver()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="fork"):
            search(entry.quorum_model(), entry.invariant, plan, observer=observer)
    assert observer.events == []
