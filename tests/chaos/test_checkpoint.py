"""Checkpoint/resume of the breadth-first searches.

A checkpoint written at a level barrier must restore into exactly the run
that wrote it: resuming completes with the same verdict and the same
visited/transition counts as the uninterrupted run — including resuming a
parallel checkpoint at a *different* worker count, since states (not
fingerprints) are serialised and the shard partition is recomputed at
load time — and, since the serial and the frontier BFS loop both write
object states through the ``StateGraph`` seam, over a *different state
graph*: a checkpoint written by ``successors="fast"`` resumes under
``"object"`` and vice versa.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import pytest

from repro.checker.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
)
from repro.checker.search import bfs_search
from repro.engine import CheckPlan, UnsupportedPlanError, resolve, run_plan
from repro.engine.events import CollectingObserver
from repro.parallel import parallel_bfs_search
from repro.protocols.catalog import paxos_entry, storage_entry

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel checkpoint tests require the fork start method",
)


@pytest.fixture()
def cell():
    entry = storage_entry(3, 1)
    return entry.single_model(), entry.invariant


#: (writer, resumer) state graphs of the cross-graph resume tests.
GRAPH_PAIRS = [
    pytest.param(writer, resumer, id=f"{writer}-to-{resumer}")
    for writer in ("object", "fast") for resumer in ("object", "fast")
]

#: Resume cells: (entry, model, checkpoint_every, pinned (states, transitions)
#: of the uninterrupted run, or None to compare against the writer's run only).
RESUME_CELLS = [
    pytest.param(storage_entry(3, 1), "single", None, None, id="storage-3-1"),
    pytest.param(paxos_entry(3, 2, 1), "quorum", 4, (3241, 8508),
                 id="paxos-3-2-1-every-4"),
]


def assert_same_counts(outcome, base):
    assert (
        outcome.statistics.states_visited,
        outcome.statistics.transitions_executed,
        outcome.statistics.revisits,
        outcome.statistics.max_depth,
    ) == (
        base.statistics.states_visited,
        base.statistics.transitions_executed,
        base.statistics.revisits,
        base.statistics.max_depth,
    )


class TestCheckpointFiles:
    def test_serial_run_writes_checkpoints(self, cell, tmp_path):
        protocol, invariant = cell
        observer = CollectingObserver()
        outcome = bfs_search(
            protocol, invariant,
            CheckPlan(checkpoint_dir=str(tmp_path)),
            observer=observer,
        )
        assert outcome.complete
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names
        assert all(name.startswith("checkpoint-") for name in names)
        written = [
            event for event in observer.events
            if event.kind == "checkpoint-written"
        ]
        assert len(written) == len(names)
        assert written[0].payload["path"] == str(
            checkpoint_path(str(tmp_path), written[0].payload["depth"])
        )

    def test_checkpoint_every_thins_the_series(self, cell, tmp_path):
        protocol, invariant = cell
        every = tmp_path / "every"
        sparse = tmp_path / "sparse"
        bfs_search(protocol, invariant, CheckPlan(checkpoint_dir=str(every)))
        bfs_search(
            protocol, invariant,
            CheckPlan(checkpoint_dir=str(sparse), checkpoint_every=3),
        )
        assert 0 < len(list(sparse.iterdir())) < len(list(every.iterdir()))

    def test_latest_checkpoint_picks_deepest(self, cell, tmp_path):
        protocol, invariant = cell
        bfs_search(protocol, invariant, CheckPlan(checkpoint_dir=str(tmp_path)))
        names = sorted(path.name for path in tmp_path.iterdir())
        assert latest_checkpoint(str(tmp_path)).endswith(names[-1])

    def test_load_rejects_missing_and_garbage(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path))  # empty directory
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(garbage))

    def test_load_validates_version(self, cell, tmp_path):
        import pickle

        protocol, invariant = cell
        bfs_search(protocol, invariant, CheckPlan(checkpoint_dir=str(tmp_path)))
        path = latest_checkpoint(str(tmp_path))
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert payload["version"] == CHECKPOINT_VERSION
        payload["version"] = CHECKPOINT_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_describe_mentions_depth_and_states(self, cell, tmp_path):
        protocol, invariant = cell
        bfs_search(protocol, invariant, CheckPlan(checkpoint_dir=str(tmp_path)))
        checkpoint = load_checkpoint(str(tmp_path))
        description = checkpoint.describe()
        assert str(checkpoint.depth) in description
        assert str(len(checkpoint.states)) in description


class TestSerialResume:
    @pytest.mark.parametrize("writer, resumer", GRAPH_PAIRS)
    @pytest.mark.parametrize("entry, model, every, pinned", RESUME_CELLS)
    def test_resume_from_every_checkpoint_matches(
        self, entry, model, every, pinned, writer, resumer, tmp_path
    ):
        protocol = entry.quorum_model() if model == "quorum" else entry.single_model()
        invariant = entry.invariant
        base = bfs_search(
            protocol, invariant,
            CheckPlan(checkpoint_dir=str(tmp_path), checkpoint_every=every,
                      successors=writer),
        )
        if pinned is not None:
            assert (base.statistics.states_visited,
                    base.statistics.transitions_executed) == pinned
        checkpoints = sorted(tmp_path.iterdir())
        assert checkpoints
        for path in checkpoints:
            resumed = bfs_search(
                protocol, invariant,
                CheckPlan(resume_from=str(path), successors=resumer),
            )
            assert resumed.verified == base.verified
            assert resumed.complete
            assert (
                resumed.statistics.states_visited
                == base.statistics.states_visited
            )
            assert (
                resumed.statistics.transitions_executed
                == base.statistics.transitions_executed
            )

    def test_resume_from_directory_uses_latest(self, cell, tmp_path):
        protocol, invariant = cell
        base = bfs_search(
            protocol, invariant, CheckPlan(checkpoint_dir=str(tmp_path))
        )
        resumed = bfs_search(
            protocol, invariant, CheckPlan(resume_from=str(tmp_path))
        )
        assert resumed.statistics.states_visited == base.statistics.states_visited

    def test_resume_rejects_wrong_protocol(self, cell, tmp_path):
        protocol, invariant = cell
        bfs_search(protocol, invariant, CheckPlan(checkpoint_dir=str(tmp_path)))
        other = storage_entry(3, 2).single_model()
        with pytest.raises(CheckpointError):
            bfs_search(
                other, invariant, CheckPlan(resume_from=str(tmp_path))
            )

    @pytest.mark.parametrize("writer, resumer", GRAPH_PAIRS)
    def test_truncated_run_resumes_to_completion(self, cell, tmp_path,
                                                 writer, resumer):
        # The kill→resume story in miniature: a budget-truncated run
        # stands in for a killed process (same on-disk state), and the
        # resumed run must land on the uninterrupted totals.
        protocol, invariant = cell
        base = bfs_search(protocol, invariant)
        truncated = bfs_search(
            protocol, invariant,
            CheckPlan(checkpoint_dir=str(tmp_path), max_states=500,
                      successors=writer),
        )
        assert truncated.complete is False
        resumed = bfs_search(
            protocol, invariant,
            CheckPlan(resume_from=str(tmp_path), successors=resumer),
        )
        assert resumed.complete
        assert resumed.statistics.states_visited == base.statistics.states_visited


@needs_fork
class TestParallelResume:
    @pytest.mark.parametrize("writer, resumer", GRAPH_PAIRS)
    def test_parallel_checkpoint_resumes_at_any_worker_count(
        self, cell, tmp_path, writer, resumer
    ):
        protocol, invariant = cell
        base = bfs_search(protocol, invariant)
        full = parallel_bfs_search(
            protocol, invariant,
            CheckPlan(checkpoint_dir=str(tmp_path), checkpoint_every=2,
                      successors=writer, workers=4),
        )
        assert full.statistics.states_visited == base.statistics.states_visited
        first = sorted(tmp_path.iterdir())[0]
        assert load_checkpoint(str(first)).meta["engine"] == "frontier-bfs"
        for workers in (1, 2, 3):
            resumed = run_plan(
                protocol, invariant,
                CheckPlan(shape="bfs", resume_from=str(first),
                          successors=resumer, workers=workers),
            )
            assert resumed.verified == base.verified
            assert resumed.complete
            assert_same_counts(resumed, base)

    @pytest.mark.parametrize("graph", ["object", "fast"])
    @pytest.mark.parametrize("store", ["full", "sharded-fingerprint"])
    def test_resume_from_every_parallel_checkpoint_matches(
        self, cell, tmp_path, graph, store
    ):
        # ... and a resumed run that then loses a worker still lands on the
        # uninterrupted totals: restart and resume share one restore path.
        protocol, invariant = cell
        base = bfs_search(protocol, invariant)
        config = CheckPlan(store=store, successors=graph)
        parallel_bfs_search(
            protocol, invariant,
            dataclasses.replace(config, checkpoint_dir=str(tmp_path),
                                checkpoint_every=3, workers=2),
        )
        checkpoints = sorted(tmp_path.iterdir())
        assert len(checkpoints) > 1
        for path in checkpoints:
            for chaos in (None, "crash:1@3"):
                observer = CollectingObserver()
                resumed = parallel_bfs_search(
                    protocol, invariant,
                    dataclasses.replace(config, resume_from=str(path), chaos=chaos,
                                        workers=3),
                    observer=observer,
                )
                assert resumed.complete
                assert_same_counts(resumed, base)
                assert observer.counts().get("worker-restarted", 0) == (chaos is not None)

    @pytest.mark.parametrize("writer", ["object", "fast"])
    def test_serial_checkpoint_resumes_in_parallel_and_back(self, cell, tmp_path,
                                                            writer):
        protocol, invariant = cell
        base = bfs_search(
            protocol, invariant,
            CheckPlan(checkpoint_dir=str(tmp_path), successors=writer),
        )
        middle = sorted(tmp_path.iterdir())[len(list(tmp_path.iterdir())) // 2]
        crossed = parallel_bfs_search(
            protocol, invariant, CheckPlan(resume_from=str(middle), workers=2)
        )
        assert_same_counts(crossed, base)
        back = tmp_path / "back"
        parallel_bfs_search(
            protocol, invariant,
            CheckPlan(checkpoint_dir=str(back), checkpoint_every=4,
                      successors=writer, workers=2),
        )
        serial = bfs_search(
            protocol, invariant, CheckPlan(resume_from=str(back))
        )
        assert_same_counts(serial, base)

    def test_fast_frontier_plan_writes_version_1_files(self, cell, tmp_path):
        # Fails at the parent: the packed frontier ignored checkpoint_dir.
        import pickle

        protocol, invariant = cell
        run_plan(protocol, invariant, CheckPlan(
            shape="bfs", backend="frontier", workers=2, successors="fast",
            checkpoint_dir=str(tmp_path), checkpoint_every=4,
        ))
        files = sorted(tmp_path.iterdir())
        assert files
        for path in files:
            with open(path, "rb") as handle:
                assert pickle.load(handle)["version"] == CHECKPOINT_VERSION == 1


class TestCheckpointKnobRejection:
    """Plan resolution refuses the knobs on engines without level barriers."""

    @pytest.mark.parametrize("knob", [
        {"checkpoint_dir": "/tmp/nope"},
        {"resume_from": "/tmp/nope"},
    ])
    def test_dfs_rejects(self, cell, knob):
        protocol, invariant = cell
        with pytest.raises(UnsupportedPlanError) as excinfo:
            run_plan(protocol, invariant, CheckPlan(**knob))
        assert excinfo.value.axis == next(iter(knob))
        assert excinfo.value.alternative == CheckPlan()

    @pytest.mark.parametrize("graph", ["object", "fast"])
    @pytest.mark.parametrize("knob", [
        {"checkpoint_dir": "/tmp/nope"},
        {"resume_from": "/tmp/nope"},
    ])
    def test_worksteal_rejects(self, cell, knob, graph):
        # Fails at the parent: both work-stealing twins ignored the knobs.
        protocol, invariant = cell
        with pytest.raises(UnsupportedPlanError, match="worksteal-dfs") as excinfo:
            run_plan(protocol, invariant,
                     CheckPlan(successors=graph, workers=2, **knob))
        assert excinfo.value.axis == next(iter(knob))

    def test_ndfs_rejects(self):
        with pytest.raises(UnsupportedPlanError, match="serial-ndfs") as excinfo:
            resolve(CheckPlan(goal="liveness", checkpoint_dir="/tmp/nope"))
        assert excinfo.value.axis == "checkpoint_dir"
