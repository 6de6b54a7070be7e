"""Checkpoint/resume for breadth-first searches.

A breadth-first search has a natural durable point: the level barrier.
Everything the search will ever need again is the visited set, the parent
edges (for counterexample rebuilding) and the current frontier — all of
which the coordinator holds between levels.  A :class:`Checkpoint`
serialises exactly that, so a run killed mid-search resumes from the last
completed level with a verdict and visited count identical to an
uninterrupted run.

Two representation decisions matter:

* **States, not fingerprints.**  Object-graph fingerprints are derived
  from Python's string hashing (see :mod:`repro.mp.state`), which is
  per-process unless ``PYTHONHASHSEED`` is pinned.  A checkpoint loaded
  into a fresh process would mis-route every stored fingerprint, so the
  checkpoint stores the compact state pickles (``GlobalState.__reduce__``
  is small and carries no hash) and the resuming process recomputes
  fingerprints itself.  This also makes a checkpoint valid for *any*
  worker count: resharding is recomputed at restore time.

* **Execution indices, not executions.**  Transition executions close
  over protocol callables and do not pickle.  Parent edges store the index
  of the execution within the parent's enabled set — the enabled order is
  deterministic — and the resuming process recomputes the execution only
  if a counterexample actually needs rebuilding.

Files are written atomically (temp file + ``os.replace``) so a crash
mid-write can never leave a truncated checkpoint that parses.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..mp.state import GlobalState
from .result import SearchStatistics

#: Bumped whenever the on-disk layout changes; a mismatch is a hard error,
#: never a silent misparse.
CHECKPOINT_VERSION = 1

#: File suffix of checkpoint files inside a checkpoint directory.
CHECKPOINT_SUFFIX = ".ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt or incompatible."""


@dataclass
class Checkpoint:
    """A BFS level barrier, serialised.

    Attributes:
        depth: Completed levels (in edges); the resumed search continues
            expanding the stored frontier as level ``depth + 1``.
        statistics: Exploration counters accumulated so far.  The resumed
            run continues these, so the final visited/transition counts
            match an uninterrupted run exactly.
        states: Every visited state, in discovery order.  Index in this
            list is the state's identity within the checkpoint.
        edges: Parent edge per state, aligned with ``states``:
            ``(parent_index, exec_index)`` or ``None`` for the initial
            state.  ``exec_index`` indexes the parent's deterministic
            enabled-execution order.
        frontier: Indices (into ``states``) of the current frontier.
        meta: Informational context (protocol/property names, worker
            count); consulted by humans and sanity checks, not by the
            resume algorithm.
    """

    depth: int
    statistics: SearchStatistics
    states: List[GlobalState]
    edges: List[Optional[Tuple[int, int]]]
    frontier: List[int]
    meta: dict = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"checkpoint at depth {self.depth}: {len(self.states)} states, "
            f"frontier {len(self.frontier)}"
        )


def checkpoint_path(directory: str, depth: int) -> str:
    """Canonical file name for a level's checkpoint inside a directory."""
    return os.path.join(directory, f"checkpoint-{depth:06d}{CHECKPOINT_SUFFIX}")


def write_checkpoint(checkpoint: Checkpoint, directory: str) -> str:
    """Atomically write a checkpoint into ``directory``; returns its path.

    The directory is created on demand.  The write goes to a temp file in
    the same directory first and is published with ``os.replace``, so
    readers only ever see complete checkpoints.
    """
    os.makedirs(directory, exist_ok=True)
    payload = {
        "version": CHECKPOINT_VERSION,
        "depth": checkpoint.depth,
        "statistics": dataclasses.asdict(checkpoint.statistics),
        "states": checkpoint.states,
        "edges": checkpoint.edges,
        "frontier": checkpoint.frontier,
        "meta": checkpoint.meta,
    }
    final_path = checkpoint_path(directory, checkpoint.depth)
    fd, temp_path = tempfile.mkstemp(
        prefix=".checkpoint-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp_path, final_path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return final_path


def latest_checkpoint(directory: str) -> Optional[str]:
    """Path of the deepest checkpoint in a directory, or ``None``."""
    try:
        names = os.listdir(directory)
    except OSError:
        return None
    candidates = sorted(
        name for name in names
        if name.startswith("checkpoint-") and name.endswith(CHECKPOINT_SUFFIX)
    )
    if not candidates:
        return None
    return os.path.join(directory, candidates[-1])


def load_checkpoint(path: str) -> Checkpoint:
    """Load a checkpoint from a file, or the deepest one from a directory.

    Raises:
        CheckpointError: The path names no checkpoint, or the file is
            corrupt or from an incompatible version.
    """
    if os.path.isdir(path):
        resolved = latest_checkpoint(path)
        if resolved is None:
            raise CheckpointError(f"no checkpoint files in directory {path!r}")
        path = resolved
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint {path!r} does not exist") from None
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            TypeError) as exc:
        raise CheckpointError(f"checkpoint {path!r} is unreadable: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has unsupported version "
            f"{payload.get('version') if isinstance(payload, dict) else '?'} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    try:
        return Checkpoint(
            depth=payload["depth"],
            statistics=SearchStatistics(**payload["statistics"]),
            states=payload["states"],
            edges=payload["edges"],
            frontier=payload["frontier"],
            meta=payload.get("meta", {}),
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"checkpoint {path!r} is malformed: {exc}") from exc
