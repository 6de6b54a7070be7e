"""Packed-state fast-path successor engine.

This package is the per-state-constant answer to the ROADMAP's "the
per-state cost is the bottleneck again once search is parallel" item: a
protocol *compiler* that runs once per check and lowers the object-graph
model into table-driven form, so searches can run on the lowered
representation end to end.

* :class:`FastSuccessorEngine` (:mod:`repro.fastpath.compiler`) interns
  local states and messages to small integers, packs a global state into a
  flat tuple of machine words (one local id per process, then one
  ``message id << 32 | count`` word per distinct pending message, sorted),
  specialises every transition's guard/action into memo tables over those
  ids (the action memo holds the *effect* of an application, so a successor
  is a list copy plus one ``bisect`` per changed entry), and maintains the
  PR-1 incremental XOR fingerprint directly over words — packed
  fingerprints are bit-identical to
  :meth:`repro.mp.state.GlobalState.fingerprint`.
* :mod:`repro.fastpath.search` holds no loop of its own: it supplies what
  :class:`~repro.checker.stategraph.PackedGraph` is made of (the packed
  store, the memoised property predicates) and the ``fast_dfs_search`` /
  ``fast_bfs_search`` / ``fast_ndfs_search`` entry points, which run the
  one serial loop of :mod:`repro.checker.search` over that graph.
  Object-graph states are materialised only for counterexamples and
  property-memo misses — never on the hot successor path, reduced or not.

There is no parallel module: behind the plan layer's ``successors="fast"``
axis every engine that has a loop — ``serial-dfs`` / ``serial-bfs`` /
``serial-ndfs``, ``frontier-bfs`` / ``worksteal-dfs`` (:mod:`repro.parallel`)
and the swarm walkers — runs that one loop over the packed graph.  The
parallel loops never ship packed words: interned ids are handed out lazily,
per process, so what crosses a process boundary is integers or
``decode``d object-form states.
"""

from .compiler import FastSuccessorEngine, PackedState
from .search import fast_bfs_search, fast_dfs_search

__all__ = [
    "FastSuccessorEngine",
    "PackedState",
    "fast_bfs_search",
    "fast_dfs_search",
]
