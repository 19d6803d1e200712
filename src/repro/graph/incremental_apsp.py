"""Exact incremental all-pairs shortest paths across small edge deltas.

The streaming workload recomputes APSP on a TMFG whose *topology and most
edge weights survive* from one warm tick to the next — the ROADMAP's
"dynamic APSP" item.  :class:`IncrementalAPSP` keeps the previous graph and
its distance matrix, diffs the next graph against it, and recomputes only
the source rows whose distances can actually change.  Rows it keeps are
**provably byte-identical** to a cold recompute, so the engine carries the
same equivalence guarantee as the TMFG warm starts: output never differs
from cold ``dijkstra``, only the cost does.

Which rows can change?
----------------------
Dijkstra's distance ``d(s, t)`` equals the minimum, over all ``s -> t``
paths, of the path's left-associated float sum (each relaxation computes
``fl(d[u] + w)``, so every candidate value *is* such a sum, and the minimum
is attained by the settled predecessor chain).  That characterisation gives
two sound per-edge tests against the current matrix ``D``:

* **inserted or decreased** edge ``(u, v, w_new)``: row ``s`` can only
  change if the edge improves something it can reach, i.e.
  ``fl(D[s,u] + w_new) < D[s,v]`` or ``fl(D[s,v] + w_new) < D[s,u]``.
  Otherwise every path through the edge is at least as long as a path that
  avoids it (replace the prefix through the edge with the old shortest
  path; float addition is monotone, so the bound survives rounding).
* **removed or increased** edge ``(u, v, w_old)``: row ``s`` can only
  change if the edge was *tight* — on some shortest path — i.e.
  ``fl(D[s,u] + w_old) == D[s,v]`` or ``fl(D[s,v] + w_old) == D[s,u]``.
  If not, the predecessor chain Dijkstra settled (whose arcs are all tight
  by construction) avoids the edge, so the minimum is unaffected.

Unaffected rows are reused as-is; affected rows are recomputed with the
cold batched relaxation (:mod:`repro.graph.shortest_paths`) on the new
graph, chunked over the same
:class:`~repro.parallel.scheduler.ParallelBackend` as a cold run.  When the
delta is large (a cold start, a reshaped universe, or more than
``rebuild_edge_fraction`` of the edges changed) the engine skips the tests
and recomputes everything — it degrades to exactly one cold APSP plus an
O(m) diff, never worse.

The dispatcher exposes this as ``apsp_method="incremental"`` (see
:func:`repro.graph.shortest_paths.all_pairs_shortest_paths`); the streaming
runner owns one engine per stream and threads it through the estimator so a
warm tick's APSP cost scales with the delta instead of ``n^2 log n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.weighted_graph import WeightedGraph

GraphLike = Union[WeightedGraph, CSRGraph]

#: Give up on row-level repair and recompute everything once more than this
#: fraction of the undirected edges changed: the per-edge tests would cost
#: more than they could save, and a full rebuild is exactly a cold run.
REBUILD_EDGE_FRACTION = 0.25

#: Likewise once the affected-source tests mark more than this fraction of
#: the rows: recomputing nearly all rows through the row-repair path would
#: only add the diff overhead on top of a cold run's cost.
REBUILD_ROW_FRACTION = 0.75


@dataclass
class IncrementalStats:
    """Counters describing how much work the engine actually did."""

    updates: int = 0
    full_rebuilds: int = 0
    unchanged_updates: int = 0
    changed_edges: int = 0
    recomputed_rows: int = 0
    reused_rows: int = 0
    last_changed_edges: int = 0
    last_recomputed_rows: int = 0

    @property
    def reuse_rate(self) -> float:
        """Fraction of rows served from the previous matrix."""
        total = self.recomputed_rows + self.reused_rows
        return self.reused_rows / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "updates": self.updates,
            "full_rebuilds": self.full_rebuilds,
            "unchanged_updates": self.unchanged_updates,
            "changed_edges": self.changed_edges,
            "recomputed_rows": self.recomputed_rows,
            "reused_rows": self.reused_rows,
            "reuse_rate": self.reuse_rate,
        }


@dataclass(frozen=True)
class _EdgeDelta:
    """Undirected edge changes between two graphs on the same vertex set."""

    # Edges present in the new graph that were absent before, or whose
    # weight decreased: tested with the *new* weight for improvement.
    improve_u: np.ndarray
    improve_v: np.ndarray
    improve_w: np.ndarray
    # Edges absent from the new graph, or whose weight increased: tested
    # with the *old* weight for tightness.
    tight_u: np.ndarray
    tight_v: np.ndarray
    tight_w: np.ndarray

    @property
    def num_changed(self) -> int:
        return int(self.improve_u.size + self.tight_u.size)


def _edge_keys(csr: CSRGraph) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted unique u*n+v keys, weights)`` over undirected edges (u<v).

    CSR arcs are sorted by ``(head, tail)``, so the upper-triangle arcs are
    already in ascending key order — no sort needed.
    """
    heads = np.repeat(np.arange(csr.num_vertices, dtype=np.int64), csr.degrees())
    upper = heads < csr.indices
    keys = heads[upper] * np.int64(csr.num_vertices) + csr.indices[upper]
    return keys, csr.weights[upper]


def _diff_graphs(old: CSRGraph, new: CSRGraph) -> _EdgeDelta:
    """Classify every changed undirected edge into improve/tight tests."""
    n = np.int64(old.num_vertices)
    old_keys, old_w = _edge_keys(old)
    new_keys, new_w = _edge_keys(new)

    in_old = np.isin(new_keys, old_keys, assume_unique=True)
    in_new = np.isin(old_keys, new_keys, assume_unique=True)
    added_keys, added_w = new_keys[~in_old], new_w[~in_old]
    removed_keys, removed_w = old_keys[~in_new], old_w[~in_new]

    # Surviving edges: weights compared positionally (both key arrays are
    # sorted, so the common subsequences line up after masking).
    common_old_w = old_w[in_new]
    common_new_w = new_w[in_old]
    common_keys = new_keys[in_old]
    decreased = common_new_w < common_old_w
    increased = common_new_w > common_old_w

    improve_keys = np.concatenate([added_keys, common_keys[decreased]])
    improve_w = np.concatenate([added_w, common_new_w[decreased]])
    tight_keys = np.concatenate([removed_keys, common_keys[increased]])
    tight_w = np.concatenate([removed_w, common_old_w[increased]])
    return _EdgeDelta(
        improve_u=(improve_keys // n),
        improve_v=(improve_keys % n),
        improve_w=improve_w,
        tight_u=(tight_keys // n),
        tight_v=(tight_keys % n),
        tight_w=tight_w,
    )


def _affected_sources(distances: np.ndarray, delta: _EdgeDelta) -> np.ndarray:
    """Boolean mask of sources whose rows may change under ``delta``.

    Vectorised over all changed edges at once: each test reads two columns
    of the current matrix per edge, O(n) per changed edge in total.
    """
    affected = np.zeros(distances.shape[0], dtype=bool)
    if delta.improve_u.size:
        du = distances[:, delta.improve_u]
        dv = distances[:, delta.improve_v]
        improves = (du + delta.improve_w < dv) | (dv + delta.improve_w < du)
        affected |= improves.any(axis=1)
    if delta.tight_u.size:
        du = distances[:, delta.tight_u]
        dv = distances[:, delta.tight_v]
        tight = (du + delta.tight_w == dv) | (dv + delta.tight_w == du)
        affected |= tight.any(axis=1)
    return affected


class IncrementalAPSP:
    """Distance-matrix state carried across graph updates.

    Parameters
    ----------
    rebuild_edge_fraction / rebuild_row_fraction:
        Give-up thresholds (see module docstring); the defaults match
        :data:`REBUILD_EDGE_FRACTION` / :data:`REBUILD_ROW_FRACTION`.

    The matrix returned by :meth:`update` is the engine's stored array; the
    engine copies it before patching on the *next* update, so callers may
    keep references without them mutating underneath (the streaming runner
    stores one per tick result).
    """

    def __init__(
        self,
        rebuild_edge_fraction: float = REBUILD_EDGE_FRACTION,
        rebuild_row_fraction: float = REBUILD_ROW_FRACTION,
    ) -> None:
        if not 0.0 <= rebuild_edge_fraction <= 1.0:
            raise ValueError("rebuild_edge_fraction must be in [0, 1]")
        if not 0.0 < rebuild_row_fraction <= 1.0:
            raise ValueError("rebuild_row_fraction must be in (0, 1]")
        self.rebuild_edge_fraction = rebuild_edge_fraction
        self.rebuild_row_fraction = rebuild_row_fraction
        self.stats = IncrementalStats()
        self._csr: Optional[CSRGraph] = None
        self._distances: Optional[np.ndarray] = None

    @property
    def distances(self) -> Optional[np.ndarray]:
        """The current distance matrix (``None`` before the first update)."""
        return self._distances

    def reset(self) -> None:
        """Drop the carried state; the next update runs cold."""
        self._csr = None
        self._distances = None

    def update(self, graph: GraphLike, backend=None) -> np.ndarray:
        """Distances of ``graph``, repaired from the previous update's state.

        Byte-identical to ``all_pairs_shortest_paths(graph,
        method="dijkstra")`` on every call; only the cost depends on how
        much changed since the last one.
        """
        from repro.graph.shortest_paths import shortest_paths_from_sources

        csr = graph if isinstance(graph, CSRGraph) else graph.to_csr()
        csr.validate_non_negative()
        n = csr.num_vertices
        self.stats.updates += 1

        previous = self._csr
        if previous is None or previous.num_vertices != n:
            return self._full_rebuild(csr, backend)

        num_edges = max(previous.num_edges, csr.num_edges, 1)
        delta = _diff_graphs(previous, csr)
        if delta.num_changed == 0:
            self.stats.unchanged_updates += 1
            self.stats.reused_rows += n
            self._csr = csr
            return self._distances
        self.stats.changed_edges += delta.num_changed
        self.stats.last_changed_edges = delta.num_changed
        if delta.num_changed > self.rebuild_edge_fraction * num_edges:
            return self._full_rebuild(csr, backend)

        affected = _affected_sources(self._distances, delta)
        num_affected = int(affected.sum())
        if num_affected > self.rebuild_row_fraction * n:
            return self._full_rebuild(csr, backend)

        repaired = self._distances.copy()
        if num_affected:
            sources = np.flatnonzero(affected)
            repaired[sources] = shortest_paths_from_sources(csr, sources, backend=backend)
        self.stats.recomputed_rows += num_affected
        self.stats.reused_rows += n - num_affected
        self.stats.last_recomputed_rows = num_affected
        self._csr = csr
        self._distances = repaired
        return repaired

    def _full_rebuild(self, csr: CSRGraph, backend) -> np.ndarray:
        from repro.graph.shortest_paths import all_pairs_shortest_paths

        self.stats.full_rebuilds += 1
        self.stats.recomputed_rows += csr.num_vertices
        self.stats.last_recomputed_rows = csr.num_vertices
        self._csr = csr
        self._distances = all_pairs_shortest_paths(csr, backend=backend, method="dijkstra")
        return self._distances
