"""Shortest-path computations on the filtered graph.

DBHT needs all-pairs shortest paths (APSP) on the TMFG/PMFG using the
*dissimilarity* weights (Line 7 of Algorithm 4).  The filtered graph has
Theta(n) edges, so running Dijkstra from every source costs O(n^2 log n)
work, matching what the paper's implementation does.  Each single-source
computation is independent, which is where the paper gets its parallelism.

The computation runs on the frozen CSR form of the graph
(:class:`~repro.graph.csr.CSRGraph`) as a batched Bellman-Ford-style
relaxation: a block of 64 sources advances together, one hop per round.
Because the CSR graph is symmetric, row ``v`` is exactly the set of in-arcs
of ``v``.  The arcs are laid out "jagged-diagonal": vertices sorted by
degree, slot ``k`` holding the ``k``-th in-arc of every vertex of degree
> ``k`` (a contiguous row prefix), so a slot is one gather, one add and one
in-place ``np.minimum``; the few hubs left once a slot covers fewer than 64
vertices take their remaining arcs through one ``np.minimum.reduceat``.
Every candidate is ``fl(d[u] + w)`` and the min is exact, so the converged
distances are byte-identical to the adjacency-list reference
:func:`dijkstra`.  Converges in hop-diameter rounds, which is small on
filtered graphs.

Sources are chunked over a :class:`~repro.parallel.scheduler.ParallelBackend`;
the chunk worker is a module-level function over picklable CSR arrays, so
the process-pool backend works out of the box.  Negative weights are
rejected up front at graph freeze time (``CSRGraph.min_weight``) instead of
mid-traversal after partial work.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.weighted_graph import WeightedGraph
from repro.obs.tracer import trace_span
from repro.parallel.scheduler import ParallelBackend, get_backend, make_backend

GraphLike = Union[WeightedGraph, CSRGraph]

#: Landmark count used by ``apsp_method="landmark"`` when none is configured.
DEFAULT_LANDMARKS = 32

#: Sources relaxed together by the relaxation kernel, and the smallest vertex
#: count a jagged-diagonal slot may cover before the remaining (hub) arcs go
#: through one segmented min.  The round's working set is ``n x block``
#: floats, small enough to stay in the CPU cache.
_RELAX_BLOCK_SOURCES = 64


def _as_csr(graph: GraphLike) -> CSRGraph:
    return graph if isinstance(graph, CSRGraph) else graph.to_csr()


def dijkstra(graph: GraphLike, source: int) -> np.ndarray:
    """Single-source shortest path distances from ``source``.

    Edge weights must be non-negative (validated up front, before any
    traversal work).  Unreachable vertices get ``inf``.  For a
    :class:`WeightedGraph` this is the adjacency-list reference
    implementation; a :class:`CSRGraph` runs the batched relaxation.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    if isinstance(graph, CSRGraph):
        graph.validate_non_negative()
        return _relax_sources(graph.indptr, graph.indices, graph.weights, [source])[0]
    if graph.has_negative_weights():
        raise ValueError("Dijkstra requires non-negative edge weights")
    distances = np.full(n, np.inf, dtype=float)
    distances[source] = 0.0
    visited = np.zeros(n, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        dist_u, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        for v, weight in graph.neighbors(u):
            candidate = dist_u + weight
            if candidate < distances[v]:
                distances[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return distances


#: Registered APSP implementations, keyed by the ``method`` string callers
#: (and ``ClusteringConfig.apsp_method``) select with.  Each entry is called
#: as ``fn(graph, backend=..., **options)`` and returns the
#: ``n x n`` distance matrix.
_APSP_DISPATCH: Dict[str, Callable[..., np.ndarray]] = {}


def register_apsp_method(
    name: str, fn: Callable[..., np.ndarray], replace: bool = False
) -> None:
    """Register an APSP implementation under ``method=name``.

    The config layer validates ``apsp_method`` against this registry, so a
    method registered here is immediately usable from
    :class:`~repro.api.config.ClusteringConfig`, the CLI, and the server.
    """
    if not name or not isinstance(name, str):
        raise ValueError("APSP method name must be a non-empty string")
    if name in _APSP_DISPATCH and not replace:
        raise ValueError(f"APSP method {name!r} is already registered")
    if not callable(fn):
        raise TypeError(f"APSP method {name!r} must be callable")
    _APSP_DISPATCH[name] = fn


def available_apsp_methods() -> tuple:
    """Sorted ids of every registered APSP method."""
    return tuple(sorted(_APSP_DISPATCH))


def all_pairs_shortest_paths(
    graph: GraphLike,
    backend: Optional[Union[ParallelBackend, str]] = None,
    method: str = "dijkstra",
    **options,
) -> np.ndarray:
    """All-pairs shortest path distance matrix of a sparse graph.

    ``method`` selects the algorithm from the registry
    (:func:`register_apsp_method`); the built-ins:

    * ``"dijkstra"`` (default) — exact single-source distances from every
      source, the algorithm the paper's implementation uses, run as the
      batched CSR relaxation with the sources chunked over the backend.
    * ``"scipy"`` — SciPy's C Dijkstra
      (``scipy.sparse.csgraph.shortest_path``), byte-identical to
      ``"dijkstra"`` and faster, but importing ``scipy.sparse.csgraph``
      costs tens of MB of resident memory, so it is opt-in (see
      ``benchmarks/bench_apsp_backends.py``).
    * ``"incremental"`` — exact distances repaired from a carried
      :class:`~repro.graph.incremental_apsp.IncrementalAPSP` engine passed
      as ``state=``; byte-identical to ``"dijkstra"`` on every call, cheap
      when little changed since the previous one.  Without ``state`` it IS
      a cold ``"dijkstra"`` run.
    * ``"landmark"`` — opt-in approximate upper bounds from ``landmarks=``
      exact SSSP rows (farthest-point-sampled pivots); see
      :func:`_landmark_apsp` for the error model.

    Extra keyword ``options`` are forwarded to the selected method.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros((0, 0))
    try:
        fn = _APSP_DISPATCH[method]
    except KeyError:
        valid = ", ".join(repr(name) for name in available_apsp_methods())
        raise ValueError(
            f"unknown APSP method {method!r}; expected one of: {valid}"
        ) from None
    with trace_span("kernel.apsp", method=method, n=int(n)):
        return fn(graph, backend=backend, **options)


def shortest_paths_from_sources(
    graph: GraphLike,
    sources: Sequence[int],
    backend: Optional[Union[ParallelBackend, str]] = None,
) -> np.ndarray:
    """Distances from a subset of sources (one row per source, in order)."""
    source_array = np.asarray(list(sources), dtype=np.int64)
    if source_array.size == 0:
        return np.zeros((0, graph.num_vertices))
    return _batched_sssp(_as_csr(graph), source_array, backend)


def _batched_sssp(
    csr: CSRGraph,
    sources: np.ndarray,
    backend: Optional[Union[ParallelBackend, str]],
) -> np.ndarray:
    """Chunk ``sources`` over the backend and relax each chunk."""
    csr.validate_non_negative()
    if sources.size and (
        int(sources.min()) < 0 or int(sources.max()) >= csr.num_vertices
    ):
        raise IndexError(
            f"source out of range [0, {csr.num_vertices}): "
            f"{[int(s) for s in sources if not 0 <= s < csr.num_vertices]}"
        )
    # A backend given by name is constructed here and therefore owned (and
    # closed) here; instances stay under the caller's control.
    owns_backend = isinstance(backend, str)
    resolved = make_backend(backend) if owns_backend else get_backend(backend)
    try:
        num_chunks = min(len(sources), max(1, resolved.num_workers))
        chunks = np.array_split(sources, num_chunks)
        worker = partial(_relax_sources, csr.indptr, csr.indices, csr.weights)
        return np.vstack(resolved.map(worker, chunks))
    finally:
        if owns_backend:
            resolved.close()


# ---------------------------------------------------------------------------
# Relaxation kernel
# ---------------------------------------------------------------------------


def _relax_sources(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sources: Sequence[int],
) -> np.ndarray:
    """Batched relaxation: every source advances one hop per numpy round.

    A module-level function over plain arrays, so it pickles into
    process-pool workers as the per-chunk worker; the arc layout below is
    built here, inside the worker.

    Distances are kept transposed (vertices x sources) with the vertices
    sorted by degree, descending, so every slot of the jagged-diagonal
    layout updates a contiguous row prefix (see :func:`_jagged_layout`).
    Updates are in place and every candidate is ``fl(d[u] + w)``, so the
    fixed point is the minimum over paths of their source-to-target sums:
    byte-identical to Dijkstra's.
    """
    n = indptr.size - 1
    sources = np.asarray(sources, dtype=np.int64)
    dist = np.full((sources.size, n), np.inf, dtype=float)
    dist[np.arange(sources.size), sources] = 0.0
    if indices.size == 0 or sources.size == 0:
        return dist
    position, slots, tail = _jagged_layout(indptr, indices, weights)
    for begin in range(0, sources.size, _RELAX_BLOCK_SOURCES):
        block_sources = sources[begin : begin + _RELAX_BLOCK_SOURCES]
        width = block_sources.size
        transposed = np.full((n, width), np.inf, dtype=float)
        transposed[position[block_sources], np.arange(width)] = 0.0
        previous = np.empty_like(transposed)
        candidates = np.empty((slots[0][0].size if slots else 0, width))
        if tail is not None:
            tail_indices, tail_weights, tail_starts = tail
            tail_candidates = np.empty((tail_indices.size, width))
        for _ in range(n):
            np.copyto(previous, transposed)
            for slot_indices, slot_weights in slots:
                count = slot_indices.size
                gathered = np.take(
                    transposed, slot_indices, axis=0, out=candidates[:count], mode="clip"
                )
                gathered += slot_weights
                np.minimum(transposed[:count], gathered, out=transposed[:count])
            if tail is not None:
                gathered = np.take(
                    transposed, tail_indices, axis=0, out=tail_candidates, mode="clip"
                )
                gathered += tail_weights
                reduced = np.minimum.reduceat(gathered, tail_starts, axis=0)
                hubs = tail_starts.size
                np.minimum(transposed[:hubs], reduced, out=transposed[:hubs])
            if np.array_equal(transposed, previous):
                break
        dist[begin : begin + width] = transposed[position].T
    return dist


def _jagged_layout(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
    """Degree-sorted ("jagged-diagonal") arc layout of a symmetric CSR graph.

    Returns ``(position, slots, tail)``: vertex ``v`` is row ``position[v]``
    of the permuted numbering (degree descending, ties by id), in which the
    arcs' neighbour ids are given.

    * slot ``k`` is ``(neighbours, weights[:, None])`` of the ``k``-th in-arc
      of every vertex with degree > ``k`` — those vertices are exactly the
      row prefix ``[:count_k]``, so a slot is one gather, one add and one
      ``np.minimum`` on a contiguous prefix;
    * slots stop once fewer than ``_RELAX_BLOCK_SOURCES`` vertices remain,
      and the remaining arcs of those high-degree vertices (again a row
      prefix) form ``tail = (neighbours, weights[:, None], segment starts)``
      for one ``np.minimum.reduceat``, so hubs cost one round trip instead
      of one slot per arc.  ``tail`` is ``None`` when no arcs remain.

    Degree-0 vertices sort last and appear in no slot.
    """
    degrees = np.diff(indptr)
    order = np.argsort(-degrees, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    sorted_degrees = degrees[order]
    row_starts = indptr[:-1][order]
    slots = []
    count = int(np.count_nonzero(sorted_degrees > 0))
    while count >= _RELAX_BLOCK_SOURCES:
        arcs = row_starts[:count] + len(slots)
        slots.append((position[indices[arcs]], weights[arcs][:, None]))
        count = int(np.count_nonzero(sorted_degrees > len(slots)))
    tail = None
    if count:
        lengths = sorted_degrees[:count] - len(slots)
        tail_starts = np.zeros(count, dtype=np.int64)
        np.cumsum(lengths[:-1], out=tail_starts[1:])
        arcs = np.repeat(row_starts[:count] + len(slots) - tail_starts, lengths)
        arcs += np.arange(arcs.size)
        tail = (position[indices[arcs]], weights[arcs][:, None], tail_starts)
    return position, slots, tail


def _scipy_apsp(graph: GraphLike) -> np.ndarray:
    """APSP via scipy.sparse.csgraph (identical distances, C speed)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = graph.num_vertices
    csr = _as_csr(graph)
    sparse = csr_matrix((csr.weights, csr.indices, csr.indptr), shape=(n, n))
    return shortest_path(sparse, method="D", directed=False)


# ---------------------------------------------------------------------------
# Method registry entries
# ---------------------------------------------------------------------------


def _dijkstra_apsp(graph: GraphLike, backend=None) -> np.ndarray:
    csr = _as_csr(graph)
    return _batched_sssp(csr, np.arange(csr.num_vertices), backend)


def _scipy_apsp_method(graph: GraphLike, backend=None) -> np.ndarray:
    return _scipy_apsp(graph)


def _incremental_apsp_method(
    graph: GraphLike, backend=None, state=None
) -> np.ndarray:
    """Exact APSP repaired from a carried engine (cold dijkstra without one)."""
    if state is None:
        return _dijkstra_apsp(graph, backend=backend)
    from repro.graph.incremental_apsp import IncrementalAPSP

    if not isinstance(state, IncrementalAPSP):
        raise TypeError(
            "state for apsp_method='incremental' must be an IncrementalAPSP "
            f"engine, got {type(state).__name__}"
        )
    return state.update(graph, backend=backend)


def select_landmarks(graph: GraphLike, count: int) -> tuple:
    """Deterministic farthest-point landmark selection.

    Returns ``(landmark ids, their exact SSSP rows)``.  The first landmark
    is the maximum-degree vertex (the TMFG's dominant hub — ties break to
    the lowest id); each subsequent one maximises the distance to the
    already-chosen set.  The sequence is *nested*: the first ``k`` landmarks
    of a ``count=k+1`` run are exactly the ``count=k`` run's, so estimates
    improve pointwise monotonically as ``count`` grows.
    """
    csr = _as_csr(graph)
    csr.validate_non_negative()
    n = csr.num_vertices
    count = int(count)
    if count < 1:
        raise ValueError(f"landmark count must be >= 1, got {count}")
    count = min(count, n)
    chosen = [int(np.argmax(csr.degrees()))]
    rows = [_relax_sources(csr.indptr, csr.indices, csr.weights, chosen)[0]]
    nearest = rows[0].copy()
    while len(chosen) < count:
        nearest[chosen] = -np.inf
        # An inf entry is an unreached component; argmax lands there first,
        # giving every component a landmark before refining within one.
        pivot = int(np.argmax(nearest))
        chosen.append(pivot)
        row = _relax_sources(csr.indptr, csr.indices, csr.weights, [pivot])[0]
        rows.append(row)
        np.minimum(nearest, row, out=nearest)
    return tuple(chosen), np.vstack(rows)


def _landmark_apsp(
    graph: GraphLike, backend=None, landmarks: Optional[int] = None
) -> np.ndarray:
    """Approximate APSP from ``landmarks`` exact SSSP rows (opt-in only).

    Runs one exact SSSP per landmark and estimates
    ``d(u, v) ~= min_l d(l, u) + d(l, v)`` — an upper bound that is exact
    whenever some shortest path passes a landmark, clamped by direct edge
    weights so adjacent pairs are never overestimated.  Cost is
    ``O(L * n log n + L * n^2)`` against Dijkstra's ``O(n^2 log n)``; the
    bound tightens monotonically with ``L`` (nested landmark sequence) and
    becomes exact at ``L >= n``.
    """
    csr = _as_csr(graph)
    n = csr.num_vertices
    count = DEFAULT_LANDMARKS if landmarks is None else int(landmarks)
    if count < 1:
        raise ValueError(f"landmark count must be >= 1, got {count}")
    if count >= n:
        return _dijkstra_apsp(csr, backend=backend)
    _, rows = select_landmarks(csr, count)
    estimate = np.full((n, n), np.inf, dtype=float)
    for row in rows:
        np.minimum(estimate, np.add.outer(row, row), out=estimate)
    # Direct edges beat any over-the-landmark detour for adjacent pairs.
    heads = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())
    np.minimum.at(estimate, (heads, csr.indices), csr.weights)
    np.fill_diagonal(estimate, 0.0)
    return estimate


register_apsp_method("dijkstra", _dijkstra_apsp)
register_apsp_method("scipy", _scipy_apsp_method)
register_apsp_method("incremental", _incremental_apsp_method)
register_apsp_method("landmark", _landmark_apsp)
