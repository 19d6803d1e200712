"""Parallel (prefix-batched) TMFG construction — Algorithm 1.

The Triangulated Maximally Filtered Graph is built by starting from the
4-clique of the four vertices with the largest similarity row sums and then
repeatedly inserting an uninserted vertex into a triangular face, adding the
three edges from the vertex to the face's corners.  The sequential algorithm
inserts the single vertex-face pair with the largest gain per round; the
paper's parallel algorithm inserts up to ``prefix`` pairs per round, resolving
conflicts by keeping, for each vertex, only its highest-gain face.

``prefix=1`` reproduces the sequential TMFG exactly (up to tie-breaking),
which is what the tests check; larger prefixes trade a small amount of kept
edge weight for many fewer rounds (more parallelism), which is what Figs. 4,
6, and 7 evaluate.

Warm starts
-----------
The streaming workload (:mod:`repro.streaming`) rebuilds a TMFG per rolling
window, and consecutive windows share most of their data, so consecutive
TMFGs usually make the same insertion decisions.  ``construct_tmfg`` accepts
:class:`WarmStartHints` — the previous build's initial tetrahedron and
per-round insertion batches — and compares each round's selected batch with
the hint's; ``warm_rounds`` counts the leading rounds that matched.  Cold
and warm builds run the same selection, so the output is always identical
to a cold run and the replay is verified telemetry, not a shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bubble_tree import BubbleTree
from repro.core.gains import GainTable
from repro.graph.faces import Triangle, child_faces, triangle_corners, triangle_key
from repro.graph.matrix import validate_similarity_matrix
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.cost_model import WorkSpanTracker


@dataclass
class TMFGResult:
    """Output of TMFG construction.

    ``graph`` is the filtered graph with similarity weights; ``edges`` is the
    edge list in insertion order (the initial clique's six edges first);
    ``bubble_tree`` is the tree built on the fly (Algorithm 2) when
    ``build_bubble_tree=True``; ``insertion_order`` records, per inserted
    vertex, the face it went into; ``rounds`` is the number of batched rounds
    (the quantity ``rho`` in the paper's analysis); ``round_sizes`` the
    number of vertices each round inserted (used to rebuild warm-start
    hints); ``warm_rounds`` how many leading rounds were verified replays of
    :class:`WarmStartHints` and ``warm_started`` whether *every* round was
    (a full replay; partial replays hand over to cold selection at the
    first diverging round).
    """

    graph: WeightedGraph
    edges: List[Tuple[int, int]]
    initial_clique: Tuple[int, int, int, int]
    bubble_tree: Optional[BubbleTree]
    insertion_order: List[Tuple[int, Triangle]]
    prefix: int
    rounds: int
    tracker: WorkSpanTracker = field(default_factory=WorkSpanTracker)
    round_sizes: List[int] = field(default_factory=list)
    warm_started: bool = False
    warm_rounds: int = 0

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def edge_weight_sum(self) -> float:
        return self.graph.edge_weight_sum()

    def warm_start_hints(self) -> "WarmStartHints":
        """Hints that let the next build replay this one (see ``construct_tmfg``)."""
        return WarmStartHints(
            initial_clique=self.initial_clique,
            insertion_order=tuple(self.insertion_order),
            round_sizes=tuple(self.round_sizes),
        )

    def csr(self):
        """The filtered graph frozen to CSR form, built once and memoized.

        DBHT reweights this topology with dissimilarities for the APSP; the
        incremental engine diffs consecutive ticks' reweighted CSRs, so
        freezing here keeps the per-tick cost at one fancy index instead of
        a full rebuild.
        """
        cached = getattr(self, "_csr_cache", None)
        if cached is None:
            cached = self.graph.to_csr()
            self._csr_cache = cached
        return cached


@dataclass(frozen=True)
class WarmStartHints:
    """A previous TMFG build's decisions, offered as candidates for replay.

    ``insertion_order`` holds the (vertex, face) insertions in order and
    ``round_sizes`` partitions them into the original rounds, so the replay
    can verify each round's batch against what cold selection would pick on
    the *new* similarity matrix.
    """

    initial_clique: Tuple[int, int, int, int]
    insertion_order: Tuple[Tuple[int, Triangle], ...]
    round_sizes: Tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.insertion_order) + 4


def _initial_clique(similarity: np.ndarray) -> List[int]:
    """The four vertices with the highest total similarity to all others."""
    row_sums = similarity.sum(axis=1) - np.diag(similarity)
    # argsort ascending; take the four largest, then order them by vertex id
    # for deterministic output.
    top_four = np.argsort(row_sums, kind="stable")[-4:]
    return sorted(int(v) for v in top_four)


class _TMFGBuilder:
    """Shared construction state for the cold and warm-replay paths."""

    def __init__(
        self,
        similarity: np.ndarray,
        clique: Sequence[int],
        build_bubble_tree: bool,
        tracker: WorkSpanTracker,
    ) -> None:
        n = similarity.shape[0]
        self.similarity = similarity
        self.tracker = tracker
        self.clique = tuple(int(v) for v in clique)
        v1, v2, v3, v4 = self.clique
        self.graph = WeightedGraph(n)
        self.edges: List[Tuple[int, int]] = []
        for i in range(4):
            for j in range(i + 1, 4):
                u, v = self.clique[i], self.clique[j]
                self.graph.add_edge(u, v, similarity[u, v])
                self.edges.append((u, v))
        self.faces: Set[Triangle] = {
            triangle_key(v1, v2, v3),
            triangle_key(v1, v2, v4),
            triangle_key(v1, v3, v4),
            triangle_key(v2, v3, v4),
        }
        self.outer_face: Triangle = triangle_key(v1, v2, v3)
        remaining = [v for v in range(n) if v not in set(self.clique)]
        self.gain_table = GainTable(similarity, remaining)
        self.gain_table.add_faces(list(self.faces))
        # Initialisation: O(n^2) work for the row sums, O(n) for the gains.
        tracker.add(
            "tmfg", work=float(n * n + 4 * n), span=math.log2(n) + 1 if n > 1 else 1.0
        )
        self.bubble_tree = BubbleTree(self.clique, self.faces) if build_bubble_tree else None
        self.insertion_order: List[Tuple[int, Triangle]] = []
        self.round_sizes: List[int] = []

    def insert_round(self, batch: Sequence[Tuple[int, Triangle]]) -> None:
        """Insert one round's (vertex, face) batch and refresh the gain table."""
        num_faces = self.gain_table.num_faces
        num_remaining = self.gain_table.num_remaining
        # The batch's faces are distinct (one best vertex per face), so the
        # structural updates run per pair while the gain table is refreshed
        # in bulk afterwards: the split faces are dropped first, so only
        # surviving faces whose best vertex was inserted are recomputed,
        # then the new faces get one stacked argmax.
        round_new_faces: List[Triangle] = []
        for vertex, face in batch:
            a, b, c = triangle_corners(face)
            for corner in (a, b, c):
                self.graph.add_edge(vertex, corner, self.similarity[vertex, corner])
                self.edges.append((vertex, corner))
            is_outer = face == self.outer_face
            if self.bubble_tree is not None:
                self.bubble_tree.insert(vertex, face, is_outer_face=is_outer)
            new_faces = child_faces(face, vertex)
            if is_outer:
                self.outer_face = new_faces[0]
            self.faces.discard(face)
            self.gain_table.remove_face(face)
            for new_face in new_faces:
                self.faces.add(new_face)
                round_new_faces.append(new_face)
            self.insertion_order.append((vertex, face))
        self.gain_table.remove_vertices([vertex for vertex, _ in batch])
        self.gain_table.add_faces(round_new_faces)
        self.round_sizes.append(len(batch))
        # Work: sorting the per-face gains plus recomputing gains for the
        # affected and newly-created faces (each a vectorised O(|V|) scan).
        affected = 3 * len(batch)
        round_work = float(
            num_faces * max(1.0, math.log2(max(num_faces, 2)))
            + affected * max(1, num_remaining)
        )
        round_span = math.log2(max(num_faces, 2)) + math.log2(max(len(batch), 2)) + 1.0
        self.tracker.add("tmfg", work=round_work, span=round_span)

    def result(self, prefix: int, warm_rounds: int = 0) -> TMFGResult:
        return TMFGResult(
            graph=self.graph,
            edges=self.edges,
            initial_clique=self.clique,
            bubble_tree=self.bubble_tree,
            insertion_order=self.insertion_order,
            prefix=prefix,
            rounds=len(self.round_sizes),
            tracker=self.tracker,
            round_sizes=self.round_sizes,
            warm_started=warm_rounds > 0 and warm_rounds == len(self.round_sizes),
            warm_rounds=warm_rounds,
        )


def construct_tmfg(
    similarity: np.ndarray,
    prefix: int = 1,
    build_bubble_tree: bool = True,
    tracker: Optional[WorkSpanTracker] = None,
    warm_start: Optional[WarmStartHints] = None,
) -> TMFGResult:
    """Build a TMFG (or its prefix-batched variant) from a similarity matrix.

    Parameters
    ----------
    similarity:
        Symmetric ``n x n`` similarity matrix (``n >= 4``).  Larger values
        mean "keep this edge"; typically a Pearson correlation matrix.
    prefix:
        Maximum number of vertices inserted per round (``PREFIX`` in
        Algorithm 1).  ``1`` gives the exact sequential TMFG.
    build_bubble_tree:
        Also build the DBHT bubble tree during construction (Algorithm 2).
    tracker:
        Optional :class:`WorkSpanTracker`; work/span counters for the
        construction are recorded under the phase name ``"tmfg"``.
    warm_start:
        Optional :class:`WarmStartHints` from a previous build on a similar
        matrix.  Every round runs the same :meth:`GainTable.select` as a
        cold build and compares its batch with the hint's, so the result is
        always identical to a cold build; the first mismatch drops the
        hints.  The result's ``warm_started``/``warm_rounds`` fields record
        how far the replay carried.
    """
    if prefix < 1:
        raise ValueError("prefix must be at least 1")
    similarity = validate_similarity_matrix(similarity)
    n = similarity.shape[0]
    tracker = tracker if tracker is not None else WorkSpanTracker()
    clique = _initial_clique(similarity)

    hint_batches = _usable_hint_batches(warm_start, clique, n, prefix)
    builder = _TMFGBuilder(similarity, clique, build_bubble_tree, tracker)
    warm_rounds = 0
    while builder.gain_table.num_remaining > 0:
        batch = builder.gain_table.select(prefix)
        if not batch:
            raise RuntimeError("no insertable vertex-face pair found; inconsistent gain table")
        if hint_batches is not None:
            if warm_rounds < len(hint_batches) and tuple(batch) == hint_batches[warm_rounds]:
                warm_rounds += 1
            else:
                # Diverged: the remaining hints describe a different
                # construction, so stop consulting them.
                hint_batches = None
        builder.insert_round(batch)
    return builder.result(prefix, warm_rounds=warm_rounds)


def _usable_hint_batches(
    hints: Optional[WarmStartHints],
    clique: Sequence[int],
    num_vertices: int,
    prefix: int,
) -> Optional[List[Tuple[Tuple[int, Triangle], ...]]]:
    """Hints split into per-round batches, or ``None`` when unusable.

    Hints are unusable when they describe a different vertex count, a
    different initial tetrahedron (every later decision would differ), an
    inconsistent round partition, or rounds larger than this build's
    ``prefix``.
    """
    if hints is None:
        return None
    if hints.num_vertices != num_vertices:
        return None
    if tuple(clique) != tuple(hints.initial_clique):
        return None
    if sum(hints.round_sizes) != len(hints.insertion_order):
        return None
    batches: List[Tuple[Tuple[int, Triangle], ...]] = []
    position = 0
    for size in hints.round_sizes:
        if size < 1 or size > prefix:
            return None
        batches.append(hints.insertion_order[position : position + size])
        position += size
    return batches

