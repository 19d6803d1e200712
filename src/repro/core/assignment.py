"""Vertex-to-bubble assignment — Lines 1–23 of Algorithm 4.

The DBHT clusters vertices in two levels.  First, every vertex is assigned
to a *converging bubble* (a bubble with only incoming edges in the directed
bubble tree): vertices that belong to at least one converging bubble go to
the one with the strongest attachment ``chi``, and the remaining vertices go
to the reachable converging bubble with the smallest mean shortest-path
distance to the vertices already assigned there.  Second, every vertex is
assigned to a (not necessarily converging) bubble maximising the normalised
attachment ``chi'``.  The pair (converging bubble, bubble) defines the
subgroups used by the three-level hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.bubble_tree import BubbleTree
from repro.core.direction import DirectionResult
from repro.parallel.cost_model import WorkSpanTracker


@dataclass
class AssignmentResult:
    """Group (converging bubble) and bubble assignment of every vertex.

    ``group[v]`` is the id of the converging bubble that vertex ``v`` is
    assigned to; ``bubble[v]`` is the id of the bubble maximising ``chi'``.
    ``converging_bubbles`` lists the converging bubble ids;
    ``assigned_directly[v]`` is True when ``v`` was assigned by the
    ``chi``-attachment rule (it belongs to at least one converging bubble).
    """

    group: np.ndarray
    bubble: np.ndarray
    converging_bubbles: List[int]
    assigned_directly: np.ndarray

    def subgroups(self) -> Dict[Tuple[int, int], List[int]]:
        """Vertices keyed by (converging bubble, bubble) — the DBHT subgroups."""
        result: Dict[Tuple[int, int], List[int]] = {}
        for vertex in range(len(self.group)):
            key = (int(self.group[vertex]), int(self.bubble[vertex]))
            result.setdefault(key, []).append(vertex)
        return result

    def groups(self) -> Dict[int, List[int]]:
        """Vertices keyed by converging bubble."""
        result: Dict[int, List[int]] = {}
        for vertex in range(len(self.group)):
            result.setdefault(int(self.group[vertex]), []).append(vertex)
        return result


def _chi(similarity: np.ndarray, vertex: int, members: Set[int]) -> float:
    """Attachment of ``vertex`` to a bubble: sum of similarities to its members.

    The paper's normalisation ``3 (|b| - 2)`` is constant (= 6) for TMFG
    bubbles, so it cancels in the argmax and is omitted, exactly as noted in
    Section V-C.
    """
    return float(sum(similarity[vertex, u] for u in members if u != vertex))


def _bubble_internal_weight(similarity: np.ndarray, members: Tuple[int, ...]) -> float:
    """Total similarity over the six edges of a 4-clique bubble."""
    total = 0.0
    member_list = list(members)
    for i in range(len(member_list)):
        for j in range(i + 1, len(member_list)):
            total += float(similarity[member_list[i], member_list[j]])
    return total


def assign_vertices(
    tree: BubbleTree,
    directions: DirectionResult,
    similarity: np.ndarray,
    shortest_paths: np.ndarray,
    tracker: Optional[WorkSpanTracker] = None,
) -> AssignmentResult:
    """Assign every vertex to a converging bubble and to a bubble.

    ``shortest_paths`` is the all-pairs shortest path matrix of the TMFG
    under the dissimilarity weights (Line 7 of Algorithm 4).
    """
    num_vertices = similarity.shape[0]
    converging = directions.converging_bubbles(tree)
    converging_set = set(converging)
    reach = directions.reachable_converging_bubbles(tree)

    # -- first level: assignment to converging bubbles (groups) ------------
    # Per-vertex (score, bubble_id) maxima; ties go to the larger bubble id.
    group_best: List[Tuple[float, int]] = [(float("-inf"), -1)] * num_vertices
    work = 0.0
    for bubble_id in converging:
        members = set(tree.bubble(bubble_id).vertices)
        for vertex in members:
            score = _chi(similarity, vertex, members)
            group_best[vertex] = max(group_best[vertex], (score, bubble_id))
            work += 1.0

    group = np.full(num_vertices, -1, dtype=int)
    assigned_directly = np.zeros(num_vertices, dtype=bool)
    for vertex in range(num_vertices):
        score, bubble_id = group_best[vertex]
        if bubble_id >= 0:
            group[vertex] = bubble_id
            assigned_directly[vertex] = True

    # V^0_b: vertices already attached to each converging bubble.
    attached: Dict[int, List[int]] = {bubble_id: [] for bubble_id in converging}
    for vertex in range(num_vertices):
        if assigned_directly[vertex]:
            attached[int(group[vertex])].append(vertex)

    # Remaining vertices: closest reachable converging bubble by mean
    # shortest-path distance to its attached vertices.
    closest: List[Tuple[float, int]] = [(float("inf"), -1)] * num_vertices
    vertex_reachable: Dict[int, Set[int]] = {}
    for vertex in range(num_vertices):
        if assigned_directly[vertex]:
            continue
        reachable: Set[int] = set()
        for bubble_id in tree.bubbles_of_vertex(vertex):
            reachable |= reach[bubble_id]
        vertex_reachable[vertex] = reachable

    for bubble_id in converging:
        members = attached[bubble_id]
        if not members:
            continue
        member_array = np.asarray(members, dtype=int)
        for vertex, reachable in vertex_reachable.items():
            if bubble_id not in reachable:
                continue
            mean_distance = float(np.mean(shortest_paths[member_array, vertex]))
            closest[vertex] = min(closest[vertex], (mean_distance, bubble_id))
            work += len(members)

    for vertex, reachable in vertex_reachable.items():
        distance, bubble_id = closest[vertex]
        if bubble_id >= 0:
            group[vertex] = bubble_id
        else:
            # Fallback (degenerate case: no reachable converging bubble has
            # attached vertices yet): use the globally closest converging
            # bubble by mean distance to its member vertices.
            best = (float("inf"), -1)
            for candidate in converging:
                members = list(tree.bubble(candidate).vertices)
                mean_distance = float(
                    np.mean(shortest_paths[np.asarray(members, dtype=int), vertex])
                )
                best = min(best, (mean_distance, candidate))
            group[vertex] = best[1]

    # -- second level: assignment to bubbles --------------------------------
    bubble_best: List[Tuple[float, int]] = [(float("-inf"), -1)] * num_vertices
    for bubble in tree.bubbles:
        members = tuple(sorted(bubble.vertices))
        total_weight = _bubble_internal_weight(similarity, members)
        if total_weight <= 0:
            # Guard against degenerate bubbles with non-positive internal
            # weight; fall back to the unnormalised attachment.
            total_weight = 1.0
        member_set = set(members)
        for vertex in members:
            score = _chi(similarity, vertex, member_set) / total_weight
            bubble_best[vertex] = max(bubble_best[vertex], (score, bubble.id))
            work += 1.0

    bubble_assignment = np.full(num_vertices, -1, dtype=int)
    for vertex in range(num_vertices):
        _, bubble_id = bubble_best[vertex]
        bubble_assignment[vertex] = bubble_id

    if tracker is not None:
        tracker.add("bubble-tree", work=work, span=float(np.log2(max(num_vertices, 2))))
    return AssignmentResult(
        group=group,
        bubble=bubble_assignment,
        converging_bubbles=list(converging),
        assigned_directly=assigned_directly,
    )
