"""Three-level complete-linkage hierarchy and height assignment — Lines 24–33
of Algorithm 4 and the "Dendrogram Heights" paragraph of Section V-D.

The final dendrogram is assembled from three nested complete-linkage runs:

1. *intra-bubble* — within every subgroup (vertices sharing both their
   converging-bubble assignment and their bubble assignment);
2. *inter-bubble* — the subgroup dendrogram roots of each group;
3. *inter-group* — the group dendrogram roots.

Because the three levels use incompatible distance scales, the heights are
re-assigned afterwards: inter-group nodes get the number of converging
bubbles among their descendants, and the ``n_b - 1`` nodes inside a group of
``n_b`` vertices get the heights ``1/(n_b-1), ..., 1/2, 1`` in a specific
sorted order (intra-bubble nodes first, ordered by bubble and merge
distance, then inter-bubble nodes ordered by merge distance), which keeps
the hierarchy monotone and places every group root at height 1.

Each level's complete-linkage matrix comes from gathers of the
shortest-path matrix in cluster order, a chunk of rows at a time, and a
block max along both axes (``np.maximum.reduceat`` at the cluster starts),
mirrored from its strict upper triangle.  It is symmetric by construction,
so the levels call the unvalidated nearest-neighbour-chain core
(:func:`repro.baselines.hac.nn_chain_linkage`) directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.hac import nn_chain_linkage
from repro.core.assignment import AssignmentResult
from repro.dendrogram.node import Dendrogram
from repro.parallel.cost_model import WorkSpanTracker


@dataclass
class _Cluster:
    """A partially built cluster: its dendrogram node id and its leaves."""

    node_id: int
    vertices: List[int]
    group_count: int = 1


#: Rows of the shortest-path matrix gathered at a time when building a
#: linkage matrix, so the inter-group level (every vertex) never copies the
#: whole ``n x n`` matrix.
_LINKAGE_ROW_CHUNK = 64


def _max_linkage_matrix(
    clusters: Sequence[_Cluster], shortest_paths: np.ndarray
) -> np.ndarray:
    """Complete-linkage distances between clusters (max pairwise distance).

    The clusters' rows and columns are gathered in cluster order, a chunk
    of rows at a time, and reduced to block maxima by
    ``np.maximum.reduceat`` at the cluster starts: along the columns per
    chunk, then along the rows.  Only the strict upper triangle (cluster
    ``i`` rows against cluster ``j > i`` columns) is kept and mirrored: the
    shortest-path matrix is not bit-symmetric (``D[s, t]`` and ``D[t, s]``
    sum a path's weights in opposite orders), and the linkage reads
    ``i < j`` blocks only.
    """
    order = np.concatenate([cluster.vertices for cluster in clusters])
    starts = np.cumsum([0] + [len(cluster.vertices) for cluster in clusters[:-1]])
    column_max = np.empty((order.size, len(clusters)))
    for begin in range(0, order.size, _LINKAGE_ROW_CHUNK):
        rows = order[begin : begin + _LINKAGE_ROW_CHUNK]
        column_max[begin : begin + rows.size] = np.maximum.reduceat(
            shortest_paths[np.ix_(rows, order)], starts, axis=1
        )
    block = np.maximum.reduceat(column_max, starts, axis=0)
    lower = np.tri(len(clusters), k=-1, dtype=bool)
    matrix = np.where(lower, block.T, block)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _run_level(
    dendrogram: Dendrogram,
    clusters: List[_Cluster],
    shortest_paths: np.ndarray,
    level: str,
    **metadata: object,
) -> Tuple[_Cluster, List[Tuple[float, _Cluster]]]:
    """Complete-linkage over ``clusters``; returns the root cluster and the
    ``(merge distance, cluster)`` pairs of the internal nodes created."""
    if len(clusters) == 1:
        return clusters[0], []
    distance_matrix = _max_linkage_matrix(clusters, shortest_paths)
    merges = nn_chain_linkage(distance_matrix, "complete")
    # Local cluster ids: 0..k-1 are the input clusters, k+i is the i-th merge.
    local: Dict[int, _Cluster] = {i: cluster for i, cluster in enumerate(clusters)}
    created: List[Tuple[float, _Cluster]] = []
    k = len(clusters)
    for index, (a, b, distance, _) in enumerate(merges):
        left = local[int(a)]
        right = local[int(b)]
        node_id = dendrogram.merge(
            left.node_id,
            right.node_id,
            height=float(distance),
            distance=float(distance),
            level=level,
            **metadata,
        )
        merged = _Cluster(
            node_id=node_id,
            vertices=left.vertices + right.vertices,
            group_count=left.group_count + right.group_count,
        )
        local[k + index] = merged
        created.append((float(distance), merged))
    root = local[k + len(merges) - 1]
    return root, created


def build_hierarchy(
    assignment: AssignmentResult,
    shortest_paths: np.ndarray,
    tracker: Optional[WorkSpanTracker] = None,
) -> Dendrogram:
    """Build the DBHT dendrogram from the vertex assignments.

    ``shortest_paths`` is the all-pairs shortest-path matrix of the filtered
    graph under the dissimilarity weights; it provides both the linkage
    distances and (indirectly, through the assignment) the structure.
    """
    num_vertices = len(assignment.group)
    dendrogram = Dendrogram(num_vertices)
    work = 0.0

    groups = assignment.groups()
    subgroups = assignment.subgroups()

    group_clusters: List[_Cluster] = []
    # Height bookkeeping: per group, the internal nodes created at each level.
    per_group_intra: Dict[int, List[Tuple[int, float, int]]] = {}
    per_group_inter: Dict[int, List[Tuple[float, int]]] = {}

    for group_id in sorted(groups):
        subgroup_clusters: List[_Cluster] = []
        intra_records: List[Tuple[int, float, int]] = []
        bubbles_in_group = sorted(
            {bubble for (g, bubble) in subgroups if g == group_id}
        )
        for bubble_id in bubbles_in_group:
            vertices = subgroups[(group_id, bubble_id)]
            leaf_clusters = [_Cluster(node_id=v, vertices=[v]) for v in vertices]
            root, created = _run_level(
                dendrogram,
                leaf_clusters,
                shortest_paths,
                level="intra",
                group=group_id,
                bubble=bubble_id,
            )
            work += float(len(vertices) ** 2)
            for distance, cluster in created:
                intra_records.append((bubble_id, distance, cluster.node_id))
            subgroup_clusters.append(
                _Cluster(node_id=root.node_id, vertices=list(root.vertices))
            )
        group_root, inter_created = _run_level(
            dendrogram,
            subgroup_clusters,
            shortest_paths,
            level="inter_bubble",
            group=group_id,
        )
        work += float(len(subgroup_clusters) ** 2)
        per_group_intra[group_id] = intra_records
        per_group_inter[group_id] = [
            (distance, cluster.node_id) for distance, cluster in inter_created
        ]
        group_clusters.append(
            _Cluster(node_id=group_root.node_id, vertices=list(group_root.vertices))
        )

    final_root, inter_group_created = _run_level(
        dendrogram,
        group_clusters,
        shortest_paths,
        level="inter_group",
    )
    work += float(len(group_clusters) ** 2)

    _assign_heights(dendrogram, groups, per_group_intra, per_group_inter)
    # Inter-group nodes: height = number of converging bubbles (groups) in
    # the node's descendants.
    for _, cluster in inter_group_created:
        dendrogram.set_height(cluster.node_id, float(cluster.group_count))

    if tracker is not None:
        tracker.add("hierarchy", work=work, span=float(np.log2(max(num_vertices, 2)) ** 2))
    if not dendrogram.is_complete:
        raise RuntimeError("hierarchy construction did not produce a complete dendrogram")
    return dendrogram


def _assign_heights(
    dendrogram: Dendrogram,
    groups: Dict[int, List[int]],
    per_group_intra: Dict[int, List[Tuple[int, float, int]]],
    per_group_inter: Dict[int, List[Tuple[float, int]]],
) -> None:
    """Re-assign the heights of the nodes inside each group (Section V-D)."""
    # Nodes inside each group: intra nodes first (by bubble, then merge
    # distance, then creation order), followed by inter-bubble nodes (by
    # merge distance, then creation order).  They receive the heights
    # 1/(n_b-1), 1/(n_b-2), ..., 1/2, 1 in that order.
    for group_id, vertices in groups.items():
        n_b = len(vertices)
        if n_b <= 1:
            continue
        ordered: List[int] = []
        intra = sorted(
            per_group_intra.get(group_id, []),
            key=lambda record: (record[0], record[1], record[2]),
        )
        ordered.extend(node_id for _, _, node_id in intra)
        inter = sorted(
            per_group_inter.get(group_id, []), key=lambda record: (record[0], record[1])
        )
        ordered.extend(node_id for _, node_id in inter)
        if len(ordered) != n_b - 1:
            raise RuntimeError(
                f"group {group_id} has {len(ordered)} internal nodes, expected {n_b - 1}"
            )
        heights = [1.0 / (n_b - 1 - index) for index in range(n_b - 1)]
        for node_id, height in zip(ordered, heights):
            dendrogram.set_height(node_id, height)

