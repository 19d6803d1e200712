"""Golden regression tests: fixed-seed end-to-end ``tmfg_dbht`` snapshots.

The snapshots under ``tests/golden/`` pin the TMFG edge list, initial
clique, insertion order, and flat cut labels of fixed-seed runs.  The test
recomputes each case and asserts byte-identical agreement with the
committed JSON (exact integer equality, no tolerances), so any silent
numerical drift in the gain updates, APSP, or hierarchy construction fails
loudly.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import tmfg_dbht
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.stocks import generate_regime_switching_stream
from repro.datasets.synthetic import make_time_series_dataset

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "time_series_prefix1": {"prefix": 1, "clusters": 3},
    "time_series_prefix5": {"prefix": 5, "clusters": 4},
    "regime_stream_window": {"prefix": 1, "clusters": 5},
}


def _case_similarity(name: str) -> np.ndarray:
    if name.startswith("time_series"):
        dataset = make_time_series_dataset(
            num_objects=36, length=48, num_classes=3, noise=0.9, seed=1234
        )
        similarity, _ = similarity_and_dissimilarity(dataset.data)
        return similarity
    stream = generate_regime_switching_stream(
        num_stocks=48, num_days=160, num_regimes=2, regime_length=80, seed=77
    )
    similarity, _ = similarity_and_dissimilarity(stream.returns[:, 40:140])
    return similarity


def _snapshot(name: str, apsp_method: str = "dijkstra") -> dict:
    config = CASES[name]
    similarity = _case_similarity(name)
    result = tmfg_dbht(similarity, prefix=config["prefix"], apsp_method=apsp_method)
    labels = result.cut(config["clusters"])
    return {
        "case": name,
        "prefix": config["prefix"],
        "clusters": config["clusters"],
        "initial_clique": [int(v) for v in result.tmfg.initial_clique],
        "edges": [[int(u), int(v)] for u, v in result.tmfg.edges],
        "insertion_order": [
            [int(vertex), sorted(int(c) for c in face)]
            for vertex, face in result.tmfg.insertion_order
        ],
        "labels": [int(label) for label in labels],
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshot_matches_golden(case):
    path = GOLDEN_DIR / f"{case}.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    actual = _snapshot(case)
    # Exact equality, field by field for a readable diff on failure.
    assert actual["initial_clique"] == expected["initial_clique"]
    assert actual["edges"] == expected["edges"]
    assert actual["insertion_order"] == expected["insertion_order"]
    assert actual["labels"] == expected["labels"]
    assert actual == expected


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        payload = _snapshot(case)
        reference = _snapshot(case, apsp_method="scipy")
        if payload != reference:
            raise AssertionError(f"APSP methods disagree on {case}; refusing to regenerate")
        path = GOLDEN_DIR / f"{case}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
