"""Table 2 — dataset characteristics.

Renders the paper's dataset table next to the generated suite's actual
node/edge counts, plus basic network health (strong connectivity, max
degree) so the substitution policy in the README (*Datasets and
experiments*) stays auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ...datasets.suite import SUITE, dataset, dataset_spec
from ...graph.validation import analyze_network
from ..reporting import format_table

__all__ = ["Table2Row", "run", "render"]


@dataclass(frozen=True)
class Table2Row:
    """One suite dataset's paper-vs-generated characteristics."""

    name: str
    region: str
    paper_nodes: int
    paper_edges: int
    nodes: int
    edges: int
    strongly_connected: bool
    max_degree: int


def run(datasets: Sequence[str] = None) -> List[Table2Row]:
    """Build (or fetch) each dataset and collect its characteristics."""
    rows: List[Table2Row] = []
    for name in datasets or SUITE:
        spec = dataset_spec(name)
        graph = dataset(name)
        report = analyze_network(graph)
        rows.append(
            Table2Row(
                name=spec.name,
                region=spec.region,
                paper_nodes=spec.paper_nodes,
                paper_edges=spec.paper_edges,
                nodes=graph.n,
                edges=graph.m,
                strongly_connected=report.strongly_connected,
                max_degree=report.max_degree,
            )
        )
    return rows


def render(rows: Sequence[Table2Row]) -> str:
    """Render the Table-2 analogue."""
    return format_table(
        ["name", "region", "paper n", "paper m", "ours n", "ours m", "SCC", "maxdeg"],
        [
            (
                r.name,
                r.region,
                r.paper_nodes,
                r.paper_edges,
                r.nodes,
                r.edges,
                "yes" if r.strongly_connected else "NO",
                r.max_degree,
            )
            for r in rows
        ],
        title="Table 2 — dataset characteristics (paper scale vs generated suite)",
    )
