"""The scaled reproduction of the paper's ten-dataset suite (Table 2).

The paper's datasets are ten DIMACS USA road networks from 48 k to 24 M
nodes.  A pure-Python reproduction cannot index 24 M nodes in reasonable
time, so — per the substitution policy in the README's *Datasets and
experiments* — we keep the paper's *names* and *relative ladder* (each
dataset roughly doubles the previous) but compress the absolute sizes
to laptop scale.  Every dataset is a
:func:`repro.datasets.synthetic.towns_and_highways` network, the family
that most closely mirrors real road structure (dense local meshes joined
by sparse fast highways).

``dataset(name)`` builds a network deterministically; ``SUITE`` lists the
names in the paper's order.  ``suite_table()`` prints the Table-2 analogue
with the actual generated node/edge counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..graph.graph import Graph
from .synthetic import towns_and_highways

__all__ = ["SUITE", "SuiteSpec", "dataset", "dataset_spec", "suite_table"]


@dataclass(frozen=True)
class SuiteSpec:
    """Generation parameters of one suite dataset.

    Attributes
    ----------
    name:
        The paper's dataset name (Table 2).
    region:
        The paper's described coverage region, kept for documentation.
    paper_nodes, paper_edges:
        The original dataset size from Table 2.
    n_towns, town_width, town_height:
        Parameters handed to :func:`towns_and_highways`; the resulting
        node count is ~``n_towns * town_width * town_height``.
    seed:
        Deterministic generation seed.
    """

    name: str
    region: str
    paper_nodes: int
    paper_edges: int
    n_towns: int
    town_width: int
    town_height: int
    seed: int

    @property
    def approx_nodes(self) -> int:
        """Rough expected node count of the generated network."""
        return self.n_towns * self.town_width * self.town_height


# The ladder doubles roughly every step, like the paper's (which spans
# 48.8k -> 23.9M, a 490x range; ours spans ~600 -> ~26k, a 43x range --
# the largest that pure-Python index construction sustains in benches).
_SPECS: Tuple[SuiteSpec, ...] = (
    SuiteSpec("DE", "Delaware", 48_812, 120_489, 6, 10, 10, 101),
    SuiteSpec("NH", "New Hampshire", 115_055, 264_218, 9, 11, 11, 102),
    SuiteSpec("ME", "Maine", 187_315, 422_998, 12, 12, 12, 103),
    SuiteSpec("CO", "Colorado", 435_666, 1_057_066, 18, 13, 13, 104),
    SuiteSpec("FL", "Florida", 1_070_376, 2_712_798, 26, 14, 14, 105),
    SuiteSpec("CA", "California and Nevada", 1_890_815, 4_657_742, 36, 15, 15, 106),
    SuiteSpec("E-US", "Eastern US", 3_598_623, 8_778_114, 48, 16, 16, 107),
    SuiteSpec("W-US", "Western US", 6_262_104, 15_248_146, 64, 17, 17, 108),
    SuiteSpec("C-US", "Central US", 14_081_816, 34_292_496, 80, 18, 18, 109),
    SuiteSpec("US", "United States", 23_947_347, 58_333_344, 96, 19, 19, 110),
)

SUITE: Tuple[str, ...] = tuple(spec.name for spec in _SPECS)

_BY_NAME: Dict[str, SuiteSpec] = {spec.name: spec for spec in _SPECS}

_CACHE: Dict[str, Graph] = {}


def dataset_spec(name: str) -> SuiteSpec:
    """Return the :class:`SuiteSpec` for a suite dataset name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown suite dataset {name!r}; choose from {SUITE}") from None


def dataset(name: str, use_cache: bool = True) -> Graph:
    """Build (or fetch from the in-process cache) a suite dataset."""
    if use_cache and name in _CACHE:
        return _CACHE[name]
    spec = dataset_spec(name)
    # Spread towns over an area that scales with the town count so density
    # (and hence the arterial structure) stays comparable across the suite.
    area = 9_000.0 * max(2.0, spec.n_towns ** 0.5)
    graph = towns_and_highways(
        spec.n_towns,
        spec.town_width,
        spec.town_height,
        area=area,
        seed=spec.seed,
    )
    if use_cache:
        _CACHE[name] = graph
    return graph


def suite_table(names: List[str] = None) -> str:
    """Render the Table-2 analogue for the generated suite.

    Columns: name, region, paper n/m, generated n/m.  Used by the
    ``table2`` benchmark.
    """
    rows = [
        f"{'Name':<6} {'Region':<22} {'paper n':>10} {'paper m':>10} "
        f"{'ours n':>8} {'ours m':>8}"
    ]
    for name in names or SUITE:
        spec = dataset_spec(name)
        graph = dataset(name)
        rows.append(
            f"{spec.name:<6} {spec.region:<22} {spec.paper_nodes:>10,} "
            f"{spec.paper_edges:>10,} {graph.n:>8,} {graph.m:>8,}"
        )
    return "\n".join(rows)
