"""Dataset registry: synthetic stand-ins for the paper's evaluation graphs.

The paper evaluates on 50 real graphs from networkrepository.com (up to
265M edges).  Offline, we substitute seeded synthetic graphs whose *family*
matches each graph's domain (DESIGN.md Sec. 5): heavy-tailed + clustered
for social/collaboration, heavy-tailed for web/tech, dense blocks for the
Facebook school graphs, preferential attachment for citations, and a grid
for the road network.  Each spec carries the paper-reported statistics so
harness output and EXPERIMENTS.md can show paper-vs-ours side by side.

Graphs and their exact statistics are cached per process: the registry is
deterministic (fixed seeds), so every experiment and benchmark sees
identical graphs.

To run the experiments on the *real* datasets instead, download them from
networkrepository.com and register them here with
:func:`register_edge_list_dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.exact import GraphStatistics, compute_statistics
from repro.graph.generators import (
    chung_lu,
    powerlaw_cluster,
    road_grid,
    stochastic_block_model,
    watts_strogatz,
)
from repro.graph.io import read_edge_list


@dataclass(frozen=True)
class PaperReference:
    """Numbers the paper reports for the corresponding real graph.

    ``are_*`` are the triangle-count absolute relative errors from Table 1
    (m = 200K edges).  ``fraction`` is the paper's |K̂|/|K| there.  Missing
    values (graphs outside Table 1) are None.
    """

    edges: float
    fraction: Optional[float] = None
    triangles: Optional[float] = None
    wedges: Optional[float] = None
    clustering: Optional[float] = None
    are_in_stream: Optional[float] = None
    are_post: Optional[float] = None


@dataclass(frozen=True)
class DatasetSpec:
    """A named stand-in graph: generator + provenance documentation."""

    name: str
    domain: str
    description: str
    factory: Callable[[], AdjacencyGraph]
    paper: Optional[PaperReference] = None


_B = 1e9
_M = 1e6
_K = 1e3

DATASETS: Dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    if spec.name in DATASETS:
        raise ValueError(f"duplicate dataset name {spec.name!r}")
    DATASETS[spec.name] = spec


_register(DatasetSpec(
    name="ca-hollywood-2009",
    domain="collaboration",
    description=(
        "Co-starring network stand-in: Holme-Kim powerlaw-cluster graph "
        "(heavy tail, very high clustering)."
    ),
    factory=lambda: powerlaw_cluster(5000, 10, 0.8, seed=101),
    paper=PaperReference(
        edges=56.3e6, fraction=0.0036, triangles=4.9 * _B, wedges=47.6 * _B,
        clustering=0.31, are_in_stream=0.0009, are_post=0.0036,
    ),
))

_register(DatasetSpec(
    name="com-amazon",
    domain="co-purchase",
    description=(
        "Product co-purchase stand-in: small-world lattice with rewiring "
        "(bounded degree, high local clustering)."
    ),
    factory=lambda: watts_strogatz(9000, 8, 0.15, seed=102),
    paper=PaperReference(
        edges=925.8e3, fraction=0.216, triangles=667.1e3, wedges=9.7 * _M,
        clustering=0.205, are_in_stream=0.0001, are_post=0.0004,
    ),
))

_register(DatasetSpec(
    name="higgs-social-network",
    domain="social",
    description=(
        "Twitter-interaction stand-in: heavy-tailed Chung-Lu graph with "
        "low clustering but hub-driven triangle mass (the real graph has "
        "6.6 triangles per edge at clustering 0.009)."
    ),
    factory=lambda: chung_lu(12000, 45000, exponent=2.15, seed=103),
    paper=PaperReference(
        edges=12.5e6, fraction=0.016, triangles=83 * _M, wedges=28.7 * _B,
        clustering=0.009, are_in_stream=0.0043, are_post=0.0031,
    ),
))

_register(DatasetSpec(
    name="soc-livejournal",
    domain="social",
    description="Blog-friendship stand-in: Chung-Lu power-law graph.",
    factory=lambda: chung_lu(12000, 55000, exponent=2.4, seed=104),
    paper=PaperReference(
        edges=27.9e6, fraction=0.0072, triangles=83.5 * _M, wedges=1.7 * _B,
        clustering=0.139, are_in_stream=0.0043, are_post=0.0244,
    ),
))

_register(DatasetSpec(
    name="soc-orkut",
    domain="social",
    description="Orkut friendship stand-in: dense Chung-Lu power-law graph.",
    factory=lambda: chung_lu(11000, 65000, exponent=2.5, seed=105),
    paper=PaperReference(
        edges=117.1e6, fraction=0.0017, triangles=627.5 * _M,
        wedges=45.6 * _B, clustering=0.041,
        are_in_stream=0.0028, are_post=0.0203,
    ),
))

_register(DatasetSpec(
    name="soc-twitter-2010",
    domain="social",
    description=(
        "Twitter follower stand-in: large Chung-Lu graph with a very "
        "heavy tail (the paper's headline 265M-edge graph)."
    ),
    factory=lambda: chung_lu(15000, 90000, exponent=2.2, seed=106),
    paper=PaperReference(
        edges=265e6, fraction=0.0008, triangles=17.2 * _B, wedges=1.8e12,
        clustering=0.028, are_in_stream=0.0009, are_post=0.0027,
    ),
))

_register(DatasetSpec(
    name="soc-youtube-snap",
    domain="social",
    description="YouTube friendship stand-in: sparse Chung-Lu graph.",
    factory=lambda: chung_lu(11000, 35000, exponent=2.3, seed=107),
    paper=PaperReference(
        edges=2.9e6, fraction=0.0669, triangles=3 * _M, wedges=1.4 * _B,
        clustering=0.006, are_in_stream=0.0004, are_post=0.0003,
    ),
))

_register(DatasetSpec(
    name="socfb-Penn94",
    domain="social (school)",
    description=(
        "Facebook school stand-in: stochastic block model (dense "
        "communities, near-uniform degrees)."
    ),
    factory=lambda: stochastic_block_model(
        [300] * 6, p_in=0.08, p_out=0.012, seed=108
    ),
    paper=PaperReference(
        edges=1.3e6, fraction=0.1468, triangles=7.2 * _M, wedges=220.1 * _M,
        clustering=0.098, are_in_stream=0.0063, are_post=0.0044,
    ),
))

_register(DatasetSpec(
    name="socfb-Texas84",
    domain="social (school)",
    description="Facebook school stand-in: stochastic block model.",
    factory=lambda: stochastic_block_model(
        [360] * 5, p_in=0.09, p_out=0.012, seed=109
    ),
    paper=PaperReference(
        edges=1.5e6, fraction=0.1257, triangles=11.1 * _M, wedges=335.7 * _M,
        clustering=0.1, are_in_stream=0.0011, are_post=0.0013,
    ),
))

_register(DatasetSpec(
    name="tech-as-skitter",
    domain="technological",
    description=(
        "Internet-topology stand-in: Chung-Lu graph with a very heavy "
        "tail and low clustering."
    ),
    factory=lambda: chung_lu(13000, 45000, exponent=2.1, seed=110),
    paper=PaperReference(
        edges=11e6, fraction=0.018, triangles=28.7 * _M, wedges=16 * _B,
        clustering=0.005, are_in_stream=0.0081, are_post=0.0141,
    ),
))

_register(DatasetSpec(
    name="web-google",
    domain="web",
    description=(
        "Web-graph stand-in: Holme-Kim powerlaw-cluster graph with "
        "moderate triadic closure."
    ),
    factory=lambda: powerlaw_cluster(10000, 4, 0.35, seed=111),
    paper=PaperReference(
        edges=4.3e6, fraction=0.0463, triangles=13.3 * _M, wedges=727.4 * _M,
        clustering=0.055, are_in_stream=0.0034, are_post=0.0078,
    ),
))

_register(DatasetSpec(
    name="web-BerkStan",
    domain="web",
    description="Web-graph stand-in (Figures 1-2): clustered power law.",
    factory=lambda: powerlaw_cluster(8000, 6, 0.55, seed=112),
    paper=PaperReference(edges=7.6e6),
))

_register(DatasetSpec(
    name="cit-Patents",
    domain="citation",
    description=(
        "Patent-citation stand-in: power-law graph with mild triadic "
        "closure (the real graph has 0.45 triangles per edge)."
    ),
    factory=lambda: powerlaw_cluster(12000, 4, 0.45, seed=113),
    paper=PaperReference(edges=16.5e6),
))

_register(DatasetSpec(
    name="infra-roadNet-CA",
    domain="infrastructure",
    description=(
        "California road-network stand-in: grid with diagonal short-cuts "
        "(bounded degree, low clustering).  The diagonal rate is raised "
        "above the real graph's triangle density so the absolute triangle "
        "count is large enough to sample at our reduced scale; see "
        "EXPERIMENTS.md."
    ),
    factory=lambda: road_grid(145, 145, diagonal_prob=0.25, seed=114),
    paper=PaperReference(edges=2.8e6),
))


# ----------------------------------------------------------------------
# Experiment groupings (paper Sec. 6)
# ----------------------------------------------------------------------
TABLE1_DATASETS: List[str] = [
    "ca-hollywood-2009",
    "com-amazon",
    "higgs-social-network",
    "soc-livejournal",
    "soc-orkut",
    "soc-twitter-2010",
    "soc-youtube-snap",
    "socfb-Penn94",
    "socfb-Texas84",
    "tech-as-skitter",
    "web-google",
]

TABLE2_DATASETS: List[str] = [
    "cit-Patents",
    "higgs-social-network",
    "infra-roadNet-CA",
]

TABLE3_DATASETS: List[str] = [
    "ca-hollywood-2009",
    "tech-as-skitter",
    "infra-roadNet-CA",
    "soc-youtube-snap",
]

FIGURE1_DATASETS: List[str] = [
    "ca-hollywood-2009",
    "com-amazon",
    "higgs-social-network",
    "soc-youtube-snap",
    "socfb-Penn94",
    "socfb-Texas84",
    "tech-as-skitter",
    "web-BerkStan",
    "web-google",
    "soc-livejournal",
    "soc-orkut",
    "soc-twitter-2010",
]

FIGURE2_DATASETS: List[str] = [
    "socfb-Texas84",
    "socfb-Penn94",
    "soc-twitter-2010",
    "soc-youtube-snap",
    "soc-orkut",
    "soc-livejournal",
    "higgs-social-network",
    "cit-Patents",
    "web-BerkStan",
    "com-amazon",
    "tech-as-skitter",
    "web-google",
]

FIGURE3_DATASETS: List[str] = ["soc-orkut", "tech-as-skitter"]


# ----------------------------------------------------------------------
# Access (cached: the registry is deterministic)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def make_graph(name: str) -> AdjacencyGraph:
    """Build (once per process) the stand-in graph for ``name``."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None
    return spec.factory()


@lru_cache(maxsize=None)
def get_statistics(name: str) -> GraphStatistics:
    """Exact ground-truth statistics of the stand-in graph (cached)."""
    return compute_statistics(make_graph(name))


def register_edge_list_dataset(
    name: str,
    path: Path,
    domain: str = "user",
    description: str = "user-registered edge list",
    paper: Optional[PaperReference] = None,
) -> DatasetSpec:
    """Register a real downloaded graph so the harness can use it by name."""
    spec = DatasetSpec(
        name=name,
        domain=domain,
        description=description,
        factory=lambda: read_edge_list(path),
        paper=paper,
    )
    _register(spec)
    return spec
