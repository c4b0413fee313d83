"""The weight-function family ``W(k, K̂)`` (paper Sec. 3.2, S3 and Sec. 3.5).

GPS turns estimation objectives into edge-sampling weights: the weight of
an arriving edge may depend on the edge itself (attributes, endpoints) and
on the topology of the current reservoir.  The paper's variance-cost
analysis (Sec. 3.5) shows that to minimise the incremental variance of a
target subgraph count, the weight should be (proportional to) the number of
target subgraphs the arriving edge completes against the sample, plus a
default weight so novel edges can still be picked up.

Concrete members:

* :class:`UniformWeight` — W ≡ 1: GPS degenerates to classic uniform
  reservoir sampling (paper remark after Algorithm 1).
* :class:`TriangleWeight` — W = coef·|△̂(k)| + default, the paper's choice
  ``9·|△̂(k)| + 1`` for triangle counting (Sec. 4).
* :class:`WedgeWeight` — W = coef·(sampled degree sum) + default, the
  analogous choice when wedges are the target class.
* :class:`AttributeWeight` — intrinsic (topology-free) weights from a user
  callable: node/edge attributes, byte counts, relationship types …
* :class:`LinearCombinationWeight` — non-negative combinations of the
  above, for multi-objective sampling.

All weight functions must return a strictly positive, finite value so that
priorities ``w/u`` are well defined.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, Tuple

from repro.core.reservoir import SampledGraph
from repro.graph.edge import Node


class WeightFunction(Protocol):
    """Structural type of ``W(k, K̂)``: (u, v, sample) → weight > 0."""

    def __call__(self, u: Node, v: Node, sample: SampledGraph) -> float: ...


class UniformWeight:
    """W ≡ constant: uniform (classic reservoir) sampling."""

    __slots__ = ("constant",)

    def __init__(self, constant: float = 1.0) -> None:
        if constant <= 0:
            raise ValueError("weight constant must be positive")
        self.constant = constant

    def __call__(self, u: Node, v: Node, sample: SampledGraph) -> float:
        return self.constant

    def __repr__(self) -> str:
        return f"UniformWeight({self.constant!r})"


class TriangleWeight:
    """W(k, K̂) = coef·|△̂(k)| + default — variance-optimal for triangles.

    ``|△̂(k)|`` is the number of triangles the arriving edge closes against
    the current sample, i.e. ``|Γ̂(v1) ∩ Γ̂(v2)|``.  Paper default:
    coef = 9, default = 1 (Sec. 4, "Algorithm Description").
    """

    __slots__ = ("coef", "default")

    def __init__(self, coef: float = 9.0, default: float = 1.0) -> None:
        if coef < 0 or default <= 0:
            raise ValueError("need coef >= 0 and default > 0")
        self.coef = coef
        self.default = default

    def __call__(self, u: Node, v: Node, sample: SampledGraph) -> float:
        return self.coef * sample.common_neighbor_count(u, v) + self.default

    def __repr__(self) -> str:
        return f"TriangleWeight(coef={self.coef!r}, default={self.default!r})"


class WedgeWeight:
    """W(k, K̂) = coef·(deĝ(v1) + deĝ(v2)) + default — wedge-targeted.

    The number of wedges an arriving edge completes against the sample is
    the number of sampled edges adjacent to it, i.e. the sum of the
    endpoints' sampled degrees.
    """

    __slots__ = ("coef", "default")

    def __init__(self, coef: float = 1.0, default: float = 1.0) -> None:
        if coef < 0 or default <= 0:
            raise ValueError("need coef >= 0 and default > 0")
        self.coef = coef
        self.default = default

    def __call__(self, u: Node, v: Node, sample: SampledGraph) -> float:
        return self.coef * (sample.degree(u) + sample.degree(v)) + self.default

    def __repr__(self) -> str:
        return f"WedgeWeight(coef={self.coef!r}, default={self.default!r})"


class AttributeWeight:
    """Intrinsic weights from a user callable ``fn(u, v) → float > 0``.

    Expresses the paper's auxiliary-variable use case (S3): user age,
    relationship type, bytes on a communication link, …  The callable sees
    only the edge, not the sample.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Node, Node], float]) -> None:
        self.fn = fn

    def __call__(self, u: Node, v: Node, sample: SampledGraph) -> float:
        weight = float(self.fn(u, v))
        if weight <= 0:
            raise ValueError(f"attribute weight must be positive, got {weight}")
        return weight

    def __repr__(self) -> str:
        return f"AttributeWeight({self.fn!r})"


class LinearCombinationWeight:
    """Σ coef_i · W_i(k, K̂): blend several objectives into one sample.

    Example: weight triangles and wedges simultaneously so a single
    reference sample serves both count queries (the paper's "general
    samples ... estimate various properties simultaneously").
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[Tuple[float, WeightFunction]]) -> None:
        if not terms:
            raise ValueError("need at least one (coefficient, weight) term")
        for coef, _fn in terms:
            if coef < 0:
                raise ValueError("coefficients must be non-negative")
        if not any(coef > 0 for coef, _fn in terms):
            # An all-zero combination would only fail mid-stream with a
            # cryptic "non-positive weight" error; reject it up front.
            raise ValueError("at least one coefficient must be positive")
        self.terms = list(terms)

    def __call__(self, u: Node, v: Node, sample: SampledGraph) -> float:
        return sum(coef * fn(u, v, sample) for coef, fn in self.terms)

    def __repr__(self) -> str:
        return f"LinearCombinationWeight({self.terms!r})"


def is_label_free(weight_fn: "WeightFunction") -> bool:
    """Whether ``weight_fn`` reads only sample *topology*, never labels.

    Label-free weights are invariant under node relabelling, which is
    what licenses the interned (dense-``int32``) populations the
    replication and sweep pools hand their workers: workers may stream
    interned ids instead of original labels and every estimate stays
    bit-identical.
    :class:`AttributeWeight` (and any unrecognised custom callable) may
    inspect the labels themselves, so it conservatively disqualifies.

    >>> is_label_free(TriangleWeight())
    True
    >>> is_label_free(AttributeWeight(lambda u, v: 1.0))
    False
    """
    from repro.core.adaptive import AdaptiveTriangleWeight

    kind = type(weight_fn)
    if kind in (UniformWeight, TriangleWeight, WedgeWeight):
        return True
    if kind is AdaptiveTriangleWeight:
        return True
    if kind is LinearCombinationWeight:
        return all(is_label_free(fn) for _coef, fn in weight_fn.terms)
    return False
