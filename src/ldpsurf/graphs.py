"""Circular weighted graphs deciding isomorphism of the toric surfaces.

Each complete fan yields a cycle whose node i carries the self-intersection
weight of ray i's curve and whose edge from node i to node i+1 carries the
normal-form pair (p, q) of cone i.  The graph is read off the fan's
FanAnalysis, so building it computes no cone invariants.  Two fans give
isomorphic surfaces exactly when one graph matches the other up to rotation,
or matches the other's reverse, where reversal flips the traversal direction
and rewrites every edge parameter p to its modular-inverse partner.
Rotations and reversal act on the node cycles as a dihedral group, so
isomorphism is decided by the canonical key, the least sequence of a graph's
orbit: two surfaces are isomorphic exactly when their keys are equal.
"""

from __future__ import annotations

import math

from .cones import socius
from .errors import DomainError
from .fans import FanAnalysis
from .lattice import _Frozen

Token = tuple[int, int, int]  # (node weight, edge p, edge q)


class WeightedCircularGraph(_Frozen):
    """Cycle of weighted nodes; the edge stored with node i leads to node i+1."""

    __slots__ = ("nodes",)
    nodes: tuple[Token, ...]

    def __init__(self, nodes: tuple[Token, ...]):
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 3:
            raise DomainError("a circular graph needs at least 3 nodes")
        for w, p, q in nodes:
            if q < 1 or not 0 <= p < q or math.gcd(p, q) != 1:
                raise DomainError(f"({p}, {q}) is not a normalized edge weight")


def graph_of(a: FanAnalysis) -> WeightedCircularGraph:
    return WeightedCircularGraph(tuple(
        (-w, cd.p, cd.q) for w, cd in zip(a.weights, a.cone_data)
    ))


def reverse_graph(g: WeightedCircularGraph) -> WeightedCircularGraph:
    """Traverse the cycle backwards; edge parameters p become their socius."""
    back = g.nodes[::-1]  # back[j] -> back[j + 1] is back[j + 1]'s edge
    return WeightedCircularGraph(tuple(
        (w, socius(p, q), q)
        for (w, _, _), (_, p, q) in zip(back, back[1:] + back[:1])))


def canonical_key(g: WeightedCircularGraph) -> tuple[Token, ...]:
    """Rotation- and reversal-invariant key; equal keys mean isomorphic
    surfaces: the least rotation of the nodes or of their reverse."""
    return min(seq[i:] + seq[:i] for seq in (g.nodes, reverse_graph(g).nodes)
               for i in range(len(seq)))


def surfaces_isomorphic(a1: FanAnalysis, a2: FanAnalysis) -> bool:
    """Isomorphism test for the surfaces behind two analysed fans."""
    return canonical_key(graph_of(a1)) == canonical_key(graph_of(a2))


def render_graph(g: WeightedCircularGraph) -> str:
    """One-line cyclic rendering; the trailing edge closes back on the first
    node.  Basic edges are drawn bare, singular ones carry their (p, q)."""
    return "".join(f"[{w}]" + (f" -({p},{q})- " if q > 1 else " - ")
                   for w, p, q in g.nodes).rstrip()
