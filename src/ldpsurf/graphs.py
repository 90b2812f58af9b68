"""Circular weighted graphs deciding isomorphism of the toric surfaces.

Each complete fan yields a cycle whose node i carries the self-intersection
weight of ray i's curve and whose edge from node i to node i+1 carries the
normal-form pair (p, q) of cone i.  A graph is the plain tuple of its
nodes, node i as (weight, p, q) with the edge to node i+1.  It is read off
the fan's FanAnalysis, so building it computes no cone invariants and
checks nothing: the cone normalizer already gives 0 <= p < q, gcd 1.  Two
fans give isomorphic surfaces exactly when one graph matches the other up
to rotation, or matches the other's reverse, where reversal flips the
traversal direction and rewrites every edge parameter p to its
modular-inverse partner.
Rotations and reversal act on the node cycles as a dihedral group, so
isomorphism is decided by the canonical key, the least sequence of a graph's
orbit: two surfaces are isomorphic exactly when their keys are equal.
"""

from __future__ import annotations

from .cones import socius
from .fans import FanAnalysis

Graph = tuple[tuple[int, int, int], ...]


def graph_of(a: FanAnalysis) -> Graph:
    return tuple((-w, cd.p, cd.q) for w, cd in zip(a.weights, a.cone_data))


def reverse_graph(g: Graph) -> Graph:
    """Traverse the cycle backwards; edge parameters p become their socius."""
    back = g[::-1]  # back[j] -> back[j + 1] is back[j + 1]'s edge
    return tuple((w, socius(p, q), q)
                 for (w, _, _), (_, p, q) in zip(back, back[1:] + back[:1]))


def canonical_key(g: Graph) -> Graph:
    """Rotation- and reversal-invariant key; equal keys mean isomorphic
    surfaces: the least rotation of the nodes or of their reverse."""
    return min(seq[i:] + seq[:i] for seq in (g, reverse_graph(g))
               for i in range(len(seq)))


def surfaces_isomorphic(a1: FanAnalysis, a2: FanAnalysis) -> bool:
    """Isomorphism test for the surfaces behind two analysed fans."""
    return canonical_key(graph_of(a1)) == canonical_key(graph_of(a2))


def render_graph(g: Graph) -> str:
    """One-line cyclic rendering; the trailing edge closes back on the first
    node.  Basic edges are drawn bare, singular ones carry their (p, q)."""
    return "".join(f"[{w}]" + (f" -({p},{q})- " if q > 1 else " - ")
                   for w, p, q in g).rstrip()
