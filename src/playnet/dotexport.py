"""DOT rendering of a decision network: eleven nodes, ten labeled edges.

The output is plain Graphviz source (render with `dot -Tpng`); the tool
itself never rasterizes. Node and edge order are fixed so the same
network always produces the same bytes.
"""

from __future__ import annotations

from .network import DecisionNetwork, TEAM_SIZE


def export_network_dot(network: DecisionNetwork) -> str:
    """Graphviz source with every edge labeled by its 4-vector (s, tau, p, r), 3 decimals."""
    lines = [
        "graph decision_network {",
        "  layout=circo;",
        "  node [shape=circle, fontsize=11];",
        f"  t{network.holder} [style=filled, fillcolor=gold];",
    ]
    for j in range(1, TEAM_SIZE + 1):
        if j != network.holder:
            lines.append(f"  t{j};")
    for j in network.edges:
        s, tau, p, r = network.edge(j)
        label = f"({s:.3f}, {tau:.3f}, {p:.3f}, {r})"
        lines.append(f'  t{network.holder} -- t{j} [label="{label}", fontsize=9];')
    lines.append("}")
    return "\n".join(lines) + "\n"
