"""Export real networks with known two-group splits from networkx into
``data/``, as edge lists and label files the test suite reads.

Usage: python3 tools/export_networks.py

Needs networkx (a tooling dependency only; the package and its tests do
not import it).  Writes, for each network NAME:

- ``data/NAME.edges``: a header of comments (source, networkx version,
  node names), then one "u v" line per edge.  Nodes are numbered in order
  of first appearance in the edge lines, which is the order in which
  ``bicomm.load_edge_list`` numbers them.
- ``data/NAME.labels``: one 0/1 line per node, in that order: the truth.

Networks:
- ``davis``: the Davis Southern Women graph (``davis_southern_women_graph``,
  32 nodes, undirected), truth the ``bipartite`` attribute: 0 for the 18
  women, 1 for the 14 events.
- ``karate``: Zachary's karate club (``karate_club_graph``, 34 nodes,
  undirected), truth the ``club`` attribute mapped to 0 for "Mr. Hi" and
  1 for "Officer" before the export.
"""

from __future__ import annotations

import sys
from pathlib import Path

import networkx as nx

DATA = Path(__file__).resolve().parent.parent / "data"


def export(name, g, truth_attr):
    """Write ``g`` (undirected) and its ``truth_attr`` node attribute."""
    nodes = list(g.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    pairs = sorted(tuple(sorted((index[u], index[v]))) for u, v in g.edges)
    order = list(dict.fromkeys(i for pair in pairs for i in pair))
    if len(order) != len(nodes):
        raise ValueError(f"{name}: isolated nodes cannot be written")
    new = {old: i for i, old in enumerate(order)}
    lines = [f"# {name}: networkx {nx.__version__}, undirected, "
             f"{len(nodes)} nodes, {len(pairs)} edges",
             f"# truth: node attribute '{truth_attr}' in {name}.labels"]
    lines += [f"# node {i}: {nodes[old]}" for i, old in enumerate(order)]
    lines += [f"{new[u]} {new[v]}" for u, v in pairs]
    (DATA / f"{name}.edges").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")
    labels = [str(g.nodes[nodes[old]][truth_attr]) for old in order]
    (DATA / f"{name}.labels").write_text("\n".join(labels) + "\n",
                                         encoding="utf-8")


def main():
    DATA.mkdir(exist_ok=True)
    export("davis", nx.davis_southern_women_graph(), "bipartite")
    karate = nx.karate_club_graph()
    for _, attrs in karate.nodes(data=True):
        attrs["club"] = int(attrs["club"] == "Officer")
    export("karate", karate, "club")
    return 0


if __name__ == "__main__":
    sys.exit(main())
