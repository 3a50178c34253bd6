"""An independent answer oracle: plain dicts of sets, BFS and naive fixpoints.

It imports nothing from ``repro`` and shares no code with the engines it
checks.  Every function takes relations as ``{name: set of tuples}`` and
returns answers in the shape the system returns them, so the two sides can
be compared through :func:`digest`.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict


def digest(rows) -> str:
    """An order-independent fingerprint of a set of answer tuples."""
    rows = [tuple(row) for row in rows]
    try:
        rows.sort()
    except TypeError:
        rows.sort(key=repr)
    return hashlib.sha1(repr(rows).encode("utf-8")).hexdigest()


def adjacency(edges) -> dict:
    out = defaultdict(set)
    for source, target in edges:
        out[source].add(target)
    return out


def reverse_adjacency(edges) -> dict:
    back = defaultdict(set)
    for source, target in edges:
        back[target].add(source)
    return back


def reachable(adj: dict, start) -> set:
    """Nodes reachable from *start* by one or more edges."""
    seen = set()
    frontier = list(adj.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(adj.get(node, ()))
    return seen


def _reachability(relations: dict) -> dict:
    adj = adjacency(relations["edge"])
    reach = set()
    for (source,) in relations["source"]:
        reach |= reachable(adj, source)
    return {"reach": {(node,) for node in reach}}


def _unreachable(relations: dict) -> dict:
    model = _reachability(relations)
    model["unreach"] = {row for row in relations["node"] if row not in model["reach"]}
    return model


def _shortest_path(relations: dict) -> dict:
    adj = adjacency(relations["edge"])
    successor = defaultdict(set)
    for before, after in relations["succ"]:
        successor[before].add(after)
    dist = set()
    frontier = {(target, 1) for (source,) in relations["source"] for target in adj.get(source, ())}
    while frontier:
        dist |= frontier
        frontier = {
            (target, after)
            for node, hops in frontier
            for after in successor.get(hops, ())
            for target in adj.get(node, ())
        } - dist
    best = {}
    for node, hops in dist:
        if node not in best or hops < best[node]:
            best[node] = hops
    return {"dist": dist, "shortest": set(best.items())}


def _triangle(relations: dict) -> dict:
    edges = relations["edge"]
    less = relations["lt"]
    adj = adjacency(edges)
    tri = {
        (x, y, z)
        for x, y in edges
        for z in adj.get(y, ())
        if (z, x) in edges and (x, y) in less and (x, z) in less
    }
    middles = defaultdict(set)
    for x, y, _ in tri:
        middles[x].add(y)
    support = {(x, len(ys)) for x, ys in middles.items()}
    apexes = {(len(middles),)} if middles else set()
    return {"tri": tri, "tri_support": support, "tri_apexes": apexes}


def _points_to(relations: dict) -> dict:
    pt = set(relations["alloc"])
    hpt = set()
    while True:
        pointed = defaultdict(set)
        for variable, heap in pt:
            pointed[variable].add(heap)
        new_pt = {(v, h) for v, u in relations["assign"] for h in pointed.get(u, ())}
        new_hpt = {
            (h1, h2)
            for u, v in relations["store"]
            for h1 in pointed.get(u, ())
            for h2 in pointed.get(v, ())
        }
        heap_to = defaultdict(set)
        for h1, h2 in hpt | new_hpt:
            heap_to[h1].add(h2)
        new_pt |= {
            (v, h2)
            for v, u in relations["load"]
            for h1 in pointed.get(u, ())
            for h2 in heap_to.get(h1, ())
        }
        if new_pt <= pt and new_hpt <= hpt:
            return {"pt": pt, "hpt": hpt}
        pt |= new_pt
        hpt |= new_hpt


#: Portfolio program name -> its derived relations from the input relations.
ANALYTICS = {
    "reachability": _reachability,
    "unreachable": _unreachable,
    "shortest_path": _shortest_path,
    "triangle": _triangle,
    "points_to": _points_to,
}


class EdgeState:
    """The acknowledged edge set of a workload, replayed write by write."""

    def __init__(self, edges):
        self.edges = set(edges)
        self._memo = {}
        self._adjacency = None

    def apply(self, kind: str, batch) -> int:
        """Apply one acknowledged write; returns the count the system must report."""
        batch = {tuple(edge) for edge in batch}
        if kind == "add_facts":
            changed = batch - self.edges
            self.edges |= changed
        else:
            changed = batch & self.edges
            self.edges -= changed
        if changed:
            self._memo.clear()
            self._adjacency = None
        return len(changed)

    def answers_digest(self, template: str, constant) -> str:
        """Digest of ``?reach($src, Y)`` (rows ``(y,)``) or ``?reach(X, $dst)`` (rows ``(x,)``)."""
        key = (template, constant)
        if key not in self._memo:
            if self._adjacency is None:
                self._adjacency = (adjacency(self.edges), reverse_adjacency(self.edges))
            forward, backward = self._adjacency
            graph = forward if template == "reach_src" else backward
            self._memo[key] = digest((node,) for node in reachable(graph, constant))
        return self._memo[key]
