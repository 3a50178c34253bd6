"""Seeded inputs: graphs, program texts and operation streams.

Nothing here imports ``repro``.  The workload process feeds these inputs to
the system under test and ``run.py`` feeds the same inputs to the
oracle, so for one seed both sides see identical data.  String seeds are
hashed deterministically by :class:`random.Random`, so every generator is
reproducible across processes and Python runs.
"""

from __future__ import annotations

import itertools
import random

#: Input sizes per scale.  ``full`` is what the benchmark measures;
#: ``smoke`` keeps every code path but finishes in seconds.
SIZES = {
    "full": {
        "analytics_nodes": 10000,
        "analytics_degree": 4,
        "grid_side": 80,
        "succ_limit": 160,
        "triangle_nodes": 120,
        "triangle_edges": 1600,
        "pt_variables": 150,
        "pt_statements": 1500,
        "reads_nodes": 1500,
        "reads_degree": 3,
        "mixed_nodes": 800,
        "mixed_degree": 3,
        "mixed_back_edges": 40,
        "hubs": 4,
        "warm_per_cold": 7,
        "min_reads": 200,
        "min_writes": 100,
    },
    "smoke": {
        "analytics_nodes": 300,
        "analytics_degree": 3,
        "grid_side": 8,
        "succ_limit": 16,
        "triangle_nodes": 20,
        "triangle_edges": 120,
        "pt_variables": 20,
        "pt_statements": 80,
        "reads_nodes": 200,
        "reads_degree": 3,
        "mixed_nodes": 120,
        "mixed_degree": 3,
        "mixed_back_edges": 6,
        "hubs": 2,
        "warm_per_cold": 2,
        "min_reads": 20,
        "min_writes": 10,
    },
}

# ---------------------------------------------------------------------------
# Programs (the benchmark's own copies, so parent and change run the same text)
# ---------------------------------------------------------------------------

REACHABILITY = """
reach(Y) :- source(X), edge(X, Y).
reach(Z) :- reach(Y), edge(Y, Z).
"""

UNREACHABLE = REACHABILITY + """
unreach(X) :- node(X), not reach(X).
"""

SHORTEST_PATH = """
dist(Y, 1) :- source(X), edge(X, Y).
dist(Z, D2) :- dist(Y, D), edge(Y, Z), succ(D, D2).
shortest(Y, min<D>) :- dist(Y, D).
"""

# The arity-3 head keeps this program off the columnar vector lane.
TRIANGLE = """
tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X), lt(X, Y), lt(X, Z).
tri_support(X, count<Y>) :- tri(X, Y, Z).
tri_apexes(count<X>) :- tri(X, Y, Z).
"""

POINTS_TO = """
pt(V, H) :- alloc(V, H).
pt(V, H) :- assign(V, U), pt(U, H).
hpt(H1, H2) :- store(U, V), pt(U, H1), pt(V, H2).
pt(V, H2) :- load(V, U), pt(U, H1), hpt(H1, H2).
"""

#: Analytics portfolio in pass order: name -> (program text, derived predicates).
ANALYTICS = {
    "reachability": (REACHABILITY, ("reach",)),
    "unreachable": (UNREACHABLE, ("reach", "unreach")),
    "shortest_path": (SHORTEST_PATH, ("dist", "shortest")),
    "triangle": (TRIANGLE, ("tri", "tri_support", "tri_apexes")),
    "points_to": (POINTS_TO, ("pt", "hpt")),
}

REACH_RULES = """reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""

#: Bound-query templates: name -> (source text, parameter name).
#: ``reach_src`` is the selection magic sets propagates; ``reach_dst`` binds
#: the argument the left-linear recursion cannot pass down.
TEMPLATES = {
    "reach_src": ("?reach($src, Y)\n" + REACH_RULES, "src"),
    "reach_dst": ("?reach(X, $dst)\n" + REACH_RULES, "dst"),
}

# ---------------------------------------------------------------------------
# Graph generators
# ---------------------------------------------------------------------------

#: Every graph's shape comes from this fixed seed; ``--seed`` relabels the
#: nodes and draws the operation streams.  Inputs differ per seed, but the
#: work a run does does not depend on which random shape a seed happened to
#: draw (closure sizes of preferential-attachment graphs vary by a third
#: between seeds), so the spread between runs measures the program.
SHAPE_SEED = 0


def preferential_attachment(nodes: int, degree: int, rng: random.Random) -> set:
    """Directed edges old -> new; targets drawn in proportion to degree.

    Low ranks are the hubs: rank 0 reaches almost every node, the newest
    nodes reach almost nothing.
    """
    edges = set()
    pool = [0]
    for node in range(1, nodes):
        for _ in range(degree):
            target = pool[rng.randrange(len(pool))]
            if target != node:
                edges.add((target, node))
            pool.append(target)
        pool.append(node)
    return edges


def grid(side: int) -> set:
    edges = set()
    for y in range(side):
        for x in range(side):
            node = y * side + x
            if x + 1 < side:
                edges.add((node, node + 1))
            if y + 1 < side:
                edges.add((node, node + side))
    return edges


def random_digraph(nodes: int, count: int, rng: random.Random) -> set:
    edges = set()
    while len(edges) < count:
        edges.add((rng.randrange(nodes), rng.randrange(nodes)))
    return edges


def labels(count: int, seed: int, name: str) -> list:
    """A seeded permutation: ``labels(...)[rank]`` is the id the program sees."""
    permutation = list(range(count))
    random.Random(f"{seed}:labels:{name}").shuffle(permutation)
    return permutation


class Graph:
    """A fixed shape over ranks ``0..nodes-1``, relabeled per seed."""

    def __init__(self, shape: set, nodes: int, seed: int, name: str):
        self.nodes = nodes
        self.shape = shape
        self.label = labels(nodes, seed, name)
        self.edges = {(self.label[u], self.label[v]) for u, v in shape}


def points_to_input(variables: int, statements: int, seed: int) -> dict:
    """Andersen statement relations: 20% alloc, 40% assign, 20% store, 20% load."""
    rng = random.Random(f"{SHAPE_SEED}:pt")
    heaps = max(variables // 4, 1)
    var = labels(variables, seed, "pt-variables")
    heap = labels(heaps, seed, "pt-heaps")
    names = [f"v{var[i]}" for i in range(variables)]
    objects = [f"h{heap[i]}" for i in range(heaps)]
    relations = {"alloc": set(), "assign": set(), "store": set(), "load": set()}
    for index, obj in enumerate(objects):
        relations["alloc"].add((names[index % variables], obj))
    for _ in range(max(statements - heaps, 0)):
        kind = rng.random()
        if kind < 0.2:
            relations["alloc"].add((rng.choice(names), rng.choice(objects)))
        else:
            key = "assign" if kind < 0.6 else "store" if kind < 0.8 else "load"
            relations[key].add((rng.choice(names), rng.choice(names)))
    return relations


def analytics_inputs(seed: int, sizes: dict) -> dict:
    """Program name -> relation name -> set of tuples."""
    nodes = sizes["analytics_nodes"]
    pa = Graph(
        preferential_attachment(nodes, sizes["analytics_degree"], random.Random(f"{SHAPE_SEED}:pa")),
        nodes, seed, "pa",
    )
    side = sizes["grid_side"]
    mesh = Graph(grid(side), side * side, seed, "grid")
    tri_nodes = sizes["triangle_nodes"]
    dense = Graph(
        random_digraph(tri_nodes, sizes["triangle_edges"], random.Random(f"{SHAPE_SEED}:tri")),
        tri_nodes, seed, "tri",
    )
    pa_relations = {
        "node": {(i,) for i in range(nodes)},
        "source": {(pa.label[0],)},
        "edge": pa.edges,
    }
    return {
        "reachability": pa_relations,
        "unreachable": pa_relations,
        "shortest_path": {
            "source": {(mesh.label[0],)},
            "edge": mesh.edges,
            "succ": {(i, i + 1) for i in range(1, sizes["succ_limit"])},
        },
        "triangle": {
            "edge": dense.edges,
            "lt": {(i, j) for i in range(tri_nodes) for j in range(i + 1, tri_nodes)},
        },
        "points_to": points_to_input(sizes["pt_variables"], sizes["pt_statements"], seed),
    }


def reads_graph(seed: int, sizes: dict) -> Graph:
    nodes = sizes["reads_nodes"]
    shape = preferential_attachment(
        nodes, sizes["reads_degree"], random.Random(f"{SHAPE_SEED}:reads")
    )
    return Graph(shape, nodes, seed, "reads")


def mixed_graph(seed: int, sizes: dict) -> Graph:
    """A preferential-attachment graph plus new -> old edges that close cycles.

    Back edges stay inside the newer half, where the writes land too (see
    :class:`MixedStream`): cycles there are broken and re-closed by writes
    without merging the hubs into one graph-wide cycle.
    """
    rng = random.Random(f"{SHAPE_SEED}:mixed")
    nodes = sizes["mixed_nodes"]
    shape = preferential_attachment(nodes, sizes["mixed_degree"], rng)
    back = 0
    while back < sizes["mixed_back_edges"]:
        older, newer = sorted(rng.sample(range(nodes // 2, nodes), 2))
        if (newer, older) not in shape:
            shape.add((newer, older))
            back += 1
    return Graph(shape, nodes, seed, "mixed")


# ---------------------------------------------------------------------------
# Operation streams
# ---------------------------------------------------------------------------


def skewed_rank(rng: random.Random, nodes: int) -> int:
    """Low (hub) ranks far more often than high ones: repeats and hubs both occur."""
    return int(nodes * rng.random() ** 3)


def read_stream(seed: int, graph: Graph):
    """Endless ``(template, constant)`` reads: every tenth is ``reach_dst``.

    The mix is a fixed cycle, not a coin flip, so every run does the same
    share of the costly pattern; only the constants are drawn.
    """
    rng = random.Random(f"{seed}:read-stream")
    for index in itertools.count():
        if index % 10 == 9:
            yield "reach_dst", graph.label[rng.randrange(graph.nodes)]
        else:
            yield "reach_src", graph.label[skewed_rank(rng, graph.nodes)]


def probe_writes(seed: int, nodes: int, edges: set, count: int) -> list:
    """``count`` writes in groups of four: three absent edges inserted one at
    a time, then deleted in one batch.  Three writes in four are inserts, so
    p50 falls inside the inserts' latencies and p90 inside the deletes', not
    on the gap between the two."""
    rng = random.Random(f"{seed}:probe-writes")
    writes = []
    while len(writes) < count:
        batch = []
        while len(batch) < 3:
            edge = (rng.randrange(nodes), rng.randrange(nodes))
            if edge[0] != edge[1] and edge not in edges and edge not in batch:
                batch.append(edge)
        writes.extend(("add_facts", [edge]) for edge in batch)
        writes.append(("remove_facts", batch))
    return writes[:count]


class MixedStream:
    """Every tenth operation a write, the rest reads, over the mixed graph.

    Reads alternate between materialized hub bindings (view hits) and
    skewed fresh bindings; the mix is a fixed cycle, only constants and
    edges are drawn.  Writes touch only the newer half of the graph,
    so each write's footprint, and the write latency tail, stays bounded.
    Writes follow the fixed cycle ``WRITES``: single-edge inserts, each
    either the reverse of an existing edge (a two-edge cycle) or a random
    forward edge, and deletes of the oldest inserted edges, in a batch of
    three or singly, so deletes break cycles and maintenance runs DRed.
    Every edge a cycle inserts it also deletes, so the graph keeps its
    initial shape within five edges.  Five writes in eight are inserts:
    p50 falls inside the inserts' narrow latency band and p90 inside the
    deletes', never on the steep part of the deletes' wide band, where a
    few percent more or fewer cheap writes would move it by a fifth.  The
    stream tracks its own intended edges; the oracle replays what the
    server acknowledged, not this intent.
    """

    #: ``0``: insert one edge; ``n > 0``: delete the ``n`` oldest inserted edges.
    WRITES = (0, 0, 0, 3, 0, 0, 1, 1)

    def __init__(self, seed: int, graph: Graph, hubs: int):
        self._rng = random.Random(f"{seed}:mixed-stream")
        self._graph = graph
        self._hubs = hubs
        region = graph.nodes // 2
        self._region = region
        self._reversible = sorted((u, v) for u, v in graph.shape if min(u, v) >= region)
        self._present = set(graph.shape)
        self._pending = []
        self._writes = itertools.cycle(self.WRITES)
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self):
        rng, graph = self._rng, self._graph
        label = graph.label
        self._index += 1
        if self._index % 10:
            if self._index % 2:
                return ("read", label[rng.randrange(self._hubs)])
            return ("read", label[self._hubs + skewed_rank(rng, graph.nodes - self._hubs)])
        size = next(self._writes)
        if size == 0:
            while True:
                if rng.random() < 0.5:
                    v, u = self._reversible[rng.randrange(len(self._reversible))]
                else:
                    u = rng.randrange(self._region, graph.nodes)
                    v = rng.randrange(self._region, graph.nodes)
                if u != v and (u, v) not in self._present:
                    break
            self._present.add((u, v))
            self._pending.append((u, v))
            return ("add_facts", [(label[u], label[v])])
        batch, self._pending = self._pending[:size], self._pending[size:]
        self._present.difference_update(batch)
        return ("remove_facts", [(label[u], label[v]) for u, v in batch])
