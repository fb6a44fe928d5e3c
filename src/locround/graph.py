"""Multigraphs, set cover instances, file ingestion and the line-graph view.

Nodes are identified by arbitrary non-negative 64-bit integers preserved
from the input.  Edges are physical (endpoints adjacent in the underlying
communication graph) or virtual (simulated by a manager node adjacent to
both endpoints).  An edge is an immutable named tuple that carries its
position in the graph's edge list as ``index``; every builder here numbers
its edges as it makes them, so ``Multigraph`` keeps them as they are.  A
builder of a d2-multigraph hands ``Multigraph`` the communication graph's
adjacency, against which the constructor checks both kinds; the graph
does not keep it.  Instances are immutable after construction and safe to
share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

MAX_ID = (1 << 63) - 1

PHYSICAL = "physical"
VIRTUAL = "virtual"


class GraphFormatError(ValueError):
    """Raised on malformed instance files or invariant violations."""


class Edge(NamedTuple):
    """One edge: endpoints ``u`` and ``v``, ``kind`` PHYSICAL or VIRTUAL,
    the ``manager`` of a virtual edge, and ``index``, the edge's position
    in its graph's edge list."""

    u: int
    v: int
    kind: str = PHYSICAL
    manager: Optional[int] = None
    index: int = 0

    def other(self, x):
        return self.v if x == self.u else self.u


class Multigraph:
    """Undirected multigraph with no self-loops over integer node ids.

    A caller that builds a d2-multigraph passes ``comm_adjacency``, the
    neighbor relation of its communication graph (node -> set of
    neighbors; managers may lie outside the node set).  The constructor
    then checks the model: physical edges run between comm-neighbors and
    each virtual edge's manager is comm-adjacent to both endpoints.  The
    relation is not kept.  An edge whose ``index`` is not its position
    in ``edges`` is stored renumbered.
    """

    def __init__(self, nodes: Iterable[int], edges: Iterable[Edge],
                 comm_adjacency: Optional[dict] = None):
        self.nodes = sorted(set(nodes))
        if self.nodes and (self.nodes[0] < 0 or self.nodes[-1] > MAX_ID):
            raise GraphFormatError("node ids must be in [0, 2^63)")
        incident = self._incident = {v: [] for v in self.nodes}
        comm = comm_adjacency
        self.edges = list(edges)
        for i, e in enumerate(self.edges):
            u, v, kind, manager, index = e
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            if u not in incident or v not in incident:
                raise GraphFormatError(f"edge {u}-{v} uses unknown node")
            if kind == VIRTUAL and manager is None:
                raise GraphFormatError("virtual edge without manager")
            if comm is not None and kind == PHYSICAL:
                if v not in comm.get(u, ()):
                    raise GraphFormatError(
                        f"physical edge {u}-{v} not comm-adjacent")
            elif comm is not None:
                nbrs = comm.get(manager, ())
                if u not in nbrs or v not in nbrs:
                    raise GraphFormatError(
                        f"manager {manager} not adjacent to both endpoints "
                        f"of virtual edge {u}-{v}")
            if index != i:
                e = self.edges[i] = e._replace(index=i)
            incident[u].append(e)
            incident[v].append(e)

    # -- simple accessors ---------------------------------------------------

    def n_edges(self):
        return len(self.edges)

    def incident(self, v):
        return self._incident[v]

    def degree(self, v):
        return len(self._incident[v])

    def max_degree(self):
        return max((len(es) for es in self._incident.values()), default=0)

    def is_simple_physical(self):
        seen = set()
        for u, v, kind, _manager, _index in self.edges:
            if kind != PHYSICAL:
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    def neighbors(self, v):
        """Neighbor multiset as a sorted list (simple graphs: the neighbor set)."""
        return sorted(e.other(v) for e in self._incident[v])


def simple_graph(nodes, pairs):
    """Simple physical graph from an iterable of unordered id pairs."""
    seen = set()
    edges = []
    for u, v in pairs:
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append(Edge(u, v, PHYSICAL, None, len(edges)))
    return Multigraph(nodes, edges)


@dataclass
class WeightedGraph:
    """Simple physical graph with positive integer node weights."""

    graph: Multigraph
    weights: dict

    def __post_init__(self):
        if not self.graph.is_simple_physical():
            raise GraphFormatError("weighted graph must be simple and physical")
        for v in self.graph.nodes:
            w = self.weights.get(v, 1)
            if w < 1 or w != int(w):
                raise GraphFormatError(f"weight of node {v} must be a positive integer")
            self.weights[v] = int(w)
        self.W = max(self.weights.values(), default=1)

    def total_weight(self, nodes=None):
        it = self.graph.nodes if nodes is None else nodes
        return sum(self.weights[v] for v in it)


@dataclass
class SetCoverInstance:
    """Bipartite set cover instance: elements U, sets V, incidence edges."""

    elements: list
    sets: list
    incidence: list          # (element id, set id)
    costs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.elements = sorted(set(self.elements))
        self.sets = sorted(set(self.sets))
        eset = set(self.elements)
        vset = set(self.sets)
        if eset & vset:
            raise GraphFormatError("element and set ids must be disjoint")
        self.element_sets = {u: [] for u in self.elements}
        self.set_elements = {v: [] for v in self.sets}
        seen = set()
        for (u, v) in self.incidence:
            if u not in eset or v not in vset:
                raise GraphFormatError(f"containment {u} in {v} uses unknown id")
            if (u, v) in seen:
                continue
            seen.add((u, v))
            self.element_sets[u].append(v)
            self.set_elements[v].append(u)
        self.incidence = sorted(seen)
        for u in self.elements:
            self.element_sets[u].sort()
            if not self.element_sets[u]:
                raise GraphFormatError(f"element {u} has degree 0: uncoverable")
        for v in self.sets:
            self.set_elements[v].sort()
        for v in self.sets:
            c = self.costs.get(v, 1)
            if c < 1 or c != int(c):
                raise GraphFormatError(f"cost of set {v} must be a positive integer")
            self.costs[v] = int(c)
        self.s = max((len(self.set_elements[v]) for v in self.sets), default=0)
        self.t = max(len(self.element_sets[u]) for u in self.elements) if self.elements else 0
        self.W = max(self.costs.values(), default=1)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def load_graph(path, fmt="edge-list"):
    """Parse an instance file.

    Edge-list format: edge lines ``u v``, ``n <id> <weight>`` node
    declarations, ``#`` comments.
    Set cover format: ``e <id>``, ``s <id> [cost]``, ``c <element> <set>``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path}: not UTF-8 text: {exc}") from None
    if fmt == "edge-list":
        return parse_edge_list(lines, path)
    if fmt == "setcover":
        return parse_setcover(lines, path)
    raise GraphFormatError(f"unknown format {fmt!r}")


def _fail(path, lineno, msg):
    raise GraphFormatError(f"{path}:{lineno}: {msg}")


def parse_edge_list(lines, path="<edge-list>"):
    nodes = set()
    weights = {}
    pairs = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "n":
            if len(toks) != 3:
                _fail(path, lineno, "node line needs 'n <id> <weight>'")
            try:
                vid, w = int(toks[1]), int(toks[2])
            except ValueError:
                _fail(path, lineno, "non-integer token")
            if vid in weights and weights[vid] != w:
                _fail(path, lineno, f"duplicate NodeId {vid} with conflicting weight")
            nodes.add(vid)
            weights[vid] = w
            continue
        if len(toks) != 2:
            _fail(path, lineno, "edge line needs 'u v'")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            _fail(path, lineno, "non-integer endpoint")
        if u == v:
            _fail(path, lineno, f"self-loop at node {u}")
        nodes.update((u, v))
        pairs.append((u, v))
    g = simple_graph(nodes, pairs)
    if weights:
        for v in g.nodes:
            weights.setdefault(v, 1)
        return WeightedGraph(g, weights)
    return g


def parse_setcover(lines, path="<setcover>"):
    elements = []
    sets_ = []
    costs = {}
    inc = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        try:
            if toks[0] == "e" and len(toks) == 2:
                elements.append(int(toks[1]))
            elif toks[0] == "s" and len(toks) in (2, 3):
                vid = int(toks[1])
                sets_.append(vid)
                if len(toks) == 3:
                    costs[vid] = int(toks[2])
            elif toks[0] == "c" and len(toks) == 3:
                inc.append((int(toks[1]), int(toks[2])))
            else:
                _fail(path, lineno, f"unrecognized line {line!r}")
        except ValueError:
            _fail(path, lineno, "non-integer token")
    if len(elements) != len(set(elements)):
        _fail(path, 0, "duplicate element id")
    if len(sets_) != len(set(sets_)):
        _fail(path, 0, "duplicate set id")
    try:
        return SetCoverInstance(elements, sets_, inc, costs)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# derived structures
# ---------------------------------------------------------------------------


def line_graph_view(g: Multigraph):
    """Multigraph over the edges of ``g``: edge-nodes sharing an endpoint w
    are joined by a virtual edge managed by w.

    Edge-node ids are ``base + edge index`` with ``base`` past the largest
    original id, so managers (original nodes) and edge-nodes never collide.
    Each virtual edge is built once, numbered as ``Multigraph`` keeps it.
    The returned graph carries ``edge_node_base`` for mapping back.
    """
    if not g.is_simple_physical():
        raise GraphFormatError("line graph view requires a simple graph")
    base = (g.nodes[-1] + 1) if g.nodes else 0
    nodes = range(base, base + len(g.edges))
    comm = {}           # an original node's comm-neighbors: its edge-nodes
    edges = []
    for v in g.nodes:
        # incidence lists are in edge-index order, so ``inc`` is ascending
        inc = [base + e.index for e in g.incident(v)]
        comm[v] = set(inc)
        for i, a in enumerate(inc):
            for b in inc[i + 1:]:
                edges.append(Edge(a, b, VIRTUAL, v, len(edges)))
    h = Multigraph(nodes, edges, comm)
    h.edge_node_base = base
    return h
