import pytest

from locround import graph as G
from conftest import build_d2_multigraph, random_simple_graph


def test_edge_list_parsing(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("# comment\n1 2\n2 3\n")
    g = G.load_graph(p, "edge-list")
    assert g.nodes == [1, 2, 3]
    assert g.max_degree() == 2


def test_setcover_parsing(tmp_path):
    p = tmp_path / "i.sc"
    p.write_text("e 1\ns 7\nc 1 7\n")
    inst = G.load_graph(p, "setcover")
    assert inst.elements == [1] and inst.sets == [7]
    assert inst.s == 1 and inst.t == 1


def test_self_loop_rejected(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("1 1\n")
    with pytest.raises(G.GraphFormatError):
        G.load_graph(p, "edge-list")


def test_degree_zero_element_rejected(tmp_path):
    p = tmp_path / "i.sc"
    p.write_text("e 1\ne 2\ns 7\nc 1 7\n")
    with pytest.raises(G.GraphFormatError):
        G.load_graph(p, "setcover")


def test_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("1 2\nbogus line here\n")
    with pytest.raises(G.GraphFormatError, match=":2:"):
        G.load_graph(p, "edge-list")


def test_node_weight_sidecar(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("n 1 5\nn 2 3\n1 2\n")
    wg = G.load_graph(p, "edge-list")
    assert isinstance(wg, G.WeightedGraph)
    assert wg.weights[1] == 5 and wg.weights[2] == 3


def test_d2_star():
    g = G.simple_graph([1, 2, 3], [(1, 2), (1, 3)])   # center 1
    h = build_d2_multigraph(g, lambda w: [(2, 3)] if w == 1 else [])
    virt = [e for e in h.edges if e.kind == G.VIRTUAL]
    assert len(virt) == 1 and virt[0].manager == 1
    assert {virt[0].u, virt[0].v} == {2, 3}


def test_d2_triangle_all_pairs():
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])

    def spec(w):
        nb = g.neighbors(w)
        return [(nb[i], nb[j]) for i in range(len(nb))
                for j in range(i + 1, len(nb))]

    h = build_d2_multigraph(g, spec)
    virt = [e for e in h.edges if e.kind == G.VIRTUAL]
    assert len(virt) == 3
    for e in virt:
        assert e.manager not in (e.u, e.v)


def test_d2_rejects_non_adjacent_pair():
    g = G.simple_graph([1, 2, 3], [(1, 2)])
    with pytest.raises(G.GraphFormatError):
        build_d2_multigraph(g, lambda w: [(2, 3)] if w == 1 else [])


def test_d2_manager_invariant_fuzz(rng):
    for _ in range(20):
        g = random_simple_graph(rng, rng.randint(2, 20), 6)

        def spec(w, g=g):
            nb = g.neighbors(w)
            out = []
            for i in range(len(nb)):
                for j in range(i + 1, len(nb)):
                    out.append((nb[i], nb[j]))
            return out[:5]

        h = build_d2_multigraph(g, spec)
        for e in h.edges:
            if e.kind == G.VIRTUAL:
                assert e.u in g.neighbors(e.manager)
                assert e.v in g.neighbors(e.manager)


def test_neighbors_lists_parallel_edges_once_each():
    """A physical and a virtual edge between 1 and 2, stored in both
    endpoint orders: ``neighbors`` is the sorted multiset."""
    g = G.Multigraph([1, 2, 3], [G.Edge(1, 2), G.Edge(2, 1, G.VIRTUAL, 3),
                                 G.Edge(3, 1)])
    assert g.neighbors(1) == [2, 2, 3]
    assert g.neighbors(2) == [1, 1]
    assert g.neighbors(3) == [1]


def test_model_check_rejects_virtual_edge_off_its_manager():
    # manager 1 is adjacent to 2 but not to 3
    comm = {1: {2}, 2: {1}, 3: set()}
    with pytest.raises(G.GraphFormatError, match="manager 1 not adjacent"):
        G.Multigraph([1, 2, 3], [G.Edge(2, 3, G.VIRTUAL, 1)], comm)


def test_model_check_rejects_physical_edge_off_the_comm_graph():
    comm = {1: {2}, 2: {1}, 3: set()}
    G.Multigraph([1, 2, 3], [G.Edge(1, 2)], comm)
    with pytest.raises(G.GraphFormatError, match="2-3 not comm-adjacent"):
        G.Multigraph([1, 2, 3], [G.Edge(1, 2), G.Edge(2, 3)], comm)


def test_model_check_rejects_manager_missing_from_the_map():
    # manager 9 lies outside the node set and has no entry in the map
    comm = {1: {9}, 2: {9}}
    with pytest.raises(G.GraphFormatError, match="manager 9 not adjacent"):
        G.Multigraph([1, 2], [G.Edge(1, 2, G.VIRTUAL, 9)], comm)
    comm[9] = {1, 2}
    h = G.Multigraph([1, 2], [G.Edge(1, 2, G.VIRTUAL, 9)], comm)
    assert h.edges[0].manager == 9


def test_line_graph_examples():
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3)])
    h = G.line_graph_view(g)
    assert len(h.nodes) == 2
    virt = [e for e in h.edges if e.kind == G.VIRTUAL]
    assert len(virt) == 1 and virt[0].manager == 2
    tri = G.simple_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    ht = G.line_graph_view(tri)
    assert len(ht.nodes) == 3 and ht.n_edges() == 3
    mm = G.simple_graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    hm = G.line_graph_view(mm)
    assert len(hm.nodes) == 2 and hm.n_edges() == 0


def test_line_graph_degree_bound(rng):
    for _ in range(10):
        g = random_simple_graph(rng, rng.randint(2, 25), 6)
        h = G.line_graph_view(g)
        assert len(h.nodes) == g.n_edges()
        dmax = g.max_degree()
        if h.nodes:
            assert h.max_degree() <= 2 * max(dmax - 1, 0)
