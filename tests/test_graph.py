import pytest

from locround import graph as G
from conftest import random_simple_graph


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
    assert wg.weight(1) == 5 and wg.weight(2) == 3


def test_d2_star():
    g = G.simple_graph([1, 2, 3], [(1, 2), (1, 3)])   # center 1
    h = G.build_d2_multigraph(g, lambda w: [(2, 3)] if w == 1 else [])
    virt = [e for e in h.edges if e.kind == G.VIRTUAL]
    assert len(virt) == 1 and virt[0].manager == 1
    assert {virt[0].u, virt[0].v} == {2, 3}


def test_d2_triangle_all_pairs():
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])

    def spec(w):
        nb = sorted(g.comm_adjacency[w])
        return [(nb[i], nb[j]) for i in range(len(nb))
                for j in range(i + 1, len(nb))]

    h = G.build_d2_multigraph(g, spec)
    virt = [e for e in h.edges if e.kind == G.VIRTUAL]
    assert len(virt) == 3
    for e in virt:
        assert e.manager not in (e.u, e.v)


def test_d2_rejects_non_adjacent_pair():
    g = G.simple_graph([1, 2, 3], [(1, 2)])
    with pytest.raises(G.GraphFormatError):
        G.build_d2_multigraph(g, lambda w: [(2, 3)] if w == 1 else [])


def test_d2_manager_invariant_fuzz(rng):
    for _ in range(20):
        g = random_simple_graph(rng, rng.randint(2, 20), 6)

        def spec(w, g=g):
            nb = sorted(g.comm_adjacency[w])
            out = []
            for i in range(len(nb)):
                for j in range(i + 1, len(nb)):
                    out.append((nb[i], nb[j]))
            return out[:5]

        h = G.build_d2_multigraph(g, spec)
        for e in h.edges:
            if e.kind == G.VIRTUAL:
                assert e.u in h.comm_adjacency[e.manager]
                assert e.v in h.comm_adjacency[e.manager]


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
