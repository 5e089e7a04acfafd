"""Tests for physical topologies."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.rings.topology import PhysicalNetwork, RingLink, RingNetwork
from repro.util.errors import TopologyError


class TestRingLink:
    def test_endpoints_wrap(self):
        assert RingLink(6, 5).endpoints == (5, 0)
        assert RingLink(6, 2).endpoints == (2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RingLink(6, 6)


class TestRingNetwork:
    def test_structure(self):
        net = RingNetwork(8)
        assert net.num_links == 8
        assert len(list(net.links())) == 8
        assert net.neighbors(0) == (7, 1)
        assert net.neighbors(7) == (6, 0)

    def test_too_small(self):
        with pytest.raises(TopologyError):
            RingNetwork(2)

    def test_link_between(self):
        net = RingNetwork(6)
        assert net.link_between(2, 3).index == 2
        assert net.link_between(3, 2).index == 2
        assert net.link_between(5, 0).index == 5
        with pytest.raises(TopologyError):
            net.link_between(0, 3)

    def test_failure_state(self):
        net = RingNetwork(5)
        assert net.is_link_up(3)
        net.fail_link(3)
        assert not net.is_link_up(3)
        assert net.failed_links == {3}
        net.repair_link(3)
        assert net.is_link_up(3)
        net.fail_link(1)
        net.fail_link(2)
        net.repair_all()
        assert net.failed_links == frozenset()

    def test_link_modular(self):
        assert RingNetwork(6).link(7).index == 1


class TestPhysicalNetwork:
    def test_ring_detection(self):
        net = PhysicalNetwork(nx.cycle_graph(6), name="c6")
        assert net.is_ring()
        assert sorted(net.ring_order()) == list(range(6))
        assert net.is_two_edge_connected()

    def test_non_ring(self):
        net = PhysicalNetwork(nx.path_graph(5))
        assert not net.is_ring()
        assert not net.is_two_edge_connected()  # bridges everywhere
        with pytest.raises(TopologyError):
            net.ring_order()

    def test_two_edge_connected_grid(self):
        g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 3))
        assert PhysicalNetwork(g).is_two_edge_connected()

    def test_rejects_empty_and_loops(self):
        with pytest.raises(TopologyError):
            PhysicalNetwork(nx.Graph())
        g = nx.Graph()
        g.add_edge(0, 0)
        with pytest.raises(TopologyError):
            PhysicalNetwork(g)

    def test_counts(self):
        net = PhysicalNetwork(nx.cycle_graph(5))
        assert net.num_nodes == 5
        assert net.num_links == 5
        assert sorted(net.nodes()) == list(range(5))
