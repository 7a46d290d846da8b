"""The simulator against a brute-force reference model.

The reference knows nothing of routing tables, delivery plans or caches: it
rebuilds the surviving graph from the raw node and edge lists, runs a plain
breadth-first search from the sender and prices every delivery mode from
that.  Random small graphs, random crash and link-failure sets and random
destination lists (duplicates included) must give the same reached and
unreachable sets, hops, reply hops, per-category counters and node load.
A second property pins node liveness to the fault plan under any sequence
of crashes, recoveries and resets.
"""

from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import NodeDownError, NoRouteError, UnknownNodeError
from repro.core.types import Address, Port, PostRecord
from repro.network.graph import Graph
from repro.network.simulator import DELIVERY_MODES, Network
from repro.network.stats import PAYLOAD, POST, QUERY, REPLY

PORT = Port("reference")
CATEGORIES = (POST, QUERY, REPLY, PAYLOAD)


@st.composite
def faulted_network(draw):
    """A random graph on 2..9 nodes (possibly disconnected), a crash set, a
    failed-link set, an up sender, a destination list with duplicates and
    the nodes that hold a posting for :data:`PORT`."""
    n = draw(st.integers(min_value=2, max_value=9))
    nodes = list(range(n))
    pairs = [(u, v) for u in nodes for v in nodes if u < v]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))))
    source = draw(st.sampled_from(nodes))
    others = [node for node in nodes if node != source]
    crashed = draw(st.sets(st.sampled_from(others), max_size=len(others)))
    failed = (
        draw(st.sets(st.sampled_from(edges), max_size=len(edges))) if edges else set()
    )
    destinations = draw(st.lists(st.sampled_from(nodes), max_size=12))
    holders = draw(st.sets(st.sampled_from(nodes)))
    mode = draw(st.sampled_from(DELIVERY_MODES))
    return nodes, edges, source, crashed, failed, destinations, holders, mode


def build(nodes, edges, crashed, failed, holders, mode):
    """The network under test: postings first, then the faults."""
    graph = Graph(nodes=nodes)
    for u, v in edges:
        graph.add_edge(u, v)
    network = Network(graph, delivery_mode=mode)
    for holder in sorted(holders):
        network.node(holder).accept_post(
            PostRecord(PORT, Address(holder), network.next_timestamp(), f"s{holder}")
        )
    for node in sorted(crashed):
        network.crash_node(node)
    for u, v in sorted(failed):
        network.fail_link(u, v)
    return network


class Reference:
    """Brute-force BFS over the survivors of one fault set."""

    def __init__(self, nodes, edges, crashed, failed, source):
        self.up = set(nodes) - set(crashed)
        self.adjacency = {node: set() for node in self.up}
        for u, v in edges:
            if (u, v) not in failed and u in self.up and v in self.up:
                self.adjacency[u].add(v)
                self.adjacency[v].add(u)
        self.source = source
        # Neighbours in repr order: the multicast tree is the BFS tree that
        # visits them in that order.
        self.parent = {source: source}
        self.distance = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbour in sorted(self.adjacency[node], key=repr):
                if neighbour not in self.parent:
                    self.parent[neighbour] = node
                    self.distance[neighbour] = self.distance[node] + 1
                    queue.append(neighbour)

    def reaches(self, destination, mode):
        if destination == self.source:
            return True
        if mode == "ideal":
            return destination in self.up
        return destination in self.distance

    def deliver(self, destinations, mode):
        """``(reached, unreachable, hops, delivered occurrences)``."""
        reached = {d for d in destinations if self.reaches(d, mode)}
        unreachable = set(destinations) - reached
        if mode == "multicast":
            tree_edges = set()
            for node in reached:
                while node != self.source:
                    tree_edges.add(frozenset((node, self.parent[node])))
                    node = self.parent[node]
            hops = len(tree_edges)
        else:
            hops = sum(
                (1 if mode == "ideal" else self.distance[d])
                for d in destinations
                if d in reached and d != self.source
            )
        delivered = sum(1 for d in destinations if d in reached)
        return reached, unreachable, hops, delivered

    def reply_hops(self, responders, mode):
        return sum(
            (1 if mode == "ideal" else self.distance[r])
            for r in responders
            if r != self.source
        )


def charged(network, earlier, category):
    """``(hops, messages, delivered, dropped)`` charged since ``earlier``."""
    stats = network.stats
    return (
        stats.hops.get(category, 0) - earlier.hops.get(category, 0),
        stats.messages.get(category, 0) - earlier.messages.get(category, 0),
        stats.delivered.get(category, 0) - earlier.delivered.get(category, 0),
        stats.dropped.get(category, 0) - earlier.dropped.get(category, 0),
    )


def load_since(network, earlier):
    return Counter(dict(network.stats.node_load.diff(earlier.node_load)))


@given(case=faulted_network())
@settings(max_examples=150, deadline=None)
def test_deliver_query_and_payload_match_the_reference(case):
    nodes, edges, source, crashed, failed, destinations, holders, mode = case
    network = build(nodes, edges, crashed, failed, holders, mode)
    reference = Reference(nodes, edges, crashed, failed, source)

    # The hot path (a frozenset of targets) and the per-occurrence path (a
    # list with duplicates) both follow the reference.
    for targets in (frozenset(destinations), list(destinations)):
        reached, unreachable, hops, delivered = reference.deliver(targets, mode)
        earlier = network.stats.snapshot()
        outcome = network.deliver(source, targets, POST)
        assert set(outcome.reached) == reached
        assert set(outcome.unreachable) == unreachable
        assert outcome.hops == hops
        assert charged(network, earlier, POST) == (
            hops, len(targets), delivered, len(targets) - delivered
        )
        assert load_since(network, earlier) == Counter(reached)

    reached, _, hops, delivered = reference.deliver(destinations, mode)
    responders = reached & (set(holders) - set(crashed))
    earlier = network.stats.snapshot()
    answer = network.query(source, PORT, destinations)
    assert answer.queried_nodes == reached
    assert answer.responding_nodes == responders
    assert sorted(r.address.node for r in answer.records) == sorted(responders)
    assert answer.query_hops == hops
    reply_hops = reference.reply_hops(responders, mode)
    assert answer.reply_hops == reply_hops
    assert charged(network, earlier, QUERY) == (
        hops, len(destinations), delivered, len(destinations) - delivered
    )
    assert charged(network, earlier, REPLY) == (
        reply_hops, len(responders), len(responders), 0
    )
    assert load_since(network, earlier) == Counter(reached)

    for destination in sorted(set(destinations)):
        earlier = network.stats.snapshot()
        if destination in crashed:
            with pytest.raises(NodeDownError):
                network.send_payload(source, destination)
            expected = (0, 0, 0, 0)
        elif destination not in reference.distance:
            with pytest.raises(NoRouteError):
                network.send_payload(source, destination)
            expected = (0, 0, 0, 0)
        else:
            distance = reference.distance[destination]
            assert network.send_payload(source, destination) == distance
            expected = (distance, 1, 1, 0)
        assert charged(network, earlier, PAYLOAD) == expected
        assert not load_since(network, earlier)

    assert network.stats.conservation_violations(CATEGORIES) == {}


LIVENESS_OPS = st.one_of(
    st.tuples(st.just("crash"), st.integers(0, 5)),
    st.tuples(st.just("recover"), st.integers(0, 5)),
    st.tuples(st.just("node_crash"), st.integers(0, 5)),
    st.tuples(st.just("node_recover"), st.integers(0, 5)),
    st.tuples(st.just("reset_for_reuse"), st.none()),
    st.tuples(st.just("reset_to_cold"), st.none()),
)


@given(ops=st.lists(LIVENESS_OPS, max_size=25))
@settings(max_examples=100, deadline=None)
def test_node_is_up_follows_the_fault_plan(ops):
    graph = Graph(nodes=range(6))
    for node in range(5):
        graph.add_edge(node, node + 1)
    network = Network(graph)
    down = set()
    for op, node in ops:
        if op == "crash":
            network.crash_node(node)
            down.add(node)
        elif op == "recover":
            network.recover_node(node)
            down.discard(node)
        elif op == "node_crash":
            network.node(node).crash()
            down.add(node)
        elif op == "node_recover":
            network.node(node).recover()
            down.discard(node)
        else:
            getattr(network, op)()
            down.clear()
        for candidate in range(6):
            up = network.node_is_up(candidate)
            assert up == (candidate not in down)
            assert up == network.faults.node_is_up(candidate)
            assert up == network.node(candidate).alive
        assert network.up_nodes() == [n for n in range(6) if n not in down]
    with pytest.raises(UnknownNodeError):
        network.node_is_up(6)
