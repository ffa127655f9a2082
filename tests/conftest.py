import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from lpaideals import DirectedGraph

settings.register_profile(
    "suite",
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def graph(vertices, edges=(), bundles=()):
    return DirectedGraph.from_parts(vertices, edges, bundles)


def unique_maximal_graph():
    """u with two loops, u -> v -> w, loop c at w."""
    return graph(
        ["u", "v", "w"],
        [("f1", "u", "u"), ("g1", "u", "u"), ("e1", "u", "v"), ("e2", "v", "w"), ("c", "w", "w")],
    )


def mixed_maximals_graph():
    """u with two loops, v -> u and v -> w, loop c at w."""
    return graph(
        ["u", "v", "w"],
        [("f1", "u", "u"), ("g1", "u", "u"), ("e1", "v", "u"), ("e2", "v", "w"), ("c", "w", "w")],
    )


def omega_graph():
    """Named loop f at v plus a bundle v -> w; v breaks H = {w}."""
    return graph(["v", "w"], [("f", "v", "v")], [("v", "w")])


def chain_graph(n, reverse=False):
    """Two loops at each of v1..vn; chain edges v_{i+1} -> v_i, or
    v_i -> v_{i+1} when reversed."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n + 1):
        edges.append((f"f{i}", f"v{i}", f"v{i}"))
        edges.append((f"g{i}", f"v{i}", f"v{i}"))
    for i in range(1, n):
        if reverse:
            edges.append((f"e{i}", f"v{i}", f"v{i + 1}"))
        else:
            edges.append((f"e{i}", f"v{i + 1}", f"v{i}"))
    return graph(vertices, edges)


def clique_with_loop(n):
    """The complete graph on k1..kn plus a separate vertex z with one
    loop c, which is a cycle without K.  The edge k_i -> k_j is e<i><j>,
    each index padded to the width of n, so that no two ids collide."""
    ks = [f"k{i}" for i in range(1, n + 1)]
    w = len(str(n))
    edges = [
        (f"e{i:0{w}}{j:0{w}}", u, v)
        for i, u in enumerate(ks, 1)
        for j, v in enumerate(ks, 1)
        if i != j
    ]
    return graph(ks + ["z"], edges + [("c", "z", "z")])


def breaking_emitters(k):
    """k infinite emitters b_i, each with a loop f_i, an edge d_i to the
    sink w and a bundle to w: every b_i breaks H = {w}."""
    bs = [f"b{i}" for i in range(1, k + 1)]
    edges = [(f"f{i}", b, b) for i, b in enumerate(bs, 1)]
    edges += [(f"d{i}", b, "w") for i, b in enumerate(bs, 1)]
    return graph(bs + ["w"], edges, [(b, "w") for b in bs])


def cross_bundle_cycle():
    """The loop c at v, edges x: v -> w and y: w -> u, and a bundle u -> v.

    The bundle closes v -> w -> u -> v infinitely often, so v lies on
    infinitely many cycles besides c: (K) holds, the only hereditary
    saturated sets are {} and E^0, and L_K(E) is simple.
    """
    return graph(["u", "v", "w"], [("c", "v", "v"), ("x", "v", "w"), ("y", "w", "u")], [("u", "v")])


def breaker_below_coatom():
    """Graph f1: the edge e: a -> c and a bundle a -> b.

    a breaks H = {b}, so I({b}, {a}) is maximal (its quotient a -> c
    gives M_2(K)) although {b} is not a coatom of H_E; the other maximal
    ideal is I({b,c}, {}).
    """
    return graph(["a", "b", "c"], [("e", "a", "c")], [("a", "b")])


def breaker_below_coatom_with_loop():
    """Graph f3: f1 plus the loop d: c -> c, a cycle without K.

    The maximal ideals are I({b,c}, {}) and the non-graded family
    I({b}, B_H) + <f(d)>, which lies above I({b}, {a}).
    """
    return graph(["a", "b", "c"], [("d", "c", "c"), ("e", "a", "c")], [("a", "b")])


def diamond_chain(k):
    """The base a, then k diamonds in a row: each join vertex, a first,
    feeds two middle vertices that both feed the next join, and the last
    join carries the only cycle, a loop c.  a has 2^k paths to it."""
    vertices, edges, join = ["a"], [], "a"
    for j in range(1, k + 1):
        x, y, z = f"v{j:02}x", f"v{j:02}y", f"v{j:02}z"
        vertices += [x, y, z]
        edges += [(f"p{j}", join, x), (f"q{j}", join, y), (f"r{j}", x, z), (f"s{j}", y, z)]
        join = z
    return graph(vertices, edges + [("c", join, join)])


def ring(n):
    """One cycle through n vertices, r0000 -> r0001 -> ... -> r0000."""
    vertices = [f"r{i:04}" for i in range(n)]
    return graph(vertices, [(f"e{i:04}", v, vertices[(i + 1) % n]) for i, v in enumerate(vertices)])


def paired_cycles(k):
    """k two-cycles p{i}a <-> p{i}b joined in a path p{i}a -> p{i+1}a, the
    vertices p00000a, p00000b, ...  The index numbers the ids in
    descending order, so a walk in index order meets each pair from its
    b."""
    vertices = [f"p{i:05}{s}" for i in range(k) for s in "ab"]
    edges = []
    for i in range(k):
        a, b = f"p{i:05}a", f"p{i:05}b"
        edges += [(f"x{i}", a, b), (f"y{i}", b, a)]
        if i + 1 < k:
            edges.append((f"z{i}", a, f"p{i + 1:05}a"))
    return graph(vertices, edges)


def sparse_graph(n):
    """n vertices, 3n random named edges and n // 50 random bundles,
    drawn from random.Random(n)."""
    rng = random.Random(n)
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{j}", rng.choice(vertices), rng.choice(vertices)) for j in range(3 * n)]
    bundles = sorted({(rng.choice(vertices), rng.choice(vertices)) for _ in range(n // 50)})
    return graph(vertices, edges, bundles)


@pytest.fixture
def unique_max():
    return unique_maximal_graph()


@pytest.fixture
def mixed_max():
    return mixed_maximals_graph()


@pytest.fixture
def omega():
    return omega_graph()


def random_graph(rng, max_vertices=7, max_named=12, max_bundles=2, with_bundles=True):
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    m = rng.randint(0, max_named)
    edges = [
        (f"e{j}", rng.choice(vertices), rng.choice(vertices)) for j in range(m)
    ]
    bundles = []
    if with_bundles and rng.random() < 0.35:
        pairs = {(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(1, max_bundles))}
        bundles = sorted(pairs)
    return graph(vertices, edges, bundles)


def random_corpus(count, seed=20260809, **kwargs):
    rng = random.Random(seed)
    return [random_graph(rng, **kwargs) for _ in range(count)]


def graphs(max_vertices=5, max_edges=10, bundles=True):
    """Random graphs, and the hand-made bundle graphs within the limits:
    the cases that random draws of this size hardly ever reach."""
    handmade = [
        g
        for g in (
            cross_bundle_cycle(),
            breaker_below_coatom(),
            breaker_below_coatom_with_loop(),
            breaking_emitters(2),
            omega_graph(),
        )
        if bundles and len(g.vertices) <= max_vertices and len(g.edges) <= max_edges
    ]
    drawn = _random_graphs(max_vertices, max_edges, bundles)
    return st.one_of(st.sampled_from(handmade), drawn) if handmade else drawn


@st.composite
def _random_graphs(draw, max_vertices, max_edges, bundles):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    vertex = st.sampled_from(vertices)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    edges = [(f"e{j}", src, dst) for j, (src, dst) in enumerate(pairs)]
    bundle_list = []
    if bundles:
        bundle_list = sorted(set(draw(st.lists(st.tuples(vertex, vertex), max_size=2))))
    return graph(vertices, edges, bundle_list)


@st.composite
def graph_and_subset(draw, **kwargs):
    g = draw(graphs(**kwargs))
    subset = draw(st.sets(st.sampled_from(list(g.vertices))))
    return g, frozenset(subset)
