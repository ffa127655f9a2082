"""Brute-force oracles, independent of the library's algorithms.

These read only the raw vertex/edge/bundle tuples of a graph.  Every
bundle, a self bundle or one between distinct vertices, is expanded
into two anonymous parallel edges (two is enough to stand in for
"infinitely many" in every condition checked here).  These edges are
walkable, so the cycles they close put their vertices on more than one
cycle; they are never reported as paths, witnesses or named cycles.
"""

from itertools import combinations, permutations


def raw_successors(g):
    adj = {v: set() for v in g.vertices}
    for e in g.edges:
        adj[e.src].add(e.dst)
    for b in g.omega_bundles:
        adj[b.src].add(b.dst)
    return adj


def reach_sets(g):
    """Floyd-Warshall reflexive-transitive closure: v -> reachable set."""
    vs = list(g.vertices)
    index = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    mat = [[i == j for j in range(n)] for i in range(n)]
    adj = raw_successors(g)
    for u, targets in adj.items():
        for w in targets:
            mat[index[u]][index[w]] = True
    for k in range(n):
        for i in range(n):
            if mat[i][k]:
                row_i, row_k = mat[i], mat[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {u: frozenset(v for v in vs if mat[index[u]][index[v]]) for u in vs}


def is_hereditary_brute(g, subset):
    adj = raw_successors(g)
    return all(adj[v] <= set(subset) for v in subset)


def is_saturated_brute(g, subset):
    subset = set(subset)
    named_out = {v: [] for v in g.vertices}
    for e in g.edges:
        named_out[e.src].append(e.dst)
    has_bundle = {b.src for b in g.omega_bundles}
    for v in g.vertices:
        if v in subset or v in has_bundle or not named_out[v]:
            continue
        if all(t in subset for t in named_out[v]):
            return False
    return True


def hereditary_saturated_sets_brute(g):
    """Filter every vertex subset by the two defining conditions."""
    out = set()
    vs = list(g.vertices)
    for r in range(len(vs) + 1):
        for combo in combinations(vs, r):
            x = frozenset(combo)
            if is_hereditary_brute(g, x) and is_saturated_brute(g, x):
                out.add(x)
    return out


def walkable_edges(g):
    """Named edges plus two anonymous parallel edges per bundle: (id, src, dst)."""
    edges = [(e.id, e.src, e.dst) for e in g.edges]
    for b in g.omega_bundles:
        edges.append((f"~0@{b.src}>{b.dst}", b.src, b.dst))
        edges.append((f"~1@{b.src}>{b.dst}", b.src, b.dst))
    return edges


def cycles_brute(g, include_pseudo=False):
    """All simple cycles as canonical edge-id tuples, by trying every
    cyclic arrangement of every vertex subset and every choice of
    parallel edge between consecutive vertices.
    """
    edges = walkable_edges(g)
    if not include_pseudo:
        edges = [e for e in edges if not e[0].startswith("~")]
    between = {}
    for eid, src, dst in edges:
        between.setdefault((src, dst), []).append(eid)
    found = set()
    vs = sorted(g.vertices)
    for r in range(1, len(vs) + 1):
        for combo in combinations(vs, r):
            first = combo[0]
            for rest in permutations(combo[1:]):
                order = (first,) + rest
                hops = [(order[i], order[(i + 1) % r]) for i in range(r)]
                if any(h not in between for h in hops):
                    continue
                choices = [between[h] for h in hops]
                stack = [()]
                for options in choices:
                    stack = [acc + (eid,) for acc in stack for eid in options]
                found.update(stack)
    return found


def _cycle_has_exit(g, cycle_edges, cycle_sources):
    out = {}
    for eid, src, dst in walkable_edges(g):
        out.setdefault(src, []).append(eid)
    for eid, v in zip(cycle_edges, cycle_sources):
        if any(other != eid for other in out.get(v, [])):
            return True
    return False


def _cycle_sources(g, cycle_edges):
    lookup = {eid: (src, dst) for eid, src, dst in walkable_edges(g)}
    return [lookup[eid][0] for eid in cycle_edges]


def condition_L_brute(g):
    """Every cycle (pseudo loops included) has an exit."""
    for cycle_edges in cycles_brute(g, include_pseudo=True):
        if not _cycle_has_exit(g, cycle_edges, _cycle_sources(g, cycle_edges)):
            return False
    return True


def count_simple_closed_paths(g, base, bound, stop_at=2):
    """Closed paths based at ``base`` (base never re-entered mid-path),
    counted as distinct edge sequences up to length ``bound``, stopping
    early at ``stop_at``.  Every vertex on such a path lies in the
    strongly connected component of the base, so the walk is pruned to
    that set.
    """
    out = {}
    for eid, src, dst in walkable_edges(g):
        out.setdefault(src, []).append((eid, dst))

    def forward(start):
        seen = {start}
        stack = [start]
        while stack:
            for _, w in out.get(stack.pop(), []):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    incoming = {}
    for eid, src, dst in walkable_edges(g):
        incoming.setdefault(dst, []).append(src)

    def backward(start):
        seen = {start}
        stack = [start]
        while stack:
            for w in incoming.get(stack.pop(), []):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    component = forward(base) & backward(base)
    found = 0

    def walk(v, used):
        nonlocal found
        if found >= stop_at:
            return
        for eid, w in out.get(v, []):
            if w not in component:
                continue
            if w == base:
                found += 1
                if found >= stop_at:
                    return
            elif used + 1 < bound:
                walk(w, used + 1)

    walk(base, 0)
    return found


def condition_K_brute(g):
    """No vertex is the base of exactly one simple closed path.

    A second witness, when one exists, has length at most three times
    the vertex count (a cycle, or path + detour cycle + path), so the
    bounded search is exact.
    """
    bound = 3 * len(g.vertices)
    for v in g.vertices:
        if count_simple_closed_paths(g, v, bound) == 1:
            return False
    return True


def breaking_vertices_brute(g, subset):
    subset = set(subset)
    named_out = {v: [] for v in g.vertices}
    for e in g.edges:
        named_out[e.src].append(e.dst)
    bundles_out = {v: [] for v in g.vertices}
    for b in g.omega_bundles:
        bundles_out[b.src].append(b.dst)
    out = set()
    for w in g.vertices:
        if w in subset or not bundles_out[w]:
            continue
        if any(t not in subset for t in bundles_out[w]):
            continue
        if any(t not in subset for t in named_out[w]):
            out.add(w)
    return frozenset(out)


def cycles_without_K_brute(g):
    """The named cycles none of whose vertices lies on a second cycle,
    counting the cycles through the anonymous bundle edges too."""
    lookup = {eid: (src, dst) for eid, src, dst in walkable_edges(g)}
    cycles = sorted(cycles_brute(g, include_pseudo=True))
    counts = {}
    for cyc in cycles:
        for eid in cyc:
            counts[lookup[eid][0]] = counts.get(lookup[eid][0], 0) + 1
    out = []
    for cyc in cycles:
        sources = [lookup[eid][0] for eid in cyc]
        if all(counts[v] == 1 for v in sources) and not any(eid.startswith("~") for eid in cyc):
            out.append((cyc, sources))
    return out


def is_downward_directed_brute(reach, subset):
    """Any two members of subset share a descendant in subset, by the
    reachability map ``reach`` (v -> the vertices v reaches)."""
    return all(
        any(w in reach[u] and w in reach[v] for w in subset)
        for u in subset
        for v in subset
    )


def primes_brute(g):
    """Canonical keys of every prime descriptor, re-derived from the raw
    definitions: subset-filtered lattice, Floyd-Warshall reachability,
    raw breaking-vertex scan, arrangement-enumerated cycles.
    """
    reach = reach_sets(g)
    full = frozenset(g.vertices)
    m_of = {v: frozenset(u for u in g.vertices if v in reach[u]) for v in g.vertices}
    without_k = cycles_without_K_brute(g)
    primes = set()
    for h in hereditary_saturated_sets_brute(g):
        if h == full:
            continue
        complement = full - h
        b_h = breaking_vertices_brute(g, h)
        if is_downward_directed_brute(reach, complement):
            primes.add(("graded", tuple(sorted(h)), tuple(sorted(b_h))))
        for u in b_h:
            if complement == m_of[u]:
                primes.add(("graded", tuple(sorted(h)), tuple(sorted(b_h - {u}))))
        for cyc, sources in without_k:
            base = min(sources)
            if not (set(sources) & h) and complement == m_of[base]:
                primes.add(("family", tuple(sorted(h)), cyc))
    return primes


def maximals_brute(g):
    """The keys of ``primes_brute`` that are maximal under inclusion: the
    maximal ideals, as every maximal ideal is prime and every prime lies
    below a maximal ideal.  A graded (H, S) lies in a graded (H2, S2) when
    H is in H2 and S in H2 union S2, and in a family exactly when it lies
    in the family's graded part (H2, B_H2).  A family lies in an ideal
    when its graded part does and its cycle lies in that ideal's H2.
    """
    source = {e.id: e.src for e in g.edges}

    def graded_part(key):
        kind, h, rest = key
        return set(h), set(rest) if kind == "graded" else set(breaking_vertices_brute(g, h))

    def below(p, q):
        (h1, s1), (h2, s2) = graded_part(p), graded_part(q)
        if not (h1 <= h2 and s1 <= h2 | s2):
            return False
        return p[0] == "graded" or {source[eid] for eid in p[2]} <= h2

    primes = primes_brute(g)
    return {p for p in primes if not any(q != p and below(p, q) for q in primes)}


def maximal_proper_brute(g):
    """The coatoms of the subset-filtered lattice, by comparing every
    proper set with every other, in (size, sorted ids) order."""
    full = frozenset(g.vertices)
    proper = sorted(
        (s for s in hereditary_saturated_sets_brute(g) if s != full),
        key=lambda s: (len(s), sorted(s)),
    )
    return [s for s in proper if not any(s < t for t in proper)]


def maximals_by_coatoms_brute(g):
    """The maximal-ideal report's coatom rule, from the raw definitions:
    at each coatom H of the subset-filtered lattice, every cycle that
    avoids H and whose other edges and bundles all land in H is a
    non-graded family, and (H, B_H) is a graded maximal when H has none.

    This is the rule the report follows, not the truth: a
    breaking vertex can make (H, B_H) maximal when H is not a coatom
    (open defect F1), and this oracle misses those exactly as the
    library does.  Returns the graded (H, S) and the family (H, cycle)
    keys, each sorted.
    """
    source = {e.id: e.src for e in g.edges}
    cycles = sorted(cycles_brute(g))
    graded, families = [], []
    for h in maximal_proper_brute(g):
        found = []
        for cyc in cycles:
            on_cycle = {source[eid] for eid in cyc}
            exits = [e.dst for e in g.edges if e.src in on_cycle and e.id not in cyc]
            exits += [b.dst for b in g.omega_bundles if b.src in on_cycle]
            if not on_cycle & h and all(t in h for t in exits):
                found.append((tuple(sorted(h)), cyc))
        families += found
        if not found:
            graded.append((tuple(sorted(h)), tuple(sorted(breaking_vertices_brute(g, h)))))
    return sorted(graded), sorted(families)


def mul_brute(x, y):
    """x * y by the prefix rule, testing every pair of terms: the
    coefficient of each (alpha source, alpha edges, beta source, beta
    edges) key, zero sums dropped.  (a b*)(c d*) is (a r) d* when c = b r,
    a (d r)* when b = c r, and zero when neither is a prefix of the other.
    """
    out = {}
    for m1 in x.terms:
        for m2 in y.terms:
            beta, gamma = m1.beta, m2.alpha
            if beta.source != gamma.source:
                continue
            if gamma.edges[: len(beta.edges)] == beta.edges:
                rest = gamma.edges[len(beta.edges):]
                key = (m1.alpha.source, m1.alpha.edges + rest, m2.beta.source, m2.beta.edges)
            elif beta.edges[: len(gamma.edges)] == gamma.edges:
                rest = beta.edges[len(gamma.edges):]
                key = (m1.alpha.source, m1.alpha.edges, m2.beta.source, m2.beta.edges + rest)
            else:
                continue
            out[key] = out.get(key, 0) + m1.coeff * m2.coeff
    return {key: c for key, c in out.items() if c != 0}
