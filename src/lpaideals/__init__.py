"""Ideal structure of Leavitt path algebras of finitely presented graphs.

Given a directed graph (with infinite emitters presented as omega
bundles), this package computes the lattice of hereditary saturated
vertex sets, breaking vertices and admissible pairs, quotient graphs,
the prime-ideal descriptors, and the existence and gradedness of
maximal ideals.  A small exact-arithmetic model of the algebra's
monomials backs the structural results as an independent oracle.
"""

# Each public name and the submodule that defines it.  A name is read off
# its submodule on each access (PEP 562), so ``import lpaideals`` loads no
# submodule and a command loads only the layers it runs.
_ORIGIN = {
    "DirectedGraph": "graph",
    "Edge": "graph",
    "GraphError": "graph",
    "GraphFormatError": "graph",
    "OmegaBundle": "graph",
    "ResourceCapError": "graph",
    "UnknownVertexError": "graph",
    "VertexKind": "graph",
    "parse_graph": "graph",
    "serialize_graph": "graph",
    "ConditionReport": "cycles",
    "Cycle": "cycles",
    "condition_K": "cycles",
    "condition_L": "cycles",
    "cycles_without_K": "cycles",
    "has_exit": "cycles",
    "is_downward_directed": "cycles",
    "is_maximal_tail": "cycles",
    "make_cycle": "cycles",
    "AdmissiblePair": "lattice",
    "HSLattice": "lattice",
    "breaking_vertices": "lattice",
    "enumerate_HE": "lattice",
    "hs_closure": "lattice",
    "is_hereditary": "lattice",
    "is_saturated": "lattice",
    "leq_prime": "lattice",
    "maximal_proper_elements": "lattice",
    "quotient_graph": "lattice",
    "GradedIdeal": "ideals",
    "MaximalityReport": "ideals",
    "NonGradedFamily": "ideals",
    "classify_prime": "ideals",
    "enumerate_primes": "ideals",
    "existence_report": "ideals",
    "gr_of": "ideals",
    "maximal_graded_ideals": "ideals",
    "maximal_nongraded_families": "ideals",
    "AlgebraElement": "algebra",
    "Monomial": "algebra",
    "PathWord": "algebra",
    "edge_element": "algebra",
    "ghost_element": "algebra",
    "is_idempotent": "algebra",
    "make_path": "algebra",
    "parse_element": "algebra",
    "render_element": "algebra",
    "v_H_element": "algebra",
    "vertex_element": "algebra",
}

__all__ = list(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, read off its submodule (imported on first use) at
    each access and kept nowhere here, so that the package gives what the
    submodule holds now: a name patched there and restored reads as
    restored, as ``cli``'s per-command imports do."""
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
