"""Ideal structure of Leavitt path algebras of finitely presented graphs.

Given a directed graph (with infinite emitters presented as omega
bundles), this package computes the lattice of hereditary saturated
vertex sets, breaking vertices and admissible pairs, quotient graphs,
the prime-ideal descriptors, and the existence and gradedness of
maximal ideals.  A small exact-arithmetic model of the algebra's
monomials backs the structural results as an independent oracle.
"""

from .graph import (
    DirectedGraph,
    Edge,
    GraphError,
    GraphFormatError,
    OmegaBundle,
    ResourceCapError,
    UnknownVertexError,
    VertexKind,
    parse_graph,
    serialize_graph,
)
from .cycles import (
    ConditionReport,
    Cycle,
    condition_K,
    condition_L,
    cycles_without_K,
    has_exit,
    is_downward_directed,
    is_maximal_tail,
    make_cycle,
)
from .lattice import (
    AdmissiblePair,
    HSLattice,
    breaking_vertices,
    enumerate_HE,
    hs_closure,
    is_hereditary,
    is_saturated,
    leq_prime,
    maximal_proper_elements,
    quotient_graph,
)
from .ideals import (
    GradedIdeal,
    MaximalityReport,
    NonGradedFamily,
    classify_prime,
    enumerate_primes,
    existence_report,
    gr_of,
    maximal_graded_ideals,
    maximal_nongraded_families,
)
from .algebra import (
    AlgebraElement,
    Monomial,
    PathWord,
    edge_element,
    ghost_element,
    is_idempotent,
    make_path,
    parse_element,
    render_element,
    v_H_element,
    vertex_element,
)

__version__ = "0.1.0"
