"""Separability analysis of equal-weight sign states built from Boolean
functions: product tests with four-point certificates, the hypergraph
view, SAT pipelines through the membership oracle, and exact statevector
simulation of the quantum side."""

from .boolfn import (
    MAX_N,
    BooleanFunction,
    ClassificationResult,
    Hypergraph,
    ParseError,
    anf,
    classify,
    compile,
    conjoin_fresh,
    evaluate,
    from_anf,
    from_table_hex,
    parse_dimacs_clauses,
    parse_formula,
    sat_brute,
    to_table_hex,
)
from .hypergraph import (
    entangling_edge_exists,
    hypergraph_of,
    parse_anf_text,
    render_anf_text,
)
from .lme_state import (
    Certificate,
    FactorDecomposition,
    NotProductError,
    count_osm_states,
    factorize,
    find_certificate,
    is_osm,
    membership_witness,
    state_from_function,
    verify_certificate,
)
from .quantum_sim import (
    PromiseViolationError,
    StateVector,
    algorithm1_end_to_end,
    apply_uf,
    basis_state,
    deutsch_jozsa,
    helstrom_error,
    helstrom_error_copies,
    overlap,
    prepare_psi_f,
    signs_from_state,
    unique_sat_pair,
    zero_outcome_probability,
)
from .reductions import (
    ReductionReport,
    SatVerdict,
    TraceStep,
    cosm_star,
    karp_reduce,
    turing_reduce_sat,
    verify_reductions_exhaustive,
)

__version__ = "0.1.0"
