#!/usr/bin/env python3
"""Walk the three-qubit showcase function (table hex d1) through every
analysis surface: classification, sign state, product test with its
four-point certificate, the hypergraph view, and both SAT pipelines."""

from pilme.boolfn import classify, evaluate, from_table_hex, to_sign_string, to_table_hex
from pilme.hypergraph import entangling_edge_exists, hypergraph_of, render_anf_text
from pilme.lme_state import find_certificate, is_osm, state_from_function, verify_certificate
from pilme.quantum_sim import algorithm1_end_to_end
from pilme.reductions import karp_reduce, turing_reduce_sat


def main() -> None:
    f = from_table_hex("d1", 3)
    print(f"function: table 0x{f.table:02x} on {f.arity} variables")
    print(f"classification: {classify(f)}")

    state = state_from_function(f)
    print(f"sign state: {to_sign_string(state)}")
    print(f"product of plus/minus qubits: {is_osm(state)}")

    cert = find_certificate(state)
    print(f"certificate: {cert}")
    points = [cert.l, cert.m, (1 << cert.k) + cert.l, (1 << cert.k) + cert.m]
    values = [evaluate(f, p) for p in points]
    print(f"  four evaluations at {points}: {values}")
    print(f"  certificate verifies: {verify_certificate(f, cert)}")

    h = hypergraph_of(f)
    print("polynomial / hypergraph:")
    for line in render_anf_text(h).splitlines():
        print(f"  {line}")
    print(f"entangling edge present: {entangling_edge_exists(h)}")

    verdict = turing_reduce_sat(f)
    print(f"oracle pipeline: satisfiable={verdict.satisfiable} witness={verdict.witness}")
    for step in verdict.trace:
        print(f"  {step.step} calls={step.oracle_calls} verdict={step.verdict} ({step.detail})")

    sim = algorithm1_end_to_end(f)
    print(f"simulated pipeline: satisfiable={sim.satisfiable} witness={sim.witness}")
    for step in sim.trace:
        print(f"  {step.step} calls={step.oracle_calls} verdict={step.verdict} ({step.detail})")

    g = karp_reduce(f)
    print(f"many-one image: table {to_table_hex(g)} on {g.arity} variables "
          f"({classify(g).satisfying_count}/{g.size} satisfying)")


if __name__ == "__main__":
    main()
