#!/usr/bin/env python3
"""Sweep the no-instance/unique-instance discrimination bound by qubit count.

The two states differ in a single sign out of 2**n, so their overlap
approaches one exponentially and the optimal one-shot error probability
approaches the coin-flip value 1/2.  The last column shows the gap
normalized by 2**(-n/2), the rate at which it actually decays.
"""

from pilme.quantum_sim import helstrom_error, helstrom_error_copies, overlap, unique_sat_pair


def main() -> None:
    header = f"{'n':>2} {'overlap':>22} {'P_err':>22} {'1/2 - P_err':>14} {'gap / 2^(-n/2)':>15}"
    print(header)
    print("-" * len(header))
    for n in range(2, 25):
        a, b = unique_sat_pair(n)
        ov = overlap(a, b)
        err = helstrom_error(a, b)
        gap = 0.5 - err
        print(f"{n:>2} {ov:>22.17f} {err:>22.17f} {gap:>14.3e} {gap / 2 ** (-n / 2):>15.4f}")
    print()
    copies = [1, 10, 100, 1000]
    print("copies needed to beat the single-shot wall at n=12:")
    a, b = unique_sat_pair(12)
    for c in copies:
        print(f"  {c:>5} copies: P_err = {helstrom_error_copies(a, b, c):.6f}")


if __name__ == "__main__":
    main()
