"""Count regular bipartite multigraphs with a bounded planar matching,
three independent ways, and watch the methods agree.

g(n; d) = number of r-regular bipartite multigraphs on n+n ordered
vertices whose largest planar matching has at most d edges.  The same
number falls out of
  * brute-force enumeration of multiplicity matrices,
  * pairs of equal-shape standard Young tableaux with at most d columns
    and strict block descents,
  * a signed sum of block-restricted lattice walks over Toeplitz
    endpoints (itself computed twice: a tally of half-walk histograms
    and a DP over sorted shapes).
"""

from planarcount import (
    count_bounded_matching,
    count_bounded_subgraph,
    count_tableau_pairs,
    signed_walk_sum,
)


def main():
    r = 2
    print(f"r = {r}: bounded-matching counts by four routes\n")
    header = f"{'n':>2} {'d':>2} {'graphs':>8} {'tableaux':>8} {'walks':>8} {'walks-dp':>8}"
    print(header)
    print("-" * len(header))
    for n in (1, 2, 3):
        for d in range(0, n * r + 1):
            brute = count_bounded_matching(n, r, d)
            pairs = count_tableau_pairs(n, r, d, "matching")
            enum = signed_walk_sum(n, r, d, "matching", "enumerate")
            dp = signed_walk_sum(n, r, d, "matching", "dp")
            mark = "" if brute == pairs == enum == dp else "  <-- DISAGREE"
            print(f"{n:>2} {d:>2} {brute:>8} {pairs:>8} {enum:>8} {dp:>8}{mark}")

    print("\nSame game for the largest planar subgraph (edges may share endpoints):\n")
    for n in (1, 2):
        for d in range(0, n * r + 1):
            brute = count_bounded_subgraph(n, r, d)
            pairs = count_tableau_pairs(n, r, d, "subgraph")
            dp = signed_walk_sum(n, r, d, "subgraph", "dp")
            print(f"  n={n} d={d}: graphs={brute} tableaux={pairs} walks={dp}")


if __name__ == "__main__":
    main()
