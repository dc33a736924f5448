"""Small utilities for permutations in one-line notation (1-based values)."""

from __future__ import annotations


def check_permutation(values) -> tuple[int, ...]:
    """Validate one-line notation: every integer in [m] appears exactly once."""
    values = tuple(values)
    m = len(values)
    if sorted(values) != list(range(1, m + 1)):
        raise ValueError(f"not a permutation of [{m}]: {values}")
    return values


def perm_inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_sign(perm: tuple[int, ...]) -> int:
    """Sign from cycle structure: (-1)^(m - number of cycles)."""
    m = len(perm)
    seen = [False] * m
    cycles = 0
    for start in range(m):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
    return 1 if (m - cycles) % 2 == 0 else -1
