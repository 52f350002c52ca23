"""Knapsack-at-a-time clique search: the reference for `cgcuts.cliques`.

This is the straightforward per-knapsack, per-entry version of
`cliques._detect_block`: a binary search for phi, then one `bisect_right`
per further clique until the first that is no clique. The array-pass block
must give the same phi and entries.
"""
from __future__ import annotations

from bisect import bisect_right

from cgcuts.presolve import scaled_tol


def detect_indices(coeffs, rhs: float):
    """Core search on sorted coefficients.

    Returns (phi, [(i, sigma), ...]) with 0-based indices, or (None, [])
    when the two largest coefficients do not conflict.
    """
    n = len(coeffs)
    if any(coeffs[t] > coeffs[t + 1] for t in range(n - 1)):
        raise ValueError("knapsack coefficients must be sorted non-decreasing")
    if n < 2:
        return None, []
    tol = float(scaled_tol(rhs, coeffs[-2] + coeffs[-1]))
    if coeffs[-2] + coeffs[-1] <= rhs + tol:
        return None, []
    # smallest phi with a[phi] + a[phi+1] > rhs; the sum is monotone in phi
    lo, hi = 0, n - 2
    while lo < hi:
        mid = (lo + hi) // 2
        if coeffs[mid] + coeffs[mid + 1] > rhs + tol:
            hi = mid
        else:
            lo = mid + 1
    phi = lo
    entries = []
    for i in range(phi - 1, -1, -1):
        sigma = bisect_right(coeffs, rhs + tol - coeffs[i])
        if sigma <= i:
            sigma = i + 1
        if sigma >= n or coeffs[i] + coeffs[sigma] <= rhs + tol:
            break
        entries.append((i, sigma))
    return phi, entries


def detect_block(indptr, coeffs, rhs):
    """(phi, entries) of each knapsack of a block."""
    ptr, coeffs = indptr.tolist(), coeffs.tolist()
    return [detect_indices(coeffs[a:b], r) for a, b, r in zip(ptr, ptr[1:], rhs.tolist())]
