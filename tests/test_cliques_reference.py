"""The array-pass knapsack clique search against the loop in
`cliques_reference`: the same phi and entries for every knapsack, ties,
single-entry knapsacks and early stops included, and the same error for
unsorted coefficients."""
import numpy as np
import pytest

import cliques_reference as ref
from cgcuts.cliques import _detect_block
from conftest import knapsack_indices


def _block(rng, count):
    """A block of `count` random knapsacks: sorted small-integer or
    fractional coefficients (many ties), one to 14 terms, and a rhs around
    the two largest."""
    lens = rng.integers(1, 15, size=count)
    coeffs, rhs = [], []
    for n in lens.tolist():
        if rng.random() < 0.5:
            a = np.sort(rng.integers(1, 12, size=n).astype(float))
        else:
            a = np.sort(np.round(rng.uniform(0.1, 5.0, size=n), 1))
        top = a[-2:].sum() if n >= 2 else a[-1]
        coeffs.append(a)
        rhs.append(float(rng.choice([top, top - 1, a[-1], rng.uniform(0, top),
                                     top * 0.5, a[0]])))
    indptr = np.concatenate([[0], np.cumsum(lens)])
    return indptr, np.concatenate(coeffs), np.array(rhs)


def _same(indptr, coeffs, rhs):
    phi, count, i, sigma = _detect_block((indptr, coeffs, rhs))
    want = ref.detect_block(indptr, coeffs, rhs)
    ends = np.cumsum(count).tolist()
    got = [(None if p < 0 else p, list(zip(i[e - c:e].tolist(), sigma[e - c:e].tolist())))
           for p, c, e in zip(phi.tolist(), count.tolist(), ends)]
    assert got == want
    return want


def test_fuzz_matches_the_loop():
    rng = np.random.default_rng(20261019)
    seen = {"none": 0, "no entry": 0, "one entry": 0, "entries": 0, "stop": 0}
    for _ in range(300):
        indptr, coeffs, rhs = _block(rng, int(rng.integers(1, 9)))
        for (phi, entries), a, b in zip(_same(indptr, coeffs, rhs), indptr, indptr[1:]):
            seen["none"] += phi is None
            seen["no entry"] += phi is not None and not entries
            seen["one entry"] += len(entries) == 1
            seen["entries"] += len(entries) > 1
            seen["stop"] += phi is not None and 0 < len(entries) < phi
    assert all(seen.values()), seen


def test_ties_at_the_rhs_and_single_terms():
    # rhs + tol - a[0] is exactly a[1], so bisect_right puts sigma after
    # a[1] (a tie a bisect_left would stop at, as a[0] + a[1] = rhs + tol)
    over = 0.25 + 1e-9
    coeffs = [0.125, over - 0.125, 0.2, 0.2]
    assert 0.125 + coeffs[1] == over
    assert knapsack_indices(coeffs, 0.25) == ref.detect_indices(coeffs, 0.25) == (1, [(0, 2)])
    assert knapsack_indices([1, 2, 2, 3, 3], 4) == ref.detect_indices([1, 2, 2, 3, 3], 4)
    assert knapsack_indices([2, 2, 2], 4) == (None, [])
    assert knapsack_indices([5], 1) == (None, [])
    assert knapsack_indices([], 1) == (None, [])
    _same(np.array([0, 1, 1, 4]), np.array([5.0, 1.0, 3.0, 3.0]), np.array([1.0, 2.0, 5.0]))


def test_unsorted_coefficients_are_rejected_as_the_loop_does():
    with pytest.raises(ValueError, match="sorted"):
        ref.detect_indices((3.0, 1.0, 2.0), 4.0)
    with pytest.raises(ValueError, match="sorted"):
        _detect_block((np.array([0, 2, 5]), np.array([1.0, 2.0, 3.0, 1.0, 2.0]),
                       np.array([2.0, 4.0])))
    # a fall across two knapsacks is no fall within one
    _same(np.array([0, 2, 4]), np.array([1.0, 5.0, 2.0, 3.0]), np.array([5.0, 4.0]))
