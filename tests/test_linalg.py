"""The elimination kernel against separate reference eliminations.

The references are independent of `linalg.pivot`: Gauss-Jordan over
Fraction for rank, RREF and reduction modulo a span, the same loop mod p
for F_p rank, and forward Bareiss for determinants. `det_bareiss` runs the
kernel's forward mode, which must also find the full pass's pivot columns.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasseff import linalg, orbits

from support import lie_positions

PRIMES = (2, 3, 5)


def ref_rref(matrix):
    """Reduced row echelon form over Fraction, zero rows dropped."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return [row for row in m if any(x != 0 for x in row)]


def ref_rank(matrix):
    return len(ref_rref(matrix))


def ref_reduce_mod(v, basis_rref):
    v = [Fraction(x) for x in v]
    for row in basis_rref:
        piv = next(i for i, x in enumerate(row) if x != 0)
        if v[piv] != 0:
            f = v[piv]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def ref_ff_rank(matrix, q):
    """Rank over F_q by Gaussian elimination with modular inverses."""
    m = [[x % q for x in row] for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] % q != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], q - 2, q)
        m[r] = [(x * inv) % q for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] % q != 0:
                f = m[i][c]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def ref_det(matrix):
    """Forward fraction-free Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def ref_orbit_dimension(rep, s):
    """The orbit dimension in G(d, 2k+s) over Fraction, one reduction per image."""
    k = rep.k
    n = 2 * k + s
    basis = []
    for i, j in rep.pairs:
        v = [Fraction(0)] * n
        if i > 0:
            v[i - 1] = Fraction(1)
        if j > 0:
            v[k + j - 1] = Fraction(1)
        basis.append(v)
    basis_r = ref_rref(basis)
    rows = []
    for i, j in lie_positions(k, s):
        row = []
        for w in basis:
            image = [Fraction(0)] * n
            image[i] = w[j]
            row.extend(ref_reduce_mod(image, basis_r))
        rows.append(row)
    return ref_rank(rows)


entries = st.one_of(st.integers(-3, 3), st.just(0),
                    st.integers(-10 ** 6, 10 ** 6))


@st.composite
def int_matrices(draw, max_rows=7):
    """0-7 rows and 1-7 columns, with zero rows and dependent rows mixed in."""
    cols = draw(st.integers(1, 7))
    rows = draw(st.integers(0, max_rows))
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "combo"]))
        if kind == "zero":
            m[i] = [0] * cols
        elif kind == "combo" and i >= 2:
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            m[i] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


SWAP = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
NEG = [[-2, 1, 0], [1, -3, 2], [0, 2, -5]]
ZERO_ROW = [[1, 2, 3], [0, 0, 0], [2, 4, 7]]


@settings(max_examples=200, deadline=None)
@given(int_matrices())
@example(SWAP)
@example(NEG)
@example(ZERO_ROW)
@example([])
@example([[0]])
def test_rank_over_q_and_f_p(m):
    assert linalg.rank(m) == ref_rank(m)
    for p in PRIMES:
        assert linalg.rank(m, p) == ref_ff_rank(m, p)
        assert orbits.ff_rank(m, p) == ref_ff_rank(m, p)


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.lists(entries, min_size=7, max_size=7))
@example(SWAP, [1, 2, 3, 0, 0, 0, 0])
@example(NEG, [-5, 0, 7, 0, 0, 0, 0])
@example(ZERO_ROW, [1, 1, 1, 0, 0, 0, 0])
def test_rref_and_reduce_mod(m, vec):
    rows, D = linalg.rref(m)
    assert D > 0
    ref = ref_rref(m)
    assert [[Fraction(x, D) for x in row] for row in rows] == ref
    for row in rows:
        assert next(x for x in row if x) == D
    v = vec[:len(m[0])] if m else vec
    assert [Fraction(x, D) for x in linalg.reduce_mod(v, rows, D)] == ref_reduce_mod(v, ref)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
@example(SWAP)
@example(NEG)
@example(ZERO_ROW)
@example([])
@example([[0, 1], [1, 0]])
@example([[-1]])
@example([[0, 3, 1], [2, 1, 0], [1, 1, 1]])  # zero leading entry: the first pivot needs a swap
@example([[0, 2, 1], [0, 0, 3], [1, 1, 1]])  # a swap at each of the first two pivots
@example([[1, 2, 3], [2, 4, 5], [1, 1, 1]])  # a zero pivot met after the first step
@example([[0, -4, 1], [-3, 2, 2], [5, 1, -1]])  # a swap onto a negative pivot
@example([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
def test_det_bareiss(m):
    assert linalg.det_bareiss(m) == ref_det(m)


@st.composite
def singular_square(draw):
    """A 2x2 to 7x7 matrix with one row a combination of the others."""
    n = draw(st.integers(2, 7))
    m = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    d = draw(st.integers(0, n - 1))
    i, j = (draw(st.sampled_from([x for x in range(n) if x != d])) for _ in range(2))
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    m[d] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=200, deadline=None)
@given(singular_square())
@example([[0, 0, 1], [0, 2, 3], [0, 4, 5]])
@example([[2, 4], [-1, -2]])
def test_det_bareiss_singular(m):
    assert linalg.det_bareiss(m) == ref_det(m) == 0


@settings(max_examples=200, deadline=None)
@given(int_matrices())
@example(SWAP)
@example(NEG)
@example(ZERO_ROW)
@example([])
@example([[0]])
def test_forward_echelon_finds_the_full_pass_pivots(m):
    for p in (None,) + PRIMES:
        M, D, cols, sign = linalg.echelon(m, p, forward=True)
        full = linalg.echelon(m, p)
        assert (D, cols, sign) == full[1:]
        last = max(len(cols) - 1, 0)  # the last pivot row, and every row below it
        assert M[last:] == full[0][last:]


def test_det_signs_from_swaps_and_negative_pivots():
    assert linalg.det_bareiss([[0, 1], [1, 0]]) == -1
    assert linalg.det_bareiss([[-1, 0], [0, 1]]) == -1
    assert linalg.det_bareiss([[-1, 0], [0, -1]]) == 1
    assert linalg.det_bareiss([[0, -2], [3, 0]]) == 6
    with pytest.raises(ValueError, match="square"):
        linalg.det_bareiss([[1, 2]])


def test_empty_and_zero_matrices():
    assert linalg.rank([]) == 0 and linalg.rank([], 2) == 0
    assert linalg.rref([]) == ([], 1)
    assert linalg.rref([[0, 0], [0, 0]]) == ([], 1)
    assert linalg.reduce_mod([3, -4], [], 1) == [3, -4]
    assert linalg.det_bareiss([]) == 1


def test_pivot_mod_p_scales_the_pivot_row_to_one():
    M = [[2, 1], [1, 1]]
    assert linalg.pivot(M, 1, 0, 0, 3) == 1
    assert M == [[1, 2], [0, 2]]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_orbit_dimension_matches_reference_pipeline(k, s):
    for d in range(k + 1):
        for rep in orbits.enumerate_orbits(k, d):
            assert orbits.orbit_dimension(rep) == ref_orbit_dimension(rep, s), rep
