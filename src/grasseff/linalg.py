"""One exact elimination kernel: the fraction-free pivot of Bareiss and Edmonds.

An integer matrix M over one positive common denominator D stands for M / D.
`pivot` clears a column in every other row with the update
M'[i] = (piv * M[i] - M[i][c] * M[r]) // D, and the pivot entry becomes the
new D; every division is exact (Bareiss 1968, Edmonds 1967). With a prime p
the pivot row is first scaled to a leading 1, so piv = D = 1 and the same
update runs mod p. `echelon` walks the columns with it, and rank, RREF
and reduction modulo a row span are read off its result. Its forward mode
passes `pivot` a first row one below the pivot, so the rows above are never
touched: that is Bareiss's forward elimination, all a determinant needs, and
`det_bareiss` (and through it `multiplicity`) uses it. Rank, RREF,
`reduce_mod`, the F_q incidence of `orbits` and the simplex tableau keep
the full pass through the same `pivot`.
"""

from __future__ import annotations


def pivot(M: list[list[int]], D: int, r: int, c: int, p: int | None = None,
          first: int = 0) -> int:
    """Pivot M / D on entry (r, c) in place and return the new denominator.

    Only the rows from `first` on are updated. A negative pivot entry first
    negates row r, so the new D is positive.
    """
    row = M[r]
    piv = row[c]
    if p:
        inv = pow(piv, -1, p)
        row = M[r] = [a * inv % p for a in row]
        piv = D = 1
    elif piv < 0:
        piv = -piv
        row = M[r] = [-a for a in row]
    for i, other in enumerate(M[first:] if first else M, first):
        f = other[c]
        if i == r or not f and piv == D:
            continue
        if p:
            M[i] = [(a - f * q) % p for a, q in zip(other, row)]
        elif f:
            M[i] = [(piv * a - f * q) // D for a, q in zip(other, row)]
        else:
            M[i] = [piv * a // D for a in other]
    return piv


def echelon(matrix: list[list[int]], p: int | None = None, forward: bool = False):
    """Reduced row echelon form of an integer matrix, over Q or over F_p.

    Returns (M, D, pivot_cols, sign): M / D is the RREF, its first
    len(pivot_cols) rows are the nonzero ones, each with the entry D in its
    pivot column, and sign is the sign change of det from row swaps and
    negated pivot rows. With forward=True each pivot clears only the rows
    below it (Bareiss's forward elimination): the rows from each pivot row
    down, and so D, pivot_cols and sign, are those of the full pass, but the
    rows above are left as they were, so M / D is not the RREF.
    """
    M = [[a % p for a in row] for row in matrix] if p else [list(row) for row in matrix]
    D, sign, cols, n = 1, 1, [], len(M)
    for c in range(len(M[0]) if M else 0):
        r = len(cols)
        for s in range(r, n):
            if M[s][c]:
                break
        else:
            continue
        if s != r:
            M[r], M[s] = M[s], M[r]
            sign = -sign
        if M[r][c] < 0:
            sign = -sign
        D = pivot(M, D, r, c, p, r + 1 if forward else 0)
        cols.append(c)
        if r + 1 == n:
            break
    return M, D, cols, sign


def det_bareiss(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by the forward pass: sign times the
    last pivot, a minor of the matrix, so every value stays integral."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    _, D, cols, sign = echelon(matrix, forward=True)
    return sign * D if len(cols) == n else 0


def rank(matrix: list[list[int]], p: int | None = None) -> int:
    """Rank of an integer matrix over Q, or over F_p for a prime p."""
    return len(echelon(matrix, p)[2])


def rref(matrix: list[list[int]]) -> tuple[list[list[int]], int]:
    """(rows, D): rows / D is the reduced row echelon form, zero rows dropped."""
    M, D, cols, _ = echelon(matrix)
    return M[:len(cols)], D


def reduce_mod(v: list[int], rows: list[list[int]], D: int) -> list[int]:
    """D * (v modulo the row span), for (rows, D) as `rref` returns them.

    Appended as the row D * v of M / D, v is reduced by pivoting on each
    row's leading entry D, which leaves the other rows as they are.
    """
    M = rows + [[D * a for a in v]]
    for r, row in enumerate(rows):
        pivot(M, D, r, next(c for c, x in enumerate(row) if x))
    return M[-1]
