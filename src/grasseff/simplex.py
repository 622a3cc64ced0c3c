"""Exact rational LP feasibility for conic combinations.

Decides whether a target vector is a nonnegative combination of given
generators, by a phase-1 simplex with Bland's anti-cycling rule. The tableau
is fraction-free: an integer matrix M over one positive common denominator D,
with the cost row as the last row of M. Its generator part is scaled once per
cone: `tableau_block` clears the generators' denominators by their lcm L_g and
keeps the transposed integer matrix with its column sums. Each query scales
only its target, by L = lcm(L_g, the target's denominators), and rescales the
block by L / L_g only when that is not 1; it copies the block's rows into a
fresh tableau, so one block serves every query of its cone. Each pivot is
`linalg.pivot`, the Bareiss/Edmonds update that divides exactly by the
previous D and makes the pivot entry the new D. A uniform positive scaling
keeps every reduced-cost sign and every ratio order, so the pivots are the
ones of the same simplex over Fraction. Failure comes with a Farkas
certificate: a functional nonnegative on every generator and strictly
negative on the target. Exactly one of witness or certificate is returned, as
integer numerators over the final D. The simplex does not check its answer:
`cones.cone_membership` re-checks it by substitution, as it does a rule's, and
keeps it as numerators over D.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from grasseff.errors import InternalError
from grasseff.linalg import pivot


class TableauBlock(NamedTuple):
    """A generator list scaled once: rows[i][j] = L * (coordinate i of generator j) and
    sums[j] = sum_i rows[i][j], with L the lcm of the generators' denominators."""

    dim: int
    L: int
    rows: list[list[int]]
    sums: list[int]


def tableau_block(dim: int, generators) -> TableauBlock:
    """The generators' part of every tableau over them; coordinates are ints or Fractions."""
    if any(len(g) != dim for g in generators):
        raise InternalError("dimension mismatch")
    L = math.lcm(1, *(x.denominator for g in generators for x in g))
    G = [[x.numerator * (L // x.denominator) for x in g] for g in generators]
    rows = [list(col) for col in zip(*G)] if G else [[] for _ in range(dim)]
    return TableauBlock(dim, L, rows, [sum(g) for g in G])


def solve_nonneg_combination(block: TableauBlock, target):
    """Find x >= 0 with sum x_i g_i = target, or a separating functional.

    block is tableau_block of the generators; target coordinates are ints or
    Fractions. Returns ("witness", xnum, D) with x_i = xnum_i / D, or
    ("certificate", pnum, D) with phi_j = pnum_j / D; xnum and pnum are ints
    and D > 0.
    """
    dim = block.dim
    if len(target) != dim:
        raise InternalError("dimension mismatch")
    rows, sums = block.rows, block.sums
    n = len(sums)
    L = math.lcm(block.L, *(x.denominator for x in target))
    if L != block.L:  # the target brings a denominator the generators lack
        f = L // block.L
        rows = [[f * y for y in g] for g in rows]
        sums = [f * y for y in sums]
    b = [x.numerator * (L // x.denominator) for x in target]

    # rows 0..dim-1: [generators | artificials | rhs] with negative-rhs rows
    # flipped; row dim: reduced costs for c = (0,...,0,1,...,1). Tableau = M / D.
    ncols = n + dim
    M = []
    for i, (g, x) in enumerate(zip(rows, b)):
        row = g + [0] * dim + [x] if x >= 0 else [-y for y in g] + [0] * dim + [-x]
        row[n + i] = 1
        M.append(row)
    # minus the sum of the signed rows: the artificials' reduced costs are 0, and the
    # generators' are -sums plus twice each flipped row, or sums less twice each other row
    flipped = [i for i, x in enumerate(b) if x < 0]
    if 2 * len(flipped) <= dim:
        cost, w, part = [-y for y in sums], 2, flipped
    else:
        cost, w, part = list(sums), -2, [i for i, x in enumerate(b) if x >= 0]
    for i in part:
        cost = [c + w * y for c, y in zip(cost, rows[i])]
    M.append(cost + [0] * dim + [-sum(map(abs, b))])
    basis = [n + i for i in range(dim)]
    D = 1

    while True:
        cost = M[dim]
        entering = next((j for j in range(ncols) if cost[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(dim):
            a = M[i][entering]
            if a > 0:
                rhs = M[i][ncols]
                # Bland: lowest basis index among minimum ratios rhs / a
                if leaving is None or rhs * best_a < best_rhs * a or (
                        rhs * best_a == best_rhs * a and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_a = i, rhs, a
        if leaving is None:
            raise InternalError("phase-1 problem unbounded; should be impossible")
        D = pivot(M, D, leaving, entering)
        basis[leaving] = entering

    if M[dim][ncols] == 0:
        # an artificial still basic sits at 0; pivoting it out, on a row whose rhs is 0,
        # would move no basic value, so the basic generators are the witness as they are
        xnum = [0] * n
        for i in range(dim):
            if basis[i] < n:
                xnum[basis[i]] = M[i][ncols]
        return "witness", xnum, D

    # Farkas certificate from the dual values y_r = 1 - (reduced cost of artificial r)
    cost = M[dim]
    return "certificate", [(D - cost[n + i]) * (1 if b[i] < 0 else -1) for i in range(dim)], D
