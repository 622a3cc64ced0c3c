"""Exact rational LP feasibility for conic combinations.

Decides whether a target vector is a nonnegative combination of given
generators, by a phase-1 simplex with Bland's anti-cycling rule. The tableau
is fraction-free: an integer matrix M over one positive common denominator D,
with the cost row as the last row of M. Each query builds its whole tableau:
ints are taken as they are, and otherwise every coordinate is scaled by the
lcm L of all the denominators. Each pivot is `linalg.pivot`, the
Bareiss/Edmonds update that divides exactly by the previous D and makes the
pivot entry the new D. A uniform positive scaling keeps every reduced-cost
sign and every ratio order, so the pivots are the ones of the same simplex
over Fraction. Failure comes with a Farkas certificate: a functional
nonnegative on every generator and strictly negative on the target. Exactly
one of witness or certificate is returned, as integer numerators over the
final D. The simplex does not check its answer: `cones.cone_membership`
re-checks it by substitution, as it does a rule's, and keeps it as numerators
over D.
"""

from __future__ import annotations

import math

from grasseff.errors import InternalError
from grasseff.linalg import pivot


def solve_nonneg_combination(generators, target):
    """Find x >= 0 with sum x_i g_i = target, or a separating functional.

    Coordinates are ints or Fractions. Returns ("witness", xnum, D) with
    x_i = xnum_i / D, or ("certificate", pnum, D) with phi_j = pnum_j / D;
    xnum and pnum are ints and D > 0.
    """
    dim = len(target)
    if any(len(g) != dim for g in generators):
        raise InternalError("dimension mismatch")
    n = len(generators)
    if type(sum(target) + sum(map(sum, generators))) is int:
        G, b = generators, [int(x) for x in target]  # int() turns a bool into an int
    else:
        L = math.lcm(1, *(x.denominator for x in target),
                     *(x.denominator for g in generators for x in g))
        G = [[x.numerator * (L // x.denominator) for x in g] for g in generators]
        b = [x.numerator * (L // x.denominator) for x in target]

    # rows 0..dim-1: [generators | artificials | rhs] with negative-rhs rows
    # flipped; row dim: reduced costs for c = (0,...,0,1,...,1), that is c less the
    # column sums of the rows above, 0 on the artificials. Tableau = M / D.
    ncols = n + dim
    M = []
    for i, (g, x) in enumerate(zip(zip(*G) if G else [()] * dim, b)):
        row = (list(g) if x >= 0 else [-y for y in g]) + [0] * dim + [abs(x)]
        row[n + i] = 1
        M.append(row)
    cost = [-sum(col) for col in zip(*M)] if M else [0] * (ncols + 1)
    cost[n:ncols] = [0] * dim
    M.append(cost)
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
    D = int(D)  # the last pivot entry may be a bool coordinate of a generator

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
