import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasseff.cli import run_subcommand
from grasseff.cones import ConeSpec, cone_membership
from grasseff.errors import InternalError
from grasseff.linalg import pivot
from grasseff.simplex import solve_nonneg_combination


def solve(generators, target):
    """solve_nonneg_combination's integer numerators divided by its denominator D > 0."""
    kind, data, D = solve_nonneg_combination(generators, target)
    assert type(D) is int and D > 0 and all(type(x) is int for x in data)
    return kind, [Fraction(x, D) for x in data]


def fraction_simplex(generators, target):
    """Reference: the same phase-1 simplex with Bland's rule over a Fraction tableau."""
    gens = [[Fraction(x) for x in g] for g in generators]
    b = [Fraction(x) for x in target]
    dim = len(b)
    n = len(gens)
    A = [[gens[j][i] for j in range(n)] for i in range(dim)]
    flips = [False] * dim
    for i in range(dim):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
            flips[i] = True
    ncols = n + dim
    tab = [A[i] + [Fraction(int(j == i)) for j in range(dim)] + [b[i]] for i in range(dim)]
    basis = [n + i for i in range(dim)]
    cost = [Fraction(int(j >= n)) - sum(tab[i][j] for i in range(dim)) for j in range(ncols)]
    cost.append(-sum(row[ncols] for row in tab))

    def pivot(r, c):
        inv = 1 / tab[r][c]
        tab[r] = [x * inv for x in tab[r]]
        for i in range(dim):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [a - f * p for a, p in zip(tab[i], tab[r])]
        f = cost[c]
        cost[:] = [a - f * p for a, p in zip(cost, tab[r])]
        basis[r] = c

    while True:
        entering = next((j for j in range(ncols) if cost[j] < 0), None)
        if entering is None:
            break
        ratios = [(tab[i][ncols] / tab[i][entering], basis[i], i)
                  for i in range(dim) if tab[i][entering] > 0]
        pivot(min(ratios)[2], entering)

    if cost[ncols] == 0:
        for i in range(dim):
            if basis[i] >= n:
                c = next((j for j in range(n) if tab[i][j] != 0), None)
                if c is not None:
                    pivot(i, c)
        x = [Fraction(0)] * n
        for i in range(dim):
            if basis[i] < n:
                x[basis[i]] = tab[i][ncols]
        return "witness", x
    y = [1 - cost[n + r] for r in range(dim)]
    return "certificate", [y[i] if flips[i] else -y[i] for i in range(dim)]


def assert_same_as_reference(gens, target):
    got = solve(gens, target)
    assert got == fraction_simplex(gens, target)
    return got


def test_witness_simple():
    kind, x = solve([(1, 0), (0, 1)], (3, 5))
    assert kind == "witness" and x == [3, 5]


def test_certificate_simple():
    kind, phi = solve([(1, 0), (0, 1)], (-1, 0))
    assert kind == "certificate"
    assert sum(p * t for p, t in zip(phi, (-1, 0))) < 0


def test_zero_target_is_member():
    kind, x = solve([(1, 2), (3, -1)], (0, 0))
    assert kind == "witness" and all(v == 0 for v in x)


def test_rational_witness():
    kind, x = solve([(2, 0), (0, 3)], (1, 1))
    assert kind == "witness" and x == [Fraction(1, 2), Fraction(1, 3)]


def test_dimension_mismatch():
    with pytest.raises(InternalError):
        solve_nonneg_combination([(1, 0)], (1, 0, 0))
    with pytest.raises(InternalError):
        solve_nonneg_combination([(1, 0), (1, 0, 0)], (1, 0))


coords = st.integers(min_value=-4, max_value=4)
gen_lists = st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=6)


@settings(deadline=None, max_examples=150)
@given(gen_lists, st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6))
def test_random_nonneg_combinations_are_witnessed(gens, weights):
    weights = (weights + [0] * len(gens))[:len(gens)]
    target = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(3))
    kind, x = solve(gens, target)
    assert kind == "witness"
    for i in range(3):
        assert sum(xj * g[i] for xj, g in zip(x, gens)) == target[i]


@settings(deadline=None, max_examples=150)
@given(gen_lists, st.tuples(coords, coords, coords))
def test_random_targets_always_resolve(gens, target):
    kind, data = solve(gens, target)
    if kind == "witness":
        assert all(v >= 0 for v in data)
        for i in range(3):
            assert sum(xj * g[i] for xj, g in zip(data, gens)) == target[i]
    else:
        assert kind == "certificate"
        for g in gens:
            assert sum(p * gi for p, gi in zip(data, g)) >= 0
        assert sum(p * t for p, t in zip(data, target)) < 0


def test_empty_generator_list():
    assert assert_same_as_reference([], (0, 0)) == ("witness", [])
    kind, phi = assert_same_as_reference([], (1, -2))
    assert kind == "certificate" and phi == [-1, 1]


def test_drive_out_pivot_on_negative_entry():
    # phase 1 ends with an artificial basic at level 0 whose row has -1 (then -3) in a
    # generator column. The reference drives it out, pivoting on a negative entry; the
    # simplex has no drive-out loop, since a pivot on a row whose rhs is 0 moves no basic
    # value, and its witness is the same.
    assert assert_same_as_reference([(1, 0), (0, -1)], (1, 0)) == ("witness", [1, 0])
    kind, x = assert_same_as_reference([(2, 0), (0, -3)], (1, 0))
    assert x == [Fraction(1, 2), 0]
    kind, x = assert_same_as_reference([(-1, 0, 0), (0, 0, 1)], (0, 0, 1))
    assert x == [0, 1]


def test_rational_cone_through_cli(capsys, tmp_path):
    gens = [["1/2", "0", "1/3"], ["0", "2/3", "-1/5"], ["1", "1", "1"]]
    gpath = tmp_path / "gens.json"
    gpath.write_text(json.dumps(gens))
    vpath = tmp_path / "v.json"
    for target, expected in ((["1/2", "17/36", "7/20"], {"g0": "1/2", "g1": "1/3", "g2": "1/4"}),
                             (["3/4", "1/6", "2/7"], None)):
        vpath.write_text(json.dumps({"vector": target}))
        code = run_subcommand(["cone", "check", "--generators", str(gpath), "--class", str(vpath)])
        out = json.loads(capsys.readouterr().out)
        kind, data = fraction_simplex(gens, target)
        if expected is not None:
            assert kind == "witness" and code == 0 and out["witness"] == expected
        else:
            assert kind == "certificate" and code == 3
            assert out["certificate"] == [str(x) for x in data]


entries = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def lp_instances(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    vec = st.lists(entries, min_size=dim, max_size=dim)
    gens = draw(st.lists(vec, min_size=0, max_size=9))
    if gens and draw(st.booleans()):
        gens.append(list(draw(st.sampled_from(gens))))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), [0] * dim)
    gens = gens[:9]
    if gens and draw(st.booleans()):
        weights = draw(st.lists(st.sampled_from([0, Fraction(1, 2), 1, 2]),
                                min_size=len(gens), max_size=len(gens)))
        target = [sum(w * g[i] for w, g in zip(weights, gens)) for i in range(dim)]
    else:
        target = draw(vec)
    return gens, target


@settings(deadline=None, max_examples=200)
@given(lp_instances())
def test_matches_fraction_tableau(instance):
    gens, target = instance
    kind, data = assert_same_as_reference(gens, target)
    if kind == "witness":
        assert len(data) == len(gens)
    else:
        assert len(data) == len(target)


def per_query_simplex(generators, target):
    """Reference: the same simplex with its whole tableau built the plain way (the lcm of
    every denominator, even when it is 1, the scaled generators, their transpose and the
    cost row as c less the column sums of the signed rows)."""
    dim = len(target)
    n = len(generators)
    L = math.lcm(1, *(x.denominator for x in target),
                 *(x.denominator for g in generators for x in g))
    G = [[x.numerator * (L // x.denominator) for x in g] for g in generators]
    b = [x.numerator * (L // x.denominator) for x in target]
    ncols = n + dim
    M = []
    for i in range(dim):
        s = -1 if b[i] < 0 else 1
        M.append([s * g[i] for g in G] + [int(j == i) for j in range(dim)] + [s * b[i]])
    cost = [-sum(col) for col in zip(*M)] if M else [0] * (ncols + 1)
    for j in range(n, ncols):
        cost[j] += 1
    M.append(cost)
    basis = [n + i for i in range(dim)]
    D = 1
    while True:
        entering = next((j for j in range(ncols) if M[dim][j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(dim):
            a = M[i][entering]
            if a > 0:
                rhs = M[i][ncols]
                if leaving is None or rhs * best_a < best_rhs * a or (
                        rhs * best_a == best_rhs * a and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_a = i, rhs, a
        D = pivot(M, D, leaving, entering)
        basis[leaving] = entering
    if M[dim][ncols] == 0:
        xnum = [0] * n
        for i in range(dim):
            if basis[i] < n:
                xnum[basis[i]] = M[i][ncols]
        return "witness", xnum, D
    return "certificate", [(D - M[dim][n + i]) * (1 if b[i] < 0 else -1) for i in range(dim)], D


def test_every_query_answers_as_the_per_query_reference():
    # a seeded run of queries on rule-less cones, members and non-members of mixed sign, on
    # int generators (an all-int query takes the shortcut that scales nothing), on Fraction
    # generators, on bool ones and on none; some targets bring denominators (5 and 7) that
    # no generator has, and some hold a bool, whose answer is still over ints
    rng = random.Random(24)
    int_gens = [(1, 0, 2), (0, 3, -1), (2, -1, 0), (1, 1, 1), (-1, 0, 4)]
    frac_gens = [(Fraction(1, 2), 0, Fraction(2, 3)), (0, Fraction(3, 2), -1),
                 (Fraction(-1, 3), 1, Fraction(1, 2)), (1, Fraction(1, 6), 0)]
    bool_gens = [(True, 0, 2), (0, 3, False), (-1, True, 1)]
    for gens in (int_gens, frac_gens, bool_gens, []):
        cone = ConeSpec.build(3, ("x", "y", "z"), [("g%d" % j, g) for j, g in enumerate(gens)])
        kinds, lacking, shortcut, bools = set(), 0, 0, 0
        for _ in range(80):
            den = rng.choice((1, 1, 2, 5, 7))  # 5 and 7 divide no generator's denominator
            if rng.random() < 0.1:
                target = (0, 0, 0)
            elif gens and rng.random() < 0.5:
                weights = [Fraction(rng.randint(0, 4), rng.choice((1, den))) for _ in gens]
                target = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(3))
            else:
                target = tuple(Fraction(rng.randint(-6, 6), den) for _ in range(3))
            if den == 1 and rng.random() < 0.5:
                target = tuple(int(x) for x in target)
                if rng.random() < 0.5:
                    target = (rng.random() < 0.5, *target[1:])
            res = cone_membership(cone, target)
            kind, num, D = per_query_simplex(gens, target)
            assert (res.verdict, res.num, res.D) == \
                ("in-span" if kind == "witness" else "not-in-span", tuple(num), D), target
            assert type(res.D) is int and all(type(x) is int for x in res.num), target
            kinds.add(kind)
            lacking += any(Fraction(x).denominator in (5, 7) for x in target)
            shortcut += type(sum(target) + sum(map(sum, gens))) is int
            bools += type(target[0]) is bool
        assert kinds == {"witness", "certificate"} and lacking >= 10
        assert bools >= 3 and (shortcut == 0 if gens is frac_gens else shortcut >= 15)
