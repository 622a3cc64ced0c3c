import itertools
import time

import pytest

from grasseff import linalg, orbits
from grasseff.orbits import IncidenceMatrix, dense_orbit_dimension_check, \
    enumerate_orbits, ff_incidence, ff_orbit_counts, ff_subspaces, \
    incidence_of_representative, \
    make_representative, oracle_check, orbit_dimension, representative_from_incidence
from grasseff.errors import InputError


def test_representative_validation():
    with pytest.raises(InputError):
        make_representative(2, [(0, 0)])
    with pytest.raises(InputError):
        make_representative(2, [(1, 1), (1, 2)])  # f_1 reused
    with pytest.raises(InputError):
        make_representative(2, [(3, 0)])  # out of range


def test_incidence_of_line_orbits():
    rep = make_representative(1, [(1, 1)])
    inc = incidence_of_representative(rep)
    assert inc.entries == ((0, 0), (0, 1))
    assert inc.subspace_dim == 1


def test_round_trip_exhaustive_k_up_to_4():
    for k in range(1, 5):
        for d in range(k + 1):
            reps = enumerate_orbits(k, d)
            assert len({incidence_of_representative(r).entries for r in reps}) == len(reps)
            for rep in reps:
                inc = incidence_of_representative(rep)
                assert representative_from_incidence(inc) == rep


def reference_orbits(k, d):
    """Every d-set of the (k+1)^2 - 1 candidate pairs that reuses no flag vector, in order."""
    candidates = [(i, j) for i in range(k + 1) for j in range(k + 1) if (i, j) != (0, 0)]
    kept = []
    for combo in itertools.combinations(candidates, d):
        fs = [i for i, _ in combo if i > 0]
        gs = [j for _, j in combo if j > 0]
        if len(set(fs)) == len(fs) and len(set(gs)) == len(gs):
            kept.append(combo)
    return kept


def test_enumeration_matches_the_combinations_and_filter_reference():
    for k in range(6):
        for d in range(k + 1):
            assert [rep.pairs for rep in enumerate_orbits(k, d)] == reference_orbits(k, d), (k, d)


def test_enumeration_builds_the_closed_form_orbit_count():
    for k in range(8):
        for d in range(k + 1):
            if orbits.orbit_count(k, d) <= orbits.ENUMERATE_CAP:
                assert len(enumerate_orbits(k, d)) == orbits.orbit_count(k, d), (k, d)
            else:
                with pytest.raises(InputError, match="more than 50000 orbits"):
                    enumerate_orbits(k, d)
    assert [orbits.orbit_count(7, d) for d in range(5)] == [1, 63, 1561, 19_768, 139_671]


def test_enumeration_cap():
    # the cap counts orbits: k = 8, d = 3 builds 44,016 and k = 222, d = 1 builds 49,728
    assert len(enumerate_orbits(8, 3)) == 44_016
    assert len(enumerate_orbits(222, 1)) == 49_728 <= orbits.ENUMERATE_CAP
    assert orbits.orbit_count(223, 1) == 50_175
    assert enumerate_orbits(300, 0) == [orbits.OrbitRepresentative(300, ())]
    # each refusal comes before any work; a huge k is refused by k^2 alone, before the sum
    for k, d in ((223, 1), (8, 4), (10 ** 6, 10 ** 6), (10 ** 1500, 1)):
        started = time.perf_counter()
        with pytest.raises(InputError, match="more than 50000 orbits"):
            enumerate_orbits(k, d)
        assert time.perf_counter() - started < 1
    with pytest.raises(InputError, match="subspace_dim"):
        enumerate_orbits(2, 3)


def test_invalid_incidence_rejected():
    # monotone steps, but inclusion-exclusion gives -1 at (2, 2)
    bad = IncidenceMatrix(2, ((0, 0, 1), (0, 1, 2), (1, 2, 2)))
    with pytest.raises(InputError):
        representative_from_incidence(bad)


def test_orbit_counts_p1():
    reps = enumerate_orbits(1, 1)
    assert [r.pairs for r in reps] == [((0, 1),), ((1, 0),), ((1, 1),)]


def test_orbit_dimensions_g24():
    dims = {rep.pairs: orbit_dimension(rep) for rep in enumerate_orbits(2, 2)}
    # the anti-diagonal representative is the dense one
    assert dims[((1, 2), (2, 1))] == 4
    assert dims[((1, 1), (2, 2))] == 3
    assert max(dims.values()) == 4


def test_max_orbit_dimension_is_k_squared():
    for k in range(1, 4):
        best = max(orbit_dimension(rep) for rep in enumerate_orbits(k, k))
        assert best == k * k


def test_group_dimensions():
    assert len(orbits._lie_positions(2, 0)) == 6
    assert len(orbits._lie_positions(2, 1)) == 6 + 4 + 1
    assert len(orbits._lie_positions(3, 2)) == 12 + 12 + 3


def test_listing_estimate_counts_every_orbit():
    # orbits x Lie positions x (d + 1) x n, with the orbit count in closed form
    cases = [(k, d, s) for k in range(5) for d in range(k + 1) for s in range(3)]
    cases += [(5, d, 0) for d in range(4)]
    for k, d, s in cases:
        per_orbit = len(orbits._lie_positions(k, s)) * (d + 1) * (2 * k + s)
        assert orbits.check_listing(k, d, s) == len(enumerate_orbits(k, d)) * per_orbit, (k, d, s)
    assert len(enumerate_orbits(5, 3)) == 2620
    assert orbits.check_listing(4, 4, 2) == 2_024_100 <= orbits.LIST_CAP


def test_listing_estimate_refuses_before_any_work():
    # k = 7, d = 3 is 19,768 orbits x 56 x 4 x 14 = 62 million units; the last k has 1,500 digits
    for k, d, s in ((7, 3, 0), (60, 1, 0), (1, 1, 100_000), (100_000, 0, 0), (10 ** 9, 10 ** 8, 0),
                    (10 ** 1500, 0, 0)):
        with pytest.raises(InputError, match="more than %d work units" % orbits.LIST_CAP):
            orbits.check_listing(k, d, s)
    with pytest.raises(InputError, match="subspace_dim"):
        orbits.check_listing(2, 3)
    with pytest.raises(InputError, match="nonnegative"):
        orbits.check_listing(2, 1, -1)


def stabilizer_matrix(rep, s):
    """Row (i, j) is D times [w[j] (e_i mod W)]_w, by exact elimination in linalg."""
    k, n = rep.k, 2 * rep.k + s
    basis = []
    for i, j in rep.pairs:
        v = [0] * n
        if i > 0:
            v[i - 1] = 1
        if j > 0:
            v[k + j - 1] = 1
        basis.append(v)
    basis_r, D = linalg.rref(basis)
    reduced = [linalg.reduce_mod([int(a == i) for a in range(n)], basis_r, D) for i in range(n)]
    return [[w[j] * x for w in basis for x in reduced[i]] for i, j in orbits._lie_positions(k, s)]


def test_orbit_dimension_counts_the_rank_of_a_monomial_matrix():
    cases = [(k, 0) for k in range(5)] + [(k, s) for k in range(4) for s in (1, 2)]
    for k, s in cases:
        for d in range(k + 1):
            for rep in enumerate_orbits(k, d):
                rows = stabilizer_matrix(rep, s)
                assert all(sum(1 for x in row if x) <= 1 for row in rows), (rep, s)
                assert orbit_dimension(rep, s) == linalg.rank(rows), (rep, s)


def test_orbit_counts_sum_to_the_gaussian_binomial():
    # an orbit with m pairs (i, j), i, j > 0, has (q-1)^m q^(dim-m) points over F_q
    for k in range(5):
        for d in range(k + 1):
            terms = [(sum(1 for i, j in rep.pairs if i and j), orbit_dimension(rep))
                     for rep in enumerate_orbits(k, d)]
            for q in (2, 3, 4, 5, 7, 11):
                assert sum((q - 1) ** m * q ** (dim - m) for m, dim in terms) \
                    == orbits._subspace_count(2 * k, d, q), (k, d, q)


def test_orbit_dimension_with_extra_coordinates():
    rep = make_representative(2, [(1, 2), (2, 1)])
    assert orbit_dimension(rep, s=1) >= orbit_dimension(rep)


def test_dense_orbit_dimension_check():
    assert dense_orbit_dimension_check(2, 2)["verdict"] == "no obstruction"
    assert dense_orbit_dimension_check(3, 3)["verdict"] == "boundary case"
    assert dense_orbit_dimension_check(3, 4)["verdict"] == "no dense orbit possible"
    grid = {(k, d): dense_orbit_dimension_check(k, d) for k in (2, 3, 4) for d in (2, 3)}
    for (k, d), rec in grid.items():
        assert rec["dim_b"] == d * k * (k + 1) // 2
        assert rec["dim_g"] == (d - 1) * k * k


def test_point_count_partition_g24_f2():
    counts = ff_orbit_counts(2, 2, 2)
    assert sum(counts.values()) == 35
    combinatorial = {incidence_of_representative(r).entries for r in enumerate_orbits(2, 2)}
    assert set(counts) == combinatorial


def test_oracle_agreement_small():
    for k in (1, 2):
        for d in range(k + 1):
            report = oracle_check(k, d, qs=(2, 3))
            assert report["agree"], report


def test_oracle_compares_each_orbits_point_count(monkeypatch):
    # the same incidences, but one orbit's dimension off by one, must disagree
    real = orbits.orbit_dimension
    monkeypatch.setattr(orbits, "orbit_dimension",
                        lambda rep, s=0: real(rep, s) + (rep.pairs == ((1, 2), (2, 1))))
    assert oracle_check(2, 1)["agree"]
    assert not oracle_check(2, 2)["agree"]


def test_ff_rank():
    assert orbits.ff_rank([[1, 0], [0, 1]], 2) == 2
    assert orbits.ff_rank([[2, 4], [1, 2]], 3) == 1
    assert orbits.ff_rank([], 5) == 0


def stacked_ff_incidence(basis, k, q):
    """Entry (i, j) as d + i + j - rank of the basis stacked on the flag vectors of F_i and G_j."""
    def unit(p):
        return [int(a == p) for a in range(2 * k)]
    return tuple(tuple(len(basis) + i + j - orbits.ff_rank(
        list(basis) + [unit(p) for p in range(i)] + [unit(k + p) for p in range(j)], q)
        for j in range(k + 1)) for i in range(k + 1))


def test_incidence_on_restricted_columns_matches_stacked_flags():
    cases = [(k, d, q) for k in (1, 2) for d in range(k + 1) for q in (2, 3)]
    cases += [(3, d, 2) for d in range(3)]
    for k, d, q in cases:
        for basis in ff_subspaces(2 * k, d, q):
            assert ff_incidence(basis, k, q).entries == stacked_ff_incidence(basis, k, q), basis


def test_oracle_refuses_work_over_the_cap():
    for n in range(6):
        for d in range(n + 1):
            for q in (2, 3):
                assert orbits._subspace_count(n, d, q) == sum(1 for _ in ff_subspaces(n, d, q))
    assert sum(orbits._subspace_count(6, 3, q) for q in (2, 3)) == 35_275 <= orbits.ORACLE_CAP
    assert sum(orbits._subspace_count(8, 2, q) for q in (2, 3)) == 907_055
    for k, d in ((4, 2), (4, 4), (10 ** 6, 10 ** 6)):
        with pytest.raises(InputError, match="more than 50000 subspaces"):
            oracle_check(k, d)
