import itertools
import random
import time

import pytest

from grasseff import linalg, orbits
from grasseff.orbits import IncidenceMatrix, dense_orbit_dimension_check, \
    enumerate_orbits, ff_incidence, ff_orbit_counts, ff_subspaces, \
    incidence_of_representative, \
    make_representative, oracle_check, orbit_dimension, representative_from_incidence
from grasseff.errors import InputError
from grasseff.partitions import ENTRY_CAP

from support import lie_positions

REFUSED = "more than %d incidence entries" % ENTRY_CAP


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


def test_enumerated_records_pass_the_checks_they_skip():
    # enumerate_orbits builds its records unchecked; make_representative checks and sorts
    for k in range(6):
        for d in range(k + 1):
            for rep in enumerate_orbits(k, d):
                assert make_representative(k, rep.pairs) == rep, rep


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
            if orbits.orbit_count(k, d) * (k + 1) ** 2 <= ENTRY_CAP:
                assert len(enumerate_orbits(k, d)) == orbits.orbit_count(k, d), (k, d)
            else:
                with pytest.raises(InputError, match=REFUSED):
                    enumerate_orbits(k, d)
    assert [orbits.orbit_count(7, d) for d in range(5)] == [1, 63, 1561, 19_768, 139_671]


def test_enumeration_cap():
    # the cap counts incidence entries, orbits x (k+1)^2: k = d = 5 builds 393,192 and
    # k = 631, d = 0 builds 399,424, while k = 632, d = 0 needs 400,689
    assert orbits.orbit_count(5, 5) * 6 ** 2 == 393_192 <= ENTRY_CAP
    assert enumerate_orbits(631, 0) == [orbits.OrbitRepresentative(631, ())]
    assert orbits.orbit_count(7, 3) * 8 ** 2 == 1_265_152
    with pytest.raises(InputError, match="subspace_dim"):
        enumerate_orbits(2, 3)
    with pytest.raises(InputError, match="subspace_dim"):
        enumerate_orbits(2, -1)


def test_invalid_incidence_rejected():
    # monotone steps, but inclusion-exclusion gives -1 at (2, 2)
    bad = IncidenceMatrix(2, ((0, 0, 1), (0, 1, 2), (1, 2, 2)))
    with pytest.raises(InputError):
        representative_from_incidence(bad)


def old_rules_accept(k, e):
    """The checks an IncidenceMatrix once ran on construction, written out as a reference."""
    if len(e) != k + 1 or any(len(row) != k + 1 for row in e):
        return False
    if e[0][0] != 0 or e[k][k] > k:
        return False
    return all(e[i][j] >= 0
               and (i == 0 or e[i][j] - e[i - 1][j] in (0, 1))
               and (j == 0 or e[i][j] - e[i][j - 1] in (0, 1))
               for i in range(k + 1) for j in range(k + 1))


def reference_decode(k, e):
    """The pairs by inclusion-exclusion after the old rules, or None where either rejects."""
    if not old_rules_accept(k, e):
        return None

    def at(i, j):
        return e[i][j] if i >= 0 and j >= 0 else 0
    pairs = []
    for i in range(k + 1):
        for j in range(k + 1):
            m = at(i, j) - at(i - 1, j) - at(i, j - 1) + at(i - 1, j - 1)
            if m not in (0, 1):
                return None
            if m:
                pairs.append((i, j))
    return tuple(pairs)


def test_decoder_accepts_exactly_what_the_old_rules_and_decoding_accept():
    grids = [(1, range(-1, 4)), (2, range(3))]
    accepted = 0
    for k, values in grids:
        for flat in itertools.product(values, repeat=(k + 1) ** 2):
            e = tuple(flat[r * (k + 1):(r + 1) * (k + 1)] for r in range(k + 1))
            expected = reference_decode(k, e)
            try:
                got = representative_from_incidence(IncidenceMatrix(k, e)).pairs
            except InputError:
                got = None
            assert got == expected, e
            accepted += got is not None
    # every orbit of k = 1 and k = 2 has entries in 0..2, and nothing else is accepted
    assert accepted == sum(orbits.orbit_count(k, d) for k in (1, 2) for d in range(k + 1))


def test_decoder_agrees_with_the_reference_on_perturbed_orbits_at_k_3_and_4():
    # every orbit's matrix with 1 added to or taken from one or two distinct entries
    rng = random.Random(30)
    verdicts = set()
    for k in (3, 4):
        cells = [(i, j) for i in range(k + 1) for j in range(k + 1)]
        for d in range(k + 1):
            for rep in enumerate_orbits(k, d):
                entries = incidence_of_representative(rep).entries
                for count in (1, 2, 2):
                    e = [list(row) for row in entries]
                    for i, j in rng.sample(cells, count):
                        e[i][j] += rng.choice((-1, 1))
                    e = tuple(map(tuple, e))
                    expected = reference_decode(k, e)
                    try:
                        got = representative_from_incidence(IncidenceMatrix(k, e)).pairs
                    except InputError:
                        got = None
                    assert got == expected, e
                    verdicts.add(got is None)
    assert verdicts == {True, False}


def test_list_rows_decode_like_tuple_rows():
    assert representative_from_incidence(IncidenceMatrix(1, [[0, 1], [0, 1]])).pairs == ((0, 1),)
    for k in range(1, 4):
        for d in range(k + 1):
            for rep in enumerate_orbits(k, d):
                inc = incidence_of_representative(rep)
                assert representative_from_incidence(IncidenceMatrix(k, inc.to_json())) == rep


def test_every_accepted_matrix_re_encodes_to_itself():
    # the decoder has no re-encoding check: whatever it accepts must still re-encode exactly,
    # on orbit matrices with one to three entries moved by +-1 and on matrices of random entries
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for k in (1, 2, 3, 4):
        reps = [rep for d in range(k + 1) for rep in enumerate_orbits(k, d)]
        cells = [(i, j) for i in range(k + 1) for j in range(k + 1)]
        for _ in range(1500):
            if rng.random() < 0.5:
                e = [list(row) for row in incidence_of_representative(rng.choice(reps)).entries]
                for i, j in rng.sample(cells, rng.randint(1, 3)):
                    e[i][j] += rng.choice((-1, 1))
            else:
                e = [[rng.randint(0, min(i, j, k)) for j in range(k + 1)] for i in range(k + 1)]
            rows = e if rng.random() < 0.5 else tuple(map(tuple, e))
            try:
                rep = representative_from_incidence(IncidenceMatrix(k, rows))
            except InputError:
                outcomes[False] += 1
                continue
            outcomes[True] += 1
            assert incidence_of_representative(rep).entries == tuple(map(tuple, e)), e
    assert min(outcomes.values()) > 100, outcomes


@pytest.mark.parametrize("k, entries", [
    (2, ((0, 0), (0, 1))),  # wrong shape
    (1, ((0, 0), (-1, 0))),  # negative entry
    (1, ((0, 0), (0, 2))),  # a step of 2
    (1, ((1, 1), (1, 1))),  # e[0][0] = 1
    # e[k][k] = k + 1 from a valid pair set
    (2, incidence_of_representative(make_representative(2, [(1, 0), (2, 0), (0, 1)])).entries),
])
def test_decoder_rejects(k, entries):
    with pytest.raises(InputError):
        representative_from_incidence(IncidenceMatrix(k, entries))


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
    assert len(lie_positions(2, 0)) == 6
    assert len(lie_positions(2, 1)) == 6 + 4 + 1
    assert len(lie_positions(3, 2)) == 12 + 12 + 3


def test_listing_estimate_counts_every_orbit():
    # every k <= 5 enumerates at every d, the largest k = d = 5 with 393,192 incidence entries
    for k in range(6):
        for d in range(k + 1):
            reps = enumerate_orbits(k, d)
            assert len(reps) == orbits.orbit_count(k, d), (k, d)
            assert len(reps) * (k + 1) ** 2 <= ENTRY_CAP
    assert len(enumerate_orbits(5, 3)) == 2620


def test_listing_estimate_refuses_before_any_work():
    # (6, 4) needs 1,823,535 entries and (7, 3) 1,265,152; a huge k is refused by (k+1)^2 alone
    for k, d in ((6, 4), (7, 3), (8, 3), (60, 1), (632, 0), (10 ** 1500, 1)):
        started = time.perf_counter()
        with pytest.raises(InputError, match=REFUSED):
            enumerate_orbits(k, d)
        assert time.perf_counter() - started < 1, (k, d)


def stabilizer_matrix(rep, s):
    """Row (i, j) is D times [w[j] (e_i mod W)]_w in F^{2k+s}, by exact elimination in linalg."""
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
    return [[w[j] * x for w in basis for x in reduced[i]] for i, j in lie_positions(k, s)]


def test_orbit_dimension_counts_the_rank_of_a_monomial_matrix():
    for k in range(5):
        for d in range(k + 1):
            for rep in enumerate_orbits(k, d):
                rows = stabilizer_matrix(rep, 0)
                assert all(sum(1 for x in row if x) <= 1 for row in rows), rep
                assert orbit_dimension(rep) == linalg.rank(rows), rep


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
    # the side columns and the s-block of G(d, 2k+s) never reach a representative in F^{2k}
    for k in range(4):
        for d in range(k + 1):
            for rep in enumerate_orbits(k, d):
                for s in (0, 1, 2):
                    assert orbit_dimension(rep) == linalg.rank(stabilizer_matrix(rep, s)), (rep, s)


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
            report = oracle_check(k, d)
            assert report["agree"], report


def test_oracle_compares_each_orbits_point_count(monkeypatch):
    # the same incidences, but one orbit's dimension off by one, must disagree
    real = orbits.orbit_dimension
    monkeypatch.setattr(orbits, "orbit_dimension",
                        lambda rep: real(rep) + (rep.pairs == ((1, 2), (2, 1))))
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
    cases += [(3, d, 2) for d in range(4)]
    for k, d, q in cases:
        for basis in ff_subspaces(2 * k, d, q):
            assert ff_incidence(basis, k, q).entries == stacked_ff_incidence(basis, k, q), basis


def test_incidence_of_random_bases_at_k_4_matches_stacked_flags():
    # the oracle refuses k = 4, so these are its only k = 4 inputs; the bases are not in RREF
    rng = random.Random(16)
    for d in range(5):
        for _ in range(40):
            basis = []
            while len(basis) < d or orbits.ff_rank(basis, 3) < d:
                basis = [[rng.randrange(3) for _ in range(8)] for _ in range(d)]
            assert ff_incidence(basis, 4, 3).entries == stacked_ff_incidence(basis, 4, 3), basis


def test_oracle_refuses_work_over_the_cap():
    for n in range(6):
        for d in range(n + 1):
            for q in (2, 3):
                assert orbits._subspace_count(n, d, q) == sum(1 for _ in ff_subspaces(n, d, q))
    assert orbits.FIELDS == (2, 3)
    assert sum(orbits._subspace_count(6, 3, q) for q in (2, 3)) == 35_275 <= orbits.ORACLE_CAP
    assert sum(orbits._subspace_count(8, 2, q) for q in (2, 3)) == 907_055
    for k, d in ((4, 2), (4, 4), (10 ** 6, 10 ** 6)):
        with pytest.raises(InputError, match="more than 50000 subspaces"):
            oracle_check(k, d)
