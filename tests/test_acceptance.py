"""The release gate: one test per acceptance criterion, one printed verdict line each."""

import functools
import itertools
import math
import time
import warnings

from grasseff import chow, cones, delpezzo, orbits
from grasseff.chow import GrassCtx
from grasseff.cones import DecompositionError, cone_membership
from grasseff.multiplicity import max_point_multiplicity, rz_multiplicity
from grasseff.partitions import dual

from support import facet_slack, fold_degree, quadric_facets, quadric_in_cone, quadric_resum


def criterion(number, label, limit=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print("CRITERION %d (%s): FAIL" % (number, label))
                raise
            elapsed = time.monotonic() - start
            print("CRITERION %d (%s): PASS (%.2fs)" % (number, label, elapsed))
            if limit is not None:
                assert elapsed < limit, "criterion %d exceeded %ds" % (number, limit)
        return run
    return wrap


def boxes_up_to(max_dim):
    out = []
    for k in range(1, max_dim + 1):
        for w in range(1, max_dim // k + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out.append(GrassCtx(k, k + w))
    return out


@criterion(1, "degree table two ways", limit=10)
def test_criterion_1():
    expected = {(2, 4): 2, (2, 5): 5, (3, 6): 42}
    for (k, n), value in expected.items():
        ctx = GrassCtx(k, n)
        assert fold_degree(k, n) == value
        assert chow.degree(ctx) == value


@criterion(2, "duality and Giambelli round trip", limit=60)
def test_criterion_2():
    for ctx in boxes_up_to(12):
        for m in range(ctx.dim + 1):
            for lam in chow.basis(ctx, m):
                s = chow.sigma(ctx, lam.parts)
                # Giambelli round trip: the determinant expansion applied to
                # the unit class reproduces the class itself
                assert chow.multiply(s, chow.unit(ctx)) == s
                for mu in chow.basis(ctx, ctx.dim - m):
                    expected = 1 if mu == dual(lam) else 0
                    assert chow.pair(s, chow.sigma(ctx, mu.parts)) == expected


@criterion(3, "multiplicities")
def test_criterion_3():
    for k in range(2, 6):
        ctx = GrassCtx(k, 2 * k)
        assert max_point_multiplicity(ctx, ctx.partition((1,))) == k
    g25 = GrassCtx(2, 5)
    assert max_point_multiplicity(g25, g25.partition((2, 1))) == 2
    for ctx in boxes_up_to(12):
        for m in range(ctx.dim + 1):
            for lam in chow.basis(ctx, m):
                assert rz_multiplicity(ctx, lam, lam) == 1


@criterion(4, "two-point divisor cone grid", limit=60)
def test_criterion_4():
    for k in range(2, 7):
        cone = cones.thm44_generators(k)
        for a in range(7):
            for b1 in range(6 * k + 1):
                for b2 in range(6 * k + 1):
                    target = (a, -b1, -b2)
                    if k * a >= b1 + b2:
                        terms = cones.lemma41_decompose(k, a, b1, b2)
                        total = (0, 0, 0)
                        for label, c in terms:
                            vec = cones.lemma41_vector(k, label)
                            total = tuple(t + c * v for t, v in zip(total, vec))
                        assert total == target
                        # the witness is Lemma 4.1's decomposition itself
                        res = cone_membership(cone, target)
                        assert res.is_member
                        assert {label: c for label, c in zip(cone.labels, res.witness) if c} \
                            == dict(terms)
                    else:
                        res = cone_membership(cone, target)
                        assert not res.is_member
                        # scaled by the positive LCM of its denominators, the certificate
                        # is checked in ints, with the same signs
                        lcm = math.lcm(*(p.denominator for p in res.certificate))
                        phi = [p.numerator * (lcm // p.denominator) for p in res.certificate]
                        for gen in cone.generators:
                            assert sum(p * g for p, g in zip(phi, gen)) >= 0
                        assert sum(p * t for p, t in zip(phi, target)) < 0


@criterion(5, "quadric decompositions vs brute force")
def test_criterion_5():
    # r <= 6: success must coincide with the exhaustive search oracle
    for r in range(7):
        for a in range(7):
            for bs in itertools.combinations_with_replacement(range(a + 1), r):
                bs = tuple(sorted(bs, reverse=True))
                expected = quadric_in_cone(a, bs)
                try:
                    terms = cones.quadric_curve_decompose(a, bs)
                except DecompositionError:
                    assert not expected, (a, bs)
                    continue
                assert expected, (a, bs)
                assert quadric_resum(terms, r) == (a, *bs)
    # r = 7: success exactly where every facet of the cone holds, and a refusal
    # names one of them; the exhaustive search oracle agrees
    facets = quadric_facets(7)
    for a in range(7):
        for bs in itertools.combinations_with_replacement(range(min(a, 3) + 1), 7):
            bs = tuple(sorted(bs, reverse=True))
            satisfied = all(facet_slack(n, a, bs) >= 0 for n in facets)
            try:
                terms = cones.quadric_curve_decompose(a, bs)
            except DecompositionError as exc:
                assert not satisfied and "violated facet" in str(exc), (a, bs)
                assert not quadric_in_cone(a, bs), (a, bs)
                continue
            assert satisfied, (a, bs)
            assert quadric_resum(terms, 7) == (a, *bs)


@criterion(6, "class outside the Schubert span at three points")
def test_criterion_6():
    cls, result = cones.g24_nonspan_witness()
    vec = cones.blowup_cycle_vector(cls)
    assert vec == (1, 1, -1, -1, -1)
    assert result.verdict == "not-in-span"
    phi = result.certificate
    for gen in cones.g24_sgen_cone(3).generators:
        assert sum(p * g for p, g in zip(phi, gen)) >= 0
    assert sum(p * v for p, v in zip(phi, vec)) < 0
    two = cone_membership(cones.g24_sgen_cone(2), (1, 1, -1, -1))
    assert two.is_member


@criterion(7, "orbit enumeration and finite-field oracle")
def test_criterion_7():
    for k in range(1, 5):
        for d in range(k + 1):
            for rep in orbits.enumerate_orbits(k, d):
                inc = orbits.incidence_of_representative(rep)
                assert orbits.representative_from_incidence(inc) == rep
    for k in (1, 2):
        for d in range(k + 1):
            assert orbits.oracle_check(k, d)["agree"]
    counts = orbits.ff_orbit_counts(2, 2, 2)
    assert sum(counts.values()) == 35
    for k in range(1, 4):
        assert max(orbits.orbit_dimension(rep)
                   for rep in orbits.enumerate_orbits(k, k)) == k * k
    for k, d in [(2, 2), (3, 3), (4, 3)]:
        rec = orbits.dense_orbit_dimension_check(k, d)
        assert rec["dim_b"] == d * k * (k + 1) // 2
        assert rec["dim_g"] == (d - 1) * k * k
    assert orbits.dense_orbit_dimension_check(2, 2)["verdict"] == "no obstruction"
    assert orbits.dense_orbit_dimension_check(3, 3)["verdict"] == "boundary case"
    assert orbits.dense_orbit_dimension_check(4, 3)["verdict"] == "no dense orbit possible"


@criterion(8, "degree-table verification across admissible q")
def test_criterion_8():
    for case in delpezzo.FANO_TABLE:
        assert delpezzo.d_squared_symbolic(case.N) == (0, 0)
        for q in delpezzo.sample_admissible_q(case.N, 5):
            report = delpezzo.verify_case(case.name, q)
            assert report["ok"], report
            assert report["assumptions"] == ["SHGH"]
            # SHGH-gated claims never appear as computed passes
            assert all("SHGH" not in c["name"] for c in report["checks"])


@criterion(9, "out-of-scope geometric claims covered by property suites")
def test_criterion_9():
    # Actual nefness for specific configurations, non-finite-generation of the
    # curve cone, and very-general position statements are not desk-checkable;
    # acceptance rests on the exact-certificate and oracle-equivalence suites
    # above, plus the library's internal verification report.
    from grasseff import verify
    report = verify.run_all()
    assert report["ok"], report["failed"]
    assert report["failed"] == []
