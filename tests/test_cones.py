import itertools
import json
import math
import random
import re
import time
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from grasseff import chow, cones
from grasseff.blowup import BlowupCtx, blow_class
from grasseff.chow import GrassCtx
from grasseff.cones import ConeSpec, DecompositionError, cone_membership
from grasseff.errors import InputError, InternalError
from grasseff.jsonio import MAX_DIGITS
from grasseff.simplex import solve_nonneg_combination

from support import (facet_slack, fold_degree, g25_resum, lemma41_peel, quadric_facets,
                     quadric_in_cone, quadric_resum)

G24 = GrassCtx(2, 4)
G25 = GrassCtx(2, 5)


# ---------------------------------------------------------------------------
# generic membership

def test_membership_witness_and_certificate():
    cone = ConeSpec.build(2, ("x", "y"), [("a", (1, 0)), ("b", (1, 1))])
    hit = cone_membership(cone, (3, 2))
    assert hit.is_member and hit.witness == (1, 2)
    miss = cone_membership(cone, (0, 1))
    assert not miss.is_member
    assert sum(p * v for p, v in zip(miss.certificate, (0, 1))) < 0


def test_build_dedupes_generators():
    cone = ConeSpec.build(2, ("x", "y"), [("a", (1, 0)), ("b", (1, 0))])
    assert cone.labels == ("a",)


# ---------------------------------------------------------------------------
# two-point divisor cone

def test_facet_normals_of_two_point_cone():
    # each normal is >= 0 on every generator and vanishes on two independent
    # ones, and the four cut out the cone: a grid point passes all of them
    # exactly when it is a member
    for k in (2, 3, 5):
        cone = cones.thm44_generators(k)
        gens = cone.generators
        normals = [(1, 0, 0), (k, 1, 0), (k, 0, 1), (k, 1, 1)]
        for n in normals:
            assert all(sum(c * g for c, g in zip(n, gen)) >= 0 for gen in gens)
            face = [gen for gen in gens if sum(c * g for c, g in zip(n, gen)) == 0]
            assert any(u[0] * w[1] - u[1] * w[0] or u[0] * w[2] - u[2] * w[0]
                       or u[1] * w[2] - u[2] * w[1]
                       for u, w in itertools.combinations(face, 2)), (k, n)
        for v in itertools.product(range(-1, 3), range(-2 * k - 1, 3), range(-2 * k - 1, 3)):
            inside = all(sum(c * x for c, x in zip(n, v)) >= 0 for n in normals)
            assert cone_membership(cone, v).is_member == inside, (k, v)


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def cross_product_facets(gens):
    """Primitive normals of the facets of a cone in Z^3, sorted.

    Each pair of generators spans a candidate plane; its cross product, or the
    negation, is kept when every generator lies on its nonnegative side. Every
    facet of a 3-dimensional cone contains two independent generators.
    """
    out = set()
    for u, w in itertools.combinations(gens, 2):
        n = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        g = math.gcd(*n)
        for s in ((g, -g) if g else ()):
            normal = tuple(x // s for x in n)
            if all(dot(normal, gen) >= 0 for gen in gens):
                out.add(normal)
    return sorted(out)


def test_thm44_facets_are_the_inequalities():
    # Theorem 4.4's normals are the facets the generators span, and the rule
    # returns the first one, in sorted order, that is negative on the query
    for k in range(2, 7):
        cone = cones.thm44_generators(k)
        normals = [(1, 0, 0), (k, 0, 1), (k, 1, 0), (k, 1, 1)]
        assert cross_product_facets(cone.generators) == normals
        returned = set()
        for v in itertools.product(range(-1, 3), range(-2 * k - 1, 3), range(-2 * k - 1, 3)):
            kind, data, D = cone.rule(v)
            normal = data if kind == "certificate" else None
            assert D == 1
            assert normal == next((n for n in normals if dot(n, v) < 0), None), (k, v)
            returned.add(normal)
        assert returned == {None, *normals}


def nonzero(labels, coefficients):
    return {label: c for label, c in zip(labels, coefficients) if c}


def resums(cone, witness, target):
    total = [0] * cone.dim
    for c, gen in zip(witness, cone.generators):
        total = [t + c * g for t, g in zip(total, gen)]
    return tuple(total) == tuple(target)


def lemma41_witness(k, a, b1, b2):
    """Lemma 4.1 on (a, b1+, b2+), plus b_i- times e_i: the divisor rule's witness."""
    terms = dict(cones.lemma41_decompose(k, a, max(b1, 0), max(b2, 0)))
    for label, b in (("e1", b1), ("e2", b2)):
        if b < 0:
            terms[label] = terms.get(label, 0) - b
    return terms


def test_divisor_rule_keeps_verdicts_and_witnesses():
    # members get Lemma 4.1's decomposition, not the simplex's witness, so the
    # two are compared by verdict only; a member never reaches the simplex
    for k in (2, 3):
        cone = cones.thm44_generators(k)
        bare = replace(cone, rule=None)
        normals = [(1, 0, 0), (k, 0, 1), (k, 1, 0), (k, 1, 1)]
        kinds = set()
        for a in range(-1, 5):
            for b1 in range(-1, 2 * k + 1):
                for b2 in range(-1, 2 * k + 1):
                    target = (a, -b1, -b2)
                    assert cone.rule(target) is not None, target
                    res, ref = cone_membership(cone, target), cone_membership(bare, target)
                    assert res.verdict == ref.verdict, target
                    if res.is_member:
                        kinds.add("witness with e_i" if min(b1, b2) < 0 else "witness")
                        assert all(type(c) is Fraction for c in res.witness)
                        assert nonzero(cone.labels, res.witness) == lemma41_witness(k, a, b1, b2)
                        assert resums(cone, res.witness, target), target
                    else:
                        assert tuple(map(int, res.certificate)) in normals
                        assert all(type(p) is Fraction for p in res.certificate)
        assert kinds == {"witness", "witness with e_i"}
    # a non-integral member is Lemma 4.1 on twice the query, over D = 2; a certificate
    # stays over D = 1
    cone = cones.thm44_generators(2)
    half = (Fraction(1, 2), -1, 0)
    assert cone.rule(half) == ("witness", (0, 0, 0, 0, 1), 2)
    assert cone_membership(cone, half).witness == (0, 0, 0, 0, half[0])
    assert cone.rule((Fraction(1, 2), -2, 0)) == ("certificate", (2, 1, 0), 1)


def span_label(key):
    if key[0] == "sigma":
        return "s%s" % (key[1],)
    return "s%s-E%d" % (key[1], key[2] + 1)


def test_span_rule_keeps_verdicts_and_witnesses():
    # Lemma 4.2: the first a_lam < 0 gives e_lam, and otherwise
    # sum a_lam < sum of the b_i > 0 gives (1, ..., 1, 1_S) with S = {i : b_i > 0};
    # a member's witness is lemma42_decompose of (a, b+) plus -b_i times E_i
    rng = random.Random(17)
    kinds = set()
    for ctx in (G24, G25, GrassCtx(3, 6)):
        for cycle_dim in (1, 2):
            sigmas = chow.basis(ctx, ctx.dim - cycle_dim)
            for r in (0, 1, 3, 6):
                cone = cones.sgen_cycle_cone(ctx, cycle_dim, r)
                bare = replace(cone, rule=None)
                b = cone.dim - r
                for _ in range(40):
                    a = [rng.randint(-1, 3) for _ in range(b)]
                    bs = [rng.randint(-1, 3) for _ in range(r)]
                    target = (*a, *(-x for x in bs))
                    assert cone.rule(target) is not None, target
                    res, ref = cone_membership(cone, target), cone_membership(bare, target)
                    assert res.verdict == ref.verdict, target
                    if res.is_member:
                        kinds.add("witness with E_i" if any(x < 0 for x in bs) else "witness")
                        amb = sum((chow.sigma(ctx, lam.parts).scale(c)
                                   for lam, c in zip(sigmas, a)), chow.zero(ctx, ctx.dim - cycle_dim))
                        cls = blow_class(BlowupCtx(ctx, r), "dim", cycle_dim, amb,
                                         [max(x, 0) for x in bs])
                        expected = {span_label(key): c for key, c in cones.lemma42_decompose(cls)}
                        expected.update(("E%d" % (i + 1), -x) for i, x in enumerate(bs) if x < 0)
                        assert nonzero(cone.labels, res.witness) == expected, target
                        assert resums(cone, res.witness, target), target
                        continue
                    cert = tuple(map(int, res.certificate))
                    neg = [j for j in range(b) if a[j] < 0]
                    if neg:
                        kinds.add("e_lam")
                        assert cert == tuple(int(t == neg[0]) for t in range(b + r)), target
                    else:
                        kinds.add("1_S")
                        assert cert == (1,) * b + tuple(int(x > 0) for x in bs), target
    assert kinds == {"e_lam", "1_S", "witness", "witness with E_i"}


def refuse_the_simplex(*args):
    raise AssertionError("the simplex was called")


def one_path_queries(dim, rng):
    """Seeded integer queries in -2..4, then rational ones with denominators 1..6."""
    for _ in range(80):
        yield tuple(rng.randint(-2, 4) for _ in range(dim))
    for _ in range(80):
        yield tuple(Fraction(rng.randint(-6, 24), rng.randint(1, 6)) for _ in range(dim))


def test_paper_cones_answer_every_query_by_their_rule(monkeypatch):
    # each paper cone has one membership path, its rule: with the simplex refusing,
    # every query is still answered, with the verdict of the rule-less cone, in int
    # numerators, and a member's witness over the lcm of the query's denominators
    rng = random.Random(31)
    paper_cones = [cones.thm44_generators(k) for k in range(2, 7)] \
        + [cones.quadric_cone(r) for r in range(8)] \
        + [cones.sgen_cycle_cone(ctx, cycle_dim, r) for ctx in (G24, G25, GrassCtx(3, 6))
           for cycle_dim in (1, 2) for r in range(4)]
    seen = set()
    for cone in paper_cones:
        queries = list(one_path_queries(cone.dim, rng))
        verdicts = [cone_membership(replace(cone, rule=None), v).verdict for v in queries]
        with monkeypatch.context() as m:
            m.setattr(cones, "solve_nonneg_combination", refuse_the_simplex)
            for v, verdict in zip(queries, verdicts):
                res = cone_membership(cone, v)
                assert res.verdict == verdict, (cone.labels, v)
                assert all(type(x) is int for x in res.num), (cone.labels, v)
                lcm = math.lcm(*(Fraction(x).denominator for x in v))
                assert res.D == (lcm if res.is_member else 1), (cone.labels, v)
                seen.add((res.verdict, lcm > 1))
    assert seen == {(verdict, rational) for verdict in ("in-span", "not-in-span")
                    for rational in (False, True)}
    # a rational member of the span cone: int numerators over 12, the lcm of 2, 3 and 4
    res = cone_membership(cones.sgen_cycle_cone(G24, 2, 2),
                          (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4), 0))
    assert (res.num, res.D) == ((3, 3, 0, 4, 0, 0, 0, 0), 12)


def test_a_wrong_rule_normal_is_caught():
    cone = cones.thm44_generators(2)
    negative_on_a_generator = replace(cone, rule=lambda v: ("certificate", (0, -1, 0), 1))
    with pytest.raises(InternalError):
        cone_membership(negative_on_a_generator, (0, 1, 0))
    not_negative_on_the_query = replace(cone, rule=lambda v: ("certificate", (1, 0, 0), 1))
    with pytest.raises(InternalError):
        cone_membership(not_negative_on_the_query, (1, 0, 0))


def test_a_wrong_rule_witness_is_caught():
    # generators e1, e2, beta_0 = (1, 0, -2), beta_1 = (1, -1, -1), beta_2 = (1, -2, 0)
    cone = cones.thm44_generators(2)
    assert cone.labels == ("e1", "e2", "beta_0", "beta_1", "beta_2")
    target = (1, -1, -1)
    assert cone_membership(cone, target).witness == (0, 0, 0, 1, 0)
    # sums back to the target, but with a negative coefficient
    negative = replace(cone, rule=lambda v: ("witness", (1, -1, 0, 0, 1), 1))
    assert resums(cone, (1, -1, 0, 0, 1), target)
    with pytest.raises(InternalError, match="fails its re-check"):
        cone_membership(negative, target)
    for wrong in ((0, 0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1, 0, 0)):
        # nonnegative, but beta_0 alone does not sum back, nor does a witness of the wrong length
        with pytest.raises(InternalError, match="fails its re-check"):
            cone_membership(replace(cone, rule=lambda v, w=wrong: ("witness", w, 1)), target)
    # the right coefficients over the wrong denominator sum to half the target
    with pytest.raises(InternalError, match="fails its re-check"):
        cone_membership(replace(cone, rule=lambda v: ("witness", (0, 0, 0, 1, 0), 2)), target)


def test_a_wrong_rule_normal_is_caught_on_every_query():
    cone = replace(cones.thm44_generators(2), rule=lambda v: ("certificate", (0, -1, 0), 1))
    for _ in range(2):  # a normal that failed is never stored, so it fails again
        with pytest.raises(InternalError, match="fails its re-check"):
            cone_membership(cone, (0, 1, 0))
    assert cone.normals == set()


def test_a_stored_normal_is_still_checked_on_the_query():
    cone = replace(cones.thm44_generators(2), rule=lambda v: ("certificate", (1, 0, 0), 1))
    assert not cone_membership(cone, (-1, 0, 0)).is_member
    assert cone.normals == {(1, 0, 0)}
    for query in ((1, 0, 0), (0, -1, -1)):  # (1, 0, 0) is >= 0 on both
        with pytest.raises(InternalError, match="fails its re-check"):
            cone_membership(cone, query)


def test_stored_normals_stop_at_the_memo_cap(monkeypatch):
    monkeypatch.setattr(chow, "MEMO_CAP", 3)
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    cone = ConeSpec.build(4, "wxyz", zip("abcd", unit))
    normals = set()
    for e in unit + unit:  # the fourth normal is checked in full on every query
        res = cone_membership(cone, tuple(-x for x in e))
        assert res.num == e and res.D == 1
        normals.add(res.num)
        assert len(cone.normals) <= 3
    assert len(normals) == 4 and cone.normals < normals and len(cone.normals) == 3
    negative_on_a_generator = replace(cone, rule=lambda v: ("certificate", (1, 1, 1, -1), 1))
    with pytest.raises(InternalError, match="fails its re-check"):
        cone_membership(negative_on_a_generator, (-1, 0, 0, 0))


def test_a_reused_divisor_cone_answers_like_a_fresh_one():
    # the criterion-4 grid of tests/test_acceptance.py, every point also asked of a new cone
    for k in range(2, 7):
        cone = cones.thm44_generators(k)
        for a, b1, b2 in itertools.product(range(7), range(6 * k + 1), range(6 * k + 1)):
            res = cone_membership(cone, (a, -b1, -b2))
            fresh = cone_membership(cones.thm44_generators(k), (a, -b1, -b2))
            assert (res.verdict, res.num, res.D) == (fresh.verdict, fresh.num, fresh.D)
        assert cone.normals == {(k, 0, 1), (k, 1, 0), (k, 1, 1)}  # a >= 0 on the whole grid


def test_a_replaced_cone_starts_with_no_stored_normals():
    cone = cones.thm44_generators(3)
    cone_membership(cone, (1, -4, 0))
    assert cone.normals == {(3, 1, 0)}
    assert replace(cone).normals == set() and replace(cone, rule=None).normals == set()


def test_an_answer_over_a_denominator_below_1_is_caught():
    cone = cones.thm44_generators(2)
    for answer in (("witness", (0,) * 5, 0), ("witness", (0, 0, 0, 1, 0), -1),
                   ("certificate", (1, 0, 0), 0)):
        with pytest.raises(InternalError, match="fails its re-check"):
            cone_membership(replace(cone, rule=lambda v, w=answer: w), (-1, 1, 1))


@pytest.mark.parametrize("bad", [0.5, -0.5, "1", Decimal("0.5"), Decimal(1), 1j])
def test_a_coordinate_that_is_not_an_int_or_a_fraction_is_refused(bad):
    cone = cones.thm44_generators(2)
    for query in ((bad, 0, 0), (Fraction(1, 2), bad, 0), (10 ** 400, Fraction(1, 3), bad)):
        with pytest.raises(InputError, match="not an int or a Fraction"):
            cone_membership(cone, query)
        with pytest.raises(InputError, match="not an int or a Fraction"):
            cone_membership(replace(cone, rule=None), query)
    with pytest.raises(InputError, match="generator b has a coordinate that is not an int"):
        ConeSpec.build(2, ("x", "y"), [("a", (1, 0)), ("b", (Fraction(1, 2), bad))])
    assert cone_membership(cone, (True, Fraction(-1, 2), 0)).is_member


@pytest.mark.parametrize("corrupt", ["bumped witness", "negative witness",
                                     "certificate negative on a generator",
                                     "non-separating certificate"])
def test_a_wrong_simplex_answer_is_caught(monkeypatch, corrupt):
    # generators e1, e2, beta_0 = (1, 0, -2), beta_1 = (1, -1, -1), beta_2 = (1, -2, 0)
    cone = replace(cones.thm44_generators(2), rule=None)
    target = (1, -1, -1)
    kind, xnum, D = solve_nonneg_combination(cone.generators, target)
    assert kind == "witness" and resums(cone, [Fraction(x, D) for x in xnum], target)
    answers = {
        "bumped witness": ("witness", [x + (j == 3) for j, x in enumerate(xnum)], D),
        # e1 - e2 + beta_2 sums back to the target, over D = 2
        "negative witness": ("witness", [2, -2, 0, 0, 2], 2),
        # < 0 on the query (0, 1, 0), but also on e1
        "certificate negative on a generator": ("certificate", [0, -2, 0], 2),
        # >= 0 on every generator, but not < 0 on the query
        "non-separating certificate": ("certificate", [2, 0, 0], 2),
    }
    query = {"certificate negative on a generator": (0, 1, 0)}.get(corrupt, target)
    monkeypatch.setattr(cones, "solve_nonneg_combination", lambda gens, v: answers[corrupt])
    with pytest.raises(InternalError, match="fails its re-check"):
        cone_membership(cone, query)


def sparse(length, entries):
    """A tuple of Fractions, zero except at the given positions."""
    return tuple(Fraction(entries.get(j, 0)) for j in range(length))


# (cone, query, verdict, witness or certificate as the answers read before they were kept
# as numerators over D): rule answers of the three paper cones, and simplex answers over
# D = 1 and D > 1, with and without denominators the generators lack
MEMBERSHIP_PINS = [
    (lambda: cones.thm44_generators(3), (2, -3, -1), "in-span",
     sparse(6, {1: 2, 2: 1, 5: 1})),
    (lambda: cones.thm44_generators(3), (1, -3, -2), "not-in-span", sparse(3, {0: 3, 1: 1, 2: 1})),
    (lambda: cones.thm44_generators(2), (Fraction(1, 2), 0, 0), "in-span",
     sparse(5, {1: 1, 2: Fraction(1, 2)})),
    (lambda: replace(cones.thm44_generators(2), rule=None), (Fraction(1, 2), -1, 0), "in-span",
     sparse(5, {4: Fraction(1, 2)})),
    (lambda: cones.sgen_cycle_cone(G24, 2, 3), (1, 1, -1, -1, -1), "not-in-span",
     sparse(5, dict.fromkeys(range(5), 1))),
    (lambda: cones.sgen_cycle_cone(G24, 2, 2), (3, 2, -1, 2), "in-span",
     sparse(8, {0: 2, 1: 1, 3: 2, 7: 2})),
    (lambda: cones.quadric_cone(5), (3, -1, -1, -1, -1, -1), "not-in-span",
     sparse(6, {0: 3, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2})),
    (lambda: cones.quadric_cone(5), (5, -2, -1, -1, -1, 0), "in-span",
     sparse(21, {0: 1, 6: 1, 9: 1, 11: 1})),
    (lambda: replace(cones.quadric_cone(7), rule=None),
     (Fraction(9, 2), Fraction(-1, 2), -1, -1, -1, -1, -1, Fraction(-1, 3)), "in-span",
     sparse(50, {12: Fraction(1, 2), 13: 1, 14: Fraction(1, 3), 17: Fraction(1, 6),
                 21: Fraction(1, 6), 24: Fraction(1, 6), 30: Fraction(5, 6)})),
    (lambda: replace(cones.quadric_cone(4), rule=None), (3, -2, -1, -1, -1), "not-in-span",
     sparse(5, {0: Fraction(3, 2), 1: 1, 2: 1, 3: 1, 4: 1})),
]


@pytest.mark.parametrize("make_cone, query, verdict, expected", MEMBERSHIP_PINS)
def test_membership_reads_back_the_same_fractions(make_cone, query, verdict, expected):
    res = cone_membership(make_cone(), query)
    assert res.verdict == verdict
    answer, other = (res.witness, res.certificate) if res.is_member else \
        (res.certificate, res.witness)
    assert answer == expected and other is None
    assert all(type(x) is Fraction for x in answer)
    assert answer == tuple(Fraction(x, res.D) for x in res.num)


# one line per cone, json.dumps([labels, coordinates as str]): the vectors of
# thm44_generators(2..6), whose labels are printed nowhere (null), then the labels and
# vectors of quadric_cone(3..7)
GENERATORS = Path(__file__).with_name("cone_generators.jsonl")


def test_generator_tuples_are_pinned():
    expected = GENERATORS.read_text().splitlines()
    cases = [("thm44_generators", k, False) for k in range(2, 7)] \
        + [("quadric_cone", r, True) for r in range(3, 8)]
    assert len(expected) == len(cases)
    for (family, size, pin_labels), line in zip(cases, expected):
        cone = getattr(cones, family)(size)
        got = json.dumps([list(cone.labels) if pin_labels else None,
                          [[str(x) for x in g] for g in cone.generators]])
        assert got == line, "%s(%d) changed its generators" % (family, size)


def test_lemma41_examples():
    assert cones.lemma41_decompose(2, 1, 2, 0) == [("beta_2", 1)]
    assert cones.lemma41_decompose(2, 2, 1, 2) == [("beta_0", 1), ("beta_1", 1), ("e2", 1)]
    with pytest.raises(DecompositionError):
        cones.lemma41_decompose(2, 1, 2, 1)
    with pytest.raises(DecompositionError):
        cones.lemma41_decompose(3, 2, -1, 0)


def test_lemma41_grid_resums_and_matches_membership():
    for k in (2, 3):
        cone = cones.thm44_generators(k)
        for a in range(5):
            for b1 in range(2 * k + 1):
                for b2 in range(2 * k + 1):
                    target = (a, -b1, -b2)
                    if k * a >= b1 + b2:
                        terms = cones.lemma41_decompose(k, a, b1, b2)
                        total = (0, 0, 0)
                        for label, c in terms:
                            vec = cones.lemma41_vector(k, label)
                            total = tuple(t + c * v for t, v in zip(total, vec))
                        assert total == target
                        assert cone_membership(cone, target).is_member
                    else:
                        with pytest.raises(DecompositionError):
                            cones.lemma41_decompose(k, a, b1, b2)
                        res = cone_membership(cone, target)
                        assert not res.is_member
                        assert sum(p * t for p, t in zip(res.certificate, target)) < 0


def test_lemma41_closed_form_is_the_peel():
    # the grid of the acceptance test for criterion 4
    for k in range(2, 7):
        for a in range(7):
            for b1 in range(6 * k + 1):
                for b2 in range(min(6 * k, k * a - b1) + 1):
                    assert cones.lemma41_decompose(k, a, b1, b2) == lemma41_peel(k, a, b1, b2)


def test_lemma41_work_does_not_grow_with_the_coefficients():
    k, a = 3, 10 ** 12
    started = time.perf_counter()
    terms = cones.lemma41_decompose(k, a, 2 * a + 2, a - 7)
    assert terms == [("beta_0", 333333333332), ("beta_1", 1), ("beta_3", 666666666667),
                     ("e2", 5)]
    assert cones.resum(terms, partial(cones.lemma41_vector, k), 3) == (a, -2 * a - 2, 7 - a)
    res = cone_membership(cones.thm44_generators(2), (a, -a, -a))
    assert res.is_member and time.perf_counter() - started < 1


# ---------------------------------------------------------------------------
# span decompositions for blow-up classes

def test_lemma42_resums():
    bctx = BlowupCtx(G25, 3)
    amb = chow.sigma(G25, (2, 1)).scale(3) + chow.sigma(G25, (3,)).scale(2)
    cls = blow_class(bctx, "dim", 3, amb, (2, 1, 1))
    terms = cones.lemma42_decompose(cls)
    sigmas = chow.basis(G25, cls.codim)
    assert cones.resum(terms, partial(cones.lemma42_term_vector, sigmas, 3), len(sigmas) + 3) \
        == cones.blowup_cycle_vector(cls)


def test_lemma42_requires_inequality():
    bctx = BlowupCtx(G24, 2)
    cls = blow_class(bctx, "dim", 2, chow.sigma(G24, (2,)), (1, 1))
    with pytest.raises(DecompositionError):
        cones.lemma42_decompose(cls)


def test_sgen_bounds():
    assert cones.sgen_bound(G24, 2) == 2
    assert cones.sgen_bound(G24, 1) == 2
    assert cones.sgen_bound(G25, 2) == 4
    assert cones.sgen_bound(G25, 1) == 5
    assert cones.very_general_curve_bound(G25) == 5


def degree_bound(k, n, degree):
    """The curve bound by its definition: base + 1 exactly when the degree reaches base + 1."""
    base = math.comb(n, k) - k * (n - k)
    return base + (degree >= base + 1)


@pytest.mark.filterwarnings("ignore:G.* falls outside the standing assumption")
def test_sgen_curve_bound_is_the_degree_comparison_on_small_boxes():
    for n in range(2, 13):
        for k in range(1, n):
            assert cones.sgen_bound(GrassCtx(k, n), 1) == degree_bound(k, n, fold_degree(k, n))


def test_sgen_curve_bound_is_the_degree_comparison_up_to_sides_of_60(monkeypatch):
    monkeypatch.setattr(chow, "MAX_DIGITS", 10 ** 5)  # the degree is compared, never printed
    for k in range(2, 61):
        for n in range(2 * k, k + 61):
            ctx = GrassCtx(k, n)
            assert cones.sgen_bound(ctx, 1) == degree_bound(k, n, chow.degree(ctx)), (k, n)


def test_degree_over_binomial_never_falls_as_a_side_grows():
    # f(k, w+1) / f(k, w) >= C(k+w+1, k) / C(k+w, k) = (k+w+1) / (w+1), the step of the proof
    f = {(k, w): chow.degree(GrassCtx(k, k + w)) for k in range(2, 41) for w in range(2, 42)}
    for k in range(2, 41):
        for w in range(2, 41):
            assert f[k, w + 1] * (w + 1) >= f[k, w] * (k + w + 1), (k, w)


def test_sgen_bound_never_computes_the_degree(monkeypatch):
    def refuse(ctx):
        raise AssertionError("sgen_bound called chow.degree")
    monkeypatch.setattr(chow, "degree", refuse)
    assert cones.sgen_bound(G24, 1) == 2
    assert cones.sgen_bound(GrassCtx(10, 20), 1) == 184657
    assert cones.sgen_bound(GrassCtx(1500, 3000), 1) == math.comb(3000, 1500) - 1500 ** 2 + 1


def test_paper_cone_generators_are_distinct():
    paper = [cones.thm44_generators(k) for k in range(2, 7)] \
        + [cones.quadric_cone(r) for r in range(8)] \
        + [cones.sgen_cycle_cone(ctx, cycle_dim, r) for ctx in (G24, G25, GrassCtx(3, 6))
           for cycle_dim in (1, 2) for r in (0, 1, 3)]
    for cone in paper:
        assert len(set(cone.generators)) == len(cone.generators) == len(set(cone.labels))
        assert all(len(g) == cone.dim for g in cone.generators)


def test_sgen_bound_prints_up_to_the_digit_limit():
    limit = 10 ** MAX_DIGITS
    # the largest n with binom(n, 2) - 2(n - 2) < 10^MAX_DIGITS, which prints as JSON
    n = math.isqrt(2 * limit) + 10
    while math.comb(n, 2) - 2 * (n - 2) >= limit:
        n -= 1
    assert cones.sgen_bound(GrassCtx(2, n), 2) == math.comb(n, 2) - 2 * (n - 2)
    with pytest.raises(InputError, match="more than %d digits" % MAX_DIGITS):
        cones.sgen_bound(GrassCtx(2, n + 1), 2)


# ---------------------------------------------------------------------------
# quadric curve decompositions

def test_quadric_worked_example():
    terms = cones.quadric_curve_decompose(5, [2, 2, 1, 1])
    assert terms == {("conic", 0, 1, 2): 1, ("conic", 0, 1, 3): 1, ("ell",): 1}
    assert quadric_resum(terms, 4) == (5, 2, 2, 1, 1)


def test_quadric_negative_coefficients_absorbed():
    terms = cones.quadric_curve_decompose(1, [-2, 1])
    assert terms == {("line", 1): 1, ("ell_i", 0): 2}
    assert quadric_resum(terms, 2) == (1, -2, 1)


def test_quadric_violation_names_inequality():
    # the printed 5-point example (a = 3, b = 1^5) violates 3a >= 2 sum_5 b_j
    with pytest.raises(DecompositionError, match=re.escape(
            "violated facet: 3a >= 2b_1 + 2b_2 + 2b_3 + 2b_4 + 2b_5 (9 < 10)")):
        cones.quadric_curve_decompose(3, [1, 1, 1, 1, 1])
    with pytest.raises(DecompositionError, match=re.escape("(12 < 14)")):
        cones.quadric_curve_decompose(4, [1, 1, 1, 1, 1, 1, 1])
    with pytest.raises(DecompositionError, match=re.escape("violated facet: a >= 0 (-1 < 0)")):
        cones.quadric_curve_decompose(-1, [])
    with pytest.raises(DecompositionError, match=re.escape(
            "violated facet: 2a >= b_1 + 2b_2 + b_4 + b_5 (6 < 7)")):
        cones.quadric_curve_decompose(3, [1, 2, 0, 1, 1])


def test_quadric_stall_inside_the_cone_is_internal(monkeypatch):
    monkeypatch.setattr(cones, "_violated_facet", lambda a, bs: None)
    with pytest.raises(InternalError, match="inside the cone"):
        cones.quadric_curve_decompose(3, [1, 1, 1, 1, 1])


def test_quadric_matches_brute_force_oracle():
    for r in range(0, 7):
        for a in range(0, 7):
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


def test_quadric_r7_inequality_grid():
    # decompose succeeds exactly where every facet holds, and so does the search oracle
    facets = quadric_facets(7)
    for a in range(0, 7):
        for bs in itertools.combinations_with_replacement(range(min(a, 3) + 1), 7):
            bs = tuple(sorted(bs, reverse=True))
            satisfied = all(facet_slack(n, a, bs) >= 0 for n in facets)
            assert quadric_in_cone(a, bs) == satisfied, (a, bs)
            try:
                terms = cones.quadric_curve_decompose(a, bs)
            except DecompositionError:
                assert not satisfied, (a, bs)
                continue
            assert satisfied, (a, bs)
            assert quadric_resum(terms, 7) == (a, *bs)


def test_quadric_decomposes_exactly_where_no_facet_is_violated():
    rng = random.Random(28)
    decomposed = 0
    for _ in range(3000):
        r = rng.randint(0, 7)
        a, bs = rng.randint(0, 60), [rng.randint(-5, 30) for _ in range(r)]
        try:
            terms = cones.quadric_curve_decompose(a, bs)
        except DecompositionError:
            assert cones._violated_facet(a, bs) is not None, (a, bs)
            continue
        assert cones._violated_facet(a, bs) is None, (a, bs)
        assert quadric_resum(terms, r) == (a, *bs) and all(c > 0 for c in terms.values())
        decomposed += 1
    assert 500 < decomposed < 2500


def test_quadric_work_does_not_grow_with_the_coefficients():
    a, b = 5 * 10 ** 12, 10 ** 12
    started = time.perf_counter()
    terms = cones.quadric_curve_decompose(a, [b] * 7)
    # floor(7b/3) conics in at most 8 runs, and the one unit of b they leave is a line
    conics = {key: c for key, c in terms.items() if key[0] == "conic"}
    assert len(conics) <= 8 and sum(conics.values()) == 7 * b // 3
    assert sum(c for key, c in terms.items() if key[0] == "line") == 1
    assert quadric_resum(terms, 7) == (a, *[b] * 7)
    with pytest.raises(DecompositionError, match=re.escape("violated facet: 3a >= 2b_1 + ")):
        cones.quadric_curve_decompose(a, [b * 11 // 10] * 7)
    assert cone_membership(cones.quadric_cone(7), (a, *[-b] * 7)).is_member
    assert time.perf_counter() - started < 1


def test_quadric_cone_matches_brute_force_oracle():
    for r in range(0, 6):
        cone = cones.quadric_cone(r)
        assert len(cone.generators) == 1 + 2 * r + r * (r - 1) * (r - 2) // 6
        for a in range(0, 5):
            # the points are interchangeable, so sorted coefficient tuples cover the grid
            for bs in itertools.combinations_with_replacement(range(-1, 3), r):
                member = cone_membership(cone, (a, *(-b for b in bs))).is_member
                assert member == quadric_in_cone(a, bs), (a, bs)


def double_description(gens):
    """The primitive facet normals of the cone spanned by gens, by exact double description.

    The first d generators must be the unit vectors, so the dual cone {n : n.g >= 0}
    starts as the orthant, whose rays are the unit vectors. Each further generator g
    cuts it: rays with n.g >= 0 stay, and each pair of adjacent rays on either side of
    g gives the ray of their span with n.g = 0. A ray carries the bit mask of the
    generators it vanishes on; two rays are adjacent when they share at least d - 2 of
    them and no third ray vanishes on all they share.
    """
    d = len(gens[0])
    assert [tuple(g) for g in gens[:d]] == [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays = [(gens[i], ((1 << d) - 1) ^ (1 << i)) for i in range(d)]
    for bit, g in enumerate(gens[d:], start=d):
        side = [(sum(x * y for x, y in zip(n, g)), n, tight) for n, tight in rays]
        rays = [(n, tight | (x == 0) << bit) for x, n, tight in side if x >= 0]
        for (x, n, tn), (y, m, tm) in itertools.product(side, side):
            common = tn & tm
            if x <= 0 or y >= 0 or common.bit_count() < d - 2 \
                    or any(t & common == common for _, o, t in side if o is not n and o is not m):
                continue
            ray = [x * q - y * p for p, q in zip(n, m)]
            div = math.gcd(*ray)
            rays.append((tuple(c // div for c in ray), common | 1 << bit))
    return {n for n, _ in rays}


def test_double_description_yields_exactly_the_stated_facets():
    counts = []
    for r in range(8):
        facets = double_description(cones.quadric_cone(r).generators)
        assert facets == quadric_facets(r), r
        counts.append(len(facets))
    assert counts == [1, 2, 4, 7, 16, 47, 140, 387]


def facet_form(normal):
    """Index of a facet's form in the order a >= 0, a >= b_i, a >= b_i + b_j, 2a >= ...,
    3a >= ...: the coefficient of a, and for a coefficient 1 the number of b's."""
    c, *weights = normal
    return c + 1 if c > 1 else sum(weights)


def test_violated_facet_is_the_most_violated_of_the_first_violated_form():
    rng = random.Random(21)
    for r in range(8):
        facets = quadric_facets(r)
        for _ in range(300):
            a, bs = rng.randint(-1, 11), [rng.randint(-2, 7) for _ in range(r)]
            slack = {n: facet_slack(n, a, bs) for n in facets}
            violated = [n for n in facets if slack[n] < 0]
            normal = cones._violated_facet(a, bs)
            if not violated:
                assert normal is None, (a, bs)
                continue
            form = min(map(facet_form, violated))
            assert normal in facets and facet_form(normal) == form, (a, bs, normal)
            assert slack[normal] == min(slack[n] for n in violated if facet_form(n) == form)


def quadric_queries(r, rng):
    """(a, bs): a sorted grid, exhaustive for a in -1..5 and b_i in -1..2, then 100
    seeded random queries in no order, a in -1..11 and b_i in -2..7."""
    for a in range(-1, 6):
        yield from ((a, bs) for bs in itertools.combinations_with_replacement((2, 1, 0, -1), r))
    for _ in range(100):
        yield rng.randint(-1, 11), [rng.randint(-2, 7) for _ in range(r)]


def test_quadric_rule_agrees_with_the_simplex_and_never_calls_it(monkeypatch):
    monkeypatch.setattr(cones, "solve_nonneg_combination", refuse_the_simplex)
    rng = random.Random(5)
    forms = set()
    for r in range(8):
        cone = cones.quadric_cone(r)
        for a, bs in quadric_queries(r, rng):
            v = (a, *(-b for b in bs))
            res = cone_membership(cone, v)
            assert res.is_member == (solve_nonneg_combination(cone.generators, v)[0] == "witness")
            if not res.is_member:
                forms.add(facet_form(res.certificate))
    assert forms == {0, 1, 2, 3, 4}
    # a member with a non-integral coefficient is the decomposition of twice the query
    res = cone_membership(cones.quadric_cone(3), (Fraction(3, 2), -1, 0, 0))
    assert res.is_member and res.D == 2


def test_broken_quadric_rule_raises_internal_error(monkeypatch):
    cone = cones.quadric_cone(5)
    # 2a >= 2 sum b is a wrong facet: the conic 2l - l_1 - l_2 - l_3 violates it
    monkeypatch.setattr(cones, "_violated_facet", lambda a, bs: (2, 2, 2, 2, 2, 2))
    with pytest.raises(InternalError, match="certificate"):
        cone_membership(cone, (3, -1, -1, -1, -1, -1))
    monkeypatch.undo()
    decompose = cones.quadric_curve_decompose
    monkeypatch.setattr(cones, "quadric_curve_decompose",
                        lambda a, bs: {**decompose(a, bs), ("line", 0): 1})
    with pytest.raises(InternalError, match="witness"):
        cone_membership(cone, (5, -1, -1, -1, 0, 0))


def test_quadric_cone_refuses_more_than_seven_points():
    with pytest.raises(InputError, match="at most 7 points"):
        cones.quadric_cone(8)


def test_quadric_cone_refuses_a_negative_point_count():
    with pytest.raises(InputError, match="need r >= 0"):
        cones.quadric_cone(-1)


# ---------------------------------------------------------------------------
# three-cycles on blown-up G(2,5)

def test_g25_threecycle_grid_resums():
    for a21 in range(4):
        for a3 in range(4):
            for bs in itertools.product(range(4), repeat=3):
                if 2 * a21 + a3 >= sum(bs):
                    terms = cones.g25_threecycle_decompose(a21, a3, bs)
                    assert g25_resum(terms, 3) == (a21, a3, *bs)
                    assert all(c > 0 for c in terms.values())
                else:
                    with pytest.raises(DecompositionError):
                        cones.g25_threecycle_decompose(a21, a3, bs)


def test_g25_work_does_not_grow_with_the_coefficients():
    big = 10 ** 12
    started = time.perf_counter()
    # pairs across points; one unit left with a3 = 0; spare units for s3
    cases = [(big, 0, [big - 1, big, 1]), (big, 0, [big, big - 1]),
             (big, big, [big + 1, big + 1, big - 3, 1])]
    for a21, a3, bs in cases:
        terms = cones.g25_threecycle_decompose(a21, a3, bs)
        assert g25_resum(terms, len(bs)) == (a21, a3, *bs) and len(terms) <= 12
    assert time.perf_counter() - started < 1


def test_g25_threecycle_rejects_bad_input():
    with pytest.raises(InputError):
        cones.g25_threecycle_decompose(1, 1, [0, 0, 0, 0, 0])
    with pytest.raises(DecompositionError):
        cones.g25_threecycle_decompose(-1, 0, [0])


# ---------------------------------------------------------------------------
# the r = 3 class outside the span on G(2,4)

def test_g24_nonspan_witness():
    cls, result = cones.g24_nonspan_witness()
    assert cones.blowup_cycle_vector(cls) == (1, 1, -1, -1, -1)
    assert result.verdict == "not-in-span"
    cone = cones.g24_sgen_cone(3)
    phi = result.certificate
    for gen in cone.generators:
        assert sum(p * g for p, g in zip(phi, gen)) >= 0
    assert sum(p * v for p, v in zip(phi, (1, 1, -1, -1, -1))) < 0


def test_g24_same_class_two_points_in_span():
    res = cone_membership(cones.g24_sgen_cone(2), (1, 1, -1, -1))
    assert res.is_member
    cone = cones.g24_sgen_cone(2)
    total = [0] * 4
    for x, gen in zip(res.witness, cone.generators):
        total = [t + x * g for t, g in zip(total, gen)]
    assert tuple(total) == (1, 1, -1, -1)


def test_sgen_cycle_cone_membership_roundtrip():
    bctx = BlowupCtx(G24, 2)
    cls = blow_class(bctx, "dim", 2,
                     chow.sigma(G24, (2,)).scale(2) + chow.sigma(G24, (1, 1)), (1, 1))
    cone = cones.sgen_cycle_cone(G24, 2, 2)
    res = cone_membership(cone, cones.blowup_cycle_vector(cls))
    assert res.is_member


def test_sgen_cycle_cone_refuses_a_negative_point_count():
    for build in (lambda: cones.sgen_cycle_cone(G25, 2, -1), lambda: cones.g24_sgen_cone(-1)):
        with pytest.raises(InputError, match="need r >= 0"):
            build()


def test_g24_sgen_cone_keeps_the_hand_built_generator_order():
    # s2, s2 - E_i, s11, s11 - E_i, E_i: the order the certificates were computed in
    for r in range(8):
        gens = []
        for idx in (0, 1):
            base = [0] * (2 + r)
            base[idx] = 1
            gens.append(tuple(base))
            for i in range(r):
                gens.append(tuple(base[:2 + i] + [-1] + base[3 + i:]))
        gens += [tuple([0] * (2 + i) + [1] + [0] * (r - 1 - i)) for i in range(r)]
        assert cones.g24_sgen_cone(r).generators == tuple(gens)
