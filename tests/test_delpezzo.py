import hashlib
import os
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grasseff import delpezzo, jsonio
from grasseff.delpezzo import FANO_TABLE, admissible_q_interval, build_D_delta, \
    d_squared_symbolic, fano_case, gamma_classes, h0_count, kernel_classes, \
    lattice_class, qprime_of, sample_admissible_q, sample_effective_classes, verify_case, \
    verify_nef_conditions
from grasseff.errors import InputError
from grasseff.radicals import RadicalNumber


def test_pair_refuses_a_class_from_another_lattice():
    D = build_D_delta(4, Fraction(1, 10))
    assert lattice_class(4, h=2, e=[1, 0, 0, 0]) == (2, (1, 0, 0, 0), (0,) * 6)
    assert D.pair(lattice_class(4, h=1)).sign() > 0
    for N in (3, 5):
        with pytest.raises(InputError):
            D.pair(lattice_class(N, h=1))
    with pytest.raises(InputError):
        lattice_class(4, h=Fraction(1, 3))
    with pytest.raises(InputError):
        lattice_class(4, e=[1, 0, 0])
    with pytest.raises(InputError):
        lattice_class(9)


def test_qprime_and_interval():
    assert qprime_of(4, Fraction(1, 9)) == 0
    lo, hi = admissible_q_interval(4)
    assert lo == Fraction(4, 45) and hi == Fraction(1, 9)
    for N in range(1, 9):
        lo, hi = admissible_q_interval(N)
        assert 0 <= lo < hi == Fraction(1, 9)  # N = 8 starts at 0


def test_d_squared_symbolic_vanishes():
    for N in range(1, 9):
        assert d_squared_symbolic(N) == (0, 0)


def test_d_squared_numeric_vanishes():
    for N in range(1, 9):
        for q in sample_admissible_q(N, 3):
            assert build_D_delta(N, q).square() == 0


def test_build_rejects_boundary_q():
    lo, hi = admissible_q_interval(3)
    for q in (lo, hi, lo - 1, hi + 1):
        with pytest.raises(InputError):
            build_D_delta(3, q)


def test_nef_conditions_pass_on_admissible_samples():
    for N in range(1, 9):
        for q in sample_admissible_q(N, 3):
            report = verify_nef_conditions(N, q)
            assert report["ok"], report
            assert report["assumptions"] == ["SHGH"]
            names = [c["name"] for c in report["checks"]]
            assert "9q < 1" in names and "9q' < 1" in names


def test_table_has_eight_rows_with_known_degrees():
    assert len(FANO_TABLE) == 8
    degrees = sorted(c.degree for c in FANO_TABLE)
    assert degrees == [1, 2, 3, 4, 5, 6, 6, 7]
    assert fano_case("grass25").N == 4
    with pytest.raises(InputError):
        fano_case("nope")


def test_kernel_and_gamma_shapes():
    case = fano_case("p2xp2")
    kern = kernel_classes(case)
    assert len(kern) == 3 * 2  # e_i - e_j over N = 3 points
    gamma, dropped = gamma_classes(case)
    assert dropped == []
    assert len(gamma) == 3 * 7 + 3 * 7
    sext, dropped = gamma_classes(fano_case("sextic"))
    assert dropped == [3, 4]
    assert len(sext) == 1


def test_verify_all_cases_on_admissible_samples():
    for case in FANO_TABLE:
        for q in sample_admissible_q(case.N, 2):
            report = verify_case(case.name, q)
            assert report["ok"], report
            assert report["assumptions"] == ["SHGH"]
            statuses = {c["status"] for c in report["checks"]}
            assert statuses == {"pass"}


# One line per Fano report record: row, t, report kind and the sha256 of the
# report's canonical JSON, at q = lo + (hi - lo) t/17 for t = 1..16. The
# records, concatenated in file order, hash to f14bc876...b296, the single
# digest this list replaced.
FANO_REPORTS = os.path.join(os.path.dirname(__file__), "fano_reports.sha256")


def _fano_records():
    for case in FANO_TABLE:
        lo, hi = admissible_q_interval(case.N)
        for t in range(1, 17):
            q = lo + (hi - lo) * Fraction(t, 17)
            yield (case.name, t, "verify_case"), verify_case(case.name, q)
            yield (case.name, t, "verify_nef_conditions"), verify_nef_conditions(case.N, q)


def test_reports_are_pinned_byte_for_byte():
    pinned = {}
    with open(FANO_REPORTS) as fh:
        for line in fh:
            name, t, kind, digest = line.split()
            pinned[(name, int(t), kind)] = digest
    keys, changed = [], []
    for key, report in _fano_records():
        keys.append(key)
        digest = hashlib.sha256(jsonio.canonical_dumps(report).encode()).hexdigest()
        if pinned.get(key) != digest:
            changed.append("%s t=%d %s" % key)
    assert not changed, "reports differ from their pinned bytes: " + "; ".join(changed)
    assert keys == list(pinned)


# The sign-decided checks of a report, recomputed class by class with D.pair;
# the report reads each distinct pairing key once from a per-report table.
RATIONAL_CHECKS = {"D.D == 0", "9q < 1", "9q' < 1", "D.D == 0 identically in q"}


def _pairing_oracle(case, D):
    """check name -> (status, value) from D.pair(c).sign() and repr(D.pair(c)), per class."""
    samples = sample_effective_classes(case.N)
    gamma, _ = gamma_classes(case)

    def entry(ok, val=None):
        return ("pass" if ok else "fail"), (None if val is None else repr(val))
    out = {"D.h > 0": entry(D.pair(samples[0]).sign() > 0)}
    for a in range(10):
        label = "e%d" % (a + 1) if a < case.N else "f%d" % (a - case.N + 1)
        out["D.%s > 0" % label] = entry(D.pair(samples[a + 1]).sign() > 0)
    for idx, c in enumerate(kernel_classes(case)):
        val = D.pair(c)
        out["kernel[%d]: D.C == 0" % idx] = entry(val.sign() == 0, val)
    for idx, c in enumerate(gamma):
        val = D.pair(c)
        out["gamma[%d]: D.C > 0" % idx] = entry(val.sign() > 0, val)
    for idx, c in enumerate(samples):
        val = D.pair(c)
        s = val.sign()
        ok = s > 0 or (s == 0 and delpezzo._is_rational_multiple_of_projection(c))
        out["effective sample[%d]: D.C >= 0" % idx] = entry(ok, val)
    return out


def test_every_check_matches_the_per_class_pairing():
    bad = []
    for case in FANO_TABLE:
        lo, hi = admissible_q_interval(case.N)
        for t in range(1, 17):
            q = lo + (hi - lo) * Fraction(t, 17)
            oracle = _pairing_oracle(case, build_D_delta(case.N, q))
            seen = set()
            for report in (verify_case(case.name, q), verify_nef_conditions(case.N, q)):
                for check in report["checks"]:
                    name = check["name"]
                    if name in RATIONAL_CHECKS:
                        continue
                    seen.add(name)
                    got = (check["status"], check.get("value"))
                    if got != oracle.get(name):
                        bad.append("%s t=%d %s: %r, per class %r"
                                   % (case.name, t, name, got, oracle.get(name)))
            missing = set(oracle) - seen
            if missing:
                bad.append("%s t=%d: no check named %s" % (case.name, t, sorted(missing)))
    assert not bad, "; ".join(bad[:10])


def test_samples_with_one_pairing_key_keep_their_own_verdicts():
    D = build_D_delta(4, Fraction(1, 10))
    projection = lattice_class(4)                  # 0, a multiple of the projection
    kernel_like = lattice_class(4, h=1, e=[-3, 0, 0, 0])
    assert delpezzo._pairing_key(projection) == delpezzo._pairing_key(kernel_like) == (0, 0, 0)
    for samples, statuses in (([projection, kernel_like], ["pass", "fail"]),
                              ([kernel_like, projection], ["fail", "pass"])):
        report = delpezzo.check_lemma65(D, [], [], samples)
        got = [c["status"] for c in report["checks"] if c["name"].startswith("effective")]
        assert got == statuses
        assert not report["ok"]


def test_a_wrong_lattice_class_is_refused_after_one_with_its_pairing_key():
    D = build_D_delta(4, Fraction(1, 10))
    for other in (lattice_class(5, h=1), lattice_class(3, h=1)):
        assert delpezzo._pairing_key(other) == delpezzo._pairing_key(lattice_class(4, h=1))
        for gens in (([lattice_class(4, h=1), other], [], []),
                     ([], [lattice_class(4, h=1)], [other]),
                     ([], [], [lattice_class(4, h=1), other])):
            with pytest.raises(InputError, match="different lattices"):
                delpezzo.check_lemma65(D, *gens)


@pytest.mark.parametrize("N", [0, 9, 10, -1, True, 4.0, "4"])
def test_lattice_rank_outside_one_to_eight_is_refused(N):
    for call in (lambda: admissible_q_interval(N), lambda: build_D_delta(N, Fraction(1, 10)),
                 lambda: verify_nef_conditions(N, Fraction(1, 10)),
                 lambda: sample_admissible_q(N), lambda: lattice_class(N)):
        with pytest.raises(InputError, match="N must be between 1 and 8"):
            call()


@pytest.mark.parametrize("q", [0.1, True, False, "1/10", None, Decimal("0.1")])
def test_q_must_be_an_int_or_a_fraction(q):
    with pytest.raises(InputError, match="q must be an int or a Fraction"):
        build_D_delta(3, q)
    with pytest.raises(InputError, match="q must be an int or a Fraction"):
        verify_case("cubic", q)
    with pytest.raises(InputError, match="q must be an int or a Fraction"):
        verify_nef_conditions(3, q)


def test_int_and_fraction_q_are_admitted():
    with pytest.raises(InputError, match="q outside the open interval"):
        build_D_delta(3, 0)
    assert build_D_delta(3, Fraction(1, 10)).q == Fraction(1, 10)


def test_sextic_report_notes_dropped_indices():
    q = sample_admissible_q(8, 1)[0]
    report = verify_case("sextic", q)
    assert report["dropped_gamma_indices"] == [3, 4]
    assert report["notes"]


def test_sample_effective_classes_shape():
    out = sample_effective_classes(4)
    assert len(out) == 1 + 10 + 45


def test_h0_count():
    assert h0_count(3, 5) == {"h0": 7, "residual_dim": 1}
    with pytest.raises(InputError):
        h0_count(2, 5)
    with pytest.raises(InputError):
        h0_count(4, 9)


def test_kernel_pairings_vanish_gamma_positive():
    for case in FANO_TABLE:
        q = sample_admissible_q(case.N, 1)[0]
        D = build_D_delta(case.N, q)
        for c in kernel_classes(case):
            assert D.pair(c).is_zero()
        gamma, _ = gamma_classes(case)
        for c in gamma:
            assert D.pair(c).sign() > 0


def test_zero_pairing_on_a_sample_passes_only_for_the_rational_projection():
    D = build_D_delta(4, Fraction(1, 10))
    # D.(h - 3e_1) == 0, but h - 3e_1 is no multiple of h - (1/3) sum e_i
    kernel_like = lattice_class(4, h=1, e=[-3, 0, 0, 0])
    assert D.pair(kernel_like).is_zero()
    assert not delpezzo.check_lemma65(D, [], [], [kernel_like])["ok"]
    assert delpezzo.check_lemma65(D, [], [], [lattice_class(4)])["ok"]
    assert delpezzo._is_rational_multiple_of_projection(lattice_class(4, h=-3, e=[1] * 4))
    assert not delpezzo._is_rational_multiple_of_projection(
        lattice_class(4, h=3, e=[-1] * 4, f=[0, 1, 0, 0, 0, 0]))


# --- reference: the two-radical ring pairing that D.pair and D.square replaced


@dataclass(frozen=True)
class RingRadical:
    """a + b*sqrt(q) + c*sqrt(qp) with the ring operations the old pairing used."""

    a: Fraction
    b: Fraction
    c: Fraction
    q: Fraction
    qp: Fraction

    def __sub__(self, other):
        assert (self.q, self.qp) == (other.q, other.qp), "mixed radicand sessions"
        return RingRadical(self.a - other.a, self.b - other.b, self.c - other.c,
                           self.q, self.qp)

    def __mul__(self, other):
        if isinstance(other, RingRadical):
            assert (self.q, self.qp) == (other.q, other.qp), "mixed radicand sessions"
            assert self.b * other.c + self.c * other.b == 0, "sqrt(q*q') cross term"
            return RingRadical(
                self.a * other.a + self.b * other.b * self.q + self.c * other.c * self.qp,
                self.a * other.b + self.b * other.a,
                self.a * other.c + self.c * other.a,
                self.q, self.qp)
        f = Fraction(other)
        return RingRadical(self.a * f, self.b * f, self.c * f, self.q, self.qp)

    __rmul__ = __mul__


def ring_D(N, q):
    """The old radical-valued D: entries 1, -1/3 on e_i, -sqrt(q') on f_1, -sqrt(q) after."""
    q = Fraction(q)
    qp = qprime_of(N, q)

    def rad(a, b, c):
        return RingRadical(Fraction(a), Fraction(b), Fraction(c), q, qp)
    e = tuple(rad(Fraction(-1, 3), 0, 0) for _ in range(N))
    f = (rad(0, 0, -1),) + tuple(rad(0, -1, 0) for _ in range(9 - N))
    return rad(1, 0, 0), e, f


def ring_pairing(D, other):
    """The lattice pairing h.h - sum e.e - sum f.f of two (h, e, f) triples, in ring arithmetic."""
    (h, e, f), (h2, e2, f2) = D, other
    total = h * h2
    for x, y in zip(e + f, e2 + f2):
        total = total - x * y
    return total


def assert_pairing_matches(N, q, c):
    D = build_D_delta(N, q)
    ref = ring_pairing(ring_D(N, q), c)
    val = D.pair(c)
    assert (val.a, val.b, val.c, val.q, val.qp) == (ref.a, ref.b, ref.c, ref.q, ref.qp)
    assert repr(val) == repr(RadicalNumber(ref.a, ref.b, ref.c, ref.q, ref.qp))


def _row_classes(case):
    gamma, _ = gamma_classes(case)
    return kernel_classes(case) + gamma + sample_effective_classes(case.N)


def test_pairing_matches_ring_reference_on_every_row():
    for case in FANO_TABLE:
        lo, hi = admissible_q_interval(case.N)
        qs = sample_admissible_q(case.N, 5) + [lo + (hi - lo) * Fraction(t, 17)
                                               for t in (1, 6, 11, 16)]
        classes = _row_classes(case)
        for q in qs:
            for c in classes:
                assert_pairing_matches(case.N, q, c)
            square = ring_pairing(ring_D(case.N, q), ring_D(case.N, q))
            assert (square.b, square.c) == (0, 0)
            assert build_D_delta(case.N, q).square() == square.a == 0


@settings(max_examples=300, deadline=None)
@given(N=st.integers(1, 8), t=st.fractions(0, 1).filter(lambda t: 0 < t < 1),
       coeffs=st.lists(st.integers(-30, 30), min_size=11, max_size=11))
def test_pairing_matches_ring_reference_on_random_classes(N, t, coeffs):
    lo, hi = admissible_q_interval(N)
    q = lo + (hi - lo) * t
    c = lattice_class(N, h=coeffs[0], e=coeffs[1:N + 1], f=coeffs[N + 1:])
    assert_pairing_matches(N, q, c)
    square = ring_pairing(ring_D(N, q), ring_D(N, q))
    assert build_D_delta(N, q).square() == square.a and (square.b, square.c) == (0, 0)
