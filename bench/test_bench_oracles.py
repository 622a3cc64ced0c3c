"""The benchmark's oracles accept grasseff's answers and reject corrupted ones.

Each test runs a small version of a workload, checks that its answers pass,
then corrupts one answer and checks that the oracle rejects it.

    PYTHONPATH=src python -m pytest -q bench/test_bench_oracles.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402


def _answers(workload):
    return [workload.normalize(spec, op()) for spec, op in zip(workload.inputs, workload.ops)]


def _check(workload, answers):
    return workload.check(workload.inputs, answers)


def test_divisor_grid_rejects_flipped_verdict_and_certificate_sign():
    wl = workloads.DivisorGrid(seed=7, points_per_k=8)
    answers = _answers(wl)
    assert _check(wl, answers) == []

    flipped = list(answers)
    member, witness, cert, terms = flipped[0]
    flipped[0] = (not member, witness, cert, terms)
    assert _check(wl, flipped)

    i = next(i for i, a in enumerate(answers) if not a[0])
    member, witness, cert, terms = answers[i]
    j = next(j for j, x in enumerate(cert) if x != 0)
    bad_cert = tuple(-x if t == j else x for t, x in enumerate(cert))
    corrupted = list(answers)
    corrupted[i] = (member, witness, bad_cert, terms)
    assert _check(wl, corrupted)


class SmallBlowupCones(workloads.BlowupCones):
    QUADRIC_R = (3, 5)
    SGEN_SPACES = ((2, 4), (2, 5))
    SGEN_R = (1, 3)


def test_blowup_cones_answers_pass_and_flipped_verdict_fails():
    wl = SmallBlowupCones(seed=3, quadric_cones=1, threecycle_batches=1, fano_t=(5,))
    answers = _answers(wl)
    assert _check(wl, answers) == []

    for kind in ("sgen", "quadric"):
        i = next(i for i, spec in enumerate(wl.inputs) if spec[0] == kind)
        corrupted = list(answers)
        corrupted[i] = (answers[i][:-4] + (not answers[i][-4],) + answers[i][-3:])
        assert _check(wl, corrupted)


def _negated(value: str) -> str:
    a, b, q, c, qp = oracles.parse_value(value)
    return "%s + %s*sqrt(%s) + %s*sqrt(%s)" % (-a, -b, q, -c, qp)


def test_fano_sign_flip_is_rejected():
    from grasseff import delpezzo
    case = delpezzo.fano_case("cubic")
    lo, hi = oracles.fano_interval(case.N)
    q = (lo + hi) / 2
    spec = ("fano", case.name, case.N, str(q))
    answer = workloads.BlowupCones.normalize(spec, delpezzo.verify_case(case.name, q))
    assert workloads.BlowupCones.check([spec], [answer]) == []

    ok, checks = answer
    i = next(i for i, c in enumerate(checks) if c[0].startswith("gamma"))
    name, status, value = checks[i]
    flipped = checks[:i] + ((name, status, _negated(value)),) + checks[i + 1:]
    assert workloads.BlowupCones.check([spec], [(ok, flipped)])


def test_schubert_ring_rejects_structure_constant_off_by_one():
    wl = workloads.SchubertRing(seed=5, spaces=((2, 4), (2, 5)), rz_space=(2, 5))
    answers = _answers(wl)
    assert _check(wl, answers) == []

    target = ("product", 2, 5, (2, 0), (1, 1))
    i = wl.inputs.index(target)
    codim, terms = answers[i]
    nu, c = terms[0]
    corrupted = list(answers)
    corrupted[i] = (codim, ((nu, c + 1),) + terms[1:])
    assert _check(wl, corrupted)


def test_orbit_dims_rejects_dimension_off_by_one():
    wl = workloads.OrbitDims(seed=2, k=2, oracle_cases=((2, 1),))
    answers = _answers(wl)
    assert _check(wl, answers) == []

    i = next(i for i, spec in enumerate(wl.inputs) if spec[0] == "orbit")
    entries, back, dim = answers[i]
    corrupted = list(answers)
    corrupted[i] = (entries, back, dim + 1)
    assert _check(wl, corrupted)


def test_own_oracles_on_known_values():
    assert oracles.hook_degree(2, 2) == 2 and oracles.hook_degree(3, 3) == 42
    assert oracles.gaussian_binomial(4, 2, 2) == 35
    assert oracles.monk((1, 0), 2) == {(2, 0): 1, (1, 1): 1}
    # in P^3 = G(1, 4): f1 is fixed, f1 + g1 moves on a line, f2 + g2 is dense
    assert [oracles.orbit_dimension(p, 2) for p in (((1, 0),), ((1, 1),), ((2, 2),))] \
        == [0, 1, 3]
    assert oracles.sign_problem("> 0", (oracles.Fraction(-1), oracles.Fraction(1),
                                        oracles.Fraction(2), oracles.Fraction(0),
                                        oracles.Fraction(1))) is None
    assert oracles.sign_problem("== 0", (oracles.Fraction(-1), oracles.Fraction(1),
                                         oracles.Fraction(2), oracles.Fraction(0),
                                         oracles.Fraction(1)))
