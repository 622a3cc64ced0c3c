import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from grasseff import chow, cones, multiplicity, orbits, ring_io
from grasseff.cli import run_subcommand
from grasseff.errors import DecompositionError, InputError, InternalError
from grasseff.jsonio import MAX_DIGITS, canonical_dumps

# stdout of `grasseff verify`, byte for byte
VERIFY_STDOUT = Path(__file__).with_name("verify_stdout.json")


def run(capsys, *argv):
    code = run_subcommand(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


def test_degree(capsys):
    code, out, _ = run(capsys, "degree", "--k", "3", "--n", "6")
    assert code == 0 and out == {"degree": 42}


def test_degree_output_is_byte_canonical(capsys):
    run_subcommand(["degree", "--k", "2", "--n", "4"])
    first = capsys.readouterr().out
    run_subcommand(["degree", "--k", "2", "--n", "4"])
    assert capsys.readouterr().out == first == '{"degree":2}\n'


def test_mult(capsys):
    code, out, _ = run(capsys, "mult", "--k", "2", "--n", "5",
                       "--lambda", "2,1", "--mu", "3,3")
    assert code == 0 and out == {"multiplicity": 2}


@pytest.mark.parametrize("k, n", [(640, 1280), (320, 640), (60, 10 ** 1000 + 60)],
                         ids=["G(640,1280)", "G(320,640)", "G(60,10^1000+60)"])
def test_mult_refuses_work_over_the_price_cap(capsys, k, n):
    # lambda = (w/2)^(k/2) and mu the full box: one k x k block that needs det_bareiss
    # (the densest cell, lambda empty, is one product-formula block and answers 1)
    half = ",".join([str((n - k) // 2)] * (k // 2))
    full = ",".join([str(n - k)] * k)
    started = time.perf_counter()
    code, out, err = run(capsys, "mult", "--k", str(k), "--n", str(n), "--lambda", half, "--mu", full)
    assert code == 2 and out is None and time.perf_counter() - started < 1
    [msg] = json_lines(err)
    assert msg["error"].endswith("more than %d" % multiplicity.RZ_WORK_CAP)


@pytest.mark.parametrize("k, n", [(640, 1280), (60, 10 ** 1000 + 60)],
                         ids=["G(640,1280)", "G(60,10^1000+60)"])
def test_mult_answers_the_smooth_and_the_densest_cell(capsys, k, n):
    full = ",".join([str(n - k)] * k)
    for mu in ("0", full):
        started = time.perf_counter()
        code, out, _ = run(capsys, "mult", "--k", str(k), "--n", str(n), "--lambda", "0", "--mu", mu)
        assert code == 0 and out == {"multiplicity": 1} and time.perf_counter() - started < 1


def test_product(capsys):
    code, out, _ = run(capsys, "product", "--k", "2", "--n", "4", "--a", "1", "--b", "1")
    assert code == 0
    assert out["terms"] == [{"c": 1, "lambda": [2]}, {"c": 1, "lambda": [1, 1]}]


def test_pieri_and_giambelli(capsys):
    code, out, _ = run(capsys, "pieri", "--k", "2", "--n", "5", "--special", "1", "--mu", "2,1")
    assert code == 0 and len(out["terms"]) == 2
    code, out, _ = run(capsys, "giambelli", "--k", "2", "--n", "5", "--lambda", "2,1")
    assert code == 0
    assert sorted((m["sign"], tuple(m["sizes"])) for m in out["monomials"]) \
        == [(-1, (3,)), (1, (2, 1))]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "degree", "--k", "2")[0] == 2
    assert run(capsys, "mult", "--k", "2", "--n", "5", "--lambda", "x", "--mu", "1")[0] == 2
    assert run(capsys, "mult", "--k", "2", "--n", "5", "--lambda", "2,1", "--mu", "1,1")[0] == 2


def test_cone_check_exit_codes(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[1, 0], [0, 1]]))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"vector": ["2", "1/2"]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vector": ["-1", "0"]}))
    code, out, _ = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(good))
    assert code == 0 and out["verdict"] == "in-span" and out["witness"] == {"g0": "2", "g1": "1/2"}
    code, out, _ = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(bad))
    assert code == 3 and out["verdict"] == "not-in-span" and "certificate" in out
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(capsys, "cone", "check", "--generators", str(gens), "--class", str(broken))[0] == 2


def test_cone_sgen_nonspan_class(capsys, tmp_path):
    cls = {"k": 2, "n": 4, "grading": "dim", "m": 2,
           "terms": [{"lambda": [2], "c": 1}, {"lambda": [1, 1], "c": 1}],
           "exc": [1, 1, 1]}
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(cls))
    code, out, _ = run(capsys, "cone", "sgen", "--k", "2", "--n", "4", "--r", "3",
                       "--dim", "2", "--class", str(path))
    assert code == 3 and out == {"bound": 2, "bound_satisfied": False,
                                 "certificate": ["1", "1", "1", "1", "1"], "cycle_dim": 2,
                                 "k": 2, "n": 4, "r": 3, "verdict": "not-in-span"}
    cls["exc"] = [1, 1]
    path.write_text(json.dumps(cls))
    code, out, _ = run(capsys, "cone", "sgen", "--k", "2", "--n", "4", "--r", "2",
                       "--dim", "2", "--class", str(path))
    assert code == 0 and out["verdict"] == "in-span"


SGEN_CLASS = {"k": 2, "n": 4, "grading": "dim", "m": 2, "exc": [1], "terms": []}
SGEN_ARGS = ["cone", "sgen", "--k", "2", "--n", "4", "--r", "1", "--dim", "2"]

# (arguments, generator file, class file, the file refused, the reason printed after its
# name): the file refusals that no other test reaches
FILE_REFUSALS = {
    "non-integer k": (SGEN_ARGS, None, {**SGEN_CLASS, "k": "5/2"}, "class",
                      "'5/2' is not an integer"),
    "non-integer n": (SGEN_ARGS, None, {**SGEN_CLASS, "n": "9/2"}, "class",
                      "'9/2' is not an integer"),
    "non-integer m": (SGEN_ARGS, None, {**SGEN_CLASS, "m": "1/2"}, "class",
                      "'1/2' is not an integer"),
    "non-integer dim": (["cone", "check"], {"dim": "3/2", "generators": []}, [1, 1],
                        "generator", "'3/2' is not an integer"),
    "ragged generators": (["cone", "check"], [[1, 0], [0, 1, 2]], [1, 1], "generator",
                          "every generator needs 2 coordinates"),
    "other k and n": (SGEN_ARGS, None, {**SGEN_CLASS, "n": 5}, "class",
                      "k and n do not match --k 2 --n 4"),
}


@pytest.mark.parametrize("case", sorted(FILE_REFUSALS))
def test_malformed_file_exits_2_with_one_error_line(capsys, tmp_path, case):
    args, gens, cls, refused, reason = FILE_REFUSALS[case]
    paths = {"generator": tmp_path / "gens.json", "class": tmp_path / "cls.json"}
    argv = list(args)
    for (what, path), doc in zip(paths.items(), (gens, cls)):
        if doc is not None:
            path.write_text(json.dumps(doc))
            argv += ["--generators" if what == "generator" else "--class", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, None)
    assert err == canonical_dumps({"error": "malformed %s file %r: %s"
                                   % (refused, str(paths[refused]), reason)}) + "\n"


def test_cone_sgen_bound_only(capsys):
    code, out, _ = run(capsys, "cone", "sgen", "--k", "2", "--n", "5", "--r", "4", "--dim", "2")
    assert code == 0 and out["bound"] == 4 and out["bound_satisfied"] is True


# the stdout of `cone sgen` on G(2,4), G(2,5), G(3,6), --dim 1 and 2, r = 0..8,
# for the two class files of sgen_class_files, in that order: one record a line
SGEN_STDOUT = Path(__file__).with_name("cone_sgen_stdout.jsonl")


def sgen_class_files(ctx, cycle_dim, r):
    """One class inside the span (a witness) and one outside it (a certificate)."""
    sigmas = chow.basis(ctx, ctx.dim - cycle_dim)
    inside = [r + 1] + [j + 1 for j in range(1, len(sigmas))]
    exc = [(1, 2, -1, 0)[i % 4] for i in range(r)]
    outside, out_exc = [1] * len(sigmas), [len(sigmas) + 1] + [1] * (r - 1)
    if r == 0:
        outside[0], out_exc = -1, []
    for coeffs, e in ((inside, exc), (outside, out_exc)):
        yield {"k": ctx.k, "n": ctx.n, "grading": "dim", "m": cycle_dim, "exc": e,
               "terms": [{"lambda": list(lam.parts), "c": c} for lam, c in zip(sigmas, coeffs)]}


def test_cone_sgen_stdout_is_pinned(capsys, tmp_path):
    expected = SGEN_STDOUT.read_text().splitlines(keepends=True)
    assert len(expected) == 108
    path = tmp_path / "cls.json"
    records = iter(expected)
    for k, n in ((2, 4), (2, 5), (3, 6)):
        for cycle_dim in (1, 2):
            for r in range(9):
                docs = sgen_class_files(chow.GrassCtx(k, n), cycle_dim, r)
                for (which, code), doc in zip((("inside", 0), ("outside", 3)), docs):
                    path.write_text(json.dumps(doc))
                    argv = ["cone", "sgen", "--k", str(k), "--n", str(n), "--r", str(r),
                            "--dim", str(cycle_dim), "--class", str(path)]
                    got = (run_subcommand(argv), capsys.readouterr().out)
                    assert got == (code, next(records)), \
                        ("k=%d n=%d r=%d dim=%d" % (k, n, r, cycle_dim), which, doc["terms"],
                         doc["exc"])


# the stdout of `cone sgen` on the first four seeded non-members of
# test_cone_sgen_prints_the_rule_certificate, whose Lemma 4.2 certificate differs from
# the simplex's on the same cone
SGEN_RULE_CERTIFICATES = [
    '{"bound":2,"bound_satisfied":true,"certificate":["1","0","0"],"cycle_dim":1,"k":2,'
    '"n":4,"r":2,"verdict":"not-in-span"}\n',
    '{"bound":4,"bound_satisfied":true,"certificate":["1","0","0","0","0","0"],"cycle_dim":2,'
    '"k":2,"n":5,"r":4,"verdict":"not-in-span"}\n',
    '{"bound":2,"bound_satisfied":true,"certificate":["1","0"],"cycle_dim":1,"k":2,"n":4,'
    '"r":1,"verdict":"not-in-span"}\n',
    '{"bound":12,"bound_satisfied":true,"certificate":["1","0","0"],"cycle_dim":1,"k":3,'
    '"n":6,"r":2,"verdict":"not-in-span"}\n',
]


def test_cone_sgen_prints_the_rule_certificate(capsys, tmp_path):
    rng = random.Random(28)
    path = tmp_path / "cls.json"
    for line in SGEN_RULE_CERTIFICATES:
        while True:
            k, n = rng.choice(((2, 4), (2, 5), (3, 6)))
            ctx = chow.GrassCtx(k, n)
            cycle_dim, r = rng.choice((1, 2)), rng.randint(1, 4)
            sigmas = chow.basis(ctx, ctx.dim - cycle_dim)
            a = [rng.randint(-1, 3) for _ in sigmas]
            b = [rng.randint(-1, 4) for _ in range(r)]
            cone = cones.sgen_cycle_cone(ctx, cycle_dim, r)
            v = (*a, *(-x for x in b))
            rule = cones.cone_membership(cone, v)
            if not rule.is_member and \
                    cones.cone_membership(replace(cone, rule=None), v).certificate \
                    != rule.certificate:
                break
        path.write_text(json.dumps({
            "k": k, "n": n, "grading": "dim", "m": cycle_dim, "exc": b,
            "terms": [{"lambda": list(lam.parts), "c": c} for lam, c in zip(sigmas, a)]}))
        argv = ["cone", "sgen", "--k", str(k), "--n", str(n), "--r", str(r),
                "--dim", str(cycle_dim), "--class", str(path)]
        assert (run_subcommand(argv), capsys.readouterr().out) == (3, line), (k, n, a, b)
        assert json.loads(line)["certificate"] == [str(x) for x in rule.certificate]


def test_orbits_list_and_check(capsys):
    code, out, _ = run(capsys, "orbits", "list", "--k", "2", "--dim", "2")
    assert code == 0
    dims = {tuple(map(tuple, rec["pairs"])): rec["dimension"] for rec in out["orbits"]}
    assert dims[((1, 2), (2, 1))] == 4
    code, out, _ = run(capsys, "orbits", "check", "--k", "2")
    assert code == 0 and all(rep["agree"] for rep in out["reports"])
    started = time.perf_counter()
    code, out, err = run(capsys, "orbits", "check", "--k", "4")
    assert code == 2 and out is None and time.perf_counter() - started < 2
    assert len(err.splitlines()) == 1 and "50000" in json.loads(err)["error"]
    code, out, err = run(capsys, "orbits", "check", "--k", "-2")
    assert code == 2 and out is None and "--k" in json.loads(err)["error"]


# stdout of `orbits list --k 4 --dim d`: one printed orbit record per line, in order
ORBITS_LIST = {("--dim", str(dim)): Path(__file__).with_name("orbits_list_k4_dim%d.jsonl" % dim)
               for dim in (2, 4)}


@pytest.mark.parametrize("argv", sorted(ORBITS_LIST))
def test_orbits_list_stdout_is_pinned(capsys, argv):
    assert run_subcommand(["orbits", "list", "--k", "4", *argv]) == 0
    out = capsys.readouterr().out
    pinned = ORBITS_LIST[argv].read_text().splitlines()
    printed = [canonical_dumps(record) for record in json.loads(out)["orbits"]]
    for i, (line, want) in enumerate(itertools.zip_longest(printed, pinned)):
        pairs = json.loads(want or line)["pairs"]
        assert line == want, "orbit %d, pairs %s: printed %s, pinned %s" % (i, pairs, line, want)
    assert out == '{"dim":%s,"k":4,"orbits":[%s]}\n' % (argv[1], ",".join(pinned))


def test_orbits_list_refuses_k8_dim3_before_enumerating(capsys):
    # its 44,016 orbits would build 44,016 x 81 incidence entries
    assert orbits.orbit_count(8, 3) * 9 ** 2 == 3_565_296 > orbits.ORBIT_CAP
    started = time.perf_counter()
    code, out, err = run(capsys, "orbits", "list", "--k", "8", "--dim", "3")
    assert code == 2 and out is None and time.perf_counter() - started < 1
    assert json.loads(err)["error"].endswith("more than %d incidence entries" % orbits.ORBIT_CAP)


@pytest.mark.parametrize("argv", [("--k", "7", "--dim", "3"), ("--k", "60", "--dim", "1"),
                                  ("--k", "6", "--dim", "4"),
                                  ("--k", "100000", "--dim", "0"), ("--k", "9" * 1500, "--dim", "0")])
def test_orbits_list_refuses_work_over_the_listing_cap(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, "orbits", "list", *argv)
    assert code == 2 and out is None and time.perf_counter() - started < 1
    [msg] = json_lines(err)
    assert msg["error"].endswith("more than %d incidence entries" % orbits.ORBIT_CAP)


def test_orbits_list_has_no_s_option(capsys):
    code, out, err = run(capsys, "orbits", "list", "--k", "1", "--dim", "1", "--s", "1")
    assert code == 2 and out is None
    [msg] = json_lines(err)
    assert "--s" in msg["error"]


def test_orbits_check_exits_4_when_an_orbit_dimension_is_wrong(capsys, monkeypatch):
    real = orbits.orbit_dimension
    monkeypatch.setattr(orbits, "orbit_dimension", lambda rep: real(rep) + 1)
    code, out, _ = run(capsys, "orbits", "check", "--k", "2")
    assert code == 4 and not all(rep["agree"] for rep in out["reports"])


def test_cone_sgen_refuses_a_cone_over_the_cap_before_building_it(capsys, tmp_path):
    # G(2,4), --dim 1 has one Schubert class: 2r + 1 generators of r + 1 coordinates, so
    # r = 446 is the largest r under the cap; the pinned r <= 8 grid needs 260 at most
    assert (2 * 446 + 1) * 447 <= cones.SGEN_CAP < (2 * 447 + 1) * 448
    path = tmp_path / "cls.json"
    for r in (447, 1600):
        path.write_text(json.dumps({"k": 2, "n": 4, "grading": "dim", "m": 1, "exc": [1] * r,
                                    "terms": [{"lambda": [2, 1], "c": r + 1}]}))
        started = time.perf_counter()
        code, out, err = run(capsys, "cone", "sgen", "--k", "2", "--n", "4", "--r", str(r),
                             "--dim", "1", "--class", str(path))
        assert code == 2 and out is None and time.perf_counter() - started < 1, r
        assert json_lines(err)[-1]["error"].endswith("more than %d generator entries"
                                                      % cones.SGEN_CAP)


def test_degree_is_priced_by_its_digits_and_cone_sgen_is_not(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "degree", "--k", "2", "--n", "1000000")
    assert code == 2 and out is None and time.perf_counter() - started < 1
    assert json_lines(err)[-1]["error"].endswith(
        "the degree is at most 2^1999996, more than %d digits" % MAX_DIGITS)
    started = time.perf_counter()
    code, out, _ = run(capsys, "cone", "sgen", "--k", "2", "--n", "10000", "--r", "1",
                       "--dim", "1")
    assert code == 0 and time.perf_counter() - started < 1
    assert out["bound"] == math.comb(10000, 2) - 19996 + 1 == 49975005
    for argv, expected in (
            (("degree", "--k", "1", "--n", "1000000000"), {"degree": 1}),
            (("degree", "--k", "999999", "--n", "1000000"), {"degree": 1}),
            (("degree", "--k", "10", "--n", "20"),
             {"degree": 599868742615440724911356453304513631101279740967209774643120000})):
        started = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == expected and time.perf_counter() - started < 1
    code, out, _ = run(capsys, "cone", "sgen", "--k", "10", "--n", "20", "--r", "1", "--dim", "1")
    assert code == 0 and out["bound"] == 184657


@pytest.mark.parametrize("k", [527, 1500])
def test_cone_sgen_answers_curve_bounds_whose_degree_is_refused(capsys, k):
    assert run(capsys, "degree", "--k", str(k), "--n", str(2 * k))[0] == 2
    started = time.perf_counter()
    code, out, _ = run(capsys, "cone", "sgen", "--k", str(k), "--n", str(2 * k), "--r", "1",
                       "--dim", "1")
    assert code == 0 and time.perf_counter() - started < 1
    assert out["bound"] == math.comb(2 * k, k) - k * k + 1


def test_tall_boxes_answer_without_a_recursion_per_row(capsys, tmp_path):
    # k = 1100 rows is past the interpreter's recursion limit: giambelli expands only the
    # nonzero rows, and the codim kw - 2 basis of the span cone is enumerated row by row
    code, out, _ = run(capsys, "giambelli", "--k", "1100", "--n", "2200", "--lambda", "1")
    assert code == 0 and out == {"k": 1100, "lambda": [1],
                                 "monomials": [{"sign": 1, "sizes": [1]}], "n": 2200}
    lam = [1100] * 1099 + [1098]
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({"k": 1100, "n": 2200, "grading": "dim", "m": 2, "exc": [1],
                                "terms": [{"lambda": lam, "c": 1}]}))
    code, out, _ = run(capsys, "cone", "sgen", "--k", "1100", "--n", "2200", "--r", "1",
                       "--dim", "2", "--class", str(path))
    assert code == 0 and out["verdict"] == "in-span" and out["bound_satisfied"]
    assert out["witness"] == {"s(%s)-E1" % ",".join(map(str, lam)): "1"}


def test_cone_sgen_refuses_a_bound_too_long_to_print(capsys):
    code, out, err = run(capsys, "cone", "sgen", "--k", "10000", "--n", "20000", "--r", "1",
                         "--dim", "2")
    assert code == 2 and out is None
    assert "more than %d digits" % MAX_DIGITS in json_lines(err)[-1]["error"]


@pytest.mark.parametrize("dim", ["1", "2"])
def test_cone_sgen_refuses_a_huge_binomial_before_computing_it(capsys, dim):
    started = time.perf_counter()
    code, out, err = run(capsys, "cone", "sgen", "--k", "200000", "--n", "400000", "--r", "1",
                         "--dim", dim)
    assert code == 2 and out is None and time.perf_counter() - started < 1
    assert "more than %d digits" % MAX_DIGITS in json_lines(err)[-1]["error"]


def test_product_expands_the_operand_with_fewer_parts(capsys):
    for a, b in (("4,4,4,4,4,4,4,4", "1"), ("1", "4,4,4,4,4,4,4,4")):
        started = time.perf_counter()
        code, _, _ = run(capsys, "product", "--k", "8", "--n", "16", "--a", a, "--b", b)
        assert code == 0 and time.perf_counter() - started < 2
    run_subcommand(["product", "--k", "8", "--n", "16", "--a", "4,4,4,4,4,4,4,4", "--b", "1"])
    assert capsys.readouterr().out == \
        '{"codim":33,"k":8,"n":16,"terms":[{"c":1,"lambda":[5,4,4,4,4,4,4,4]}]}\n'


def test_delpezzo_verify(capsys):
    code, out, _ = run(capsys, "delpezzo", "verify", "--case", "grass25", "--q", "1/10")
    assert code == 0 and out["ok"] is True and out["assumptions"] == ["SHGH"]
    assert run(capsys, "delpezzo", "verify", "--case", "grass25", "--q", "1/3")[0] == 2
    assert run(capsys, "delpezzo", "verify", "--case", "nope", "--q", "1/10")[0] == 2


def test_verify_both_names(capsys):
    expected = VERIFY_STDOUT.read_text()
    for name in ("verify", "verify-paper"):
        assert run_subcommand([name]) == 0
        assert capsys.readouterr().out == expected
    report = json.loads(expected)
    assert report["ok"] is True and report["failed"] == []


def test_export_ring_needs_out_and_is_never_read_back(capsys, tmp_path):
    assert run(capsys, "export-ring", "--k", "2", "--n", "4")[0] == 2
    out_path = tmp_path / "ring.json"
    code, out, _ = run(capsys, "export-ring", "--k", "2", "--n", "4", "--out", str(out_path))
    assert code == 0 and out == {"basis_size": 6, "path": str(out_path)}
    # an exported table is never read back: a hand-edited sigma1*sigma1 = 7*sigma2 is ignored
    ring = json.loads(out_path.read_text())
    entry = next(rec for rec in ring["products"] if rec["a"] == [1] and rec["b"] == [1])
    entry["terms"] = [{"c": 7, "lambda": [2]}]
    out_path.write_text(json.dumps(ring))
    code, out, _ = run(capsys, "product", "--k", "2", "--n", "4", "--a", "1", "--b", "1")
    assert code == 0
    assert out["terms"] == [{"c": 1, "lambda": [2]}, {"c": 1, "lambda": [1, 1]}]


def assert_usage_error_naming(err, path):
    lines = err.splitlines()
    assert len(lines) == 1
    msg = json.loads(lines[0])
    assert lines[0] == json.dumps(msg, sort_keys=True, separators=(",", ":"))
    assert str(path) in msg["error"] and "zero denominator" in msg["error"]


def test_zero_denominator_in_generator_file(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([["1/0", "1"], ["0", "1"]]))
    cls = tmp_path / "v.json"
    cls.write_text(json.dumps({"vector": ["1", "1"]}))
    code, out, err = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(cls))
    assert code == 2 and out is None
    assert_usage_error_naming(err, gens)


def test_zero_denominator_in_class_file(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[1, 0], [0, 1]]))
    cls = tmp_path / "v.json"
    cls.write_text(json.dumps({"vector": ["1", "3/0"]}))
    code, out, err = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(cls))
    assert code == 2 and out is None
    assert_usage_error_naming(err, cls)


def test_huge_exponent_coordinate_is_refused_quickly(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[1, 0], [0, 1]]))
    cls = tmp_path / "v.json"
    cls.write_text(json.dumps({"vector": ["1e10000000", "1"]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(cls))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out is None
    msg = json.loads(err)["error"]
    assert str(cls) in msg and "more than 4300 digits" in msg


def test_huge_exponent_q_is_refused_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "delpezzo", "verify", "--case", "grass25", "--q", "1e100000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out is None and "--q" in json.loads(err)["error"]


# sha256 of `export-ring` output, pinned so that a faster product
# path has to give the same structure constants byte for byte
RING_DIGESTS = {
    (3, 8): "ab84091e773baff651a4b456586e47b85603938ee5cb6bf522fed92fc4913bdb",
    (3, 9): "622744a18e0ea407bc37511daeb74b3ff91916fe7bc9c03aebe5b3af879b9c9f",
    (4, 8): "950fffbe17e057a94196dbf494b004e1b409b0413eab64291e5b59183829e659",
    (4, 9): "96e5e288cb9076d7a2f7ac6a977e51532b40e9ecdff2e31d9c6129eed0b02ab0",
}
# "k n block sha256" per block of those files: "basis", or "m1,m2" for the products of
# grades m1 and m2, each printed product as in the file, joined by commas
RING_BLOCKS = Path(__file__).with_name("ring_blocks.sha256")


@pytest.mark.parametrize("k,n", sorted(RING_DIGESTS))
def test_export_ring_matches_pinned_digest(capsys, tmp_path, k, n):
    path = tmp_path / "ring.json"
    code, _, _ = run(capsys, "export-ring", "--k", str(k), "--n", str(n), "--out", str(path))
    assert code == 0
    table = json.loads(path.read_text())
    blocks = {"basis": [canonical_dumps(table["basis"])]}
    for prod in table["products"]:
        blocks.setdefault("%d,%d" % (sum(prod["a"]), sum(prod["b"])), []).append(
            canonical_dumps(prod))
    pinned = {}
    for line in RING_BLOCKS.read_text().splitlines():
        k0, n0, block, digest = line.split()
        if (int(k0), int(n0)) == (k, n):
            pinned[block] = digest
    for block in sorted(set(pinned) | set(blocks)):
        got = hashlib.sha256(",".join(blocks.get(block, [])).encode()).hexdigest()
        assert got == pinned.get(block), "G(%d,%d): block %s changed" % (k, n, block)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RING_DIGESTS[(k, n)]


def test_boolean_coordinate_in_class_file(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[1, 0], [0, 1]]))
    cls = tmp_path / "v.json"
    cls.write_text(json.dumps({"vector": [True, False]}))
    code, out, err = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(cls))
    assert code == 2 and out is None
    msg = json.loads(err)
    assert str(cls) in msg["error"] and "boolean" in msg["error"]


def test_repeated_generator_label_is_refused(capsys, tmp_path):
    # read with one label for both, the witness {"a": "1"} would not sum to the class
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"generators": [{"label": "a", "vector": [1, 0]},
                                               {"label": "a", "vector": [0, 1]}]}))
    cls = tmp_path / "v.json"
    cls.write_text(json.dumps([1, 1]))
    code, out, err = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(cls))
    assert code == 2 and out is None
    [msg] = json_lines(err)
    assert str(gens) in msg["error"] and "'a' is repeated" in msg["error"]


def test_cone_with_no_generators(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"generators": [], "dim": 2}))
    zero, unit = tmp_path / "zero.json", tmp_path / "unit.json"
    zero.write_text(json.dumps([0, 0]))
    unit.write_text(json.dumps([1, 0]))
    code, out, _ = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(zero))
    assert code == 0 and out == {"verdict": "in-span", "witness": {}}
    code, out, _ = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(unit))
    assert code == 3 and out["verdict"] == "not-in-span"
    # the functional is negative on the target; there is no generator to check
    assert sum(int(c) * x for c, x in zip(out["certificate"], [1, 0])) < 0


def test_export_ring_to_unwritable_path(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "export-ring", "--k", "2", "--n", "4", "--out", str(path))
    assert code == 2 and out is None
    lines = err.splitlines()
    assert len(lines) == 1 and str(path) in json.loads(lines[0])["error"]


def test_export_ring_opens_the_path_before_computing(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(ring_io, "ring_table", lambda *args, **kw: calls.append(args))
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "export-ring", "--k", "2", "--n", "4", "--out", str(path))
    assert code == 2 and out is None and str(path) in json.loads(err)["error"]
    assert calls == []


@pytest.mark.parametrize("k, n", [(5, 11), (6, 12), (2, 24), (500_000_000, 1_000_000_000)])
def test_export_ring_refuses_more_class_pairs_than_the_product_memo(capsys, tmp_path, k, n):
    # priced before the file is opened: nothing is written, and the 10^9 box stops at
    # its first factor
    path = tmp_path / "ring.json"
    start = time.perf_counter()
    code, out, err = run(capsys, "export-ring", "--k", str(k), "--n", str(n), "--out", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out is None and not path.exists()
    assert len(err.splitlines()) == 1 and "product memo" in json.loads(err)["error"]


def test_export_ring_prices_a_table_by_its_class_pairs():
    # b classes have b(b+1)/2 unordered products: 255 * 256 / 2 <= MEMO_CAP < 256 * 257 / 2,
    # so every box of at most 255 classes is priced in, G(5,10)'s 252 among them
    assert 255 * 256 // 2 <= chow.MEMO_CAP < 256 * 257 // 2
    for k in range(2, 12):
        for n in range(k + 2, 40):
            if math.comb(n, k) <= 255:
                assert ring_io._priced_ctx(k, n) == chow.GrassCtx(k, n)
            else:
                with pytest.raises(InputError, match="product memo"):
                    ring_io._priced_ctx(k, n)


def assert_float_rejected(err, path):
    lines = err.splitlines()
    assert len(lines) == 1
    msg = json.loads(lines[0])["error"]
    assert str(path) in msg and "float" in msg


def test_float_coordinates_are_refused(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text("[[1, 0], [0, 1]]")
    cls = tmp_path / "v.json"
    # more digits than a double holds: reading it as a float would round it
    cls.write_text('{"vector": [0.12345678901234567890, 0]}')
    code, out, err = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(cls))
    assert code == 2 and out is None
    assert_float_rejected(err, cls)
    half = tmp_path / "half.json"
    half.write_text("[[0.5, 0], [0, 1]]")
    code, out, err = run(capsys, "cone", "check", "--generators", str(half), "--class", str(gens))
    assert code == 2 and out is None
    assert_float_rejected(err, half)
    labeled = tmp_path / "labeled.json"
    labeled.write_text('{"generators": [{"label": "a", "vector": [1, 0]}], "dim": 2.0}')
    code, out, err = run(capsys, "cone", "check", "--generators", str(labeled),
                         "--class", str(gens))
    assert code == 2 and out is None
    assert_float_rejected(err, labeled)
    exact = tmp_path / "exact.json"
    exact.write_text('{"vector": ["0.12345678901234567890", "1/3"]}')
    code, out, _ = run(capsys, "cone", "check", "--generators", str(gens), "--class", str(exact))
    assert code == 0 and out["witness"] == {"g0": "1234567890123456789/10000000000000000000",
                                            "g1": "1/3"}


def test_float_in_blowup_class_file_is_refused(capsys, tmp_path):
    cls = {"k": 2, "n": 4, "grading": "dim", "m": 2,
           "terms": [{"lambda": [2], "c": 1.9}, {"lambda": [1, 1], "c": 1}],
           "exc": [1, 1, 1]}
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(cls))
    code, out, err = run(capsys, "cone", "sgen", "--k", "2", "--n", "4", "--r", "3",
                         "--dim", "2", "--class", str(path))
    assert code == 2 and out is None
    assert_float_rejected(err, path)
    cls["terms"] = [{"lambda": [2.7], "c": 1}, {"lambda": [1, 1], "c": 1}]
    path.write_text(json.dumps(cls))
    code, out, err = run(capsys, "cone", "sgen", "--k", "2", "--n", "4", "--r", "3",
                         "--dim", "2", "--class", str(path))
    assert code == 2 and out is None
    assert_float_rejected(err, path)


def json_lines(err):
    lines = err.splitlines()
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    return [json.loads(line) for line in lines]


def test_exit_code_follows_the_exception_type(capsys, monkeypatch):
    cases = ((InputError("internal: bad"), 2), (DecompositionError("x"), 3),
             (InternalError("internal: x"), 4), (ZeroDivisionError("x"), 4), (KeyError("x"), 4))
    for exc, expected in cases:
        def boom(ctx, exc=exc):
            raise exc
        monkeypatch.setattr(chow, "degree", boom)
        code, out, err = run(capsys, "degree", "--k", "2", "--n", "4")
        [msg] = json_lines(err)
        assert code == expected and out is None
        if expected == 4:
            assert msg["error"].startswith(type(exc).__name__ + ": ")
        else:
            assert msg["error"] == str(exc)


def test_unknown_case_named_internal_exits_2(capsys):
    code, out, err = run(capsys, "delpezzo", "verify", "--case", "internal", "--q", "1/10")
    [msg] = json_lines(err)
    assert code == 2 and out is None and msg["error"].startswith("unknown case 'internal'")


def test_warning_is_a_json_line(capsys):
    code, out, err = run(capsys, "degree", "--k", "1", "--n", "3")
    assert code == 0 and out == {"degree": 1}
    assert json_lines(err) == [
        {"warning": "G(1,3) falls outside the standing assumption k >= 2, n-k >= 2"}]


def test_pieri_special_out_of_range(capsys):
    code, out, err = run(capsys, "pieri", "--k", "2", "--n", "4", "--special", "-1", "--mu", "1")
    [msg] = json_lines(err)
    assert code == 2 and out is None and msg["error"].startswith("need 0 <= special <= w")


def test_pieri_with_too_many_terms_is_refused(capsys):
    staircase = ",".join(str(p) for p in range(40, 0, -1))
    code, out, err = run(capsys, "pieri", "--k", "40", "--n", "80", "--special", "20",
                         "--mu", staircase)
    [msg] = json_lines(err)
    assert code == 2 and out is None and "68923264410 terms, more than" in msg["error"]


def check_refused(capsys, path, needle, *argv):
    code, out, err = run(capsys, *argv)
    [msg] = json_lines(err)
    assert code == 2 and out is None
    assert str(path) in msg["error"] and needle in msg["error"]


def test_basis_must_be_a_list_of_dim_strings(capsys, tmp_path):
    gens, cls = tmp_path / "gens.json", tmp_path / "v.json"
    cls.write_text("[1, 0]")
    argv = ("cone", "check", "--generators", str(gens), "--class", str(cls))
    for basis in (5, "xy", ["x"], ["x", "y", "z"], ["x", 1]):
        gens.write_text(json.dumps({"generators": [{"label": "a", "vector": [1, 0]}],
                                    "basis": basis}))
        check_refused(capsys, gens, "'basis' must be a list of 2 strings", *argv)
    gens.write_text(json.dumps({"generators": [{"label": "a", "vector": [1, 0]}],
                                "basis": ["x", "y"]}))
    assert run(capsys, *argv)[:2] == (0, {"verdict": "in-span", "witness": {"a": "1"}})


def test_generator_label_must_be_a_string(capsys, tmp_path):
    gens, cls = tmp_path / "gens.json", tmp_path / "v.json"
    cls.write_text("[1, 0]")
    for label in (["a"], {"a": 1}, 7, None):
        gens.write_text(json.dumps({"generators": [{"label": label, "vector": [1, 0]}]}))
        check_refused(capsys, gens, "labels must be strings",
                      "cone", "check", "--generators", str(gens), "--class", str(cls))


def test_binary_file_is_named(capsys, tmp_path):
    binary, gens = tmp_path / "binary.json", tmp_path / "gens.json"
    binary.write_bytes(bytes(range(256)))
    gens.write_text("[[1, 0]]")
    check_refused(capsys, binary, "codec", "cone", "check", "--generators", str(binary),
                  "--class", str(gens))
    check_refused(capsys, binary, "codec", "cone", "check", "--generators", str(gens),
                  "--class", str(binary))


def test_class_dimension_must_match_the_cone(capsys, tmp_path):
    gens, cls = tmp_path / "gens.json", tmp_path / "v.json"
    gens.write_text(json.dumps({"generators": [], "dim": 10 ** 15}))
    cls.write_text("[1, 0]")
    check_refused(capsys, cls, "has 2 coordinates, but the cone has dimension",
                  "cone", "check", "--generators", str(gens), "--class", str(cls))


def test_cone_sgen_refuses_negative_r(capsys):
    code, out, err = run(capsys, "cone", "sgen", "--k", "2", "--n", "4", "--r", "-1", "--dim", "1")
    [msg] = json_lines(err)
    assert code == 2 and out is None and msg["error"] == "--r must be nonnegative, got -1"


def test_cone_sgen_class_must_have_the_cycle_dimension(capsys, tmp_path):
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({"k": 2, "n": 4, "m": 1, "grading": "codim", "exc": [1]}))
    argv = ("cone", "sgen", "--k", "2", "--n", "4", "--r", "1", "--dim", "1", "--class", str(path))
    check_refused(capsys, path, "has codimension 1, but --dim 1 needs 3", *argv)
    # the same point class as a curve is tested, and -E_1 is outside the span
    path.write_text(json.dumps({"k": 2, "n": 4, "m": 1, "grading": "dim", "exc": [1]}))
    code, out, _ = run(capsys, *argv)
    assert code == 3 and out["verdict"] == "not-in-span"


def test_cone_sgen_refuses_a_term_outside_the_class_codimension(capsys, tmp_path):
    path = tmp_path / "cls.json"
    argv = ("cone", "sgen", "--k", "2", "--n", "4", "--r", "1", "--dim", "1", "--class", str(path))
    # codim 5 and -1 lie outside 0..4; codim 3 is in range, but sigma_2 has size 2
    for m, parts in ((5, [2, 2]), (-1, [2]), (3, [2])):
        path.write_text(json.dumps({"k": 2, "n": 4, "m": m, "grading": "codim", "exc": [1],
                                    "terms": [{"lambda": parts, "c": 7}]}))
        check_refused(capsys, path, "does not live in codim %d of G(2,4)" % m, *argv)


def test_main_exit_codes_in_a_fresh_interpreter():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "grasseff.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = cli("delpezzo", "verify", "--case", "internal", "--q", "1/10")
    assert done.returncode == 2 and done.stdout == ""
    assert json_lines(done.stderr)[0]["error"].startswith("unknown case")
    done = cli("degree", "--k", "1", "--n", "3")
    assert done.returncode == 0 and done.stdout == '{"degree":1}\n'
    assert [set(msg) for msg in json_lines(done.stderr)] == [{"warning"}]


def test_a_reader_that_closes_stdout_early_leaves_the_exit_code_alone():
    # the k = d = 5 listing is about 1.7 MB, far more than a pipe buffer, so the
    # write is still going when the reader closes the pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "grasseff.cli", "orbits", "list", "--k", "5", "--dim", "5"]
    with subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 0 and head == b'{"dim":5,"k":5,"orbi' and err == b""


def test_deeply_nested_file_is_named(capsys, tmp_path):
    deep, gens = tmp_path / "deep.json", tmp_path / "gens.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    gens.write_text("[[1, 0]]")
    check_refused(capsys, deep, "recursion", "cone", "check", "--generators", str(gens),
                  "--class", str(deep))
