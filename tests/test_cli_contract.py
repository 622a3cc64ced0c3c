"""The CLI exit-code contract under random arguments and random input files.

For every input: the exit code is 0, 2 or 3 (4 would be a bug of ours, and a
traceback breaks the contract outright), stdout is empty or one canonical
JSON line, and stderr holds canonical JSON lines only. Every `cone check` and
`cone sgen` verdict is re-checked from what it prints: against the input files
read with Fraction, and for `cone sgen` against generators written here. Sizes
stay small enough that each call costs milliseconds.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from grasseff import chow
from grasseff.chow import GrassCtx
from grasseff.cli import run_subcommand
from grasseff.delpezzo import FANO_TABLE
from grasseff.jsonio import MAX_DIGITS

# about 3 s together; the JSON strategies cost more to draw than the calls they feed.
# print_blob: a failure prints the @reproduce_failure line that replays its example.
FUZZ = dict(deadline=None, print_blob=True,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def is_canonical(line):
    return line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def run_checked(argv):
    out, err = io.StringIO(), io.StringIO()
    # a warning that run_subcommand lets through would land in `leaked`
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        code = run_subcommand(argv)
    out, err = out.getvalue(), err.getvalue()
    assert not leaked, [str(w.message) for w in leaked]
    assert code in (0, 2, 3), (argv, code, err)
    assert out == "" or (out.endswith("\n") and out.count("\n") == 1 and is_canonical(out[:-1]))
    assert err == "" or (err.endswith("\n") and all(is_canonical(line) for line in err.splitlines()))
    return code, out, err


# ---------------------------------------------------------------------------
# arguments: well-formed and small, or (one example in four) with junk values
# and missing or stray options

JUNK = st.text(max_size=4) | st.sampled_from(["", "x", "1/2", "2.0", "1,", "-1"])


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


PARTS = st.lists(st.integers(0, 4), max_size=3).map(
    lambda p: ",".join(map(str, sorted(p, reverse=True))))
# 1/9 - t/1000 lies in the admissible interval of most Fano rows for 1 <= t <= 20
Q = st.integers(0, 25).map(lambda t: str(Fraction(1, 9) - Fraction(t, 1000)))
K, N = ints(1, 4), ints(2, 7)

# (words, [(flag, values)]); `orbits check` skips k = 3, which passes the work cap
# but takes seconds, and draws k >= 4, which the cap refuses, and k < 0
COMMANDS = [
    (["product"], [("--k", K), ("--n", N), ("--a", PARTS), ("--b", PARTS)]),
    (["pieri"], [("--k", K), ("--n", N), ("--special", ints(-1, 5)), ("--mu", PARTS)]),
    (["giambelli"], [("--k", K), ("--n", N), ("--lambda", PARTS)]),
    (["degree"], [("--k", K), ("--n", N)]),
    (["mult"], [("--k", K), ("--n", N), ("--lambda", PARTS), ("--mu", PARTS)]),
    (["cone", "sgen"], [("--k", K), ("--n", N), ("--r", ints(-1, 4)), ("--dim", ints(1, 2))]),
    (["orbits", "list"], [("--k", ints(0, 3)), ("--dim", ints(-1, 4))]),
    (["orbits", "check"], [("--k", ints(-3, 2) | ints(4, 6))]),
    (["delpezzo", "verify"], [("--case", st.sampled_from([c.name for c in FANO_TABLE])),
                              ("--q", Q)]),
    (["verify"], []),
    (["verify-paper"], []),
    (["export-ring"], [("--k", ints(0, 3)), ("--n", ints(1, 6))]),
    ([], []),
]


@st.composite
def argv(draw):
    words, options = draw(st.sampled_from(COMMANDS))
    wild = not draw(st.integers(0, 3))
    out = list(words)
    for flag, values in options:
        if not wild:
            out += [flag, draw(values)]
        elif draw(st.integers(0, 3)):
            out += [flag, draw(values | JUNK)]
    if wild and draw(st.booleans()):
        out.append(draw(st.sampled_from(["--bogus", "stray", "--k"]) | JUNK))
    return out


@settings(max_examples=120, **FUZZ)
@given(args=argv())
def test_random_arguments_keep_the_contract(args, tmp_path_factory):
    if args and args[0] == "export-ring":
        args += ["--out", str(tmp_path_factory.getbasetemp() / "ring.json")]
    code, _, _ = run_checked(args)
    if len(args) == 4 and args[:3] == ["orbits", "check", "--k"] \
            and args[3] in ("-3", "-2", "-1", "4", "5", "6"):
        assert code == 2, args


SRC = str(Path(__file__).resolve().parents[1] / "src")


@settings(max_examples=20, derandomize=True, **FUZZ)
@given(args=argv())
def test_an_answer_does_not_depend_on_what_earlier_calls_left_in_the_memos(args, tmp_path_factory):
    # in process, the memos hold what every earlier call and test put there;
    # a fresh interpreter starts with them empty
    if args and args[0] == "export-ring":
        args += ["--out", str(tmp_path_factory.getbasetemp() / "ring.json")]
    code, out, _ = run_checked(args)
    fresh = subprocess.run([sys.executable, "-m", "grasseff.cli", *args], capture_output=True,
                           text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert (fresh.returncode, fresh.stdout) == (code, out), args


# large boxes for `degree`, refused past its digit bound k(n-k) log10 k <= MAX_DIGITS
# (k <= n - k), and `cone sgen --dim 1`, which answers whenever its base
# binom(n, k) - k(n-k) prints: k and n up to 10^9, k = 1, k = n - 1, and boxes on
# either side of the degree's digit bound

BIG = 10 ** 9


def edge_box(k, step):
    w = math.floor(MAX_DIGITS / (k * math.log10(k))) + step
    return (k, k + w) if w >= k else None


EDGES = [box for k in range(2, 37) for step in (-1, 0, 1, 2) if (box := edge_box(k, step))]
LARGE_BOX = st.one_of(
    st.tuples(st.integers(1, BIG), st.integers(1, BIG)),
    st.integers(2, BIG).map(lambda n: (1, n)),
    st.integers(2, BIG).map(lambda n: (n - 1, n)),
    st.sampled_from(EDGES),
    st.sampled_from(EDGES).map(lambda box: (box[1] - box[0], box[1])),
)


@settings(max_examples=60, **FUZZ)
@given(box=LARGE_BOX, sgen=st.booleans(), r=st.integers(0, 4))
def test_large_boxes_keep_the_contract(box, sgen, r):
    k, n = map(str, box)
    args = ["cone", "sgen", "--k", k, "--n", n, "--r", str(r), "--dim", "1"] if sgen \
        else ["degree", "--k", k, "--n", n]
    started = time.perf_counter()
    code, out, err = run_checked(args)
    assert code in (0, 2) and time.perf_counter() - started < 1, (args, code, err)
    assert (out != "") == (code == 0), (args, err)
    k, n = box
    if sgen and n > k and (base := printable_base(k, n)) is not None:
        assert code == 0 and json.loads(out)["bound"] - base in (0, 1), (args, err)


def printable_base(k, n):
    """binom(n, k) - k(n-k) when it has at most MAX_DIGITS digits, else None."""
    log10_binom = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(10)
    if log10_binom > MAX_DIGITS + 1:
        return None
    base = math.comb(n, k) - k * (n - k)
    return base if base < 10 ** MAX_DIGITS else None


# ---------------------------------------------------------------------------
# input files: random JSON values and near-valid shapes

KEYS = ["generators", "label", "vector", "dim", "basis", "k", "n", "m", "grading",
        "terms", "lambda", "c", "exc"]
LEAVES = (st.none() | st.booleans() | st.integers(-3, 9) | st.integers() | st.floats()
          | st.text(max_size=4) | st.sampled_from(["1/2", "-3", "1/0", "0.5", "x", "dim", "codim"]))
JSON = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=4)
                    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids,
                                      max_size=4), max_leaves=12)
# one value of each JSON type, drawn more often than a random one
WRONG = st.sampled_from([None, True, 0, -1, 2.5, "", "x", [], [1], {}, {"label": "a"}])
COORD = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "0.5", "0"])


def paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from paths(value, prefix + (i,))


@st.composite
def near(draw, valid):
    """A valid document with up to two values replaced by random JSON or removed.

    Half the time the value is a named field, the likeliest place for a wrong type.
    """
    doc = draw(valid)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        every = list(paths(doc))
        fields = [p for p in every if p and isinstance(p[-1], str)]
        path = draw(st.sampled_from(fields if fields and draw(st.booleans()) else every))
        if not path:
            return draw(JSON)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if draw(st.booleans()):
            parent[path[-1]] = draw(WRONG | JSON)
        else:
            del parent[path[-1]]
    return doc


@st.composite
def cone_docs(draw):
    """A generator file and a class file over the same coordinates; half the
    time the class is plus or minus the sum of the generators, so that a witness
    names them or, for a pointed cone, a certificate separates the class."""
    d = draw(st.integers(0, 3))
    vecs = draw(st.lists(st.lists(COORD, min_size=d, max_size=d), min_size=1, max_size=4))
    labels = ["v%d" % i for i in range(len(vecs))]
    if len(vecs) > 1 and draw(st.integers(0, 3)) == 0:
        labels[-1] = labels[0]  # a repeated label, which `cone check` refuses
    gens = vecs if draw(st.booleans()) else {
        "generators": [{"label": label, "vector": v} for label, v in zip(labels, vecs)],
        "dim": d, "basis": ["x%d" % i for i in range(d)]}
    if draw(st.booleans()):
        vector = draw(st.lists(COORD, min_size=d, max_size=d))
    else:
        sign = draw(st.sampled_from([1, -1]))
        vector = [str(sign * sum(Fraction(v[i]) for v in vecs)) for i in range(d)]
    return gens, (vector if draw(st.booleans()) else {"vector": vector})


@st.composite
def blowup_doc(draw, k, n, r, cycle_dim):
    ctx = GrassCtx(k, n)
    grading = draw(st.sampled_from(["dim", "codim"]))
    codim = ctx.dim - cycle_dim
    terms = st.builds(lambda lam, c: {"lambda": list(lam.trimmed()), "c": c},
                      st.sampled_from(chow.basis(ctx, codim)), st.integers(-1, 3))
    return {"k": k, "n": n, "grading": grading, "m": codim if grading == "codim" else cycle_dim,
            "terms": draw(st.lists(terms, max_size=3)),
            "exc": draw(st.lists(st.integers(-1, 3), min_size=r, max_size=r))}


def mostly_near(valid):
    return st.one_of(near(valid), near(valid), near(valid), JSON)


@st.composite
def file_command(draw):
    """(words, files, member): member is True when the class file is a combination of
    span_generators, so `cone sgen` must print a witness for it."""
    kind = draw(st.sampled_from(["check", "check", "sgen", "member"]))
    if kind == "check":
        gens, vector = draw(cone_docs())
        files = {"--generators": gens, "--class": vector}
        for flag in draw(st.sampled_from([["--generators"], ["--class"], list(files)])):
            files[flag] = draw(mostly_near(st.just(files[flag])))
        return ["cone", "check"], files, False
    k, r, cycle_dim = draw(st.integers(2, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 2))
    n = draw(st.integers(k + 2, 5))
    words = ["cone", "sgen", "--k", str(k), "--n", str(n), "--r", str(r),
             "--dim", str(cycle_dim)]
    if kind == "member":
        return words, {"--class": draw(span_member_doc(k, n, r, cycle_dim))}, True
    return words, {"--class": draw(mostly_near(blowup_doc(k, n, r, cycle_dim)))}, False


def span_generators(ctx, cycle_dim, r):
    """label -> (a, b) of the generators sigma, sigma - E_i and E_i, for a class
    sum a_lam sigma_lam - sum b_i E_i with a keyed by trimmed parts."""
    unit = [[int(t == i) for t in range(r)] for i in range(r)]
    gens = {}
    for lam in chow.basis(ctx, ctx.dim - cycle_dim):
        parts = tuple(p for p in lam.parts if p)
        name = "s(%s)" % ",".join(map(str, parts))
        gens[name] = ({parts: 1}, [0] * r)
        gens.update(("%s-E%d" % (name, i + 1), ({parts: 1}, unit[i])) for i in range(r))
    gens.update(("E%d" % (i + 1), ({}, [-x for x in unit[i]])) for i in range(r))
    return gens


def check_sgen_stdout(words, doc, code, out):
    """Re-check a printed verdict against the class file and span_generators alone."""
    k, n, r, cycle_dim = (int(words[words.index(flag) + 1])
                          for flag in ("--k", "--n", "--r", "--dim"))
    ctx = GrassCtx(k, n)
    order = [tuple(p for p in lam.parts if p) for lam in chow.basis(ctx, ctx.dim - cycle_dim)]
    gens = span_generators(ctx, cycle_dim, r)
    amb = {}
    for term in doc.get("terms", []):
        parts = tuple(p for p in term["lambda"] if p)
        amb[parts] = amb.get(parts, 0) + Fraction(term["c"])
    cls = ({p: c for p, c in amb.items() if c}, [Fraction(x) for x in doc["exc"]])
    printed = json.loads(out)
    if code == 0:
        assert printed["verdict"] == "in-span", printed
        witness = {label: Fraction(c) for label, c in printed["witness"].items()}
        assert set(witness) <= set(gens) and all(c >= 0 for c in witness.values()), printed
        total_a, total_b = {}, [0] * r
        for label, c in witness.items():
            a, b = gens[label]
            for p, x in a.items():
                total_a[p] = total_a.get(p, 0) + c * x
            total_b = [t + c * x for t, x in zip(total_b, b)]
        assert ({p: c for p, c in total_a.items() if c}, total_b) == cls, (printed, doc)
    else:
        assert printed["verdict"] == "not-in-span", printed
        phi = [Fraction(x) for x in printed["certificate"]]
        assert len(phi) == len(order) + r, printed

        def pair(a, b):
            return sum(phi[order.index(p)] * x for p, x in a.items()) \
                - sum(f * x for f, x in zip(phi[len(order):], b))
        assert all(pair(*gen) >= 0 for gen in gens.values()), printed
        assert pair(*cls) < 0, (printed, doc)


@st.composite
def span_member_doc(draw, k, n, r, cycle_dim):
    """A class file for a random nonnegative integer combination of span_generators,
    usually of several of them."""
    ctx = GrassCtx(k, n)
    gens = span_generators(ctx, cycle_dim, r)
    coeffs = draw(st.dictionaries(st.sampled_from(sorted(gens)), st.integers(1, 3),
                                  min_size=1, max_size=5))
    amb, exc = {}, [0] * r
    for label, c in coeffs.items():
        a, b = gens[label]
        for parts, x in a.items():
            amb[parts] = amb.get(parts, 0) + c * x
        exc = [e + c * x for e, x in zip(exc, b)]
    grading = draw(st.sampled_from(["dim", "codim"]))
    return {"k": k, "n": n, "grading": grading,
            "m": ctx.dim - cycle_dim if grading == "codim" else cycle_dim,
            "terms": [{"lambda": list(parts), "c": c} for parts, c in amb.items()], "exc": exc}


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def repeated_label(doc) -> bool:
    """True when a generator file gives one string label to two generators."""
    gens = doc.get("generators") if isinstance(doc, dict) else None
    labels = [g["label"] for g in gens if isinstance(g, dict) and isinstance(g.get("label"), str)] \
        if isinstance(gens, list) else []
    return len(set(labels)) < len(labels)


def check_cone_stdout(files, code, out):
    """Re-check a printed `cone check` verdict against the two files, read with Fraction."""
    doc = files["--generators"]
    gens = [("g%d" % i, vec) for i, vec in enumerate(doc)] if isinstance(doc, list) \
        else [(g["label"], g["vector"]) for g in doc["generators"]]
    gens = [(label, [Fraction(x) for x in vec]) for label, vec in gens]
    doc = files["--class"]
    target = [Fraction(x) for x in (doc["vector"] if isinstance(doc, dict) else doc)]
    printed = json.loads(out)
    if code == 0:
        assert printed["verdict"] == "in-span", printed
        witness = {label: Fraction(c) for label, c in printed["witness"].items()}
        vectors = dict(gens)  # labels are unique: a repeated one exits 2
        assert set(witness) <= set(vectors) and all(c >= 0 for c in witness.values()), printed
        assert [sum(c * vectors[label][i] for label, c in witness.items())
                for i in range(len(target))] == target, (printed, files)
    else:
        assert printed["verdict"] == "not-in-span", printed
        phi = [Fraction(x) for x in printed["certificate"]]
        assert len(phi) == len(target), printed
        assert all(dot(phi, vec) >= 0 for _, vec in gens), (printed, files)
        assert dot(phi, target) < 0, (printed, files)


@settings(max_examples=100, **FUZZ)
@given(command=file_command())
def test_random_input_files_keep_the_contract(command, tmp_path_factory):
    words, files, member = command
    args = list(words)
    for flag, doc in files.items():
        path = tmp_path_factory.getbasetemp() / ("fuzz%s.json" % flag)
        path.write_text(json.dumps(doc))
        args += [flag, str(path)]
    code, out, _ = run_checked(args)
    assert code == 0 or not member, (args, files)
    if words[:2] == ["cone", "check"] and repeated_label(files["--generators"]):
        assert code == 2, (args, files)
    if words[:2] == ["cone", "sgen"] and code in (0, 3):
        check_sgen_stdout(words, files["--class"], code, out)
    elif code in (0, 3):
        check_cone_stdout(files, code, out)
