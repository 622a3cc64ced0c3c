"""The CLI exit-code contract under random arguments and random input files.

For every input: the exit code is 0, 2 or 3 (4 would be a bug of ours, and a
traceback breaks the contract outright), stdout is empty or one canonical
JSON line, and stderr holds canonical JSON lines only. Sizes stay small
enough that each call costs milliseconds.
"""

import contextlib
import io
import json
import warnings
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from grasseff import chow
from grasseff.chow import GrassCtx
from grasseff.cli import run_subcommand
from grasseff.delpezzo import FANO_TABLE

# about 3 s together; the JSON strategies cost more to draw than the calls they feed
FUZZ = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                  HealthCheck.data_too_large])


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
    (["export-ring"], [("--k", ints(0, 3)), ("--n", ints(1, 6)), ("--cap", ints(-1, 16))]),
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
    time the class is the sum of the generators, so a witness names them."""
    d = draw(st.integers(0, 3))
    vecs = draw(st.lists(st.lists(COORD, min_size=d, max_size=d), min_size=1, max_size=4))
    gens = vecs if draw(st.booleans()) else {
        "generators": [{"label": "v%d" % i, "vector": v} for i, v in enumerate(vecs)],
        "dim": d, "basis": ["x%d" % i for i in range(d)]}
    if draw(st.booleans()):
        vector = draw(st.lists(COORD, min_size=d, max_size=d))
    else:
        vector = [str(sum(Fraction(v[i]) for v in vecs)) for i in range(d)]
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
    if draw(st.booleans()):
        gens, vector = draw(cone_docs())
        files = {"--generators": gens, "--class": vector}
        for flag in draw(st.sampled_from([["--generators"], ["--class"], list(files)])):
            files[flag] = draw(mostly_near(st.just(files[flag])))
        return ["cone", "check"], files
    k, r, cycle_dim = draw(st.integers(2, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 2))
    n = draw(st.integers(k + 2, 5))
    words = ["cone", "sgen", "--k", str(k), "--n", str(n), "--r", str(r),
             "--dim", str(cycle_dim)]
    return words, {"--class": draw(mostly_near(blowup_doc(k, n, r, cycle_dim)))}


@settings(max_examples=100, **FUZZ)
@given(command=file_command())
def test_random_input_files_keep_the_contract(command, tmp_path_factory):
    words, files = command
    args = list(words)
    for flag, doc in files.items():
        path = tmp_path_factory.getbasetemp() / ("fuzz%s.json" % flag)
        path.write_text(json.dumps(doc))
        args += [flag, str(path)]
    run_checked(args)

