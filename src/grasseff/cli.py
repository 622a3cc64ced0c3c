"""Command-line front end: JSON in, canonical JSON out.

Exit codes: 0 success; 3 a negative verdict (not in the span, a failed
check). A raised exception picks its code by type alone, in
`run_subcommand`: InputError -> 2 (bad arguments or a malformed input file),
DecompositionError -> 3, anything else -> 4, with the exception's type name
in the message. Each error is one canonical JSON line {"error": ...} on
stderr, and each Python warning raised during the command one line
{"warning": ...}, so stderr holds JSON lines only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import partial

from grasseff import blowup, chow, cones, delpezzo, jsonio, multiplicity, orbits, ring_io, verify
from grasseff.chow import GrassCtx
from grasseff.errors import DecompositionError, InputError


def _parse_parts(text: str) -> tuple:
    text = text.strip()
    if not text or text in ("0", "()"):
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError("partition %r is not a comma-separated integer list" % text)


def _emit(obj) -> None:
    try:
        print(jsonio.canonical_dumps(obj), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the interpreter's
        # final flush cannot raise, and the command keeps its own exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load_json(path: str, what: str, parse):
    """parse(data) for the JSON file at path; a malformed file is an InputError naming it."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise InputError("cannot read %s file %r: %s" % (what, path, exc)) from None
    # ValueError covers bad JSON, undecodable bytes and the InputErrors of parse;
    # RecursionError is JSON nested too deep to read
    except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
        reason = "missing field %s" % exc if isinstance(exc, KeyError) else str(exc)
        raise InputError("malformed %s file %r: %s" % (what, path, reason)) from None


def _array(x) -> list:
    if not isinstance(x, list):
        raise InputError("expected a JSON array, got %s" % type(x).__name__)
    return x


def _ctx(args) -> GrassCtx:
    return GrassCtx(args.k, args.n)


def cmd_product(args) -> int:
    ctx = _ctx(args)
    a = chow.sigma(ctx, _parse_parts(args.a))
    b = chow.sigma(ctx, _parse_parts(args.b))
    _emit(chow.multiply(a, b).to_json())
    return 0


def cmd_pieri(args) -> int:
    ctx = _ctx(args)
    mu = ctx.partition(_parse_parts(args.mu))
    _emit(chow.pieri(ctx, args.special, mu).to_json())
    return 0


def cmd_giambelli(args) -> int:
    ctx = _ctx(args)
    lam = ctx.partition(_parse_parts(args.lam))
    monomials = [{"sign": sign, "sizes": list(mono)} for sign, mono in chow.giambelli(lam)]
    _emit({"k": args.k, "n": args.n, "lambda": lam.to_json(), "monomials": monomials})
    return 0


def cmd_degree(args) -> int:
    _emit({"degree": chow.degree(_ctx(args))})
    return 0


def cmd_mult(args) -> int:
    ctx = _ctx(args)
    lam = ctx.partition(_parse_parts(args.lam))
    mu = ctx.partition(_parse_parts(args.mu))
    _emit({"multiplicity": multiplicity.rz_multiplicity(ctx, lam, mu)})
    return 0


def _parse_int(x) -> int:
    f = jsonio.parse_frac(x)
    if f.denominator != 1:
        raise InputError("%r is not an integer" % (x,))
    return f.numerator


def _cone_from_json(data) -> tuple:
    """(dim, basis or None, labeled generators) of a generator file."""
    if not isinstance(data, dict):
        data = {"generators": [{"label": "g%d" % i, "vector": vec}
                               for i, vec in enumerate(_array(data))]}
    gens = [(g["label"], [jsonio.parse_frac(x) for x in _array(g["vector"])])
            for g in _array(data["generators"])]
    if not all(isinstance(label, str) for label, _ in gens):
        raise InputError("generator labels must be strings")
    seen = set()
    for label, _ in gens:  # a witness names each coefficient by its generator's label
        if label in seen:
            raise InputError("generator label %r is repeated" % label)
        seen.add(label)
    dim = _parse_int(data["dim"]) if "dim" in data else len(gens[0][1])
    if any(len(vec) != dim for _, vec in gens):
        raise InputError("every generator needs %d coordinates" % dim)
    basis = data.get("basis")
    if basis is not None and not (isinstance(basis, list) and len(basis) == dim
                                  and all(isinstance(b, str) for b in basis)):
        raise InputError("'basis' must be a list of %d strings" % dim)
    return dim, basis, gens


def _vector_from_json(data) -> tuple:
    if isinstance(data, dict):
        data = data["vector"]
    return tuple(jsonio.parse_frac(x) for x in _array(data))


def _membership_report(cone, result) -> dict:
    """The verdict, and the witness's nonzero coefficients or the certificate."""
    if result.is_member:
        return {"verdict": result.verdict,
                "witness": {label: jsonio.frac_str(c)
                            for label, c in zip(cone.labels, result.witness) if c}}
    return {"verdict": result.verdict,
            "certificate": [jsonio.frac_str(c) for c in result.certificate]}


def cmd_cone_check(args) -> int:
    dim, basis, gens = _load_json(args.generators, "generator", _cone_from_json)
    v = _load_json(args.cls, "class", _vector_from_json)
    if len(v) != dim:
        raise InputError("class file %r has %d coordinates, but the cone has dimension %d"
                         % (args.cls, len(v), dim))
    cone = cones.ConeSpec.build(dim, basis or (), gens)
    result = cones.cone_membership(cone, v)
    _emit(_membership_report(cone, result))
    return 0 if result.is_member else 3


def _blowup_class_from_json(ctx: GrassCtx, r: int, data) -> blowup.BlowupClass:
    if (_parse_int(data["k"]), _parse_int(data["n"])) != (ctx.k, ctx.n):
        raise InputError("k and n do not match --k %d --n %d" % (ctx.k, ctx.n))
    grading = data.get("grading", "dim")
    m = _parse_int(data["m"])
    codim = m if grading == "codim" else ctx.dim - m
    coeffs = {}
    for term in _array(data.get("terms", [])):
        lam = ctx.partition([_parse_int(p) for p in _array(term["lambda"])])
        coeffs[lam] = coeffs.get(lam, 0) + _parse_int(term["c"])
    exc = tuple(_parse_int(x) for x in _array(data["exc"]))
    return blowup.BlowupClass(blowup.BlowupCtx(ctx, r), grading, m,
                              chow.ChowClass(ctx, codim, coeffs), exc)


def cmd_cone_sgen(args) -> int:
    if args.r < 0:
        raise InputError("--r must be nonnegative, got %d" % args.r)
    ctx = _ctx(args)
    bound = cones.sgen_bound(ctx, args.dim)
    out = {"k": args.k, "n": args.n, "r": args.r, "cycle_dim": args.dim,
           "bound": bound, "bound_satisfied": args.r <= bound}
    if args.cls is None:
        _emit(out)
        return 0
    cls = _load_json(args.cls, "class", partial(_blowup_class_from_json, ctx, args.r))
    if cls.codim != ctx.dim - args.dim:
        raise InputError("class file %r has codimension %d, but --dim %d needs %d"
                         % (args.cls, cls.codim, args.dim, ctx.dim - args.dim))
    cone = cones.sgen_cycle_cone(ctx, args.dim, args.r)
    result = cones.cone_membership(cone, cones.blowup_cycle_vector(cls))
    out.update(_membership_report(cone, result))
    _emit(out)
    return 0 if result.is_member else 3


def cmd_orbits_list(args) -> int:
    records = []
    for rep in orbits.enumerate_orbits(args.k, args.dim):
        records.append({
            "pairs": rep.to_json(),
            "incidence": orbits.incidence_of_representative(rep).to_json(),
            "dimension": orbits.orbit_dimension(rep),
        })
    _emit({"k": args.k, "dim": args.dim, "orbits": records})
    return 0


def cmd_orbits_check(args) -> int:
    if args.k < 0:
        raise InputError("--k must be nonnegative, got %d" % args.k)
    # d = k has the most subspaces, so an over-the-cap k is refused before any enumeration
    reports = [orbits.oracle_check(args.k, d) for d in range(args.k, -1, -1)][::-1]
    _emit({"k": args.k, "reports": reports})
    return 0 if all(rep["agree"] for rep in reports) else 4


def cmd_delpezzo_verify(args) -> int:
    try:
        q = jsonio.parse_frac(args.q)
    except InputError:
        raise InputError("--q must be a rational like 1/10") from None
    report = delpezzo.verify_case(args.case, q)
    _emit(report)
    return 0 if report["ok"] else 3


def cmd_verify(args) -> int:
    report = verify.run_all()
    _emit(report)
    return 0 if report["ok"] else 4


def cmd_export_ring(args) -> int:
    try:
        table = ring_io.export_ring(args.k, args.n, args.out)
    except OSError as exc:
        raise InputError("cannot write ring file %r: %s" % (args.out, exc.strerror or exc))
    _emit({"path": args.out, "basis_size": sum(len(v) for v in table["basis"].values())})
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="grasseff", description="exact Schubert calculus and cone toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def kn(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("product", help="product of two Schubert classes")
    kn(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("pieri", help="special class times a Schubert class")
    kn(p)
    p.add_argument("--special", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("giambelli", help="determinant expansion of a Schubert class")
    kn(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=cmd_giambelli)

    p = sub.add_parser("degree", help="degree in the wedge-coordinate embedding")
    kn(p)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("mult", help="multiplicity of a Schubert variety along a cell")
    kn(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("cone", help="cone membership and span-generation checks")
    csub = p.add_subparsers(dest="cone_command", required=True)
    pc = csub.add_parser("check", help="membership against explicit generators")
    pc.add_argument("--generators", required=True)
    pc.add_argument("--class", dest="cls", required=True)
    pc.set_defaults(func=cmd_cone_check)
    ps = csub.add_parser("sgen", help="span-generation bound and optional class test")
    kn(ps)
    ps.add_argument("--r", type=int, required=True)
    ps.add_argument("--dim", type=int, required=True, choices=(1, 2))
    ps.add_argument("--class", dest="cls", default=None)
    ps.set_defaults(func=cmd_cone_sgen)

    p = sub.add_parser("orbits", help="triangular-group orbit enumeration")
    osub = p.add_subparsers(dest="orbits_command", required=True)
    po = osub.add_parser("list", help="all orbits with incidence and dimension")
    po.add_argument("--k", type=int, required=True)
    po.add_argument("--dim", type=int, required=True)
    po.set_defaults(func=cmd_orbits_list)
    pk = osub.add_parser("check", help="finite-field oracle comparison")
    pk.add_argument("--k", type=int, required=True)
    pk.set_defaults(func=cmd_orbits_check)

    p = sub.add_parser("delpezzo", help="degree-table verification")
    dsub = p.add_subparsers(dest="delpezzo_command", required=True)
    pd = dsub.add_parser("verify", help="verify one table row at a rational q")
    pd.add_argument("--case", required=True)
    pd.add_argument("--q", required=True)
    pd.set_defaults(func=cmd_delpezzo_verify)

    for name in ("verify", "verify-paper"):
        p = sub.add_parser(name, help="run the built-in verification suite")
        p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-ring", help="write the full multiplication table")
    kn(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ring)

    return parser


def run_subcommand(argv) -> int:
    """Run one command; what it raises picks the exit code by type (see the module docstring)."""
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except Exception as exc:
            if isinstance(exc, InputError):
                code, error = (3 if isinstance(exc, DecompositionError) else 2), str(exc)
            else:
                code, error = 4, "%s: %s" % (type(exc).__name__, exc)
    for w in caught:
        print(jsonio.canonical_dumps({"warning": str(w.message)}), file=sys.stderr)
    if error is not None:
        print(jsonio.canonical_dumps({"error": error}), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
