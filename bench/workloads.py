"""The four workloads: inputs from a seed, timed operations, answers and checks.

A workload is built in set-up from a seed: it generates its inputs and the
grasseff objects its operations use. `ops` is the timed operation list, one
zero-argument callable per operation, and `inputs` describes each one. After
timing, `normalize(input, answer)` turns each answer into plain data and
`check` compares the plain answers against oracles.py. Operations call
grasseff through module attributes (for example `cones.cone_membership`), so
the wrappers installed by tracing.py see them.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import oracles


def _frac_tuple(v):
    return None if v is None else tuple(Fraction(x) for x in v)


class DivisorGrid:
    """Seeded points of the criterion-4 grid against the two-point divisor cones."""

    name = "divisor-grid"
    KS = (2, 3, 4, 5, 6)

    # a fifth of each k's points lie inside the cone, close to the whole grid's
    # 19.5 %; drawing the two kinds apart keeps the share, and with it the
    # latency percentiles, the same for every seed
    INSIDE_SHARE = 0.2

    def __init__(self, seed: int, points_per_k: int = 700):
        from grasseff import cones
        self.cones = {k: cones.thm44_generators(k) for k in self.KS}
        rng = random.Random(seed)
        self.inputs = []
        for k in self.KS:
            want = {True: round(points_per_k * self.INSIDE_SHARE)}
            want[False] = points_per_k - want[True]
            while want[True] or want[False]:
                a, b1, b2 = rng.randint(0, 6), rng.randint(0, 6 * k), rng.randint(0, 6 * k)
                inside = k * a >= b1 + b2
                if want[inside]:
                    want[inside] -= 1
                    self.inputs.append((k, a, b1, b2))
        rng.shuffle(self.inputs)
        self.ops = [functools.partial(self._query, *p) for p in self.inputs]

    def _query(self, k, a, b1, b2):
        from grasseff import cones
        res = cones.cone_membership(self.cones[k], (a, -b1, -b2))
        terms = cones.lemma41_decompose(k, a, b1, b2) if res.is_member else None
        return res, terms

    @staticmethod
    def normalize(spec, answer):
        res, terms = answer
        return (res.verdict == "in-span", _frac_tuple(res.witness),
                _frac_tuple(res.certificate), None if terms is None else tuple(terms))

    def check(self, inputs, answers) -> list[str]:
        problems = []
        generators = {k: tuple(self.cones[k].generators) for k in self.KS}
        for k, gens in generators.items():
            if sorted(gens) != sorted(_frac_tuple(g) for g in oracles.thm44_generators(k)):
                problems.append("thm44_generators(%d) differs from the expected generators" % k)
        for (k, a, b1, b2), (member, witness, cert, terms) in zip(inputs, answers):
            target = (a, -b1, -b2)
            bad = oracles.membership_problem(generators[k], target, member, witness, cert,
                                             k * a >= b1 + b2)
            if bad is None and member:
                total = oracles.resum(terms, functools.partial(oracles.lemma41_vector, k), 3)
                if total != target:
                    bad = "lemma41 terms do not sum back to the target"
            if bad:
                problems.append("k=%d point %s: %s" % (k, target, bad))
        return problems


class BlowupCones:
    """Many distinct cones, each built by one operation and then queried by several."""

    name = "blowup-cones"
    QUADRIC_R = (3, 4, 5, 6, 7)
    SGEN_SPACES = ((2, 4), (2, 5), (3, 6))
    SGEN_R = (1, 2, 3, 4, 5, 6, 7, 8)
    QUERIES = 8

    # the Fano rows run at q = lo + (hi - lo) * t / 17 for these t, whatever the
    # seed: they are the workload's slowest operations, so fixed q keeps its
    # tail latency a property of the code rather than of the seed
    FANO_T = (6, 11)

    def __init__(self, seed: int, quadric_cones: int = 3, threecycle_batches: int = 20,
                 fano_t=FANO_T):
        from grasseff import blowup, chow, delpezzo
        rng = random.Random(seed)
        self.built = {}
        groups = []  # a cone's build and its queries stay together, in that order
        for r in self.QUADRIC_R:
            for _ in range(quadric_cones):
                cid = len(groups)
                group = [(("quadric-cone", cid, r),
                          functools.partial(self._quadric_cone, cid, r))]
                for _ in range(self.QUERIES):
                    a = rng.randint(0, 9)
                    bs = tuple(rng.randint(-1, a // 2 + 1) for _ in range(r))
                    group.append((("quadric", cid, r, a, bs),
                                  functools.partial(self._quadric, cid, a, bs)))
                groups.append(group)
        for k, n in self.SGEN_SPACES:
            ctx = chow.GrassCtx(k, n)
            for cycle_dim in (1, 2):
                sigmas = chow.basis(ctx, ctx.dim - cycle_dim)
                parts = tuple(lam.parts for lam in sigmas)
                for r in self.SGEN_R:
                    cid = len(groups)
                    bctx = blowup.BlowupCtx(ctx, r)
                    group = [(("sgen-cone", cid, k, n, cycle_dim, r),
                              functools.partial(self._sgen_cone, cid, ctx, cycle_dim, r))]
                    for _ in range(self.QUERIES):
                        a = tuple(rng.choice((-1, 0, 1, 2, 3, 4, 4, 5)) for _ in sigmas)
                        b = tuple(rng.randint(-1, 3) for _ in range(r))
                        amb = chow.ChowClass(ctx, ctx.dim - cycle_dim, dict(zip(sigmas, a)))
                        cls = blowup.blow_class(bctx, "dim", cycle_dim, amb, b)
                        group.append((("sgen", cid, parts, a, b),
                                      functools.partial(self._sgen, cid, cls)))
                    groups.append(group)
        for _ in range(threecycle_batches):
            batch = []
            for _ in range(10):
                r = rng.randint(1, 4)
                batch.append((rng.randint(0, 4), rng.randint(0, 4),
                              tuple(rng.randint(0, 4) for _ in range(r))))
            groups.append([(("g25", tuple(batch)), functools.partial(self._g25, tuple(batch)))])
        groups.append([(("nonspan",), self._nonspan)])
        for case in delpezzo.FANO_TABLE:
            lo, hi = oracles.fano_interval(case.N)
            for t in fano_t:
                q = lo + (hi - lo) * Fraction(t, 17)
                groups.append([(("fano", case.name, case.N, str(q)),
                                functools.partial(self._fano, case.name, q))])
        rng.shuffle(groups)
        self.inputs = [spec for group in groups for spec, _ in group]
        self.ops = [fn for group in groups for _, fn in group]

    def _quadric_cone(self, cid, r):
        from grasseff import cones
        keys = [("ell",)] + [("ell_i", i) for i in range(r)] + [("line", i) for i in range(r)]
        keys += [("conic", i, j, t) for i in range(r) for j in range(i + 1, r)
                 for t in range(j + 1, r)]
        gens = []
        for key in keys:
            a, *bs = cones.quadric_term_vector(key, r)
            gens.append((repr(key), (a, *(-b for b in bs))))
        cone = cones.ConeSpec.build(r + 1, ["l"] + ["l%d" % (i + 1) for i in range(r)], gens)
        self.built[cid] = cone
        return cone

    def _quadric(self, cid, a, bs):
        from grasseff import cones
        res = cones.cone_membership(self.built[cid], (a, *(-b for b in bs)))
        try:
            terms = cones.quadric_curve_decompose(a, bs)
        except cones.DecompositionError:
            terms = None
        return res, terms

    def _sgen_cone(self, cid, ctx, cycle_dim, r):
        from grasseff import cones
        cone = cones.sgen_cycle_cone(ctx, cycle_dim, r)
        self.built[cid] = cone
        return cone

    def _sgen(self, cid, cls):
        from grasseff import cones
        vec = cones.blowup_cycle_vector(cls)
        res = cones.cone_membership(self.built[cid], vec)
        terms = None
        if res.is_member and all(c >= 0 for c in cls.ambient.coeffs.values()) \
                and all(b >= 0 for b in cls.exc):
            terms = cones.lemma42_decompose(cls)
        return vec, res, terms

    @staticmethod
    def _g25(batch):
        from grasseff import cones
        out = []
        for a21, a3, bs in batch:
            try:
                out.append(cones.g25_threecycle_decompose(a21, a3, bs))
            except cones.DecompositionError:
                out.append(None)
        return out

    @staticmethod
    def _nonspan():
        from grasseff import cones
        return cones.g24_nonspan_witness()

    @staticmethod
    def _fano(name, q):
        from grasseff import delpezzo
        return delpezzo.verify_case(name, q)

    @staticmethod
    def normalize(spec, answer):
        kind = spec[0]
        if kind in ("quadric-cone", "sgen-cone"):
            return tuple(answer.generators)
        if kind == "quadric":
            res, terms = answer
            return (res.verdict == "in-span", _frac_tuple(res.witness),
                    _frac_tuple(res.certificate),
                    None if terms is None else tuple(sorted(terms.items())))
        if kind == "sgen":
            vec, res, terms = answer
            if terms is not None:
                terms = tuple((tuple(p.parts if hasattr(p, "parts") else p for p in key), c)
                              for key, c in terms)
            return (_frac_tuple(vec), res.verdict == "in-span", _frac_tuple(res.witness),
                    _frac_tuple(res.certificate), terms)
        if kind == "g25":
            return tuple(None if t is None else tuple(sorted(t.items())) for t in answer)
        if kind == "nonspan":
            cls, res = answer
            return (tuple(t["c"] for t in cls.to_json()["terms"]), cls.exc,
                    res.verdict == "in-span", _frac_tuple(res.certificate))
        return (answer["ok"], tuple((c["name"], c["status"], c.get("value"))
                                    for c in answer["checks"]))

    @classmethod
    def check(cls, inputs, answers) -> list[str]:
        problems = []
        gens = {spec[1]: ans for spec, ans in zip(inputs, answers) if spec[0].endswith("-cone")}
        for spec, ans in zip(inputs, answers):
            kind = spec[0]
            if kind == "quadric-cone":
                own = oracles.quadric_generators(spec[2])
                bad = None if sorted(ans) == sorted(map(_frac_tuple, own)) else \
                    "generators differ from lines, exceptional lines and conics"
            elif kind == "sgen-cone":
                n_sigma = len(ans[0]) - spec[5]
                own = oracles.sgen_generators(n_sigma, spec[5])
                bad = None if sorted(ans) == sorted(map(_frac_tuple, own)) else \
                    "generators differ from sigma, sigma - E_i and E_i"
            elif kind in ("quadric", "sgen") and spec[1] not in gens:
                bad = "the cone was not built"
            elif kind == "quadric":
                bad = cls._check_quadric(spec, ans, gens[spec[1]])
            elif kind == "sgen":
                bad = cls._check_sgen(spec, ans, gens[spec[1]])
            elif kind == "g25":
                bad = cls._check_g25(spec, ans)
            elif kind == "nonspan":
                bad = cls._check_nonspan(ans)
            else:
                bad = cls._check_fano(spec, ans)
            if bad:
                problems.append("%s: %s" % (spec, bad))
        return problems

    @staticmethod
    def _check_quadric(spec, ans, gens):
        _, _, r, a, bs = spec
        member, witness, cert, terms = ans
        target = (a, *(-b for b in bs))
        expected = oracles.quadric_in_cone(a, bs)
        bad = oracles.membership_problem(gens, target, member, witness, cert, expected)
        if bad:
            return bad
        if terms is not None:
            total = oracles.resum(terms, lambda key: oracles.quadric_term_vector(key, r), r + 1)
            if total != (a, *bs) or not expected:
                return "decomposition does not sum back to a class in the cone"
        elif r <= 6 and expected:
            return "decomposition refused a class in the cone"
        return None

    @staticmethod
    def _check_sgen(spec, ans, gens):
        _, _, parts, a, b = spec
        vec, member, witness, cert, terms = ans
        n_sigma = len(parts)
        if vec[n_sigma:] != tuple(-x for x in b) or sorted(vec[:n_sigma]) != sorted(a):
            return "class vector %s does not match a=%s b=%s" % (vec, a, b)
        bad = oracles.membership_problem(gens, vec, member, witness, cert,
                                         oracles.sgen_in_span(a, b))
        if bad or terms is None:
            return bad
        amb = dict.fromkeys(parts, 0)
        exc = [0] * len(b)
        for key, c in terms:
            if c <= 0:
                return "lemma42 term %s has coefficient %s" % (key, c)
            if key[0] in ("sigma", "sigma-E"):
                amb[key[1]] += c
            if key[0] == "sigma-E":
                exc[key[2]] += c
            if key[0] == "E":
                exc[key[1]] -= c
        if tuple(amb[p] for p in parts) != a or tuple(exc) != b:
            return "lemma42 terms do not sum back"
        return None

    @staticmethod
    def _check_g25(spec, ans):
        for (a21, a3, bs), terms in zip(spec[1], ans):
            expected = 2 * a21 + a3 >= sum(bs)
            if (terms is not None) != expected:
                return "(%d, %d, %s): decomposed=%s, expected %s" % (
                    a21, a3, bs, terms is not None, expected)
            if terms is not None:
                total = oracles.resum(terms, lambda key: oracles.g25_term_vector(key, len(bs)),
                                      len(bs) + 2)
                if total != (a21, a3, *bs):
                    return "(%d, %d, %s): terms do not sum back" % (a21, a3, bs)
        return None

    @staticmethod
    def _check_nonspan(ans):
        coeffs, exc, member, cert = ans
        if sorted(coeffs) != [1, 1] or tuple(exc) != (1, 1, 1):
            return "witness class is not s2 + s11 - E1 - E2 - E3"
        if member:
            return "witness class reported inside the span"
        return oracles.certificate_problem(oracles.sgen_generators(2, 3), (1, 1, -1, -1, -1),
                                           cert)

    @staticmethod
    def _check_fano(spec, ans):
        _, name, N, q_text = spec
        ok, checks = ans
        q = Fraction(q_text)
        lo, hi = oracles.fano_interval(N)
        qp = oracles.fano_qprime(N, q)
        if not (lo < q < hi) or not (0 < qp < Fraction(1, 9)):
            return "q=%s outside the admissible interval" % q
        if not ok or any(status != "pass" for _, status, _ in checks):
            return "report not ok"
        own = {"D.D == 0": 1 - Fraction(N, 9) - qp - (9 - N) * q == 0,
               "D.h > 0": True, "9q < 1": 9 * q < 1, "9q' < 1": 9 * qp < 1,
               "D.D == 0 identically in q": 1 - Fraction(N, 9) - Fraction(9 - N, 9) == 0}
        own.update({"D.e%d > 0" % (i + 1): True for i in range(N)})
        own.update({"D.f%d > 0" % (j + 1): (qp if j == 0 else q) > 0 for j in range(10 - N)})
        for check_name, _, value in checks:
            if check_name in own:
                if not own[check_name]:
                    return "%s fails by the closed form" % check_name
                continue
            relation = check_name.rsplit("D.C ", 1)[-1]
            if value is None:
                return "%s carries no value" % check_name
            bad = oracles.sign_problem(relation, oracles.parse_value(value))
            if bad:
                return "%s: %s" % (check_name, bad)
        return None


class SchubertRing:
    """Every product of four ring tables from a cold memo, degrees and multiplicities.

    The tables and degrees run in a fixed order, so that the garbage
    collector interrupts the same products whatever the seed; the seed orders
    the multiplicity pairs.
    """

    name = "schubert-ring"
    SPACES = ((3, 8), (4, 8), (3, 9), (4, 9))
    RZ_SPACE = (4, 8)

    def __init__(self, seed: int, spaces=SPACES, rz_space=RZ_SPACE):
        from grasseff import chow
        rng = random.Random(seed)
        self.inputs, self.ops = [], []
        for k, n in spaces:
            ctx = chow.GrassCtx(k, n)
            # ring_table order
            for m1 in range(ctx.dim + 1):
                for m2 in range(m1, ctx.dim + 1 - m1):
                    for lam in chow.basis(ctx, m1):
                        for mu in chow.basis(ctx, m2):
                            self.inputs.append(("product", k, n, lam.parts, mu.parts))
                            self.ops.append(functools.partial(
                                self._multiply, chow.sigma(ctx, lam.parts),
                                chow.sigma(ctx, mu.parts)))
            self.inputs.append(("degree", k, n))
            self.ops.append(functools.partial(self._degree, ctx))
        ctx = chow.GrassCtx(*rz_space)
        box = [lam for m in range(ctx.dim + 1) for lam in chow.basis(ctx, m)]
        pairs = [(lam, mu) for lam in box for mu in box
                 if all(x <= y for x, y in zip(lam.parts, mu.parts))]
        rng.shuffle(pairs)
        for lam, mu in pairs:
            self.inputs.append(("rz", ctx.k, ctx.n, lam.parts, mu.parts))
            self.ops.append(functools.partial(self._rz, ctx, lam, mu))

    @staticmethod
    def _multiply(a, b):
        from grasseff import chow
        return chow.multiply(a, b)

    @staticmethod
    def _degree(ctx):
        from grasseff import chow
        return chow.degree(ctx)

    @staticmethod
    def _rz(ctx, lam, mu):
        from grasseff import multiplicity
        return multiplicity.rz_multiplicity(ctx, lam, mu)

    @staticmethod
    def normalize(spec, answer):
        if isinstance(answer, int):
            return answer
        return (answer.codim, tuple((nu.parts, c) for nu, c in answer.coeffs.items()))

    @staticmethod
    def check(inputs, answers) -> list[str]:
        problems = []
        tables: dict = {}
        for spec, ans in zip(inputs, answers):
            kind, k, n = spec[:3]
            w = n - k
            if kind == "product":
                lam, mu = spec[3], spec[4]
                codim, terms = ans
                terms = dict(terms)
                tables.setdefault((k, n), {})[(lam, mu)] = terms
                bad = None
                if codim != sum(lam) + sum(mu):
                    bad = "codimension %d" % codim
                elif any(c < 0 for c in terms.values()):
                    bad = "negative structure constant"
                elif codim == k * w:
                    expect = {(w,) * k: 1} if mu == oracles.dual(lam, w) else {}
                    if terms != expect:
                        bad = "Poincare duality fails"
                elif lam == (1,) + (0,) * (k - 1) and terms != oracles.monk(mu, w):
                    bad = "sigma_1 product differs from Monk's rule"
                if bad:
                    problems.append("G(%d,%d) %s*%s: %s" % (k, n, lam, mu, bad))
            elif kind == "degree":
                if ans != oracles.hook_degree(k, w):
                    problems.append("G(%d,%d) degree %s, hook-length formula gives %d"
                                    % (k, n, ans, oracles.hook_degree(k, w)))
            elif kind == "rz":
                if ans < 1 or (spec[3] == spec[4] and ans != 1):
                    problems.append("G(%d,%d) multiplicity %s along %s is %s"
                                    % (k, n, spec[3], spec[4], ans))
        for (k, n), table in tables.items():
            problems += SchubertRing._check_associativity(k, n - k, table)
        return problems

    @staticmethod
    def _check_associativity(k, w, table) -> list[str]:
        """(sigma_1 sigma_lam) sigma_mu == sigma_1 (sigma_lam sigma_mu), sigma_1 by Monk's rule."""
        def product(lam, mu):
            hit = table.get((lam, mu))
            return hit if hit is not None else table[(mu, lam)]

        problems = []
        for (lam, mu), terms in table.items():
            if sum(lam) + sum(mu) + 1 > k * w:
                continue
            left: dict = {}
            for nu in oracles.monk(lam, w):
                oracles.add_into(left, product(nu, mu))
            right: dict = {}
            for rho, c in terms.items():
                oracles.add_into(right, oracles.monk(rho, w), c)
            if oracles.nonzero(left) != oracles.nonzero(right):
                problems.append("G(%d,%d) %s*%s: associativity with sigma_1 fails"
                                % (k, k + w, lam, mu))
        return problems


class OrbitDims:
    """Every orbit of the two-flag triangular group on G(d, 8), plus the F_q oracle."""

    name = "orbit-dims"
    K = 4
    ORACLES = ((2, 0), (2, 1), (2, 2), (3, 1))

    def __init__(self, seed: int, k: int = K, oracle_cases=ORACLES):
        from grasseff import orbits
        rng = random.Random(seed)
        reps = [rep for d in range(k + 1) for rep in orbits.enumerate_orbits(k, d)]
        rng.shuffle(reps)
        self.inputs = [("orbit", k, rep.pairs) for rep in reps]
        self.ops = [functools.partial(self._orbit, rep) for rep in reps]
        for kk, d in oracle_cases:
            at = rng.randint(0, len(self.ops))
            self.inputs.insert(at, ("oracle", kk, d))
            self.ops.insert(at, functools.partial(self._oracle, kk, d))

    @staticmethod
    def _orbit(rep):
        from grasseff import orbits
        inc = orbits.incidence_of_representative(rep)
        back = orbits.representative_from_incidence(inc)
        return inc, back, orbits.orbit_dimension(rep)

    @staticmethod
    def _oracle(k, d):
        from grasseff import orbits
        return orbits.oracle_check(k, d)

    @staticmethod
    def normalize(spec, answer):
        if isinstance(answer, dict):
            return (answer["k"], answer["dim"], answer["orbit_count"], tuple(answer["fields"]),
                    answer["agree"])
        inc, back, dim = answer
        return (inc.entries, back.pairs, dim)

    @staticmethod
    def check(inputs, answers) -> list[str]:
        from grasseff import orbits
        problems = []
        top: dict = {}
        for spec, ans in zip(inputs, answers):
            if spec[0] == "orbit":
                _, k, pairs = spec
                entries, back, dim = ans
                d = len(pairs)
                own = oracles.incidence(pairs, k)
                bad = None
                if entries != own:
                    bad = "incidence matrix differs"
                elif oracles.incidence(back, k) != own:
                    bad = "incidence round trip changes the matrix"
                elif dim != oracles.orbit_dimension(pairs, k):
                    bad = "dimension %d, rank mod p gives %d" % (
                        dim, oracles.orbit_dimension(pairs, k))
                if bad:
                    problems.append("orbit %s: %s" % (pairs, bad))
                if d == k:
                    top[k] = max(top.get(k, 0), dim)
            else:
                _, k, d = spec
                rk, rd, count, fields, agree = ans
                if (rk, rd) != (k, d) or not agree or not fields:
                    problems.append("oracle k=%d d=%d: fields disagree" % (k, d))
                elif count != oracles.combinatorial_orbit_count(k, d):
                    problems.append("oracle k=%d d=%d: %d orbits, expected %d"
                                    % (k, d, count, oracles.combinatorial_orbit_count(k, d)))
                for q in fields:  # F_q points per incidence matrix, outside timing
                    counts = orbits.ff_orbit_counts(k, d, q)
                    if sum(counts.values()) != oracles.gaussian_binomial(2 * k, d, q) \
                            or len(counts) != count:
                        problems.append("oracle k=%d d=%d q=%d: point counts do not sum to "
                                        "the Gaussian binomial" % (k, d, q))
        for k, dim in top.items():
            if dim != k * k:
                problems.append("largest orbit of %d-planes has dimension %d, not %d"
                                % (k, dim, k * k))
        return problems


WORKLOADS = {w.name: w for w in (DivisorGrid, BlowupCones, SchubertRing, OrbitDims)}

