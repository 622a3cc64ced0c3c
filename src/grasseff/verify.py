"""Built-in verification suite: one record per checkable claim, with coverage.

Each record carries a claim id, the inputs, the computed value, the expected
value with a provenance tag (stated: transcribed from the source material;
trivial: immediate from definitions; derived: recomputed via the named
oracle), a status, and any assumptions the claim rests on. The suite also
asserts that every public operation of every module is exercised at least
once.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from functools import partial

from grasseff import blowup, chow, cones, delpezzo, jsonio, multiplicity, orbits, partitions, ring_io
from grasseff.chow import GrassCtx

ALL_OPERATIONS = (
    "partitions.enumerate", "partitions.dual",
    "chow.pieri", "chow.giambelli", "chow.multiply", "chow.pair", "chow.degree",
    "multiplicity.rz_multiplicity", "multiplicity.max_point_multiplicity",
    "blowup.pair_blowup", "blowup.divisor_power_pair", "blowup.effective_representation_check",
    "cones.cone_membership", "cones.lemma41_decompose", "cones.lemma42_decompose",
    "cones.sgen_bound", "cones.very_general_curve_bound", "cones.thm44_generators",
    "cones.quadric_curve_decompose", "cones.g25_threecycle_decompose",
    "cones.g24_nonspan_witness",
    "orbits.representative_from_incidence", "orbits.incidence_of_representative",
    "orbits.enumerate_orbits", "orbits.orbit_dimension", "orbits.dense_orbit_dimension_check",
    "delpezzo.NullDivisor.pair", "delpezzo.build_D_delta", "delpezzo.verify_nef_conditions",
    "delpezzo.check_lemma65", "delpezzo.h0_count",
    "cli.export_ring",
)


def _record(claim_id, location, inputs, computed, expected, tag, ops,
            status=None, assumptions=()):
    if status is None:
        status = "pass" if computed == expected else "fail"
    return {
        "claim": claim_id,
        "location": location,
        "inputs": inputs,
        "computed": computed,
        "expected": expected,
        "tag": tag,
        "status": status,
        "assumptions": list(assumptions),
        "ops": list(ops),
    }


def _str_keys(terms: dict) -> dict:
    """Decomposition terms keyed by str(term key), as JSON writes them."""
    return {str(key): c for key, c in terms.items()}


def run_all() -> dict:
    records = []
    add = records.append

    # --- partitions
    add(_record("enumerate-codim2-2x2", "partition enumeration",
                {"k": 2, "w": 2, "m": 2},
                [list(p.trimmed()) for p in partitions.enumerate_box(2, 2, 2)],
                [[2], [1, 1]], "stated", ["partitions.enumerate"]))
    g24 = GrassCtx(2, 4)
    add(_record("dual-selfdual-2x2", "duality on the 2x2 box",
                {"lambda": [2]},
                list(partitions.dual(g24.partition((2,))).trimmed()),
                [2], "stated", ["partitions.dual"]))

    # --- chow
    s1 = chow.sigma(g24, (1,))
    add(_record("pieri-square-sigma1", "hyperplane class squared",
                {"k": 2, "n": 4},
                repr(chow.pieri(g24, 1, g24.partition((1,)))),
                "1*s(2) + 1*s(1,1)", "stated", ["chow.pieri"]))
    add(_record("product-sigma2-sigma11", "orthogonality of the two codim-2 classes",
                {"k": 2, "n": 4},
                chow.multiply(chow.sigma(g24, (2,)), chow.sigma(g24, (1, 1))).is_zero(),
                True, "stated", ["chow.multiply"]))
    add(_record("pair-relations-g24", "duality pairing on G(2,4)",
                {"k": 2, "n": 4},
                [chow.pair(chow.sigma(g24, (2,)), chow.sigma(g24, (2,))),
                 chow.pair(chow.sigma(g24, (2,)), chow.sigma(g24, (1, 1)))],
                [1, 0], "stated", ["chow.pair"]))
    add(_record("degree-table", "degrees of the three benchmark Grassmannians",
                {"cases": ["G(2,4)", "G(2,5)", "G(3,6)"]},
                [chow.degree(GrassCtx(2, 4)), chow.degree(GrassCtx(2, 5)),
                 chow.degree(GrassCtx(3, 6))],
                [2, 5, 42], "stated", ["chow.degree"]))
    ok = True
    for m in range(g24.dim + 1):
        for lam in chow.basis(g24, m):
            evaluated = chow.zero(g24, m)
            for sign, mono in chow.giambelli(lam):
                cur = chow.unit(g24)
                for size in mono:
                    cur = chow.multiply(cur, chow.sigma(g24, (size,)))
                evaluated = evaluated + cur.scale(sign)
            ok = ok and evaluated == chow.sigma(g24, lam.parts)
    add(_record("giambelli-roundtrip-g24", "determinant expansion vs direct class",
                {"k": 2, "n": 4}, ok, True, "derived: Pieri fold oracle",
                ["chow.giambelli"]))

    # --- multiplicity
    add(_record("mult-sigma1-max", "most singular point of a hyperplane section",
                {"cases": "G(k,2k), k=2..5"},
                [multiplicity.max_point_multiplicity(GrassCtx(k, 2 * k),
                                                     GrassCtx(k, 2 * k).partition((1,)))
                 for k in range(2, 6)],
                [2, 3, 4, 5], "stated", ["multiplicity.max_point_multiplicity"]))
    g25 = GrassCtx(2, 5)
    add(_record("mult-sigma21-g25", "multiplicity of the (2,1) variety at its worst point",
                {"k": 2, "n": 5, "lambda": [2, 1], "mu": [3, 3]},
                multiplicity.rz_multiplicity(g25, g25.partition((2, 1)), g25.partition((3, 3))),
                2, "stated", ["multiplicity.rz_multiplicity"]))
    add(_record("mult-diagonal", "smoothness along the open cell",
                {"k": 2, "n": 5},
                all(multiplicity.rz_multiplicity(g25, lam, lam) == 1
                    for m in range(g25.dim + 1) for lam in chow.basis(g25, m)),
                True, "trivial", ["multiplicity.rz_multiplicity"]))

    # --- blowup
    b3 = blowup.BlowupCtx(g24, 3)
    ell = blowup.blow_class(b3, "dim", 1, chow.sigma(g24, (2, 1)), (0, 0, 0))
    h = blowup.blow_class(b3, "codim", 1, chow.sigma(g24, (1,)), (0, 0, 0))
    ell_1 = blowup.exceptional(b3, "dim", 1, 0)
    h_minus_e = blowup.blow_class(b3, "codim", 1, chow.sigma(g24, (1,)), (1, 1, 1))
    alpha = blowup.blow_class(b3, "dim", 1, chow.sigma(g24, (2, 1)).scale(4), (1, 2, 0))
    add(_record("blowup-pairings", "line and exceptional-line pairings",
                {"r": 3},
                [blowup.pair_blowup(ell, h), blowup.pair_blowup(ell_1, h),
                 blowup.pair_blowup(alpha, h_minus_e)],
                [1, 0, 4 - 3], "stated", ["blowup.pair_blowup"]))
    beta = blowup.blow_class(b3, "dim", 2,
                             chow.sigma(g24, (2,)).scale(2) + chow.sigma(g24, (1, 1)).scale(3),
                             (1, 1, 2))
    d12 = blowup.blow_class(b3, "codim", 1, chow.sigma(g24, (1,)), (1, 1, 0))
    add(_record("divisor-square-identity", "square of H minus two exceptionals",
                {"beta": beta.to_json()},
                blowup.divisor_power_pair(d12, 2, beta),
                2 + 3 - 1 - 1, "stated", ["blowup.divisor_power_pair"]))
    b1_25 = blowup.BlowupCtx(g25, 1)
    alpha3 = blowup.blow_class(b1_25, "dim", 3,
                               chow.sigma(g25, (2, 1)).scale(5) + chow.sigma(g25, (3,)).scale(7),
                               (4,))
    d25 = blowup.blow_class(b1_25, "codim", 1, chow.sigma(g25, (1,)), (1,))
    # both codim-3 classes are self-dual in the 2x3 box, so H^3 pairs to 2a_{2,1} + a_3
    add(_record("divisor-cube-with-exceptional-term",
                "cube of H minus E against a 3-cycle; the exceptional term is kept",
                {"alpha": alpha3.to_json()},
                blowup.divisor_power_pair(d25, 3, alpha3),
                2 * 5 + 1 * 7 - 4,
                "derived: expansion of the cube with top exceptional self-intersection",
                ["blowup.divisor_power_pair"],
                assumptions=["the source display omits the exceptional term; "
                             "the surrounding argument requires it"]))
    add(_record("effective-sign-patterns", "coefficient sign classification",
                {},
                [blowup.effective_representation_check(ell_1.scale(3)),
                 blowup.effective_representation_check(
                     blowup.blow_class(b3, "codim", 2, chow.sigma(g24, (2,)), (1, 0, 0))),
                 blowup.effective_representation_check(
                     blowup.blow_class(b3, "codim", 1, chow.sigma(g24, (1,)).scale(-1), (0, 0, 0)))],
                ["exceptional-supported", "standard-form", "indeterminate"],
                "trivial", ["blowup.effective_representation_check"]))

    # --- cones
    dec = cones.lemma41_decompose(2, 2, 1, 2)
    add(_record("two-point-divisor-peel", "greedy divisor decomposition, k=2",
                {"k": 2, "a": 2, "b": [1, 2]},
                dec, [("beta_0", 1), ("beta_1", 1), ("e2", 1)],
                "derived: resummed against the input vector",
                ["cones.lemma41_decompose"]))
    add(_record("two-point-divisor-resum", "decomposition sums back exactly",
                {"k": 2, "a": 2, "b": [1, 2]},
                list(cones.resum(dec, partial(cones.lemma41_vector, 2), 3)), [2, -1, -2],
                "derived: substitution",
                ["cones.lemma41_decompose"]))
    spec2 = cones.thm44_generators(2)
    add(_record("divisor-cone-generators-k2", "two-point divisor cone generator count",
                {"k": 2}, len(spec2.generators), 5, "stated",
                ["cones.thm44_generators"]))
    yes = cones.cone_membership(spec2, (1, -2, 0))
    no = cones.cone_membership(spec2, (1, -3, 0))
    add(_record("divisor-cone-membership", "H-2E1 inside, H-3E1 outside (k=2)",
                {"k": 2},
                [yes.verdict, no.verdict], ["in-span", "not-in-span"],
                "derived: exact LP with re-verified certificates",
                ["cones.cone_membership"]))
    bctx25 = blowup.BlowupCtx(g25, 2)
    c42 = blowup.blow_class(bctx25, "codim", 3,
                            chow.sigma(g25, (2, 1)).scale(2) + chow.sigma(g25, (3,)),
                            (2, 1))
    sigmas25 = chow.basis(g25, 3)
    total = cones.resum(cones.lemma42_decompose(c42),
                        partial(cones.lemma42_term_vector, sigmas25, 2), len(sigmas25) + 2)
    add(_record("span-decomposition-resum", "greedy span decomposition reproduces the class",
                {"class": c42.to_json()},
                total == cones.blowup_cycle_vector(c42), True,
                "derived: substitution", ["cones.lemma42_decompose"]))
    add(_record("sgen-bounds", "span-generation point bounds",
                {"cases": ["G(2,4) curves", "G(2,5) curves", "G(2,5) surfaces"]},
                [cones.sgen_bound(g24, 1), cones.sgen_bound(g25, 1), cones.sgen_bound(g25, 2)],
                [2, 5, 4], "stated", ["cones.sgen_bound"]))
    add(_record("very-general-curve-bounds", "sharp very-general curve bounds",
                {"cases": ["G(2,4)", "G(3,6)", "G(2,5)"]},
                [cones.very_general_curve_bound(g24),
                 cones.very_general_curve_bound(GrassCtx(3, 6)),
                 cones.very_general_curve_bound(g25)],
                [2, 42, 5], "stated", ["cones.very_general_curve_bound"]))
    q1 = cones.quadric_curve_decompose(2, [1, 1, 1])
    add(_record("quadric-single-conic", "a conic through three points",
                {"a": 2, "b": [1, 1, 1]},
                _str_keys(q1), _str_keys({("conic", 0, 1, 2): 1}), "trivial",
                ["cones.quadric_curve_decompose"]))
    q2 = cones.quadric_curve_decompose(5, [2, 2, 1, 1])
    add(_record("quadric-greedy-two-conics", "two conics plus a residual line",
                {"a": 5, "b": [2, 2, 1, 1]},
                [cones.resum(q2, partial(cones.quadric_term_vector, r=4), 5),
                 sum(c for k, c in q2.items() if k[0] == "conic")],
                [(5, 2, 2, 1, 1), 2],
                "derived: resummed against the input vector",
                ["cones.quadric_curve_decompose"]))
    q3 = cones.quadric_curve_decompose(5, [1, 1, 1, 1, 1, 1, 1])
    add(_record("quadric-seven-point-odd-branch", "odd residual branch with 7 points",
                {"a": 5, "b": [1] * 7},
                cones.resum(q3, partial(cones.quadric_term_vector, r=7), 8),
                (5, 1, 1, 1, 1, 1, 1, 1),
                "derived: resummed against the input vector",
                ["cones.quadric_curve_decompose"]))
    try:
        cones.quadric_curve_decompose(3, [1, 1, 1, 1, 1])
        printed = "decomposed"
    except cones.DecompositionError as exc:
        printed = "error: %s" % exc
    mem = cones.cone_membership(cones.quadric_cone(5), (3, -1, -1, -1, -1, -1))
    add(_record("quadric-printed-odd-example", "the printed 5-point odd example is outside the cone",
                {"a": 3, "b": [1] * 5},
                [printed.startswith("error"), mem.verdict],
                [True, "not-in-span"],
                "derived: exact LP separating functional (diverges from the printed claim)",
                ["cones.quadric_curve_decompose", "cones.cone_membership"],
                assumptions=["the printed example asserts a decomposition exists; "
                             "an exact dual certificate shows the class is not in the cone"]))
    g1 = cones.g25_threecycle_decompose(1, 0, [2])
    g2 = cones.g25_threecycle_decompose(1, 1, [3])
    add(_record("threecycle-decompositions", "doubled-singularity peels on G(2,5) 3-cycles",
                {"cases": [[1, 0, [2]], [1, 1, [3]]]},
                [_str_keys(g1), _str_keys(g2)],
                [_str_keys({("s21-2E", 0): 1}), _str_keys({("s21-2E", 0): 1, ("s3-E", 0): 1})],
                "stated", ["cones.g25_threecycle_decompose"]))
    cls, cert = cones.g24_nonspan_witness()
    back = cones.cone_membership(cones.g24_sgen_cone(2), (1, 1, -1, -1))
    add(_record("g24-nonspan-witness", "the 3-point quadric-surface class leaves the span",
                {"class": cls.to_json()},
                [cert.verdict, back.verdict], ["not-in-span", "in-span"],
                "derived: exact LP certificate, re-verified by substitution",
                ["cones.g24_nonspan_witness", "cones.cone_membership"]))

    # --- orbits
    reps1 = orbits.enumerate_orbits(1, 1)
    add(_record("orbit-count-p1", "three orbits on the projective line",
                {"k": 1, "dim": 1},
                [r.pairs for r in reps1], [((0, 1),), ((1, 0),), ((1, 1),)],
                "trivial", ["orbits.enumerate_orbits"]))
    ok = True
    for k in range(1, 4):
        for d in range(k + 1):
            for rep in orbits.enumerate_orbits(k, d):
                inc = orbits.incidence_of_representative(rep)
                ok = ok and orbits.representative_from_incidence(inc) == rep
    add(_record("orbit-roundtrip", "incidence decoding inverts incidence encoding",
                {"k": "1..3"}, ok, True, "derived: exhaustive round trip",
                ["orbits.representative_from_incidence",
                 "orbits.incidence_of_representative"]))
    oracle = orbits.oracle_check(2, 2)
    add(_record("orbit-oracle-f2-f3", "finite-field realizability agrees with enumeration",
                {"k": 2, "dim": 2}, oracle["agree"], True,
                "derived: subspace enumeration over two finite fields",
                ["orbits.enumerate_orbits"]))
    counts = orbits.ff_orbit_counts(2, 2, 2)
    add(_record("orbit-point-count-partition", "orbit point counts partition the F_2 points",
                {"k": 2, "q": 2}, sum(counts.values()), 35,
                "derived: Gaussian binomial [4 choose 2]_2",
                ["orbits.enumerate_orbits"]))
    # the dense orbit is the anti-diagonal representative: it decodes the
    # incidence profile of a subspace transverse to every F_i + G_j
    dims = [orbits.orbit_dimension(orbits.make_representative(1, [(1, 1)])),
            orbits.orbit_dimension(orbits.make_representative(1, [(1, 0)])),
            orbits.orbit_dimension(orbits.make_representative(2, [(1, 2), (2, 1)]))]
    add(_record("orbit-dimensions", "fixed point, open orbit, and the dense 4-fold orbit",
                {}, dims, [1, 0, 4], "derived: exact stabilizer rank",
                ["orbits.orbit_dimension"]))
    add(_record("dense-orbit-dimension-counts", "triangular-group vs Grassmannian dimensions",
                {"cases": [[2, 2], [3, 3], [4, 3]]},
                [orbits.dense_orbit_dimension_check(2, 2)["verdict"],
                 orbits.dense_orbit_dimension_check(3, 3)["verdict"],
                 orbits.dense_orbit_dimension_check(4, 3)["verdict"]],
                ["no obstruction", "boundary case", "no dense orbit possible"],
                "stated", ["orbits.dense_orbit_dimension_check"]))

    # --- delpezzo
    D = delpezzo.build_D_delta(4, Fraction(1, 10))
    vals = [D.pair(delpezzo.lattice_class(4, 1)).sign(), (D.square() > 0) - (D.square() < 0)]
    add(_record("null-divisor-construction", "D has square zero and positive degree",
                {"N": 4, "q": "1/10"}, vals, [1, 0],
                "derived: exact two-radical arithmetic",
                ["delpezzo.build_D_delta", "delpezzo.NullDivisor.pair"]))
    nef_ok = all(delpezzo.verify_nef_conditions(case.N, q)["ok"]
                 for case in delpezzo.FANO_TABLE
                 for q in delpezzo.sample_admissible_q(case.N, 3))
    add(_record("nef-condition-sweep", "positivity checks across all table rows",
                {"rows": 8, "samples": 3}, nef_ok, True,
                "derived: exact rational inequalities",
                ["delpezzo.verify_nef_conditions"],
                assumptions=["SHGH (the half of nefness over nonnegative-canonical "
                             "classes is assumed, not computed)"]))
    # verify_case shares one pairing table between its nef and Lemma 6.5 halves
    # and so does not call check_lemma65; both run here
    lemma_ok = all(delpezzo.check_lemma65(delpezzo.build_D_delta(case.N, q),
                                          delpezzo.kernel_classes(case),
                                          delpezzo.gamma_classes(case)[0],
                                          delpezzo.sample_effective_classes(case.N))["ok"]
                   and delpezzo.verify_case(case.name, q)["ok"]
                   for case in delpezzo.FANO_TABLE
                   for q in delpezzo.sample_admissible_q(case.N, 1))
    add(_record("extremality-condition-table", "kernel and positive-cone pairings per row",
                {"rows": 8}, lemma_ok, True,
                "derived: exact lattice pairings",
                ["delpezzo.check_lemma65"], assumptions=["SHGH"]))
    add(_record("section-counts", "polarization section counts",
                {"cases": [[6, 5], [3, 3], [3, 7]]},
                [delpezzo.h0_count(6, 5)["h0"], delpezzo.h0_count(3, 3)["h0"],
                 delpezzo.h0_count(3, 7)["h0"]],
                [10, 5, 9], "stated", ["delpezzo.h0_count"]))

    # --- ring export round trip
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring24.json")
        table = ring_io.export_ring(2, 4, path)
        with open(path) as fh:
            table2 = json.load(fh)
        n_basis = sum(len(v) for v in table["basis"].values())
        add(_record("ring-export-roundtrip", "exported table reimports identically",
                    {"k": 2, "n": 4},
                    [n_basis, jsonio.canonical_dumps(table) == jsonio.canonical_dumps(table2)],
                    [6, True], "derived: byte comparison of canonical JSON",
                    ["cli.export_ring"]))

    covered = sorted({op for rec in records for op in rec["ops"]})
    missing = sorted(set(ALL_OPERATIONS) - set(covered))
    records.append(_record("operation-coverage", "every public operation exercised",
                           {"total": len(ALL_OPERATIONS)}, missing, [],
                           "derived: registry comparison", ["cli.run_subcommand"]))
    failed = [r["claim"] for r in records if r["status"] == "fail"]
    return {
        "records": sorted(records, key=lambda r: r["claim"]),
        "failed": failed,
        "ok": not failed,
    }

