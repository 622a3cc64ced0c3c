"""Degree-d Fano verification: the blown-up-plane lattice and the null divisors.

Works in the rank-11 lattice with basis {h, e_1..e_N, f_1..f_{10-N}}, N = 9-d,
intersection form diag(1, -1, ..., -1); a class in it is the triple (h, e, f)
of its integer coefficients. The distinguished class
D = h - (1/3) sum e_i - sqrt(q') f_1 - sqrt(q) sum_{j>=2} f_j has D^2 = 0
identically in q once q' = (9-N)(1/9 - q). D is not itself a lattice class:
it is kept as the linear form C -> D.C, which on an integer class C is
(C_h + sum C_e / 3) + (sum_{j>=2} C_f_j) sqrt(q) + C_f_1 sqrt(q'), and each
check decides the exact sign of that number (`radicals.RadicalNumber.sign`,
which clears denominators once and decides in ints). So D.C is fixed by C's
pairing key, the integer triple (3 C_h + sum C_e, sum_{j>=2} C_f_j, C_f_1),
and a row's 65-104 classes have only 9-11 distinct keys. The classes a
row pairs with D are fixed: they and their keys are built once per process,
on first use (per N for the sample classes), and held as tuples. One report
(one D, one q) signs and prints each distinct key once, in a table that
lives only as long as the report; the lattice check and the zero-pairing
rule for effective samples are still judged class by class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from grasseff.errors import InputError
from grasseff.radicals import RadicalNumber, is_rational


def _check_N(N) -> None:
    """Refuse a lattice rank outside 1..8 (a bool is an int, but never an N)."""
    if type(N) is not int or not (1 <= N <= 8):
        raise InputError("N must be between 1 and 8")


def lattice_class(N: int, h=0, e=(), f=()) -> tuple:
    """The class with integer coefficients h, e = (e_1..e_N), f = (f_1..f_{10-N}).

    An empty e or f stands for zeros; the class is returned as (h, e, f).
    """
    _check_N(N)
    e, f = tuple(e) or (0,) * N, tuple(f) or (0,) * (10 - N)
    if len(e) != N or len(f) != 10 - N:
        raise InputError("expected %d e's and %d f's" % (N, 10 - N))
    if not all(isinstance(x, int) for x in (h, *e, *f)):
        raise InputError("lattice classes have integer coefficients")
    return h, e, f


def _unit_sum(N: int, h: int, *terms) -> tuple:
    """h h + sum of c x_a over the (c, a) in terms, where x_0..x_9 are e_1..e_N, f_1..f_{10-N}."""
    x = [0] * 10
    for c, a in terms:
        x[a] += c
    return lattice_class(N, h, x[:N], x[N:])


def qprime_of(N: int, q: Fraction) -> Fraction:
    return (9 - N) * (Fraction(1, 9) - q)


def admissible_q_interval(N: int) -> tuple[Fraction, Fraction]:
    """Open interval of admissible q = delta^2 values."""
    _check_N(N)
    return (Fraction(8 - N, 9 * (9 - N)), Fraction(1, 9))


@dataclass(frozen=True)
class NullDivisor:
    """D = h - (1/3) sum e_i - sqrt(qp) f_1 - sqrt(q) sum_{j>=2} f_j, as a linear form."""

    N: int
    q: Fraction
    qp: Fraction

    def pair(self, c: tuple) -> RadicalNumber:
        """D.C = (C_h + sum C_e / 3) + (sum_{j>=2} C_f_j) sqrt(q) + C_f_1 sqrt(qp)."""
        self._check_lattice(c)
        return self._pair_key(_pairing_key(c))

    def _check_lattice(self, c: tuple) -> None:
        if len(c[1]) != self.N:
            raise InputError("classes live in different lattices")

    def _pair_key(self, key: tuple) -> RadicalNumber:
        """D.C for a class with pairing key (t, b, c): t/3 + b sqrt(q) + c sqrt(qp)."""
        t, b, c = key
        return RadicalNumber(Fraction(t, 3), b, c, self.q, self.qp)

    def square(self) -> Fraction:
        """D.D = 1 - N/9 - qp - (9-N) q; the sqrt(q) sqrt(qp) cross terms never arise."""
        return 1 - Fraction(self.N, 9) - self.qp - (9 - self.N) * self.q


def _pairing_key(c: tuple) -> tuple:
    """The integer triple (3 C_h + sum C_e, sum_{j>=2} C_f_j, C_f_1); it fixes D.C for every D."""
    h, e, f = c
    return 3 * h + sum(e), sum(f[1:]), f[0]


def _keyed(classes) -> tuple:
    """Each class with its pairing key, as (class, key) pairs."""
    return tuple((c, _pairing_key(c)) for c in classes)


class _PairingTable(dict):
    """One report's pairings: a pairing key -> (sign, repr) of D.C, each decided once;
    square is D.D, also computed once per report."""

    def __init__(self, D: NullDivisor):
        super().__init__()
        self.D = D
        self.square = D.square()

    def __missing__(self, key):
        val = self.D._pair_key(key)
        entry = self[key] = (val.sign(), repr(val))
        return entry


def build_D_delta(N: int, q) -> NullDivisor:
    """h - (1/3) sum e_i - sqrt(q') f_1 - sqrt(q) f_j (j >= 2), with q' tied to q."""
    if not is_rational(q):
        raise InputError("q must be an int or a Fraction, got %r" % (q,))
    lo, hi = admissible_q_interval(N)
    q = Fraction(q)
    if not (lo < q < hi):
        raise InputError(
            "q outside the open interval: need sqrt((8-N)/(9(9-N))) < delta < 1/3, "
            "i.e. %s < q < %s" % (lo, hi))
    return NullDivisor(N, q, qprime_of(N, q))


def d_squared_symbolic(N: int) -> tuple[Fraction, Fraction]:
    """Coefficients (constant, q) of D^2 as a polynomial in formal q; both must vanish."""
    # D^2 = 1 - N/9 - q' - (9-N) q with q' = (9-N)(1/9 - q)
    const = 1 - Fraction(N, 9) - Fraction(9 - N, 9)
    linear = Fraction(9 - N) - Fraction(9 - N)
    return (const, linear)


def _check(name, ok, text=None):
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if text is not None:
        entry["value"] = text
    return entry


def verify_nef_conditions(N: int, q) -> dict:
    """The exact positivity checks that make D nonnegative on K-negative classes.

    The K-nonnegative half of nefness needs the blown-up-plane interpolation
    conjecture; it is recorded as an assumption, never computed.
    """
    D = build_D_delta(N, q)
    return _nef_report(D, _PairingTable(D))


def _nef_report(D: NullDivisor, table: _PairingTable) -> dict:
    N, q = D.N, D.q
    basis = _samples(N)
    checks = [
        _check("D.D == 0", table.square == 0),
        _check("D.h > 0", table[basis[0][1]][0] > 0),
    ]
    for a in range(10):
        label = "e%d" % (a + 1) if a < N else "f%d" % (a - N + 1)
        checks.append(_check("D.%s > 0" % label, table[basis[a + 1][1]][0] > 0))
    checks.append(_check("9q < 1", 9 * q < 1, repr(9 * q)))
    checks.append(_check("9q' < 1", 9 * D.qp < 1, repr(9 * D.qp)))
    const, linear = d_squared_symbolic(N)
    checks.append(_check("D.D == 0 identically in q", const == 0 and linear == 0))
    return {
        "N": N,
        "q": str(q),
        "qp": str(D.qp),
        "checks": checks,
        "assumptions": ["SHGH"],
        "ok": all(c["status"] == "pass" for c in checks),
    }


def check_lemma65(D: NullDivisor, kernel_gens, gamma_gens, sample_eff_gens) -> dict:
    """Exact evaluation of the extremality conditions on given generator lists.

    (2) D.C = 0 on the kernel; (3) D.C > 0 on Gamma; for (1) only the
    computable part: D^2 = 0, D.h > 0, D.g >= 0 on the sampled effective
    classes, equality allowed only for rational multiples of D's rational
    projection. Full nefness over the whole effective cone is assumed (SHGH).
    """
    return _lemma65(D, _PairingTable(D), _keyed(kernel_gens), _keyed(gamma_gens),
                    _keyed(sample_eff_gens))


def _lemma65(D: NullDivisor, table: _PairingTable, kernel, gamma, samples) -> dict:
    """check_lemma65 on (class, pairing key) pairs, every sign read from the report's table."""
    for c, _ in itertools.chain(kernel, gamma, samples):
        D._check_lattice(c)
    checks = [
        _check("D.D == 0", table.square == 0),
        _check("D.h > 0", table[_samples(D.N)[0][1]][0] > 0),
    ]
    for idx, (_, key) in enumerate(kernel):
        s, text = table[key]
        checks.append(_check("kernel[%d]: D.C == 0" % idx, s == 0, text))
    for idx, (_, key) in enumerate(gamma):
        s, text = table[key]
        checks.append(_check("gamma[%d]: D.C > 0" % idx, s > 0, text))
    for idx, (c, key) in enumerate(samples):
        s, text = table[key]
        ok = s > 0 or (s == 0 and _is_rational_multiple_of_projection(c))
        checks.append(_check("effective sample[%d]: D.C >= 0" % idx, ok, text))
    return {
        "N": D.N,
        "checks": checks,
        "assumptions": ["SHGH"],
        "ok": all(c["status"] == "pass" for c in checks),
    }


def _is_rational_multiple_of_projection(c: tuple) -> bool:
    # D's rational projection is h - (1/3) sum e_i
    h, e, f = c
    return not any(f) and all(3 * x == -h for x in e)


@dataclass(frozen=True)
class FanoCase:
    """One row of the degree table: a Fano with -K = (dim-1)H and d = H^dim."""

    name: str
    degree: int
    kernel_e_indices: tuple       # i's for kernel h - 3e_i, or () when custom
    gamma_f_indices: tuple        # j's for gamma h - 3f_j, as printed
    kernel_kind: str = "h-3e"     # "h-3e", "e-e", "h-e-e-e"
    gamma_kind: str = "h-3f"      # "h-3f", "mixed-p2p2", "e-f"

    @property
    def N(self) -> int:
        return 9 - self.degree


FANO_TABLE = (
    FanoCase("grass25", 5, (1, 2, 3, 4), (1, 2, 3, 4, 5, 6)),
    FanoCase("quadric_intersection", 4, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5)),
    FanoCase("cubic", 3, (1, 2, 3, 4, 5, 6), (1, 2, 3, 4)),
    FanoCase("p2xp2", 6, (), (), kernel_kind="e-e", gamma_kind="mixed-p2p2"),
    FanoCase("p1p1p1", 6, (1, 2, 3), (), kernel_kind="h-e-e-e", gamma_kind="e-f"),
    FanoCase("double_cover", 2, (1, 2, 3, 4, 5, 6, 7), (1, 2, 3)),
    # gamma range kept as printed in the source table even though only
    # 10 - N = 2 f-classes exist; out-of-range indices are dropped with a note
    FanoCase("sextic", 1, tuple(range(1, 9)), (2, 3, 4)),
    FanoCase("blowup_p3", 7, (1, 2), (1, 2, 3, 4, 5, 6, 7, 8)),
)


def fano_case(name: str) -> FanoCase:
    for case in FANO_TABLE:
        if case.name == name:
            return case
    raise InputError("unknown case %r; known: %s"
                     % (name, ", ".join(c.name for c in FANO_TABLE)))


def kernel_classes(case: FanoCase) -> list[tuple]:
    N = case.N
    if case.kernel_kind == "h-3e":
        return [_unit_sum(N, 1, (-3, i - 1)) for i in case.kernel_e_indices]
    if case.kernel_kind == "e-e":
        return [_unit_sum(N, 0, (1, i), (-1, j)) for i in range(N) for j in range(N) if i != j]
    if case.kernel_kind == "h-e-e-e":
        return [_unit_sum(N, 1, *((-1, i) for i in range(N)))]
    raise InputError("unknown kernel kind %r" % case.kernel_kind)


def gamma_classes(case: FanoCase) -> tuple[list[tuple], list[int]]:
    """Gamma generators and the list of printed indices that had to be dropped."""
    N = case.N
    nf = 10 - N
    if case.gamma_kind == "h-3f":
        kept = [j for j in case.gamma_f_indices if 1 <= j <= nf]
        dropped = [j for j in case.gamma_f_indices if not (1 <= j <= nf)]
        return [_unit_sum(N, 1, (-3, N + j - 1)) for j in kept], dropped
    if case.gamma_kind not in ("e-f", "mixed-p2p2"):
        raise InputError("unknown gamma kind %r" % case.gamma_kind)
    out = [_unit_sum(N, 0, (1, i), (-1, N + j)) for i in range(N) for j in range(nf)]
    if case.gamma_kind == "mixed-p2p2":
        out += [_unit_sum(N, 1, (-1, i), (-1, j), (-1, N + m))
                for i, j in itertools.combinations(range(N), 2) for m in range(nf)]
    return out, []


def sample_effective_classes(N: int) -> list[tuple]:
    """A spot-check list of effective classes: the basis and the (-1)-lines."""
    return [c for c, _ in _samples(N)]


@lru_cache(maxsize=8)  # one entry per N; a bad N raises and is not kept
def _samples(N: int) -> tuple:
    """h, e_1..e_N, f_1..f_{10-N}, then the (-1)-lines h - x_a - x_b, each with its
    pairing key, built once per N."""
    return _keyed((_unit_sum(N, 1),) + tuple(_unit_sum(N, 0, (1, a)) for a in range(10))
                  + tuple(_unit_sum(N, 1, (-1, a), (-1, b))
                          for a, b in itertools.combinations(range(10), 2)))


@lru_cache(maxsize=len(FANO_TABLE))  # one entry per row
def _row_classes(case: FanoCase) -> tuple:
    """A row's kernel and Gamma classes, each with its pairing key, and its dropped
    Gamma indices, built once."""
    gamma, dropped = gamma_classes(case)
    return _keyed(kernel_classes(case)), _keyed(gamma), tuple(dropped)


def verify_case(name: str, q) -> dict:
    """Full report for one table row at one admissible q."""
    case = fano_case(name)
    N = case.N
    D = build_D_delta(N, q)
    table = _PairingTable(D)
    nef = _nef_report(D, table)
    kern, gamma, dropped = _row_classes(case)
    lemma = _lemma65(D, table, kern, gamma, _samples(N))
    report = {
        "case": name,
        "degree": case.degree,
        "N": N,
        "q": str(D.q),
        "checks": nef["checks"] + lemma["checks"],
        "assumptions": ["SHGH"],
        "ok": nef["ok"] and lemma["ok"],
    }
    if dropped:
        report["dropped_gamma_indices"] = list(dropped)
        report["notes"] = ["printed gamma indices beyond the %d available f-classes "
                           "were skipped" % (10 - N)]
    return report


def sample_admissible_q(N: int, count: int = 5) -> list[Fraction]:
    """Evenly spread rationals strictly inside the admissible interval."""
    lo, hi = admissible_q_interval(N)
    return [lo + (hi - lo) * Fraction(t, count + 1) for t in range(1, count + 1)]


def h0_count(n: int, d: int) -> dict:
    """Sections of the index-(n-1) polarization and the residual system dimension."""
    if n < 3 or not (1 <= d <= 8):
        raise InputError("need n >= 3 and 1 <= d <= 8")
    return {"h0": n + d - 1, "residual_dim": n - 2}
