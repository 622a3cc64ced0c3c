import pytest

from grasseff import blowup, chow
from grasseff.blowup import BlowupClass, BlowupCtx, blow_class, divisor_power_pair, \
    effective_representation_check, exceptional, pair_blowup
from grasseff.chow import GrassCtx
from grasseff.errors import InputError

G24 = GrassCtx(2, 4)
G25 = GrassCtx(2, 5)


def bctx(ctx, r):
    return BlowupCtx(ctx, r)


def test_exceptional_gram_matrix():
    b = bctx(G24, 3)
    for m in (1, 2, 3):
        for i in range(3):
            for j in range(3):
                ei = exceptional(b, "dim", m, i)
                ej = exceptional(b, "codim", m, j)
                assert pair_blowup(ei, ej) == (-1 if i == j else 0)


def test_ambient_pairing_unchanged():
    b = bctx(G24, 2)
    curve = blow_class(b, "dim", 1, chow.sigma(G24, (2, 1)).scale(3), (0, 0))
    h = blow_class(b, "codim", 1, chow.sigma(G24, (1,)), (0, 0))
    assert pair_blowup(curve, h) == 3 * chow.pair(chow.sigma(G24, (2, 1)), chow.sigma(G24, (1,)))


def test_line_pairing_identity():
    # (a*l - sum b_i l_i) . (H - sum E_i) = a - sum b_i
    b = bctx(G24, 3)
    a, bs = 4, (1, 2, 0)
    curve = blow_class(b, "dim", 1, chow.sigma(G24, (2, 1)).scale(a), bs)
    D = blow_class(b, "codim", 1, chow.sigma(G24, (1,)), (1, 1, 1))
    assert pair_blowup(curve, D) == a - sum(bs)


def test_divisor_square_identity():
    # (H - sum E_i)^2 . beta = a_2 + a_{1,1} - sum b_i on blown-up G(2,4)
    b = bctx(G24, 2)
    beta = blow_class(b, "dim", 2, chow.sigma(G24, (2,)).scale(3) + chow.sigma(G24, (1, 1)).scale(2),
                      (1, 4))
    D = blow_class(b, "codim", 1, chow.sigma(G24, (1,)), (1, 1))
    assert divisor_power_pair(D, 2, beta) == 3 + 2 - 5


def test_divisor_power_pair_r0_matches_ambient():
    b = bctx(G25, 0)
    for p in (1, 2, 3):
        for parts in [lam.parts for lam in chow.basis(G25, G25.dim - p)]:
            beta = blow_class(b, "dim", p, chow.sigma(G25, parts), ())
            D = blow_class(b, "codim", 1, chow.sigma(G25, (1,)).scale(2), ())
            hp = chow.unit(G25)
            for _ in range(p):
                hp = chow.multiply(hp, chow.sigma(G25, (1,)).scale(2))
            assert divisor_power_pair(D, p, beta) == chow.pair(hp, chow.sigma(G25, parts))


def test_divisor_power_pair_requires_h_support():
    b = bctx(G24, 1)
    D = blow_class(b, "codim", 1, chow.sigma(G24, (1,)), (1,))
    bad = blow_class(b, "codim", 1, chow.sigma(G24, (1,)), (0,))
    beta = blow_class(b, "dim", 2, chow.sigma(G24, (2,)), (0,))
    assert divisor_power_pair(D, 2, beta) == 1 - 0
    with pytest.raises(InputError):
        divisor_power_pair(blow_class(b, "dim", 1, chow.sigma(G24, (2, 1)), (0,)), 1, beta)


def test_grading_checks():
    b = bctx(G24, 1)
    with pytest.raises(InputError):
        pair_blowup(exceptional(b, "dim", 1, 0), exceptional(b, "dim", 1, 0))
    with pytest.raises(InputError):
        pair_blowup(exceptional(b, "dim", 1, 0), exceptional(b, "codim", 2, 0))


def test_add_and_scale():
    b = bctx(G24, 2)
    x = blow_class(b, "dim", 1, chow.sigma(G24, (2, 1)), (1, 0))
    y = blow_class(b, "dim", 1, chow.sigma(G24, (2, 1)), (0, 2))
    z = x.add(y).scale(3)
    assert z.exc == (3, 6)
    assert z.ambient == chow.sigma(G24, (2, 1)).scale(6)


def test_effective_representation_check():
    b = bctx(G24, 3)
    e0 = exceptional(b, "dim", 1, 0)
    assert effective_representation_check(e0) == "exceptional-supported"
    std = blow_class(b, "dim", 1, chow.sigma(G24, (2, 1)).scale(2), (1, 1, 0))
    assert effective_representation_check(std) == "standard-form"
    mixed = blow_class(b, "dim", 1, chow.sigma(G24, (2, 1)).scale(-1), (0, 0, 0))
    assert effective_representation_check(mixed) == "indeterminate"


def test_json_shape():
    b = bctx(G24, 2)
    cls = blow_class(b, "dim", 2, chow.sigma(G24, (2,)), (1, 1))
    data = cls.to_json()
    assert data["exc"] == [1, 1] and data["grading"] == "dim" and data["m"] == 2
