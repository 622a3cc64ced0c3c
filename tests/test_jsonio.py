import json
from fractions import Fraction

from grasseff import chow, jsonio, ring_io
from grasseff.chow import GrassCtx


def test_frac_round_trip():
    for x in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(22, 11)):
        assert jsonio.parse_frac(jsonio.frac_str(x)) == x
    assert jsonio.frac_str(Fraction(2, -4)) == "-1/2"
    assert jsonio.parse_frac(5) == 5


def test_parse_frac_rejects_zero_denominator():
    import pytest
    with pytest.raises(ValueError, match="zero denominator"):
        jsonio.parse_frac("1/0")


def test_parse_frac_rejects_bool():
    import pytest
    for b in (True, False):
        with pytest.raises(ValueError, match="boolean"):
            jsonio.parse_frac(b)


def test_parse_frac_rejects_float_but_reads_decimal_text():
    import pytest
    for x in (0.5, 1.0, 0.12345678901234567890):
        with pytest.raises(ValueError, match="float"):
            jsonio.parse_frac(x)
    assert jsonio.parse_frac("0.5") == Fraction(1, 2)
    assert jsonio.parse_frac("1/3") == Fraction(1, 3)
    assert jsonio.parse_frac(-4) == -4


def test_parse_frac_refuses_huge_exponents_quickly():
    import time

    import pytest
    assert jsonio.parse_frac("1e3") == 1000
    assert jsonio.parse_frac("-2.5E-3") == Fraction(-1, 400)
    assert jsonio.parse_frac("1e4299") == 10 ** 4299
    start = time.perf_counter()
    for text in ("1e4300", "1e-4300", "1e1000000", "1e10000000", "0.5e100000000"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            jsonio.parse_frac(text)
    assert time.perf_counter() - start < 0.5


def test_canonical_dumps_is_sorted_and_compact():
    s = jsonio.canonical_dumps({"b": Fraction(1, 2), "a": [1, (2, 3)]})
    assert s == '{"a":[1,[2,3]],"b":"1/2"}'
    # parse and re-dump is byte-identical
    assert jsonio.canonical_dumps(json.loads(s)) == s


def test_canonical_dumps_uses_to_json():
    import pytest
    ctx = GrassCtx(2, 4)
    data = json.loads(jsonio.canonical_dumps({"x": chow.sigma(ctx, (1,))}))
    assert data["x"]["terms"] == [{"lambda": [1], "c": 1}]
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        jsonio.canonical_dumps(object())


def test_ring_export_round_trip(tmp_path):
    path = tmp_path / "ring_2_4.json"
    table = ring_io.export_ring(2, 4, str(path))
    assert sum(len(v) for v in table["basis"].values()) == 6
    entry = next(rec for rec in table["products"] if rec["a"] == [1] and rec["b"] == [1])
    assert entry["terms"] == [{"lambda": [2], "c": 1}, {"lambda": [1, 1], "c": 1}]
    # byte-compare the file read back with the returned table
    loaded = json.loads(path.read_text())
    assert json.dumps(loaded, sort_keys=True) == json.dumps(table, sort_keys=True)
    # the exported constants match live computation
    ctx = GrassCtx(2, 4)
    prod = chow.multiply(chow.sigma(ctx, (1,)), chow.sigma(ctx, (1,)))
    assert prod == chow.sigma(ctx, (2,)) + chow.sigma(ctx, (1, 1))


def test_ring_table_cap(tmp_path):
    import pytest
    from grasseff.errors import InputError
    with pytest.raises(InputError):
        ring_io.ring_table(5, 11)  # 462 classes: more pairs than the product memo holds
