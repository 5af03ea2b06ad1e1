import hashlib
from math import gcd

import numpy as np
import pytest

from toric3.errors import (
    DivisionByZero,
    InvalidParams,
    NotPrimePower,
    UnsupportedOrder,
    ZeroArgument,
)
from toric3.galois import FieldSpec, make_field, power_image, solve_power

SUPPORTED = [3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]

# SHA-256 of the exp, log, add, mul and neg tables (dtype, shape, bytes)
# for every prime power 3 <= q <= 64.  Every generator matrix, column
# order and census row is read from these tables, so any change to one
# of them must show up here first.
TABLE_SHA256 = {
    3: "06b633be7e6dea230d4c3c610fe84f5270131c407ed81d653e0c8aa51b21408b",
    4: "1addfcb623db4439ab2040a373cf36681dfe697b07b2993d537ceaf7efa57c48",
    5: "2e4ac27d99b8c0ad878034a435ed7e14f2478fffa7db3c617837e8eaddeb4720",
    7: "8c130d2ede84cc0d534e00b280800522fe3b6432137f6903da831257fc0ee41a",
    8: "2f7bafea9236fe3e4f5fb657479a37250dfae2cc2383cc94ca841a565bf166b2",
    9: "d96654c62d44dfb98c2bfbe6605de3f05336a4f047edd2cfdbcac51deb155cca",
    11: "f6c4737e69cc387af5389f1b957fdd054cad281a501a527b45177f461ccd7bae",
    13: "32f6df0d836a04d17f344251d644b4d450ef0bbc77deac29701a6f8f90e73946",
    16: "f677537c10c7c1d765c14aa970934e66f3dd027daaf5d0f7d30967474ca71257",
    17: "e9afc95b1280d065054b4a714fe71dcb4b80c93c0ac58a3d7a1932378a7d5957",
    19: "a8add6d0f152d8eb9d01b7862d85df20823e599745a3eba531b82b8e0d16e208",
    23: "e16ad385e3cc747c8a347d6164679d44e67554a5e9f88f83dc1552d56c4a492a",
    25: "3e21f063b120f5797c4bbd6edb45b47cbe697b12ba7d73dba31c91bfe6f8be69",
    27: "232a8e4d6633ee6f64b7d7c1c759be363c187c5c2092b4ab0684247be22160c5",
    29: "5d8e5a55b27e6837cd90771c3d0c9495424b622d9d357d82fd63a5d27a5e3215",
    31: "d452c5727e19b5f5234a67fbf865ae79bcdef5f9a65fe5acaace4fb717b784cf",
    32: "7df62fb1fc12d3411562e07551523b14832d6b2ad8ae7378380c84c2f41adc94",
    37: "d8328bfe9671047d06cb1c3c239b91f19aa44c41fdd36cf3eaa9ac4f944e8566",
    41: "d0d5184433f712b1ad5a220a8181eceb403961c24d28fa9a01b0d578e42ffad1",
    43: "8f92d430a4c15f47287084c81ff25c49d6511950fa3902cd7cd909d94e47f42f",
    47: "a4111cd78395f5038bbf9189b2a9a4addcbfa952092557fff91167eb3c90f7d7",
    49: "50801a3a1c84893e9ef215d2ab44d07e208786991ebae2a98450fc7e7038fc2a",
    53: "846f09404713c3fc9b5d5c8fffdadb606fe263dce680ed8f4d15d8dda006672f",
    59: "352ce56a71772a241a064631ca1e997a020796abe9f670262818e9ce9684b4f4",
    61: "979a98ae1bd9673f7ee70219b8b793c5ef39dcdba5bb4734dd2eace88be12cbc",
    64: "67c9dc22d783ea804328407fa3a2d94e7aeced1643eff5bf73a7aa3ffebcd141",
}
ALL_ORDERS = sorted(TABLE_SHA256)


def test_make_field_gf5_primitive_root():
    f = make_field(5)
    # 2 is the smallest primitive root mod 5: {1, 2, 4, 3}
    assert f.alpha == 2
    assert f.units() == [1, 2, 4, 3]


def test_make_field_not_prime_power():
    with pytest.raises(NotPrimePower):
        make_field(6)
    with pytest.raises(NotPrimePower):
        make_field(12)


def test_a_float_q_is_not_a_prime_power_even_after_its_int_is_cached():
    make_field(7)
    with pytest.raises(NotPrimePower):
        make_field(7.0)


def test_make_field_out_of_range():
    with pytest.raises(UnsupportedOrder):
        make_field(2)
    with pytest.raises(UnsupportedOrder):
        make_field(81)


def test_gf8_unit_group():
    f = make_field(8)
    assert f.modulus == (1, 1, 0, 1)  # x^3 + x + 1
    units = f.units()
    assert len(set(units)) == 7
    assert 0 not in units


@pytest.mark.parametrize("q", SUPPORTED)
def test_exp_log_round_trip(q):
    f = make_field(q)
    for a in f.units():
        assert f.pow(f.alpha, f.log(a)) == a
        assert f.exp(f.log(a)) == a


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in f.elements():
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in f.elements():
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_pow_examples():
    f5 = make_field(5)
    assert f5.pow(2, -1) == 3  # 2 * 3 = 6 = 1 mod 5
    f7 = make_field(7)
    assert f7.pow(3, 6) == 1
    for q in (5, 7, 8, 9):
        f = make_field(q)
        for x in f.units():
            assert f.pow(x, 0) == 1
            assert f.pow(x, q - 1) == 1


def test_pow_reduces_a_huge_exponent_exactly():
    # 10**30 = 4 and -10**30 = 2 mod q - 1 = 6
    f7 = make_field(7)
    assert f7.pow(3, 10**30) == 3**4 % 7 == 4
    assert f7.pow(3, -10**30) == 3**2 % 7 == 2


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        make_field(5).inv(0)


def test_solve_power_examples():
    f7 = make_field(7)
    assert solve_power(f7, 2, 2) == {3, 4}
    assert solve_power(f7, 2, 3) == set()
    f5 = make_field(5)
    assert solve_power(f5, 1, 4) == {4}


def test_solve_power_zero_raises():
    with pytest.raises(ZeroArgument):
        solve_power(make_field(7), 2, 0)


def test_exponent_below_one_is_invalid_params():
    f = make_field(7)
    with pytest.raises(InvalidParams, match="t must be"):
        solve_power(f, 0, 2)
    with pytest.raises(InvalidParams, match="t must be"):
        power_image(f, 0)


@pytest.mark.parametrize("t", [2.5, "2"])
def test_solve_power_needs_an_integer_t(t):
    with pytest.raises(InvalidParams, match="t must be an integer >= 1"):
        solve_power(make_field(7), t, 1)


@pytest.mark.parametrize("t", [2.5, "2"])
def test_power_image_needs_an_integer_t(t):
    with pytest.raises(InvalidParams, match="t must be an integer >= 1"):
        power_image(make_field(7), t)


@pytest.mark.parametrize("method, args, expected", [
    ("add", (True, 1), 2), ("add", (1, True), 2), ("sub", (True, 1), 0), ("sub", (1, True), 0),
    ("mul", (True, 3), 3), ("mul", (3, True), 3), ("neg", (True,), 6), ("inv", (True,), 1),
    ("pow", (True, 5), 1), ("log", (True,), 0),
])
def test_a_bool_element_is_its_int(method, args, expected):
    # True is the integer 1, as encode takes it; the tables once read it as
    # a mask and numpy raised a bare TypeError
    f = make_field(7)
    assert getattr(f, method)(*args) == expected
    assert getattr(f, method)(*map(int, args)) == expected


@pytest.mark.parametrize("q", [5, 7, 8, 9])
@pytest.mark.parametrize("t", [1, 2, 3, 4, 6])
def test_solve_power_size_law(q, t):
    f = make_field(q)
    g = gcd(t, q - 1)
    total = 0
    for a in f.units():
        sols = solve_power(f, t, a)
        assert len(sols) in (0, g)
        for y in sols:
            assert f.pow(y, t) == a
        total += len(sols)
    assert total == q - 1


def test_power_image_examples():
    f7 = make_field(7)
    assert power_image(f7, 3) == {1, 6}
    f5 = make_field(5)
    assert power_image(f5, 3) == set(f5.units())
    f9 = make_field(9)
    sq = power_image(f9, 2)
    assert len(sq) == 4
    assert sq == {f9.mul(a, a) for a in f9.units()}


@pytest.mark.parametrize("q", [5, 7, 9])
def test_power_image_gcd_reduction(q):
    f = make_field(q)
    for t in range(1, 2 * q):
        g = gcd(t, q - 1)
        img = power_image(f, t)
        assert img == power_image(f, g)
        assert len(img) == (q - 1) // g


def _table_digest(f) -> str:
    h = hashlib.sha256()
    for name in ("exp", "log", "add", "mul", "neg"):
        a = getattr(f, name + "_table")
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_all_orders_listed():
    # every prime power 3 <= q <= 64, the primes 17..61 included
    assert len(ALL_ORDERS) == 26
    assert set(SUPPORTED) < set(ALL_ORDERS)


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_tables_pinned(q):
    assert _table_digest(make_field(q)) == TABLE_SHA256[q]


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_field_axioms_vectorized(q):
    f = make_field(q)
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    exp, log = f.exp_table, f.log_table
    for t in (add, mul, neg, exp, log):
        assert t.dtype == np.int64
    x = np.arange(q)
    a, b, c = x[:, None, None], x[None, :, None], x[None, None, :]
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    assert np.array_equal(add[0], x) and np.array_equal(mul[1], x)
    assert not mul[0].any()
    # neg and inv are inverses
    assert not add[x, neg].any()
    units = x[1:]
    inv = np.array([f.inv(u) for u in units])
    assert np.all(mul[units, inv] == 1)
    # exp and log invert each other on the units
    assert np.array_equal(log[exp], np.arange(q - 1))
    assert np.array_equal(exp[log[units]], units)
    # alpha generates the unit group: its q-1 powers are the q-1 units
    assert exp[0] == 1 and exp[1] == f.alpha
    assert np.array_equal(mul[exp, f.alpha], np.roll(exp, -1))
    assert np.array_equal(np.sort(exp), units)


@pytest.mark.parametrize(
    "p,m,modulus,alpha",
    [
        (2, 2, (1, 0, 1), 2),  # x^2 + 1 = (x + 1)^2 over GF(2)
        (7, 1, None, 2),  # 2 has order 3 mod 7
    ],
)
def test_non_primitive_input_raises(p, m, modulus, alpha):
    with pytest.raises(UnsupportedOrder, match="not primitive"):
        FieldSpec(p, m, modulus, alpha)


@pytest.mark.parametrize("name", ["exp_table", "log_table", "add_table", "neg_table", "mul_table"])
def test_shared_tables_are_read_only(name):
    # make_field is cached: a write would reach every later caller
    units = make_field(7).units()
    with pytest.raises(ValueError, match="read-only"):
        getattr(make_field(7), name)[1] = 5
    assert make_field(7).units() == units


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_kernel_byte_tables_copy_the_int64_tables(q):
    f = make_field(q)
    for name in ("exp", "mul"):
        small, wide = getattr(f, name + "_u8"), getattr(f, name + "_table")
        assert small.dtype == np.uint8 and small.nbytes <= 4096
        assert np.array_equal(small, wide)
        assert not small.flags.writeable


@pytest.mark.parametrize("q", [5, 8])
@pytest.mark.parametrize("bad", [-1, -3, "q", "q+1", 1.0])
def test_elements_outside_range_q_are_invalid_params(q, bad):
    # a negative element used to wrap around the tables: over GF(8)
    # log(-1) gave log(7) = 5, mul(-1,-1) gave 3, solve_power(f, 1, -1) {7}
    f = make_field(q)
    a = {"q": q, "q+1": q + 1}.get(bad, bad)
    calls = [
        lambda: f.add(a, 1), lambda: f.add(1, a), lambda: f.sub(a, 1), lambda: f.sub(1, a),
        lambda: f.mul(a, 1), lambda: f.mul(1, a), lambda: f.neg(a), lambda: f.inv(a),
        lambda: f.pow(a, 2), lambda: f.log(a), lambda: solve_power(f, 1, a),
    ]
    for call in calls:
        with pytest.raises(InvalidParams, match=rf"range\({q}\)"):
            call()


def test_exp_takes_any_integer():
    f = make_field(8)
    assert f.exp(-1) == f.exp(6)
    assert f.exp(7 * 3 + 2) == f.exp(2)
    assert f.mul(np.int64(3), np.uint8(5)) == f.mul(3, 5)


@pytest.mark.parametrize("bad", [1.5, 2.0, "a", None])
def test_exp_rejects_a_non_integer(bad):
    # 1.5 used to fail on a table index, "a" in the % operator
    with pytest.raises(InvalidParams, match="exponents are integers"):
        make_field(8).exp(bad)
