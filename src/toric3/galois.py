"""Exact arithmetic in GF(q) for prime powers q <= 64.

Elements are plain ints.  An element of GF(p^m) encodes its coefficient
vector in base p (value = sum c_i * p^i), so addition is digit-wise mod
p and multiplication runs through discrete-log tables built from a
pinned primitive polynomial.  A prime field is the case m = 1 with the
modulus x - alpha, alpha the smallest primitive root, so its elements
are the residues mod p.  Pinning the modulus makes exp/log tables, and
hence every column ordering and JSON output downstream, reproducible.

All units are powers of the generator ``alpha``; ``exp``/``log`` tables
are mutually inverse on units.  Full q x q add/mul tables are
precomputed by numpy from the digit array (q <= 64, so at most 4096
entries each) for the scalar arithmetic below.  Every element fits a
byte, so the exp and mul tables also come as read-only uint8 copies
(``exp_u8``, ``mul_u8``), from which ``codes`` builds its generator
matrices and codewords; it adds them digit by digit, with no table.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from numbers import Integral

import numpy as np

from .errors import DivisionByZero, InvalidParams, NotPrimePower, UnsupportedOrder, ZeroArgument

# Primitive polynomials, coefficients low -> high degree, leading 1 included.
# One per supported extension order; verified primitive at build time.
_PRIMITIVE_POLY = {
    4: (2, (1, 1, 1)),            # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),         # x^3 + x + 1
    9: (3, (2, 1, 1)),            # x^2 + x + 2
    16: (2, (1, 1, 0, 0, 1)),     # x^4 + x + 1
    25: (5, (2, 1, 1)),           # x^2 + x + 2
    27: (3, (1, 2, 0, 1)),        # x^3 + 2x + 1
    32: (2, (1, 0, 1, 0, 0, 1)),  # x^5 + x^2 + 1
    49: (7, (3, 1, 1)),           # x^2 + x + 3
    64: (2, (1, 1, 0, 0, 0, 0, 1)),  # x^6 + x + 1
}

MAX_ORDER = 64


def _factor_prime_power(q: int):
    """Return (p, m) with q = p^m and p prime, or None; None also for a q
    that is not an integer."""
    if not isinstance(q, Integral) or q < 2:
        return None
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            n = q
            while n % p == 0:
                n //= p
                m += 1
            if n != 1:
                return None
            # p is the smallest divisor, hence prime
            return p, m
    return None


class FieldSpec:
    """GF(q) with exp/log tables over a fixed primitive element.

    Not constructed directly; use :func:`make_field`.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None, alpha: int):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus  # None for prime fields
        self.alpha = alpha
        self.alpha_order = self.q - 1
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        # row v holds the base-p digits of v, lowest first
        place = p ** np.arange(m)
        digits = np.arange(q)[:, None] // place % p
        # a prime field is GF(p)[x]/(x - alpha), the case m = 1
        low = np.array((self.modulus or ((-self.alpha) % p, 1))[:m])
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        v = 1
        for i in range(q - 1):
            if log[v] != -1:
                raise UnsupportedOrder(
                    f"modulus for q={q} is not primitive (cycle length {i})"
                )
            exp[i] = v
            log[v] = i
            # times x: shift the digits up, fold the top one back by the modulus
            d = digits[v]
            v = int((np.r_[0, d[:-1]] - d[-1] * low) % p @ place)
        if v != 1:
            raise UnsupportedOrder(f"generator for q={q} does not close its cycle")
        self.exp_table = exp
        self.log_table = log
        self.add_table = (digits[:, None] + digits[None]) % p @ place
        self.neg_table = -digits % p @ place
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        self.mul_table = mul
        # the codes' copies: q <= 64, so every element fits a byte
        self.exp_u8, self.mul_u8 = exp.astype(np.uint8), mul.astype(np.uint8)
        # make_field hands every caller the same cached tables
        for table in (exp, log, self.add_table, self.neg_table, mul, self.exp_u8, self.mul_u8):
            table.setflags(write=False)

    # -- arithmetic ----------------------------------------------------------

    def _element(self, a) -> int:
        """a as a plain int, after checking that it is an integer in
        range(q): the tables would wrap a negative index around silently,
        and would read a bool as a mask."""
        if not (isinstance(a, (int, np.integer)) and 0 <= a < self.q):
            raise InvalidParams(f"field elements are integers in range({self.q}); got {a!r}")
        return int(a)

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[self._element(a), self._element(b)])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[self._element(a), self.neg_table[self._element(b)]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[self._element(a), self._element(b)])

    def neg(self, a: int) -> int:
        return int(self.neg_table[self._element(a)])

    def inv(self, a: int) -> int:
        if (a := self._element(a)) == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.exp_table[(-self.log_table[a]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        """a^e for any integer e; negative exponents need a != 0."""
        if not isinstance(e, (int, np.integer)):
            raise InvalidParams(f"exponents are integers; got {e!r}")
        if (a := self._element(a)) == 0:
            if e < 0:
                raise DivisionByZero("0 to a negative power")
            return 1 if e == 0 else 0
        # in Python ints: an int64 product overflows for a large e
        return int(self.exp_table[int(self.log_table[a]) * int(e) % (self.q - 1)])

    def log(self, a: int) -> int:
        if (a := self._element(a)) == 0:
            raise ZeroArgument("log of 0")
        return int(self.log_table[a])

    def exp(self, i: int) -> int:
        """alpha^i for any integer i, negative included."""
        if not isinstance(i, (int, np.integer)):
            raise InvalidParams(f"exponents are integers; got {i!r}")
        return int(self.exp_table[i % (self.q - 1)])

    def units(self) -> list[int]:
        """Units in generator-power order alpha^0, alpha^1, ..."""
        return [int(x) for x in self.exp_table]

    def elements(self) -> list[int]:
        return list(range(self.q))

    def __repr__(self):
        return f"FieldSpec(q={self.q}, p={self.p}, m={self.m}, alpha={self.alpha})"


def _smallest_primitive_root(p: int) -> int:
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    raise UnsupportedOrder(f"no primitive root found mod {p}")


def make_field(q: int) -> FieldSpec:
    """Build GF(q), 3 <= q <= 64, q a prime power.

    Extension fields use a pinned primitive polynomial; prime fields use
    the smallest primitive root mod p.  Fields are cached by (p, m).
    """
    pm = _factor_prime_power(q)
    if pm is None:
        raise NotPrimePower(f"q={q} is not a prime power")
    if q < 3 or q > MAX_ORDER:
        raise UnsupportedOrder(f"q={q} outside supported range [3, {MAX_ORDER}]")
    if pm[1] > 1 and q not in _PRIMITIVE_POLY:
        raise UnsupportedOrder(f"no primitive polynomial pinned for q={q}")
    return _field(*pm)


@lru_cache(maxsize=None)
def _field(p: int, m: int) -> FieldSpec:
    if m == 1:
        return FieldSpec(p, 1, None, _smallest_primitive_root(p))
    return FieldSpec(p, m, _PRIMITIVE_POLY[p**m][1], p)  # alpha encodes the polynomial x


def _check_t(t) -> None:
    """Raise InvalidParams unless t is an integer >= 1."""
    if not isinstance(t, Integral) or t < 1:
        raise InvalidParams(f"t must be an integer >= 1; got {t!r}")


def solve_power(field: FieldSpec, t: int, a: int) -> set[int]:
    """All units y with y^t = a.

    The solution set has size gcd(t, q-1) when a is a t-th power and is
    empty otherwise.  An ``a`` outside range(q) raises InvalidParams.
    """
    if a == 0:
        raise ZeroArgument("solve_power requires a nonzero right-hand side")
    _check_t(t)
    n = field.q - 1
    la = field.log(a)
    g = gcd(t, n)
    if la % g != 0:
        return set()
    # solve t*i = la mod n
    t1, n1 = t // g, n // g
    i0 = (la // g) * pow(t1, -1, n1) % n1
    return {field.exp(i0 + j * n1) for j in range(g)}


def power_image(field: FieldSpec, t: int) -> set[int]:
    """The subgroup {y^t : y a unit}; size (q-1)/gcd(t, q-1).

    Despite being called an automorphism in some sources, y -> y^t is
    only a homomorphism of the unit group for general t.
    """
    _check_t(t)
    n = field.q - 1
    g = gcd(t, n)
    return {field.exp(g * j) for j in range(n // g)}
