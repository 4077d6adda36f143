"""Exact arithmetic in the prime field F_q and its quadratic extension.

Elements of the extension are written a0 + a1*theta, where theta is a root
of the canonical defining polynomial: x^2 - d with d the least quadratic
non-residue mod q (odd q), or x^2 + x + 1 for q = 2.  All arithmetic is
plain integer arithmetic mod q; there is no floating point anywhere.

Everything here is immutable and deterministic: the same q always yields
the same field model, so downstream results are reproducible bit for bit.
q = 2 is supported in restricted mode (no operation that divides by 2).
"""

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate

from .errors import BadParameter, BoundExceeded

DEFAULT_PRIME_BOUND = 10_000
PRIME_TEST_LIMIT = 3317044064679887385961981  # psi_13, the least strong pseudoprime
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # to all of these bases


def is_prime(n: int) -> bool:
    """Deterministic primality: Miller-Rabin on the prime bases 2..41, which no
    strong pseudoprime below PRIME_TEST_LIMIT passes (Sorenson & Webster, Math.
    Comp. 86 (2017) 985-1003); BoundExceeded at or above that limit."""
    if n >= PRIME_TEST_LIMIT:
        raise BoundExceeded(f"{n} is not below the primality limit {PRIME_TEST_LIMIT}")
    if n < 2 or math.gcd(n, math.prod(_MR_BASES)) > 1:
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in _MR_BASES)


@lru_cache(maxsize=None)
def _square_roots(q: int) -> tuple[int | None, ...]:
    """r -> the least a with a^2 = r mod q, or None where r is not a square:
    the one table of square roots mod q, in O(q), since the squares of
    0..q // 2 are all of them."""
    roots: list[int | None] = [None] * q
    for a in range(q // 2 + 1):
        roots[a * a % q] = a
    return tuple(roots)


class FieldCtx:
    """The quadratic extension of F_q, fixed by its canonical defining polynomial.

    The polynomial is stored as (c0, c1) meaning x^2 + c1*x + c0, so the
    generator theta satisfies theta^2 = -c1*theta - c0.  It has no root, by
    argument: d is the first r that `_square_roots`, which lists every square
    mod q, marks as no square (past 0 and 1, which are; every odd prime has
    a non-residue), and x^2 + x + 1 takes the value 1 at both 0 and 1 mod 2.
    """

    __slots__ = ("q", "poly", "d")

    def __init__(self, q: int):
        if not is_prime(q):
            raise BadParameter(f"{q} is not prime")
        self.q = q
        if q == 2:
            self.poly = (1, 1)  # x^2 + x + 1
            self.d = None
        else:
            self.d = _square_roots(q).index(None)  # the least non-residue
            self.poly = ((-self.d) % q, 0)  # x^2 - d

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.q == other.q and self.poly == other.poly

    def __hash__(self):
        return hash((self.q, self.poly))

    def __repr__(self):
        return f"FieldCtx(q={self.q}, poly={self.poly_str()})"

    def poly_str(self) -> str:
        if self.q == 2:
            return "x^2 + x + 1"
        return f"x^2 - {self.d}"

    def elem(self, a0: int, a1: int = 0) -> "ExtElement":
        return ExtElement(self, a0, a1)

    @property
    def zero(self) -> "ExtElement":
        return ExtElement(self, 0, 0)

    @property
    def one(self) -> "ExtElement":
        return ExtElement(self, 1, 0)

    @property
    def theta(self) -> "ExtElement":
        return ExtElement(self, 0, 1)

    def elements(self) -> Iterator["ExtElement"]:
        """All q^2 elements in (a0, a1) lexicographic order."""
        for a0 in range(self.q):
            for a1 in range(self.q):
                yield ExtElement(self, a0, a1)


class ExtElement:
    """An element a0 + a1*theta of the quadratic extension."""

    __slots__ = ("ctx", "a0", "a1")

    def __init__(self, ctx: FieldCtx, a0: int, a1: int = 0):
        self.ctx = ctx
        self.a0 = a0 % ctx.q
        self.a1 = a1 % ctx.q

    def _coerce(self, other) -> "ExtElement":
        """other as an element of this field, or NotImplemented: an element
        of another field is refused, as `==` already tells them apart."""
        if isinstance(other, ExtElement):
            return other if other.ctx is self.ctx or other.ctx == self.ctx else NotImplemented
        if isinstance(other, int):
            return ExtElement(self.ctx, other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElement(self.ctx, self.a0 + o.a0, self.a1 + o.a1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElement(self.ctx, self.a0 - o.a0, self.a1 - o.a1)

    def __neg__(self):
        return ExtElement(self.ctx, -self.a0, -self.a1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        q = self.ctx.q
        c0, c1 = self.ctx.poly
        # (a0 + a1 t)(b0 + b1 t) with t^2 = -c1 t - c0
        hi = self.a1 * o.a1
        return ExtElement(
            self.ctx,
            (self.a0 * o.a0 - c0 * hi) % q,
            (self.a0 * o.a1 + self.a1 * o.a0 - c1 * hi) % q,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int) -> "ExtElement":
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.ctx.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "ExtElement":
        n = norm(self)
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return frobenius(self) * pow(n, -1, self.ctx.q)

    def __eq__(self, other):
        # never equal to an int, which would break the hash contract
        return (
            isinstance(other, ExtElement)
            and self.ctx == other.ctx
            and self.a0 == other.a0
            and self.a1 == other.a1
        )

    def __hash__(self):
        return hash((self.a0, self.a1, self.ctx.q))

    def __bool__(self):
        return self.a0 != 0 or self.a1 != 0

    def key(self) -> tuple[int, int]:
        """Canonical (a0, a1) sort key."""
        return (self.a0, self.a1)

    def __repr__(self):
        if self.a1 == 0:
            return f"{self.a0}"
        return f"{self.a0}+{self.a1}t"


def make_field(q: int) -> FieldCtx:
    """Construct the canonical quadratic extension of F_q.

    Deterministic for fixed q.  Raises BoundExceeded, then BadParameter
    for a q that is not prime.
    """
    if q > DEFAULT_PRIME_BOUND:
        raise BoundExceeded(f"q={q} exceeds bound {DEFAULT_PRIME_BOUND}")
    return FieldCtx(q)


def frobenius(x: ExtElement) -> ExtElement:
    """The involution x -> x^q, fixing exactly the base field: theta^q = -c1 - theta."""
    return ExtElement(x.ctx, x.a0 - x.ctx.poly[1] * x.a1, -x.a1)


def norm(x: ExtElement) -> int:
    """Multiplicative norm x * x^q = a0^2 - c1*a0*a1 + c0*a1^2, in the base field."""
    c0, c1 = x.ctx.poly
    return (x.a0 * x.a0 - c1 * x.a0 * x.a1 + c0 * x.a1 * x.a1) % x.ctx.q


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def _generator(ctx: FieldCtx, candidates, n: int) -> ExtElement:
    """The first candidate g of order n, for candidates with g^n = 1 by argument
    (norm-one, or in F_q^*): g^(n/l) != 1 for each prime l | n makes n its order."""
    cofactors = [n // ell for ell in _prime_factors(n)]
    g = next((g for g in candidates if all(g ** k != ctx.one for k in cofactors)), None)
    if g is None:
        raise ArithmeticError(f"no element of order {n}: the group is not cyclic")
    return g


@lru_cache(maxsize=None)
def norm_one_generator(ctx: FieldCtx) -> ExtElement:
    """A generator g of the norm-one group, certified to have order q + 1.

    The map y -> y^q / y takes F_{q^2}^* onto the norm-one group with kernel
    F_q^*.  The y = a + theta, a = 0 .. q - 1, are the q cosets of F_q^*
    other than F_q^* itself, so their images are the q norm-one elements
    other than 1, each once.  `_generator` certifies the first of order
    q + 1, with no list of the group.  It generates the whole group, by
    argument: every norm-one x has x^(q+1) = x * x^q = 1, and that equation
    has at most q + 1 roots in a field, so the group is exactly the q + 1
    powers of g.
    """
    images = (frobenius(y) / y for y in (ExtElement(ctx, a, 1) for a in range(ctx.q)))
    return _generator(ctx, images, ctx.q + 1)


@lru_cache(maxsize=None)
def ker_norm(ctx: FieldCtx) -> tuple[ExtElement, ...]:
    """All norm-one elements, sorted by (a0, a1): the q + 1 powers of
    `norm_one_generator`, which are the whole group by its argument.  No
    stage calls it; it is the library's ordered list of the group."""
    powers = accumulate([norm_one_generator(ctx)] * ctx.q, ExtElement.__mul__, initial=ctx.one)
    return tuple(sorted(powers, key=ExtElement.key))


def pick_order_p(ctx: FieldCtx, p: int) -> ExtElement:
    """Lexicographically smallest c != 1 with norm(c) = 1 and c^p = 1.

    Requires p prime and p | q + 1 (otherwise BadParameter).
    The norm-one group is cyclic of order q + 1, generated by the g of
    `norm_one_generator`, so its elements of order p are the powers h^k,
    0 < k < p, of h = g^((q+1)/p): the least of them, each one product by h
    from the last, so p - 2 products after h.
    """
    if not is_prime(p):
        raise BadParameter(f"{p} is not prime")
    if (ctx.q + 1) % p != 0:
        raise BadParameter(f"{p} does not divide q+1 = {ctx.q + 1}")
    h = norm_one_generator(ctx) ** ((ctx.q + 1) // p)  # of order p
    return min(accumulate([h] * (p - 1), ExtElement.__mul__), key=ExtElement.key)


def sqrt_ext(ctx: FieldCtx, a: int) -> ExtElement:
    """The canonical square root in the extension of a base-field element a:
    the least root of a mod q from `_square_roots` when a is a square mod q,
    else sqrt(a/d)*theta, as a/d is then a square (at q = 2 every element
    is a square).  So every a has a root up here, and it is the smaller of
    {y, -y} in (a0, a1) order.
    """
    q = ctx.q
    roots = _square_roots(q)
    u = roots[a % q]
    y = ctx.elem(u) if u is not None else ctx.elem(0, roots[a * pow(ctx.d, -1, q) % q])
    if y * y != ctx.elem(a):
        raise ArithmeticError("square-root extraction failed")
    return y
