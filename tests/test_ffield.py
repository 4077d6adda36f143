import math
import operator

import pytest

from anisogauge import (
    BoundExceeded,
    ExtElement,
    NoSuchElement,
    NotPrime,
    frobenius,
    is_prime,
    ker_norm,
    make_field,
    norm,
    pick_order_p,
    sqrt_ext,
)
from anisogauge.ffield import PRIME_TEST_LIMIT, _prime_factors

SMALL_ODD = [3, 5, 7, 11, 13]


def test_make_field_canonical_polys():
    assert make_field(2).poly == (1, 1)  # x^2 + x + 1
    assert make_field(5).d == 2  # 2 is the least non-residue mod 5
    assert make_field(3).d == 2
    assert make_field(7).d == 3


def test_make_field_rejects_composites_and_bound():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(BoundExceeded):
        make_field(10007)
    with pytest.raises(BoundExceeded):  # refused before any primality test
        make_field(10 ** 30)


def test_defining_polynomial_has_no_root_by_scan():
    # the exhaustive root scan, kept here as the oracle for the argument in FieldCtx
    for q in [n for n in range(2000) if is_prime(n)]:
        c0, c1 = make_field(q).poly
        assert all((a * a + c1 * a + c0) % q for a in range(q)), q


def test_make_field_deterministic():
    assert make_field(13) == make_field(13)
    assert hash(make_field(13)) == hash(make_field(13))


def test_elements_never_equal_ints():
    # ExtElement hashes as (a0, a1, q), so equal to an int it would break
    # the hash contract: 3 and 8 would both equal the element 3 at q = 5
    ctx = make_field(5)
    assert ctx.one != 1 and 1 != ctx.one
    assert len({ctx.one, 1}) == 2
    assert ctx.elem(3) != 8 and ctx.elem(3) != 3
    assert ctx.one + 1 == ctx.elem(2)  # int arithmetic still coerces


def test_arithmetic_refuses_elements_of_another_field():
    # == already tells F_25 from F_49 apart, so + - * / refuse to mix them
    x, y = ExtElement(make_field(5), 1, 1), ExtElement(make_field(7), 3, 0)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, y)
        with pytest.raises(TypeError):
            op(y, x)
    # two equal contexts built apart are one field
    a, b = make_field(5), make_field(5)
    assert a is not b
    assert ExtElement(a, 1, 1) + ExtElement(b, 3, 0) == ExtElement(a, 4, 1)
    assert ExtElement(a, 1, 1) * ExtElement(b, 3, 2) == ExtElement(b, 2, 0)
    assert ExtElement(a, 1, 1) / ExtElement(b, 1, 1) == a.one


def test_arithmetic_field_axioms_exhaustive():
    ctx = make_field(3)
    elems = list(ctx.elements())
    for x in elems:
        for y in elems:
            assert x + y == y + x
            assert x * y == y * x
            for z in elems:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
    for x in elems:
        if x:
            assert x * x.inverse() == ctx.one


def test_defining_relation():
    ctx = make_field(5)
    assert ctx.theta * ctx.theta == ctx.elem(2)
    ctx2 = make_field(2)
    alpha = ctx2.theta
    assert alpha * alpha == alpha + 1


def test_frobenius_examples():
    ctx2 = make_field(2)
    assert frobenius(ctx2.theta) == ctx2.theta + 1
    ctx5 = make_field(5)
    assert frobenius(ctx5.theta) == -ctx5.theta
    assert frobenius(ctx5.one) == ctx5.one


@pytest.mark.parametrize("q", [2] + SMALL_ODD)
def test_frobenius_involutive_and_matches_power(q):
    ctx = make_field(q)
    for x in ctx.elements():
        fx = frobenius(x)
        assert frobenius(fx) == x
        assert fx == x ** q  # closed form against the generic power oracle
        assert (fx == x) == (x.a1 == 0)


def test_norm_examples():
    ctx2 = make_field(2)
    assert norm(ctx2.theta) == 1  # alpha^3 = 1 in the 4-element field
    ctx5 = make_field(5)
    assert norm(ctx5.theta) == 3  # -theta^2 = -2
    assert norm(ctx5.zero) == 0


@pytest.mark.parametrize("q", [2] + SMALL_ODD)
def test_norm_trace_properties(q):
    ctx = make_field(q)
    for x in ctx.elements():
        fx = frobenius(x)
        assert (x * fx).key() == (norm(x), 0)
        assert (x + fx).a1 == 0  # the trace lands in the base field
        assert (norm(x) == 0) == (not x)
    elems = list(ctx.elements())
    for x in elems[:: max(1, len(elems) // 20)]:
        for y in elems:
            assert norm(x * y) == norm(x) * norm(y) % q
            assert frobenius(x + y) == frobenius(x) + frobenius(y)


def test_ker_norm_small():
    ctx = make_field(2)
    kn = ker_norm(ctx)
    assert [x.key() for x in kn] == [(0, 1), (1, 0), (1, 1)]
    assert len(ker_norm(make_field(3))) == 4
    assert len(ker_norm(make_field(5))) == 6


def test_ker_norm_order_all_q_up_to_100():
    # brute-force size check for every prime up to 100
    for q in [n for n in range(2, 101) if is_prime(n)]:
        ctx = make_field(q)
        members = [x for x in ctx.elements() if norm(x) == 1]
        assert len(members) == q + 1
        assert ker_norm(ctx) == tuple(sorted(members, key=ExtElement.key))


def test_pick_order_p():
    assert pick_order_p(make_field(2), 3) == make_field(2).theta
    ctx = make_field(5)
    c = pick_order_p(ctx, 3)
    assert c ** 3 == ctx.one and c != ctx.one and norm(c) == 1
    with pytest.raises(NoSuchElement):
        pick_order_p(make_field(7), 3)  # 3 does not divide 8
    with pytest.raises(NotPrime):
        pick_order_p(ctx, 6)


def test_pick_order_p_outside_base_field():
    for q in SMALL_ODD:
        ctx = make_field(q)
        for p in (3, 5, 7):
            if p != q and (q + 1) % p == 0:
                c = pick_order_p(ctx, p)
                assert c ** p == ctx.one
                assert c.a1 != 0


def test_sqrt_examples():
    ctx = make_field(5)
    assert sqrt_ext(ctx, 0) == ctx.zero
    assert sqrt_ext(ctx, 2) == ctx.theta
    assert sqrt_ext(ctx, 1) == ctx.one


@pytest.mark.parametrize("q", [2] + SMALL_ODD + [1013])
def test_sqrt_total_behaviour(q):
    # every a in F_q has a root in the extension, in F_q exactly when a is
    # a square mod q, and the root is the smaller of {y, -y}
    ctx = make_field(q)
    squares = {x * x % q for x in range(q)}
    for a in range(q):
        y = sqrt_ext(ctx, a)
        assert y * y == ctx.elem(a)
        assert y == min(y, -y, key=ExtElement.key)
        assert (y.a1 == 0) == (a in squares)


def test_prime_factors_match_trial_division():
    for n in range(1, 500):
        brute = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        assert _prime_factors(n) == brute


def _trial_division(n: int) -> bool:
    """The primality test by trial division by 2 and the odd numbers up to
    the square root."""
    if n < 4:
        return n >= 2
    return n % 2 != 0 and all(n % f for f in range(3, math.isqrt(n) + 1, 2))


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if is_prime(n)] == [
        n for n in range(200_000) if _trial_division(n)]


# strong pseudoprimes to the bases 2..5, 2..11, 2..13, 2..17 and 2..23, with
# a factorization of each
STRONG_PSEUDOPRIMES = {
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
}


@pytest.mark.parametrize("n", sorted(STRONG_PSEUDOPRIMES))
def test_is_prime_refuses_strong_pseudoprimes(n):
    assert math.prod(STRONG_PSEUDOPRIMES[n]) == n and not is_prime(n)


def test_is_prime_near_and_past_the_limit():
    assert is_prime(10 ** 18 + 3) and is_prime(10 ** 18 + 9)
    assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))
    # at and past the limit no test ends in bounded time, so none is run
    for n in (PRIME_TEST_LIMIT, 43 * PRIME_TEST_LIMIT):
        with pytest.raises(BoundExceeded, match="primality limit"):
            is_prime(n)
