"""The certified pair and the simple-object census of its equivariantization.

Gauging the Z/p action v -> c*v on the graded ring of `fusionring` gives a
census of rank p^2 + (q^2 - 1)/p, which exists exactly when p | q + 1.
`certify_pair` is the one gate of a pair: it turns (p, q) into the field
and the order-p c once, and every stage that reads a pair reads that record.
The orbit count is certified by argument, with no walk over the q^2
codes: c has order exactly p, and F_{q^2} is a field, so every nonzero
orbit of v -> c*v has exactly p elements.  `ring_widths` refuses a ring
over RING_BYTE_BUDGET by integer arithmetic: nothing here needs numpy.
"""

from collections import namedtuple

from .errors import BadParameter, BoundExceeded, ExistenceViolated
from .ffield import is_prime, make_field, pick_order_p

DOUBLE_RANK_BOUND = 200  # the largest group order `double-rank` accepts
COMPLETE_BOUND = 2000  # the largest p*q^2 at which every verify check runs
RING_BYTE_BUDGET = 2 ** 30  # cap on the bytes of a ring's prod, coef and multi, as stored


class Census(namedtuple("Census", "entries global_dim")):
    """Simple-object inventory; weighted square sum must match global_dim."""

    __slots__ = ()

    def __new__(cls, entries: tuple, global_dim: int):
        total = sum(count * dim * dim for _, dim, count in entries)
        if total != global_dim:
            raise ArithmeticError(f"census squares sum to {total}, declared {global_dim}")
        return super().__new__(cls, entries, global_dim)

    @property
    def rank(self) -> int:
        return sum(count for _, _, count in self.entries)


# what `certify_pair` returns
CertifiedPair = namedtuple("CertifiedPair", "p q ctx c")


def _exists(p: int, q: int) -> bool:
    """The existence condition of the construction: p divides q + 1."""
    return (q + 1) % p == 0


def certify_pair(p: int, q: int) -> CertifiedPair:
    """(p, q, ctx, c): primes p | q + 1, the field F_{q^2} of q and the c of
    `pick_order_p` in its norm-one subgroup, certified to have order p.

    Raises BadParameter or ExistenceViolated for a bad pair, then what
    `make_field` raises.  The c of `pick_order_p` has c != 1 and c^p = 1
    with p prime, so it has order exactly p; this is checked here,
    ArithmeticError otherwise.
    """
    if not (is_prime(p) and is_prime(q)):
        raise BadParameter(f"({p}, {q}) must be prime")
    if not _exists(p, q):
        raise ExistenceViolated(f"p={p} does not divide q+1={q + 1}")
    ctx = make_field(q)
    c = pick_order_p(ctx, p)
    if c == ctx.one or c ** p != ctx.one:
        raise ArithmeticError(f"c = {c!r} does not have order {p}")
    return CertifiedPair(p, q, ctx, c)


def equivariantization_census(pair: CertifiedPair) -> Census:
    """Simple objects after the cyclic-group equivariantization.

    Three families: p invertibles (unit with a character), one p-dimensional
    object per free orbit of v -> c*v on the nonzero elements of F_{q^2},
    and p(p-1) q-dimensional pairs (X_i, character).  Rank is
    p^2 + (q^2 - 1) / p and the squares sum to (p*q)^2.

    The orbit count is certified by argument.  The pair's c has order
    exactly p.  By the argument in `FieldCtx`, F_{q^2} is a field, so
    c^k v = v with v != 0 forces c^k = 1, that is p | k.  So every nonzero
    orbit has exactly p elements, and there are (q^2 - 1) / p of them.
    """
    p, q = pair.p, pair.q
    entries = (
        ("(1,chi)", 1, p),
        ("orbit-sum", p, (q * q - 1) // p),
        ("(X_i,chi)", q, p * (p - 1)),
    )
    return Census(entries, p * p * q * q)


def _signed_width(lo: int, hi: int) -> int:
    """The bytes (1, 2, 4 or 8) of the smallest signed integer holding [lo, hi]."""
    return next(w for w in (1, 2, 4, 8) if -(1 << 8 * w - 1) <= lo and hi < 1 << 8 * w - 1)


def ring_widths(n: int, multi_rows: int, lo: int, hi: int) -> tuple:
    """The byte widths of prod, which holds [-multi_rows, n - 1], and of
    coef, which holds [lo, hi]; BoundExceeded when the two n x n arrays at
    those widths and the multi_rows x n int64 multi would take more than
    RING_BYTE_BUDGET bytes."""
    widths = _signed_width(-multi_rows, n - 1), _signed_width(lo, hi)
    size = n * n * sum(widths) + multi_rows * n * 8
    if size > RING_BYTE_BUDGET:
        raise BoundExceeded(f"the ring of rank {n} needs {size} bytes, "
                            f"over the budget of {RING_BYTE_BUDGET}")
    return widths


def extension_ring_widths(p: int, q: int) -> tuple:
    """`ring_widths` of the extension ring of (p, q): rank q^2 + p - 1, one
    multi-term row, coefficients 1 and, for p > 2, q."""
    return ring_widths(q * q + p - 1, 1, 1, q if p > 2 else 1)
