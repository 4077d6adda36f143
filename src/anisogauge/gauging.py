"""The certified pair and the simple-object census of its equivariantization.

Gauging the Z/p action v -> c*v on the graded ring of `fusionring` gives a
census of rank p^2 + (q^2 - 1)/p, which exists exactly when p | q + 1.
`certify_pair` turns (p, q) into the field and the order-p c once; the
census, the semidirect table and the criterion suite read that record.
The orbit count is certified by argument, with no walk over the q^2
codes: c has order exactly p, and F_{q^2} is a field, so every nonzero
orbit of v -> c*v has exactly p elements.  Nothing here needs numpy.
"""

from collections import namedtuple

from .errors import ExistenceViolated, NotPrime
from .ffield import is_prime, make_field, pick_order_p

DOUBLE_RANK_BOUND = 200  # the largest group order `double-rank` accepts
COMPLETE_BOUND = 2000  # the largest p*q^2 at which every verify check runs


class Census(namedtuple("Census", "entries global_dim")):
    """Simple-object inventory; weighted square sum must match global_dim.
    Not a dataclass, whose import pulls in inspect on numpy-free paths."""

    __slots__ = ()

    def __new__(cls, entries: tuple, global_dim: int):
        total = sum(count * dim * dim for _, dim, count in entries)
        if total != global_dim:
            raise ArithmeticError(f"census squares sum to {total}, declared {global_dim}")
        return super().__new__(cls, entries, global_dim)

    @property
    def rank(self) -> int:
        return sum(count for _, _, count in self.entries)


# what `certify_pair` returns; a namedtuple for the same reason as `Census`
CertifiedPair = namedtuple("CertifiedPair", "p q ctx c")


def _exists(p: int, q: int) -> bool:
    """The existence condition of the construction: p divides q + 1."""
    return (q + 1) % p == 0


def _require_pair(p: int, q: int) -> None:
    if not (is_prime(p) and is_prime(q)):
        raise NotPrime(f"({p}, {q}) must be prime")
    if not _exists(p, q):
        raise ExistenceViolated(f"p={p} does not divide q+1={q + 1}")


def certify_pair(p: int, q: int) -> CertifiedPair:
    """(p, q, ctx, c): primes p | q + 1, the field F_{q^2} of q and the c of
    `pick_order_p` in its norm-one subgroup, certified to have order p.

    Raises NotPrime or ExistenceViolated for a bad pair, then what
    `make_field` raises.  The c of `pick_order_p` has c != 1 and c^p = 1
    with p prime, so it has order exactly p; this is checked here,
    ArithmeticError otherwise.
    """
    _require_pair(p, q)
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
