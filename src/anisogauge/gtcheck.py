"""The eigenvalue-ratio test for group-theoreticality, plus controls.

The test takes a split-orthogonal block map with invertible off-diagonal
block, forms A = alpha + beta*delta*beta^-1, extracts its eigenvalues in
the quadratic extension, and asks whether their ratio is fixed by the
Galois involution.  Rotations of the anisotropic plane fail the test
(non-group-theoretical); rotations of the hyperbolic plane pass it.
"""

from collections import namedtuple

from .errors import BadParameter
from .ffield import ExtElement, FieldCtx, frobenius, is_prime, sqrt_ext
from .gauging import CertifiedPair, _exists
from .orthogroup import Mat2, SplitOrthMap, rotation, split_embedding
from .quadspace import AnisotropicSpace, QuadSpace

# group_theoretical: bool; mu1, mu2: ExtElement; ratio: ExtElement; witness: str
GTVerdict = namedtuple("GTVerdict", "group_theoretical mu1 mu2 ratio witness")


def eigenvalues_2x2(m: Mat2, ctx: FieldCtx) -> tuple[ExtElement, ExtElement]:
    """Roots of x^2 - tr(m) x + det(m) in the extension, canonically ordered.

    The discriminant tr^2 - 4 det lies in F_q, and `sqrt_ext` takes its
    square root in the extension, so both roots exist.
    """
    if ctx.q == 2:
        raise BadParameter("eigenvalue extraction needs odd characteristic")
    q = ctx.q
    if m.q != q:
        raise TypeError(f"{m!r} is not over F_{q}")
    tr, det = m.tr(), m.det()
    root = sqrt_ext(ctx, tr * tr - 4 * det)
    inv2 = pow(2, -1, q)
    mu1 = (ctx.elem(tr) + root) * inv2
    mu2 = (ctx.elem(tr) - root) * inv2
    mu1, mu2 = sorted((mu1, mu2), key=ExtElement.key)
    if mu1 + mu2 != ctx.elem(tr) or mu1 * mu2 != ctx.elem(det):
        raise ArithmeticError("eigenvalue pair fails the trace/determinant check")
    return mu1, mu2


def gt_criterion(m: SplitOrthMap) -> GTVerdict:
    """Apply the eigenvalue-ratio test to a split-orthogonal block map.

    Requires an invertible beta block.  On a map from `split_embedding`,
    A = alpha + beta*delta*beta^-1 is I + g for the embedded g: its blocks
    are built as (I + g)/2 and (I - g)/2, which commute.
    """
    if m.beta.det() == 0:
        raise BadParameter("beta block is singular")
    a = m.alpha + m.beta * m.delta * m.beta.inverse()
    mu1, mu2 = eigenvalues_2x2(a, m.ctx)
    if not mu1 or not mu2:
        raise BadParameter("an eigenvalue vanishes; ratio undefined")
    ratio = mu1 / mu2
    gt = frobenius(ratio) == ratio
    return GTVerdict(
        group_theoretical=gt,
        mu1=mu1,
        mu2=mu2,
        ratio=ratio,
        witness=f"frobenius {'fixes' if gt else 'moves'} mu1/mu2 = {ratio!r}",
    )


def hyperbolic_control(space: QuadSpace, a: int) -> SplitOrthMap:
    """Split embedding of the rotation diag(a, a^-1) of the hyperbolic plane `space`.

    Requires odd q and a outside {0, 1} (so that I - g is invertible).
    For a != -1 the criterion on the result comes out group-theoretical
    with base-field eigenvalues 1+a and 1+a^-1.
    """
    q = space.ctx.q
    if q == 2:
        raise BadParameter(f"q={q} must be an odd prime")
    a %= q
    if a in (0, 1):
        raise BadParameter(f"a={a} must avoid 0 and 1 mod q")
    g = Mat2(q, a, 0, 0, pow(a, -1, q))
    return split_embedding(space, g)


def quartic_identity_check(q: int) -> bool:
    """Expand (x+1)^3 (x-1) over F_q and compare with x^4 + 2x^3 - 2x - 1.

    Equal coefficients make the factorization an identity over F_q, hence
    over F_{q^2}; a field has no zero divisors, so the quartic's roots in
    the extension are exactly 1 and -1.  The check is complete at every q.
    """
    if not is_prime(q):
        raise BadParameter(f"q={q} must be prime")
    cube = [1, 3, 3, 1]  # (x+1)^3
    prod = [0] * 5
    for i, ci in enumerate(cube):  # multiply by (x - 1)
        prod[i] += -ci
        prod[i + 1] += ci
    target = [-1, -2, 0, 2, 1]
    return [c % q for c in prod] == [c % q for c in target]


def non_group_theoretical_suite(pair: CertifiedPair,
                                space: QuadSpace) -> list[tuple[str, bool, str]]:
    """The four-step pipeline certifying the anisotropic rotation gauge fails
    the group-theoreticality test, as (name, passed, detail) entries.

    For the pair's order-p norm-one c: (a) the rotation matrix has
    eigenvalues {c, c^-1} exchanged by Frobenius; (b) the ratio
    (1+c)/(1+c^-1) equals c; (c) that ratio is not Galois-fixed; (d) the
    criterion on the rotation of the plane `space` returns non-group-theoretical.
    """
    p, q, ctx, c = pair
    if p == 2 or q == 2:
        raise BadParameter(f"({p}, {q}) must be odd primes")
    if not isinstance(space, AnisotropicSpace) or space.ctx != ctx:
        raise BadParameter(f"{space!r} is not the anisotropic plane over {ctx!r}")
    rho = rotation(ctx, c)
    entries = []

    mu1, mu2 = eigenvalues_2x2(rho, ctx)
    ok_a = {mu1, mu2} == {c, c.inverse()} and frobenius(mu1) == mu2
    entries.append(("eigenvalues-swap", ok_a, f"mu = {mu1!r}, {mu2!r}"))

    lam = (ctx.one + c) / (ctx.one + c.inverse())
    ok_b = lam == c
    entries.append(("lambda-equals-c", ok_b, f"lambda = {lam!r}"))

    ok_c = frobenius(lam) != lam
    entries.append(("lambda-not-in-base", ok_c, f"frobenius moves {lam!r}"))

    verdict = gt_criterion(split_embedding(space, rho))
    ok_d = not verdict.group_theoretical and verdict.ratio in (c, c.inverse())
    entries.append(("non-gt-verdict", ok_d, verdict.witness))

    return entries


def existence_gate(p: int, q: int) -> bool:
    """Whether a non-group-theoretical gauge of total dimension (p*q)^2 can
    exist: odd primes p < q with p dividing q + 1."""
    if not (is_prime(p) and is_prime(q)) or p == 2 or q == 2:
        raise BadParameter(f"({p}, {q}) must be odd primes")
    if not p < q:
        raise BadParameter(f"need p < q, got ({p}, {q})")
    return _exists(p, q)
