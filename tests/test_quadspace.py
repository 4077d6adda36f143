import itertools

import numpy as np
import pytest
from test_orthogroup import _MutatedPlane

from anisogauge import (
    BadParameter,
    HyperbolicSpace,
    Mat2,
    SplitOrthMap,
    build_anisotropic,
    build_hyperbolic,
    make_field,
    metric_group_of,
    split_embedding,
)
from anisogauge.quadspace import gram_matrix
from oracles import bicharacter, split_form

PRIMES_TO_13 = [2, 3, 5, 7, 11, 13]


def _vectors(q):
    """Every coordinate pair (x, y) of F_q^2, in lexicographic order."""
    return itertools.product(range(q), repeat=2)


def _polar(space, v, w):
    """B(v, w) = (Q(v + w) - Q(v) - Q(w)) / 2, from the form on coordinate pairs."""
    q = space.ctx.q
    total = space.form(v[0] + w[0], v[1] + w[1])
    return (total - space.form(*v) - space.form(*w)) * pow(2, -1, q) % q


class _FormPlane(HyperbolicSpace):
    """F_q^2 with the quadratic form (x, y) -> a x^2 + b xy + c y^2."""

    def __init__(self, ctx, a, b, c):
        super().__init__(ctx)
        self.coefs = (a, b, c)

    def form(self, x, y):
        a, b, c = self.coefs
        return (a * x * x + b * x * y + c * y * y) % self.ctx.q


def _degenerate_plane(q):
    """The degenerate plane (x, y) -> x^2."""
    return _FormPlane(make_field(q), 1, 0, 0)


def _scan_nondegenerate(space):
    """Oracle: on all q^4 pairs, the rows a -> b(a, .) of the bicharacter
    t(a + c) - t(a) - t(c) are pairwise distinct, and t is even."""
    q = space.ctx.q
    t = np.empty(q * q, dtype=np.int64)
    for x, y in _vectors(q):
        t[x * q + y] = space.form(x, y) % q
    xs, ys = np.divmod(np.arange(q * q, dtype=np.int64), q)
    if (t != t[(-xs % q) * q + (-ys % q)]).any():
        return False
    add = (xs[:, None] + xs[None, :]) % q * q + (ys[:, None] + ys[None, :]) % q
    b = (t[add] - t[:, None] - t[None, :]) % q
    return len(np.unique(b, axis=0)) == q * q


def test_anisotropic_form_values():
    ctx = make_field(2)
    space = build_anisotropic(ctx)
    assert space.form(*ctx.theta.key()) == 1
    assert space.form(*ctx.zero.key()) == 0
    space3 = build_anisotropic(make_field(3))
    assert {space3.form(*v) for v in _vectors(3) if any(v)} == {1, 2}


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_zero_locus_counts(q):
    ctx = make_field(q)
    aniso = build_anisotropic(ctx)
    assert sum(1 for v in _vectors(q) if aniso.form(*v) == 0) == 1
    hyp = build_hyperbolic(ctx)
    assert sum(1 for v in _vectors(q) if hyp.form(*v) == 0) == 2 * q - 1


def test_anisotropic_q5_no_isotropic_nonzero():
    space = build_anisotropic(make_field(5))
    nonzero = [v for v in _vectors(5) if any(v)]
    assert len(nonzero) == 24
    assert all(space.form(*v) != 0 for v in nonzero)


def test_metric_group_q2_values():
    mg = metric_group_of(build_anisotropic(make_field(2)))
    assert mg.shape == (2, 2)
    assert mg[(1, 0)] == 1  # value -1
    assert mg[(0, 1)] == 1
    assert mg[(0, 0)] == 0


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_metric_group_nondegenerate_and_even(q):
    for build in (build_anisotropic, build_hyperbolic):
        mg = metric_group_of(build(make_field(q)))
        carrier = [(x, y) for x in range(q) for y in range(q)]
        assert mg[(0, 0)] == 0
        for a in carrier:
            neg = tuple((-x) % q for x in a)
            assert mg[a] == mg[neg]
        # injectivity of a -> b(a, .)
        rows = {tuple(bicharacter(mg, a, c) for c in carrier) for a in carrier}
        assert len(rows) == q * q


def _accepts(space):
    try:
        metric_group_of(space)
    except ArithmeticError:
        return False
    return True


@pytest.mark.parametrize("q", PRIMES_TO_13)
def test_metric_group_accepts_exactly_when_the_scan_does(q):
    # both planes and a degenerate one, and for q <= 5 every quadratic form
    ctx = make_field(q)
    spaces = [build_anisotropic(ctx), build_hyperbolic(ctx), _degenerate_plane(q)]
    if q <= 5:
        spaces += [_FormPlane(ctx, *coefs) for coefs in itertools.product(range(q), repeat=3)]
    for space in spaces:
        assert _accepts(space) == _scan_nondegenerate(space), getattr(space, "coefs", space)


@pytest.mark.parametrize("q", PRIMES_TO_13)
def test_certificate_is_the_form_table(q):
    ctx = make_field(q)
    for space in (build_anisotropic(ctx), build_hyperbolic(ctx)):
        cert = space.certificate
        assert space.certificate is cert
        assert isinstance(cert, np.ndarray) and not cert.flags.writeable
        for x, y in _vectors(q):
            assert cert[x, y] == space.form(x, y) % q
        assert metric_group_of(space) is cert


def _mutated_planes(q):
    ctx = make_field(q)
    for where in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 3)):
        for delta in range(1, q):
            yield _MutatedPlane(ctx, where, delta)


@pytest.mark.parametrize("planes,message", [
    ([_degenerate_plane(q) for q in (2, 3, 5)], "degenerate"),
    ([s for q in (5, 7) for s in _mutated_planes(q)], "not a quadratic form"),
], ids=["degenerate", "mutated"])
def test_metric_group_rejects_bad_input_with_arithmetic_error(planes, message):
    for space in planes:
        with pytest.raises(ArithmeticError, match=message):
            metric_group_of(space)


def test_bilinear_examples():
    ctx = make_field(5)
    space = build_anisotropic(ctx)
    assert gram_matrix(space) == ((1, 0), (0, 3))  # norm = a0^2 - 2 a1^2
    assert _polar(space, ctx.one.key(), ctx.theta.key()) == 0
    for v in _vectors(5):
        assert _polar(space, v, v) == space.form(*v)
        assert _polar(space, ctx.zero.key(), v) == 0


def test_bilinear_even_characteristic():
    with pytest.raises(BadParameter, match="^bilinear form needs odd characteristic$"):
        gram_matrix(build_anisotropic(make_field(2)))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_polarization_identity(q):
    # the polar form of Q is the bilinear form of its Gram matrix
    ctx = make_field(q)
    for build in (build_anisotropic, build_hyperbolic):
        space = build(ctx)
        (g11, g12), (g21, g22) = gram_matrix(space)
        for v in _vectors(q):
            x0, x1 = v
            for w in _vectors(q):
                y0, y1 = w
                gram_form = x0 * (g11 * y0 + g12 * y1) + x1 * (g21 * y0 + g22 * y1)
                assert _polar(space, v, w) == gram_form % q


def _split_identity(q):
    """The anisotropic plane and the identity map of its split space."""
    ctx = make_field(q)
    base = build_anisotropic(ctx)
    return base, split_embedding(base, Mat2.identity(q))


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_split_diagonal_isometries(q):
    # v -> (v, v-hat) is an isometry and v -> (v, -v-hat) an anti-isometry
    base, split = _split_identity(q)
    for v in _vectors(q):
        assert split_form(split.gram, v + v) == base.form(*v)
        assert split_form(split.gram, v + (-v[0] % q, -v[1] % q)) == (-base.form(*v)) % q
    assert split_form(split.gram, (0, 0, 0, 1)) == 0


def test_split_even_characteristic():
    ident, zero = Mat2.identity(2), Mat2(2, 0, 0, 0, 0)
    with pytest.raises(BadParameter, match="^split maps need odd characteristic$"):
        SplitOrthMap(make_field(2), ident, zero, zero, ident, ident)


def test_split_form_is_evaluation():
    # Q(v, w-hat) = w-hat(v) = B(w, v)
    base, split = _split_identity(5)
    for v in _vectors(5):
        for w in _vectors(5):
            assert split_form(split.gram, v + w) == _polar(base, w, v)
