import pytest

from anisogauge import (
    AnisoOrthMap,
    EvenCharacteristic,
    Mat2,
    MetricGroup,
    SplitOrthMap,
    bilinear,
    build_anisotropic,
    build_hyperbolic,
    make_field,
    metric_group_of,
    split_embedding,
)


def test_anisotropic_form_values():
    ctx = make_field(2)
    space = build_anisotropic(ctx)
    assert space.form(ctx.theta) == 1
    assert space.form(ctx.zero) == 0
    space3 = build_anisotropic(make_field(3))
    assert {space3.form(v) for v in space3.vectors() if v} == {1, 2}


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_zero_locus_counts(q):
    ctx = make_field(q)
    aniso = build_anisotropic(ctx)
    assert sum(1 for v in aniso.vectors() if aniso.form(v) == 0) == 1
    hyp = build_hyperbolic(ctx)
    assert sum(1 for v in hyp.vectors() if hyp.form(v) == 0) == 2 * q - 1


def test_anisotropic_q5_no_isotropic_nonzero():
    space = build_anisotropic(make_field(5))
    nonzero = [v for v in space.vectors() if v]
    assert len(nonzero) == 24
    assert all(space.form(v) != 0 for v in nonzero)


def test_metric_group_q2_values():
    mg = metric_group_of(build_anisotropic(make_field(2)))
    assert mg.modulus == 2
    assert mg.t[(1, 0)] == 1  # value -1
    assert mg.t[(0, 1)] == 1
    assert mg.t[(0, 0)] == 0


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_metric_group_nondegenerate_and_even(q):
    for build in (build_anisotropic, build_hyperbolic):
        mg = metric_group_of(build(make_field(q)))
        assert mg.t[(0,) * 2] == 0
        for a in mg.carrier:
            neg = tuple((-x) % q for x in a)
            assert mg.t[a] == mg.t[neg]
        # injectivity of a -> b(a, .)
        rows = {tuple(mg.bicharacter(a, c) for c in mg.carrier) for a in mg.carrier}
        assert len(rows) == q * q


@pytest.mark.parametrize("carrier,m,t,cm,message", [
    ([(0,), (1,)], 5, {(0,): 0, (1,): 1}, None, "not closed under addition"),
    ([(0,), (1,)], 4, {(0,): 0}, 2, r"no value at \(1,\)"),
    ([(0,), (1,), (2,)], 3, {(0,): 0, (1,): 1, (2,): 2}, None, r"not even at \(1,\)"),
    ([(0,), (5,)], 5, {(0,): 0, (5,): 0}, None, r"must lie in \[0, 5\)"),
    ([], 5, {}, None, "empty"),
    ([(x, y) for x in range(3) for y in range(3)], 3,
     {(x, y): x * x % 3 for x in range(3) for y in range(3)}, None, "degenerate"),
], ids=["not-closed", "t-missing", "t-odd", "out-of-range", "empty", "degenerate"])
def test_metric_group_rejects_bad_input_with_arithmetic_error(carrier, m, t, cm, message):
    with pytest.raises(ArithmeticError, match=message):
        MetricGroup(carrier, m, t, carrier_modulus=cm)


def test_bilinear_examples():
    ctx = make_field(5)
    space = build_anisotropic(ctx)
    assert bilinear(space, ctx.one, ctx.theta) == 0
    for v in space.vectors():
        assert bilinear(space, v, v) == space.form(v)
        assert bilinear(space, ctx.zero, v) == 0


def test_bilinear_even_characteristic():
    space = build_anisotropic(make_field(2))
    with pytest.raises(EvenCharacteristic):
        bilinear(space, space.ctx.one, space.ctx.theta)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_polarization_identity(q):
    ctx = make_field(q)
    for build in (build_anisotropic, build_hyperbolic):
        space = build(ctx)
        vs = list(space.vectors())
        for v in vs:
            for w in vs:
                lhs = space.form(space.add(v, w))
                rhs = (space.form(v) + space.form(w) + 2 * bilinear(space, v, w)) % q
                assert lhs == rhs


def _split_identity(q):
    """The anisotropic plane and the identity map of its split space."""
    ctx = make_field(q)
    base = build_anisotropic(ctx)
    return base, split_embedding(base, AnisoOrthMap.identity(ctx))


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_split_diagonal_isometries(q):
    # v -> (v, v-hat) is an isometry and v -> (v, -v-hat) an anti-isometry
    base, split = _split_identity(q)
    for v in base.vectors():
        assert split.form(base.coords(v) + base.coords(v)) == base.form(v)
        assert split.form(base.coords(v) + base.coords(-v)) == (-base.form(v)) % q
    assert split.form((0, 0, 0, 1)) == 0


def test_split_even_characteristic():
    ident, zero = Mat2.identity(2), Mat2.zero(2)
    with pytest.raises(EvenCharacteristic):
        SplitOrthMap(make_field(2), ident, zero, zero, ident, ident)


def test_split_form_is_evaluation():
    # Q(v, w-hat) = w-hat(v) = B(w, v)
    base, split = _split_identity(5)
    for v in base.vectors():
        for w in base.vectors():
            assert split.form(base.coords(v) + base.coords(w)) == bilinear(base, w, v)
