import pytest
from hypothesis import given, settings, strategies as st

from anisogauge import (
    BadParameter,
    ExistenceViolated,
    Mat2,
    SplitOrthMap,
    build_anisotropic,
    build_hyperbolic,
    certify_pair,
    eigenvalues_2x2,
    existence_gate,
    frobenius,
    gt_criterion,
    hyperbolic_control,
    make_field,
    non_group_theoretical_suite,
    pick_order_p,
    quartic_identity_check,
    rotation,
    split_embedding,
)
from oracles import compose, frobenius_matrix

ODD_PRIMES_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def valid_pairs(qmax):
    pairs = []
    for q in ODD_PRIMES_50:
        if q > qmax:
            continue
        for p in ODD_PRIMES_50:
            if p < q and (q + 1) % p == 0:
                pairs.append((p, q))
    return pairs


def test_eigenvalues_identity():
    ctx = make_field(5)
    mu1, mu2 = eigenvalues_2x2(Mat2.identity(5), ctx)
    assert mu1 == ctx.one and mu2 == ctx.one


def test_eigenvalues_of_rotation_matrix():
    ctx = make_field(5)
    c = pick_order_p(ctx, 3)
    mu1, mu2 = eigenvalues_2x2(rotation(ctx, c), ctx)
    assert {mu1, mu2} == {c, c.inverse()}


def test_eigenvalues_diagonal():
    ctx = make_field(7)
    mu1, mu2 = eigenvalues_2x2(Mat2(7, 3, 0, 0, 5), ctx)
    assert {mu1.key(), mu2.key()} == {(3, 0), (5, 0)}


@pytest.mark.parametrize("q", [3, 5, 7])
def test_eigenvalues_satisfy_char_poly_exhaustive(q):
    ctx = make_field(q)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    m = Mat2(q, a, b, c, d)
                    mu1, mu2 = eigenvalues_2x2(m, ctx)
                    for mu in (mu1, mu2):
                        assert mu * mu - mu * m.tr() + m.det() == ctx.zero


def test_eigenvalues_refuse_a_matrix_over_another_field():
    # reducing the F_7 trace 5 and determinant 5 mod 5 would give (0, 0)
    with pytest.raises(TypeError):
        eigenvalues_2x2(Mat2(7, 1, 2, 3, 4), make_field(5))


def test_gt_criterion_anisotropic_rotation_3_5():
    ctx = make_field(5)
    c = pick_order_p(ctx, 3)
    m = split_embedding(build_anisotropic(ctx), rotation(ctx, c))
    verdict = gt_criterion(m)
    assert not verdict.group_theoretical
    assert verdict.ratio == c
    assert verdict.mu2 / verdict.mu1 == c.inverse()
    assert frobenius(verdict.ratio) != verdict.ratio


def test_gt_criterion_beta_singular():
    ctx = make_field(5)
    m = split_embedding(build_anisotropic(ctx), frobenius_matrix(ctx))
    with pytest.raises(BadParameter, match="^beta block is singular$"):
        gt_criterion(m)


def test_hyperbolic_control_q5_a2():
    verdict = gt_criterion(hyperbolic_control(build_hyperbolic(make_field(5)), 2))
    assert verdict.group_theoretical
    assert verdict.ratio.key() == (2, 0)  # (1+2)/(1+3) = 2 mod 5


def test_hyperbolic_control_q7_a3():
    verdict = gt_criterion(hyperbolic_control(build_hyperbolic(make_field(7)), 3))
    assert verdict.group_theoretical
    assert verdict.ratio.key() == (3, 0)  # (1+3)/(1+5) = 4/6 = 3 mod 7


def test_hyperbolic_control_bad_parameters():
    with pytest.raises(BadParameter):
        hyperbolic_control(build_hyperbolic(make_field(5)), 1)
    with pytest.raises(BadParameter):
        hyperbolic_control(build_hyperbolic(make_field(5)), 0)
    with pytest.raises(BadParameter):
        hyperbolic_control(build_hyperbolic(make_field(2)), 3)
    # a field is certified before any control
    with pytest.raises(BadParameter, match="^9 is not prime$"):
        hyperbolic_control(build_hyperbolic(make_field(9)), 2)


def test_hyperbolic_control_rejects_the_anisotropic_plane():
    # diag(a, 1/a) preserves x*y, not the norm form: the embedding refuses it
    with pytest.raises(ArithmeticError, match="^block map does not preserve the split form$"):
        hyperbolic_control(build_anisotropic(make_field(5)), 2)


def test_hyperbolic_control_minus_one_has_zero_eigenvalue():
    with pytest.raises(BadParameter, match="^an eigenvalue vanishes; ratio undefined$"):
        gt_criterion(hyperbolic_control(build_hyperbolic(make_field(5)), -1))


def test_quartic_identity_small():
    assert quartic_identity_check(7)
    assert quartic_identity_check(3)
    assert quartic_identity_check(2)


def test_quartic_identity_refuses_a_composite_q():
    with pytest.raises(BadParameter, match="^q=9 must be prime$"):
        quartic_identity_check(9)


def test_quartic_root_multiset_q5():
    # synthetic division oracle: full multiset of roots of the quartic
    ctx = make_field(5)
    coeffs = [ctx.elem(c) for c in (1, 2, 0, -2, -1)]  # leading first
    roots = []
    for _ in range(4):
        root = next(
            x for x in ctx.elements()
            if sum((coeffs[i] * x ** (len(coeffs) - 1 - i) for i in range(len(coeffs))), ctx.zero) == ctx.zero
        )
        roots.append(root.key())
        # divide by (x - root)
        out = [coeffs[0]]
        for c in coeffs[1:-1]:
            out.append(c + out[-1] * root)
        coeffs = out
    assert sorted(roots) == sorted([(1, 0), (4, 0), (4, 0), (4, 0)])


def _suite(p, q):
    pair = certify_pair(p, q)
    return non_group_theoretical_suite(pair, build_anisotropic(pair.ctx))


def test_suite_3_5_and_5_19():
    for p, q in [(3, 5), (5, 19)]:
        report = _suite(p, q)
        assert all(ok for _, ok, _ in report)
        assert [name for name, _, _ in report] == [
            "eigenvalues-swap",
            "lambda-equals-c",
            "lambda-not-in-base",
            "non-gt-verdict",
        ]


def test_suite_existence_violated():
    with pytest.raises(ExistenceViolated):
        certify_pair(3, 7)
    with pytest.raises(BadParameter, match=r"\(2, 7\) must be odd primes"):
        _suite(2, 7)


def test_suite_refuses_any_other_plane():
    # the suite embeds its rotation in the anisotropic plane over the pair's field
    pair = certify_pair(3, 5)
    for plane in (build_hyperbolic(pair.ctx), build_anisotropic(make_field(11))):
        with pytest.raises(BadParameter, match=r"is not the anisotropic plane over FieldCtx\(q=5"):
            non_group_theoretical_suite(pair, plane)


def test_existence_gate():
    assert existence_gate(3, 5)
    assert not existence_gate(3, 7)
    assert existence_gate(5, 19)
    with pytest.raises(BadParameter):
        existence_gate(4, 9)
    with pytest.raises(BadParameter):
        existence_gate(2, 5)
    with pytest.raises(BadParameter):
        existence_gate(5, 3)


def test_suite_all_valid_pairs_up_to_50():
    pairs = valid_pairs(50)
    assert (3, 5) in pairs and (19, 37) in pairs
    for p, q in pairs:
        assert all(ok for _, ok, _ in _suite(p, q)), (p, q)


def test_hyperbolic_controls_all_q_up_to_50():
    for q in ODD_PRIMES_50:
        plane = build_hyperbolic(make_field(q))
        for a in range(2, q - 1):
            verdict = gt_criterion(hyperbolic_control(plane, a))
            assert verdict.group_theoretical, (q, a)


def test_block_identity_all_pairs():
    # alpha + beta*delta*beta^-1 equals I + g, block-exact
    for p, q in valid_pairs(50):
        ctx = make_field(q)
        c = pick_order_p(ctx, p)
        m = split_embedding(build_anisotropic(ctx), rotation(ctx, c))
        a = m.alpha + m.beta * m.delta * m.beta.inverse()
        assert a == Mat2.identity(q) + rotation(ctx, c)


def test_lambda_simplifies_to_c_all_pairs():
    for p, q in valid_pairs(50):
        ctx = make_field(q)
        c = pick_order_p(ctx, p)
        lam = (ctx.one + c) / (ctx.one + c.inverse())
        assert lam == c


def _dual_block(h: Mat2, gram: Mat2) -> Mat2:
    # action induced on hat-coordinates: G^-1 (h^T)^-1 G
    return gram.inverse() * h.transpose().inverse() * gram


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([3, 5, 7, 11, 13]),
    entries=st.tuples(*(st.integers(min_value=0, max_value=12) for _ in range(4))),
)
def test_gt_criterion_conjugation_invariance(q, entries):
    h = Mat2(q, *entries)
    if h.det() == 0:
        return
    ctx = make_field(q)
    ps = [p for p in (3, 5, 7) if p != q and (q + 1) % p == 0]
    if not ps:
        return
    c = pick_order_p(ctx, ps[0])
    m = split_embedding(build_anisotropic(ctx), rotation(ctx, c))
    zero = Mat2(q, 0, 0, 0, 0)
    conj = SplitOrthMap(ctx, h, zero, zero, _dual_block(h, m.gram), m.gram)
    back = SplitOrthMap(ctx, h.inverse(), zero, zero, _dual_block(h, m.gram).inverse(), m.gram)
    m2 = compose(compose(conj, m), back)
    if m2.beta.det() == 0:
        return
    base = gt_criterion(m)
    moved = gt_criterion(m2)
    assert moved.group_theoretical == base.group_theoretical
    assert {moved.mu1, moved.mu2} == {base.mu1, base.mu2}
