import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisogauge import (
    AnisotropicSpace,
    BadParameter,
    Mat2,
    SplitOrthMap,
    build_anisotropic,
    build_hyperbolic,
    dihedral_generators,
    enumerate_orth,
    ker_norm,
    make_field,
    pick_order_p,
    rotation,
    split_embedding,
)
from anisogauge.orthogroup import _solve_form_preserving
from oracles import (
    apply,
    blocks,
    compose,
    dihedral_search,
    frobenius_matrix,
    order,
    preserves_split_form,
    split_apply,
)


@pytest.mark.parametrize("q,count", [(2, 6), (3, 8), (5, 12), (7, 16)])
def test_anisotropic_orthogonal_order(q, count):
    maps = enumerate_orth(build_anisotropic(make_field(q)))
    assert len(maps) == count == 2 * (q + 1)


@pytest.mark.parametrize("q,count", [(2, 2), (3, 4), (5, 8), (7, 12)])
def test_hyperbolic_orthogonal_order(q, count):
    maps = enumerate_orth(build_hyperbolic(make_field(q)))
    assert len(maps) == count == 2 * (q - 1)


@pytest.mark.parametrize("q", [2, 5, 7])
def test_anisotropic_group_is_rotations_and_reflections(q):
    ctx = make_field(q)
    maps = set(enumerate_orth(build_anisotropic(ctx)))
    sigma = frobenius_matrix(ctx)  # over F_2, theta -> theta + 1 is not diag(1, -1)
    assert sigma == (Mat2(2, 1, 1, 0, 1) if q == 2 else Mat2(q, 1, 0, 0, -1))
    expected = {rotation(ctx, c) for c in ker_norm(ctx)}
    expected |= {rotation(ctx, c) * sigma for c in ker_norm(ctx)}
    assert maps == expected


def _products(r, s, n):
    """The set {r^i s^j : i < n, j < 2}."""
    powers = [Mat2.identity(r.q)]
    for _ in range(n - 1):
        powers.append(powers[-1] * r)
    return set(powers) | {m * s for m in powers}


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_dihedral_presentation(q):
    # the exhibited (r, s) against the generic search, which needs no layout;
    # q = 2 includes the hyperbolic n = 1, where r is the identity
    ctx = make_field(q)
    for space, n in ((build_anisotropic(ctx), q + 1), (build_hyperbolic(ctx), q - 1)):
        maps = enumerate_orth(space)
        r, s = dihedral_generators(maps)
        r0, s0 = dihedral_search(maps[::-1])
        assert order(r) == order(r0) == n
        assert s * s == Mat2.identity(q)
        assert _products(r, s, n) == _products(r0, s0, n) == set(maps)


def _broken_layouts():
    """(maps, message): each list breaks one clause of the layout r^0 .. r^(n-1),
    r^0 s .. r^(n-1) s that `dihedral_generators` checks."""
    maps = enumerate_orth(build_anisotropic(make_field(5)))  # n = 6
    rot, ref = maps[:6], maps[6:]
    minus = [Mat2.identity(5), Mat2(5, -1, 0, 0, -1)]  # -1 has order 2
    return [
        ([], "0 maps are not"),
        (maps[:-1], "11 maps are not"),
        (rot[1:] + rot[:1] + ref, "maps[0] is not the identity"),
        (rot[:2] + rot[3:4] + rot[3:] + ref, "maps[2] is not r^2"),
        (rot[:4] + ref[:4], "r^n != 1"),
        (rot + [ref[0], ref[2], ref[1]] + ref[3:], "the second half is not the first half times s"),
        (rot + [m * rot[1] for m in rot], "s^2 != 1"),
        (rot + [m * rot[3] for m in rot], "s r s != r^-1"),  # r^3 is central
        (minus + [m * minus[1] for m in minus], "are not distinct"),
    ]


BROKEN_LAYOUTS = _broken_layouts()


@pytest.mark.parametrize("maps, message", BROKEN_LAYOUTS, ids=[m for _, m in BROKEN_LAYOUTS])
def test_dihedral_generators_rejects_each_broken_layout(maps, message):
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        dihedral_generators(maps)


def test_q2_group_is_symmetric_group_on_three_letters():
    ctx = make_field(2)
    maps = enumerate_orth(build_anisotropic(ctx))
    assert len(maps) == 6
    orders = sorted(order(m) for m in maps)
    assert orders == [1, 2, 2, 2, 3, 3]  # the S3 order profile


def test_rotation_examples():
    ctx = make_field(2)
    assert rotation(ctx, ctx.one) == Mat2.identity(2)
    assert order(rotation(ctx, ctx.theta)) == 3
    ctx5 = make_field(5)
    c = pick_order_p(ctx5, 3)
    assert order(rotation(ctx5, c)) == 3
    with pytest.raises(BadParameter, match=r"^norm\(2\) != 1$"):
        rotation(ctx5, ctx5.elem(2))


def test_rotation_multiplicative_injective():
    ctx = make_field(7)
    seen = set()
    for c in ker_norm(ctx):
        for c2 in ker_norm(ctx):
            assert rotation(ctx, c) * rotation(ctx, c2) == rotation(ctx, c * c2)
        seen.add(rotation(ctx, c))
    assert len(seen) == len(ker_norm(ctx))


def test_matrix_arithmetic_refuses_another_q():
    m, n = Mat2(5, 1, 2, 3, 4), Mat2(7, 6, 6, 6, 6)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(m, n)
    assert m * Mat2(5, 6, 6, 6, 6) == Mat2(5, 3, 3, 2, 2)
    # a norm-one c of one context rotates the vectors of an equal one built apart
    c, other = pick_order_p(make_field(5), 3), make_field(5)
    assert rotation(other, c) == rotation(c.ctx, c)
    assert rotation(other, c) * rotation(c.ctx, c.inverse()) == Mat2.identity(5)


def test_split_embedding_identity():
    ctx = make_field(5)
    aniso = build_anisotropic(ctx)
    m = split_embedding(aniso, Mat2.identity(5))
    ident, zero = Mat2.identity(5), Mat2(5, 0, 0, 0, 0)
    assert blocks(m) == (ident, zero, zero, ident)


def test_split_embedding_rotation_beta_invertible():
    ctx = make_field(5)
    aniso = build_anisotropic(ctx)
    c = pick_order_p(ctx, 3)
    m = split_embedding(aniso, rotation(ctx, c))
    assert m.beta.det() != 0


def test_split_embedding_fixes_diagonal_everywhere():
    ctx = make_field(7)
    aniso = build_anisotropic(ctx)
    for c in ker_norm(ctx):
        mg = rotation(ctx, c)
        m = split_embedding(aniso, mg)
        for x0 in range(7):
            for x1 in range(7):
                assert split_apply(blocks(m), (x0, x1, x0, x1)) == (x0, x1, x0, x1)
                gx = apply(mg, (x0, x1))
                assert split_apply(blocks(m), (x0, x1, -x0, -x1)) == (
                    gx[0], gx[1], (-gx[0]) % 7, (-gx[1]) % 7,
                )


@pytest.mark.parametrize("p,q", [(3, 5), (3, 11), (7, 13)])
def test_split_embedding_homomorphism_on_rotation_subgroup(p, q):
    ctx = make_field(q)
    aniso = build_anisotropic(ctx)
    c = pick_order_p(ctx, p)
    powers = [rotation(ctx, c ** k) for k in range(p)]
    images = {k: split_embedding(aniso, powers[k]) for k in range(p)}
    assert len({blocks(m) for m in images.values()}) == p  # injective
    for a in range(p):
        for b in range(p):
            assert blocks(compose(images[a], images[b])) == blocks(images[(a + b) % p])


@pytest.mark.parametrize("p,q", [(3, 5), (3, 11), (5, 19), (7, 13)])
def test_unique_cyclic_subgroup_of_odd_order(p, q):
    ctx = make_field(q)
    maps = enumerate_orth(build_anisotropic(ctx))
    subgroups = set()
    for m in maps:
        if order(m) == p:
            sub = set()
            acc = Mat2.identity(q)
            for _ in range(p):
                sub.add(acc)
                acc = acc * m
            subgroups.add(frozenset(sub))
    assert len(subgroups) == 1
    c = pick_order_p(ctx, p)
    expected = frozenset(rotation(ctx, c ** k) for k in range(p))
    assert subgroups == {expected}


def test_split_embedding_even_characteristic():
    ctx = make_field(2)
    aniso = build_anisotropic(ctx)
    with pytest.raises(BadParameter, match="^bilinear form needs odd characteristic$"):
        split_embedding(aniso, Mat2.identity(2))


def test_split_map_rejects_a_non_isometry():
    ctx = make_field(5)
    gram = split_embedding(build_anisotropic(ctx), Mat2.identity(5)).gram
    ident, zero = Mat2.identity(5), Mat2(5, 0, 0, 0, 0)
    with pytest.raises(ArithmeticError, match="does not preserve the split form"):
        SplitOrthMap(ctx, ident.scale(2), zero, zero, ident, gram)
    # (x, y) -> (x + b y, y) with G b symmetric and zero on the diagonal keeps Q
    # on every basis vector but not on e3 + e4: delta^T G beta = G b is not
    # alternating, though its diagonal is zero
    b = gram.inverse() * Mat2(5, 0, 1, 1, 0)
    with pytest.raises(ArithmeticError, match="does not preserve the split form"):
        SplitOrthMap(ctx, ident, b, zero, ident, gram)
    assert blocks(SplitOrthMap(ctx, ident, zero, zero, ident, gram)) == (ident, zero, zero, ident)


def test_split_map_refuses_blocks_from_another_field():
    ctx, ident7, zero7 = make_field(5), Mat2.identity(7), Mat2(7, 0, 0, 0, 0)
    gram = split_embedding(build_anisotropic(ctx), Mat2.identity(5)).gram
    with pytest.raises(TypeError):
        SplitOrthMap(ctx, ident7, zero7, zero7, ident7, gram)
    ident, zero = Mat2.identity(5), Mat2(5, 0, 0, 0, 0)
    for i in range(5):
        args = [ident, zero, zero, ident, gram]
        args[i] = Mat2(7, *args[i].entries())
        with pytest.raises(TypeError):
            SplitOrthMap(ctx, *args)


@st.composite
def _block_maps(draw):
    """(ctx, blocks, gram) at q in {3, 5, 7}, with the Gram matrix of either
    plane: the embedding of one of its isometries, that embedding with one
    entry changed, or four random blocks."""
    ctx = make_field(draw(st.sampled_from([3, 5, 7])))
    q = ctx.q
    space = draw(st.sampled_from([build_anisotropic, build_hyperbolic]))(ctx)
    m = split_embedding(space, draw(st.sampled_from(enumerate_orth(space))))
    maps = list(blocks(m))
    kind = draw(st.sampled_from(["isometry", "one entry", "random"]))
    if kind == "one entry":
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        entries = list(maps[i].entries())
        entries[j] += draw(st.integers(1, q - 1))
        maps[i] = Mat2(q, *entries)
    elif kind == "random":
        entry = st.integers(0, q - 1)
        maps = [Mat2(q, *draw(st.tuples(entry, entry, entry, entry))) for _ in range(4)]
    return ctx, tuple(maps), m.gram


def _accepts(ctx, maps, gram) -> bool:
    try:
        SplitOrthMap(ctx, *maps, gram)
    except ArithmeticError as error:
        assert str(error) == "block map does not preserve the split form"
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(_block_maps())
def test_split_map_accepts_exactly_the_isometries(case):
    # the three block identities against Q on all q^4 vectors
    ctx, maps, gram = case
    assert _accepts(ctx, maps, gram) == preserves_split_form(maps, gram)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_split_map_accepts_every_embedded_isometry(q):
    ctx = make_field(q)
    for space in (build_anisotropic(ctx), build_hyperbolic(ctx)):
        for g in enumerate_orth(space):
            m = split_embedding(space, g)
            assert preserves_split_form(blocks(m), m.gram)


def test_composition_law():
    # rotation(ctx, c) acts on coordinates as v -> c*v, and matrix products compose
    for q in (5, 7):
        ctx = make_field(q)
        for c in ker_norm(ctx):
            for v in ctx.elements():
                assert apply(rotation(ctx, c), v.key()) == (c * v).key()
        maps = enumerate_orth(build_anisotropic(ctx))
        for a in maps:
            for b in maps:
                for v in ctx.elements():
                    assert apply(a * b, v.key()) == apply(a, apply(b, v.key()))


def _scan_form_preserving(space):
    """Oracle: every invertible 2x2 matrix mod q preserving the form on all q^2 vectors."""
    q = space.ctx.q
    vidx_form = np.empty(q * q, dtype=np.int64)
    for x in range(q):
        for y in range(q):
            vidx_form[x * q + y] = space.form(x, y)
    xs, ys = np.divmod(np.arange(q * q, dtype=np.int64), q)
    mats = np.indices((q, q, q, q), dtype=np.int64).reshape(4, -1).T  # (q^4, 4)
    survivors = set()
    chunk = 4096
    for lo in range(0, len(mats), chunk):
        blk = mats[lo:lo + chunk]
        xp = (blk[:, 0:1] * xs[None, :] + blk[:, 1:2] * ys[None, :]) % q
        yp = (blk[:, 2:3] * xs[None, :] + blk[:, 3:4] * ys[None, :]) % q
        ok = (vidx_form[xp * q + yp] == vidx_form[None, :]).all(axis=1)
        for row in blk[ok]:
            a, b, c, d = (int(t) for t in row)
            if (a * d - b * c) % q != 0:
                survivors.add((a, b, c, d))
    return survivors


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_solved_orthogonal_set_matches_brute_force_scan(q):
    ctx = make_field(q)
    for space in (build_anisotropic(ctx), build_hyperbolic(ctx)):
        assert _solve_form_preserving(space) == _scan_form_preserving(space)


class _MutatedPlane(AnisotropicSpace):
    """The anisotropic plane with the form value changed at one vector."""

    def __init__(self, ctx, where, delta):
        super().__init__(ctx)
        self.where, self.delta = where, delta

    def form(self, x, y):
        wx, wy = self.where
        hit = (x == wx) & (y == wy)  # broadcasts, as the certificate's grid call needs
        return (super().form(x, y) + self.delta * hit) % self.ctx.q


@pytest.mark.parametrize("q", [2, 5, 7])
@pytest.mark.parametrize("where", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 3)])
def test_enumerate_orth_rejects_form_mutated_at_one_vector(q, where):
    ctx = make_field(q)
    where = (where[0] % q, where[1] % q)
    for delta in range(1, q):
        with pytest.raises(ArithmeticError):
            enumerate_orth(_MutatedPlane(ctx, where, delta))


@pytest.mark.parametrize("where", [(1, 0), (0, 1), (1, 1)])
def test_structured_cross_check_catches_mutation_the_solver_accepts(where):
    # Over F_2 every change at one nonzero vector is still a quadratic form,
    # so only the comparison with the structured set can reject it.
    space = _MutatedPlane(make_field(2), where, 1)
    solved = _solve_form_preserving(space)
    assert solved == _scan_form_preserving(space) and len(solved) != 6
    with pytest.raises(ArithmeticError, match="structured set"):
        enumerate_orth(space)


@pytest.mark.parametrize("build, n", [(build_anisotropic, 1014), (build_hyperbolic, 1012)])
def test_enumerate_orth_does_linear_matrix_work(monkeypatch, build, n):
    # the group is built from the exhibited (r, s) and its layout checked
    # once: O(q) products and hashes, with no order search over the maps
    # and no set rebuilt per candidate
    q = 1013
    space = build(make_field(q))
    space.certificate  # the q^2 form table, not counted
    counts = dict.fromkeys(("__mul__", "__hash__"), 0)
    for name in counts:
        def counted(self, *args, name=name, method=getattr(Mat2, name)):
            counts[name] += 1
            return method(self, *args)
        monkeypatch.setattr(Mat2, name, counted)
    assert len(enumerate_orth(space)) == 2 * n
    assert all(0 < count <= 10 * (q + 1) for count in counts.values()), counts
