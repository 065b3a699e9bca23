import itertools
import math

import numpy as np
import pytest

from cubgreeks import algebra
from cubgreeks.algebra import (
    TensorElement,
    bracket,
    bracket_monomial,
    context,
    dilate,
    exp,
    generator,
    heat_element,
    lie_basis,
    log,
    max_abs_diff,
    mul,
    unit,
    word_degree,
    zero,
)
from cubgreeks.errors import ContextMismatchError, DomainError, InvalidWordError

from oracles import lie_coordinates


def random_element(ctx, rng, sparsity=0.7, scale=1.0):
    return TensorElement(
        ctx,
        {w: scale * rng.uniform(-1, 1) for w in ctx.basis if rng.random() < sparsity},
    )


def random_lie(ctx, rng, scale=0.8):
    out = zero(ctx)
    for elt in lie_basis(ctx).elements:
        out = out + scale * rng.uniform(-1, 1) * elt
    return out


class TestWordDegree:
    def test_zero_counts_twice(self):
        assert word_degree((0,)) == 2

    def test_empty_word(self):
        assert word_degree(()) == 0

    def test_mixed_word(self):
        assert word_degree((1, 0, 2)) == 4

    def test_letter_out_of_range(self):
        with pytest.raises(InvalidWordError):
            word_degree((3,), d=2)
        with pytest.raises(InvalidWordError):
            word_degree((-1,))

    def test_additive_under_concatenation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = tuple(rng.integers(0, 3, size=rng.integers(0, 4)))
            b = tuple(rng.integers(0, 3, size=rng.integers(0, 4)))
            assert word_degree(a + b) == word_degree(a) + word_degree(b)


class TestContext:
    def test_basis_size_by_enumeration(self):
        # the m=d=2 example's span is 8-dimensional, not 6: e_i^2 words exist
        assert context(2, 2).dim == 8
        assert context(1, 5).dim == 20
        assert algebra.AlgebraContext(3, 8).dim == 18602 <= algebra.MAX_BASIS

    def test_basis_contains_empty_and_prefixes(self):
        ctx = context(2, 3)
        assert () in ctx.index
        for w in ctx.basis:
            for cut in range(len(w)):
                assert w[:cut] in ctx.index

    def test_graded_lex_order(self):
        ctx = context(2, 2)
        degrees = [ctx.degree(w) for w in ctx.basis]
        assert degrees == sorted(degrees)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_basis_is_every_word_by_degree_then_tuple(self, d, m):
        words = [w for n in range(m + 1) for w in itertools.product(range(d + 1), repeat=n)]
        expected = sorted((w for w in words if word_degree(w) <= m), key=lambda w: (word_degree(w), w))
        ctx = algebra.AlgebraContext(d, m)
        assert ctx.basis == tuple(expected)
        assert ctx.index == {w: i for i, w in enumerate(expected)}
        assert ctx.degrees.dtype == np.int_
        assert ctx.degrees.tolist() == [word_degree(w) for w in expected]
        assert [ctx.degree(w) for w in expected] == ctx.degrees.tolist()

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            context(0, 2)
        with pytest.raises(DomainError):
            context(1, 0)

    @pytest.mark.parametrize("d, m", [(1, "3"), (1, 2.5), (1, 2.0), (2.0, 3), (None, 3)])
    def test_non_integer_params(self, d, m):
        # (1, 2.5) once built a second context equal to (1, 2); (1, "3") raised TypeError
        context(1, 2)
        with pytest.raises(DomainError, match="d and m must be integers"):
            context(d, m)

    @pytest.mark.parametrize("d,m", [(4, 8), (6, 12), (40, 3), (1, 10**6)])
    def test_oversized_basis_is_refused_before_it_is_built(self, d, m):
        # each degree is counted before it is built: (4, 8) alone would have 128,557 words
        with pytest.raises(DomainError, match="basis words"):
            algebra.AlgebraContext(d, m)

    def test_basis_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(algebra, "MAX_BASIS", 50)
        assert algebra.AlgebraContext(2, 4).dim == 49
        with pytest.raises(DomainError, match="over 50 basis words"):
            algebra.AlgebraContext(2, 5)  # 119 words


class TestMul:
    def test_concatenation(self):
        ctx = context(2, 2)
        assert mul(generator(ctx, 1), generator(ctx, 2)) == TensorElement(ctx, {(1, 2): 1.0})

    def test_truncation(self):
        ctx = context(2, 2)
        e12 = TensorElement(ctx, {(1, 2): 1.0})
        assert mul(e12, generator(ctx, 1)) == zero(ctx)

    @pytest.mark.parametrize("d,m", [(1, 3), (2, 2), (2, 3)])
    def test_associativity(self, d, m):
        ctx = context(d, m)
        rng = np.random.default_rng(7)
        for _ in range(30):
            x, y, z = (random_element(ctx, rng) for _ in range(3))
            assert max_abs_diff(mul(mul(x, y), z), mul(x, mul(y, z))) < 1e-12

    @pytest.mark.parametrize("d,m", [(1, 3), (2, 2), (2, 3)])
    def test_associativity_exhaustive_monomials(self, d, m):
        # every triple of basis monomials, including truncation cases
        ctx = context(d, m)
        monomials = [TensorElement(ctx, {w: 1.0}) for w in ctx.basis]
        for x in monomials:
            for y in monomials:
                xy = mul(x, y)
                yx_first = [mul(y, z) for z in monomials]
                for z, yz in zip(monomials, yx_first):
                    assert mul(xy, z) == mul(x, yz)

    def test_grading(self):
        ctx = context(2, 3)
        rng = np.random.default_rng(3)
        x, y = random_element(ctx, rng), random_element(ctx, rng)
        for p in range(4):
            for q in range(4 - p):
                prod = mul(x.graded_part(p), y.graded_part(q))
                assert all(ctx.degree(w) == p + q for w in prod.coeffs)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            mul(unit(context(1, 2)), unit(context(2, 2)))


class TestExpLog:
    def test_exp_zero(self):
        ctx = context(2, 2)
        assert exp(zero(ctx)) == unit(ctx)

    def test_exp_sqrt_t_e1(self):
        # explicit group element from the two-driver, degree-two example
        ctx = context(2, 2)
        t = 0.49
        x = exp(math.sqrt(t) * generator(ctx, 1))
        expected = TensorElement(
            ctx, {(): 1.0, (1,): math.sqrt(t), (1, 1): t / 2.0}
        )
        assert max_abs_diff(x, expected) < 1e-15

    def test_exp_inverse(self):
        rng = np.random.default_rng(11)
        ctx = context(2, 3)
        for _ in range(20):
            a = random_lie(ctx, rng)
            assert max_abs_diff(mul(exp(a), exp(-a)), unit(ctx)) < 1e-12

    def test_exp_rejects_constant_term(self):
        ctx = context(1, 2)
        with pytest.raises(DomainError):
            exp(unit(ctx))

    def test_log_unit(self):
        ctx = context(2, 2)
        assert log(unit(ctx)) == zero(ctx)

    def test_log_of_exp_line(self):
        ctx = context(2, 2)
        t = 0.25
        assert max_abs_diff(
            log(exp(math.sqrt(t) * generator(ctx, 1))),
            math.sqrt(t) * generator(ctx, 1),
        ) < 1e-15

    @pytest.mark.parametrize("d,m", [(1, 3), (1, 5), (2, 2), (2, 3)])
    def test_roundtrip(self, d, m):
        ctx = context(d, m)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_lie(ctx, rng)
            assert max_abs_diff(log(exp(a)), a) < 1e-12
            g = exp(random_lie(ctx, rng, 0.6))
            assert max_abs_diff(exp(log(g)), g) < 1e-12

    def test_log_scaled_constant_term(self):
        # the series handles any positive constant term, not just 1
        ctx = context(1, 3)
        g = 2.0 * exp(0.3 * generator(ctx, 1))
        back = exp(log(g) - math.log(2.0) * unit(ctx))
        assert max_abs_diff(2.0 * back, g) < 1e-14

    def test_log_rejects_nonpositive(self):
        ctx = context(1, 2)
        with pytest.raises(DomainError):
            log(zero(ctx))
        with pytest.raises(DomainError):
            log(-1.0 * unit(ctx))


class TestDilate:
    def test_time_generator_scales_quadratically(self):
        ctx = context(2, 2)
        assert dilate(3.0, generator(ctx, 0)) == 9.0 * generator(ctx, 0)

    def test_homomorphism(self):
        ctx = context(2, 3)
        rng = np.random.default_rng(13)
        for _ in range(20):
            x, y = random_element(ctx, rng), random_element(ctx, rng)
            s = rng.uniform(0.2, 3.0)
            assert max_abs_diff(dilate(s, mul(x, y)), mul(dilate(s, x), dilate(s, y))) < 1e-12

    def test_one_parameter_group(self):
        ctx = context(1, 3)
        rng = np.random.default_rng(17)
        x = random_element(ctx, rng)
        assert max_abs_diff(dilate(2.0, dilate(3.0, x)), dilate(6.0, x)) < 1e-12

    def test_rejects_nonpositive(self):
        ctx = context(1, 2)
        with pytest.raises(DomainError):
            dilate(0.0, unit(ctx))
        with pytest.raises(DomainError):
            dilate(-1.0, unit(ctx))

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, "2", None])
    def test_rejects_a_scale_that_is_not_a_finite_number(self, s):
        with pytest.raises(DomainError, match="positive and finite"):
            dilate(s, unit(context(1, 2)))

    def test_preserves_lie_span(self):
        ctx = context(2, 3)
        rng = np.random.default_rng(19)
        lie = lie_basis(ctx)
        for _ in range(10):
            w = random_lie(ctx, rng)
            _, res = lie_coordinates(lie, dilate(1.7, w))
            assert res < 1e-10


class TestBracket:
    def test_basic(self):
        ctx = context(2, 2)
        expected = TensorElement(ctx, {(1, 2): 1.0, (2, 1): -1.0})
        assert bracket(generator(ctx, 1), generator(ctx, 2)) == expected

    def test_self_bracket_vanishes(self):
        ctx = context(2, 2)
        x = generator(ctx, 1) + 0.5 * generator(ctx, 2)
        assert bracket(x, x) == zero(ctx)

    def test_jacobi(self):
        ctx = context(2, 3)
        rng = np.random.default_rng(23)
        for _ in range(30):
            x, y, z = (random_element(ctx, rng) for _ in range(3))
            total = (
                bracket(x, bracket(y, z))
                + bracket(y, bracket(z, x))
                + bracket(z, bracket(x, y))
            )
            assert max_abs_diff(total, zero(ctx)) < 1e-13


class TestAdjoint:
    def test_identity(self):
        ctx = context(2, 2)
        rng = np.random.default_rng(29)
        w = random_lie(ctx, rng)
        assert max_abs_diff(algebra.adjoint(unit(ctx), w), w) < 1e-14

    def test_pullback_formula(self):
        # conjugating e_1 by exp(b e_2) picks up the area bracket once
        ctx = context(2, 2)
        b = 0.73
        g = exp(b * generator(ctx, 2))
        result = algebra.adjoint(g, generator(ctx, 1))
        expected = generator(ctx, 1) + b * bracket(generator(ctx, 2), generator(ctx, 1))
        assert max_abs_diff(result, expected) < 1e-14

    def test_bracket_morphism(self):
        ctx = context(2, 3)
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = exp(random_lie(ctx, rng, 0.5))
            u, v = random_lie(ctx, rng, 0.5), random_lie(ctx, rng, 0.5)
            lhs = algebra.adjoint(g, bracket(u, v))
            rhs = bracket(algebra.adjoint(g, u), algebra.adjoint(g, v))
            assert max_abs_diff(lhs, rhs) < 1e-12

    def test_stays_in_lie_span_with_zero_constant(self):
        ctx = context(2, 2)
        rng = np.random.default_rng(37)
        lie = lie_basis(ctx)
        for _ in range(10):
            g = exp(random_lie(ctx, rng, 0.5))
            w = random_lie(ctx, rng)
            ad = algebra.adjoint(g, w)
            assert ad.coeff(()) == 0.0
            _, res = lie_coordinates(lie, ad)
            assert res < 1e-10

    def test_rejects_noninvertible(self):
        ctx = context(1, 2)
        with pytest.raises(DomainError):
            algebra.adjoint(generator(ctx, 1), generator(ctx, 1))

    def test_scalar_multiple_conjugates_alike(self):
        # 49 * (1/49) rounds below 1, so g/c keeps a constant term just off 1
        ctx = context(2, 4)
        rng = np.random.default_rng(41)
        g = exp(random_lie(ctx, rng, 0.5))
        w = random_lie(ctx, rng)
        for c in (49.0, 3.0, 0.25):
            assert max_abs_diff(algebra.adjoint(c * g, w), algebra.adjoint(g, w)) < 1e-14


class TestSegmentFoldRefusals:
    """The segment exponential and the Chen fold refuse increments whose first
    axis is not d+1, which used to index out of range (fewer rows) or fold the
    first d+1 rows silently (more), and a fold with no step."""

    @pytest.mark.parametrize("rows", [1, 2, 4, 5])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_row_count_other_than_d_plus_1(self, rows, batch):
        ctx = context(2, 3)
        with pytest.raises(DomainError, match="d\\+1 = 3"):
            ctx.segment_exp(np.full((rows,) + batch, 0.1))
        with pytest.raises(DomainError, match="d\\+1 = 3"):
            ctx.chen(np.full((rows, 2) + batch, 0.1))

    @pytest.mark.parametrize("shape", [(3, 0), (3, 0, 4), (3,), ()])
    def test_chen_without_a_step(self, shape):
        with pytest.raises(DomainError, match="no step"):
            context(2, 3).chen(np.zeros(shape))

    def test_segment_exp_of_a_scalar(self):
        with pytest.raises(DomainError):
            context(2, 3).segment_exp(0.1)


class TestHeatElement:
    def test_d1_m3_closed_form(self):
        # exp(t(e0 + e1^2/2)) has no other word of degree <= 3
        ctx = context(1, 3)
        t = 0.37
        expected = TensorElement(ctx, {(): 1.0, (0,): t, (1, 1): t / 2.0})
        assert max_abs_diff(heat_element(ctx, t), expected) < 1e-15

    def test_unit_constant_term(self):
        for d, m in [(1, 3), (2, 2), (2, 4)]:
            assert heat_element(context(d, m), 0.8).coeff(()) == 1.0

    def test_dilation_identity(self):
        ctx = context(2, 3)
        for t in (0.04, 0.5, 2.0):
            lhs = heat_element(ctx, t)
            rhs = dilate(math.sqrt(t), heat_element(ctx, 1.0))
            assert max_abs_diff(lhs, rhs) < 1e-13

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            heat_element(context(1, 2), 0.0)


class TestLieBasis:
    def test_dimension_d2_m2(self):
        lie = lie_basis(context(2, 2))
        assert lie.dim == 4
        assert lie.words == ((1,), (2,), (0,), (1, 2))

    def test_dimension_d1_m1(self):
        lie = lie_basis(context(1, 1))
        assert lie.dim == 1
        assert lie.elements[0] == generator(context(1, 1), 1)

    def test_elements_have_zero_constant_term(self):
        for d, m in [(1, 3), (2, 3)]:
            for elt in lie_basis(context(d, m)).elements:
                assert elt.coeff(()) == 0.0

    def test_columns_independence_rank(self):
        lie = lie_basis(context(2, 3))
        assert np.linalg.matrix_rank(lie.matrix, tol=1e-10) == lie.dim

    def test_log_signature_in_span(self):
        from cubgreeks import paths

        ctx = context(2, 3)
        lie = lie_basis(ctx)
        rng = np.random.default_rng(41)
        for _ in range(10):
            incs = rng.uniform(-0.7, 0.7, size=(3, 3))
            sig = paths.signature(ctx, paths.from_increments(1.0, incs))
            _, res = lie_coordinates(lie, log(sig))
            assert res < 1e-10

    def test_bracket_monomial_right_nesting(self):
        ctx = context(2, 3)
        expected = bracket(generator(ctx, 1), bracket(generator(ctx, 1), generator(ctx, 2)))
        assert bracket_monomial(ctx, (1, 1, 2)) == expected
