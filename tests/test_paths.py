import math

import numpy as np
import pytest

from cubgreeks import algebra, paths
from cubgreeks.algebra import context, dilate, lie_basis, log, max_abs_diff, mul, unit
from cubgreeks.errors import DomainError, InvalidPathError
from cubgreeks.paths import (
    PiecewisePath,
    from_increments,
    knot_stack,
    line_path,
    path_from_dict,
    path_to_dict,
    scale_path,
    segment_signature,
    signature,
    signatures,
)

from oracles import concat, iterated_integral_quadrature, lie_coordinates


def random_path(rng, d, n_segments=3, horizon=1.0):
    return from_increments(horizon, rng.uniform(-0.8, 0.8, size=(n_segments, d + 1)))


class TestPathValidation:
    def test_knot_times_must_increase(self):
        with pytest.raises(InvalidPathError):
            PiecewisePath(1.0, [(0.0, [0.0, 0.0]), (0.0, [1.0, 1.0]), (1.0, [2.0, 2.0])])

    def test_first_knot_at_zero(self):
        with pytest.raises(InvalidPathError):
            PiecewisePath(1.0, [(0.1, [0.0]), (1.0, [1.0])])

    def test_last_knot_at_horizon(self):
        with pytest.raises(InvalidPathError):
            PiecewisePath(1.0, [(0.0, [0.0]), (0.9, [1.0])])


class TestSegmentSignature:
    def test_is_exponential_of_increment(self):
        ctx = context(1, 3)
        t, a = 0.5, 0.3
        sig = segment_signature(ctx, [t, a])
        step = algebra.TensorElement(ctx, {(0,): t, (1,): a})
        assert max_abs_diff(sig, algebra.exp(step)) == 0.0

    def test_zero_increment(self):
        ctx = context(2, 2)
        assert segment_signature(ctx, [0.0, 0.0, 0.0]) == unit(ctx)

    def test_repeated_letter_coefficient(self):
        # quadrature oracle: coefficient of (1,1) is a^2/2 on a line
        ctx = context(1, 2)
        a = 0.7
        p = line_path(0.5, [0.2, a])
        sig = signature(ctx, p)
        oracle = iterated_integral_quadrature(p, (1, 1))
        assert abs(sig.coeff((1, 1)) - a * a / 2.0) < 1e-15
        assert abs(sig.coeff((1, 1)) - oracle) < 1e-8


class TestSignature:
    def test_paper_line_gives_exp(self):
        # the straight +e_1 trajectory of the two-point construction
        ctx = context(2, 2)
        t = 0.64
        p = PiecewisePath(t, [(0.0, [0, 0, 0]), (t, [0.0, math.sqrt(t), 0.0])])
        assert max_abs_diff(signature(ctx, p), algebra.exp(math.sqrt(t) * algebra.generator(ctx, 1))) < 1e-15

    def test_chen_concatenation(self):
        ctx = context(2, 3)
        rng = np.random.default_rng(2)
        for _ in range(20):
            p1 = random_path(rng, 2, n_segments=2, horizon=0.6)
            p2 = random_path(rng, 2, n_segments=3, horizon=0.4)
            joined = signature(ctx, concat(p1, p2))
            product = mul(signature(ctx, p1), signature(ctx, p2))
            assert max_abs_diff(joined, product) < 1e-13

    def test_against_quadrature_oracle(self):
        ctx = context(2, 3)
        rng = np.random.default_rng(4)
        p = random_path(rng, 2, n_segments=2)
        sig = signature(ctx, p)
        for word in [(1,), (0,), (1, 2), (2, 1), (0, 1), (1, 1, 2)]:
            oracle = iterated_integral_quadrature(p, word, points_per_segment=4000)
            assert abs(sig.coeff(word) - oracle) < 1e-8

    def test_group_likeness(self):
        ctx = context(2, 3)
        lie = lie_basis(ctx)
        rng = np.random.default_rng(6)
        for _ in range(10):
            sig = signature(ctx, random_path(rng, 2))
            _, res = lie_coordinates(lie, log(sig))
            assert res < 1e-10

    def test_redundant_collinear_knot(self):
        ctx = context(1, 3)
        p = line_path(1.0, [1.0, 0.8])
        refined = PiecewisePath(1.0, [(0.0, [0, 0]), (0.31, [0.31, 0.8 * 0.31]), (1.0, [1.0, 0.8])])
        assert max_abs_diff(signature(ctx, p), signature(ctx, refined)) < 1e-13


    def test_wrong_dimension_is_refused(self):
        ctx = context(2, 3)
        good, bad = line_path(1.0, [1.0, 0.5, 0.5]), line_path(1.0, [1.0, 0.5])
        for call in (lambda: signature(ctx, bad), lambda: knot_stack([good, bad], ctx.d + 1)):
            with pytest.raises(InvalidPathError):
                call()


class TestScalePath:
    def test_identity_at_one(self):
        rng = np.random.default_rng(8)
        p = random_path(rng, 1)
        q = scale_path(p, 1.0)
        assert np.allclose(q.points, p.points) and np.allclose(q.times, p.times)

    def test_componentwise_scaling(self):
        p = line_path(1.0, [1.0, 1.0])
        q = scale_path(p, 4.0)
        assert q.t_end == 4.0
        assert np.allclose(q.points[-1], [4.0, 2.0])

    @pytest.mark.parametrize("t", [0.01, 1.0, 4.0])
    def test_dilate_intertwining(self, t):
        ctx = context(2, 3)
        rng = np.random.default_rng(10)
        for _ in range(25):
            p = random_path(rng, 2)
            lhs = signature(ctx, scale_path(p, t))
            rhs = dilate(math.sqrt(t), signature(ctx, p))
            assert max_abs_diff(lhs, rhs) < 1e-13

    def test_requires_unit_horizon(self):
        p = line_path(2.0, [2.0, 1.0])
        with pytest.raises(DomainError):
            scale_path(p, 0.5)

    def test_rejects_nonpositive_horizon(self):
        p = line_path(1.0, [1.0, 1.0])
        with pytest.raises(DomainError):
            scale_path(p, -1.0)


class TestArrayConstructor:
    """from_increments, concat and scale_path build from arrays: the same bits
    and the same checks as the knot-list constructor."""

    @staticmethod
    def assert_same(path, times, points, t_end):
        knots = PiecewisePath(t_end, list(zip(times, points)))
        assert path.t_end.hex() == knots.t_end.hex()
        assert path.times.tobytes() == knots.times.tobytes()
        assert path.points.tobytes() == knots.points.tobytes()
        assert not (path.times.flags.writeable or path.points.flags.writeable)

    @pytest.mark.parametrize("t", [0.01, 0.3, 4.0])
    def test_scale_path_is_the_knot_constructor(self, t):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_path(rng, 2)
            pts = p.points.copy()
            pts[:, 0] *= t
            pts[:, 1:] *= math.sqrt(t)
            self.assert_same(scale_path(p, t), p.times * t, pts, t)

    @pytest.mark.parametrize("t", [0.01, 0.3, 4.0])
    def test_stacked_knots_scale_like_each_path(self, t):
        # one scale_knots call on a (q, K+1) stack gives each row scale_path's bits
        rng = np.random.default_rng(5)
        stack = [random_path(rng, 2) for _ in range(6)]
        times, points = np.stack([p.times for p in stack]), np.stack([p.points for p in stack])
        frozen = points.tobytes()
        scaled_times, scaled_points = paths.scale_knots(times, points, t)
        assert points.tobytes() == frozen
        for j, p in enumerate(stack):
            q = scale_path(p, t)
            assert scaled_times[j].tobytes() == q.times.tobytes()
            assert scaled_points[j].tobytes() == q.points.tobytes()

    def test_from_increments_and_concat_are_the_knot_constructor(self):
        rng = np.random.default_rng(4)
        incs = rng.uniform(-0.8, 0.8, size=(3, 3))
        points = np.vstack([np.zeros(3), np.cumsum(incs, axis=0)])
        self.assert_same(from_increments(0.7, incs), np.linspace(0.0, 0.7, 4), points, 0.7)
        p1, p2 = random_path(rng, 1, horizon=0.6), random_path(rng, 1, horizon=0.4)
        times = np.concatenate([p1.times, p1.t_end + p2.times[1:]])
        points = np.vstack([p1.points, p1.points[-1] + p2.points[1:]])
        self.assert_same(concat(p1, p2), times, points, p1.t_end + p2.t_end)

    def test_collapsing_knot_times_are_refused(self):
        # 0.5 * 5e-324 rounds to 0, so the first two knot times coincide
        p = from_increments(1.0, [[0.5, 0.1], [0.5, -0.2]])
        with pytest.raises(InvalidPathError):
            scale_path(p, 5e-324)

    @pytest.mark.parametrize("times,points", [
        ([0.0, 0.5, 1.0], [[0.0], [1.0]]),  # one time too many
        ([0.0, 1.0], [0.0, 1.0]),  # points not vectors
        ([0.0], [[0.0]]),  # one knot
        ([0.0, np.nan, 1.0], [[0.0], [1.0], [2.0]]),
        ([0.0, 1.0], [[0.0], [np.inf]]),
        ([0.1, 1.0], [[0.0], [1.0]]),  # first time not 0
        ([0.0, 0.9], [[0.0], [1.0]]),  # last time not t_end
        ([0.0, 0.6, 0.4, 1.0], [[0.0], [1.0], [2.0], [3.0]]),  # decreasing
    ])
    def test_array_constructor_keeps_every_check(self, times, points):
        with pytest.raises(InvalidPathError):
            PiecewisePath._from_arrays(1.0, np.array(times), np.array(points))


class TestSignatureStack:
    """``signatures`` of an (n, K+1, d+1) knot-point stack: one Chen fold whose
    columns are bitwise each path's own signature, and ``knot_stack``, which lays a
    list of paths out as that stack."""

    CONTEXTS = [(1, 3), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 4)]  # verify's test contexts

    @staticmethod
    def stack(rng, n, n_segments, d):
        points = np.concatenate([np.zeros((n, 1, d + 1)), rng.uniform(-0.8, 0.8, (n, n_segments, d + 1))], axis=1)
        points[0, 1, 1] = -0.0  # -0.0 - 0.0: an increment of -0.0
        points[1, :, 0] = 0.0  # a path that never moves in time
        return points

    @pytest.mark.parametrize("n_segments", [1, 2, 3, 4])
    @pytest.mark.parametrize("d,m", CONTEXTS)
    def test_each_column_is_the_path_signature_bitwise(self, d, m, n_segments):
        ctx = context(d, m)
        points = self.stack(np.random.default_rng(100 * d + 10 * m + n_segments), 5, n_segments, d)
        assert np.signbit(np.diff(points[0], axis=0)[0, 1])
        columns = signatures(ctx, points)
        assert columns.shape == (ctx.dim, 5)
        times = np.linspace(0.0, 1.0, n_segments + 1)
        for j, row in enumerate(points):
            own = signature(ctx, PiecewisePath(1.0, list(zip(times, row))))
            assert columns[:, j].tobytes() == own.vec.tobytes()

    @pytest.mark.parametrize("d,m", CONTEXTS)
    def test_list_of_equal_length_paths_is_the_stack(self, d, m):
        points = self.stack(np.random.default_rng(d + m), 6, 3, d)
        path_list = [PiecewisePath(0.7, list(zip(np.linspace(0.0, 0.7, 4), row))) for row in points]
        times, stacked = knot_stack(path_list, d + 1)
        assert stacked.tobytes() == points.tobytes()
        assert times.tobytes() == np.tile(np.linspace(0.0, 0.7, 4), (6, 1)).tobytes()
        ctx = context(d, m)
        assert signatures(ctx, stacked).tobytes() == signatures(ctx, points).tobytes()

    def test_empty_list_is_an_empty_stack(self):
        times, points = knot_stack([], 3)
        assert times.shape == (0, 2) and points.shape == (0, 2, 3)
        assert signatures(context(2, 3), points).shape == (context(2, 3).dim, 0)

    @pytest.mark.parametrize("points", [
        np.zeros((3, 3)),  # ndim 2
        np.zeros((1, 2, 3, 3)),  # ndim 4
        np.zeros((2, 3, 2)),  # last axis d
        np.zeros((2, 3, 4)),  # last axis d + 2
        np.zeros((2, 1, 3)),  # one knot
        np.zeros((2, 0, 3)),  # no knot
        np.array([[[0.0, 0.0, 0.0], [1.0, np.nan, 0.0]]]),
        np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, -np.inf]]]),
        [line_path(1.0, [1.0, 0.5, 0.5])],  # a list of paths: knot_stack lays those out
    ], ids=["ndim2", "ndim4", "dim-d", "dim-d+2", "one-knot", "no-knot", "nan", "inf", "path-list"])
    def test_bad_stack_is_refused(self, points):
        with pytest.raises(InvalidPathError):
            signatures(context(2, 3), points)


class TestPathSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(12)
        p = random_path(rng, 2, n_segments=4)
        q = path_from_dict(path_to_dict(p))
        assert q == p

    def test_schema(self):
        p = line_path(0.5, [0.5, 1.0])
        data = path_to_dict(p)
        assert set(data) == {"t_end", "knots"}
        assert data["knots"][0] == {"s": 0.0, "x": [0.0, 0.0]}
        assert data["knots"][-1] == {"s": 0.5, "x": [0.5, 1.0]}
