"""Arithmetic in the truncated algebra on d+1 graded generators.

Generators are e_0, ..., e_d.  A word is a tuple of letters in {0..d}; its
degree is the letter count with every 0 counted twice, so e_0 behaves like a
quadratic (time-like) symbol.  All products truncate words of degree > m.
Elements are dense coefficient vectors over the graded-lexicographic basis.
The context owns the dense kernels: the one product, a scatter over the precomputed
splits K = I*J of every basis word; the bracket; the exp and log series; dilation, graded
projection and conjugation; the segment exponential; and the Chen fold that every path
signature runs, whose group-like step adds only interior splits, in the product's order.
Each accepts a single vector (dim,) or a word-major batch (dim, n), and each
column of a batch is bitwise the result of its own single-vector call.  The
module-level functions check their inputs and wrap these kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np
import scipy.sparse

from .errors import ContextMismatchError, DomainError, InvalidWordError, check_horizon, is_finite, is_integer

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

MAX_BASIS = 2**16  # words per context; (3, 8) has 18,602 and (4, 8) 128,557


def word_degree(word, d=None):
    """Degree of a multi-index: length plus the number of zeros.

    Letters must be non-negative integers; if ``d`` is given they must not
    exceed it.  The empty word has degree 0.
    """
    deg = 0
    for letter in word:
        if letter < 0 or (d is not None and letter > d):
            raise InvalidWordError(f"letter {letter} outside 0..{d} in word {word}")
        deg += 2 if letter == 0 else 1
    return deg


class AlgebraContext:
    """Basis bookkeeping and the dense kernels for driver count d and degree m.

    The basis is every word of degree <= m in graded-lexicographic order
    (degree first, then tuple order).  Contexts compare equal by (d, m).
    """

    def __init__(self, d, m):
        if not (is_integer(d) and is_integer(m)):
            raise DomainError(f"d and m must be integers, got d={d!r}, m={m!r}")
        if d < 1:
            raise DomainError(f"need at least one driver, got d={d}")
        if m < 1:
            raise DomainError(f"truncation degree must be >= 1, got m={m}")
        self.d = int(d)
        self.m = int(m)
        # degree-k words: e_0 before each degree-(k-2) word, then e_1..e_d before
        # each degree-(k-1) word, which is tuple order with no sort; each degree
        # is counted before it is built, so at most MAX_BASIS words ever are
        levels = [[], [EMPTY_WORD]]  # degrees -1 and 0
        total = 1
        for _ in range(self.m):
            total += self.d * len(levels[-1]) + len(levels[-2])
            if total > MAX_BASIS:
                raise DomainError(f"context (d={d}, m={m}) has over {MAX_BASIS} basis words")
            levels.append([(0,) + w for w in levels[-2]] + [(i,) + w for i in range(1, self.d + 1) for w in levels[-1]])
        words = [w for level in levels for w in level]
        self.basis = tuple(words)
        self.index = index = {w: i for i, w in enumerate(words)}
        self.degrees = _frozen(np.repeat(np.arange(self.m + 1), [len(level) for level in levels[1:]]))
        # every split K = K[:cut] * K[cut:], ascending cut within each K; the
        # basis is closed under prefixes and suffixes, so all parts are words
        splits = np.array(
            [(k, index[w[:cut]], index[w[cut:]]) for k, w in enumerate(words) for cut in range(len(w) + 1)]
        )
        self._split_k, self._split_i, self._split_j = (_frozen(col) for col in splits.T)
        self._scatter = scipy.sparse.csr_matrix(
            (np.ones(len(splits)), (splits[:, 0], np.arange(len(splits)))),
            shape=(self.dim, len(splits)),
        )
        # prefix schedule by word length: (words, prefixes, last letters, 1/length)
        self._exp_levels = []
        for length in range(1, self.m + 1):
            level = [w for w in words if len(w) == length]
            self._exp_levels.append((
                np.array([index[w] for w in level]),
                np.array([index[w[:-1]] for w in level]),
                np.array([w[-1] for w in level]),
                1.0 / length,
            ))
        # interior cuts 0 < c < len(w), cut-major: (words, prefixes, suffixes)
        cuts = [[(index[w], index[w[:c]], index[w[c:]]) for w in words if len(w) > c] for c in range(1, self.m)]
        self._chen_cuts = [tuple(np.array(cut).T.copy()) for cut in cuts]

    @property
    def dim(self):
        return len(self.basis)

    def degree(self, word):
        i = self.index.get(word)
        return word_degree(word, self.d) if i is None else int(self.degrees[i])

    def check_word(self, word):
        if word not in self.index:
            # distinguish bad letters from over-degree words
            deg = word_degree(word, self.d)
            raise InvalidWordError(f"word {word} has degree {deg} > m={self.m}")
        return word

    def product(self, x, y):
        """Truncated product of coefficient arrays of shape (dim,) or (dim, n).

        Each K accumulates x[I]*y[J] over its splits in ascending cut order,
        starting from zero.
        """
        terms = x[self._split_i]
        terms *= y[self._split_j]
        if terms.ndim == 1:
            return np.bincount(self._split_k, terms, minlength=self.dim)
        return self._scatter @ terms

    def bracket(self, x, y):
        """Commutator xy - yx."""
        return self.product(x, y) - self.product(y, x)

    def exp(self, x):
        """Series sum_i x^i / i! of nilpotent x, stopped once every column's term is
        zero; a column whose series ended adds zero terms, which change no bit."""
        result = term = _unit(x.shape)
        for i in range(1, self.m + 1):
            term = self.product(term, x) * (1.0 / i)
            if not term.any():
                break
            result = result + term
        return result

    def log(self, x):
        """log(c) 1 + sum_i (-1)^(i+1) u^i / i with u = (x - c 1) / c for a positive
        constant term c (math.log per column), stopped once every power of u is
        zero.  The sum starts from +0.0, so a finished column's zero terms change no bit."""
        c0 = x[0]
        u = (x - c0 * _unit(x.shape)) * (1.0 / c0)
        result = np.zeros_like(u)
        result[0] = _math_log(c0)
        power = u
        for i in range(1, self.m + 1):
            if not power.any():
                break
            result = result + power * ((1.0 if i % 2 == 1 else -1.0) / i)
            power = self.product(power, u)
        return result

    def dilate(self, s, x):
        """Scale each degree-k coefficient by the float power s**k: ``s`` is one
        scale, or an (n,) array of one scale per column of a batch."""
        if getattr(s, "ndim", 0):
            powers = np.array([[t**k for t in s.tolist()] for k in range(self.m + 1)])
        else:
            powers = np.array([float(s) ** k for k in range(self.m + 1)])
        factor = powers[self.degrees]
        return (factor[:, None] if x.ndim > factor.ndim else factor) * x

    def graded_part(self, x, n):
        # x.T puts the words last, so the (dim,) mask broadcasts over both shapes
        return np.where(self.degrees == n, x.T, 0.0).T

    def adjoint(self, g, w):
        """g w g^{-1}, with g scaled to constant term 1 and inverted as exp(-log g)."""
        gn = g * (1.0 / g[0])
        return self.product(self.product(gn, w), self.exp(-self.log(gn)))

    def segment_exp(self, inc):
        """exp(sum_i inc[i] e_i) for increments of shape (d+1,) or (d+1, n).

        Coefficients build along prefixes: E_w = (E_prefix * inc[last]) / len(w),
        with the division taken as a product by the reciprocal.
        """
        inc = np.asarray(inc, dtype=float)
        if inc.shape[:1] != (self.d + 1,):
            raise DomainError(f"increments of shape {inc.shape} need d+1 = {self.d + 1} rows")
        out = np.empty((self.dim,) + inc.shape[1:])
        out[0] = 1.0
        (idx, _, last, _), *levels = self._exp_levels
        out[idx] = inc[last]  # (1 * inc) * 1, bit for bit
        for idx, prefix, last, recip in levels:
            out[idx] = (out[prefix] * inc[last]) * recip
        return out

    def chen(self, inc):
        """Signature of a piecewise-linear path from step-major increments of
        shape (d+1, K) or (d+1, K, n), K >= 1: the segment exponentials
        multiplied in step order (Chen's relation), starting from the first.
        Factor y and partial product sig have constant term 1.0, so each word K sums as
        (0 + y[K]) + interior splits by ascending cut + sig[K], bitwise ``product(sig, y)``."""
        inc = np.asarray(inc, dtype=float)
        if inc.ndim < 2 or inc.shape[1] == 0:
            raise DomainError(f"increments of shape {inc.shape} hold no step; need (d+1, K) or (d+1, K, n), K >= 1")
        sig = self.segment_exp(inc[:, 0])
        for k in range(1, inc.shape[1]):
            y = self.segment_exp(inc[:, k])
            out = y + 0.0  # the product's sum starts at +0.0, which turns -0.0 to 0.0
            for words, prefixes, suffixes in self._chen_cuts:
                terms = sig[prefixes]  # in place: a fresh block fewer, so a new heap is not trimmed and refaulted
                terms *= y[suffixes]
                out[words] += terms
            out[1:] += sig[1:]
            sig = out
        return sig

    def __eq__(self, other):
        return isinstance(other, AlgebraContext) and (self.d, self.m) == (other.d, other.m)

    def __hash__(self):
        return hash((self.d, self.m))

    def __repr__(self):
        return f"AlgebraContext(d={self.d}, m={self.m})"


_math_log = np.frompyfunc(math.log, 1, 1)  # np.log can differ from math.log in the last bit


def _frozen(array):
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None, typed=True)  # typed: context(1, 2.0) is refused, not the cached (1, 2)
def context(d, m):
    """Shared context instance for (d, m)."""
    return AlgebraContext(d, m)


class TensorElement:
    """Element of the truncated algebra: a dense vector over the context basis.

    ``TensorElement(ctx, {word: c})`` sets the listed coefficients; ``coeffs``
    is a read-only {word: c} view of the nonzero entries in basis order.
    Instances are immutable; every operation returns a new element.
    """

    __slots__ = ("context", "vec", "_coeffs")

    def __init__(self, ctx, coeffs=None):
        vec = np.zeros(ctx.dim)
        if coeffs:
            for w, c in coeffs.items():
                vec[ctx.index[ctx.check_word(tuple(w))]] = float(c)
        self._set(ctx, vec)

    def _set(self, ctx, vec):
        vec.setflags(write=False)
        self.context = ctx
        self.vec = vec
        self._coeffs = None

    @classmethod
    def _of(cls, ctx, vec):
        """Wrap a fresh float vector without copying it."""
        out = object.__new__(cls)
        out._set(ctx, vec)
        return out

    @property
    def coeffs(self):
        if self._coeffs is None:
            basis = self.context.basis
            values = self.vec.tolist()
            self._coeffs = MappingProxyType({basis[i]: values[i] for i in np.flatnonzero(self.vec)})
        return self._coeffs

    def coeff(self, word):
        i = self.context.index.get(tuple(word))
        return 0.0 if i is None else float(self.vec[i]) + 0.0

    def __add__(self, other):
        _check_same_context(self, other)
        return TensorElement._of(self.context, self.vec + other.vec)

    def __sub__(self, other):
        _check_same_context(self, other)
        return TensorElement._of(self.context, self.vec - other.vec)

    def __neg__(self):
        return TensorElement._of(self.context, -self.vec)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return mul(self, other)
        return TensorElement._of(self.context, float(other) * self.vec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, s):
        return self * (1.0 / float(s))

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.context == other.context
            and np.array_equal(self.vec, other.vec)
        )

    def __hash__(self):
        return hash((self.context, frozenset(self.coeffs.items())))

    def __reduce__(self):
        # the cached coeffs view is a mappingproxy, which pickle rejects
        return (from_dense, (self.context, self.vec))

    def graded_part(self, n):
        """Projection onto the span of degree-n words."""
        return TensorElement._of(self.context, self.context.graded_part(self.vec, n))

    def __repr__(self):
        if not self.coeffs:
            return "TensorElement(0)"
        parts = []
        for w, c in self.coeffs.items():
            name = "1" if not w else "e" + "".join(str(i) for i in w)
            parts.append(f"{c:+.6g}*{name}")
        return "TensorElement(" + " ".join(parts) + ")"


def _check_same_context(x, y):
    if x.context != y.context:
        raise ContextMismatchError(f"contexts differ: {x.context} vs {y.context}")


def _unit(shape):
    """The unit element in every column of a (dim,) or (dim, n) array."""
    out = np.zeros(shape)
    out[0] = 1.0
    return out


def zero(ctx):
    return TensorElement(ctx)


def unit(ctx):
    return TensorElement._of(ctx, _unit(ctx.dim))


def generator(ctx, i):
    if not 0 <= i <= ctx.d:
        raise InvalidWordError(f"no generator e_{i} for d={ctx.d}")
    return TensorElement(ctx, {(i,): 1.0})


def mul(x, y):
    """Concatenation product, truncating words of degree > m."""
    _check_same_context(x, y)
    return TensorElement._of(x.context, x.context.product(x.vec, y.vec))


def exp(x):
    """Exponential series of a nilpotent element (zero constant term)."""
    if x.vec[0] != 0.0:
        raise DomainError("exp requires zero coefficient on the empty word")
    return TensorElement._of(x.context, x.context.exp(x.vec))


def log(x):
    """Logarithm of an element with positive constant term.

    For constant term c the value is log(c)*1 plus the finite alternating
    series in (x - c)/c, which is nilpotent.
    """
    if x.vec[0] <= 0.0:
        raise DomainError(f"log requires positive constant term, got {float(x.vec[0])}")
    return TensorElement._of(x.context, x.context.log(x.vec))


def dilate(s, x):
    """Grading automorphism: scale every degree-n coefficient by s**n."""
    if not (is_finite(s) and s > 0.0):
        raise DomainError(f"dilation parameter must be positive and finite, got {s!r}")
    return TensorElement._of(x.context, x.context.dilate(s, x.vec))


def bracket(x, y):
    """Commutator xy - yx."""
    _check_same_context(x, y)
    return TensorElement._of(x.context, x.context.bracket(x.vec, y.vec))


def adjoint(g, w):
    """Conjugation g w g^{-1} of a Lie element by a group-like element."""
    c0 = g.coeff(EMPTY_WORD)
    if c0 == 0.0:
        raise DomainError("adjoint requires an invertible element (nonzero constant term)")
    if w.coeff(EMPTY_WORD) != 0.0:
        raise DomainError("adjoint direction must have zero constant term")
    _check_same_context(g, w)
    return TensorElement._of(g.context, g.context.adjoint(g.vec, w.vec))


def heat_element(ctx, t):
    """exp(t*(e_0 + 1/2 sum_i e_i^2)), the expected truncated Brownian signature.

    The exponent has degree 2, so at m=1 the element degenerates to 1.
    """
    check_horizon(t)
    if ctx.m < 2:
        return unit(ctx)
    exponent = {(0,): t}
    for i in range(1, ctx.d + 1):
        exponent[(i, i)] = 0.5 * t
    return exp(TensorElement(ctx, exponent))


def bracket_monomial(ctx, word):
    """Right-nested bracket [e_{i1}, [e_{i2}, [..., e_{ik}]...]] for a word."""
    if len(word) == 0:
        raise InvalidWordError("bracket monomial needs a nonempty word")
    elt = generator(ctx, word[-1])
    for letter in reversed(word[:-1]):
        elt = bracket(generator(ctx, letter), elt)
    return elt


@dataclass(frozen=True)
class LieBasis:
    """An independent spanning set of bracket monomials, with dense columns."""

    context: AlgebraContext
    words: tuple
    elements: tuple
    matrix: np.ndarray  # (dim A, dim Lie), columns in `words` order

    @property
    def dim(self):
        return len(self.words)


@lru_cache(maxsize=None)
def lie_basis(ctx):
    """Greedily select independent right-nested bracket monomials of degree <= m.

    Candidates run over nonempty basis words in graded-lex order; a candidate
    is kept if its component orthogonal to the current span exceeds 1e-10
    relative to its own norm (modified Gram-Schmidt pivoting).
    """
    columns = []
    kept_words = []
    kept_elements = []
    ortho = []
    for w in ctx.basis:
        if len(w) == 0:
            continue
        elt = bracket_monomial(ctx, w)
        col = to_dense(elt)
        norm = np.linalg.norm(col)
        if norm <= 1e-14:
            continue
        r = col.copy()
        for q in ortho:
            r -= (q @ r) * q
        if np.linalg.norm(r) > 1e-10 * norm:
            ortho.append(r / np.linalg.norm(r))
            kept_words.append(w)
            kept_elements.append(elt)
            columns.append(col)
    matrix = np.column_stack(columns) if columns else np.zeros((ctx.dim, 0))
    matrix.setflags(write=False)
    return LieBasis(ctx, tuple(kept_words), tuple(kept_elements), matrix)


def to_dense(x):
    """Writable copy of the coefficient vector, with -0.0 entries read as 0.0."""
    return x.vec + 0.0


def from_dense(ctx, vec):
    if len(vec) != ctx.dim:
        raise DomainError(f"dense vector length {len(vec)} != basis size {ctx.dim}")
    return TensorElement._of(ctx, np.array(vec, dtype=float))


def max_abs_diff(x, y):
    """Largest coefficient difference between two elements."""
    _check_same_context(x, y)
    return float(np.max(np.abs(x.vec - y.vec), initial=0.0))


def element_to_dict(x):
    """JSON-friendly form: words in basis order, coefficients below 1e-15 omitted."""
    coeffs = [{"word": list(w), "c": c} for w, c in x.coeffs.items() if abs(c) >= 1e-15]
    return {"d": x.context.d, "m": x.context.m, "coeffs": coeffs}


def element_from_dict(data):
    ctx = context(int(data["d"]), int(data["m"]))
    coeffs = {tuple(item["word"]): float(item["c"]) for item in data["coeffs"]}
    if not all(map(is_finite, coeffs.values())):
        raise DomainError(f"element coefficients must be finite, got {list(coeffs.values())}")
    return TensorElement(ctx, coeffs)
