"""Truncated trivariate Taylor arithmetic (forward-mode AD) over tensors.

A ``Jet`` stores the Taylor coefficients of a quantity as a function of the
three parameters of a hypersurface chart, truncated at total degree 0, 1, 2 or
3.  Evaluating the whole geometric pipeline once in jet arithmetic yields
every derivative the engine needs (metric, Christoffel symbols, curvature
tensor, derivatives of the shape operator and of the product-structure
data) without finite differencing.  Finite differences appear only in test
oracles.

Layout.  Coefficients live on axis 0, then come the jet's tensor axes
(``shape``; ``()`` for a scalar), then the point axis of a batch:
``(nterms, *shape)`` at one point, ``(nterms, *shape, N)`` for N points.
Every operation acts on all entries and points at once (Taylor arithmetic
over whole tensors and a batch axis: Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13).  Operands share the point axis; their
tensor axes broadcast like numpy's.  Values come out point axis first:
``val`` of a batch of 3x3 jets is ``(N, 3, 3)``, ``grad`` ``(N, 3, 3, 3)``.

Products.  Slot K of a product sums a[I] b[J] over the monomial pairs
(I, J) with I + J = K.  At order 2 and 3 the elementwise product and the
contraction kernel ``contract`` (einsum subscripts over the tensor axes)
form all pairs in one numpy call with a leading pair axis and sum them into
their slots as ``S @ pairs``, S being the 0/1 (nterms, npairs) matrix of
the pair table: one matrix product over all entries and points, about 3x
faster than ``np.add.reduceat`` over the same pairs at N = 50, and one
BLAS call as long as it fits the single-thread budget of ``_apply``.  At
order 0 and 1 a slot has at most two pairs: slot k is a[0] b[k] + a[k]
b[0].  The powers of a seed x0 + dx_i (``variables``) are monomials
(``Seed``).

The monomial table is graded, so a lower-order jet is a prefix of a
higher-order one, and a jet truncated at order k is exactly its first
C(k + 3, 3) coefficients: the length of the coefficient axis is the jet's
``order``.  Differentiating a degree-3 jet leaves a degree-2 jet, binary
operations truncate both operands to the shorter length, and extraction
methods assert that the requested derivative is within the order.
"""

from __future__ import annotations

import functools

import numpy as np

ORDER = 3
NVARS = 3

# Graded list of exponent triples (i, j, k) with i + j + k <= ORDER.
MONOMIALS: list[tuple[int, int, int]] = []
for deg in range(ORDER + 1):
    for i in range(deg, -1, -1):
        for j in range(deg - i, -1, -1):
            MONOMIALS.append((i, j, deg - i - j))
NTERMS = len(MONOMIALS)  # 20
_INDEX = {m: n for n, m in enumerate(MONOMIALS)}
_NT_OF_ORDER = {0: 1, 1: 4, 2: 10, 3: 20}
_ORDER_OF_NT = {v: k for k, v in _NT_OF_ORDER.items()}

# Multiplication at orders 2 and 3: c = S @ (a[I] * b[J]), where the
# monomial pairs (I, J) are sorted by their product slot K and S is the 0/1
# (nterms, npairs) matrix summing each pair into slot K.
_PAIRS = {}
for _nt in (10, 20):
    _trip = []
    for a, ma in enumerate(MONOMIALS[:_nt]):
        for b, mb in enumerate(MONOMIALS[:_nt]):
            k = _INDEX.get((ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2]))
            if k is not None and k < _nt:
                _trip.append((k, a, b))
    _trip.sort()
    _K, _I, _J = (np.array(col) for col in zip(*_trip))
    _S = np.zeros((_nt, len(_K)))
    _S[_K, np.arange(len(_K))] = 1.0
    _PAIRS[_nt] = (_I, _J, _S)

# Partial derivatives along the three variables as an (nt_lower * 3, nt)
# matrix per truncation length: row 3 L + v, column n holds the exponent of
# variable v in monomial n when lowering it gives monomial L, so the
# derivative of an order-k jet is an order-(k - 1) jet, and one matrix
# product lays its coefficients out as [L, v, ...].
_DERIV = {}
for _nt in (4, 10, 20):
    _low = _NT_OF_ORDER[_ORDER_OF_NT[_nt] - 1]
    _DERIV[_nt] = np.zeros((_low * NVARS, _nt))
    for v in range(NVARS):
        for n, m in enumerate(MONOMIALS[:_nt]):
            if m[v] > 0:
                lower = list(m)
                lower[v] -= 1
                _DERIV[_nt][_INDEX[tuple(lower)] * NVARS + v, n] = m[v]

_FACT = np.array([1.0, 1.0, 2.0, 6.0])

# _SEED_SLOTS[i, k - 1] is the slot of the monomial dx_i^k.
_SEED_SLOTS = np.array([[_INDEX[tuple(k * (w == v) for w in range(NVARS))]
                         for k in range(1, ORDER + 1)] for v in range(NVARS)])


# Multiply-adds per matrix product.  OpenBLAS ran a 20 x 84 x 600 product
# (1,008,000 multiply-adds) on two threads and a 20 x 84 x 500 one on one;
# on a 2-core machine two threads made the jet stages 2-3x slower whenever
# another process was busy.  So each matrix gets the widest column block
# within this budget, well below that size: 936 columns for the order-2
# pair table (10 x 28), 156 for the order-3 one (20 x 84), 436 for the
# order-3 derivative (30 x 20).  A fixed block of 128 columns for every
# matrix split the small order-2 sums into several calls: on a 2-core
# x86 host, in one run, a 10 x 28 slot sum over 144, 480 and 600 columns
# took 0.69x, 0.53x and 0.54x the time of 128-column blocks, with equal
# bits.
_BUDGET = 262144


def _apply(M, c):
    """``M @`` along the coefficient axis of ``c``: an (m, nterms) matrix
    times an (nterms, ...) coefficient array, one product per block of
    columns within ``_BUDGET``."""
    flat = c.reshape(len(c), -1)
    block = _BUDGET // M.size
    if flat.shape[1] <= block:
        return (M @ flat).reshape(M.shape[:1] + c.shape[1:])
    out = np.empty((len(M), flat.shape[1]))
    for i in range(0, flat.shape[1], block):
        np.matmul(M, flat[:, i:i + block], out=out[:, i:i + block])
    return out.reshape(M.shape[:1] + c.shape[1:])


class Jet:
    """Truncated Taylor expansion in three chart variables of a tensor of
    ``shape``, at one point (coefficients ``(nterms, *shape)``) or at a batch
    of points (``(nterms, *shape, N)``); ``nterms`` is 1, 4, 10 or 20 for
    truncation orders 0 to 3."""

    __slots__ = ("c", "shape")
    __array_ufunc__ = None  # force numpy to defer to our operators

    def __init__(self, coeffs, shape=()):
        self.c = np.asarray(coeffs, dtype=float)
        self.shape = tuple(shape)

    @property
    def order(self):
        """Truncation degree, read off the number of coefficients."""
        return _ORDER_OF_NT[len(self.c)]

    # construction -----------------------------------------------------
    @staticmethod
    def variable(i, x0, order=ORDER):
        """The seed x0 + dx_i of chart variable ``i``, truncated at
        ``order`` (1 to 3)."""
        c = np.zeros((_NT_OF_ORDER[order],) + np.shape(x0))
        c[0], c[_SEED_SLOTS[i, 0]] = x0, 1.0
        seed = Seed(c)
        seed.var = i
        return seed

    # layout --------------------------------------------------------------
    @property
    def batched(self):
        return self.c.ndim > len(self.shape) + 1

    def _points_first(self, x, lead=0):
        """``x`` laid out as ``(*lead, *shape, *points)``, returned as
        ``(*points, *shape, *lead)``."""
        rank = lead + len(self.shape)
        return x.transpose((*range(rank, x.ndim), *range(lead, rank),
                            *range(lead)))

    def __getitem__(self, idx):
        """The jet of an entry or slice of the tensor axes (numpy indexing,
        without an ellipsis).  An advanced index gives C-contiguous
        coefficients; numpy would leave the indexed axes outermost in
        memory."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        c = self.c[(slice(None),) + idx]
        if any(isinstance(i, (list, np.ndarray)) for i in idx):
            c = np.ascontiguousarray(c)
        return Jet(c, c.shape[1:c.ndim - self.batched])

    def reshape(self, shape):
        """The jet with its tensor axes reshaped to ``shape``."""
        shape = tuple(shape)
        return Jet(self.c.reshape((len(self.c),) + shape
                                  + self.c.shape[1 + len(self.shape):]),
                   shape)

    # basic queries -----------------------------------------------------
    @property
    def val(self):
        """Values, point axis first: ``shape`` or ``(N, *shape)``."""
        return self._points_first(self.c[0])

    def grad(self):
        """First derivatives, ``(*shape, 3)`` or ``(N, *shape, 3)``."""
        assert self.order >= 1
        # the degree-1 block is ordered (x, y, z)
        return self._points_first(self.c[1:4], 1).copy()

    def truncated(self, order):
        """The jet cut to ``order``: its first C(order + 3, 3) slots."""
        return Jet(self.c[:_NT_OF_ORDER[order]], self.shape)

    def deriv(self):
        """Jet of the partial derivatives along the three chart variables,
        one order lower, on a new leading tensor axis of size 3."""
        assert self.order >= 1
        c = _apply(_DERIV[len(self.c)], self.c)
        return Jet(c.reshape((len(c) // NVARS, NVARS) + c.shape[1:]),
                   (NVARS,) + self.shape)

    # arithmetic ---------------------------------------------------------
    def _pad(self, rank):
        """Coefficients with the tensor axes left-padded to ``rank``."""
        c = self.c
        if rank == len(self.shape):
            return c
        return c.reshape(c.shape[:1] + (1,) * (rank - len(self.shape))
                         + c.shape[1:])

    def _operands(self, other):
        """Own and other's coefficients (or constant) and the broadcast
        tensor shape, aligned so that tensor axes broadcast together; two
        jets are truncated to the shorter one's length."""
        if isinstance(other, Jet):
            shape = self.shape if self.shape == other.shape \
                else np.broadcast_shapes(self.shape, other.shape)
            nt = min(len(self.c), len(other.c))
            return (self._pad(len(shape))[:nt], other._pad(len(shape))[:nt],
                    shape)
        x = np.asarray(other, dtype=float)
        shape = self.shape if self.shape == x.shape \
            else np.broadcast_shapes(self.shape, x.shape)
        if self.batched and x.ndim:
            x = x[..., None]
        return self._pad(len(shape)), x, shape

    def __add__(self, other):
        if isinstance(other, Jet) and other.shape == self.shape:
            nt = min(len(self.c), len(other.c))
            return Jet(self.c[:nt] + other.c[:nt], self.shape)
        a, b, shape = self._operands(other)
        if isinstance(other, Jet):
            return Jet(a + b, shape)
        # a number adds to the value slot of a copy; an array may widen it
        c = a.copy() if b.ndim == 0 else np.array(
            np.broadcast_to(a, np.broadcast_shapes(a.shape, b.shape)))
        c[0] += b
        return Jet(c, shape)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c, self.shape)

    def __sub__(self, other):
        if isinstance(other, Jet) and other.shape == self.shape:
            nt = min(len(self.c), len(other.c))
            return Jet(self.c[:nt] - other.c[:nt], self.shape)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet) and other.shape == self.shape:
            return Jet(_products(self.c, other.c, np.multiply), self.shape)
        a, b, shape = self._operands(other)
        if isinstance(other, Jet):
            return Jet(_products(a, b, np.multiply), shape)
        return Jet(a * b, shape)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        a, b, shape = self._operands(other)
        return Jet(a / b, shape)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __repr__(self):
        points = self.c.shape[-1] if self.batched else None
        return (f"Jet(shape={self.shape}, points={points}, "
                f"order={self.order})")

    # analytic functions --------------------------------------------------
    def _compose(self, ladder):
        """Evaluate f(self) entrywise given ``ladder(k)``, the k-th
        derivative of f at the value part (an array shaped like ``c[0]``),
        which is called for k up to the jet's order only."""
        s = self.c.copy()
        s[0] = 0.0
        c = np.zeros_like(self.c)
        c[0] = ladder(0)
        p = s
        for k in range(1, self.order + 1):
            if k > 1:
                p = _products(p, s, np.multiply)
            c = c + (ladder(k) / _FACT[k]) * p
        return Jet(c, self.shape)

    def _reciprocal(self):
        x = self.c[0]
        if np.any(x == 0.0):
            raise ZeroDivisionError("jet with zero value part")
        # (-1)^k k! / x^(k + 1)
        return self._compose(
            lambda k: (1.0, -1.0, 2.0, -6.0)[k] / x ** (k + 1))

    def sqrt(self):
        x = self.c[0]
        if np.any(x <= 0.0):
            raise ValueError("sqrt of non-positive jet value")
        r = np.sqrt(x)
        return self._compose(lambda k: r if k == 0 else
                             (0.5, -0.25, 0.375)[k - 1] / r ** (2 * k - 1))

    def exp(self):
        e = np.exp(self.c[0])
        return self._compose(lambda k: e)

    def sin(self):
        s, c = np.sin(self.c[0]), np.cos(self.c[0])
        return self._compose((s, c, -s, -c).__getitem__)

    def cos(self):
        s, c = np.sin(self.c[0]), np.cos(self.c[0])
        return self._compose((c, -s, -c, s).__getitem__)


class Seed(Jet):
    """The seed x0 + dx_i of chart variable i, whose powers are monomials:
    a composition writes f^(k)(x0)/k! into the slot of dx_i^k, with the bits
    of the product route, which it takes where an f^(k) is not finite."""

    __slots__ = ("var",)

    def _compose(self, ladder):
        n = self.order
        steps = np.array([ladder(k) for k in range(1, n + 1)]) \
            / _FACT[1:n + 1].reshape((n,) + (1,) * (self.c.ndim - 1))
        if not np.isfinite(steps).all():
            return super()._compose(ladder)
        c = np.zeros_like(self.c)
        # the product route adds step * 0.0 to the value, which can only
        # change a signed zero, and sums each power's slot from 0.0
        c[0] = ladder(0) + (steps * 0.0).sum(axis=0)
        c[_SEED_SLOTS[self.var, :n]] = steps + 0.0
        return Jet(c, self.shape)


def _products(a, b, form):
    """Product of coefficient arrays ``a`` and ``b`` truncated to the shorter
    length, ``form`` combining paired coefficients along a leading axis."""
    nt = min(len(a), len(b))
    if nt <= 4:  # slot k is a[0] b[k] + a[k] b[0]
        c = form(a[:1], b[:nt])
        c[1:] += form(a[1:nt], b[:1])
        c += 0.0  # a sum from 0.0, as in S @ pairs, has no -0.0
        return c
    I, J, S = _PAIRS[nt]
    return _apply(S, form(a[I], b[J]))


@functools.cache
def _einsum_spec(subscripts):
    """The einsum subscripts of ``contract`` with the coefficient and point
    axes written out, and the rank of the output."""
    ins, out = subscripts.split("->")
    sub_a, sub_b = ins.split(",")
    return f"p{sub_a}...,p{sub_b}...->p{out}...", len(out)


def contract(subscripts, a, b):
    """Einsum of two jets over their tensor axes, e.g. ``"ij,jk->ik"``; the
    coefficient and point axes are implicit."""
    spec, rank = _einsum_spec(subscripts)
    c = _products(a.c, b.c, lambda x, y: np.einsum(spec, x, y))
    return Jet(c, c.shape[1:rank + 1])


def stack(items):
    """One jet from a nested list of jets of one shape: the nesting becomes
    the leading tensor axes, truncated to the shortest jet's length."""
    arr = np.asarray(items, dtype=object)
    flat = arr.ravel()
    nt = min(len(x.c) for x in flat)
    c = np.stack([x.c[:nt] for x in flat], axis=1)
    return Jet(c.reshape(c.shape[:1] + arr.shape + c.shape[2:]),
               arr.shape + flat[0].shape)


def variables(u, order=ORDER):
    """Seed jets, truncated at ``order``, for a chart point u = (u1, u2,
    u3), or for a batch of points given as an (N, 3) array."""
    u = np.asarray(u, dtype=float)
    return tuple(Jet.variable(i, u[..., i], order) for i in range(NVARS))


def value(x):
    """Value part of a jet (point axis first), a float, or an array."""
    if isinstance(x, Jet):
        return x.val
    return np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)


def worst_of(residuals) -> float:
    """Largest residual, 0.0 when there is none, NaN when any is NaN
    (``max(0.0, nan)`` is 0.0, so a plain running max would lose it)."""
    if not isinstance(residuals, np.ndarray):
        residuals = np.asarray(list(residuals), dtype=float)
    return float(residuals.max()) if residuals.size else 0.0

