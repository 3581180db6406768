"""Truncated trivariate Taylor arithmetic (forward-mode AD), batched.

A ``Jet`` stores the Taylor coefficients of a scalar quantity as a function
of the three parameters of a hypersurface chart, truncated at a chosen
total degree (1, 2 or 3).  Evaluating the whole geometric pipeline once in
jet arithmetic yields every derivative the engine needs (metric,
Christoffel symbols, curvature tensor, derivatives of the shape operator
and of the product-structure data) without finite differencing.  Finite
differences appear only in test oracles.

Coefficients live on axis 0.  A jet of one point has coefficients of shape
``(nterms,)``; a jet of a batch of N points has shape ``(nterms, N)``, one
column per point, and every operation acts on all columns at once (Taylor
arithmetic over a batch axis: Griewank & Walther, *Evaluating Derivatives*,
2nd ed., ch. 13).  Operands of one operation share the point axis.  Value
extraction puts the point axis first: ``grad`` of a batch is ``(N, 3)``.

The monomial table is graded, so a lower-order jet is literally a prefix
of a higher-order one; algebra-only evaluations run on 4-coefficient jets
while curvature-level evaluations use the full 20.

Each jet tracks a ``valid`` order: differentiating a degree-3 jet yields
coefficients that are only trustworthy to degree 2, and so on.  Arithmetic
propagates the minimum valid order of its operands; extraction methods
assert that the requested derivative is still valid, so truncation garbage
can never be read silently.
"""

from __future__ import annotations

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
_NT_OF_ORDER = {1: 4, 2: 10, 3: 20}
_ORDER_OF_NT = {v: k for k, v in _NT_OF_ORDER.items()}

# Multiplication per truncation length: c = S @ (a[I] * b[J]), where the
# monomial pairs (I, J) are sorted by their product slot K and S is the 0/1
# (nterms, npairs) matrix summing each pair into slot K.
_PAIRS = {}
for _nt in (4, 10, 20):
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

# Partial derivative along each variable as a (nterms, nterms) matrix per
# truncation length: one exponent factor per row, zero rows where the
# lowered monomial falls outside the truncation.
_DERIV = {}
for _nt in (4, 10, 20):
    _DERIV[_nt] = []
    for v in range(NVARS):
        D = np.zeros((_nt, _nt))
        for n, m in enumerate(MONOMIALS[:_nt]):
            if m[v] > 0:
                lower = list(m)
                lower[v] -= 1
                D[_INDEX[tuple(lower)], n] = m[v]
        _DERIV[_nt].append(D)

# Slots and factors of the second derivatives d^2/du_i du_j.
_HESS_SLOT = np.array([[_INDEX[tuple(int(k == i) + int(k == j)
                                     for k in range(NVARS))]
                        for j in range(NVARS)] for i in range(NVARS)])
_HESS_FAC = np.where(np.eye(NVARS) > 0, 2.0, 1.0)

_FACT = np.array([1.0, 1.0, 2.0, 6.0])


class Jet:
    """Truncated Taylor expansion in three chart variables, at one point
    (coefficients ``(nterms,)``) or at a batch of points
    (``(nterms, N)``)."""

    __slots__ = ("c", "valid")
    __array_ufunc__ = None  # force numpy to defer to our operators

    def __init__(self, coeffs, valid=None):
        self.c = np.asarray(coeffs, dtype=float)
        self.valid = _ORDER_OF_NT[len(self.c)] if valid is None else valid

    # construction -----------------------------------------------------
    @staticmethod
    def constant(x, nterms=NTERMS):
        """Constant jet; ``x`` is a number or an (N,) array of values."""
        x = np.asarray(x, dtype=float)
        c = np.zeros((nterms,) + x.shape)
        c[0] = x
        return Jet(c)

    @staticmethod
    def variable(i, x0, order=ORDER):
        jet = Jet.constant(x0, _NT_OF_ORDER[order])
        jet.c[_INDEX[tuple(1 if k == i else 0 for k in range(NVARS))]] = 1.0
        return jet

    # basic queries -----------------------------------------------------
    @property
    def val(self):
        return self.c[0]

    def grad(self):
        """First derivatives, shape (3,) or (N, 3)."""
        assert self.valid >= 1
        # the degree-1 block is ordered (x, y, z)
        return np.moveaxis(self.c[1:4], 0, -1).copy()

    def hess(self):
        """Symmetric matrix of second derivatives, (3, 3) or (N, 3, 3)."""
        assert self.valid >= 2
        H = np.moveaxis(self.c[_HESS_SLOT], (0, 1), (-2, -1))
        return H * _HESS_FAC

    def deriv(self, v):
        """Jet of the partial derivative along chart variable ``v``."""
        assert self.valid >= 1
        return Jet(_DERIV[len(self.c)][v] @ self.c, self.valid - 1)

    # arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c, min(self.valid, other.valid))
        c = self.c.copy()
        c[0] += float(other)
        return Jet(c, self.valid)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c, self.valid)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            I, J, S = _PAIRS[len(self.c)]
            return Jet(S @ (self.c[I] * other.c[J]),
                       min(self.valid, other.valid))
        return Jet(self.c * float(other), self.valid)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet(self.c / float(other), self.valid)

    def __rtruediv__(self, other):
        return self._reciprocal() * float(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("jets support nonnegative integer powers only")
        out = Jet.constant(np.ones(self.c.shape[1:]), len(self.c))
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        val = (f"{self.val:.6g}" if self.c.ndim == 1
               else f"<{self.c.shape[1]} points>")
        return f"Jet(val={val}, order={len(self.c)}, valid={self.valid})"

    # analytic functions --------------------------------------------------
    def _compose(self, ladder):
        """Evaluate f(self) given [f, f', f'', f'''] at self.val; each entry
        is a number or, for a batch, an (N,) array."""
        s = Jet(self.c.copy(), self.valid)
        s.c[0] = 0.0
        c = np.zeros_like(self.c)
        c[0] = ladder[0]
        p = s
        for k in range(1, _ORDER_OF_NT[len(self.c)] + 1):
            if k > 1:
                p = p * s
            c = c + (ladder[k] / _FACT[k]) * p.c
        return Jet(c, self.valid)

    def _reciprocal(self):
        x = self.val
        if np.any(x == 0.0):
            raise ZeroDivisionError("jet with zero value part")
        return self._compose([1.0 / x, -1.0 / x**2, 2.0 / x**3, -6.0 / x**4])

    def sqrt(self):
        x = self.val
        if np.any(x <= 0.0):
            raise ValueError("sqrt of non-positive jet value")
        r = np.sqrt(x)
        return self._compose([r, 0.5 / r, -0.25 / r**3, 0.375 / r**5])

    def exp(self):
        e = np.exp(self.val)
        return self._compose([e, e, e, e])

    def sin(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._compose([s, c, -s, -c])

    def cos(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._compose([c, -s, -c, s])


# module-level helpers so geometry code reads naturally on floats and jets
def variables(u, order=ORDER):
    """Seed jets for a chart point u = (u1, u2, u3), or for a batch of
    points given as an (N, 3) array."""
    u = np.asarray(u, dtype=float)
    return tuple(Jet.variable(i, u[..., i], order) for i in range(NVARS))


def value(x):
    """Value part of a jet, a float, or an array of point values."""
    if isinstance(x, Jet):
        return x.val
    return np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)


def worst_of(residuals) -> float:
    """Largest residual, 0.0 when there is none, NaN when any is NaN
    (``max(0.0, nan)`` is 0.0, so a plain running max would lose it)."""
    arr = np.asarray(list(residuals), dtype=float)
    return float(np.max(arr)) if arr.size else 0.0


def _leaves(arr):
    arr = np.asarray(arr, dtype=object)
    return arr.shape, arr.reshape(-1)


def values(arr):
    """Value parts of a nested list of jets/floats, point axis first:
    shape ``np.shape(arr)`` at one point, ``(N,) + np.shape(arr)`` for a
    batch."""
    shape, flat = _leaves(arr)
    vals = np.stack(np.broadcast_arrays(*[value(x) for x in flat]), axis=-1)
    return vals.reshape(vals.shape[:-1] + shape)


def gradients(arr):
    """First derivatives of a nested list of jets: ``np.shape(arr) + (3,)``
    at one point, ``(N,) + np.shape(arr) + (3,)`` for a batch."""
    shape, flat = _leaves(arr)
    grads = np.stack([x.grad() for x in flat], axis=-2)
    return grads.reshape(grads.shape[:-2] + shape + (NVARS,))


def jsin(x):
    return x.sin() if isinstance(x, Jet) else float(np.sin(x))


def jcos(x):
    return x.cos() if isinstance(x, Jet) else float(np.cos(x))
