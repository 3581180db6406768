"""Finite-dimensional Clifford algebra models for dimensions 2, 3 and 4.

Sign rule: X.Y + Y.X = -2<X,Y>, so unit vectors square to -Id and act
skew-Hermitian for the standard inner product on coordinate spinors.

Fixed generator matrices (sigma_j = Pauli matrices):

    dim 2:  e1 = i sigma_1,  e2 = i sigma_2,
            volume  w = i e1 e2 = sigma_3  (chirality operator)
    dim 3:  e_j = -i sigma_j,
            volume  w = -e1 e2 e3 = Id, equivalently e1 e2 e3 = -Id,
            so e_i e_j = e_k for cyclic (i j k)
    dim 4:  built on C^2 (x) C^2 from the dim-2 model (g1, g2, w2):
            E1 = g1 (x) I,   E2 = g2 (x) I,
            E3 = w2 (x) g1,  E4 = w2 (x) g2,
            volume  w = -E1 E2 E3 E4 = w2 (x) w2 = diag(1,-1,-1,1)

The dim-4 construction realises the Clifford multiplication of a Riemannian
product of two surfaces on the tensor product of the factor spinor spaces:
a vector of the second factor acts only after conjugating the first slot,
which is exactly multiplication by w2 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import worst_of

_EXACT_TOL = 1e-14

_SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


@dataclass(frozen=True)
class CliffordModel:
    """Generators, complex volume element and (even case) chirality projectors."""

    dim: int
    generators: tuple
    volume: np.ndarray
    chirality: tuple | None  # (P_plus, P_minus) for even dim

    @property
    def spinor_dim(self):
        return 2 ** (self.dim // 2)

    def vector(self, x):
        """Clifford matrix of a vector given by orthonormal-frame components,
        one per leading index of ``x``."""
        x = np.asarray(x)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"expected {self.dim} frame components, got {x.shape}")
        # one matrix product against the generators: no two of them have a
        # real (or an imaginary) entry in the same place, so every entry is
        # a single product, as in the sum of x_a e_a
        n = self.spinor_dim
        return (x.reshape(-1, self.dim) @ self._rows).reshape(
            x.shape[:-1] + (n, n))

    @cached_property
    def _rows(self):
        """The generators as the rows of a (dim, n * n) matrix."""
        return np.stack(self.generators).reshape(self.dim, -1)


def _validate(model: CliffordModel):
    n = model.spinor_dim
    eye = np.eye(n)
    for a, ga in enumerate(model.generators):
        for b, gb in enumerate(model.generators):
            anti = ga @ gb + gb @ ga
            want = -2.0 * eye if a == b else 0.0 * eye
            if np.max(np.abs(anti - want)) > _EXACT_TOL:
                raise AssertionError(f"anticommutation violated for ({a},{b})")
    if model.dim % 2 == 1:
        if np.max(np.abs(model.volume - eye)) > _EXACT_TOL:
            raise AssertionError("odd-dimensional volume element must be Id")
    else:
        if np.max(np.abs(model.volume @ model.volume - eye)) > _EXACT_TOL:
            raise AssertionError("even-dimensional volume must square to Id")
        pp, pm = model.chirality
        for p in (pp, pm):
            if np.max(np.abs(p @ p - p)) > _EXACT_TOL:
                raise AssertionError("chirality projector not idempotent")
        if np.max(np.abs(pp + pm - eye)) > _EXACT_TOL:
            raise AssertionError("chirality projectors must sum to Id")


def build_clifford(m: int) -> CliffordModel:
    """Clifford model in dimension m in {2, 3, 4} with the fixed matrices above."""
    if m == 2:
        gens = (1j * _SIGMA[0], 1j * _SIGMA[1])
        vol = 1j * gens[0] @ gens[1]
    elif m == 3:
        gens = tuple(-1j * s for s in _SIGMA)
        vol = -gens[0] @ gens[1] @ gens[2]
    elif m == 4:
        g1, g2 = 1j * _SIGMA[0], 1j * _SIGMA[1]
        w2 = 1j * g1 @ g2
        eye2 = np.eye(2)
        gens = (
            np.kron(g1, eye2),
            np.kron(g2, eye2),
            np.kron(w2, g1),
            np.kron(w2, g2),
        )
        vol = -gens[0] @ gens[1] @ gens[2] @ gens[3]
    else:
        raise ValueError(f"unsupported dimension {m}; need m in {{2, 3, 4}}")

    chirality = None
    if m % 2 == 0:
        eye = np.eye(2 ** (m // 2))
        chirality = ((eye + vol) / 2.0, (eye - vol) / 2.0)
    model = CliffordModel(m, gens, vol, chirality)
    _validate(model)
    return model


def kahler_action(model: CliffordModel, J) -> np.ndarray:
    """Clifford action of the 2-form <J., .> for an orthogonal complex structure J.

    The spectrum consists of the values i(m/2 - 2r), r = 0..m/2, with binomial
    multiplicities.
    """
    if model.dim % 2 != 0:
        raise ValueError("Kaehler action requires even dimension")
    J = np.asarray(J, dtype=float)
    eye = np.eye(model.dim)
    if J.shape != (model.dim, model.dim) or \
            np.max(np.abs(J @ J + eye)) > 1e-12 or \
            np.max(np.abs(J.T @ J - eye)) > 1e-12:
        raise ValueError("J must be an orthogonal complex structure")
    n = model.spinor_dim
    out = np.zeros((n, n), dtype=complex)
    for a in range(model.dim):
        out += 0.5 * model.generators[a] @ model.vector(J[:, a])
    return out


def shape_commutator_residual(E, model: CliffordModel | None = None) -> float:
    """Residual of the commutator identity for a symmetric endomorphism E.

    For gamma built from a dim-3 model with e1 e2 e3 = -Id and a = E in an
    orthonormal frame:

        gamma(E e_i) gamma(E e_j) - gamma(E e_j) gamma(E e_i)
          = 2 (a_j3 a_i2 - a_j2 a_i3) e1
          + 2 (a_i3 a_j1 - a_i1 a_j3) e2
          + 2 (a_i1 a_j2 - a_i2 a_j1) e3

    Returns the maximum matrix norm of LHS - RHS over all index pairs.
    """
    E = np.asarray(E, dtype=float)
    if E.shape != (3, 3) or np.max(np.abs(E - E.T)) > 1e-12:
        raise ValueError("E must be a symmetric 3x3 matrix")
    if model is None:
        model = build_clifford(3)
    a = E

    def defect(i, j):
        gi = model.vector(a[i])
        gj = model.vector(a[j])
        lhs = gi @ gj - gj @ gi
        coeff = 2.0 * np.array([
            a[j, 2] * a[i, 1] - a[j, 1] * a[i, 2],
            a[i, 2] * a[j, 0] - a[i, 0] * a[j, 2],
            a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0],
        ])
        return np.max(np.abs(lhs - model.vector(coeff)))
    return worst_of(defect(i, j) for i in range(3) for j in range(3))
