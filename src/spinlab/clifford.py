"""Finite-dimensional Clifford algebra models for dimensions 2 and 4.

Sign rule: X.Y + Y.X = -2<X,Y>, so unit vectors square to -Id and act
skew-Hermitian for the standard inner product on coordinate spinors.

Fixed generator matrices (sigma_j = Pauli matrices):

    dim 2:  e1 = i sigma_1,  e2 = i sigma_2,
            volume  w = i e1 e2 = sigma_3  (chirality operator)
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

_EXACT_TOL = 1e-14

_SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
]


@dataclass(frozen=True)
class CliffordModel:
    """Generators, complex volume element and chirality projectors."""

    dim: int
    generators: tuple
    volume: np.ndarray
    chirality: tuple  # (P_plus, P_minus)

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
    if np.max(np.abs(model.volume @ model.volume - eye)) > _EXACT_TOL:
        raise AssertionError("volume element must square to Id")
    pp, pm = model.chirality
    for p in (pp, pm):
        if np.max(np.abs(p @ p - p)) > _EXACT_TOL:
            raise AssertionError("chirality projector not idempotent")
    if np.max(np.abs(pp + pm - eye)) > _EXACT_TOL:
        raise AssertionError("chirality projectors must sum to Id")


def build_clifford(m: int) -> CliffordModel:
    """Clifford model in dimension m in {2, 4} with the fixed matrices above."""
    if m == 2:
        gens = (1j * _SIGMA[0], 1j * _SIGMA[1])
        vol = 1j * gens[0] @ gens[1]
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
        raise ValueError(f"unsupported dimension {m}; need m in {{2, 4}}")

    eye = np.eye(2 ** (m // 2))
    chirality = ((eye + vol) / 2.0, (eye - vol) / 2.0)
    model = CliffordModel(m, gens, vol, chirality)
    _validate(model)
    return model

