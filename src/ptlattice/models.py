"""The named parametric models and the model-family interface.

Every family exposes its entries as closed-form functions of t that can be
evaluated either in double precision (for LAPACK work) or in mpmath
arbitrary precision (for the characteristic-polynomial oracle, where entry
rounding would otherwise dominate near high-order degeneracies).  Constants
inside the entry expressions are integers and exact rationals so that the
mp evaluation carries no double-rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ModelDomainError
from .lattice import LatticeSpec, Topology, build_matrix, layout


class FloatField:
    """Double-precision arithmetic namespace for entry evaluation."""

    @staticmethod
    def sqrt(x):
        return math.sqrt(x)

    @staticmethod
    def num(text: str):
        return float(text)

    @staticmethod
    def lift(t):
        return float(t)


class MpField:
    """mpmath arithmetic namespace; precision is the caller's working dps.

    mpmath is imported on first use, so that only the oracle paths pay for it.
    """

    @staticmethod
    def sqrt(x):
        import mpmath

        # As math.sqrt: mpmath would return an mpc for a negative radicand.
        if x < 0:
            raise ValueError("math domain error")
        return mpmath.sqrt(x)

    @staticmethod
    def num(text: str):
        import mpmath

        return mpmath.mpf(text)

    @staticmethod
    def lift(t):
        import mpmath

        # Exact binary lift: the mp matrix is the model at exactly this t.
        return mpmath.mpf(t)


@dataclass(frozen=True)
class ModelFamily:
    """A t-parametrized Hamiltonian family with entry closed forms.

    ``diag_fn``/``upper_fn`` take (t, field) and return entry lists; t is
    already lifted into the field's arithmetic.  ``t_min``/``t_max`` bound
    the closed validity interval (infinite where unconstrained).
    """

    name: str
    n: int
    topology: Topology
    diag_fn: Callable = field(repr=False)
    upper_fn: Callable = field(repr=False)
    t_min: float = -math.inf
    t_max: float = math.inf
    radical: str | None = None

    def contains(self, t: float) -> bool:
        return self.t_min <= t <= self.t_max

    def check_validity(self, t: float) -> None:
        if not self.contains(t):
            detail = f"; radical {self.radical} would be imaginary" if self.radical else ""
            raise ModelDomainError(
                f"model {self.name}: t={t} outside validity range "
                f"[{self.t_min}, {self.t_max}]{detail}",
                t=t,
                radical=self.radical,
            )

    def _entries(self, t: float, field) -> tuple[list, list]:
        """Diagonal and couplings at t in the field's arithmetic."""
        self.check_validity(t)
        tf = field.lift(t)
        try:
            return self.diag_fn(tf, field), self.upper_fn(tf, field)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelDomainError(
                f"model {self.name}: an entry is undefined at t={t} ({exc})",
                t=t,
                radical=self.radical,
            ) from None

    def matrix(self, t: float) -> np.ndarray:
        diag, upper = self._entries(t, FloatField)
        if not all(map(math.isfinite, diag + upper)):
            raise ModelDomainError(
                f"model {self.name}: an entry is not finite in double precision "
                f"at t={t}",
                t=t,
                radical=self.radical,
            )
        return build_matrix(LatticeSpec(self.n, diag, upper, self.topology))

    def matrix_mp(self, t: float) -> list[list]:
        """Entries evaluated in mp precision, assembled as nested lists of mpf."""
        import mpmath

        diag, upper = self._entries(t, MpField)
        return layout(
            self.n,
            [mpmath.mpf(x) for x in diag],
            [mpmath.mpf(x) for x in upper],
            self.topology,
            mpmath.mpf(0),
        )


class Model(Enum):
    MDG6_OPEN = "mdg6-open"
    MDG6_W1 = "mdg6-w1"
    MDG6_W2 = "mdg6-w2"
    EC4 = "ec4"
    EC4_STRONG_BOND = "ec4-strongbond"
    EC4_RECOUPLED = "ec4-recoupled"


def _mdg6_diag(t, f):
    return [-5, -3, -1, 1, 3, 5]


def _mdg6_chain(t, f):
    # Entries chosen so the open-chain spectrum is exactly {±k·sqrt(t), k=1,3,5}.
    return [
        f.sqrt(5 * (1 - t)),
        f.sqrt(8 * (1 - t)),
        3 * f.sqrt(1 - t),
        f.sqrt(8 * (1 - t)),
        f.sqrt(5 * (1 - t)),
    ]


def _mdg6_w1_upper(t, f):
    return _mdg6_chain(t, f) + [f.sqrt(1 - t) / 100]


def _mdg6_w2_upper(t, f):
    c = _mdg6_chain(t, f)
    c[2] = 301 * f.sqrt(1 - t) / 100
    return c + [f.sqrt(1 - t) / 10]


def _ec4_diag(t, f):
    return [-3, -1, 1, 3]


def _ec4_upper(t, f):
    return [t, t, t, t]


def _ec4_strong_upper(t, f):
    return [t, t, t, 3 * t / 2]


def _ec4_recoupled_upper(t, f):
    return [t, 4 * t / 3, t, t / 4]


REGISTRY: dict[Model, ModelFamily] = {
    Model.MDG6_OPEN: ModelFamily(
        name="mdg6-open", n=6, topology=Topology.OPEN,
        diag_fn=_mdg6_diag, upper_fn=_mdg6_chain,
        t_max=1.0, radical="sqrt(1 - t)",
    ),
    Model.MDG6_W1: ModelFamily(
        name="mdg6-w1", n=6, topology=Topology.RING,
        diag_fn=_mdg6_diag, upper_fn=_mdg6_w1_upper,
        t_max=1.0, radical="sqrt(1 - t)",
    ),
    Model.MDG6_W2: ModelFamily(
        name="mdg6-w2", n=6, topology=Topology.RING,
        diag_fn=_mdg6_diag, upper_fn=_mdg6_w2_upper,
        t_max=1.0, radical="sqrt(1 - t)",
    ),
    Model.EC4: ModelFamily(
        name="ec4", n=4, topology=Topology.RING,
        diag_fn=_ec4_diag, upper_fn=_ec4_upper,
    ),
    Model.EC4_STRONG_BOND: ModelFamily(
        name="ec4-strongbond", n=4, topology=Topology.RING,
        diag_fn=_ec4_diag, upper_fn=_ec4_strong_upper,
    ),
    Model.EC4_RECOUPLED: ModelFamily(
        name="ec4-recoupled", n=4, topology=Topology.RING,
        diag_fn=_ec4_diag, upper_fn=_ec4_recoupled_upper,
    ),
}


def model_names() -> list[str]:
    return [m.value for m in Model]


def get_family(model: Model | str) -> ModelFamily:
    """Resolve a model enum member or its CLI name to its family."""
    if isinstance(model, str):
        for m in Model:
            if m.value == model:
                return REGISTRY[m]
        raise KeyError(
            f"unknown model {model!r}; known models: {', '.join(model_names())}"
        )
    return REGISTRY[model]


def iter_families():
    return iter(REGISTRY.values())
