"""The named parametric models and the model-family interface.

Every family exposes its entries as closed-form functions of t that can be
evaluated in double precision (for LAPACK work), over a whole float64
vector of t at once (for grid scans, ``ModelFamily.matrices``), or exactly,
as polynomials in t (``exact.ExactField``, for the reality map and the
exact-entry oracle, where entry rounding would otherwise dominate near
high-order degeneracies).  Constants inside the entry expressions are
integers and exact rationals, so that the exact evaluation folds them
without rounding.

numpy is imported inside the functions that use it, so naming a model and
checking its validity range does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .errors import ModelDomainError
from .lattice import Topology, build_matrix, layout

if TYPE_CHECKING:
    import numpy as np


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


class ArrayField:
    """Elementwise float64 arithmetic over a vector of t.

    IEEE operations and the square root round each element exactly as the
    scalar FloatField does, so every entry is bit for bit the same.
    """

    @staticmethod
    def sqrt(x):
        import numpy as np

        return np.sqrt(x)

    @staticmethod
    def num(text: str):
        value = float(text)
        if not math.isfinite(value):
            # inf / 0 raises in the scalar path but raises no numpy flag.
            raise OverflowError(f"literal {text} is not a finite double")
        return value

    @staticmethod
    def lift(t):
        import numpy as np

        return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class ModelFamily:
    """A t-parametrized Hamiltonian family with entry closed forms.

    ``diag_fn``/``upper_fn`` take (t, field) and return entry lists; t is
    already lifted into the field's arithmetic.  With ArrayField, t is a
    float64 vector and each entry is a vector or a constant scalar, so the
    closures must compute elementwise.  ``t_min``/``t_max`` bound
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
        return build_matrix(self.n, diag, upper, self.topology)

    def matrices(self, ts) -> np.ndarray:
        """The (len(ts), n, n) stack of matrix(t) for a vector of t, bit for bit.

        The entry closures run once over the whole vector in ArrayField
        arithmetic.  From finite t and finite literals an inf or nan can
        only come out of an operation numpy flags, and every such flag
        raises here, because a later operation may hide it: 1/(1/0) comes
        back as a finite 0 where the scalar path raises.  On any t outside
        the validity range, any exception or any non-finite entry, the stack
        is built from matrix(t) at each t in order instead, so the result,
        or the error with its t, is matrix's own.
        """
        import numpy as np

        ts = ArrayField.lift(ts).ravel()
        if np.all((self.t_min <= ts) & (ts <= self.t_max) & np.isfinite(ts)):
            stack = np.zeros((ts.size, self.n, self.n))
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    diag = self.diag_fn(ts, ArrayField)
                    upper = self.upper_fn(ts, ArrayField)
                layout(self.n, diag, upper, self.topology, rows=stack.transpose(1, 2, 0))
            except Exception:
                # The closures may be any caller's; the scalar replay below
                # raises whatever is a genuine error of the model.
                pass
            else:
                if np.isfinite(stack).all():
                    return stack
        return np.stack([self.matrix(t) for t in ts])

    def matrix_mp(self, t: float):
        # Kept only because perfbench/tracing.py wraps ModelFamily.matrix_mp by
        # name; delete it together with that wrapper.
        raise NotImplementedError(
            "matrix_mp is gone: charpoly.model_oracle_eigenvalues(family, t) takes "
            "the exact characteristic polynomial of the model's entries"
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
