"""The named parametric models and the model-family interface.

Every family exposes its entries as closed-form functions of t, evaluated
through one of four fields: ``FloatField`` in double precision (for LAPACK
work), ``ArrayField`` over a whole float64 vector of t at once (for grid
scans, ``ModelFamily.matrices`` and ``ModelFamily.check_entries``),
``IntervalField`` over a whole range of t at once, bounding every double
evaluation in it (``ModelFamily.certify_entries``, which proves a range's
entries defined and finite without a grid), or exactly, as polynomials in t
(``exact.ExactField``, for the reality map and the exact-entry oracle, where
entry rounding would otherwise dominate near high-order degeneracies).
Constants inside the entry expressions are integers and exact rationals, so
that the exact evaluation folds them without rounding.

numpy is imported inside the functions that use it, so naming a model and
checking its validity range does not load it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .errors import ModelDomainError
from .lattice import Topology, build_matrix, coupling_count, is_ring_size, layout

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


class Interval:
    """Bounds lo <= hi on every double that an entry takes over a range of t.

    Each operation applies the double operation to the bounds, so the bounds
    are doubles rounded as the scalar path rounds.  IEEE round-to-nearest of
    +, -, *, / and sqrt is monotone, and the exact operation takes its
    extremes over a box at its corners (with no divisor spanning 0), so the
    corner results enclose every double evaluation whose operands lie inside
    the operands' bounds (Moore, Interval Analysis, 1966).  A bound that is
    not finite and a divisor whose bounds hold 0 raise ArithmeticError, and
    a radicand whose lower bound is negative raises math.sqrt's ValueError.
    Asking for a truth value or an order raises ArithmeticError too, since a
    closure that branches on t has no single enclosure.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # numpy defers to the reflected operators below

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ArithmeticError("an interval bound is not finite")
        self.lo, self.hi = lo, hi

    @staticmethod
    def _of(values) -> Interval:
        return Interval(min(values), max(values))

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        if isinstance(other, (int, float)):
            return Interval(self.lo + other, self.hi + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        if isinstance(other, (int, float)):
            return Interval(self.lo - other, self.hi - other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Interval(other - self.hi, other - self.lo)
        return NotImplemented

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        if isinstance(other, Interval):
            return Interval._of(
                (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
            )
        if isinstance(other, (int, float)):
            return Interval._of((self.lo * other, self.hi * other))
        return NotImplemented

    __rmul__ = __mul__

    def _nonzero(self) -> Interval:
        if self.lo <= 0 <= self.hi:
            raise ArithmeticError("a divisor's bounds hold 0")
        return self

    def __truediv__(self, other):
        if isinstance(other, Interval):
            d = other._nonzero()
            return Interval._of((self.lo / d.lo, self.lo / d.hi, self.hi / d.lo, self.hi / d.hi))
        if isinstance(other, (int, float)):
            if other == 0:
                raise ArithmeticError("a divisor is 0")
            return Interval._of((self.lo / other, self.hi / other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            d = self._nonzero()
            return Interval._of((other / d.lo, other / d.hi))
        return NotImplemented

    def _undecided(self, *other):
        raise ArithmeticError("an interval has no truth value or order")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _undecided


class IntervalField:
    """Interval arithmetic over a range of t (``Interval``), for ``certify_entries``."""

    @staticmethod
    def sqrt(x):
        if not isinstance(x, Interval):
            return math.sqrt(x)
        return Interval(math.sqrt(x.lo), math.sqrt(x.hi))  # a negative lo raises

    num = staticmethod(ArrayField.num)  # a literal that is not a finite double raises

    @staticmethod
    def lift(t):
        lo, hi = t
        return Interval(float(lo), float(hi))


class ModelFamily:
    """A t-parametrized Hamiltonian family with entry closed forms.

    ``diag_fn``/``upper_fn`` take (t, field) and return entry lists; t is
    already lifted into the field's arithmetic.  With ArrayField, t is a
    float64 vector and each entry is a vector or a constant scalar, so the
    closures must compute elementwise.  ``t_min``/``t_max`` bound
    the closed validity interval (infinite where unconstrained).

    A family is immutable and compares and hashes by all eight fields, so
    the caches of ``exact`` can key on it.  It is a plain class, not a
    dataclass: ``dataclasses`` would load ``inspect`` on every start-up.
    """

    def __init__(
        self,
        name: str,
        n: int,
        topology: Topology,
        diag_fn: Callable,
        upper_fn: Callable,
        t_min: float = -math.inf,
        t_max: float = math.inf,
        radical: str | None = None,
    ):
        # Through __dict__, since assignment raises.
        self.__dict__.update(
            name=name, n=n, topology=topology, diag_fn=diag_fn, upper_fn=upper_fn,
            t_min=t_min, t_max=t_max, radical=radical,
        )

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r} of an immutable ModelFamily")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r} of an immutable ModelFamily")

    def _key(self) -> tuple:
        return (
            self.name, self.n, self.topology, self.diag_fn, self.upper_fn,
            self.t_min, self.t_max, self.radical,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(name={self.name!r}, n={self.n!r}, "
            f"topology={self.topology!r}, t_min={self.t_min!r}, t_max={self.t_max!r}, "
            f"radical={self.radical!r})"
        )

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

    def _vector_entries(self, ts):
        """(diag, upper) of matrix(t) at every t of a float vector in one pass, or None.

        The entry closures run once over the whole vector in ArrayField
        arithmetic.  From finite t and finite literals an inf or nan can
        only come out of an operation numpy flags, and every such flag
        raises here, because a later operation may hide it: 1/(1/0) comes
        back as a finite 0 where the scalar path raises.  The entries are
        checked through their sum, which is finite, and a scalar or a vector
        of len(ts), only where every entry is too; a sum of finite entries
        that overflows raises as well, and leaves the decision to matrix(t).
        None, so that matrix(t) decides at each t, on any t outside the
        validity range, any exception, an entry count that build_matrix
        rejects, or a sum that fails.
        """
        import numpy as np

        if not np.all((self.t_min <= ts) & (ts <= self.t_max) & np.isfinite(ts)):
            return None
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                diag = self.diag_fn(ts, ArrayField)
                upper = self.upper_fn(ts, ArrayField)
                total = sum(diag + upper)
            counted = len(diag) == self.n and len(upper) == coupling_count(self.n, self.topology)
            if counted and np.shape(total) in ((), ts.shape) and np.isfinite(total).all():
                return diag, upper
        except Exception:
            # The closures may be any caller's; matrix(t) raises whatever
            # is a genuine error of the model.
            pass
        return None

    def certify_entries(self, lo: float, hi: float) -> bool:
        """Whether matrix(t) is proven defined and finite at every double t in [lo, hi].

        The entry closures run once in IntervalField arithmetic over the
        whole range, and their bounds enclose every double evaluation of
        matrix(t) there.  True where the range lies in the validity
        interval, every radicand's lower bound is >= 0, no divisor's bounds
        hold 0, the entry counts fit n and every entry bound and the bounds
        of the entries' sum are finite.  False on any exception, or where
        the bounds prove nothing: it decides nothing about the range then,
        and check_entries on a grid of it does.
        """
        if not (self.t_min <= lo and hi <= self.t_max):
            return False
        if self.n < 1 or (self.topology is Topology.RING and not is_ring_size(self.n)):
            return False  # build_matrix refuses the shape
        try:
            t = IntervalField.lift((lo, hi))
            diag = self.diag_fn(t, IntervalField)
            upper = self.upper_fn(t, IntervalField)
            counted = len(diag) == self.n and len(upper) == coupling_count(self.n, self.topology)
            entries = diag + upper
            finite = all(
                isinstance(x, Interval) or (isinstance(x, (int, float)) and math.isfinite(x))
                for x in entries
            )
            total = sum(entries)
            return counted and finite and (
                isinstance(total, Interval) or math.isfinite(total)
            )
        except Exception:
            # The closures may be any caller's; the grid decides.
            return False

    def check_entries(self, ts) -> None:
        """Raise matrix(t)'s error at the first t of a vector that has one.

        The entries are checked as matrices checks them, and no stack is
        built: where the one pass fails, matrix(t) is built at each t in
        order, so the error with its t is matrix's own.  An exact-path
        ``domain_report`` checks its grid here only where certify_entries
        proves nothing about its range.
        """
        ts = ArrayField.lift(ts).ravel()
        if self._vector_entries(ts) is None:
            for t in ts:
                self.matrix(t)

    def matrices(self, ts) -> np.ndarray:
        """The (len(ts), n, n) stack of matrix(t) for a vector of t, bit for bit.

        The stack is laid out from the entries of one vector pass
        (``_vector_entries``).  Where that pass fails, the stack is built
        from matrix(t) at each t in order instead, so the result, or the
        error with its t, is matrix's own.
        """
        import numpy as np

        ts = ArrayField.lift(ts).ravel()
        entries = self._vector_entries(ts)
        if entries is None:
            return np.stack([self.matrix(t) for t in ts])
        stack = np.zeros((ts.size, self.n, self.n))
        layout(self.n, *entries, self.topology, rows=stack.transpose(1, 2, 0))
        return stack

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
