"""Custom model families loaded from YAML documents.

A document names the family, fixes the size and topology, and gives one
closed-form expression per diagonal and coupling entry.  Expressions use a
small grammar: numeric literals, the parameter ``t``, the operators
``+ - * /``, ``sqrt(...)``, and parentheses.  When every sqrt radicand
folds exactly, as the exact engine folds the entries (``exact``), to a
polynomial of degree <= 1 in t, the validity interval is inferred from the
radicand signs, each end the correctly rounded root; otherwise the document
must state an explicit ``t_range``.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .errors import ExprError, ModelFileError
from .lattice import Topology, coupling_count, is_ring_size
from .models import ModelFamily
from .tolerances import MAX_DENSE_N

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/])"
)

# Token cap per expression.  Parsing, folding and evaluation recurse once or
# twice per nesting level; at this length every shape (127 nested
# parentheses, 255 unary signs, 85 nested sqrt, a 128-term sum) stays well
# inside Python's default recursion limit.
MAX_EXPR_TOKENS = 256


class _Token(NamedTuple):  # not a dataclass, which would load inspect
    kind: str
    text: str
    column: int  # 1-based position in the expression string


def _tokenize(text: str, field_name: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(
                f"{field_name}: unexpected character {text[pos]!r} at column {pos + 1}",
                field=field_name,
                column=pos + 1,
            )
        kind = m.lastgroup
        if kind != "ws":
            if len(tokens) == MAX_EXPR_TOKENS:
                raise ExprError(
                    f"{field_name}: expression longer than {MAX_EXPR_TOKENS} "
                    f"tokens at column {pos + 1}",
                    field=field_name,
                    column=pos + 1,
                )
            tokens.append(_Token(kind=kind, text=m.group(), column=pos + 1))
        pos = m.end()
    tokens.append(_Token(kind="end", text="", column=len(text) + 1))
    return tokens


class _Parser:
    """Recursive-descent parser producing a tuple AST.

    Nodes: ("num", text), ("t",), ("neg", x), ("sqrt", x), and
    ("add" | "sub" | "mul" | "div", left, right).
    """

    def __init__(self, text: str, field_name: str):
        self.field_name = field_name
        self.tokens = _tokenize(text, field_name)
        self.index = 0

    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _next(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _fail(self, message: str, token: _Token):
        raise ExprError(
            f"{self.field_name}: {message} at column {token.column}",
            field=self.field_name,
            column=token.column,
        )

    def parse(self) -> tuple:
        node = self._expr()
        token = self._peek()
        if token.kind != "end":
            self._fail(f"unexpected {token.text!r}", token)
        return node

    def _expr(self) -> tuple:
        node = self._term()
        while self._peek().text in ("+", "-"):
            op = self._next().text
            right = self._term()
            node = ("add" if op == "+" else "sub", node, right)
        return node

    def _term(self) -> tuple:
        node = self._factor()
        while self._peek().text in ("*", "/"):
            op = self._next().text
            right = self._factor()
            node = ("mul" if op == "*" else "div", node, right)
        return node

    def _factor(self) -> tuple:
        token = self._peek()
        if token.text == "-":
            self._next()
            return ("neg", self._factor())
        if token.text == "+":
            self._next()
            return self._factor()
        return self._atom()

    def _atom(self) -> tuple:
        token = self._next()
        if token.kind == "num":
            return ("num", token.text)
        if token.kind == "name":
            if token.text == "t":
                return ("t",)
            if token.text == "sqrt":
                open_paren = self._next()
                if open_paren.text != "(":
                    self._fail("sqrt needs a parenthesized argument", open_paren)
                inner = self._expr()
                close = self._next()
                if close.text != ")":
                    self._fail("missing ')'", close)
                return ("sqrt", inner)
            self._fail(f"unknown name {token.text!r}", token)
        if token.text == "(":
            inner = self._expr()
            close = self._next()
            if close.text != ")":
                self._fail("missing ')'", close)
            return inner
        self._fail(f"expected a value, got {token.text or 'end of input'!r}", token)


def parse_expression(text: str, field_name: str = "expression") -> tuple:
    """Parse one entry expression into its AST."""
    if not isinstance(text, str):
        raise ExprError(
            f"{field_name}: expected an expression string, got {type(text).__name__}",
            field=field_name,
        )
    return _Parser(text, field_name).parse()


def evaluate(node: tuple, t, field) -> object:
    """Evaluate an AST at parameter t using the given arithmetic field."""
    head = node[0]
    if head == "num":
        return field.num(node[1])
    if head == "t":
        return t
    if head == "neg":
        return -evaluate(node[1], t, field)
    if head == "sqrt":
        return field.sqrt(evaluate(node[1], t, field))
    left = evaluate(node[1], t, field)
    right = evaluate(node[2], t, field)
    if head == "add":
        return left + right
    if head == "sub":
        return left - right
    if head == "mul":
        return left * right
    if head == "div":
        return left / right
    raise ExprError(f"unknown AST node {head!r}")


def _radicands(node: tuple) -> list[tuple]:
    head = node[0]
    if head in ("num", "t"):
        return []
    if head == "sqrt":
        return [node[1]] + _radicands(node[1])
    return [r for child in node[1:] if isinstance(child, tuple) for r in _radicands(child)]


def infer_validity(asts: list[tuple], field_name: str = "model") -> tuple[float, float]:
    """Validity interval of t from affine sqrt radicands.

    Each radicand is folded exactly by the exact engine's ``ExactField``,
    as the engine folds a family's entries.  A radicand a + b*t >= 0 clips
    the interval at the correctly rounded root -a/b.  A radicand that does
    not fold to a polynomial of degree <= 1 makes inference impossible and
    raises; the caller then needs an explicit range.
    """
    radicands = [r for ast in asts for r in _radicands(ast)]
    if radicands:
        from .exact import polynomial  # deferred: only a radicand needs the fold
    lo, hi = -math.inf, math.inf
    for radicand in radicands:
        poly = polynomial(lambda t, field, node=radicand: evaluate(node, t, field))
        if poly is None or len(poly) > 2:
            raise ModelFileError(
                f"{field_name}: a sqrt radicand is not affine in t; "
                "state an explicit t_range",
                field=field_name,
            )
        a, b = (poly + [0, 0])[:2]
        if b == 0:
            if a < 0:
                raise ModelFileError(
                    f"{field_name}: a sqrt radicand is the negative "
                    f"constant {float(a)}; the model is valid nowhere",
                    field=field_name,
                )
            continue
        root = -a / b
        try:
            root = float(root) if root else (-0.0 if b > 0 else 0.0)  # 0 signed as -0.0 / b
        except OverflowError:  # beyond the doubles, on the side of its sign
            root = math.inf if root > 0 else -math.inf
        if b > 0:
            lo = max(lo, root)
        else:
            hi = min(hi, root)
    if lo > hi:
        raise ModelFileError(
            f"{field_name}: sqrt radicand constraints leave no valid t",
            field=field_name,
        )
    return lo, hi


def _has_sqrt(asts: list[tuple]) -> bool:
    return any(_radicands(ast) for ast in asts)


def _yaml_location(exc) -> dict:
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return {}
    return {"line": mark.line + 1, "column": mark.column + 1}


# Names of the YAML node types that safe_load turns into these Python types.
_YAML_KINDS = {
    str: "string", bool: "boolean", type(None): "null", list: "sequence", dict: "mapping"
}


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise ModelFileError(f"{path}: missing required field {key!r}", field=key)
    value = doc[key]
    if not isinstance(value, kind):
        raise ModelFileError(
            f"{path}: field {key!r} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}",
            field=key,
        )
    return value


def _expr_list(doc: dict, key: str, expected: int, path: str) -> list[tuple]:
    raw = _require(doc, key, list, path)
    if len(raw) != expected:
        raise ModelFileError(
            f"{path}: field {key!r} needs {expected} entries, got {len(raw)}",
            field=key,
        )
    asts = []
    for i, item in enumerate(raw):
        name = f"{key}[{i}]"
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            item = repr(item)
        asts.append(parse_expression(item, name))
    return asts


def load_custom_model(path: str) -> ModelFamily:
    """Build a ModelFamily from a YAML model document.

    Required fields: name (str), n (int), topology ("open" | "ring"),
    diag (n expressions), couplings (n-1 expressions for open chains,
    n for rings).  Optional: t_range ([lo, hi]), mandatory when validity
    cannot be inferred from the sqrt radicands.
    """
    import yaml  # deferred: only model documents need the parser

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ModelFileError(f"{path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        location = _yaml_location(exc)
        raise ModelFileError(f"{path}: invalid YAML: {exc}", **location) from exc
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: document must be a mapping")

    known = {"name", "n", "topology", "diag", "couplings", "t_range"}
    unknown = set(doc) - known
    if unknown:
        raise ModelFileError(
            f"{path}: unknown fields {sorted(unknown)}", field=sorted(unknown)[0]
        )

    name = _require(doc, "name", str, path)
    n = _require(doc, "n", int, path)
    if isinstance(doc["n"], bool) or not 2 <= n <= MAX_DENSE_N:
        raise ModelFileError(
            f"{path}: n must be an integer from 2 to {MAX_DENSE_N}, got {n}", field="n"
        )
    topology_text = _require(doc, "topology", str, path)
    try:
        topology = Topology(topology_text)
    except ValueError:
        choices = ", ".join(t.value for t in Topology)
        raise ModelFileError(
            f"{path}: topology must be one of: {choices}", field="topology"
        ) from None

    if topology is Topology.RING and not is_ring_size(n):
        raise ModelFileError(
            f"{path}: ring models need an even n >= 4, got {n}", field="n"
        )

    diag_asts = _expr_list(doc, "diag", n, path)
    upper_asts = _expr_list(doc, "couplings", coupling_count(n, topology), path)
    all_asts = diag_asts + upper_asts

    if "t_range" in doc:
        raw_range = doc["t_range"]
        is_pair = isinstance(raw_range, list) and len(raw_range) == 2
        for i, x in enumerate(raw_range if is_pair else ()):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                kind = _YAML_KINDS.get(type(x), type(x).__name__)
                raise ModelFileError(
                    f"{path}: t_range[{i}] is {x!r}, a YAML {kind}, not a number; "
                    "YAML 1.1 needs a dot in an exponent literal, as in 1.0e10",
                    field="t_range",
                )
        if not is_pair or not raw_range[0] < raw_range[1]:
            raise ModelFileError(
                f"{path}: t_range must be [lo, hi] with lo < hi", field="t_range"
            )
        t_min, t_max = float(raw_range[0]), float(raw_range[1])
    else:
        t_min, t_max = infer_validity(all_asts, path)

    radical = "a sqrt radicand in the model document" if _has_sqrt(all_asts) else None

    def diag_fn(t, field, _asts=tuple(diag_asts)):
        return [evaluate(ast, t, field) for ast in _asts]

    def upper_fn(t, field, _asts=tuple(upper_asts)):
        return [evaluate(ast, t, field) for ast in _asts]

    return ModelFamily(
        name=name,
        n=n,
        topology=topology,
        diag_fn=diag_fn,
        upper_fn=upper_fn,
        t_min=t_min,
        t_max=t_max,
        radical=radical,
    )
