"""Expression trees for constraint and objective functions.

Nodes are frozen dataclasses, so parsed expressions are immutable and
hashable; evaluation is a pure function of (tree, point).
"""

from dataclasses import dataclass
from typing import Union

UNARY_FUNCTIONS = ("sin", "cos", "exp", "sqrt")


@dataclass(frozen=True)
class Var:
    """Coordinate x_i with 1-based index."""

    index: int


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Unary:
    """op is one of 'neg', 'sin', 'cos', 'exp', 'sqrt'."""

    op: str
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    """op is one of '+', '-', '*', '/'."""

    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Power:
    """Integer power; the exponent is fixed at parse time."""

    base: "Expression"
    exponent: int


Expression = Union[Var, Const, Unary, Binary, Power]

# Precedence levels used by both the parser and the printer:
# +,- < *,/ < unary minus < ^ < atoms.
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _level(e):
    if isinstance(e, Binary):
        return _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
    if isinstance(e, Unary):
        return _LEVEL_NEG if e.op == "neg" else _LEVEL_ATOM
    if isinstance(e, Power):
        return _LEVEL_POW
    if isinstance(e, Const) and e.value < 0:
        return _LEVEL_NEG
    return _LEVEL_ATOM


def to_string(e):
    """Render with the fewest parentheses that reparse to the same tree."""
    text = _render(e)
    return text


def _wrap(e, required):
    text = _render(e)
    if _level(e) < required:
        return f"({text})"
    return text


def _render(e):
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Const):
        if e.value < 0:
            # The parser only produces non-negative literals; negative
            # constants built programmatically print through unary minus.
            return f"-{e.value!r}".replace("--", "-")
        return repr(e.value)
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"-{_wrap(e.arg, _LEVEL_NEG)}"
        return f"{e.op}({_render(e.arg)})"
    if isinstance(e, Power):
        return f"{_wrap(e.base, _LEVEL_POW)}^{e.exponent}"
    if isinstance(e, Binary):
        if e.op in "+-":
            left = _wrap(e.left, _LEVEL_ADD)
            right = _wrap(e.right, _LEVEL_ADD + 1)
        else:
            left = _wrap(e.left, _LEVEL_MUL)
            right = _wrap(e.right, _LEVEL_MUL + 1)
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")


def max_variable_index(e):
    """Largest coordinate index referenced by the tree (0 for constants)."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Const):
        return 0
    if isinstance(e, Unary):
        return max_variable_index(e.arg)
    if isinstance(e, Power):
        return max_variable_index(e.base)
    if isinstance(e, Binary):
        return max(max_variable_index(e.left), max_variable_index(e.right))
    raise TypeError(f"not an expression node: {e!r}")
