"""Second-order jets and plain values of expression trees.

A jet carries (value, gradient, Hessian). `evaluate_jet` runs the `kkt`
code that `compile.py` generates for the expression alone (H_lam is then
the Hessian), forward over forward, so the derivatives are exact up to
rounding; no finite differences and no symbolic expansion are involved.
The Hessian is formed on and above the diagonal and mirrored, so it is
symmetric as stored.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EvaluationError
from .compile import _power, compile_expression
from .expr import Binary, Const, Power, Unary, Var, to_string


@dataclass(frozen=True)
class SecondOrderJet:
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def evaluate(e, x):
    """Plain value of `e` at `x` (no derivatives; sqrt(0) allowed)."""
    if isinstance(e, Var):
        return float(x[e.index - 1])
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Unary):
        v = evaluate(e.arg, x)
        if e.op == "neg":
            return -v
        if e.op == "sin":
            return math.sin(v)
        if e.op == "cos":
            return math.cos(v)
        if e.op == "exp":
            return math.exp(v)
        if v < 0.0:
            raise EvaluationError("sqrt of negative value", to_string(e))
        return math.sqrt(v)
    if isinstance(e, Power):
        v = evaluate(e.base, x)
        if e.exponent < 0 and v == 0.0:
            raise EvaluationError("zero base with negative exponent", to_string(e))
        return _power(v, e.exponent)
    if e.op in "+-":
        a = evaluate(e.left, x)
        b = evaluate(e.right, x)
        return a + b if e.op == "+" else a - b
    a = evaluate(e.left, x)
    b = evaluate(e.right, x)
    if e.op == "*":
        return a * b
    if b == 0.0:
        raise EvaluationError("division by zero", to_string(e))
    return a / b


def evaluate_jet(e, x):
    """Value, gradient and Hessian of `e` at `x`.

    A division by zero, sqrt of an argument <= 0, a zero base with a
    negative exponent, an overflow or a point shorter than the
    expression needs raises EvaluationError.
    """
    x = np.asarray(x, dtype=float)
    try:
        compiled = compile_expression(e, x.shape[0])
    except ValueError as exc:
        raise EvaluationError(str(exc)) from exc
    value, grad, _, _, hess = compiled.kkt(x)
    return SecondOrderJet(float(value), grad, hess)
