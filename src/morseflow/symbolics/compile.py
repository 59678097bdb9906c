"""Compile expression trees to plain-float Python callables.

Trajectory integration evaluates constraint and objective gradients
millions of times; recursing over the tree with numpy temporaries is an
order of magnitude too slow for that. Instead each expression is
flattened once into generated source that propagates the value and the
(sparse) first-order derivatives as scalar locals.

The value-and-gradient source is compiled once and executed twice: once
with the `math` functions for one point given as floats, once with their
numpy ufuncs for many points given as coordinate columns. The arithmetic
is the same elementwise, so both give the same bits where `math` and
numpy agree.

Second derivatives stay in `jets.evaluate_jet`; only value and gradient
are compiled.
"""

import functools
import math

import numpy as np

from ..errors import EvaluationError
from .expr import Binary, Const, Power, Unary, Var, max_variable_index, to_string

_NAMESPACE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}
_ARRAY_NAMESPACE = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
# What `math` raises for one point and numpy, under np.errstate, for columns.
_FAILURES = (
    ValueError, ZeroDivisionError, OverflowError, FloatingPointError,
)


class _Emitter:
    def __init__(self, with_grad):
        self.lines = []
        self.counter = 0
        self.with_grad = with_grad

    def fresh(self, prefix):
        name = f"{prefix}{self.counter}"
        self.counter += 1
        return name

    def local(self, prefix, rhs):
        name = self.fresh(prefix)
        self.lines.append(f"    {name} = {rhs}")
        return name

    def walk(self, e):
        """Return (value_token, {var_index: derivative_token})."""
        if isinstance(e, Var):
            return f"x{e.index}", {e.index: "1.0"}
        if isinstance(e, Const):
            return repr(e.value), {}
        if isinstance(e, Unary):
            return self._unary(e)
        if isinstance(e, Power):
            return self._power(e)
        return self._binary(e)

    def _grad_scale(self, grads, factor):
        return {j: self.local("g", f"{factor} * {g}") for j, g in grads.items()}

    def _unary(self, e):
        va, ga = self.walk(e.arg)
        if e.op == "neg":
            v = self.local("v", f"-{va}")
            return v, {j: self.local("g", f"-{g}") for j, g in ga.items()}
        if e.op == "sin":
            v = self.local("v", f"sin({va})")
            if not (self.with_grad and ga):
                return v, {}
            w = self.local("w", f"cos({va})")
        elif e.op == "cos":
            v = self.local("v", f"cos({va})")
            if not (self.with_grad and ga):
                return v, {}
            w = self.local("w", f"-sin({va})")
        elif e.op == "exp":
            v = self.local("v", f"exp({va})")
            if not (self.with_grad and ga):
                return v, {}
            w = v
        else:  # sqrt
            v = self.local("v", f"sqrt({va})")
            if not (self.with_grad and ga):
                return v, {}
            w = self.local("w", f"0.5 / {v}")
        return v, self._grad_scale(ga, w)

    def _power(self, e):
        va, ga = self.walk(e.base)
        k = e.exponent
        if k == 0:
            return "1.0", {}
        if k == 1:
            return va, ga
        if k == 2:
            v = self.local("v", f"{va} * {va}")
            scale = f"2.0 * {va}"
        else:
            v = self.local("v", f"{va} ** {k}")
            scale = f"{float(k)!r} * {va} ** {k - 1}"
        if not (self.with_grad and ga):
            return v, {}
        w = self.local("w", scale)
        return v, self._grad_scale(ga, w)

    def _binary(self, e):
        va, ga = self.walk(e.left)
        vb, gb = self.walk(e.right)
        op = e.op
        if op == "+" or op == "-":
            v = self.local("v", f"{va} {op} {vb}")
            grads = {}
            for j in set(ga) | set(gb):
                if j in ga and j in gb:
                    grads[j] = self.local("g", f"{ga[j]} {op} {gb[j]}")
                elif j in ga:
                    grads[j] = ga[j]
                elif op == "+":
                    grads[j] = gb[j]
                else:
                    grads[j] = self.local("g", f"-{gb[j]}")
            return v, grads
        if op == "*":
            v = self.local("v", f"{va} * {vb}")
            grads = {}
            for j in set(ga) | set(gb):
                if j in ga and j in gb:
                    grads[j] = self.local(
                        "g", f"{va} * {gb[j]} + {vb} * {ga[j]}"
                    )
                elif j in ga:
                    grads[j] = self.local("g", f"{vb} * {ga[j]}")
                else:
                    grads[j] = self.local("g", f"{va} * {gb[j]}")
            return v, grads
        v = self.local("v", f"{va} / {vb}")
        if not (self.with_grad and (ga or gb)):
            return v, {}
        winv = self.local("w", f"1.0 / {vb}")
        grads = {}
        for j in set(ga) | set(gb):
            if j in ga and j in gb:
                grads[j] = self.local(
                    "g", f"({ga[j]} - {v} * {gb[j]}) * {winv}"
                )
            elif j in ga:
                grads[j] = self.local("g", f"{ga[j]} * {winv}")
            else:
                grads[j] = self.local("g", f"-{v} * {gb[j]} * {winv}")
        return v, grads


def _build(expr, n, with_grad, name):
    emitter = _Emitter(with_grad)
    val, grads = emitter.walk(expr)
    args = ", ".join(f"x{i}" for i in range(1, n + 1))
    if with_grad:
        out = ", ".join(grads.get(j, "0.0") for j in range(1, n + 1))
        ret = f"    return {val}, ({out}{',' if n == 1 else ''})"
    else:
        ret = f"    return {val}"
    src = "\n".join([f"def {name}({args}):", *emitter.lines, ret, ""])
    return compile(src, f"<compiled:{name}>", "exec")


def _define(code, name, namespace):
    """Run compiled source in a fresh scope of `namespace`; its function."""
    scope = dict(namespace)
    exec(code, scope)
    return scope[name]


class CompiledExpression:
    """Fast value / value-and-gradient evaluation of one expression."""

    __slots__ = (
        "expression", "ambient_dim", "_value", "_value_grad",
        "_value_grad_columns", "_text",
    )

    def __init__(self, expression, ambient_dim):
        needed = max_variable_index(expression)
        if needed > ambient_dim:
            raise ValueError(
                f"expression references x{needed}, ambient dimension is "
                f"{ambient_dim}"
            )
        self.expression = expression
        self.ambient_dim = ambient_dim
        self._text = to_string(expression)
        self._value = _define(
            _build(expression, ambient_dim, False, "_val"), "_val", _NAMESPACE
        )
        code = _build(expression, ambient_dim, True, "_vg")
        self._value_grad = _define(code, "_vg", _NAMESPACE)
        self._value_grad_columns = _define(code, "_vg", _ARRAY_NAMESPACE)

    def value(self, x):
        try:
            return self._value(*_as_floats(x))
        except _FAILURES as exc:
            raise EvaluationError(str(exc), self._text) from exc

    def value_and_grad(self, x):
        """Returns (value, gradient tuple of length ambient_dim).

        `x` is one point, or an (ambient_dim, N) array whose columns are
        N points. For columns the value and the gradient entries are
        length-N arrays, or floats where they do not depend on x; numpy
        division by zero, invalid operations and overflow raise
        EvaluationError, as `math` does for one point.
        """
        try:
            if isinstance(x, np.ndarray):
                if x.ndim == 2:
                    with np.errstate(divide="raise", invalid="raise",
                                     over="raise"):
                        return self._value_grad_columns(*x)
                x = x.tolist()
            return self._value_grad(*x)
        except _FAILURES as exc:
            raise EvaluationError(str(exc), self._text) from exc

    def gradient(self, x):
        return np.asarray(self.value_and_grad(x)[1])


def _as_floats(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


@functools.lru_cache(maxsize=512)
def compile_expression(expression, ambient_dim):
    """Cached compilation; expressions are immutable so reuse is safe."""
    return CompiledExpression(expression, ambient_dim)
