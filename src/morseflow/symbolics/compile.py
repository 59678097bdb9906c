"""Compile expression trees to plain-float Python callables.

Trajectory integration evaluates constraint and objective gradients
millions of times; recursing over the tree with numpy temporaries is an
order of magnitude too slow for that. Instead each expression is
flattened once into generated source that propagates the value and the
(sparse) derivatives as scalar locals.

All of it comes from one walk over the tree, the forward-mode rules of
each node run to an order: 0 for values, 1 for values and gradients, 2
for the second-order jet (value, gradient, Hessian), so a value or a
gradient has the same bits whichever method asks for it. Two kinds of
object are generated, all through `compile_expression` and its one
cache:

- a map, a tuple of expressions such as the constraints F = (F_1, ..., F_k)
  of a manifold: all values, or all values and the Jacobian rows, from
  one call; also `project`, the tangential part of a vector with its
  Gram weights (J J^T)^{-1} J vec, `project_rows`, the tangential parts
  of d rows (a transported frame) with one Gram solve for all of them,
  and `normal_step`, the values with the Gauss-Newton step
  J^T (J J^T)^{-1} F of a retraction;
- a field kernel, f together with k >= 0 constraints (one expression
  is k = 0, P the identity): the value of f and P grad f, P the
  orthogonal projection onto ker dF, from one pass over f and the
  constraints; also, compiled on first use, f and the blocks of the KKT
  system of the multiplier Newton (grad f, J, F and
  H_lam = Hess f - sum_i lam_i Hess F_i) from one order-2 pass, which
  for k = 0 is f's jet, and for x with j tangent vectors, f, P grad f
  and the derivative of P grad f along each vector from one order-2
  pass (`_field_code`).

`project`, `project_rows`, `normal_step` and the field kernel write the
solve with the Gram matrix J J^T out inline for every number k of
constraints, from one emitter helper: Gram sums from 0.0 in coordinate
order, Cramer's rule for k = 2, otherwise Gaussian elimination without
pivoting (a division for k = 1). So the field, the tangent projection
and the retraction give the bits of that arithmetic done term by term on
floats; numpy's solve agrees to rounding (within 1e-14 on the test
scenarios). There is no other J J^T solve: `project` also gives the
Lagrange multipliers and the tangent bases.

Each source but `value`'s, `project`'s, `project_rows`'s and the field
kernel's with vectors is compiled once and executed twice: with the
`math` functions for one point given as floats, and with their numpy
ufuncs for many points given as coordinate columns. The arithmetic is the same
elementwise, so both give the same bits where `math` and numpy agree.
"""

import functools
import math

import numpy as np

from ..errors import EvaluationError, RankDeficiencyError
from .expr import Binary, Const, Power, Unary, Var, max_variable_index, to_string

_NAMESPACE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}
_ARRAY_NAMESPACE = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
# Integer powers up to this magnitude are product chains (see `_pow`).
_CHAIN_MAX = 4
# What `math` raises for one point and numpy, under np.errstate, for columns.
_FAILURES = (
    ValueError, ZeroDivisionError, OverflowError, FloatingPointError,
)


class _Emitter:
    """Source lines of one generated function: the node rules run to
    `order` 0, 1 or 2, and the Gram solve of `project`/`normal_step`."""

    def __init__(self, order):
        self.lines = []
        self.names = {}  # right-hand side -> its local
        self.order = order

    def local(self, prefix, rhs):
        """A new local for `rhs`, or the one holding that text already:
        the code is single-assignment, so equal text is an equal value."""
        name = self.names.get(rhs)
        if name is None:
            name = self.names[rhs] = f"{prefix}{len(self.names)}"
            self.lines.append(f"    {name} = {rhs}")
        return name

    def combine(self, prefix, a, b, op):
        """Entries of a + b or a - b from sparse operands."""
        out = {}
        for key in sorted(a.keys() | b.keys()):
            if key in a and key in b:
                out[key] = self.local(prefix, f"{a[key]} {op} {b[key]}")
            elif key in a:
                out[key] = a[key]
            elif op == "+":
                out[key] = b[key]
            else:
                out[key] = self.local(prefix, f"-{b[key]}")
        return out

    # -- the node rules ----------------------------------------------------
    #
    # Forward mode over forward mode (Griewank and Walther, Evaluating
    # Derivatives, ch. 3) with the dense rules written out per entry, cut
    # at `order`: 0 forms values, 1 adds gradients, 2 adds the upper
    # Hessian triangle i <= j, whose rule reads entry (i, j) of the
    # operands only. An entry above the order is never formed, and an
    # entry up to it is the same source at every order. Each entry is the
    # sum the dense rule forms, term for term and in the same order (a
    # quotient by the denominator, a ** k as the product chain of `_pow`),
    # with the terms that are zero by structure and the factors 1.0 left
    # out, so it gives the bits of the tree-walking jets that the tests
    # keep as the oracle, up to the sign of zero; the Hessian is mirrored
    # below the diagonal. A power up to |k| = 4 is no pow call: for a in
    # (0.5, 3), libm's pow(a, 2) differs from a * a on about 0.08% of
    # doubles and from numpy's power of columns for k = 3, 4, -2 and -3
    # on about 5%, so only the product chain keeps points and columns
    # equal.

    def jet(self, e):
        """Return (value, {j: g_j}, {(i, j): h_ij for i <= j}) tokens; the
        gradient is empty at order 0 and the Hessian below order 2."""
        if isinstance(e, Var):
            return f"x{e.index}", {e.index: "1.0"} if self.order else {}, {}
        if isinstance(e, Const):
            return _const(e.value), {}, {}
        if isinstance(e, Unary):
            return self._jet_unary(e)
        if isinstance(e, Power):
            return self._jet_power(e)
        return self._jet_binary(e)

    def total(self, prefix, terms):
        """One token for the left-to-right sum `terms`."""
        text = " + ".join(terms)
        return text if " " not in text else self.local(prefix, text)

    def second(self, text):
        """A local for a second-derivative factor, at order 2 only."""
        return self.local("w", text) if self.order == 2 else None

    def upper(self, h, ga, gb):
        """Sorted entries (i, j), i <= j, that h or g_a g_b^T makes
        nonzero; none below order 2."""
        if self.order < 2:
            return []
        pairs = set(h)
        pairs.update((min(i, j), max(i, j)) for i in ga for j in gb)
        return sorted(pairs)

    def _jet_chain(self, v, ga, ha, d1, d2):
        """Jet of u(a): d1 g and d1 h_ij + d2 (g_i g_j), d1 = u'(a),
        d2 = u''(a)."""
        g = {j: self.total("g", [_times(d1, t)]) for j, t in ga.items()}
        h = {}
        for i, j in self.upper(ha, ga, ga):
            terms = []
            if (i, j) in ha:
                terms.append(_times(d1, ha[i, j]))
            if i in ga and j in ga:
                terms.append(_times(d2, _paren(_times(ga[i], ga[j]))))
            h[i, j] = self.total("h", terms)
        return v, g, h

    def _jet_unary(self, e):
        va, ga, ha = self.jet(e.arg)
        if e.op == "neg":
            return (self.local("v", f"-{va}"),
                    {j: self.local("g", f"-{t}") for j, t in ga.items()},
                    {ij: self.local("h", f"-{t}") for ij, t in ha.items()})
        v = self.local("v", f"{e.op}({va})")
        if e.op == "sqrt" and (ga or self.order == 2):
            # At order 2 formed even for a constant argument: it divides
            # by zero exactly where the argument is 0, which with sqrt's
            # own error covers every argument <= 0.
            d1 = self.local("w", f"0.5 / {v}")
        if not ga:
            return v, {}, {}
        if e.op == "sin":
            d1, d2 = self.local("w", f"cos({va})"), self.second(f"-{v}")
        elif e.op == "cos":
            d1, d2 = self.local("w", f"-sin({va})"), self.second(f"-{v}")
        elif e.op == "exp":
            d1 = d2 = v
        else:
            d2 = self.second(f"-0.25 / ({va} * {v})")
        return self._jet_chain(v, ga, ha, d1, d2)

    def _jet_power(self, e):
        va, ga, ha = self.jet(e.base)
        k = e.exponent
        if k == 0:
            return "1.0", {}, {}
        if k == 1:
            return va, ga, ha
        v = self.local("v", _pow(va, k))
        if not ga:
            return v, {}, {}
        # k * a ** (k - 1) and k * (k - 1) * a ** (k - 2), each power
        # written by `_pow`.
        d1 = self.local("w", f"{k} * {_paren(_pow(va, k - 1))}")
        d2 = "2.0" if k == 2 else self.second(
            f"{k} * {k - 1} * {_paren(_pow(va, k - 2))}")
        return self._jet_chain(v, ga, ha, d1, d2)

    def _jet_binary(self, e):
        va, ga, ha = self.jet(e.left)
        vb, gb, hb = self.jet(e.right)
        op = e.op
        if op == "+" or op == "-":
            return (self.local("v", f"{va} {op} {vb}"),
                    self.combine("g", ga, gb, op), self.combine("h", ha, hb, op))
        if op == "*":
            # a h_b + b h_a + g_a g_b^T + (g_a g_b^T)^T
            v = self.local("v", f"{va} * {vb}")
            g = {j: self.total("g", _present(
                     (va, gb.get(j)), (vb, ga.get(j))))
                 for j in sorted(ga.keys() | gb.keys())}
            h = {(i, j): self.total("h", _present(
                     (va, hb.get((i, j))), (vb, ha.get((i, j))),
                     (ga.get(i), gb.get(j)), (ga.get(j), gb.get(i))))
                 for i, j in self.upper(ha | hb, ga, gb)}
            return v, g, h
        # q = a / b: (g_a - q g_b) / b and
        # (h_a - q h_b - g_q g_b^T - (g_q g_b^T)^T) / b
        q = self.local("v", f"{va} / {vb}")
        g = {}
        for j in sorted(ga.keys() | gb.keys()):
            num = _difference(ga.get(j), _present((q, gb.get(j))))
            g[j] = self.local("g", f"{num} / {vb}")
        h = {}
        for i, j in self.upper(ha | hb, g, gb):
            num = _difference(ha.get((i, j)), _present(
                (q, hb.get((i, j))), (g.get(i), gb.get(j)),
                (g.get(j), gb.get(i))))
            h[i, j] = self.local("h", f"{num} / {vb}")
        return q, g, h

    def _weights(self, rows, rhs):
        """Tokens of w = (J J^T)^{-1} rhs for k rows J.

        The Gram sums a_ij (i <= j) run over the coordinates in order,
        starting from 0.0. k = 2 solves by Cramer's rule. Any other k
        eliminates without pivoting, which the symmetric positive
        definite Gram matrix allows (Golub & Van Loan, Matrix
        Computations, 4.2): step c subtracts a_ci / a_cc times row c
        from each row i > c, on and above the diagonal only, and
        back-substitution then divides by the pivots; for k = 1 that is
        rhs / a_11. A zero pivot divides by zero, as a zero determinant
        does.
        """
        k = len(rows)
        a = {(i, j): self.local("p", _dot(rows[i], rows[j]))
             for i in range(k) for j in range(i, k)}
        r = list(rhs)
        if k == 2:
            a11, a12, a22 = a[0, 0], a[0, 1], a[1, 1]
            r1, r2 = r
            det = self.local("p", f"{a11} * {a22} - {a12} * {a12}")
            return [self.local("p", f"({a22} * {r1} - {a12} * {r2}) / {det}"),
                    self.local("p", f"({a11} * {r2} - {a12} * {r1}) / {det}")]
        for c in range(k - 1):
            for i in range(c + 1, k):
                factor = self.local("p", f"{a[c, i]} / {a[c, c]}")
                for j in range(i, k):
                    a[i, j] = self.local(
                        "p", f"{a[i, j]} - {factor} * {a[c, j]}")
                r[i] = self.local("p", f"{r[i]} - {factor} * {r[c]}")
        w = [None] * k
        for i in reversed(range(k)):
            terms = (f" - {a[i, j]} * {w[j]}" for j in range(i + 1, k))
            w[i] = self.local("p", f"({r[i]}{''.join(terms)}) / {a[i, i]}")
        return w

    def project(self, rows, vec):
        """Tokens of vec - J^T w, the tangential part of `vec`, and of w,
        the weights of J vec."""
        w = self._weights(rows, [self.local("p", _dot(j, vec)) for j in rows])
        return [" - ".join([b, *_products(w, col)])
                for b, *col in zip(vec, *rows)], w

    def normal_step(self, rows, vals):
        """Tokens of J^T w, the Gauss-Newton step, with w the weights of
        the constraint values."""
        w = self._weights(rows, vals)
        return [" + ".join(_products(w, col) or ["0.0"])
                for col in zip(*rows)]

    def corrected_hessian(self, hf, hessians, lams):
        """Upper-triangle tokens of H_lam = Hess f - sum_i lam_i Hess F_i
        at the entries f or some F_i has: ((h_f - l1 * h_1) - l2 * h_2)
        ..., over the F_i with the entry and from 0.0 where f has not."""
        hess = {}
        for i, j in sorted(set(hf).union(*hessians)):
            terms = [_times(lam, h[i, j])
                     for lam, h in zip(lams, hessians) if (i, j) in h]
            first = hf.get((i, j), "0.0")
            hess[i, j] = (self.local("k", " - ".join([first, *terms]))
                          if terms else first)
        return hess

    def symmetric_times(self, upper, vec):
        """Tokens of M vec for the symmetric M with upper triangle
        `upper`: one `_dot` per row, over its entries in coordinate order."""
        n = len(vec)
        rows = [[upper.get((min(i, j), max(i, j)), "0.0")
                 for j in range(1, n + 1)] for i in range(1, n + 1)]
        return [self.local("d", _dot(row, vec)) for row in rows]

def _const(value):
    """Source token of a constant, a negative one in parentheses: bare,
    -2.0 ** 4 would read as -(2.0 ** 4). A non-finite constant has no
    token (repr gives the bare names inf and nan) and raises ValueError."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite constant {value!r}")
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _times(a, b):
    """Source of a * b; a factor 1.0 is left out, which is exact."""
    if a == "1.0":
        return b
    if b == "1.0":
        return a
    return f"{a} * {b}"


def _paren(text):
    return f"({text})" if " " in text else text


def _pow(a, k):
    """Source of a ** k: a ** 0 is 1.0, and for |k| <= _CHAIN_MAX one
    product chain a * a * ... * a, multiplied from the left, with
    1.0 / (chain) for k < 0. A larger k stays a power, which raises
    OverflowError where a chain would give inf.

    Python's float power (libm pow) and numpy's power of columns differ
    in the last bit for some k and a, so only the chain gives points and
    columns the same bits.
    """
    if k == 0:
        return "1.0"
    if abs(k) > _CHAIN_MAX:
        return f"{a} ** {k}"
    chain = " * ".join([a] * abs(k))
    return f"1.0 / {_paren(chain)}" if k < 0 else chain


def _power(v, k):
    """The float v ** k formed as the source of `_pow` forms it."""
    if k == 0:
        return 1.0
    if abs(k) > _CHAIN_MAX:
        return v ** k
    chain = v
    for _ in range(abs(k) - 1):
        chain = chain * v
    return 1.0 / chain if k < 0 else chain


def _present(*pairs):
    """Products of the factor pairs whose factors are both present."""
    return [_times(a, b) for a, b in pairs if a is not None and b is not None]


def _difference(first, terms):
    """Source of first - t1 - t2 ..., or -t1 - t2 ... without `first`."""
    if first is None:
        first, terms = f"-{terms[0]}", terms[1:]
    return _paren(" - ".join([first, *terms]))


def _products(u, v):
    """Sources of u_i * v_i by `_times`, less those with a factor 0.0: a
    signed zero leaves a finite sum's bits (one from 0.0 is never -0.0)."""
    return [_times(a, b) for a, b in zip(u, v) if "0.0" not in (a, b)]


def _dot(u, v):
    return " + ".join(["0.0", *_products(u, v)])


def _tuple(tokens):
    return f"({', '.join(tokens)}{',' if len(tokens) == 1 else ''})"


def _dense(grad, n):
    """Gradient tokens of all n coordinates from the sparse walk result."""
    return [grad.get(j, "0.0") for j in range(1, n + 1)]


def _names(prefix, count):
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _build(name, n, emitter, ret, extra=()):
    """Compile `def name(x1, ..., xn, *extra)`: the emitter's lines, then
    `return ret`."""
    params = [*_names("x", n), *extra]
    src = "\n".join([
        f"def {name}({', '.join(params)}):", *emitter.lines,
        f"    return {ret}", "",
    ])
    return compile(src, f"<compiled:{name}>", "exec")


def _walk_all(exprs, n, order=1):
    """An emitter at `order` that has walked `exprs`, with the value
    tokens and the dense gradient tokens of each expression."""
    emitter = _Emitter(order)
    walked = [emitter.jet(e) for e in exprs]
    return (emitter, [v for v, _, _ in walked],
            [_dense(g, n) for _, g, _ in walked])


def _value_code(exprs, n, single):
    emitter, vals, _ = _walk_all(exprs, n, order=0)
    return _build("_val", n, emitter, vals[0] if single else _tuple(vals))


def _value_grad_code(exprs, n):
    emitter, vals, grads = _walk_all(exprs, n)
    grads = [_tuple(g) for g in grads]
    return _build("_vg", n, emitter, f"{_tuple(vals)}, {_tuple(grads)}")


def _field_code(f, constraints, n, vectors=0):
    """Source of `_vg(x1, ..., xn, v1_1, ..., vj_n)`, j = `vectors`: f,
    w = P grad f, then for each V the derivative of w along V,
    dw[V] = P(H_lam V) - J^T (J J^T)^{-1} [w^T Hess F_i V]_i, lam the
    weights of w's projection; the normal part turns V with the tangent
    planes. j = 0 walks to order 1, j > 0 to order 2."""
    emitter = _Emitter(2 if vectors else 1)
    (vf, gf, hf), *walked = [emitter.jet(e) for e in (f, *constraints)]
    rows = [_dense(g, n) for _, g, _ in walked]
    w, lams = emitter.project(rows, _dense(gf, n))
    params = [_names(f"v{j}_", n) for j in range(1, vectors + 1)]
    hessians = [h for _, _, h in walked]
    hess = emitter.corrected_hessian(hf, hessians, lams)
    w = [emitter.local("d", t) for t in w] if vectors else w
    out = list(w)
    for vec in params:
        tangent, _ = emitter.project(rows, emitter.symmetric_times(hess, vec))
        turn = [emitter.local("d", _dot(w, emitter.symmetric_times(h, vec)))
                for h in hessians]
        normal = emitter.normal_step(rows, turn)
        out += [f"{t} - ({q})" for t, q in zip(tangent, normal)]
    return _build("_vg", n, emitter, f"{vf}, {_tuple(out)}",
                  extra=[v for vec in params for v in vec])


def _project_code(constraints, n):
    emitter, _, rows = _walk_all(constraints, n)
    out, w = emitter.project(rows, _names("b", n))
    return _build("_proj", n, emitter, f"{_tuple(out)}, {_tuple(w)}",
                  extra=_names("b", n))


def _rows_code(constraints, n, count):
    """Source of `_rows(x1, ..., xn, b1_1, ..., bd_n)`: `project`'s
    tangential part of each of the d = `count` rows b, flat. One emitter
    takes all d projections, so the Gram sums and the elimination are
    emitted once and shared by the rows."""
    emitter, _, rows = _walk_all(constraints, n)
    vecs = [_names(f"b{i}_", n) for i in range(1, count + 1)]
    out = [t for vec in vecs for t in emitter.project(rows, vec)[0]]
    return _build("_rows", n, emitter, _tuple(out),
                  extra=[b for vec in vecs for b in vec])


def _step_code(constraints, n):
    emitter, vals, rows = _walk_all(constraints, n)
    step = emitter.normal_step(rows, vals)
    return _build("_step", n, emitter, f"{_tuple(vals)}, {_tuple(step)}")


def _kkt_code(f, constraints, n):
    """Source of `_kkt(x1, ..., xn, l1, ..., lk)`: f, then tuples of
    grad f, the Jacobian rows, the constraint values and the n * n
    entries of H_lam = Hess f - sum_i l_i Hess F_i (`corrected_hessian`,
    mirrored below the diagonal), from one order-2 walk: f's jet for
    k = 0. A tuple of constants is built once, at compile time."""
    emitter = _Emitter(2)
    (vf, gf, hf), *walked = [emitter.jet(e) for e in (f, *constraints)]
    lams = _names("l", len(constraints))
    hess = emitter.corrected_hessian(hf, [h for _, _, h in walked], lams)
    blocks = [_dense(gf, n), [t for _, g, _ in walked for t in _dense(g, n)],
              [v for v, _, _ in walked],
              [hess.get((min(i, j), max(i, j)), "0.0")
               for i in range(1, n + 1) for j in range(1, n + 1)]]
    return _build("_kkt", n, emitter, ", ".join([vf, *map(_tuple, blocks)]),
                  extra=lams)


def _flat(blocks):
    """`_kkt`'s value and tuples as one list."""
    value, *rest = blocks
    return [value, *(t for block in rest for t in block)]


def stack_columns(entries, count):
    """An (len(entries), count) array of length-count arrays, a float
    broadcast where an entry does not depend on x."""
    out = np.empty((len(entries), count))
    for i, e in enumerate(entries):
        out[i] = e
    return out


def _define(code, name, namespace):
    """Run compiled source in a fresh scope of `namespace`; its function."""
    scope = dict(namespace)
    exec(code, scope)
    return scope[name]


def _pair(code, name):
    """The function for one point (math) and its twin for columns (numpy)."""
    return (_define(code, name, _NAMESPACE),
            _define(code, name, _ARRAY_NAMESPACE))


class CompiledExpression:
    """Generated evaluators for one expression, a map, or a field kernel.

    `value` runs the node rules at order 0, `value_and_grad`, `project`,
    `project_rows` and `normal_step` at order 1 and `jet`, `kkt`,
    `kkt_columns` and the field kernel's `value_and_grad` of a state with
    vectors at order 2, so where two of them form the same number they
    give the same bits.

    - `expression` a tuple of expressions (a map such as the constraints
      of a manifold): `value` gives the tuple of values and
      `value_and_grad` (values, Jacobian rows), `project(x, vec)` the
      tangential part of vec at x with its Gram weights,
      `project_rows(x, rows)` the tangential parts of d rows (d * n
      floats, row after row; the function of each d generated on first
      use) and `normal_step(x)` (values, J^T (J J^T)^{-1} F(x)), the
      Gauss-Newton step toward F = 0.
    - `expression` f with k >= 0 `constraints` (k = 0 for one
      expression): the field kernel. `value` gives f(x), `value_and_grad`
      (f(x), P(x) grad f(x)), and for a state of x and j tangent vectors,
      (1 + j) n floats, f(x), P grad f and its derivative along each
      vector (`field_function`: the unchecked function of a state size).
      `kkt(x, lam)` gives f, grad f, the Jacobian rows, F and H_lam at x
      and multipliers lam, `kkt_columns` the same for columns, and `jet`
      f's (value, gradient array, Hessian array).

    `value`, `jet`, `kkt`, `project` and `project_rows` take one point
    and `kkt_columns` columns; the other methods take one point or an
    (ambient_dim, N) array whose columns are N points, and then each
    number above is a length-N array, or a float where it does not
    depend on x. A domain
    error raises EvaluationError naming the first expression, in the
    order f, F_1, ..., F_k, that fails at x (with vectors, whose `jet`
    fails); a zero Gram determinant or pivot raises RankDeficiencyError,
    except in `normal_step` for columns (see there).
    """

    __slots__ = (
        "expression", "ambient_dim", "constraints", "_text", "_parts",
        "_value", "_value_grad", "_value_grad_columns", "_project", "_fields",
        "_step", "_step_columns", "_kkt", "_rows",
    )

    def __init__(self, expression, ambient_dim, constraints=()):
        single = not isinstance(expression, tuple)
        exprs = ((expression,) if single else expression) + constraints
        needed = max(max_variable_index(e) for e in exprs)
        if needed > ambient_dim:
            raise ValueError(
                f"expression references x{needed}, ambient dimension is "
                f"{ambient_dim}"
            )
        if constraints and not single:
            raise ValueError("a field kernel takes one function")
        self.expression = expression
        self.ambient_dim = ambient_dim
        self.constraints = constraints
        self._text = ", ".join(to_string(e) for e in exprs)
        # Re-evaluated alone to name a failure; a plain expression is its
        # own only part.
        self._parts = exprs if constraints or not single else ()
        n = ambient_dim
        evaluated = exprs[:1] if constraints else exprs
        self._value = _define(_value_code(evaluated, n, single), "_val",
                              _NAMESPACE)
        if single:
            code = _field_code(expression, constraints, n)
        else:
            code = _value_grad_code(exprs, n)
        self._value_grad, self._value_grad_columns = _pair(code, "_vg")
        self._fields = {0: self._value_grad}
        self._project = self._step = self._step_columns = self._kkt = None
        self._rows = {}
        if not single:
            self._project = _define(_project_code(exprs, n), "_proj",
                                    _NAMESPACE)
            self._step, self._step_columns = _pair(_step_code(exprs, n),
                                                   "_step")

    def value(self, x):
        """The value(s) at one point."""
        try:
            return self._value(*_as_floats(x))
        except _FAILURES as exc:
            raise self._failure("value", x, exc, False) from exc

    def jet(self, x):
        """(value, gradient, Hessian) of one expression at one point.

        The gradient is an array of length ambient_dim and the Hessian an
        (ambient_dim, ambient_dim) array, exactly symmetric. The code,
        `kkt`'s with no constraints, is generated on the first call.
        Every failure raises EvaluationError, and so does an argument 0 of
        sqrt, where its derivative is unbounded.
        """
        # no call that a compiled jet does not need: it is a hot path
        point = (self._kkt or self._kkt_pair())[0]
        if isinstance(x, np.ndarray):
            x = x.tolist()
        try:
            value, grad, _, _, hess = point(*x)
        except _FAILURES as exc:
            raise self._failure("jet", x, exc, False) from exc
        n = self.ambient_dim
        return value, np.array(grad), np.array(hess).reshape(n, n)

    def kkt(self, x, lam):
        """(f, grad f, Jacobian rows, constraint values, H_lam) of the
        field kernel at one point x and multipliers lam: a float and
        arrays of shapes (n,), (k, n), (k,) and (n, n). A domain error
        raises the EvaluationError that the `jet` of f, F_1, ..., F_k
        raises first at x."""
        try:
            out = self._kkt_pair()[0](*_as_floats(x), *_as_floats(lam))
        except _FAILURES as exc:
            raise self._failure("jet", x, exc, False) from exc
        return tuple(block[0] for block in self._kkt_blocks(
            np.array([_flat(out)])))

    def kkt_columns(self, x, lam):
        """`kkt` at the N columns of x (ambient_dim, N) and lam (k, N).

        Returns the five blocks with the point first, shapes (N,), (N, n),
        (N, k, n), (N, k) and (N, n, n), and a boolean mask of the columns
        where `kkt` alone raises. Where numpy flags a floating-point
        error, every column is re-run as one point, so each column has
        its point's bits and a failed one is nan.
        """
        point, columns = self._kkt_pair()
        count = x.shape[1]
        failed = np.zeros(count, dtype=bool)
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                out = stack_columns(_flat(columns(*x, *lam)), count).T
        except _FAILURES:
            n, k = self.ambient_dim, len(self.constraints)
            out = np.full((count, 1 + n + k * n + k + n * n), np.nan)
            for j, (xj, lj) in enumerate(zip(x.T.tolist(), lam.T.tolist())):
                try:
                    out[j] = _flat(point(*xj, *lj))
                except _FAILURES:
                    failed[j] = True
        return self._kkt_blocks(out), failed

    def _kkt_pair(self):
        if self._kkt is None:
            self._kkt = _pair(_kkt_code(self.expression, self.constraints,
                                        self.ambient_dim), "_kkt")
        return self._kkt

    def _kkt_blocks(self, out):
        """f, grad f, J, F and H_lam from the rows of `_kkt` outputs."""
        n, k = self.ambient_dim, len(self.constraints)
        value, grad, jac, vals, hess = np.split(
            out, np.cumsum([1, n, k * n, k]), axis=1)
        return (value[:, 0], grad, jac.reshape(-1, k, n), vals,
                hess.reshape(-1, n, n))

    def field_function(self, size):
        """The field kernel's unchecked point function for a state of
        `size` floats, x and size / n - 1 vectors, generated on first use
        (`_field_code`); size n gives `value_and_grad`'s own."""
        vectors = size // self.ambient_dim - 1
        if vectors not in self._fields:
            self._fields[vectors] = _define(_field_code(
                self.expression, self.constraints, self.ambient_dim, vectors,
            ), "_vg", _NAMESPACE)
        return self._fields[vectors]

    def value_and_grad(self, x):
        """See the class docstring. For columns, numpy division by zero,
        invalid operations and overflow raise as `math` does for one
        point."""
        n = self.ambient_dim
        if self.constraints and len(x) > n:
            x = _as_floats(x)
            try:
                return self.field_function(len(x))(*x)
            except _FAILURES as exc:
                raise self._failure("jet", x[:n], exc, True) from exc
        return self._call(self._value_grad, self._value_grad_columns, x,
                          projected=bool(self.constraints))

    def project(self, x, vec):
        """(vec - J^T w, w) at one point x for `vec` (n floats), with the
        Gram weights w = (J J^T)^{-1} J vec: for grad f, the multipliers."""
        x = _as_floats(x)
        try:
            return self._project(*x, *_as_floats(vec))
        except _FAILURES as exc:
            raise self._failure("value_and_grad", x, exc, True) from exc

    def project_rows(self, x, rows):
        """`project`'s tangential parts of d rows at one point x, from one
        call that solves with the Gram matrix once: `rows` and the result
        are d * n floats, row after row, each row the bits of `project`'s.
        The function of each d is generated on first use (`_rows_code`)."""
        count = len(rows) // self.ambient_dim
        function = self._rows.get(count)
        if function is None:
            function = self._rows[count] = _define(_rows_code(
                self.expression, self.ambient_dim, count), "_rows", _NAMESPACE)
        x = _as_floats(x)
        try:
            return function(*x, *_as_floats(rows))
        except _FAILURES as exc:
            raise self._failure("value_and_grad", x, exc, True) from exc

    def normal_step(self, x):
        """(F(x), J^T (J J^T)^{-1} F(x)) at one point or at columns.

        For columns a domain error raises for all of them, while a zero
        Gram determinant or pivot gives only its own column a non-finite
        step.
        """
        try:
            return self._call(self._step, self._step_columns, x)
        except RankDeficiencyError:
            if not (isinstance(x, np.ndarray) and x.ndim == 2):
                raise
        with np.errstate(all="ignore"):
            return self._step_columns(*x)

    def _call(self, point, columns, x, projected=True):
        """point(*x) for one point, columns(*x) for columns with numpy's
        floating-point errors raised; a failure is named by `_failure`."""
        try:
            if isinstance(x, np.ndarray):
                if x.ndim == 2:
                    with np.errstate(divide="raise", invalid="raise",
                                     over="raise"):
                        return columns(*x)
                x = x.tolist()
            return point(*x)
        except _FAILURES as exc:
            raise self._failure("value_and_grad", x, exc, projected) from exc

    def gradient(self, x):
        return np.asarray(self.value_and_grad(x)[1])

    def _failure(self, method, x, exc, projected):
        """The error for a failed call at x.

        Each part is re-run alone first, so the first one that fails
        raises its own EvaluationError. If all of them evaluate, a
        projection divided by a zero Gram determinant or pivot.
        """
        for part in self._parts:
            getattr(compile_expression(part, self.ambient_dim), method)(x)
        if projected:
            return RankDeficiencyError(
                f"constraint Jacobian is rank deficient at {_where(x)}"
            )
        return EvaluationError(str(exc), self._text)


def _where(x):
    """One point, or how many columns, for an error message."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return f"one of {x.shape[1]} points"
    return str(np.asarray(x).tolist())


def _as_floats(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


@functools.lru_cache(maxsize=512)
def compile_expression(expression, ambient_dim, constraints=()):
    """Cached compilation; expressions are immutable so reuse is safe.

    `expression` is one expression or a tuple of them (a map); with
    `constraints` the result is the field kernel of f = `expression` on
    {constraints = 0}. See CompiledExpression.
    """
    return CompiledExpression(expression, ambient_dim, tuple(constraints))
