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
  of a manifold, with four generated functions: all values (`value`),
  all values and the Jacobian rows (`value_and_grad`), `project_rows`,
  the tangential parts of d rows (one vector, or a transported frame)
  with one Gram solve for all of them, and, compiled on first use,
  `gauss_newton`'s `_gn`, the whole retraction of one point: a loop
  whose body forms the values and the Gauss-Newton step
  J^T (J J^T)^{-1} F, with the convergence test over the k values
  (before the step is formed), the guard on the first step's norm and
  the finiteness test unrolled, returning the point and a status;
- a field kernel, f together with k >= 0 constraints (one expression
  is k = 0, P the identity): the value of f, P grad f, P the orthogonal
  projection onto ker dF, and for k >= 1 the Lagrange multipliers
  lam = (J J^T)^{-1} J grad f, the Gram weights of that projection, from
  one pass over f and the constraints; also, compiled on first use, f
  and the blocks of the KKT system of the multiplier Newton (grad f, J,
  F and H_lam = Hess f - sum_i lam_i Hess F_i) from one order-2 pass,
  which for k = 0 is f's jet, and for x with j tangent vectors, f,
  P grad f, the derivative of P grad f along each vector and lam from
  one order-2 pass (`_field_code`).

`project_rows`, `_gn` and the field kernel write the solve with the
Gram matrix J J^T out inline, the same steps for every number k of
constraints, from one emitter helper: Gram sums from 0.0 in coordinate
order, then Gaussian elimination without pivoting (a division for
k = 1). So the field, the tangent projection and the retraction give
the bits of that arithmetic done term by term on floats; numpy's solve
agrees to rounding (within 1e-14 on the test scenarios). There is no
other J J^T solve: the field kernel's lam are the multipliers, and
`project_rows` gives the tangent bases.

Zeros have one rule. A zero enters as the 0.0 of a dense fill (`_dense`,
`symmetric_times`, an H_lam entry that f or an F_i lacks) and leaves in
`_products`, which drops each product with a factor 0.0. In between it
stays the token 0.0: `_Emitter.local` binds no right-hand side that is
one name or one literal, every product and difference goes through
`_products` and `_difference`, and an elimination factor over a zero is
0.0, so a block-diagonal Gram matrix is solved block by block. A dropped
0.0 * x changes no finite sum (one from 0.0 is never -0.0). Divisions
by the pivots stay, as they are what raises.

Every literal is a float token, as `_const` writes it: a constant of the
expression, the power rule's coefficients k and k - 1 (`2.0 * x1`, not
`2 * x1`), and the negation of a literal (`_negated`: the gradient -1.0
of -x3 is the token (-1.0), with no local of its own, and a product
with it is the negation of the other factor). Python converts an int to
the same float before it multiplies, so the bits are those of int
literals, but CPython's specializing interpreter has a fast path for
float * float and none for int * float. Exponents stay ints.

A generated function keeps only its live lines (`_live`): those its
results read, directly or through later lines. A dead line stays if it
divides, raises a power or calls a function, as those raise on floats
where *, + and - never do, so a call for one point raises where it
would with all lines (numpy twins under np.errstate no longer raise for
the overflow of a dropped *, + or -); the field kernel, for one, forms
no constraint value.

The field kernel's lines can also be inlined in other generated code:
`field_lines` gives its parameters, its live lines for P grad f and the
derivatives along the vectors (without f, with every line that can
raise) and the output tokens, and `prefixed` renames every name in them
but the `math` functions, so that copies of them do not meet. The flow
loop (`flow._loop_factory`) writes one copy into each Cash-Karp stage,
and after y5 the map's `first_lines`, the lines of `_gn`'s first
iterate, with the constraint values that its convergence test reads.

The sources of `value`, `value_and_grad` and `kkt` are each compiled
once and executed twice: with the `math` functions for one
point given as floats, and with their numpy ufuncs for many points given
as coordinate columns. The numpy twin runs only in
`CompiledExpression.columns`, the one call for many points: where numpy
raises for some column, every column is re-run as one point, so each has
its point's bits and a failure flags only its own column. The arithmetic
is the same elementwise, so the twin gives the point's bits where `math`
and numpy agree.
"""

import functools
import math
import re

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
_GN_NAMESPACE = {**_NAMESPACE, "_FAILURES": _FAILURES}


class _Emitter:
    """Source lines of one generated function: the node rules run to
    `order` 0, 1 or 2, and the Gram solve of `project`/`normal`."""

    def __init__(self, order):
        self.lines = []
        self.names = {}  # right-hand side -> its local
        self.order = order

    def local(self, prefix, rhs):
        """`rhs` itself if it is one token (`_TOKEN`), else a new local
        for it, or the one holding that text already: the code is
        single-assignment, so equal text is an equal value."""
        if _TOKEN.fullmatch(rhs):
            return rhs
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
                out[key] = self.local(prefix, _negated(b[key]))
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
    # below the diagonal.

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
        g = {j: self.local("g", _times(d1, t)) for j, t in ga.items()}
        h = {(i, j): self.local("h", " + ".join(_present(
                 (d1, ha.get((i, j))),
                 (d2, _paren(_times(ga[i], ga[j]))
                  if i in ga and j in ga else None))))
             for i, j in self.upper(ha, ga, ga)}
        return v, g, h

    def _jet_unary(self, e):
        va, ga, ha = self.jet(e.arg)
        if e.op == "neg":
            return (self.local("v", _negated(va)),
                    {j: self.local("g", _negated(t)) for j, t in ga.items()},
                    {ij: self.local("h", _negated(t)) for ij, t in ha.items()})
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
        # written by `_pow` and k and k - 1 as float literals.
        c1, c2 = _const(float(k)), _const(float(k - 1))
        d1 = self.local("w", f"{c1} * {_paren(_pow(va, k - 1))}")
        d2 = "2.0" if k == 2 else self.second(
            f"{c1} * {c2} * {_paren(_pow(va, k - 2))}")
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
            g = {j: self.local("g", " + ".join(_present(
                     (va, gb.get(j)), (vb, ga.get(j)))))
                 for j in sorted(ga.keys() | gb.keys())}
            h = {(i, j): self.local("h", " + ".join(_present(
                     (va, hb.get((i, j))), (vb, ha.get((i, j))),
                     (ga.get(i), gb.get(j)), (ga.get(j), gb.get(i)))))
                 for i, j in self.upper(ha | hb, ga, gb)}
            return v, g, h
        # q = a / b: (g_a - q g_b) / b and
        # (h_a - q h_b - g_q g_b^T - (g_q g_b^T)^T) / b
        q = self.local("v", f"{va} / {vb}")
        g = {}
        for j in sorted(ga.keys() | gb.keys()):
            num = _difference(ga.get(j), _present((q, gb.get(j))))
            g[j] = self.local("g", f"{_paren(num)} / {vb}")
        h = {}
        for i, j in self.upper(ha | hb, g, gb):
            num = _difference(ha.get((i, j)), _present(
                (q, hb.get((i, j))), (g.get(i), gb.get(j)),
                (g.get(j), gb.get(i))))
            h[i, j] = self.local("h", f"{_paren(num)} / {vb}")
        return q, g, h

    def _weights(self, rows, rhs):
        """Tokens of w = (J J^T)^{-1} rhs for k rows J, the same steps for
        every k: the Gram sums a_ij (i <= j), then elimination without
        pivoting, which the symmetric positive definite Gram matrix
        allows (Golub & Van Loan, Matrix Computations, 4.2): step c
        subtracts a_ci / a_cc (the token 0.0 where a_ci is that token)
        times row c from each row i > c, on and above the diagonal, then
        back-substitution divides by the pivots (rhs / a_11 for k = 1), so
        a zero pivot divides by zero."""
        k = len(rows)
        a = {(i, j): self.local("p", _dot(rows[i], rows[j]))
             for i in range(k) for j in range(i, k)}
        r = list(rhs)
        for c in range(k - 1):
            for i in range(c + 1, k):
                factor = "0.0" if a[c, i] == "0.0" else self.local(
                    "p", f"{a[c, i]} / {a[c, c]}")
                for j in range(i, k):
                    a[i, j] = self.local("p", _difference(
                        a[i, j], _products([factor], [a[c, j]])))
                r[i] = self.local("p", _difference(
                    r[i], _products([factor], [r[c]])))
        w = [None] * k
        for i in reversed(range(k)):
            num = _difference(r[i], _products(
                [a[i, j] for j in range(i + 1, k)], w[i + 1:]))
            w[i] = self.local("p", f"({num}) / {a[i, i]}")
        return w

    def project(self, rows, vec):
        """Tokens of vec - J^T w, the tangential part of `vec`, and of w,
        the weights of J vec."""
        w = self._weights(rows, [self.local("p", _dot(j, vec)) for j in rows])
        return [_difference(b, _products(w, col))
                for b, *col in zip(vec, *rows)], w

    def normal(self, rows, rhs):
        """Tokens of J^T w, w = (J J^T)^{-1} rhs: the normal vector whose
        image under J is rhs (for the constraint values, the
        Gauss-Newton step)."""
        w = self._weights(rows, rhs)
        return [" + ".join(_products(w, col) or ["0.0"])
                for col in zip(*rows)]

    def corrected_hessian(self, hf, hessians, lams):
        """Upper-triangle tokens of H_lam = Hess f - sum_i lam_i Hess F_i
        at the entries f or some F_i has: ((h_f - l1 * h_1) - l2 * h_2)
        ..., over the F_i with the entry and from 0.0 where f has not."""
        return {ij: self.local("k", _difference(hf.get(ij, "0.0"), _products(
                    lams, [h.get(ij, "0.0") for h in hessians])))
                for ij in sorted(set(hf).union(*hessians))}

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


def _negated(token):
    """Source of -token: for a literal token, the literal of its negation,
    a token too, so no local holds it."""
    if _LITERAL.fullmatch(token):
        return _const(-float(token.strip("()")))
    return f"-{token}"


def _times(a, b):
    """Source of a * b; a factor 1.0 is left out and a factor (-1.0)
    negates, both exact."""
    if a == "1.0":
        return b
    if b == "1.0":
        return a
    if "(-1.0)" in (a, b):
        return _negated(_paren(b if a == "(-1.0)" else a))
    return f"{a} * {b}"


def _paren(text):
    return f"({text})" if " " in text else text


def _pow(a, k):
    """Source of a ** k: a ** 0 is 1.0, and for |k| <= _CHAIN_MAX one
    product chain a * a * ... * a, multiplied from the left, with
    1.0 / (chain) for k < 0. A larger k stays a power, which raises
    OverflowError where a chain would give inf.

    Python's float power (libm pow) and numpy's power of columns differ
    in the last bit for some k and a (for a in (0.5, 3), pow(a, 2) and
    a * a on about 0.08% of doubles, numpy's power and the chain for
    k = 3, 4, -2 and -3 on about 5%), so only the chain gives points and
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
    """Source of first - t1 - t2 ..., -t1 - t2 ... without `first`
    (None), and 0.0 without either."""
    if first is None:
        first, terms = (f"-{terms[0]}", terms[1:]) if terms else ("0.0", [])
    return " - ".join([first, *terms])


def _products(u, v):
    """Sources of u_i * v_i by `_times`, less those with a factor 0.0."""
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


# A name in generated source (not the exponent of a literal like 1e-05),
# and a right-hand side that can raise: a division, a power or a call.
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")
_RAISES = re.compile(r"/|\*\*|\w\(")
# One token: a name, or a literal as `_const` writes it, a negative one in
# parentheses (of a bare -2.0, `_pow` would write -2.0 ** 6).
_LITERAL = re.compile(r"[\d.]+(e[+-]\d+)?|\(-[\d.]+(e[+-]\d+)?\)")
_TOKEN = re.compile(rf"[A-Za-z_]\w*|{_LITERAL.pattern}")


def _live(lines, outputs, raising=True):
    """The `lines` ("    name = rhs") that `outputs` read, directly or
    through later lines, in order (Aho et al., Compilers, 9.2.5), and
    every line that can raise, with what it reads: math raises there
    (numpy under np.errstate too), where a *, + or - never does on
    floats, so each call still raises where it raised before (with
    raising=False, only the lines that `outputs` read)."""
    needed = set(_NAME.findall(outputs))
    kept = []
    for line in reversed(lines):
        name, rhs = line.strip().split(" = ", 1)
        if name in needed or raising and _RAISES.search(rhs):
            needed.update(_NAME.findall(rhs))
            kept.append(line)
    return kept[::-1]


def _build(name, n, emitter, ret, extra=()):
    """Compile `def name(x1, ..., xn, *extra)`: the emitter's lines that
    `ret` needs (`_live`), then `return ret`."""
    params = [*_names("x", n), *extra]
    src = "\n".join([
        f"def {name}({', '.join(params)}):", *_live(emitter.lines, ret),
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


def _field_parts(f, constraints, n, vectors):
    """The field kernel's walk for x with j = `vectors` tangent vectors:
    (emitter, f's token, the output tokens, the multiplier tokens, the
    parameters). The outputs are w = P grad f, then for each V the
    derivative of w along V,
    dw[V] = P(H_lam V) - J^T (J J^T)^{-1} [w^T Hess F_i V]_i, lam the
    weights of w's projection (the multipliers, none for k = 0); the
    normal part turns V with the tangent planes. The parameters are x1,
    ..., xn, v1_1, ..., vj_n. j = 0 walks to order 1, j > 0 to order 2."""
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
        normal = emitter.normal(rows, turn)
        out += [_difference(t, [f"({q})"]) for t, q in zip(tangent, normal)]
    return (emitter, vf, out, lams,
            _names("x", n) + [v for vec in params for v in vec])


def _field_code(f, constraints, n, vectors=0):
    """Source of `_vg(x1, ..., xn, v1_1, ..., vj_n)`, j = `vectors`: f,
    the outputs of `_field_parts` and, for k >= 1, the multipliers."""
    emitter, vf, out, lams, params = _field_parts(f, constraints, n, vectors)
    ret = f"{vf}, {_tuple(out)}" + (f", {_tuple(lams)}" if lams else "")
    return _build("_vg", n, emitter, ret, extra=params[n:])


def prefixed(text, prefix, names=None):
    """Generated source with every name but the `math` functions
    prefixed, or replaced by its entry in `names`, so that lines of one
    generated function can be inlined in another, several times, without
    their locals meeting."""
    names = names or {}
    return _NAME.sub(lambda m: m[0] if m[0] in _NAMESPACE
                     else names.get(m[0], prefix + m[0]), text)


def _rows_code(constraints, n, count):
    """Source of `_rows(x1, ..., xn, b1_1, ..., bd_n)`: the tangential
    part b - J^T (J J^T)^{-1} J b of each of the d = `count` rows b,
    flat. One emitter takes all d projections, so the Gram sums and the
    elimination are emitted once and shared by the rows."""
    emitter, _, rows = _walk_all(constraints, n)
    vecs = [_names(f"b{i}_", n) for i in range(1, count + 1)]
    out = [t for vec in vecs for t in emitter.project(rows, vec)[0]]
    return _build("_rows", n, emitter, _tuple(out),
                  extra=[b for vec in vecs for b in vec])


# Gauss-Newton steps of one retraction (`_gn_code`).
RETRACT_MAX_ITER = 25


def _gn_parts(constraints, n):
    """The walk of `_gn_code`: (value tokens, step tokens, the live lines
    of one iteration, its head), the head being the lines of the
    iteration that the values read, which run before the convergence
    test."""
    emitter, vals, rows = _walk_all(constraints, n)
    steps = [emitter.local("s", t) for t in emitter.normal(rows, vals)]
    body = _live(emitter.lines, ", ".join(vals + steps))
    return vals, steps, body, _live(body, ", ".join(vals), raising=False)


def _gn_code(constraints, n):
    """Source of `_gn(tol, bound, x1, ..., xn)`: the Gauss-Newton
    iteration x <- x - J^T (J J^T)^{-1} F(x) for at most
    RETRACT_MAX_ITER steps, its body the values, the Jacobian rows and
    the step from one walk of the constraints.

    It stops at the first iterate where every |F_i| <= tol, tested on
    the values before the other lines of the step (so such a point is
    returned even where its step would raise), and returns (point,
    status): the point as a list and "converged", or in place of the
    point the first step and "guard" when that step's norm is above
    `bound`, "diverged" when a step leaves a non-finite coordinate (the
    sum of the differences x - x is 0.0 exactly when every coordinate is
    finite), "iterations" after RETRACT_MAX_ITER steps, and "failed"
    with the point where the body raised (a domain error or a zero
    pivot). The step's entries are all formed before a
    coordinate moves, since J can read the coordinates. `first_lines`
    gives the lines before the convergence test for inlining.
    """
    vals, steps, body, head = _gn_parts(constraints, n)
    tail = [line for line in body if line not in head]
    xs = _names("x", n)
    point = f"[{', '.join(xs)}]"
    lines = [
        f"def _gn(tol, bound, {', '.join(xs)}):",
        "    try:",
        f"        for it in range({RETRACT_MAX_ITER}):",
        *("        " + line for line in head),
        "            if " + " and ".join(f"abs({v}) <= tol" for v in vals)
        + ":",
        f"                return {point}, 'converged'",
        *("        " + line for line in tail),
        "            if it == 0 and sqrt("
        + " + ".join(_products(steps, steps) or ["0.0"]) + ") > bound:",
        f"                return [{', '.join(steps)}], 'guard'",
        *(f"            {x} = {x} - {s}" for x, s in zip(xs, steps)),
        "            if not " + " + ".join(f"({x} - {x})" for x in xs)
        + " == 0.0:",
        f"                return {point}, 'diverged'",
        "    except _FAILURES:",
        f"        return {point}, 'failed'",
        f"    return {point}, 'iterations'",
        "",
    ]
    return compile("\n".join(lines), "<compiled:_gn>", "exec")


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


def _flat(out):
    """A generated function's result, a number or nested tuples of them,
    as one flat list in order."""
    if isinstance(out, tuple):
        return [t for item in out for t in _flat(item)]
    return [out]


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

    `value` runs the node rules at order 0, `value_and_grad`,
    `project_rows` and `gauss_newton` at order 1 and `jet`, `kkt` and the
    field kernel's `value_and_grad` of a state with vectors at order 2,
    so where two of them form the same number they give the same bits.

    - `expression` a tuple of expressions (a map such as the constraints
      of a manifold): `value` gives the tuple of values and
      `value_and_grad` (values, Jacobian rows), `project_rows(x, rows)`
      the tangential parts of d rows (d * n floats, row after row; one
      vector is d = 1; `rows_function(d)` the unchecked function of each
      d, generated on first use), and `gauss_newton()` the unchecked
      function of the whole retraction of one point.
    - `expression` f with k >= 0 `constraints` (k = 0 for one
      expression): the field kernel. `value` gives f(x), `value_and_grad`
      (f(x), P(x) grad f(x)), and for a state of x and j tangent vectors,
      (1 + j) n floats, f(x), P grad f and its derivative along each
      vector (`field_function`: the unchecked function of a state size;
      `field_lines` its lines for inlining); for k >= 1 both end with the
      Lagrange multipliers lam = (J J^T)^{-1} J grad f, the Gram weights
      of the projection, as a third output.
      `kkt(x, lam)` gives f, grad f, the Jacobian rows, F and H_lam at x
      and multipliers lam, `kkt_columns` the same for columns, and `jet`
      f's (value, gradient array, Hessian array).

    Each of these methods takes one point. A domain error raises
    EvaluationError naming the first expression, in the order f, F_1,
    ..., F_k, that fails at x (with vectors, whose `jet` fails); a zero
    pivot of the Gram solve raises RankDeficiencyError. Many points go
    through `columns` alone, which runs `value`, `value_and_grad` or
    `kkt` on the N columns of an (ambient_dim, N) array and flags the
    columns where the point call raises, without raising.
    """

    __slots__ = (
        "expression", "ambient_dim", "constraints", "_text", "_parts",
        "_pairs", "_value", "_value_grad", "_fields", "_kkt", "_rows",
        "_gn", "_loops",
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
        if single:
            code = _field_code(expression, constraints, n)
        else:
            code = _value_grad_code(exprs, n)
        # (point function, numpy twin) of each function `columns` runs
        self._pairs = {
            "value": _pair(_value_code(evaluated, n, single), "_val"),
            "value_and_grad": _pair(code, "_vg"),
        }
        self._value = self._pairs["value"][0]
        self._value_grad = self._pairs["value_and_grad"][0]
        self._fields = {0: self._value_grad}
        self._kkt = self._gn = None
        self._rows = {}
        # the field kernel's generated flow loops by state size, kept
        # here by `flow._loop_factory` so that they go with this object
        self._loops = {}

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
        """`kkt` at the N columns of x (ambient_dim, N) and lam (k, N) by
        `columns`: the five blocks with the point first, shapes (N,),
        (N, n), (N, k, n), (N, k) and (N, n, n), and its failure mask."""
        rows, failed = self.columns("kkt", x, lam)
        return self._kkt_blocks(rows), failed

    def columns(self, name, x, *args):
        """The generated `name` ("value", "value_and_grad" or "kkt") at
        the N columns of x (ambient_dim, N), the multipliers lam of `kkt`
        given as `args`, k rows of N columns.

        Returns (rows, failed): an (N, width) array whose row j holds the
        outputs at column j in order, flat, and a boolean mask of the
        columns where the point call raises. The numpy twin runs on all
        columns at once with division by zero, invalid operations and
        overflow raised. If numpy raises, every column is re-run as one
        point, so each row has the point call's bits and a failed row is
        nan; otherwise a row has the point call's bits where `math` and
        numpy agree.
        """
        point, twin = self._kkt_pair() if name == "kkt" else self._pairs[name]
        params = [*x, *(row for block in args for row in block)]
        count = x.shape[1]
        failed = np.zeros(count, dtype=bool)
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                outs = _flat(twin(*params))
        except _FAILURES:
            rows = np.full((count, self._width(name)), np.nan)
            for j, column in enumerate(zip(*(p.tolist() for p in params))):
                try:
                    rows[j] = _flat(point(*column))
                except _FAILURES:
                    failed[j] = True
            return rows, failed
        rows = np.empty((len(outs), count))
        for i, out in enumerate(outs):
            rows[i] = out  # a float where it does not depend on x
        return rows.T, failed

    def _width(self, name):
        """How many numbers `name` gives for one point."""
        n, k = self.ambient_dim, len(self.constraints)
        if isinstance(self.expression, tuple):
            k = len(self.expression)
            return {"value": k, "value_and_grad": k + k * n}[name]
        return {"value": 1, "value_and_grad": 1 + n + k,
                "kkt": 1 + n + k * n + k + n * n}[name]

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

    def field_lines(self, size):
        """The field kernel's lines for a state of `size` floats, to be
        inlined in other generated code: (parameters, lines, outputs).

        The lines ("name = rhs", without indent) are `field_function`'s,
        kept by `_live` for the outputs P grad f and its derivatives
        along the vectors, without f, and with every line that can
        raise. So run from the parameters they raise where
        `field_function(size)` raises on the same floats, and the output
        tokens are the bits of its outputs. Names are as generated;
        `prefixed` keeps copies of them apart.
        """
        n = self.ambient_dim
        emitter, _, out, _, params = _field_parts(
            self.expression, self.constraints, n, size // n - 1)
        lines = _live(emitter.lines, ", ".join(out))
        return params, [line.strip() for line in lines], out

    def first_lines(self):
        """The map's lines of `_gn`'s first iterate, to be inlined in
        other generated code: (parameters x1, ..., xn, lines, value
        tokens).

        The lines ("name = rhs", without indent) are those that `_gn`
        runs before its convergence test (`_gn_parts`), so run from the
        parameters they raise where `_gn`'s first iterate raises, and the
        value tokens are the bits of the values that its first test
        reads, `value`'s at the same point. Names are as generated;
        `prefixed` keeps copies of them apart.
        """
        n = self.ambient_dim
        vals, _, _, head = _gn_parts(self.expression, n)
        return _names("x", n), [line.strip() for line in head], vals

    def value_and_grad(self, x):
        """See the class docstring."""
        # no call that one point does not need: a flow makes one per step
        if isinstance(x, np.ndarray):
            x = x.tolist()
        n = self.ambient_dim
        if self.constraints and len(x) > n:
            try:
                return self.field_function(len(x))(*x)
            except _FAILURES as exc:
                raise self._failure("jet", x[:n], exc, True) from exc
        try:
            return self._value_grad(*x)
        except _FAILURES as exc:
            raise self._failure("value_and_grad", x, exc,
                                bool(self.constraints)) from exc

    def project_rows(self, x, rows):
        """The tangential parts b - J^T (J J^T)^{-1} J b of d rows b at one
        point x, from one call that solves with the Gram matrix once:
        `rows` and the result are d * n floats, row after row, and a row
        has the same bits in each d (one vector is d = 1). The function of
        each d is generated on first use (`_rows_code`)."""
        function = self.rows_function(len(rows) // self.ambient_dim)
        x = _as_floats(x)
        try:
            return function(*x, *_as_floats(rows))
        except _FAILURES as exc:
            raise self._failure("value_and_grad", x, exc, True) from exc

    def rows_function(self, count):
        """The map's unchecked `_rows(x1, ..., xn, b1_1, ..., bd_n)` for
        d = `count` rows, generated on first use (`_rows_code`)."""
        function = self._rows.get(count)
        if function is None:
            function = self._rows[count] = _define(_rows_code(
                self.expression, self.ambient_dim, count), "_rows", _NAMESPACE)
        return function

    def gauss_newton(self):
        """The map's unchecked Gauss-Newton function `_gn(tol, bound, x1,
        ..., xn)` of at most RETRACT_MAX_ITER steps (`_gn_code`),
        generated on first use: (point, status) of one point.
        `ImplicitManifold._gauss_newton` turns a status other than
        "converged" into its error; the sampler alone reads the status."""
        if self._gn is None:
            self._gn = _define(_gn_code(self.expression, self.ambient_dim),
                               "_gn", _GN_NAMESPACE)
        return self._gn

    def gradient(self, x):
        return np.asarray(self.value_and_grad(x)[1])

    def _failure(self, method, x, exc, projected):
        """The error for a failed call at x.

        Each part is re-run alone first, so the first one that fails
        raises its own EvaluationError. If all of them evaluate, a
        projection divided by a zero pivot.
        """
        for part in self._parts:
            getattr(compile_expression(part, self.ambient_dim), method)(x)
        if projected:
            return RankDeficiencyError(
                "constraint Jacobian is rank deficient at "
                f"{np.asarray(x).tolist()}"
            )
        return EvaluationError(str(exc), self._text)


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
