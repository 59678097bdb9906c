import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow import load_scenario
from morseflow.errors import EvaluationError, ExpressionSyntaxError
from morseflow.symbolics import (
    Binary,
    Const,
    Power,
    Unary,
    Var,
    compile_expression,
    evaluate,
    evaluate_jet,
    parse,
    to_string,
)
from morseflow.acceptance import _random_expression


# -- the tree oracle ---------------------------------------------------------
#
# Second-order forward mode walked node by node on dense numpy arrays, the
# rules the generated code writes out entry by entry at every order:
# `value` (order 0), `value_and_grad` (order 1) and `evaluate_jet` (order
# 2). A power up to |k| = 4 is one product chain, va * va * ... * va from
# the left and 1.0 / chain for a negative exponent, as in the generated
# code, where libm's pow would differ from numpy's power of columns in
# the last bit.

def _tree_jet(e, x):
    """(value, gradient, Hessian) of `e` at `x` by walking the tree."""
    x = np.asarray(x, dtype=float)
    return _jet(e, x, x.shape[0])


def _power(v, k):
    """v ** k as one left-to-right product chain, 1.0 / chain for k < 0,
    up to |k| = 4; a larger k is a power."""
    if k == 0:
        return 1.0
    if abs(k) > 4:
        return v ** k
    chain = v
    for _ in range(abs(k) - 1):
        chain = chain * v
    return 1.0 / chain if k < 0 else chain


def _chain(v, g, h, d1, d2):
    # Jet of u(a) from the jet of a: u' * grad, u' * hess + u'' * g g^T.
    return d1 * g, d1 * h + d2 * np.outer(g, g)


def _jet(e, x, n):
    if isinstance(e, Var):
        g = np.zeros(n)
        g[e.index - 1] = 1.0
        return float(x[e.index - 1]), g, np.zeros((n, n))
    if isinstance(e, Const):
        return e.value, np.zeros(n), np.zeros((n, n))
    if isinstance(e, Unary):
        va, ga, ha = _jet(e.arg, x, n)
        if e.op == "neg":
            return -va, -ga, -ha
        if e.op == "sin":
            g, h = _chain(va, ga, ha, math.cos(va), -math.sin(va))
            return math.sin(va), g, h
        if e.op == "cos":
            g, h = _chain(va, ga, ha, -math.sin(va), -math.cos(va))
            return math.cos(va), g, h
        if e.op == "exp":
            ev = math.exp(va)
            g, h = _chain(va, ga, ha, ev, ev)
            return ev, g, h
        if va <= 0.0:
            # At exactly zero the derivative of sqrt is unbounded.
            raise EvaluationError(
                "sqrt domain error (argument <= 0)", to_string(e)
            )
        root = math.sqrt(va)
        g, h = _chain(va, ga, ha, 0.5 / root, -0.25 / (va * root))
        return root, g, h
    if isinstance(e, Power):
        va, ga, ha = _jet(e.base, x, n)
        k = e.exponent
        if k == 0:
            return 1.0, np.zeros(n), np.zeros((n, n))
        if k == 1:
            return va, ga, ha
        if k < 0 and va == 0.0:
            raise EvaluationError(
                "zero base with negative exponent", to_string(e)
            )
        g, h = _chain(va, ga, ha, k * _power(va, k - 1),
                      k * (k - 1) * _power(va, k - 2))
        return _power(va, k), g, h
    va, ga, ha = _jet(e.left, x, n)
    vb, gb, hb = _jet(e.right, x, n)
    if e.op == "+":
        return va + vb, ga + gb, ha + hb
    if e.op == "-":
        return va - vb, ga - gb, ha - hb
    if e.op == "*":
        cross = np.outer(ga, gb)
        return va * vb, va * gb + vb * ga, va * hb + vb * ha + cross + cross.T
    if vb == 0.0:
        raise EvaluationError("division by zero", to_string(e))
    q = va / vb
    gq = (ga - q * gb) / vb
    cross = np.outer(gq, gb)
    hq = (ha - q * hb - cross - cross.T) / vb
    return q, gq, hq


def _signed_tree(rng, n, depth):
    """A random tree with negative and zero constants, exponents -2..4 and,
    from constant leaves, constant sqrt and division subtrees."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        pick = rng.random()
        if pick < 0.5:
            return Var(int(rng.integers(1, n + 1)))
        if pick < 0.6:
            return Const(0.0)
        return Const(float(np.round(rng.uniform(-2.2, 2.2), 3)))
    if roll < 0.50:
        return Binary("+-*/"[rng.integers(0, 4)],
                      _signed_tree(rng, n, depth - 1),
                      _signed_tree(rng, n, depth - 1))
    if roll < 0.80:
        op = ("neg", "sin", "cos", "exp", "sqrt")[rng.integers(0, 5)]
        return Unary(op, _signed_tree(rng, n, depth - 1))
    return Power(_signed_tree(rng, n, depth - 1), int(rng.integers(-2, 5)))


def _assert_matches_oracle(e, x):
    """The generated code at every order against the tree oracle at x:
    the jet raises the same EvaluationError, or gives value, gradient and
    upper triangle bit for bit and an exactly symmetric Hessian, and then
    `value` and `value_and_grad` give the same value and gradient bits.
    Where the oracle fails otherwise (overflow, or a numpy warning from
    inf * 0 in a dense product) only the jet's EvaluationError is
    checked. Returns what the oracle did."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                value, grad, hess = _tree_jet(e, x)
    except EvaluationError:
        with pytest.raises(EvaluationError):
            evaluate_jet(e, x)
        return "raised"
    except (ArithmeticError, ValueError, RuntimeWarning):
        try:
            evaluate_jet(e, x)
        except EvaluationError:
            pass
        return "failed"
    jet = evaluate_jet(e, x)
    upper = np.triu_indices(len(x))
    assert np.array_equal([jet.value], [value], equal_nan=True)
    assert np.array_equal(jet.gradient, grad, equal_nan=True)
    assert np.array_equal(jet.hessian[upper], hess[upper], equal_nan=True)
    assert np.array_equal(jet.hessian, jet.hessian.T, equal_nan=True)
    compiled = compile_expression(e, len(x))
    assert np.array_equal([compiled.value(x)], [value], equal_nan=True)
    first_value, first_grad = compiled.value_and_grad(x)
    assert np.array_equal([first_value], [value], equal_nan=True)
    assert np.array_equal(first_grad, grad, equal_nan=True)
    return "equal"


def test_parse_single_variable():
    assert parse("x3", 3) == Var(3)


def test_parse_sphere_constraint_tree():
    tree = parse("x1^2 + x2^2 + x3^2 - 1", 3)
    expected = Binary(
        "-",
        Binary("+", Binary("+", Power(Var(1), 2), Power(Var(2), 2)),
               Power(Var(3), 2)),
        Const(1.0),
    )
    assert tree == expected


def test_variable_out_of_range():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1^2 + x4", 3)
    assert "x4" in str(err.value)
    assert err.value.position == 8


def test_precedence():
    # unary minus binds looser than ^ and tighter than *
    assert evaluate(parse("-x1^2", 1), [2.0]) == -4.0
    assert evaluate(parse("-x1*x2", 2), [2.0, 3.0]) == -6.0
    # left associativity
    assert evaluate(parse("8/4/2", 1), [0.0]) == 1.0
    assert evaluate(parse("x1^2^3", 1), [2.0]) == 64.0
    assert evaluate(parse("2 - 3 - 4", 1), [0.0]) == -5.0
    assert evaluate(parse("x1^-2", 1), [2.0]) == 0.25


@pytest.mark.parametrize("bad", ["x1^x2", "x1^2.5", "x1^(2)"])
def test_exponent_must_be_constant_integer(bad):
    with pytest.raises(ExpressionSyntaxError):
        parse(bad, 2)


@pytest.mark.parametrize("bad", ["tan(x1)", "y1 + 2", "x1 +", "(x1", "x1 @ 2", "x0"])
def test_syntax_errors_carry_position(bad):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(bad, 2)
    assert err.value.position >= 1


def test_whitespace_insignificant():
    assert parse(" x1 +  x2 ", 2) == parse("x1+x2", 2)


def test_jet_linear_function():
    jet = evaluate_jet(parse("x3", 3), [0.0, 0.0, -1.0])
    assert jet.value == -1.0
    assert np.array_equal(jet.gradient, [0.0, 0.0, 1.0])
    assert np.all(jet.hessian == 0.0)


def test_jet_quadratic_form():
    jet = evaluate_jet(parse("x1^2+x2^2+x3^2-1", 3), [0.0, 0.0, 1.0])
    assert jet.value == 0.0
    assert np.array_equal(jet.gradient, [0.0, 0.0, 2.0])
    assert np.array_equal(jet.hessian, 2.0 * np.eye(3))


def test_jet_product_rule():
    # hand differentiation: f = sin(x1) x2 at (0, 2)
    jet = evaluate_jet(parse("sin(x1)*x2", 2), [0.0, 2.0])
    assert jet.value == 0.0
    assert np.allclose(jet.gradient, [2.0, 0.0])
    assert np.allclose(jet.hessian, [[0.0, 1.0], [1.0, 0.0]])


def test_jet_hessian_exactly_symmetric():
    rng = np.random.default_rng(7)
    checked = 0
    for i in range(400):
        n = int(rng.integers(1, 4))
        make = _signed_tree if i % 2 else _random_expression
        expr = make(rng, n, 4)
        x = rng.uniform(-1.0, 1.0, n)
        try:
            jet = evaluate_jet(expr, x)
        except EvaluationError:
            continue
        checked += 1
        assert np.array_equal(jet.hessian, jet.hessian.T, equal_nan=True)
    assert checked > 300
    # The tree adds the two cross terms of a quotient's Hessian in the
    # other order below the diagonal, so its h_13 and h_31 differ here;
    # the jet mirrors the tree's upper triangle.
    expr = parse("x3 / exp((x3 + x1)^2)", 3)
    x = [-0.6135018046021679, -0.5777686298473714, -0.6310810009203371]
    hess = _tree_jet(expr, x)[2]
    assert hess[0, 2] != hess[2, 0]
    jet = evaluate_jet(expr, x)
    assert jet.hessian[0, 2] == jet.hessian[2, 0] == hess[0, 2]
    assert _assert_matches_oracle(expr, x) == "equal"


def test_jet_sum_linearity():
    a = parse("sin(x1)*x2", 2)
    b = parse("x1^3 - x2/2", 2)
    both = parse("sin(x1)*x2 + (x1^3 - x2/2)", 2)
    x = [0.7, -1.3]
    ja, jb, jab = evaluate_jet(a, x), evaluate_jet(b, x), evaluate_jet(both, x)
    assert jab.value == pytest.approx(ja.value + jb.value, abs=1e-15)
    assert np.allclose(jab.gradient, ja.gradient + jb.gradient, atol=1e-15)
    assert np.allclose(jab.hessian, ja.hessian + jb.hessian, atol=1e-15)


def test_division_by_zero_names_subexpression():
    expr = parse("1/(x1 - 1)", 1)
    with pytest.raises(EvaluationError) as err:
        evaluate_jet(expr, [1.0])
    assert "x1 - 1" in str(err.value)


def test_sqrt_domain():
    expr = parse("sqrt(x1)", 1)
    with pytest.raises(EvaluationError):
        evaluate_jet(expr, [-1.0])
    # value-only evaluation tolerates the boundary, jets do not
    assert evaluate(expr, [0.0]) == 0.0
    with pytest.raises(EvaluationError):
        evaluate_jet(expr, [0.0])


def test_negative_exponent_at_zero():
    with pytest.raises(EvaluationError):
        evaluate_jet(parse("x1^-2", 1), [0.0])


def test_zero_exponent_is_one_everywhere():
    # x1^0 is 1.0 at x1 = 0 too, in the tree walk and in generated code,
    # with no derivative
    expr = parse("x1^0 * x2", 2)
    x = [0.0, 3.0]
    assert evaluate(expr, x) == 3.0
    assert compile_expression(expr, 2).value_and_grad(x) == (3.0, (0.0, 1.0))
    jet = evaluate_jet(expr, x)
    assert jet.value == 3.0 and jet.gradient.tolist() == [0.0, 1.0]
    assert not jet.hessian.any()


@pytest.mark.parametrize("text, x, message", [
    ("sqrt(x1 - 2)", [1.0], "sqrt of negative value"),
    ("(x1 - 1)^-3", [1.0], "zero base with negative exponent"),
    ("x2 / (x1 - 1)", [1.0, 2.0], "division by zero"),
])
def test_plain_evaluation_failures_name_the_subexpression(text, x, message):
    expr = parse(text, len(x))
    with pytest.raises(EvaluationError, match=message) as err:
        evaluate(expr, x)
    assert "x1 - " in str(err.value)


def test_kkt_without_constraints_is_the_tree_jet():
    # the field kernel of f alone: no multipliers, no Jacobian rows or
    # constraint values, and H_lam = Hess f, as the tree oracle walks it
    expr = parse("x1^2*x2 + sin(x3)", 3)
    compiled = compile_expression(expr, 3)
    upper = np.triu_indices(3)
    points = [[0.3, 0.4, 0.5], [-1.2, 0.7, 2.5], [0.0, -0.0, 1.0]]
    for x in points:
        value, grad, jac, vals, hess = compiled.kkt(x, ())
        want_value, want_grad, want_hess = _tree_jet(expr, x)
        assert np.array_equal([value], [want_value])
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(hess[upper], want_hess[upper])
        assert np.array_equal(hess, hess.T)
        assert jac.shape == (0, 3) and vals.shape == (0,)
        jet = evaluate_jet(expr, x)
        assert type(jet.value) is float and jet.value == value
        assert np.array_equal(jet.hessian, hess)
    blocks, failed = compiled.kkt_columns(np.array(points).T,
                                          np.empty((0, len(points))))
    assert not failed.any()
    assert [b.shape for b in blocks] == [(3,), (3, 3), (3, 0, 3), (3, 0),
                                         (3, 3, 3)]
    for j, x in enumerate(points):
        for block, want in zip(blocks, compiled.kkt(x, ())):
            assert np.array_equal(block[j], want)


def test_roundtrip_fixed_cases():
    for text in (
        "x1^2 + x2^2 + x3^2 - 1.0",
        "-x1^2",
        "x1 - (x2 - x3)",
        "x1 * -x2",
        "(x1 + x2) * x3",
        "sin(x1) * exp(x2) / (2.0 + cos(x2))",
        "(x1^2)^3",
        "x1^-2",
    ):
        tree = parse(text, 3)
        assert parse(to_string(tree), 3) == tree


def test_roundtrip_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        tree = _random_expression(rng, n, depth=5)
        assert parse(to_string(tree), n) == tree


def test_compiled_matches_jets():
    # the first-order code against the tree oracle, bit for bit
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 4))
        expr = _random_expression(rng, n, depth=4)
        compiled = compile_expression(expr, n)
        x = rng.uniform(-1.2, 1.2, n)
        try:
            value_t, grad_t, _ = _tree_jet(expr, x)
            value, grad = compiled.value_and_grad(x)
        except EvaluationError:
            continue
        if not np.all(np.isfinite(grad_t)):
            # inf * 0 in the oracle's dense product, a term the
            # generated code leaves out
            continue
        checked += 1
        assert value == value_t
        assert np.array_equal(grad, grad_t)


def test_jet_matches_fd_well_conditioned():
    # step 1e-4 scaled per coordinate, relative tolerance 1e-5
    expr = parse("sin(x1)*exp(x2) + x1^3/(2 + cos(x2))", 2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        jet = evaluate_jet(expr, x)
        h = 1e-4 * np.maximum(1.0, np.abs(x))
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += h[i]
            xm[i] -= h[i]
            fd = (evaluate(expr, xp) - evaluate(expr, xm)) / (2 * h[i])
            assert fd == pytest.approx(jet.gradient[i], rel=1e-5, abs=1e-8)


def test_compiled_caching():
    expr = parse("x1 + x2", 2)
    assert compile_expression(expr, 2) is compile_expression(expr, 2)


def _point_rows(compiled, cols):
    """Each column's flat `value_and_grad` outputs, or None where the
    point call raises."""
    rows = []
    for x in cols.T.tolist():
        try:
            value, grad = compiled.value_and_grad(x)
        except EvaluationError:
            rows.append(None)
        else:
            rows.append([value, *grad])
    return rows


def test_compiled_columns_match_points():
    # the numpy twin of the generated code, on (n, N) coordinate columns
    # by `columns`: every row is its point's, bit for bit, as the twin
    # runs exp per entry (numpy's exp differs from math.exp in the last
    # bit on about 4.6% of points, x86-64, numpy 2.4), and so is every
    # row where a column raises
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 4))
        compiled = compile_expression(_random_expression(rng, n, depth=4), n)
        cols = rng.uniform(-1.2, 1.2, (n, 8))
        want = _point_rows(compiled, cols)
        got, failed = compiled.columns("value_and_grad", cols)
        assert failed.tolist() == [w is None for w in want]
        if failed.any():
            for row, w in zip(got, want):
                assert np.isnan(row).all() if w is None else row.tolist() == w
            continue
        checked += 1
        assert np.ascontiguousarray(got).tobytes() == np.array(want).tobytes()


def test_compiled_columns_polynomial_bit_equal():
    # powers up to |k| = 4 are product chains (1.0 / chain for k < 0) and
    # IEEE / and sqrt are correctly rounded in math and numpy alike, so
    # points and columns agree bit for bit; libm's pow and numpy's power
    # of columns differ for k = 3, 4, -3 on about 5% of points
    cols = np.random.default_rng(2).uniform(-3.0, 3.0, (3, 50))
    for text in ("(x1^2 + x2^2 + x3^2 + 3)^2 - 16 * (x1^2 + x2^2)",
                 "x1 / (x2^2 + 1) + sqrt(x3^2 + 1)",
                 "x1^3 - 2 * x2^4 * x3 + x3^-1",
                 "x1^-3 * x2 + sqrt(x2^4 + 1) / (x3^3 + 30)"):
        compiled = compile_expression(parse(text, 3), 3)
        got, failed = compiled.columns("value_and_grad", cols)
        assert not failed.any()
        assert got.tolist() == _point_rows(compiled, cols)


def test_compiled_columns_domain_errors():
    # `columns` flags the columns whose point call raises, and nothing
    # else; where every column fails the rows keep their width, all nan
    cols = np.array([[0.5, -1.0], [1.0, 1.0]])
    for text, failing in (("sqrt(x1)", [False, True]),
                          ("x2 / (x1 + 1)", [False, True]),
                          ("exp(1000 * x2)", [True, True]),
                          # powers above the fourth, pow(a, k) per entry
                          ("(x1 + 1)^-5", [False, True]),
                          ("(1e300 * x2)^7", [True, True])):
        compiled = compile_expression(parse(text, 2), 2)
        got, failed = compiled.columns("value_and_grad", cols)
        assert failed.tolist() == failing
        assert got.shape == (2, 3)
        assert [w is None for w in _point_rows(compiled, cols)] == failing
        assert np.isnan(got[failed]).all()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
       depth=st.integers(1, 6), signed=st.booleans())
def test_jet_matches_tree_oracle(seed, n, depth, signed):
    rng = np.random.default_rng(seed)
    make = _signed_tree if signed else _random_expression
    _assert_matches_oracle(make(rng, n, depth), rng.uniform(-1.5, 1.5, n))


def test_jet_matches_tree_oracle_on_random_trees():
    # a fixed sample of the property above, large enough that every
    # outcome shows
    rng = np.random.default_rng(17)
    outcomes = collections.Counter()
    for i in range(1500):
        n = int(rng.integers(1, 5))
        expr = (_signed_tree if i % 2 else _random_expression)(rng, n, 5)
        outcomes[_assert_matches_oracle(expr, rng.uniform(-1.5, 1.5, n))] += 1
    assert outcomes["equal"] > 1000
    assert outcomes["raised"] > 100
    assert outcomes["failed"] > 0


@pytest.mark.parametrize("name", ["sphere2", "sphereM", "torus_upright",
                                  "clifford"])
def test_jet_matches_tree_oracle_on_catalog(name):
    # f and every F_i of a catalog scenario: the whole Hessian, not only
    # the upper triangle, is the tree's, and so are `value` and
    # `value_and_grad`
    scenario = load_scenario(name)
    m = scenario.build_manifold()
    for x in m.sample_points(200, seed=3):
        for expr in (scenario.build_function(), *m.constraints):
            jet = evaluate_jet(expr, x)
            value, grad, hess = _tree_jet(expr, x)
            assert jet.value == value
            assert np.array_equal(jet.gradient, grad)
            assert np.array_equal(jet.hessian, hess)
            compiled = compile_expression(expr, len(x))
            assert compiled.value(x) == value
            assert compiled.value_and_grad(x) == (value, tuple(grad))


NEGATIVE_CONSTANTS = [
    Power(Const(-2.0), 4),
    Power(Const(-2.0), 3),
    Binary("*", Power(Const(-0.5), 2), Var(1)),
    Binary("*", Const(-1.5), Power(Var(1), 3)),
    Power(Binary("+", Var(1), Const(-2.0)), 3),
    Binary("-", Var(2), Power(Const(-3.0), 2)),
    Binary("/", Power(Const(-2.0), 2), Binary("-", Var(1), Const(-1.0))),
    Unary("neg", Power(Const(-1.25), 2)),
    Unary("exp", Binary("*", Power(Const(-0.0), 2), Var(2))),
    # a negated literal is a local of its own, never an inlined -2.0
    *(parse(text, 2) for text in ("(-2)^6 + x1", "(-x1)^6", "-(2)^6*x1",
                                  "-1*x1^6")),
]


@pytest.mark.parametrize("expr", NEGATIVE_CONSTANTS, ids=to_string)
def test_negative_constants_in_generated_code(expr):
    # -2.0 ** 4 is -(2.0 ** 4) in Python, so a bare negative constant
    # token read 16 as -16; the printed form had the same fault
    x = [0.7, -1.3]
    want = evaluate(expr, x)
    assert evaluate(parse(to_string(expr), 2), x) == want
    compiled = compile_expression(expr, 2)
    assert compiled.value(x) == want
    assert compiled.value_and_grad(x)[0] == want
    assert evaluate_jet(expr, x).value == want
    assert _assert_matches_oracle(expr, x) == "equal"
    value, grad = compiled.value_and_grad(x)
    assert np.array_equal(grad, _tree_jet(expr, x)[1])


@pytest.mark.parametrize("text, x", [
    ("exp(x1)", [1000.0]),           # math.exp overflows
    ("x1^400", [1e3]),               # float ** int overflows
    ("sqrt(0) * x1", [1.0]),         # constant sqrt argument 0
    ("sqrt(1 - 1) + x1", [1.0]),     # the same, computed
    ("sqrt(-1) * x1", [1.0]),        # constant sqrt argument < 0
    ("x1 / (2 - 2)", [1.0]),         # constant division by zero
    ("x1 + x3", [1.0, 2.0]),         # point shorter than the expression
])
def test_jet_failures_are_evaluation_errors(text, x):
    with pytest.raises(EvaluationError):
        evaluate_jet(parse(text, 3), x)


@pytest.mark.parametrize("text", ["x1*x2 - x3", "sin(x1)", "(x1 + 1)^2"])
def test_value_code_forms_no_derivatives(text):
    # order 0 forms values only: no gradient (g) or derivative factor (w)
    # locals
    code = compile_expression(parse(text, 3), 3)._value.__code__
    assert [name for name in code.co_varnames if name[0] in "gw"] == []


@pytest.mark.parametrize("text, value, grad", [
    ("sqrt(0) * x1", 0.0, (0.0,)),
    ("sqrt(1 - 1) + x1", 1.5, (1.0,)),
])
def test_constant_sqrt_of_zero_below_order_two(text, value, grad):
    # sqrt' is formed for a gradient, and a constant argument has none, so
    # values and gradients evaluate where the jet raises
    compiled = compile_expression(parse(text, 1), 1)
    assert compiled.value([1.5]) == value
    assert compiled.value_and_grad([1.5]) == (value, grad)
    with pytest.raises(EvaluationError):
        evaluate_jet(parse(text, 1), [1.5])


@pytest.mark.parametrize("text, position", [
    ("1e999*x1", 1),
    ("x1 + " + "1" * 401, 6),
], ids=["1e999", "401 digits"])
def test_non_finite_literal_is_a_syntax_error(text, position):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text, 1)
    assert err.value.position == position


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_constant_is_rejected(value):
    expr = Binary("*", Const(value), Var(1))
    with pytest.raises(ValueError):
        compile_expression(expr, 1)
    with pytest.raises(EvaluationError):
        evaluate_jet(expr, [1.0])


def test_field_kernel_forms_no_constraint_value():
    # the field kernel reads only the Jacobian of sphere2's
    # F = x1^2 + x2^2 + x3^2 - 1, so none of F's value locals (v) is
    # left in it; the retraction, which returns F, forms them
    scenario = load_scenario("sphere2")
    m, f = scenario.build_manifold(), scenario.build_function()
    kernel = compile_expression(f, 3, m.constraints)
    names = kernel._value_grad.__code__.co_varnames
    assert [name for name in names if name[0] == "v"] == []
    names = compile_expression(
        m.constraints, 3).gauss_newton().__code__.co_varnames
    assert [name for name in names if name[0] == "v"] != []


def test_dead_power_still_raises():
    # `project_rows` and the field kernel read only F's gradient, 7 x1^6,
    # which is finite at x1 = 1e45; F's value x1 ** 7 is read by neither,
    # but stays as a line that can raise, so its overflow raises as before
    constraints = (parse("x1^7 + x2 - 1", 2),)
    cmap = compile_expression(constraints, 2)
    kernel = compile_expression(parse("x2", 2), 2, constraints)
    x = [1e45, 0.0]
    with pytest.raises(EvaluationError):
        cmap.project_rows(x, [1.0, 0.0])
    with pytest.raises(EvaluationError):
        kernel.value_and_grad(x)
    # and a batch of that one point flags it
    assert kernel.columns("value_and_grad",
                          np.array([x]).T)[1].tolist() == [True]
    # the gradient alone evaluates there
    assert math.isfinite(compile_expression(
        parse("7 * x1^6", 2), 2).value(x))
