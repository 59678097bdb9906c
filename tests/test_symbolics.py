import math

import numpy as np
import pytest

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
    for _ in range(40):
        n = int(rng.integers(1, 4))
        expr = _random_expression(rng, n, depth=4)
        x = rng.uniform(-1.0, 1.0, n)
        try:
            jet = evaluate_jet(expr, x)
        except EvaluationError:
            continue
        assert np.array_equal(jet.hessian, jet.hessian.T)


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
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 4))
        expr = _random_expression(rng, n, depth=4)
        compiled = compile_expression(expr, n)
        x = rng.uniform(-1.2, 1.2, n)
        try:
            jet = evaluate_jet(expr, x)
            value, grad = compiled.value_and_grad(x)
        except EvaluationError:
            continue
        if not np.all(np.isfinite(jet.gradient)) or abs(jet.value) > 1e8:
            continue
        checked += 1
        scale = max(1.0, abs(jet.value))
        assert abs(value - jet.value) <= 1e-12 * scale
        gscale = np.maximum(1.0, np.abs(jet.gradient))
        assert np.all(np.abs(np.array(grad) - jet.gradient) <= 1e-11 * gscale)


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


def test_compiled_columns_match_points():
    # the numpy twin of the generated code, on (n, N) coordinate columns
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 4))
        compiled = compile_expression(_random_expression(rng, n, depth=4), n)
        cols = rng.uniform(-1.2, 1.2, (n, 8))
        try:
            points = [compiled.value_and_grad(x) for x in cols.T.tolist()]
        except EvaluationError:
            with pytest.raises(EvaluationError):
                compiled.value_and_grad(cols)
            continue
        checked += 1
        value, grad = compiled.value_and_grad(cols)
        want = np.array([[v, *g] for v, g in points])
        got = np.column_stack(np.broadcast_arrays(value, *grad))
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_compiled_columns_polynomial_bit_equal():
    torus = "(x1^2 + x2^2 + x3^2 + 3)^2 - 16 * (x1^2 + x2^2)"
    compiled = compile_expression(parse(torus, 3), 3)
    cols = np.random.default_rng(2).uniform(-3.0, 3.0, (3, 50))
    value, grad = compiled.value_and_grad(cols)
    for j, x in enumerate(cols.T.tolist()):
        v, g = compiled.value_and_grad(x)
        assert value[j] == v
        assert [c[j] for c in grad] == list(g)


def test_compiled_columns_domain_errors():
    cols = np.array([[0.5, -1.0], [1.0, 1.0]])
    with pytest.raises(EvaluationError):
        compile_expression(parse("sqrt(x1)", 2), 2).value_and_grad(cols)
    with pytest.raises(EvaluationError):
        compile_expression(parse("x2 / (x1 + 1)", 2), 2).value_and_grad(cols)
    with pytest.raises(EvaluationError):
        compile_expression(parse("exp(1000 * x2)", 2), 2).value_and_grad(cols)
