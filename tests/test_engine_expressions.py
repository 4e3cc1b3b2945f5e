"""Tests for repro.engine.expressions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import col, lit
from repro.engine.expressions import (
    FunctionCall,
    IsNull,
    combine_and,
    conjuncts,
    resolve_column,
)
from repro.errors import QueryError


class TestResolution:
    def test_exact_match(self):
        assert resolve_column({"a": 1}, "a") == 1

    def test_suffix_match(self):
        assert resolve_column({"t.a": 1, "t.b": 2}, "a") == 1

    def test_ambiguous(self):
        with pytest.raises(QueryError):
            resolve_column({"t.a": 1, "u.a": 2}, "a")

    def test_unknown(self):
        with pytest.raises(QueryError):
            resolve_column({"a": 1}, "zzz")


class TestArithmetic:
    def test_add_mul(self):
        expr = (col("x") + 2) * col("y")
        assert expr.evaluate({"x": 3, "y": 4}) == 20

    def test_reverse_operators(self):
        expr = 10 - col("x")
        assert expr.evaluate({"x": 3}) == 7
        expr = 2 / col("x")
        assert expr.evaluate({"x": 4}) == 0.5

    def test_null_propagation(self):
        assert (col("x") + 1).evaluate({"x": None}) is None

    def test_mod(self):
        assert (col("x") % 3).evaluate({"x": 7}) == 1

    def test_unary_negation(self):
        assert (-col("x")).evaluate({"x": 5}) == -5


class TestComparisonsAndBooleans:
    def test_comparisons(self):
        row = {"x": 5}
        assert (col("x") > 4).evaluate(row) is True
        assert (col("x") < 4).evaluate(row) is False
        assert (col("x") >= 5).evaluate(row) is True
        assert (col("x") != 5).evaluate(row) is False

    def test_three_valued_and(self):
        # False AND NULL = False; True AND NULL = NULL
        false_and_null = (col("a") == 1) & (col("b") == 1)
        assert false_and_null.evaluate({"a": 0, "b": None}) is False
        true_and_null = (col("a") == 0) & (col("b") == 1)
        assert true_and_null.evaluate({"a": 0, "b": None}) is None

    def test_three_valued_or(self):
        true_or_null = (col("a") == 0) | (col("b") == 1)
        assert true_or_null.evaluate({"a": 0, "b": None}) is True
        false_or_null = (col("a") == 1) | (col("b") == 1)
        assert false_or_null.evaluate({"a": 0, "b": None}) is None

    def test_not(self):
        assert (~(col("x") > 1)).evaluate({"x": 0}) is True

    def test_between(self):
        expr = col("age").between(0, 4)
        assert expr.evaluate({"age": 3}) is True
        assert expr.evaluate({"age": 5}) is False

    def test_in_list(self):
        expr = col("region").is_in(["east", "west"])
        assert expr.evaluate({"region": "east"}) is True
        assert expr.evaluate({"region": "north"}) is False
        assert expr.evaluate({"region": None}) is None

    def test_is_null(self):
        assert IsNull(col("x")).evaluate({"x": None}) is True
        assert IsNull(col("x"), negated=True).evaluate({"x": None}) is False


class TestFunctions:
    def test_abs_sqrt(self):
        assert FunctionCall("abs", [col("x")]).evaluate({"x": -3}) == 3
        assert FunctionCall("sqrt", [lit(9.0)]).evaluate({}) == 3.0

    def test_coalesce(self):
        expr = FunctionCall("coalesce", [col("a"), col("b"), lit(0)])
        assert expr.evaluate({"a": None, "b": 5}) == 5
        assert expr.evaluate({"a": None, "b": None}) == 0

    def test_string_functions(self):
        assert FunctionCall("upper", [lit("abc")]).evaluate({}) == "ABC"
        assert FunctionCall("length", [lit("abcd")]).evaluate({}) == 4

    def test_null_in_regular_function(self):
        assert FunctionCall("abs", [col("x")]).evaluate({"x": None}) is None

    def test_unknown_function(self):
        with pytest.raises(QueryError):
            FunctionCall("frobnicate", [])


class TestConjuncts:
    def test_split_and_combine_roundtrip(self):
        pred = (col("a") > 1) & (col("b") < 2) & (col("c") == 3)
        parts = conjuncts(pred)
        assert len(parts) == 3
        rebuilt = combine_and(parts)
        row = {"a": 2, "b": 1, "c": 3}
        assert rebuilt.evaluate(row) is True

    def test_combine_empty_is_true(self):
        assert combine_and([]).evaluate({}) is True

    def test_columns_collection(self):
        pred = (col("a") + col("b")) > col("c")
        assert pred.columns() == frozenset({"a", "b", "c"})


@given(
    x=st.integers(-100, 100),
    y=st.integers(-100, 100),
)
@settings(max_examples=50, deadline=None)
def test_expression_arithmetic_matches_python(x, y):
    row = {"x": x, "y": y}
    assert (col("x") + col("y")).evaluate(row) == x + y
    assert (col("x") * col("y")).evaluate(row) == x * y
    assert (col("x") > col("y")).evaluate(row) == (x > y)
