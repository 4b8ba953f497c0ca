"""Tests of the logical field path model."""

from __future__ import annotations

import pytest

from repro.core import INDEX, FieldPath, MessageError


class TestParsing:
    def test_parse_simple_dotted_path(self):
        path = FieldPath.parse("header.transaction_id")
        assert path.steps == ("header", "transaction_id")

    def test_parse_empty_string_is_root(self):
        assert FieldPath.parse("").steps == ()

    def test_parse_unbound_index(self):
        path = FieldPath.parse("headers[*].name")
        assert path.steps == ("headers", INDEX, "name")

    def test_parse_concrete_index(self):
        path = FieldPath.parse("registers[2]")
        assert path.steps == ("registers", 2)

    def test_parse_multiple_brackets_on_one_segment(self):
        path = FieldPath.parse("matrix[1][2]")
        assert path.steps == ("matrix", 1, 2)

    def test_parse_rejects_invalid_segment(self):
        with pytest.raises(MessageError):
            FieldPath.parse("bad segment")

    def test_parse_rejects_leading_dot(self):
        with pytest.raises(MessageError):
            FieldPath.parse(".name")

    def test_parse_is_memoized_per_string(self):
        assert FieldPath.parse("headers[*].name") is FieldPath.parse("headers[*].name")

    def test_invalid_path_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(MessageError, match="invalid field path segment"):
                FieldPath.parse("a..b")

    def test_of_accepts_path_string_and_steps(self):
        path = FieldPath.parse("a.b")
        assert FieldPath.of(path) is path
        assert FieldPath.of("a.b") == path
        assert FieldPath.of(["a", "b"]) == path

    def test_invalid_step_type_rejected(self):
        with pytest.raises(MessageError):
            FieldPath(["a", 1.5])  # type: ignore[list-item]


class TestCombinators:
    def test_child_and_extend(self):
        base = FieldPath.parse("a")
        assert base.child("b").steps == ("a", "b")
        assert base.extend(["b", 0]).steps == ("a", "b", 0)

    def test_parent(self):
        assert FieldPath.parse("a.b").parent() == FieldPath.parse("a")

    def test_parent_of_root_raises(self):
        with pytest.raises(MessageError):
            FieldPath().parent()

    def test_resolve_binds_indices_left_to_right(self):
        path = FieldPath.parse("rows[*].cells[*].value")
        assert path.resolve([1, 3]).steps == ("rows", 1, "cells", 3, "value")

    def test_resolve_ignores_extra_indices(self):
        path = FieldPath.parse("rows[*].value")
        assert path.resolve([2, 9, 9]).steps == ("rows", 2, "value")

    def test_resolve_with_too_few_indices_raises(self):
        with pytest.raises(MessageError):
            FieldPath.parse("rows[*].value").resolve([])

    def test_startswith(self):
        path = FieldPath.parse("a.b.c")
        assert path.startswith(FieldPath.parse("a.b"))
        assert not path.startswith(FieldPath.parse("a.c"))


class TestInspection:
    def test_is_concrete(self):
        assert FieldPath.parse("a.b[0]").is_concrete
        assert not FieldPath.parse("a.b[*]").is_concrete

    def test_index_arity(self):
        assert FieldPath.parse("a[*].b[*]").index_arity() == 2
        assert FieldPath.parse("a.b").index_arity() == 0

    def test_leaf_name(self):
        assert FieldPath.parse("a.b").leaf_name() == "b"
        assert FieldPath.parse("a[0]").leaf_name() is None

    def test_str_round_trip(self):
        for text in ("a", "a.b", "a[*].b", "a[3].b[*]", ""):
            assert str(FieldPath.parse(text)) == text

    def test_equality_and_hash(self):
        assert FieldPath.parse("a.b") == FieldPath.parse("a.b")
        assert hash(FieldPath.parse("a.b")) == hash(FieldPath.parse("a.b"))
        assert FieldPath.parse("a.b") != FieldPath.parse("a.c")

    def test_len_bool_iter(self):
        path = FieldPath.parse("a.b")
        assert len(path) == 2
        assert bool(path)
        assert not bool(FieldPath())
        assert list(path) == ["a", "b"]

    def test_repr_contains_text(self):
        assert "a.b" in repr(FieldPath.parse("a.b"))

    def test_index_sentinel_is_singleton(self):
        import copy

        assert copy.deepcopy(INDEX) is INDEX
        assert copy.copy(INDEX) is INDEX
