"""Tests for the table renderer, validators and parallel helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util import parallel, validation
from repro.util.errors import ReproError, SolverError
from repro.util.tables import Table, format_table


class TestTable:
    def test_render_alignment_and_title(self):
        t = Table("Demo", ["name", "value"])
        t.add_row("alpha", 12)
        t.add_row("beta", 345)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert set(lines[1]) == {"="}
        assert "alpha" in text and "345" in text

    def test_row_arity_checked(self):
        t = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_float_and_bool_formatting(self):
        text = format_table("T", ["x"], [[1.23456], [True]])
        assert "1.235" in text
        assert "yes" in text

    def test_str_is_render(self):
        t = Table("X", ["c"])
        t.add_row(1)
        assert str(t) == t.render()


class TestValidation:
    def test_require_raises_chosen_type(self):
        with pytest.raises(SolverError):
            validation.require(False, SolverError, "bad %s", "thing")
        validation.require(True, SolverError, "never")

    def test_check_vertex(self):
        assert validation.check_vertex(3, 5) == 3
        with pytest.raises(ValueError):
            validation.check_vertex(5, 5)
        with pytest.raises(ValueError):
            validation.check_vertex(-1, 5)

    def test_check_parities(self):
        assert validation.check_odd(7) == 7
        assert validation.check_even(8) == 8
        with pytest.raises(ValueError):
            validation.check_odd(4)
        with pytest.raises(ValueError):
            validation.check_even(9)

    def test_check_positive(self):
        assert validation.check_positive(2) == 2
        with pytest.raises(ValueError):
            validation.check_positive(0)

    def test_as_int_accepts_numpy(self):
        assert validation.as_int(np.int64(9)) == 9

    def test_as_int_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            validation.as_int(True)
        with pytest.raises(TypeError):
            validation.as_int(3.0)

    def test_all_distinct(self):
        assert validation.all_distinct([1, 2, 3])
        assert not validation.all_distinct([1, 2, 1])


def _square(x: int) -> int:
    return x * x


class TestParallel:
    def test_serial_small_payload(self):
        assert parallel.parallel_map(_square, [1, 2, 3], workers=4) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        items = list(range(40))
        out = parallel.parallel_map(_square, items, workers=2, min_chunk=1)
        assert out == [x * x for x in items]

    def test_workers_one_is_serial(self):
        assert parallel.parallel_map(_square, list(range(10)), workers=1) == [
            x * x for x in range(10)
        ]

    def test_default_workers_positive(self):
        assert parallel.default_workers() >= 1


class TestErrors:
    def test_hierarchy(self):
        from repro.util.errors import (
            CapacityError,
            ConstructionError,
            InvalidBlockError,
            InvalidCoveringError,
            RoutingError,
            TopologyError,
        )

        for exc in (
            CapacityError,
            ConstructionError,
            InvalidBlockError,
            InvalidCoveringError,
            RoutingError,
            SolverError,
            TopologyError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(InvalidBlockError, ValueError)
