"""Tests of the internal utility helpers."""

import numpy as np
import pytest

from repro._util import (
    Timer,
    as_generator,
    check_fraction,
    check_positive,
    check_probability,
    check_threshold,
    spawn_generators,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_deterministic(self):
        a = as_generator(5).random(4)
        b = as_generator(5).random(4)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = as_generator(0)
        assert as_generator(g) is g

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        assert isinstance(as_generator(ss), np.random.Generator)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            as_generator("seed")

    def test_spawn_independence(self):
        a, b = spawn_generators(3, 2)
        assert not np.array_equal(a.random(8), b.random(8))

    def test_spawn_deterministic(self):
        a1, b1 = spawn_generators(3, 2)
        a2, b2 = spawn_generators(3, 2)
        assert np.array_equal(a1.random(4), a2.random(4))
        assert np.array_equal(b1.random(4), b2.random(4))

    def test_spawn_from_generator(self):
        children = spawn_generators(as_generator(0), 3)
        assert len(children) == 3

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1.0)
        check_positive("x", 0.0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)
        for strict in (True, False):
            with pytest.raises(ValueError):
                check_positive("x", float("nan"), strict=strict)
        with pytest.raises(TypeError):
            check_positive("x", "one")

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.0001)
        with pytest.raises(TypeError):
            check_probability("p", None)

    def test_check_fraction(self):
        check_fraction("f", 1.0)
        with pytest.raises(ValueError):
            check_fraction("f", 0.0)

    def test_check_threshold(self):
        check_threshold("eps", 0.2)
        with pytest.raises(ValueError):
            check_threshold("eps", 1.0)
        with pytest.raises(ValueError):
            check_threshold("eps", 0.0)


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        for _ in range(3):
            with t:
                pass
        assert t.count == 3
        assert t.total >= 0
        assert t.mean == pytest.approx(t.total / 3)

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.count == 0
        assert t.mean == 0.0
