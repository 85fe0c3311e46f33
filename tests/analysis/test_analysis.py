"""Fitting and table utilities."""

import numpy as np
import pytest

from repro.analysis import fit_linear, r_squared, render_table
from repro.errors import ConfigurationError, ShapeError


class TestFitting:
    def test_exact_line(self):
        x = np.linspace(0, 1, 20)
        fit = fit_linear(x, 3.0 * x + 2.0)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_through_origin(self):
        x = np.linspace(0.1, 1, 10)
        fit = fit_linear(x, 4.0 * x, through_origin=True)
        assert fit.slope == pytest.approx(4.0)
        assert fit.intercept == pytest.approx(0.0)

    def test_predict(self):
        fit = fit_linear(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert fit.predict(np.array([2.0]))[0] == pytest.approx(5.0)

    def test_noisy_r2_below_one(self, rng):
        x = np.linspace(0, 1, 200)
        y = x + rng.normal(0, 0.3, 200)
        fit = fit_linear(x, y)
        assert 0.0 < fit.r2 < 1.0

    def test_r_squared_constant_target(self):
        y = np.ones(5)
        assert r_squared(y, y) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ShapeError):
            fit_linear(np.zeros(1), np.zeros(1))
        with pytest.raises(ShapeError):
            fit_linear(np.zeros(3), np.zeros(4))
        with pytest.raises(ShapeError):
            fit_linear(np.zeros(3), np.zeros(3), through_origin=True)


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["name", "v"], [["a", 1.5], ["long-name", 2]])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_title(self):
        text = render_table(["a"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_float_formatting(self):
        text = render_table(["x"], [[1.23456e-7]])
        assert "1.235e-07" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            render_table([], [])
        with pytest.raises(ConfigurationError):
            render_table(["a"], [[1, 2]])
