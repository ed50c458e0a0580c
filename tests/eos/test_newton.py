"""Tests for the Newton-Raphson EOS inversion (the Hypothesis 2 mechanism)."""
import warnings

import numpy as np
import pytest

from repro.core import FPFormat, RaptorRuntime, TruncatedContext
from repro.eos import HelmholtzTable, NewtonSolverConfig, invert_energy
from repro.kernels import select_context


@pytest.fixture(scope="module")
def table():
    return HelmholtzTable()


def make_problem(table, n=16, seed=0):
    rng = np.random.default_rng(seed)
    rho = 10.0 ** rng.uniform(5.0, 7.0, n)
    temp_true = 10.0 ** rng.uniform(8.2, 9.5, n)
    energy = np.asarray(table.energy(rho, temp_true))
    guess = temp_true * rng.uniform(0.6, 1.4, n)
    return rho, temp_true, energy, guess


class TestFullPrecisionConvergence:
    def test_converges_and_recovers_temperature(self, table):
        rho, temp_true, energy, guess = make_problem(table)
        result = invert_energy(table, rho, energy, guess, NewtonSolverConfig(tolerance=1e-10))
        assert result.converged
        assert result.iterations < 40
        assert np.max(np.abs(result.temperature - temp_true) / temp_true) < 1e-6

    def test_residual_history_decreases(self, table):
        rho, _, energy, guess = make_problem(table, seed=1)
        result = invert_energy(table, rho, energy, guess)
        assert result.residual_history[-1] < result.residual_history[0]

    def test_poor_guess_still_converges(self, table):
        rho, temp_true, energy, _ = make_problem(table, seed=2)
        guess = np.full_like(temp_true, 2e8)
        result = invert_energy(table, rho, energy, guess, NewtonSolverConfig(max_iterations=60))
        assert result.converged

    def test_iteration_limit_enforced(self, table):
        rho, _, energy, guess = make_problem(table, seed=3)
        cfg = NewtonSolverConfig(tolerance=1e-30, max_iterations=5)
        result = invert_energy(table, rho, energy, guess, cfg)
        assert not result.converged
        assert result.iterations == 5
        assert result.failed


class TestTruncatedConvergence:
    """The core of Hypothesis 2: convergence collapses below a mantissa threshold."""

    def _run(self, table, man_bits, tolerance=1e-10, max_iterations=40):
        rho, _, energy, guess = make_problem(table, seed=4)
        ctx = TruncatedContext(FPFormat(11, man_bits), runtime=RaptorRuntime(), module="eos")
        cfg = NewtonSolverConfig(tolerance=tolerance, max_iterations=max_iterations)
        return invert_energy(table, rho, energy, guess, cfg, ctx)

    def test_converges_with_wide_mantissa(self, table):
        assert self._run(table, 52).converged
        assert self._run(table, 48).converged

    def test_fails_with_narrow_mantissa(self, table):
        assert not self._run(table, 16).converged
        assert not self._run(table, 8).converged

    def test_failure_threshold_is_monotone(self, table):
        """Once the iteration fails at some width, it fails for all narrower widths."""
        widths = [8, 16, 24, 32, 40, 48, 52]
        outcomes = [self._run(table, m).converged for m in widths]
        # monotone: no True followed later by False when moving to wider mantissas
        first_success = outcomes.index(True) if True in outcomes else len(outcomes)
        assert all(outcomes[first_success:])
        assert not any(outcomes[:first_success])
        # the threshold sits in the upper half of the mantissa range (paper: ~42 bits)
        assert 24 <= widths[first_success] <= 52

    def test_relaxing_tolerance_does_not_rescue_very_low_precision(self, table):
        """The paper tried decreasing the tolerance and raising the iteration
        count and still failed to converge; reproduce that for small mantissas."""
        result = self._run(table, 10, tolerance=1e-8, max_iterations=200)
        assert not result.converged

    def test_truncated_residual_stalls_above_tolerance(self, table):
        result = self._run(table, 16)
        assert result.max_residual > 1e-10
        assert np.all(np.isfinite(result.temperature))

    @pytest.mark.parametrize("plane", ["instrumented", "auto"])
    @pytest.mark.parametrize("count_ops", [True, False])
    def test_stalled_solve_warns_nothing(self, table, plane, count_ops):
        """A stalled e8m10 solve divides by a zero derivative by design
        (the clip bounds the step): expected, so it raises no warning, on
        the op-by-op, counted and fast truncating planes alike."""
        rho, _, energy, guess = make_problem(table, seed=4)
        ctx = select_context(TruncatedContext(
            FPFormat(8, 10), runtime=RaptorRuntime(), module="eos", count_ops=count_ops,
            track_memory=count_ops), plane)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invert_energy(table, rho, energy, guess, NewtonSolverConfig(), ctx)
        assert not result.converged
