"""End-to-end acceptance sweep.

Each test runs one numbered criterion, prints its one-line report (pytest -s
shows them; the detail string also lands in any failure message), and asserts
the criterion passed at its stated tolerance.  Tolerances live next to the
criterion implementations in tensorstat.acceptance.
"""

import pytest

from tensorstat import acceptance
from tensorstat.charalg import DecompositionTable


def _check(index):
    result = acceptance.ALL_CRITERIA[index]()
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_klimyk_matches_naive_decomposition():
    _check(1)


def test_criterion_02_type_a_hook_multiplicities():
    _check(2)


def test_criterion_03_rate_function_error_decreases_in_n():
    _check(3)


def test_criterion_04_sln_closed_forms():
    _check(4)


def test_criterion_05_hessian_at_origin_proportional_to_b():
    _check(5)


def test_criterion_06_rate_pde_and_derivatives():
    _check(6)


def test_criterion_07_limit_density_normalizations():
    _check(7)


def test_criterion_08_plancherel_weak_convergence():
    _check(8)


def test_criterion_09_gaussian_weak_convergence_and_mode():
    _check(9)


def test_criterion_10_intermediate_law_and_interpolation():
    _check(10)


def test_criterion_11_markov_evolution_sampling_determinism():
    _check(11)


def test_criterion_12_measure_normalization_and_dimensions():
    _check(12)


def test_criterion_13_wall_t_convergence():
    _check(13)


@pytest.mark.parametrize("index", sorted(acceptance.ALL_CRITERIA))
def test_registry_names_are_stable(index):
    fn = acceptance.ALL_CRITERIA[index]
    assert callable(fn)


def test_criterion_12_fails_on_a_broken_dimension_identity(monkeypatch):
    monkeypatch.setattr(DecompositionTable, "check_dimension_identity", lambda self: False)
    assert acceptance.criterion_12().passed is False


def test_criterion_12_fails_outside_the_support_cone(monkeypatch):
    monkeypatch.setattr(DecompositionTable, "check_support_in_cone", lambda self: False)
    assert acceptance.criterion_12().passed is False
