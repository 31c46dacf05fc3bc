"""The public result types are NamedTuples: their fields, immutability, equality, hashing and pickling.

Six of them (AlgebraSpec, RootSystem, WeightSystem, DecompositionTable,
TensorProblem, MeasureTable) subclass a NamedTuple of their fields to keep
a check in __new__ or cached_property values in an instance __dict__.
"""

import pickle

import numpy as np
import pytest

import tensorstat as ts
from tensorstat import AlgebraSpec, InvalidAlgebraError, RatePoint, build_root_system, tensor_problem

FIELDS = {
    "AlgebraSpec": ("family", "rank"),
    "RootSystem": (
        "spec", "cartan", "d", "B", "cartan_inverse", "positive_roots", "rho_weight", "rho_root", "dim_g",
    ),
    "WeightSystem": ("rs", "highest", "dominant_multiplicities"),
    "DecompositionTable": ("algebra", "problem", "entries"),
    "TensorProblem": ("rs", "factors", "epsilon"),
    "RatePoint": ("algebra", "xi", "x", "S", "grad_S", "hess_f", "K", "log_prefactor"),
    "TransitionRow": ("source", "targets"),
    "Trajectory": ("seed", "chain", "steps"),
    "Scaling": ("epsilon", "x_scalar", "center", "spread"),
    "MeasureRow": ("weight", "probability", "scaled"),
    "MeasureTable": ("algebra", "problem", "t", "epsilon", "scaling", "rows"),
    "WeakConvergenceReport": ("tv", "exact_mass_in_grid", "limit_mass_in_grid", "cells"),
    "DerivativeReport": ("xi_deviation", "tau_deviation"),
    "PdeReport": ("lhs", "rhs", "residual", "tau_partial", "tau_partial_fd", "xi_partials", "xi_partials_fd"),
    "SlnClosedForm": ("n", "tau", "xi", "sigma", "S", "x", "log_chi", "det_K", "log_prefactor"),
}
# fields holding a dict: their records do not hash, as before
UNHASHABLE = {"WeightSystem", "DecompositionTable"}


@pytest.fixture(scope="module")
def records():
    rs = build_root_system("A1")
    problem = tensor_problem(rs, [((1,), 6)])
    table = ts.tensor_power_decompose(rs, [((1,), 6)])
    measure = ts.character_measure(table)
    pde = ts.pde_residual(problem, [0.2])
    _, paths = ts.sample_paths(rs, (1,), None, 3, 2, seed=1)
    out = {
        "AlgebraSpec": AlgebraSpec("A", 1),
        "RootSystem": rs,
        "WeightSystem": ts.weight_multiplicities(rs, (2,)),
        "DecompositionTable": table,
        "TensorProblem": problem,
        "RatePoint": ts.rate_point(problem, [0.2]),
        "TransitionRow": ts.TransitionKernel(rs, (1,)).row((1,)),
        "Trajectory": paths[0],
        "Scaling": ts.bulk_scaling(problem),
        "MeasureRow": measure.rows[0],
        "MeasureTable": measure,
        "WeakConvergenceReport": ts.weak_convergence_distance(measure, "plancherel"),
        "DerivativeReport": pde.derivatives,
        "PdeReport": pde,
        "SlnClosedForm": ts.sln_legendre_closed_form(2, 1.0, [0.2, 0.1]),
    }
    # fill cached_property values of the subclasses, so that pickling carries them
    for rec, attr in ((rs, "B_f"), (problem, "_factor_data"), (measure, "asymptotic_log_probabilities")):
        getattr(rec, attr)
    return out


def test_every_record_is_covered():
    assert set(FIELDS) == {name for name in dir(ts) if getattr(getattr(ts, name), "_fields", None) is not None} - {
        "CharacterLogs"
    }


@pytest.mark.parametrize("name", list(FIELDS))
def test_record_contract(records, name):
    cls, rec = getattr(ts, name), records[name]
    assert type(rec) is cls and isinstance(rec, tuple)
    assert cls._fields == FIELDS[name]
    for field in FIELDS[name] + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    # keyword construction gives an equal record; equal records hash alike
    copy = cls(**rec._asdict())
    assert copy == rec and copy is not rec and type(copy) is cls
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(copy) == hash(rec)
    # records are tuples: equal to the plain tuple of their values
    assert rec == tuple(rec) and len(rec) == len(FIELDS[name])
    assert rec._replace(**{FIELDS[name][0]: rec[0]}) == rec
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec
    if name != "RootSystem":  # RootSystem prints its algebra only
        assert repr(rec).startswith(f"{name}({FIELDS[name][0]}=")


def test_pickled_subclass_keeps_its_cached_values(records):
    rs = pickle.loads(pickle.dumps(records["RootSystem"]))
    assert np.array_equal(rs.B_f, records["RootSystem"].B_f) and "B_f" in vars(rs)
    m = pickle.loads(pickle.dumps(records["MeasureTable"]))
    assert np.array_equal(m.asymptotic_log_probabilities, records["MeasureTable"].asymptotic_log_probabilities,
                          equal_nan=True)


@pytest.mark.parametrize("family, rank", [("X", 3), ("A", 0), ("E", 5), ("B", 2.0)])
def test_algebra_spec_checks_direct_construction(family, rank):
    with pytest.raises(InvalidAlgebraError):
        AlgebraSpec(family, rank)
    with pytest.raises(InvalidAlgebraError):
        AlgebraSpec(family=family, rank=rank)
    with pytest.raises(InvalidAlgebraError):
        AlgebraSpec("A", 2)._replace(family=family, rank=rank)
    assert str(AlgebraSpec(family="G", rank=2)) == "G2"


def test_rate_point_json_bytes():
    # the bytes json.dumps(dataclasses.asdict(point), indent=1) gave
    rp = RatePoint(
        algebra="A2", xi=(0.25, -0.5), x=(1.5, 0.125), S=-0.75, grad_S=(0.5, -1e-300),
        hess_f=((2.0, 0.5), (0.5, 3.0)), K=((1.0, float("nan")), (float("inf"), 1.0)), log_prefactor=-float("inf"),
    )
    assert rp.to_json() == (
        '{\n "algebra": "A2",\n "xi": [\n  0.25,\n  -0.5\n ],\n "x": [\n  1.5,\n  0.125\n ],\n "S": -0.75,\n'
        ' "grad_S": [\n  0.5,\n  -1e-300\n ],\n "hess_f": [\n  [\n   2.0,\n   0.5\n  ],\n  [\n   0.5,\n   3.0\n  ]\n'
        ' ],\n "K": [\n  [\n   1.0,\n   NaN\n  ],\n  [\n   Infinity,\n   1.0\n  ]\n ],\n "log_prefactor": -Infinity\n}'
    )
    back = RatePoint.from_json(rp.to_json())
    assert back.to_json() == rp.to_json() and back.S == rp.S and back.hess_f == rp.hess_f
