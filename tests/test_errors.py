import pickle

import pytest

from atcnet import errors

# Constructor arguments for every exception class in errors.py.
SAMPLE_ARGS = {
    errors.AtcnetError: ("base",),
    errors.NonSquare: ((1, 0),),
    errors.NegativeWeight: (0, 1, -0.5),
    errors.NonFiniteWeight: (0, 1, float("inf")),
    errors.ColumnSumViolation: (2, 0.9),
    errors.NonPrimitiveSource: (0, [3, 1]),
    errors.NoConvergence: (100, "Pareto solve"),
    errors.SingularSystem: ("singular",),
    errors.NotAnRAgent: (3,),
    errors.DimensionMismatch: ("3 models for 2 agents",),
    errors.Diverged: (1, 2048, 3, "linear model"),
    errors.InsufficientData: ("needs 2 runs",),
    errors.SingularAggregateHessian: ("singular",),
    errors.NonPositive: (-1.0,),
    errors.ConfigError: ("must be an integer", "run.seed"),
    errors.NoMinimizer: (3,),
}


def test_sample_args_cover_every_error():
    defined = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.AtcnetError)
    }
    assert defined == set(SAMPLE_ARGS)


@pytest.mark.parametrize("cls", SAMPLE_ARGS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_message_and_attributes(cls):
    exc = cls(*SAMPLE_ARGS[cls])
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)
