"""Every library exception survives pickling, as a process pool needs."""

from __future__ import annotations

import inspect
import pickle

from toporisk import errors


def sample(cls: type) -> Exception:
    if cls is errors.RowError:
        return cls(3, "bad close 'x'")
    if cls is errors.PipelineError:
        return cls("risk", ValueError("x"))
    return cls("something went wrong")


def test_every_error_round_trips_through_pickle():
    classes = [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.TopoRiskError) and cls.__module__ == errors.__name__
    ]
    assert len(classes) == 10
    for cls in classes:
        exc = sample(cls)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        for attr in ("stage", "line_no"):
            assert getattr(back, attr, None) == getattr(exc, attr, None)
        if exc.__cause__ is not None:
            assert type(back.__cause__) is type(exc.__cause__)
            assert str(back.__cause__) == str(exc.__cause__)

    row = pickle.loads(pickle.dumps(errors.RowError(3, "bad")))
    assert (str(row), row.line_no) == ("line 3: bad", 3)
    wrapped = pickle.loads(pickle.dumps(errors.PipelineError("risk", ValueError("x"))))
    assert (str(wrapped), wrapped.stage, repr(wrapped.__cause__)) == (
        "stage risk: x", "risk", "ValueError('x')"
    )
