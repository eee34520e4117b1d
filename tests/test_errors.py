import pickle

import pytest

from queens_lab import errors
from queens_lab.errors import (
    GreedyExhaustionError,
    QueensLabError,
    ReconstructionError,
    SearchBudgetError,
)

DOMAIN_ERRORS = sorted(
    (
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, QueensLabError)
    ),
    key=lambda cls: cls.__name__,
)

CONSTRUCTOR_ARGS = {
    GreedyExhaustionError: ((3, 1), {}),
    ReconstructionError: (((1, 2), "x"), {}),
    SearchBudgetError: ((), {"nodes_visited": 5, "budget": 4}),
}


@pytest.mark.parametrize("cls", DOMAIN_ERRORS, ids=lambda cls: cls.__name__)
def test_domain_error_survives_pickle(cls):
    args, kwargs = CONSTRUCTOR_ARGS.get(cls, (("something failed",), {}))
    exc = cls(*args, **kwargs)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.code == exc.code
    assert vars(back) == vars(exc)


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(errors.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(errors.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert errors.usable_cpus() == 3
    # Without an affinity call the CPU count stands, 1 when it is unknown.
    monkeypatch.delattr(errors.os, "sched_getaffinity")
    assert errors.usable_cpus() == 64
    monkeypatch.setattr(errors.os, "cpu_count", lambda: None)
    assert errors.usable_cpus() == 1
