"""Value semantics of the immutable key types and of the report records."""

import copy
import pickle

import pytest

from skeinlab.comodule_rt import Comodule, ComoduleError
from skeinlab.diagram import DiagramError, SliceWord, StatedWord
from skeinlab.internal_skein import Matching, MatchingError
from skeinlab.quantum_sl2 import HopfElement, gen
from skeinlab.report import Report

# Partner tuples of two west and two east points (indices 0, 1 west, 2, 3 east).
THROUGH = (2, 3, 0, 1)  # w0-e0, w1-e1
TURNBACK = (1, 0, 3, 2)  # w0-w1, e0-e1
CROSSED = (3, 2, 1, 0)  # w0-e1, w1-e0

VALUES = [
    # (class, its field names, args, the args with one field changed, invalid args, error)
    (SliceWord, ("west_arity", "slices"), (2, (("x", 0),)), (2, (("xb", 0),)), (2, (("x", 1),)), DiagramError),
    (
        StatedWord,
        ("word", "west", "east"),
        (SliceWord(1), (1,), (1,)),
        (SliceWord(1), (1,), (-1,)),
        (SliceWord(1), (1,), ()),
        DiagramError,
    ),
    (Matching, ("n_west", "partners"), (2, THROUGH), (2, TURNBACK), (2, CROSSED), MatchingError),
    (
        Comodule,
        ("dim", "coaction"),
        (1, ((HopfElement.one(),),)),
        (1, ((gen("a"),),)),
        (2, ((HopfElement.one(),),)),
        ComoduleError,
    ),
]


@pytest.mark.parametrize("cls, names, args, changed, invalid, error", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_semantics(cls, names, args, changed, invalid, error):
    value = cls(*args)
    twin = cls(*args)
    assert value == twin and hash(value) == hash(twin) and value is not twin
    other = cls(*changed)
    assert value != other and not value == other
    # A class whose fields read the same values is still another value.
    assert type("Other", (cls,), {"__slots__": ()})(*args) != value
    assert value != args

    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin

    for copied in (copy.deepcopy(value), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)

    with pytest.raises(error):
        cls(*invalid)

    # The repr lists the fields only: a matching's east arity and traced word stay out of it.
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{cls.__name__}({fields})"


def test_derived_fields_are_rebuilt_and_hidden():
    m, w = Matching(1, (1, 0)), SliceWord(1, (("cup", 1),))
    assert (m.n_east, m.word) == (1, SliceWord(1)) and "word" not in repr(m) and "n_east" not in repr(m)
    assert (w.east_arity, w.width) == (3, 3) and "width" not in repr(w)
    for copied in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert (copied.n_east, copied.word) == (1, m.word)
    for copied in (copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert (copied.east_arity, copied.width) == (3, 3)


def test_reports_own_their_case_lists():
    a, b = Report("a", {}), Report("b", {})
    a.cases.append(None)
    assert a.cases is not b.cases and b.cases == []
