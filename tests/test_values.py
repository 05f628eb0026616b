"""The contract every value type of the package keeps.

Each type builds by position and by keyword wherever its constructor allows,
refuses a missing, repeated or unknown argument as a written signature does,
compares and hashes by its fields and class, prints as ``Name(field=repr,
...)``, refuses assignment and deletion, and survives pickle and deepcopy.
"""
import copy
import pickle

import pytest

from hamdec import (
    AdmissibilityReport,
    ConnectionSet,
    DecompositionCertificate,
    FinitePath,
    LengthMultiset,
    SearchOutcome,
    SweepReport,
    VerificationReport,
    WindowCheck,
)

STARTER = (0, -1, 1, 5, 2, 3, 6, 4, 8)
OUTCOME = SearchOutcome((0, 1, 3), 4, 0.5)

# (type, positional args, keyword args, the fields, repr, a value that differs in one field)
CASES = [
    (ConnectionSet, ([3, 1, 3],), {"s_plus": (1, 3)}, ("s_plus",),
     "ConnectionSet(s_plus=(1, 3))", ConnectionSet([1, 5])),
    (FinitePath, ([0, 2, 1],), {"vertices": (0, 2, 1)}, ("vertices",),
     "FinitePath(vertices=(0, 2, 1))", FinitePath([0, 1, 2])),
    (DecompositionCertificate, ([1, 2, 3, 4], 8, STARTER, [6, 0, 4, 2]),
     {"connection_set": ConnectionSet([4, 3, 2, 1]), "period": 8,
      "starter": FinitePath(STARTER), "offsets": (0, 2, 4, 6)},
     ("connection_set", "period", "starter", "offsets"),
     "DecompositionCertificate(connection_set=ConnectionSet(s_plus=(1, 2, 3, 4)), period=8, "
     "starter=FinitePath(vertices=(0, -1, 1, 5, 2, 3, 6, 4, 8)), offsets=(0, 2, 4, 6))",
     DecompositionCertificate([1, 2, 3, 4], 8, STARTER, [0, 2, 4])),
    (LengthMultiset, (5, [2, 1, 2, 1]), {"modulus": 5, "lengths": {1: 2, 2: 2}},
     ("modulus", "counts"), "LengthMultiset(modulus=5, counts=((1, 2), (2, 2)))",
     LengthMultiset(5, [1, 1, 1, 2])),
    (AdmissibilityReport, (1, 1, True, True),
     {"gcd": 1, "component_count": 1, "parity_ok": True, "admissible": True},
     ("gcd", "component_count", "parity_ok", "admissible"),
     "AdmissibilityReport(gcd=1, component_count=1, parity_ok=True, admissible=True)",
     AdmissibilityReport(1, 1, False, False)),
    (SearchOutcome, ((0, 1, 3), 4, 0.5), {"witness": (0, 1, 3), "nodes_expanded": 4,
                                          "elapsed": 0.5},
     ("witness", "nodes_expanded", "elapsed"),
     "SearchOutcome(witness=(0, 1, 3), nodes_expanded=4, elapsed=0.5)",
     SearchOutcome(None, 4, 0.5)),
    (SweepReport, (5, 2, True, (((1, 1, 2, 2), OUTCOME),), 1.25),
     {"p": 5, "total": 2, "sampled": True, "entries": (((1, 1, 2, 2), OUTCOME),),
      "elapsed": 1.25},
     ("p", "total", "sampled", "entries", "elapsed"),
     "SweepReport(p=5, total=2, sampled=True, entries=(((1, 1, 2, 2), SearchOutcome("
     "witness=(0, 1, 3), nodes_expanded=4, elapsed=0.5)),), elapsed=1.25)",
     SweepReport(5, 2, False, (((1, 1, 2, 2), OUTCOME),), 1.25)),
    (VerificationReport, (False, ("PathBroken",)),
     {"accepted": False, "failures": ("PathBroken",)}, ("accepted", "failures"),
     "VerificationReport(accepted=False, failures=('PathBroken',))",
     VerificationReport(False, ("EndpointMismatch",))),
    (WindowCheck, (True,), {"accepted": True}, ("accepted", "failure"),
     "WindowCheck(accepted=True, failure=None)", WindowCheck(False, "cycle inside the window")),
]

ids = [case[0].__name__ for case in CASES]


def test_every_value_type_is_covered():
    assert len({case[0] for case in CASES}) == 9


@pytest.mark.parametrize("cls, args, kwargs, fields, text, other", CASES, ids=ids)
def test_construction_equality_hash_and_repr(cls, args, kwargs, fields, text, other):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword and not by_position != by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == repr(by_keyword) == text
    assert by_position != other and not by_position == other
    assert len({by_position, by_keyword, other}) == 2
    values = tuple(getattr(by_position, f) for f in fields)
    assert by_position != values and by_position.__eq__(values) is NotImplemented


def test_values_of_different_types_never_compare_equal():
    values = [cls(*args) for cls, args, *_ in CASES]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) == (i == j)
            assert a.__eq__(b) is (True if i == j else NotImplemented)


@pytest.mark.parametrize("cls, args, kwargs, fields, text, other", CASES, ids=ids)
def test_assignment_and_deletion_raise(cls, args, kwargs, fields, text, other):
    value = cls(*args)
    for name in (*fields, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, kwargs, fields, text, other", CASES, ids=ids)
def test_pickle_and_copy_round_trips(cls, args, kwargs, fields, text, other):
    value = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert again == value and hash(again) == hash(value) and repr(again) == text
    for again in (copy.copy(value), copy.deepcopy(value)):
        assert type(again) is cls and again == value and repr(again) == text


@pytest.mark.parametrize("cls, args, kwargs, fields, text, other", CASES, ids=ids)
def test_bad_arguments_raise_type_error(cls, args, kwargs, fields, text, other):
    first = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in kwargs.items() if k != first})
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=0)
    with pytest.raises(TypeError):
        cls(args[0], **kwargs)  # the first field twice
    with pytest.raises(TypeError):
        cls(*args, *[0] * (len(fields) + 1 - len(args)))


def test_bad_argument_messages_name_the_field():
    for call, message in [
        (lambda: SearchOutcome((0, 1), 4), "SearchOutcome() missing argument 'elapsed'"),
        (lambda: SearchOutcome((0, 1), 4, 0.5, 1),
         "SearchOutcome() takes 3 positional arguments but 4 were given"),
        (lambda: SearchOutcome((0, 1), 4, 0.5, witness=None),
         "SearchOutcome() got multiple values for argument 'witness'"),
        (lambda: WindowCheck(True, failures="x"),
         "WindowCheck() got an unexpected keyword argument 'failures'"),
    ]:
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message
