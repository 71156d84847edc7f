"""Every record class behaves as the ``dataclasses.dataclass`` it replaces.

Each record gets a stdlib twin built from the same annotations, defaults,
``__post_init__`` and other class attributes; construction, defaults, repr,
equality, hashing and frozenness are compared on the pair.
"""

import dataclasses
import importlib
from fractions import Fraction

import pytest

from laminath._record import factory
from laminath.exactnum import decode

_MODULES = ("cf", "errors", "exactnum", "flat", "iet", "ledger", "oracle", "tsurface", "words")
_GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
              "__record_fields__", "__record_values__", "__dict__", "__weakref__"}


def _records():
    # the library's records, and those the tests' references keep
    found = {}
    for name in [*("laminath." + name for name in _MODULES), "reference"]:
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if isinstance(obj, type) and "__record_fields__" in vars(obj):
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


RECORDS = _records()


def _frozen(cls):
    return cls.__setattr__ is not object.__setattr__


def _twin(cls):
    """The stdlib dataclass with the record's annotations, defaults and body."""
    ns = {key: value for key, value in vars(cls).items() if key not in _GENERATED}
    for name in cls.__record_fields__:
        if isinstance(ns.get(name), factory):
            ns[name] = dataclasses.field(default_factory=ns[name].make)
    return dataclasses.dataclass(frozen=_frozen(cls))(type(cls.__name__, (), ns))


# field values a record is built from: a valid pair of unequal values where a
# record checks or decodes them, distinct placeholders otherwise
_VALUES = {
    "BlockWord": ((2, (2, 3, 2), "ab"), (2, (3, 2, 2), "ab")),
    "LoopCertificate": (
        (3, "abAB", "bA", 5, Fraction(1, 3), "ab", "ba", 4, Fraction(2),
         12, 2, ((1, 0), (2, 1), (3, -1), (4, 0), (5, 2), (6, 0), (7, 1))),
        (3, "abAB", "bA", 5, Fraction(1, 3), "ab", "ba", 4, Fraction(2),
         12, 2, ((1, 0), (2, 1), (3, -1), (4, 0), (5, 2), (6, 0), (8, 1)))),
}


def _values(cls):
    if cls.__name__ in _VALUES:
        return _VALUES[cls.__name__]
    names = cls.__record_fields__
    return (tuple(f"{name}-0" for name in names), tuple(f"{name}-1" for name in names))


def _fields(obj):
    return [(name, getattr(obj, name)) for name in obj.__record_fields__]


def test_every_record_is_found():
    assert len(RECORDS) == 20


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_dataclass_twin(cls):
    twin = _twin(cls)
    names = [f.name for f in dataclasses.fields(twin)]
    assert list(cls.__record_fields__) == names
    first, second = _values(cls)
    a, b, c = cls(*first), cls(*first), cls(*second)
    ta, tb, tc = twin(*first), twin(*first), twin(*second)
    assert cls(**dict(zip(names, first))) == a
    assert _fields(a) == [(name, getattr(ta, name)) for name in names]
    assert repr(a) == repr(ta) and repr(c) == repr(tc)
    assert (a == b, a == c, a != c, a == first) == (ta == tb, ta == tc, ta != tc, ta == first)
    if _frozen(cls):
        assert hash(a) == hash(b) == hash(ta) == hash(tb)
        assert hash(c) == hash(tc)
        for obj in (a, ta):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
                setattr(obj, names[0], second[0])
            with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
                delattr(obj, names[0])
    else:
        for obj in (a, ta):
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
            setattr(obj, names[0], second[0])
        assert repr(a) == repr(ta) and a != b


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_defaults_match_the_twin(cls):
    twin = _twin(cls)
    required = [f for f in dataclasses.fields(twin)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    args = _values(cls)[0][:len(required)]
    assert _fields(cls(*args)) == [(name, getattr(twin(*args), name))
                                   for name in cls.__record_fields__]


def test_factory_defaults_are_fresh_per_instance():
    from laminath import words
    from laminath.cf import ContinuedFraction
    theta = ContinuedFraction.sqrt2()
    one, two = words.ExoticWord(theta), words.ExoticWord(theta)
    assert one.stages == [] and one.skipped_indices == []
    assert one.stages is not two.stages and one.skipped_indices is not two.skipped_indices
    one.stages.append(1)
    assert two.stages == [] and one != two
    assert repr(two) == repr(_twin(words.ExoticWord)(theta))


def test_block_word_post_init_checks_as_its_twin():
    from laminath.words import BlockWord
    twin = _twin(BlockWord)
    for args in ((2, (2, 3), "ba"), (0, (0, 1, 1)), (5, (6,), "ab")):
        assert repr(BlockWord(*args)) == repr(twin(*args))
        assert BlockWord(*args).letters() == twin(*args).letters()
    for args in ((2, (2, 3), "aa"), (2, ()), (-1, (-1, 0)), (2, (2, 4))):
        messages = []
        for make in (BlockWord, twin):
            with pytest.raises(ValueError) as exc:
                make(*args)
            messages.append(str(exc.value))
        assert messages[0] == messages[1], args


def test_loop_certificate_cached_properties_decode_once():
    from laminath.iet import LoopCertificate
    args = _VALUES["LoopCertificate"][0]
    cert, twin = LoopCertificate(*args), _twin(LoopCertificate)(*args)
    names = ("tau_Q", "tau_return", "tau_R", "tau_close", "gap_bound", "max_gap", "slides",
             "measure", "measure_constant")
    values = [getattr(cert, name) for name in names]
    assert values == [getattr(twin, name) for name in names]
    assert values[:7] == [decode(pair, 12, 2) for pair in args[-1]]
    assert values[-2] == values[-3] * 2 and values[-1] == 6
    # decoded once: a second read returns the object kept in the instance dict
    assert all(getattr(cert, name) is vars(cert)[name] for name in names)
    assert cert == LoopCertificate(*args) and hash(cert) == hash(LoopCertificate(*args))
