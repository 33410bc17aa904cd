"""Value semantics of the types a decision builds: equality and hashing by
field, the exact repr, immutability, construction by keyword, pattern
matching, pickling and copying.  CostCounter is a mutable tally compared by
identity, and cli.Instance a mutable record compared by value."""

import copy
import dataclasses
import pickle

import pytest

from cyclorbit import (
    EMPTY,
    ArithmeticProgression,
    CongruenceSystem,
    CostCounter,
    OrbitAnswer,
    Permutation,
    progression,
)
from cyclorbit.cli import Instance, parse_instance_text

AP = progression(1, 6)
G = Permutation(9, [(6, 5, 7, 3, 2, 1), (4, 8)])
TEXT = "n 9\nalphabet 01\nperm (6,5,7,3,2,1)(4,8)\nv 010001111\nw 101110001\n"

# a value, an equal one built by keyword, its field values in __match_args__
# order, and its repr
VALUES = [
    pytest.param(AP, ArithmeticProgression(offset=1, period=6), (1, 6),
                 "ArithmeticProgression(offset=1, period=6)", id="ArithmeticProgression"),
    pytest.param(EMPTY, ArithmeticProgression(offset=None, period=None), (None, None),
                 "ArithmeticProgression(offset=None, period=None)", id="EMPTY"),
    pytest.param(CongruenceSystem(((1, 2), (1, 3))),
                 CongruenceSystem(equations=[(1, 2), (1, 3)]), (((1, 2), (1, 3)),),
                 "CongruenceSystem(equations=((1, 2), (1, 3)))", id="CongruenceSystem"),
    pytest.param(OrbitAnswer(True, AP), OrbitAnswer(in_orbit=True, solutions=AP), (True, AP),
                 "OrbitAnswer(in_orbit=True, solutions=ArithmeticProgression(offset=1, period=6))",
                 id="OrbitAnswer-yes"),
    pytest.param(OrbitAnswer(False), OrbitAnswer(in_orbit=False), (False, None),
                 "OrbitAnswer(in_orbit=False, solutions=None)", id="OrbitAnswer-no"),
    pytest.param(G, Permutation(n=9, cycles=[(6, 5, 7, 3, 2, 1), [4, 8], (9,)]),
                 (9, ((6, 5, 7, 3, 2, 1), (4, 8))), "Permutation(9, '(6,5,7,3,2,1)(4,8)')",
                 id="Permutation"),
    pytest.param(parse_instance_text(TEXT),
                 Instance(n=9, alphabet="01", g=G, v="010001111", w="101110001"),
                 (9, "01", G, "010001111", "101110001"),
                 "Instance(n=9, alphabet='01', g=Permutation(9, '(6,5,7,3,2,1)(4,8)'), "
                 "v='010001111', w='101110001')", id="Instance"),
]

FROZEN = [param for param in VALUES if param.id != "Instance"]


@pytest.mark.parametrize(("value", "twin", "fields", "text"), VALUES)
def test_equal_by_field(value, twin, fields, text):
    names = type(value).__match_args__
    assert tuple(getattr(value, name) for name in names) == fields
    assert value == twin and not value != twin and value is not twin
    assert value != fields and fields != value  # a plain tuple of the same values differs
    assert repr(value) == repr(twin) == text
    if isinstance(value, Instance):  # mutable, so unhashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)


@pytest.mark.parametrize(("value", "twin", "fields", "text"), VALUES)
def test_pickle_and_copy_round_trip(value, twin, fields, text):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is type(value) and clone == value and repr(clone) == text


def test_permutation_round_trip_keeps_its_moved_mask():
    for clone in (pickle.loads(pickle.dumps(G)), copy.deepcopy(G)):
        assert clone.moved_mask() == G.moved_mask() == bytearray(b"\1\1\1\1\1\1\1\1\0")


@pytest.mark.parametrize(("value", "twin", "fields", "text"), FROZEN)
def test_fields_are_frozen(value, twin, fields, text):
    for name in type(value).__match_args__:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert repr(value) == text


def test_repr_names_an_int_past_the_digit_limit_by_its_bit_length():
    huge = 10**5000
    wide = f"<{huge.bit_length()}-bit integer>"
    assert repr(progression(1, huge)) == f"ArithmeticProgression(offset=1, period={wide})"
    assert repr(CongruenceSystem([(1, huge)])) == f"CongruenceSystem(equations=((1, {wide}),))"
    assert repr(OrbitAnswer(True, progression(1, huge))) == (
        f"OrbitAnswer(in_orbit=True, solutions=ArithmeticProgression(offset=1, period={wide}))"
    )
    # tuples of every length keep Python's own repr
    for equations in ((), ((1, 2),), ((1, 2), (0, 3), (4, 5))):
        assert repr(CongruenceSystem(equations)) == f"CongruenceSystem(equations={equations!r})"


def test_class_patterns_read_match_args():
    match OrbitAnswer(True, AP):
        case OrbitAnswer(True, ArithmeticProgression(offset, period)):
            assert (offset, period) == (1, 6)
        case _:
            pytest.fail("no match")
    match G:
        case Permutation(n, cycles):
            assert (n, len(cycles)) == (9, 2)
        case _:
            pytest.fail("no match")
    assert Permutation.__match_args__ == ("n", "cycles")


def test_instance_is_mutable():
    inst = parse_instance_text(TEXT)
    inst.w = inst.v
    assert inst != parse_instance_text(TEXT) and inst.w == "010001111"


def test_cost_counter_compares_by_identity():
    a, b = CostCounter(), CostCounter()
    assert a == a and a != b and hash(a) != hash(b)
    assert repr(a) == "CostCounter(word_ops=0, max_bits=0)"
    a.charge(5, 2**64)
    a.word_ops += 1
    assert repr(a) == "CostCounter(word_ops=3, max_bits=65)"
    assert getattr(CostCounter, "__match_args__", ()) == ()
    with pytest.raises(AttributeError):
        a.extra = 1  # slotted
    for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert clone != a and (clone.word_ops, clone.max_bits) == (3, 65)
