"""The value contract of the public result and parameter types: equality
(never with a tuple of the same values), hash, frozenness, the exact repr,
pickling, and positional, keyword and default construction. `Labelling` and
`VerificationClassData` have their own contract tests."""

import dataclasses
import pickle

import pytest

from afkit.charlogic import EquivalencePartition, FiniteLogic, RhoLogic
from afkit.core import AF, AFError
from afkit.kernels import DeletionWitness, EquivalenceVerdict, SearchBudget, SearchResult
from afkit.realizability import SetAnalysis, SignatureVerdict, analyze


def fs(*xs):
    return frozenset(xs)


NO_AF, ONE_AF = AF([], []), AF(["a"], [])
LOGIC_TABLE = {fs(): fs(), fs("a"): fs("1")}
SET_ANALYSIS_FIELDS = (
    "nonempty", "contains_empty", "singleton", "incomparable", "downward_closed", "tight",
    "dcl_tight", "conflict_sensitive", "args", "pairs",
)

# (type, field names, values, number of values with a default, exact repr)
CASES = [
    (
        EquivalenceVerdict, ("answer", "method", "detail"), ("equivalent", "kernel", "k_stb"), 1,
        "EquivalenceVerdict(answer='equivalent', method='kernel', detail='k_stb')",
    ),
    (
        SearchBudget, ("fresh_args", "max_attacks"), (2, 5), 2,
        "SearchBudget(fresh_args=2, max_attacks=5)",
    ),
    (
        DeletionWitness, ("args", "attacks"), (fs("a"), fs(("a", "b"))), 0,
        "DeletionWitness(args=frozenset({'a'}), attacks=frozenset({('a', 'b')}))",
    ),
    (
        SearchResult, ("witness", "complete", "scanned"), (ONE_AF, False, 7), 1,
        "SearchResult(witness=AF({a}, {}), complete=False, scanned=7)",
    ),
    (
        SetAnalysis, SET_ANALYSIS_FIELDS,
        (True, False, True, True, False, True, True, True, fs("a"), fs(fs("a"))), 0,
        "SetAnalysis(nonempty=True, contains_empty=False, singleton=True, incomparable=True,"
        " downward_closed=False, tight=True, dcl_tight=True, conflict_sensitive=True,"
        " args=frozenset({'a'}), pairs=frozenset({frozenset({'a'})}))",
    ),
    (
        SignatureVerdict, ("answer", "condition_holds"), ("necessary_only", True), 1,
        "SignatureVerdict(answer='necessary_only', condition_holds=True)",
    ),
    (
        FiniteLogic, ("atoms", "interpretations", "table", "legend"),
        (("a",), ("1",), LOGIC_TABLE, {"1": "one"}), 1,
        "FiniteLogic(atoms=('a',), interpretations=('1',),"
        " table={frozenset(): frozenset(), frozenset({'a'}): frozenset({'1'})}, legend={'1': 'one'})",
    ),
    (
        EquivalencePartition, ("blocks",), (((fs(),), (fs("a"),)),), 0,
        "EquivalencePartition(blocks=((frozenset(),), (frozenset({'a'}),)))",
    ),
    (
        RhoLogic, ("universe", "sigma", "kernel_id", "afs", "rho_prime"),
        (("a",), "stb", "k_stb", (NO_AF, ONE_AF), {NO_AF: fs(ONE_AF)}), 0,
        "RhoLogic(universe=('a',), sigma='stb', kernel_id='k_stb', afs=(AF({}, {}), AF({a}, {})),"
        " rho_prime={AF({}, {}): frozenset({AF({a}, {})})})",
    ),
]
# the values a defaulted construction must equal, per type that has defaults
DEFAULTS = {
    EquivalenceVerdict: ("",),
    SearchBudget: (1, 3),
    SearchResult: (0,),
    SignatureVerdict: (None,),
    FiniteLogic: (None,),
}
IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_fields_read_back(case):
    cls, names, values, _, _ = case
    v = cls(*values)
    assert tuple(getattr(v, name) for name in names) == values
    assert vars(v) == dict(zip(names, values))
    assert cls.__match_args__ == names


def test_equality(case):
    cls, names, values, _, _ = case
    v, same = cls(*values), cls(*values)
    assert v == same and not v != same
    assert v != values and not v == values
    assert v.__eq__(values) is NotImplemented
    assert v != values[0]


def test_inequality_per_field():
    # each field takes part in ==: a value differing in one field is unequal
    others = {
        EquivalenceVerdict: ("not_equivalent", "identity", ""),
        SearchBudget: (3, 6),
        DeletionWitness: (fs("b"), fs()),
        SearchResult: (None, True, 8),
        SetAnalysis: (False, True, False, False, True, False, False, False, fs("b"), fs()),
        SignatureVerdict: ("yes", None),
        FiniteLogic: (None, None, None, None),  # only the legend can change alone
        EquivalencePartition: (((fs(), fs("a")),),),
        RhoLogic: (("b",), "prf", "k_adm", (NO_AF,), {}),
    }
    for cls, _, values, _, _ in CASES:
        for k in range(len(values)):
            if cls is FiniteLogic and k < 3:
                continue
            changed = values[:k] + others[cls][k:k + 1] + values[k + 1:]
            assert cls(*changed) != cls(*values), (cls.__name__, k)


def test_hash(case):
    cls, _, values, _, _ = case
    v = cls(*values)
    if cls is FiniteLogic:
        # its table is a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(v)
    elif cls is RhoLogic:
        # the dict rho_prime takes no part in the hash
        assert hash(v) == hash(values[:4]) == hash(cls(*values[:4], {}))
        assert v != cls(*values[:4], {})
    else:
        assert hash(v) == hash(values) == hash(cls(*values))
        assert len({v, cls(*values)}) == 1


def test_frozen(case):
    cls, names, values, _, _ = case
    v = cls(*values)
    for name in (*names, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(v, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(v, name)
    assert vars(v) == dict(zip(names, values))


def test_repr(case):
    cls, _, values, _, text = case
    assert repr(cls(*values)) == text


def test_pickle_round_trip(case):
    cls, names, values, _, text = case
    back = pickle.loads(pickle.dumps(cls(*values)))
    assert type(back) is cls
    assert back == cls(*values)
    assert repr(back) == text
    assert vars(back) == dict(zip(names, values))


def test_keyword_and_default_construction(case):
    cls, names, values, n_defaults, _ = case
    assert cls(**dict(zip(names, values))) == cls(*values)
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == cls(*values)
    required = len(values) - n_defaults
    if n_defaults:
        assert cls(*values[:required]) == cls(*values[:required], *DEFAULTS[cls])
    else:
        assert cls not in DEFAULTS
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, nope=1)


def test_analyze_fields():
    # bench/workloads.py reads the boolean entries of vars(analyze(...))
    result = analyze([["a"], ["b"]])
    assert list(vars(result)) == list(SET_ANALYSIS_FIELDS)
    assert [k for k, v in vars(result).items() if isinstance(v, bool)] == list(SET_ANALYSIS_FIELDS[:8])
    assert result == SetAnalysis(True, False, False, True, False, True, True, True, fs("a", "b"), fs(fs("a"), fs("b")))


def test_derived_properties():
    assert EquivalenceVerdict("unsupported", "none").supported is False
    assert EquivalenceVerdict("equivalent", "kernel").supported is True
    assert SearchResult(None, True).found is False
    assert SearchResult(ONE_AF, True).found is True
    assert SignatureVerdict("necessary_only").decided is False
    assert SignatureVerdict("no").decided is True


@pytest.mark.parametrize(
    "kwargs,err",
    [
        ({"fresh_args": -1}, "search budget fresh_args must be non-negative, got -1"),
        ({"max_attacks": -2}, "search budget max_attacks must be non-negative, got -2"),
        ({"fresh_args": -1, "max_attacks": -2}, "search budget fresh_args must be non-negative, got -1"),
    ],
)
def test_search_budget_validation(kwargs, err):
    with pytest.raises(AFError, match=f"^{err}$"):
        SearchBudget(**kwargs)
    assert SearchBudget(0, 0) == SearchBudget(fresh_args=0, max_attacks=0)


@pytest.mark.parametrize(
    "atoms,interps,table,err",
    [
        (tuple("abcdefghijklm"), ("1",), {}, "language has 13 atoms, cap is 12"),
        (("a", "a"), ("1",), {}, "duplicate atoms"),
        (("a",), ("1", "2", "1"), LOGIC_TABLE, "duplicate interpretations"),
        (("a",), ("1",), {fs(): fs()}, r"model table not total: missing \['\{a\}'\], extra \[\]"),
        (("a",), ("1",), {**LOGIC_TABLE, fs("b"): fs()}, r"model table not total: missing \[\], extra \['\{b\}'\]"),
        (("a",), ("1",), {fs(): fs("2"), fs("a"): fs()}, r"undeclared interpretation in models\(\{\}\)"),
    ],
)
def test_finite_logic_validation(atoms, interps, table, err):
    with pytest.raises(AFError, match=f"^{err}$"):
        FiniteLogic(atoms, interps, table)
