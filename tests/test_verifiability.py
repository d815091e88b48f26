import dataclasses
import pickle
import random
import re

import pytest
from hypothesis import given, settings

from afkit.core import AF, AFError, anti_range, range_of
from afkit.semantics import EnumerationLimitError, extension_key, extensions, sort_extensions
from afkit.verifiability import (
    EXACT_CLASS,
    REPRESENTATIVES,
    VERIFIABLE_SEMANTICS,
    InsufficientClassError,
    VerificationClassData,
    exact_class,
    more_informative,
    neighborhood,
    parse_class,
    reduce_data,
    verification_class,
    verify,
)

from afkit import verifiability
from fixtures import EXACTNESS_FIXTURES, five_six_arg_afs, representative_of, seven_arg_afs
from oracles import ORACLES, all_afs, gamma_com_pairwise, gamma_sad_scan


def fs(*xs):
    return frozenset(xs)


class TestNeighborhood:
    def test_empty_function(self):
        assert neighborhood("ε", {"a", "b"}, {"c"}) == ()

    def test_difference(self):
        assert neighborhood("±", {"a", "b"}, {"a"}) == (fs("b"),)

    def test_symmetric_difference(self):
        assert neighborhood("Δ", {"a", "b"}, {"b", "c"}) == (fs("a", "c"),)

    @pytest.mark.parametrize(
        "basic,expected",
        [
            ("+", fs("a", "b")),
            ("-", fs("b", "c")),
            ("±", fs("a")),
            ("∓", fs("c")),
            ("∩", fs("b")),
            ("∪", fs("a", "b", "c")),
            ("Δ", fs("a", "c")),
        ],
    )
    def test_basic_functions(self, basic, expected):
        # range {a, b}, anti-range {b, c}: one element in each region but "neither"
        assert neighborhood(basic, {"a", "b"}, {"b", "c"}) == (expected,)

    def test_composite(self):
        assert neighborhood("+−", {"a"}, {"b"}) == (fs("a"), fs("b"))

    def test_aliases(self):
        assert parse_class("plus_minus") == "+−"
        assert parse_class("eps") == "ε"
        assert parse_class("mp") == "∓"

    def test_unknown_class_rejected(self):
        with pytest.raises(AFError, match="unknown verification class: 'plus_plus'"):
            parse_class("plus_plus")


class TestVerificationClass:
    def test_range_class_walkthrough(self, f_neigh):
        data = verification_class(f_neigh, "+")
        got = {(base, info[0]) for base, info in data.entries}
        assert got == {
            (fs(), fs()),
            (fs("a"), fs("a", "b")),
            (fs("c"), fs("b", "c")),
            (fs("a", "c"), fs("a", "b", "c")),
        }

    def test_pm_class_walkthrough(self, f_neigh):
        data = verification_class(f_neigh, "±")
        got = {(base, info[0]) for base, info in data.entries}
        assert got == {
            (fs(), fs()),
            (fs("a"), fs()),
            (fs("c"), fs("b")),
            (fs("a", "c"), fs()),
        }

    def test_empty_framework(self):
        data = verification_class(AF([], []), "+−")
        assert data.entries == ((fs(), (fs(), fs())),)

    def test_sweep_is_capped(self, monkeypatch):
        # the cap counts only non-self-attacking arguments, as for cf
        monkeypatch.setenv("AFKIT_MAX_ARGS", "3")
        loops = [(x, x) for x in "efgh"]
        assert len(verification_class(AF("abcefgh", loops), "+").entries) == 8
        with pytest.raises(EnumerationLimitError, match="4 non-self-attacking arguments"):
            verification_class(AF("abcdefgh", loops), "+")


    def test_data_validated_against_class(self):
        # an info tuple shorter than the class, and a class id that is an
        # alias rather than a representative
        with pytest.raises(AFError):
            verify("stb", VerificationClassData("+", ((frozenset(), ()),)), [])
        with pytest.raises(AFError):
            VerificationClassData("+", ((fs("a"), (fs("a"), fs())),))
        with pytest.raises(AFError):
            VerificationClassData("plus", ((frozenset(), (frozenset(),)),))
        assert VerificationClassData("ε", ((frozenset(), ()),)).info(frozenset()) == ()


def defined_data(f, x):
    """Class data through the public constructor, from the definition: the
    neighborhood of each conflict-free set's range/anti-range pair, in
    extension order."""
    entries = [
        (base, neighborhood(x, range_of(f, base), anti_range(f, base)))
        for base in extensions(f, "cf")
    ]
    return VerificationClassData(x, tuple(sorted(entries, key=lambda e: extension_key(e[0]))))


CONTRACT_AFS = [
    AF("abc", [("a", "b"), ("b", "a"), ("b", "b"), ("c", "b")]),
    AF("abcdefgh", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "c"),
                    ("d", "c"), ("e", "f"), ("f", "f"), ("f", "g"), ("g", "h")]),
    AF("a", [("a", "a")]),
    AF([], []),
    *all_afs(["a", "b"]),
]


class TestClassDataContract:
    """Class data from verification_class and from the public constructor
    are one value: the same entries, ==, hash, repr, info(), pickle round
    trip and frozenness."""

    @pytest.mark.parametrize("x", list(REPRESENTATIVES))
    def test_same_value_both_ways(self, x):
        for f in CONTRACT_AFS:
            built, made = verification_class(f, x), defined_data(f, x)
            assert built.class_id == made.class_id == x
            assert built.entries == made.entries
            assert built == made and made == built and not built != made
            assert hash(built) == hash(made) == hash((x, made.entries))
            for d in (built, made):
                assert repr(d) == f"VerificationClassData(class_id={x!r}, entries={d.entries!r})"
            assert repr(VerificationClassData(x, built.entries)) == repr(built)
            for base, info in made.entries:
                assert built.info(base) == made.info(base) == info

    def test_entries_is_a_tuple_of_frozensets(self, f_neigh):
        data = verification_class(f_neigh, "+−")
        assert type(data.entries) is tuple
        for base, info in data.entries:
            assert type(base) is frozenset and type(info) is tuple
            assert all(type(p) is frozenset for p in info)
        assert data.entries is data.entries

    def test_inequality(self, f_neigh):
        data = verification_class(f_neigh, "+")
        assert data != verification_class(f_neigh, "±")
        assert data != verification_class(AF("abc", [("a", "b")]), "+")
        assert data != (data.class_id, data.entries)
        assert data != VerificationClassData("+", tuple(reversed(data.entries)))

    def test_info_of_a_missing_set(self, f_neigh):
        for data in (verification_class(f_neigh, "+"), defined_data(f_neigh, "+")):
            with pytest.raises(AFError, match="no entry for"):
                data.info(fs("a", "b"))
            with pytest.raises(AFError, match="no entry for"):
                data.info(fs("z"))

    @pytest.mark.parametrize("x", ["ε", "+", "∩∪", "+−"])
    def test_pickle_round_trip(self, f_neigh, x):
        # a frozenset's repr lists its members in an order that follows its
        # construction, so only the repr's form is compared
        for d in (verification_class(f_neigh, x), defined_data(f_neigh, x)):
            back = pickle.loads(pickle.dumps(d))
            assert type(back) is VerificationClassData
            assert back == d and hash(back) == hash(d)
            assert back.entries == d.entries and back.class_id == d.class_id
            assert repr(back) == f"VerificationClassData(class_id={x!r}, entries={back.entries!r})"

    def test_frozen(self, f_neigh):
        for d in (verification_class(f_neigh, "+"), defined_data(f_neigh, "+")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.class_id = "-"
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.entries = ()
            with pytest.raises(dataclasses.FrozenInstanceError):
                del d.class_id
            assert d.class_id == "+"

    def test_reduce_data_across_index_kinds(self):
        # data from verification_class indexes f's arguments; constructed
        # data indexes the names its entries mention
        for f in CONTRACT_AFS:
            for x in REPRESENTATIVES:
                built, made = verification_class(f, x), defined_data(f, x)
                for y in REPRESENTATIVES:
                    if more_informative(x, y):
                        want = verification_class(f, y)
                        assert reduce_data(built, y) == want, (x, y, f)
                        assert reduce_data(made, y) == want, (x, y, f)
                        assert reduce_data(made, y).entries == want.entries

    def test_verify_on_constructed_data(self):
        for f in CONTRACT_AFS:
            for sigma in VERIFIABLE_SEMANTICS:
                for x in REPRESENTATIVES:
                    if more_informative(x, exact_class(sigma)):
                        want = extensions(f, sigma)
                        assert verify(sigma, verification_class(f, x), f.args) == want
                        assert verify(sigma, defined_data(f, x), f.args) == want

    def test_verify_on_entries_in_any_order(self):
        # the public constructor keeps the caller's order and repeats, and
        # verify still answers in extension order, each set once
        for f in CONTRACT_AFS:
            for sigma in VERIFIABLE_SEMANTICS:
                entries = verification_class(f, exact_class(sigma)).entries
                for shuffled in (entries[::-1], entries + entries[::-1]):
                    data = VerificationClassData(exact_class(sigma), shuffled)
                    assert verify(sigma, data, f.args) == extensions(f, sigma), (f, sigma)

    @pytest.mark.parametrize("sigma", ["id", "eag"])
    @settings(max_examples=40, deadline=None)
    @given(f=seven_arg_afs())
    def test_id_eag_verify_on_repeated_entries(self, sigma, f):
        # the greatest admissible set below the meet is the OR of those
        # below it, however often an entry repeats
        entries = verification_class(f, exact_class(sigma)).entries
        data = VerificationClassData(exact_class(sigma), entries + entries[1::2] + entries[::-3])
        assert verify(sigma, data, f.args) == extensions(f, sigma)

    def test_verify_indexes_arguments_outside_the_data(self):
        # "a" is in no conflict-free set and "z" in no framework; both still
        # count against the stable range
        data = verification_class(AF("ab", [("a", "a"), ("b", "a")]), "+")
        assert verify("stb", data, ["a", "b"]) == (fs("b"),)
        assert verify("stb", data, ["a", "b", "z"]) == ()
        assert verify("nav", data, ["a", "b", "z"]) == (fs("b"),)


class TestClassDataStructure:
    def test_no_sets_until_entries_are_read(self, monkeypatch):
        # the class data and every criterion stay on masks: no framework
        # set is made, and no entry materialised, until `entries` is read
        rng = random.Random(14)
        names = [f"a{i:02d}" for i in range(14)]
        f = AF(names, rng.sample([(a, b) for a in names for b in names if a != b], 36))
        want = {sigma: extensions(f, sigma) for sigma in VERIFIABLE_SEMANTICS}
        made = []
        set_of = AF.set_of
        monkeypatch.setattr(AF, "set_of", lambda self, m: made.append(m) or set_of(self, m))
        top = verification_class(f, "+−")
        datas = [top]
        for sigma in VERIFIABLE_SEMANTICS:
            exact = verification_class(f, exact_class(sigma))
            reduced = reduce_data(top, exact_class(sigma))
            assert verify(sigma, exact, f.args) == want[sigma]
            assert verify(sigma, reduced, f.args) == want[sigma]
            datas += [exact, reduced]
        assert made == []
        assert all("entries" not in vars(data) for data in datas)
        assert len(top.entries) > 200
        assert top.entries == defined_data(f, "+−").entries
        assert made  # the counting patch is live


class TestInformativeness:
    def test_top_beats_everything(self):
        assert all(more_informative("+−", y) for y in REPRESENTATIVES)

    def test_reflexive(self):
        assert all(more_informative(x, x) for x in REPRESENTATIVES)

    def test_plus_minus_incomparable(self):
        assert not more_informative("+", "-")
        assert not more_informative("-", "+")

    def test_partial_order(self):
        reps = list(REPRESENTATIVES)
        for x in reps:
            for y in reps:
                if more_informative(x, y) and more_informative(y, x):
                    assert x == y
                for z in reps:
                    if more_informative(x, y) and more_informative(y, z):
                        assert more_informative(x, z)

    def test_lattice_arcs(self):
        arcs = {
            "+": ("+±", "+∓"),
            "±": ("+±", "±∓", "−±"),
            "∩": ("+±", "∩∪", "−∓"),
            "Δ": ("±∓", "∩∪"),
            "∪": ("+∓", "∩∪", "−±"),
            "∓": ("+∓", "±∓", "−∓"),
            "-": ("−±", "−∓"),
        }
        for lower, uppers in arcs.items():
            assert more_informative(lower, "ε")
            for upper in uppers:
                assert more_informative(upper, lower)
                assert not more_informative(lower, upper)

    def test_table_pinned(self):
        # each class -> the classes it is at least as informative as
        below = {
            "ε": "ε",
            "+": "ε +",
            "-": "ε -",
            "±": "ε ±",
            "∓": "ε ∓",
            "∩": "ε ∩",
            "∪": "ε ∪",
            "Δ": "ε Δ",
            "+±": "ε + ± ∩ +±",
            "+∓": "ε + ∓ ∪ +∓",
            "±∓": "ε ± ∓ Δ ±∓",
            "∩∪": "ε ∩ ∪ Δ ∩∪",
            "−±": "ε - ± ∪ −±",
            "−∓": "ε - ∓ ∩ −∓",
            "+−": "ε + - ± ∓ ∩ ∪ Δ +± +∓ ±∓ ∩∪ −± −∓ +−",
        }
        assert list(below) == list(REPRESENTATIVES)
        for x, ys in below.items():
            assert [y for y in REPRESENTATIVES if more_informative(x, y)] == ys.split(), x

    def test_representative_collapse(self):
        assert representative_of(("+", "∩")) == "+±"
        assert representative_of(("∓", "∪")) == "+∓"
        assert representative_of(("±", "Δ")) == "±∓"
        assert representative_of(("∪", "Δ")) == "∩∪"
        assert representative_of(("-", "∪")) == "−±"
        assert representative_of(("∓", "∩")) == "−∓"
        assert representative_of(("+", "Δ")) == "+−"
        assert representative_of(("+", "-", "∪")) == "+−"
        assert representative_of(("±", "∓", "Δ")) == "±∓"
        assert representative_of(()) == "ε"


class TestExactClass:
    @pytest.mark.parametrize(
        "sigma,cls",
        [
            ("nav", "ε"), ("stb", "+"), ("stg", "+"), ("adm", "∓"), ("prf", "∓"),
            ("id", "∓"), ("semi", "+∓"), ("eag", "+∓"), ("grd", "−±"), ("sad", "−±"),
            ("com", "+−"),
        ],
    )
    def test_table(self, sigma, cls):
        assert exact_class(sigma) == cls

    def test_unverifiable_semantics(self):
        with pytest.raises(AFError, match="no verification class for semantics 'cf'"):
            exact_class("cf")


class TestVerify:
    def test_stable_from_range_class(self, f_neigh):
        data = verification_class(f_neigh, "+")
        assert verify("stb", data, f_neigh.args) == (fs("a", "c"),)

    def test_complete_distinguishing_pair(self):
        f1 = AF("ab", [("b", "b"), ("b", "a")])
        f1p = AF("ab", [("b", "b")])
        out1 = verify("com", verification_class(f1, "+−"), f1.args)
        out2 = verify("com", verification_class(f1p, "+−"), f1p.args)
        assert out1 == (fs(),)
        assert out2 == (fs("a"),)

    def test_naive_from_empty_class(self, f_neigh):
        data = verification_class(f_neigh, "ε")
        assert set(verify("nav", data, f_neigh.args)) == set(extensions(f_neigh, "nav"))

    def test_insufficient_class_rejected(self, f_neigh):
        data = verification_class(f_neigh, "+")
        with pytest.raises(InsufficientClassError):
            verify("com", data, f_neigh.args)

    def test_oracle_equivalence_two_args(self):
        for f in all_afs(["a", "b"]):
            for sigma in EXACT_CLASS:
                data = verification_class(f, exact_class(sigma))
                want = sort_extensions(ORACLES[sigma](f))
                assert verify(sigma, data, f.args) == want, (sigma, f)

    def test_monotone_in_informativeness(self):
        for f in all_afs(["a", "b"]):
            for sigma in EXACT_CLASS:
                for cls in REPRESENTATIVES:
                    if more_informative(cls, exact_class(sigma)):
                        data = verification_class(f, cls)
                        assert verify(sigma, data, f.args) == extensions(f, sigma)

    def test_reduce_data_roundtrip(self, f_neigh):
        for f in [f_neigh, *all_afs(["a", "b"])]:
            for x in REPRESENTATIVES:
                data = verification_class(f, x)
                for y in REPRESENTATIVES:
                    if more_informative(x, y):
                        assert reduce_data(data, y) == verification_class(f, y), (x, y, f)

    def test_reduce_data_needs_the_information(self, f_neigh):
        data = verification_class(f_neigh, "+")
        for y in ("-", "±", "+−"):
            with pytest.raises(InsufficientClassError, match=re.escape(f"class + cannot be reduced to {y}")):
                reduce_data(data, y)

    def test_oracle_equivalence_sampled_four_args(self):
        import random

        from oracles import random_af

        rng = random.Random(44)
        for _ in range(60):
            f = random_af(rng, "abcd", 0.3)
            for sigma in EXACT_CLASS:
                data = verification_class(f, exact_class(sigma))
                want = sort_extensions(ORACLES[sigma](f))
                assert verify(sigma, data, f.args) == want, (sigma, f)

    @pytest.mark.parametrize("sigma", VERIFIABLE_SEMANTICS)
    @settings(max_examples=15, deadline=None)
    @given(f=five_six_arg_afs())
    def test_oracle_equivalence_five_six_args(self, sigma, f):
        data = verification_class(f, exact_class(sigma))
        assert verify(sigma, data, f.args) == sort_extensions(ORACLES[sigma](f)), f

    @pytest.mark.parametrize("sigma", VERIFIABLE_SEMANTICS)
    @settings(max_examples=15, deadline=None)
    @given(f=seven_arg_afs())
    def test_oracle_equivalence_seven_args(self, sigma, f):
        # from the exact class, and from the most informative class reduced to it
        want = sort_extensions(ORACLES[sigma](f))
        exact = exact_class(sigma)
        assert verify(sigma, verification_class(f, exact), f.args) == want, f
        reduced = reduce_data(verification_class(f, "+−"), exact)
        assert reduced.class_id == exact
        assert verify(sigma, reduced, f.args) == want, f

    @settings(max_examples=60, deadline=None)
    @given(f=seven_arg_afs())
    def test_one_argument_rules(self, f):
        # com and sad each check one-argument extensions of a set, where the
        # oracles scan every pair of entries
        for sigma, oracle in (("com", gamma_com_pairwise), ("sad", gamma_sad_scan)):
            entries = verification_class(f, exact_class(sigma))._masks
            got = verifiability._GAMMA[sigma](entries, f.full_mask)
            assert sorted(got) == sorted(oracle(entries, f.full_mask)), (sigma, f)

    def test_layered_counterexample_framework(self):
        # the local grd criterion would wrongly accept {u, x} here
        f = AF("buxd", [("u", "b"), ("b", "x"), ("b", "d")])
        data = verification_class(f, "−±")
        assert verify("grd", data, f.args) == (fs("d", "u", "x"),)
        assert set(verify("sad", data, f.args)) == {
            fs(), fs("u"), fs("u", "x"), fs("u", "d"), fs("u", "x", "d"),
        }


class TestExactnessFixtures:
    @pytest.mark.parametrize("sigma,weaker,f,g", EXACTNESS_FIXTURES)
    def test_pairs(self, sigma, weaker, f, g):
        # identical data at the weaker class and everything below it
        for cls in REPRESENTATIVES:
            if more_informative(weaker, cls):
                assert verification_class(f, cls) == verification_class(g, cls), cls
        assert extensions(f, sigma) != extensions(g, sigma)

    def test_rows_cover_all_weaker_representatives(self):
        by_sigma: dict[str, set[str]] = {}
        for sigma, weaker, _, _ in EXACTNESS_FIXTURES:
            covered = by_sigma.setdefault(sigma, set())
            for cls in REPRESENTATIVES:
                if more_informative(weaker, cls):
                    covered.add(cls)
        for sigma, covered in by_sigma.items():
            exact = exact_class(sigma)
            weaker_all = {
                cls
                for cls in REPRESENTATIVES
                if more_informative(exact, cls) and cls != exact
            }
            assert covered == weaker_all, sigma
