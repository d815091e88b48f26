import pytest
from hypothesis import given, settings

from afkit.core import AF, AFError
from afkit.semantics import extensions, sort_extensions
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

from fixtures import EXACTNESS_FIXTURES, five_six_arg_afs, representative_of
from oracles import ORACLES, all_afs


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
