import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.core import AF, AFError, anti_range, bits, delete, loops, range_of, scc_masks, sccs, union_af

from fixtures import all_afs_over, five_six_arg_afs
from oracles import _scc_oracle


def fs(*xs):
    return frozenset(xs)


names = st.sampled_from(["a", "b", "c", "d"])
attacks = st.lists(st.tuples(names, names), max_size=8)


@st.composite
def afs(draw):
    atts = draw(attacks)
    extra = draw(st.lists(names, max_size=4))
    args = {a for pair in atts for a in pair} | set(extra)
    return AF(args, atts)


class TestConstruction:
    def test_endpoints_must_be_declared(self):
        with pytest.raises(AFError):
            AF("ab", [("a", "x")])

    def test_bad_name(self):
        with pytest.raises(AFError):
            AF(["a-b"], [])

    def test_duplicates_collapse(self):
        f = AF(["a", "a", "b"], [("a", "b"), ("a", "b")])
        assert f.names == ("a", "b")
        assert f.attacks == {("a", "b")}

    def test_syntactic_equality(self):
        assert AF("ab", [("a", "b")]) == AF(["b", "a"], [("a", "b")])
        assert AF("ab", [("a", "b")]) != AF("ab", [("b", "a")])


def built_fields(f):
    """Everything the construction body fills in, and the hash."""
    return f.names, f.index, f.succ, f.pred, f.attacks, hash(f)


class TestCheckedConstruction:
    def test_both_routes_build_equal_frameworks(self):
        # every framework on {a,b,c}, through the checked-names constructor
        # and through AF(...) from unsorted names and repeated attacks
        for f in all_afs_over("abc"):
            checked = AF._from_checked(f.names, f.attacks)
            public = AF(reversed(f.names), [*f.attacks, *f.attacks])
            assert built_fields(checked) == built_fields(public) == built_fields(f)
            assert checked == public and type(checked) is AF

    def test_endpoint_message(self):
        for build in (AF, AF._from_checked):
            with pytest.raises(AFError, match=r"attack endpoint not declared: \('a', 'x'\)"):
                build(["a", "b"], [("a", "b"), ("a", "x")])

    def test_derived_frameworks_equal_public_ones(self):
        f = AF("abcd", [("a", "b"), ("b", "c"), ("c", "c"), ("d", "a")])
        g = AF("cde", [("c", "e"), ("e", "d")])
        for derived in (f.restrict("bcdz"), union_af(f, g), delete(f, ["a"], [("b", "c")])):
            assert built_fields(derived) == built_fields(AF(derived.names, derived.attacks))


class TestUnion:
    def test_identity(self):
        f = AF("ab", [("a", "b")])
        assert union_af(AF([], []), f) == f

    def test_definition(self):
        assert union_af(AF("ab", [("a", "b")]), AF("bc", [("b", "c")])) == AF(
            "abc", [("a", "b"), ("b", "c")]
        )

    def test_six_af_walkthrough(self, f_six, h_six):
        assert union_af(f_six, h_six) == AF(
            "abcde", [("b", "a"), ("b", "c"), ("c", "c"), ("d", "c"), ("e", "b")]
        )

    @settings(max_examples=60)
    @given(afs(), afs(), afs())
    def test_associative_commutative_idempotent(self, f, g, h):
        assert union_af(union_af(f, g), h) == union_af(f, union_af(g, h))
        assert union_af(f, g) == union_af(g, f)
        assert union_af(f, f) == f


class TestDelete:
    def test_noop(self):
        f = AF("ab", [("a", "b")])
        assert delete(f, set(), set()) == f

    def test_update_walkthrough(self):
        f = AF("abcd", [("a", "b"), ("b", "a"), ("b", "d"), ("c", "a"), ("c", "d")])
        assert delete(f, {"c"}, {("b", "a")}) == AF("abd", [("a", "b"), ("b", "d")])

    def test_vacuous(self):
        f = AF("ab", [("a", "b")])
        assert delete(f, {"zz"}, set()) == f

    @settings(max_examples=60)
    @given(afs(), st.sets(names, max_size=3))
    def test_no_deleted_endpoint_survives(self, f, dropped):
        g = delete(f, dropped, set())
        assert all(a not in dropped and b not in dropped for a, b in g.attacks)


class TestRange:
    def test_walkthrough(self, f_neigh):
        assert range_of(f_neigh, {"a"}) == fs("a", "b")

    def test_empty(self, f_neigh):
        assert range_of(f_neigh, set()) == fs()

    def test_anti_range_scan(self, f_neigh):
        assert anti_range(f_neigh, {"c"}) == fs("c")

    def test_rejects_foreign_arguments(self, f_neigh):
        with pytest.raises(AFError):
            range_of(f_neigh, {"z"})

    @settings(max_examples=60)
    @given(afs())
    def test_contains_base(self, f):
        for e in [set(), set(list(f.args)[:1])]:
            assert range_of(f, e) >= frozenset(e)
            assert anti_range(f, e) >= frozenset(e)


class TestSccs:
    def test_singleton(self):
        assert sccs(AF("a", [])) == [fs("a")]

    def test_cycle(self, three_cycle):
        assert sccs(three_cycle) == [fs("a1", "a2", "a3")]

    def test_two_components_topological(self):
        f = AF(
            ["a1", "b1", "a2", "b2"],
            [("b1", "a1"), ("a2", "a1"), ("a1", "b2"), ("b2", "a2")],
        )
        assert sccs(f) == [fs("b1"), fs("a1", "a2", "b2")]
        assert set(sccs(f)) == _scc_oracle(f)

    def test_isolated_arguments_in_name_order(self):
        names = [f"a{i:04d}" for i in range(3000)]
        assert sccs(AF(reversed(names), [])) == [fs(a) for a in names]

    @settings(max_examples=60)
    @given(afs())
    def test_partition_and_oracle(self, f):
        parts = sccs(f)
        flat = [a for p in parts for a in p]
        assert len(flat) == len(set(flat)) == f.n
        assert set(parts) == _scc_oracle(f) or f.n == 0

    @settings(max_examples=60)
    @given(five_six_arg_afs(), st.integers(0, 63))
    def test_scc_masks_on_sub_masks(self, f, within):
        within &= f.full_mask
        parts = scc_masks(f, within)
        assert {f.set_of(m) for m in parts} == _scc_oracle(f.restrict(f.set_of(within)))
        assert sum(parts) == within  # disjoint and covering

    @settings(max_examples=60)
    @given(five_six_arg_afs(), st.integers(0, 63))
    def test_scc_masks_attackers_first(self, f, within):
        within &= f.full_mask
        position = {v: k for k, m in enumerate(scc_masks(f, within)) for v in bits(m)}
        for v in bits(within):
            for w in bits(f.succ[v] & within):
                assert position[v] <= position[w], (f, within)

    @pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
    def test_long_chains(self, forward):
        # 5 000 singleton components: a deep walk must neither recurse nor
        # take quadratic time
        names = [f"a{i:04d}" for i in range(5000)]
        links = list(zip(names, names[1:]))
        f = AF(names, links if forward else [(b, a) for a, b in links])
        order = range(5000) if forward else range(4999, -1, -1)
        assert sccs(f) == [fs(names[i]) for i in order]
        assert scc_masks(f, f.full_mask) == [1 << i for i in order]


class TestLoops:
    def test_none(self):
        assert loops(AF("ab", [("a", "b")])) == fs()

    def test_walkthrough(self, g_six_wide):
        assert loops(g_six_wide) == fs("c")

    def test_single(self):
        assert loops(AF("a", [("a", "a")])) == fs("a")
