import itertools
import pickle
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afkit import config, core, semantics
from afkit.core import AF, AFError, sccs
from afkit.semantics import (
    EnumerationLimitError,
    Labelling,
    extensions,
    grounded_iteration,
    labellings,
    sort_extensions,
    strongly_admissible,
)
from afkit.config import CLASSIFIABLE_SEMANTICS, VERIFIABLE_SEMANTICS
from afkit.realizability import implicit_conflicts, is_compact
from afkit.verifiability import exact_class, verification_class, verify

from fixtures import afs_abcd_up_to_renaming, five_six_arg_afs, seven_arg_afs, sparse_random_af
from oracles import (
    ORACLES,
    adm_masks_by_filter,
    all_afs,
    cf_oracle,
    implicit_conflicts_oracle,
    labelling_oracle,
    maximal_oracle,
    nav_oracle,
    random_af,
    sad_selfref_oracle,
    select_oracle,
)


def fs(*xs):
    return frozenset(xs)


def as_set(exts):
    return set(exts)


def walk_nodes(call):
    """call's result and the number of nodes the conflict-free walk expanded
    for it (calls of its inner `walk`)."""
    nodes = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk":
            nodes[0] += 1

    sys.setprofile(profile)
    try:
        out = call()
    finally:
        sys.setprofile(None)
    return out, nodes[0]


def _chain(n):
    """a0000 -> a0001 -> ... -> a<n-1>: the grounded extension takes every other argument."""
    names = [f"a{i:04d}" for i in range(n)]
    return AF(names, list(zip(names, names[1:])))


class TestExamples:
    def test_six_af_stable(self, f_six, g_six):
        assert as_set(extensions(f_six, "stb")) == {fs("b", "d")}
        assert as_set(extensions(g_six, "stb")) == {fs("b", "d")}

    def test_self_attacker_stable_vs_stage(self):
        f = AF(["a1"], [("a1", "a1")])
        assert extensions(f, "stb") == ()
        assert as_set(extensions(f, "stg")) == {fs()}

    def test_three_cycle_stage(self, three_cycle):
        assert as_set(extensions(three_cycle, "stg")) == {fs("a1"), fs("a2"), fs("a3")}

    def test_empty_preferred(self):
        assert as_set(extensions(AF([], []), "prf")) == {fs()}

    def test_three_cycle_cf2_base_case(self, three_cycle):
        assert extensions(three_cycle, "cf2") == extensions(three_cycle, "nav")

    def test_ordering_is_by_size_then_lex(self):
        f = AF("ab", [])
        assert extensions(f, "cf") == (fs(), fs("a"), fs("b"), fs("a", "b"))

    def test_unknown_semantics(self):
        with pytest.raises(AFError):
            extensions(AF("a", []), "weird")


class TestGroundedIteration:
    def test_empty(self):
        assert grounded_iteration(AF([], [])) == (fs(), [fs()])

    def test_layered_example(self, f_layers):
        ext, trace = grounded_iteration(f_layers)
        assert trace[1] == fs("a", "d")
        assert trace[2] == fs("a", "d", "c", "f")
        assert ext == fs("a", "c", "d", "f")
        assert as_set(extensions(f_layers, "grd")) == {ext}

    def test_self_attacker(self):
        assert grounded_iteration(AF(["a"], [("a", "a")])) == (fs(), [fs()])

    @settings(max_examples=80, deadline=None)
    @given(f=st.one_of(five_six_arg_afs(), seven_arg_afs()), data=st.data())
    def test_trace_is_the_characteristic_iteration(self, f, data):
        # the worklist trace equals Gamma applied over all of `within` at
        # every step, on any sub-mask
        within = data.draw(st.integers(0, f.full_mask))
        want = [0]
        while semantics._characteristic(f, want[-1], within) != want[-1]:
            want.append(semantics._characteristic(f, want[-1], within))
        trace = [0]
        assert semantics._grounded(f, within, trace) == want[-1] and trace == want

    def test_long_chain_trace_is_linear(self, monkeypatch):
        # a chain of n arguments takes n/2 steps; re-checking only what the
        # last step newly defeated keeps the rows read linear in n
        n = 1200
        names = [f"a{i:04d}" for i in range(n)]
        f = AF(names, [(names[i], names[i + 1]) for i in range(n - 1)])
        rows = []
        attacked = core.Frame.attacked_by_mask
        monkeypatch.setattr(core.Frame, "attacked_by_mask", lambda x, m: rows.append(m.bit_count()) or attacked(x, m))
        ext, trace = grounded_iteration(f)
        assert ext == frozenset(names[::2]) and len(trace) == n // 2 + 1
        assert trace[1] == fs(names[0]) and trace[-2] | {names[-2]} == ext
        assert sum(rows) < 4 * n


class TestStronglyAdmissible:
    def test_layered_example(self, f_layers):
        expected = {
            fs(), fs("a"), fs("d"), fs("a", "d"), fs("a", "c"), fs("d", "f"),
            fs("a", "d", "c"), fs("a", "d", "f"), fs("a", "c", "f"), fs("a", "d", "c", "f"),
        }
        assert as_set(strongly_admissible(f_layers)) == expected

    def test_empty(self):
        assert as_set(strongly_admissible(AF([], []))) == {fs()}

    def test_mutual_attack(self):
        # frozen from the self-referential oracle over all subsets
        f = AF("ab", [("a", "b"), ("b", "a")])
        assert sad_selfref_oracle(f) == {fs()}
        assert as_set(strongly_admissible(f)) == {fs()}

    def test_matches_oracle_on_all_two_arg_afs(self):
        for f in all_afs(["a", "b"]):
            assert as_set(strongly_admissible(f)) == sad_selfref_oracle(f)

    def test_grounded_is_greatest(self, f_layers):
        sad = as_set(strongly_admissible(f_layers))
        (grd,) = extensions(f_layers, "grd")
        assert grd in sad and all(s <= grd for s in sad)


class TestLabellings:
    def test_walkthrough_pair(self):
        f = AF("ab", [("a", "b"), ("b", "b")])
        g = AF("ab", [("b", "b")])
        assert labellings(f, "prf") == (Labelling(fs("a"), fs("b"), fs()),)
        assert labellings(g, "prf") == (Labelling(fs("a"), fs(), fs("b")),)

    def test_empty_grounded(self):
        assert labellings(AF([], []), "grd") == (Labelling(fs(), fs(), fs()),)

    def test_partition_invariant(self):
        for f in all_afs(["a", "b"]):
            for sigma in ("stb", "semi", "eag", "prf", "id", "grd", "com"):
                for lab in labellings(f, sigma):
                    union = lab.in_set | lab.out_set | lab.undec_set
                    assert union == f.args
                    assert not (lab.in_set & lab.out_set)
                    assert not (lab.in_set & lab.undec_set)
                    assert not (lab.out_set & lab.undec_set)

    def test_cardinality_matches_extensions(self):
        for f in all_afs(["a", "b"]):
            for sigma in ("stb", "semi", "eag", "prf", "id", "grd", "com"):
                assert len(labellings(f, sigma)) == len(extensions(f, sigma))

    def test_admissible_unsupported(self):
        with pytest.raises(AFError):
            labellings(AF("a", []), "adm")

    def test_value_contract(self):
        # equality, hash, frozenness, repr and pickling of the public type
        lab = Labelling(fs("a"), fs("b"), fs())
        same = Labelling(fs("a"), fs("b"), fs())
        assert lab == same and hash(lab) == hash(same) and len({lab, same}) == 1
        assert lab != Labelling(fs("a"), fs(), fs("b"))
        assert lab != (fs("a"), fs("b"), fs())
        for field in ("in_set", "out_set", "undec_set"):
            with pytest.raises(AttributeError):
                setattr(lab, field, fs())
        assert lab == same
        assert repr(lab) == "Labelling(in_set=frozenset({'a'}), out_set=frozenset({'b'}), undec_set=frozenset())"
        assert pickle.loads(pickle.dumps(lab)) == lab


class TestStructuralProperties:
    def test_oracle_agreement_two_args(self):
        for f in all_afs(["a", "b"]):
            for sigma, oracle in ORACLES.items():
                assert as_set(extensions(f, sigma)) == oracle(f), (sigma, f)

    def test_prf_equals_max_adm_equals_max_com(self):
        for f in all_afs(["a", "b"]):
            adm = as_set(extensions(f, "adm"))
            com = as_set(extensions(f, "com"))
            prf = as_set(extensions(f, "prf"))
            assert prf == {s for s in adm if not any(s < t for t in adm)}
            assert prf == {s for s in com if not any(s < t for t in com)}

    def test_dcl_of_naive_is_cf(self):
        for f in all_afs(["a", "b"]):
            dcl = set()
            for s in nav_oracle(f):
                members = sorted(s)
                for i in range(1 << len(members)):
                    dcl.add(fs(*(members[j] for j in range(len(members)) if i >> j & 1)))
            assert dcl == cf_oracle(f)

    def test_uniqueness_statuses(self):
        for f in all_afs(["a", "b"]):
            for sigma in ("grd", "id", "eag"):
                assert len(extensions(f, sigma)) == 1
            for sigma in ("nav", "prf", "com", "stg", "semi", "cf2", "stg2"):
                assert len(extensions(f, sigma)) >= 1


class TestSampledLargerFrameworks:
    CHAINS = [
        ("stb", "semi"), ("semi", "prf"), ("prf", "com"), ("com", "adm"), ("adm", "cf"),
        ("stb", "stg"), ("stg", "nav"), ("nav", "cf"),
        ("stb", "stg2"), ("stg2", "cf2"), ("cf2", "nav"),
        ("grd", "com"), ("id", "com"), ("eag", "com"),
    ]

    def test_subset_diagram_on_random_four_and_five_arg_afs(self):
        import random

        rng = random.Random(42)
        for _ in range(150):
            f = random_af(rng, "abcd", 0.3)
            ext = {s: as_set(extensions(f, s)) for s, _ in self.CHAINS} | {
                t: as_set(extensions(f, t)) for _, t in self.CHAINS
            }
            for small, large in self.CHAINS:
                assert ext[small] <= ext[large], (small, large, f)
        for _ in range(40):
            f = random_af(rng, "abcde", 0.25)
            for small, large in self.CHAINS:
                assert as_set(extensions(f, small)) <= as_set(extensions(f, large))

    def test_oracles_on_random_four_arg_afs(self):
        import random

        rng = random.Random(43)
        for _ in range(80):
            f = random_af(rng, "abcd", 0.3)
            for sigma, oracle in ORACLES.items():
                assert as_set(extensions(f, sigma)) == oracle(f), (sigma, f)


class TestEngineAgainstOracles:
    @pytest.mark.parametrize(
        "sigma", ["nav", "stg", "adm", "com", "stb", "prf", "semi", "id", "eag", "sad", "cf2", "stg2"]
    )
    @settings(max_examples=15, deadline=None)
    @given(f=five_six_arg_afs())
    def test_five_six_args(self, sigma, f):
        assert as_set(extensions(f, sigma)) == ORACLES[sigma](f)

    @pytest.mark.parametrize(
        "sigma", ("adm",) + semantics.COMPLETE_FAMILY + ("sad", "nav", "stg", "cf2", "stg2")
    )
    @settings(max_examples=15, deadline=None)
    @given(f=seven_arg_afs())
    def test_seven_args(self, sigma, f):
        assert as_set(extensions(f, sigma)) == ORACLES[sigma](f)

    @pytest.mark.parametrize("sigma", semantics.SEMANTICS)
    @settings(max_examples=15, deadline=None)
    @given(f=five_six_arg_afs(), data=st.data())
    def test_within_is_the_induced_subframework(self, sigma, f, data):
        within = data.draw(st.integers(0, f.full_mask))
        inside = f.set_of(within)
        assume(any((a in inside) != (b in inside) for a, b in f.attacks))
        got = {f.set_of(m) for m in semantics.extension_masks(f, sigma, within, config.max_enum_args())}
        assert got == as_set(extensions(f.restrict(inside), sigma))


class TestEngineStructure:
    def test_cf2_stg2_build_no_framework(self, monkeypatch):
        f = AF(
            "abcdefg",
            [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "c"),
             ("e", "f"), ("f", "f"), ("f", "g")],
        )
        assert len(sccs(f)) > 1
        expected = {sigma: ORACLES[sigma](f) for sigma in ("cf2", "stg2")}
        # counted at the one construction body, which both AF(...) and the
        # checked-names constructor run
        built = []
        body = AF._build

        def counting_build(self, *args):
            built.append(args)
            body(self, *args)

        monkeypatch.setattr(AF, "_build", counting_build)
        for sigma in ("cf2", "stg2"):
            assert as_set(extensions(f, sigma)) == expected[sigma]
        assert built == []
        AF("a", [])
        assert len(built) == 1  # the counting patch is live

    @staticmethod
    def _count_sweeps(monkeypatch) -> list[tuple[str, int | None]]:
        """Record the name and the mask swept (None for all of f) of each
        conflict-free or naive sweep made."""
        calls = []
        for name in ("cf_masks", "naive_masks"):
            sweep = getattr(semantics, name)
            monkeypatch.setattr(
                semantics, name,
                lambda f, *rest, name=name, sweep=sweep: calls.append((name, rest[0] if rest else None))
                or sweep(f, *rest),
            )
        return calls

    def test_one_sweep(self, monkeypatch, g_six_wide, three_cycle):
        calls = self._count_sweeps(monkeypatch)
        # id/eag on several components, where the grounded extension leaves
        # non-self-attacking arguments open, sweep conflict-free sets; cf2/stg2
        # on a single component, where the base case covers the whole
        # framework, enumerate its naive sets once
        cases = [
            (g_six_wide, "id", "cf_masks"), (g_six_wide, "eag", "cf_masks"),
            (three_cycle, "cf2", "naive_masks"), (three_cycle, "stg2", "naive_masks"),
        ]
        for f, sigma, sweep in cases:
            calls.clear()
            assert as_set(extensions(f, sigma)) == ORACLES[sigma](f)
            assert [name for name, _ in calls] == [sweep], sigma

    def test_grounded_decided_frames_make_no_sweep(self, monkeypatch, f_layers):
        # G decides every argument of f_layers, and leaves only the
        # self-attackers c and d open on the second frame: either way G is
        # the only admissible set containing G, so the complete family
        # answers from it alone (stb with [] when anything is left open)
        leftover = AF("abcd", [("a", "b"), ("b", "c"), ("c", "c"), ("d", "d")])
        calls = self._count_sweeps(monkeypatch)
        for f in (f_layers, leftover):
            for sigma in semantics.COMPLETE_FAMILY:
                assert as_set(extensions(f, sigma)) == ORACLES[sigma](f), sigma
        assert calls == []
        assert extensions(leftover, "stb") == () and extensions(f_layers, "stb") == (fs("a", "c", "d", "f"),)

    def test_cf2_stg2_sweep_single_components_once(self, monkeypatch):
        # five 3-cycles in a chain, each attacking the next: the naive sets
        # are swept only on sub-masks that are one component, each at most once
        names = [f"c{k}{j}" for k in range(5) for j in range(3)]
        cycles = [(f"c{k}{j}", f"c{k}{(j + 1) % 3}") for k in range(5) for j in range(3)]
        f = AF(names, cycles + [(f"c{k}2", f"c{k + 1}0") for k in range(4)])
        calls = self._count_sweeps(monkeypatch)
        for sigma in ("cf2", "stg2"):
            calls.clear()
            assert as_set(extensions(f, sigma)) == ORACLES[sigma](f), sigma
            swept = [m for name, m in calls if name == "naive_masks"]
            assert len(calls) == len(swept) > 0, sigma
            assert len(swept) == len(set(swept)), sigma
            assert all(len(core.scc_masks(f, m)) == 1 for m in swept), sigma

    @pytest.mark.parametrize("n", [20, 400])
    def test_naive_family_is_output_sized(self, monkeypatch, n):
        # one naive set among 2^n conflict-free ones
        monkeypatch.setenv("AFKIT_MAX_ARGS", "2000")
        f = AF([f"a{i:03d}" for i in range(n)])
        calls = self._count_sweeps(monkeypatch)
        for sigma in ("nav", "stg", "cf2", "stg2"):
            assert extensions(f, sigma) == (f.args,), sigma
        assert "cf_masks" not in [name for name, _ in calls]

    @pytest.mark.parametrize(
        "f", [AF([f"a{i:02d}" for i in range(20)]), _chain(24)], ids=["isolated20", "chain24"]
    )
    def test_complete_family_sweeps_outside_grounded(self, monkeypatch, f):
        # every complete extension is the grounded one here, and nothing lies
        # outside it and its range: the sweep is the empty set alone
        monkeypatch.delenv("AFKIT_MAX_ARGS", raising=False)
        swept = []
        sweep = semantics.cf_masks

        def counting(f, *rest):
            out = sweep(f, *rest)
            swept.append(len(out))
            return out

        monkeypatch.setattr(semantics, "cf_masks", counting)
        grd = extensions(f, "grd")
        for sigma in semantics.COMPLETE_FAMILY:
            swept.clear()
            assert extensions(f, sigma) == grd, sigma
            assert sum(swept) <= 1, sigma

    @settings(max_examples=60, deadline=None)
    @given(f=st.one_of(five_six_arg_afs(), seven_arg_afs()), data=st.data())
    def test_naive_produces_each_set_once(self, f, data):
        within = data.draw(st.integers(0, f.full_mask))
        masks = semantics.naive_masks(f, within)
        assert len(masks) == len(set(masks))
        assert {f.set_of(m) for m in masks} == nav_oracle(f.restrict(f.set_of(within)))

    @staticmethod
    def _check_cf_walk(f, within):
        walk = semantics.cf_masks(f, within)
        assert walk == [(m, f.attacked_by_mask(m), f.attackers_of_mask(m)) for m, _, _ in walk]
        masks = [m for m, _, _ in walk]
        assert len(masks) == len(set(masks))
        assert {f.set_of(m) for m in masks} == cf_oracle(f.restrict(f.set_of(within)))
        # pre-order: the lexicographic order of their ascending indices, over all sizes
        walk_order = [tuple(core.bits(m)) for m in masks]
        assert walk_order == sorted(walk_order), (f, within)

    def test_cf_walk_recurses_only_where_a_later_row_is_left(self):
        # the chain a -> b -> c -> d and a self-attacking e: the rows are a to
        # d, and the walk opens a node at the root and at each set whose last
        # member comes before d, {a}, {b}, {c} and {a, c}, not at the others
        f = AF("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "e")])
        out, nodes = walk_nodes(lambda: semantics.cf_masks(f))
        assert [f.set_of(m) for m, _, _ in out] == [
            fs(), fs("a"), fs("a", "c"), fs("a", "d"), fs("b"), fs("b", "d"), fs("c"), fs("d"),
        ]
        assert nodes == 5

    def test_cf_walk_on_every_small_framework(self):
        # all 528 frameworks on two or three arguments, under every sub-mask
        frameworks = list(all_afs(["a", "b"])) + list(all_afs(["a", "b", "c"]))
        assert len(frameworks) == 528
        for f in frameworks:
            for within in range(f.full_mask + 1):
                self._check_cf_walk(f, within)

    @settings(max_examples=60, deadline=None)
    @given(f=st.one_of(five_six_arg_afs(), seven_arg_afs()), data=st.data())
    def test_cf_walk_carries_each_sets_masks(self, f, data):
        self._check_cf_walk(f, data.draw(st.integers(0, f.full_mask)))

    @settings(max_examples=60, deadline=None)
    @given(f=st.one_of(five_six_arg_afs(), seven_arg_afs()), data=st.data())
    def test_guarded_walk_is_the_filtered_walk(self, f, data):
        # the look-ahead cuts only branches that hold no set with every
        # attacker in `guard` counter-attacked, and leaves the order alone
        within = data.draw(st.integers(0, f.full_mask))
        guard = data.draw(st.integers(0, f.full_mask))
        walk = semantics.cf_masks(f, within)
        assert semantics.cf_masks(f, within, guard) == [
            (m, hit, hit_by) for m, hit, hit_by in walk if hit_by & guard & ~hit == 0
        ]

    @settings(max_examples=60, deadline=None)
    @given(f=st.one_of(five_six_arg_afs(), seven_arg_afs()), data=st.data())
    def test_adm_walk_is_the_sweep_then_filter(self, f, data):
        # the same list in the same order as the full conflict-free sweep
        # followed by the defence filter, from the empty set and from the
        # grounded extension of `within`
        within = data.draw(st.integers(0, f.full_mask))
        grd = semantics.extension_masks(f, "grd", within, config.max_enum_args())[0]
        for root in (0, grd):
            assert semantics._adm_masks(f, within, root) == adm_masks_by_filter(f, within, root), root

    def test_naive_on_every_conflict_graph(self):
        # the naive sets depend only on the symmetric conflict relation
        edges = list(itertools.combinations("abcde", 2))
        for k in range(1 << len(edges)):
            f = AF("abcde", [e for i, e in enumerate(edges) if k >> i & 1])
            masks = semantics.naive_masks(f, f.full_mask)
            assert len(masks) == len(set(masks))
            assert {f.set_of(m) for m in masks} == nav_oracle(f), f

    @settings(max_examples=40, deadline=None)
    @given(f=five_six_arg_afs())
    def test_sad_produces_each_set_once(self, f):
        masks = semantics._sad_masks(f, f.full_mask)
        assert len(masks) == len(set(masks))

    def test_sad_walk_reads_each_attack_a_bounded_number_of_times(self, monkeypatch):
        # 601 strongly admissible sets along one chain: carrying Gamma and
        # the defeated arguments down the walk keeps the rows read linear in
        # n, where recomputing Gamma at every node reads n rows per set
        monkeypatch.setenv("AFKIT_MAX_ARGS", "2000")
        n = 1200
        chain = _chain(n)
        rows = []
        attacked = core.Frame.attacked_by_mask
        monkeypatch.setattr(core.Frame, "attacked_by_mask", lambda x, m: rows.append(m.bit_count()) or attacked(x, m))
        masks = semantics._sad_masks(chain, chain.full_mask)
        assert len(masks) == len(set(masks)) == 601
        assert max(masks) == int("01" * (n // 2), 2)  # the grounded extension
        assert sum(rows) < 4 * n

    @settings(max_examples=200, deadline=None)
    @given(
        masks=st.lists(st.integers(0, (1 << 70) - 1) | st.integers(0, 63), unique=True, max_size=40),
        mode=st.sampled_from(["mask", "projection", "wide"]),
    )
    def test_maximal_matches_pairwise_oracle(self, masks, mode):
        # the projections tie many keys; the wide key spans more than 64 bits
        key = {"mask": None, "projection": lambda m: m & 0b1011, "wide": lambda m: m | m << 66}[mode]
        assert sorted(semantics.maximal(masks, key)) == sorted(maximal_oracle(masks, key))

    @settings(max_examples=200, deadline=None)
    @given(
        masks=st.lists(st.integers(0, 63) | st.integers(0, (1 << 70) - 1), max_size=40),
        mode=st.sampled_from(["mask", "projection", "wide"]),
    )
    def test_maximal_keeps_repeats_together(self, masks, mode):
        # repeated masks, as class data with repeated entries gives
        key = {"mask": None, "projection": lambda m: m & 0b1011, "wide": lambda m: m | m << 66}[mode]
        masks = masks + masks[::2]
        assert sorted(semantics.maximal(masks, key)) == sorted(maximal_oracle(masks, key))

    @pytest.mark.parametrize("sigma", ["nav", "prf", "stg", "semi", "stb", "id", "eag"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_select_matches_oracle_on_admissible_supersets_of_grounded(self, sigma, data):
        # the family the complete family hands to `select`: the admissible
        # sets containing G, on random frameworks of 5 to 8 arguments
        names = "abcdefgh"[: data.draw(st.integers(5, 8))]
        slots = [(x, y) for x in names for y in names]
        f = AF(names, data.draw(st.lists(st.sampled_from(slots), max_size=2 * len(names), unique=True)))
        within = f.full_mask
        sets = semantics._adm_masks(f, within, semantics._grounded(f, within))
        in_range = lambda m: (m | f.attacked_by_mask(m)) & within
        got = semantics.select(sigma, sets, in_range, within)
        assert sorted(got) == sorted(select_oracle(sigma, sets, in_range, within))

    @pytest.mark.parametrize("sigma", ["id", "eag"])
    def test_id_eag_select_runs_one_maximality_stage(self, monkeypatch, sigma, g_six_wide):
        # the greatest admissible set below the meet is the OR of those
        # below it, with no second `maximal`
        calls = []
        stage = semantics.maximal
        monkeypatch.setattr(semantics, "maximal", lambda *a: calls.append(a) or stage(*a))
        assert as_set(extensions(g_six_wide, sigma)) == ORACLES[sigma](g_six_wide)
        assert len(calls) == 1

    def test_maximal_of_zero_and_one_masks(self):
        # the early return hands back a new list, never its argument
        for key in (None, lambda m: m & 0b1011, lambda m: m | m << 66):
            for masks in ([], [0], [0b110], [1 << 70 | 1]):
                got = semantics.maximal(masks, key)
                assert got is not masks and got == maximal_oracle(masks, key)
                got.append(-1)
                assert -1 not in masks

    @pytest.mark.parametrize("sigma", ["nav", "prf", "stg", "semi", "stb", "id", "eag"])
    def test_select_of_zero_and_one_sets(self, sigma):
        # every family of at most one conflict-free set of a framework whose
        # sets differ in range, with the key (the range) read by stg, semi,
        # stb and eag
        f = AF("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "d")])
        for within in (f.full_mask, 0b0111, 0):
            in_range = lambda m: (m | f.attacked_by_mask(m)) & within
            for sets in [[]] + [[m] for m, _, _ in semantics.cf_masks(f, within)]:
                got = semantics.select(sigma, sets, in_range, within)
                assert got is not sets and got == select_oracle(sigma, sets, in_range, within), (within, sets)

    @pytest.mark.parametrize("k", [5, 7])
    def test_stage_and_semi_stable_on_disjoint_three_cycles(self, k):
        # every naive set takes one argument per cycle and ranges over two of
        # its three, so all 3^k ranges have one size and all are stage; the
        # only admissible set is empty
        names = [f"c{i}{x}" for i in range(k) for x in "abc"]
        f = AF(names, [(f"c{i}{x}", f"c{i}{y}") for i in range(k) for x, y in ("ab", "bc", "ca")])
        picks = itertools.product(*[[f"c{i}{x}" for x in "abc"] for i in range(k)])
        assert extensions(f, "stg") == sort_extensions(frozenset(p) for p in picks)
        assert len(extensions(f, "stg")) == 3**k
        assert extensions(f, "semi") == (fs(),)


class TestEveryFrameworkOverFourArguments:
    """The arbiter on four arguments: every framework on {a,b,c,d} up to
    renaming, against the oracles, answers and order alike."""

    def test_classes(self):
        # OEIS A000595: 3 044 relations on four points up to renaming
        afs = afs_abcd_up_to_renaming()
        assert len(afs) == 3044 and afs[0] == AF("abcd", [])

    @pytest.mark.parametrize("sigma", semantics.SEMANTICS)
    def test_against_oracles(self, sigma):
        oracle = ORACLES[sigma]
        for f in afs_abcd_up_to_renaming():
            want = sort_extensions(oracle(f))
            assert extensions(f, sigma) == want, (sigma, f)
            if sigma in semantics.LABELLING_SEMANTICS:
                assert labellings(f, sigma) == tuple(labelling_oracle(f, e) for e in want), (sigma, f)

    @pytest.mark.parametrize("sigma", VERIFIABLE_SEMANTICS)
    def test_verify_at_exact_class(self, sigma):
        # the extensions come back from the exact class's digest alone
        cls = exact_class(sigma)
        for f in afs_abcd_up_to_renaming():
            assert verify(sigma, verification_class(f, cls), f.args) == extensions(f, sigma), (sigma, f)

    @pytest.mark.parametrize("sigma", CLASSIFIABLE_SEMANTICS)
    def test_classify(self, sigma):
        # The oracle reads the extensions that `test_against_oracles` pins to
        # ORACLES on these frameworks; reading ORACLES again would add 2.5 s.
        # Every classifiable semantics is conflict-free, so an argument is in
        # no extension iff it attacks itself or is an implicit conflict with
        # itself: compact iff neither happens.
        for f in afs_abcd_up_to_renaming():
            want = implicit_conflicts_oracle(f, extensions(f, sigma))
            assert implicit_conflicts(f, sigma) == want, (sigma, f)
            assert is_compact(f, sigma) == (not core.loops(f) and all(len(p) == 2 for p in want)), (sigma, f)


class TestSparseFamilyAtScale:
    """The sparse random frameworks of 30-40 arguments on which the
    conflict-free sweep of adm and the complete family ran out of time and
    memory: adm must come out output-sized, in walk order."""

    # (n, p, seed) -> the number of admissible sets
    ADM_COUNTS = [((30, 0.08, 0), 129), ((34, 0.07, 2), 1996), ((38, 0.06, 2), 17),
                  ((40, 0.05, 0), 12), ((40, 0.05, 1), 2972)]

    @pytest.mark.parametrize("params,count", ADM_COUNTS, ids=[str(p) for p, _ in ADM_COUNTS])
    def test_adm_and_complete_family(self, params, count):
        f = sparse_random_af(*params)
        full = f.full_mask
        adm, nodes = walk_nodes(lambda: semantics.extension_masks(f, "adm", full, 60))
        assert len(adm) == len(set(adm)) == count
        # a few nodes per admissible set; the unguarded sweep expanded one
        # per conflict-free set, 128 229 on the smallest of these inputs
        assert nodes <= 5 * count + 2000, nodes
        assert adm == sorted(adm, key=lambda m: tuple(core.bits(m)))
        for m in adm:
            hit = f.attacked_by_mask(m)
            assert hit & m == 0 and f.attackers_of_mask(m) & ~hit == 0, f.set_of(m)
        # complete: the admissible fixpoints of the characteristic function;
        # preferred: the ⊆-maximal complete; stable: complete with full range
        com = [m for m in adm if full & ~f.attacked_by_mask(full & ~f.attacked_by_mask(m)) == m]
        prf = [m for m in com if not any(m != t and m | t == t for t in com)]
        stb = [m for m in com if m | f.attacked_by_mask(m) == full]
        for sigma, want in (("com", com), ("prf", prf), ("stb", stb)):
            assert sorted(semantics.extension_masks(f, sigma, full, 60)) == sorted(want), sigma

    def test_formerly_out_of_memory_input(self, monkeypatch):
        # the conflict-free sweep of this input did not finish in 8 GB; the
        # walk now materialises no conflict-free set outside the output
        f = sparse_random_af(40, 0.05, 2)
        returned = []
        sweep = semantics.cf_masks

        def recording(*args):
            out = sweep(*args)
            returned.append(len(out))
            return out

        monkeypatch.setattr(semantics, "cf_masks", recording)
        tracemalloc.start()
        try:
            adm = semantics.extension_masks(f, "adm", f.full_mask, 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(adm) == 416
        assert returned == [416]
        assert peak < 1 << 20, peak


class TestOrderContract:
    """`extension_set` only sorts by size, so the engine must hand it
    distinct masks, those of one size in lexicographic order."""

    @staticmethod
    def _check_order(f):
        for sigma in semantics.SEMANTICS:
            masks = semantics.extension_masks(f, sigma, f.full_mask, config.max_enum_args())
            assert len(masks) == len(set(masks)), (f, sigma)
            if sigma in ("cf", "adm"):
                assert masks == sorted(masks, key=lambda m: tuple(core.bits(m))), (f, sigma)
            if sigma in semantics.WALK_ORDER:
                # com and stb are root | m over the walk: pre-order within each size
                assert sorted(masks, key=int.bit_count) == sorted(masks, key=semantics.mask_key), (f, sigma)
            exts = extensions(f, sigma)
            assert exts == sort_extensions(exts), (f, sigma)
            if sigma in semantics.LABELLING_SEMANTICS:
                assert labellings(f, sigma) == tuple(labelling_oracle(f, e) for e in exts), (f, sigma)

    def test_every_small_framework(self):
        frameworks = list(all_afs(["a", "b"])) + list(all_afs(["a", "b", "c"]))
        assert len(frameworks) == 528
        for f in frameworks:
            self._check_order(f)

    @settings(max_examples=40, deadline=None)
    @given(f=st.one_of(five_six_arg_afs(), seven_arg_afs()))
    def test_five_to_seven_args(self, f):
        self._check_order(f)

    def test_mask_key_is_extension_key_on_names_of_unequal_length(self):
        names = sorted(["a", "a1", "a10", "a9", "ab", "b", "ba", "c2"])
        masks = list(range(1 << len(names)))
        by_key = [core.names_of(names, m) for m in sorted(masks, key=semantics.mask_key)]
        assert by_key == sorted((core.names_of(names, m) for m in masks), key=semantics.extension_key)

    @settings(max_examples=100, deadline=None)
    @given(masks=st.lists(st.integers(0, (1 << 70) - 1) | st.integers(0, 255), unique=True, max_size=60))
    def test_mask_key_and_extension_set_on_any_family(self, masks):
        # families with and without parents, over names of unequal length and
        # more than 64 of them
        names = sorted(f"a{i}" for i in range(70))
        ordered = sorted(masks, key=semantics.mask_key)
        want = sorted((core.names_of(names, m) for m in masks), key=semantics.extension_key)
        assert [core.names_of(names, m) for m in ordered] == want
        assert semantics.extension_set(names, list(ordered)) == tuple(want)

    def test_extension_set_builds_from_parents_where_present(self, monkeypatch):
        names = ["a", "b", "c", "d"]
        # {a,b,c} and {a,b,d} have their parent {a,b}; {b,c} and {c,d} have none
        masks = [0b0011, 0b0110, 0b1100, 0b0111, 0b1011]
        want = tuple(core.names_of(names, m) for m in masks)
        calls = []

        def counting(names, m):
            calls.append(m)
            return core.names_of(names, m)

        monkeypatch.setattr(semantics, "names_of", counting)
        assert semantics.extension_set(names, list(masks)) == want
        # only the three sets without a parent go through names_of
        assert calls == [0b0011, 0b0110, 0b1100]

    def test_names_of_unequal_length(self):
        # index order is the names' string order, not their length order
        f = AF(["a10", "a9", "b", "a1"], [("a9", "b")])
        assert extensions(f, "cf")[:6] == (
            fs(), fs("a1"), fs("a10"), fs("a9"), fs("b"), fs("a1", "a10"),
        )
        assert extensions(f, "nav") == (fs("a1", "a10", "a9"), fs("a1", "a10", "b"))


class TestEnumerationCap:
    def test_cap_refuses(self, monkeypatch):
        monkeypatch.setenv("AFKIT_MAX_ARGS", "2")
        with pytest.raises(EnumerationLimitError):
            extensions(AF("abc", []), "cf")

    def test_self_attackers_do_not_count(self, monkeypatch):
        monkeypatch.setenv("AFKIT_MAX_ARGS", "2")
        f = AF("abc", [("c", "c")])
        assert fs("a", "b") in as_set(extensions(f, "cf"))

    def test_cap_counts_only_swept_arguments(self, monkeypatch):
        monkeypatch.delenv("AFKIT_MAX_ARGS", raising=False)
        chain = _chain(30)
        grd = fs(*chain.names[::2])
        for sigma in ("grd", "com", "prf", "stb"):
            assert extensions(chain, sigma) == (grd,), sigma
        # sad and the sweeps that do not start at the grounded extension
        # still count every non-self-attacking argument
        for sigma in ("sad", "adm", "cf"):
            with pytest.raises(EnumerationLimitError):
                extensions(chain, sigma)
        # 13 mutual attacks: the grounded extension is empty, all 26 are swept
        pairs = [(a, b) for a, b in zip("acegikmoqsuwy", "bdfhjlnprtvxz")]
        mutual = AF("abcdefghijklmnopqrstuvwxyz", pairs + [(b, a) for a, b in pairs])
        with pytest.raises(EnumerationLimitError, match="26 non-self-attacking arguments outside"):
            extensions(mutual, "com")

    def test_long_chain_needs_no_recursion(self, monkeypatch):
        monkeypatch.setenv("AFKIT_MAX_ARGS", "2000")
        chain = _chain(1200)
        grd = fs(*chain.names[::2])
        for sigma in ("grd", "com", "prf", "stb"):
            assert extensions(chain, sigma) == (grd,), sigma
        sad = strongly_admissible(chain)
        assert len(sad) == 601 and sad[-1] == grd
