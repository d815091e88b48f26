import collections
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from afkit import kernels
from afkit.config import DELETION_NOTIONS, EXPANSION_NOTIONS, NOTIONS
from afkit.core import AF, AFError, delete, loops, union_af
from afkit.kernels import (
    FLAVORS,
    KERNEL_IDS,
    DeletionWitness,
    SearchBudget,
    characterizing_kernel,
    decide_equivalence,
    kernel,
    search_counterexample,
)
from afkit.semantics import LABELLING_SEMANTICS, SEMANTICS, EnumerationLimitError, extensions, labellings

from fixtures import afs_abcd_up_to_renaming, five_six_arg_afs
from oracles import all_afs, kernel_oracle, random_af, witness_oracle


def fs(*xs):
    return frozenset(xs)


CLASSICAL = ("k_stb", "k_adm", "k_grd", "k_com")
STAR = ("ks_adm", "ks_grd", "ks_com", "ks_stg")


class TestKernelConstructions:
    def test_stable_kernel_walkthrough(self, g_six_wide):
        assert kernel(g_six_wide, "k_stb") == AF("abcd", [("b", "c"), ("c", "c")])

    def test_self_loop_free_fixed_point(self):
        f = AF("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        for k in CLASSICAL + STAR:
            assert kernel(f, k) == f

    def test_naive_kernel_adds(self):
        assert kernel(AF("ab", [("a", "b")]), "k_nav") == AF("ab", [("a", "b"), ("b", "a")])

    def test_adm_star_deletes(self):
        assert kernel(AF("ab", [("a", "b"), ("b", "b")]), "ks_adm") == AF("ab", [("b", "b")])

    def test_identity_kernel(self, f_six):
        assert kernel(f_six, "identity") == f_six

    def test_unknown(self):
        with pytest.raises(AFError):
            kernel(AF("a", []), "k_xyz")

    def test_matches_string_level_oracle_exhaustive(self):
        # all 528 frameworks on two or three arguments
        frameworks = list(all_afs(["a", "b"])) + list(all_afs(["a", "b", "c"]))
        assert len(frameworks) == 528
        for f in frameworks:
            for k in KERNEL_IDS:
                assert kernel(f, k) == kernel_oracle(f, k), (k, f)

    def test_matches_string_level_oracle_four_args_up_to_renaming(self):
        # the 3 044 frameworks on {a, b, c, d} up to renaming
        for f in afs_abcd_up_to_renaming():
            for k in KERNEL_IDS:
                assert kernel(f, k) == kernel_oracle(f, k), (k, f)

    @settings(max_examples=60, deadline=None)
    @given(f=five_six_arg_afs())
    def test_matches_string_level_oracle_five_six_args(self, f):
        for k in KERNEL_IDS:
            assert kernel(f, k) == kernel_oracle(f, k), (k, f)


class TestKernelFacts:
    def test_node_and_loop_preservation(self):
        rng = random.Random(7)
        for _ in range(40):
            f = random_af(rng, "abcd", 0.4)
            for k in KERNEL_IDS:
                g = kernel(f, k)
                assert g.args == f.args
                assert loops(g) == loops(f)

    def test_idempotence(self):
        rng = random.Random(8)
        for _ in range(40):
            f = random_af(rng, "abcd", 0.4)
            for k in KERNEL_IDS:
                g = kernel(f, k)
                assert kernel(g, k) == g

    def test_union_robustness_classical(self):
        rng = random.Random(9)
        pairs = 0
        while pairs < 25:
            f = random_af(rng, "abc", 0.4)
            g = random_af(rng, "abc", 0.4)
            h = random_af(rng, "abcd", 0.4)
            for k in CLASSICAL:
                if kernel(f, k) == kernel(g, k):
                    pairs += 1
                    assert kernel(union_af(f, h), k) == kernel(union_af(g, h), k)

    def test_deletion_robustness(self):
        rng = random.Random(10)
        pairs = 0
        while pairs < 25:
            f = random_af(rng, "abc", 0.4)
            g = random_af(rng, "abc", 0.4)
            drop = set(rng.sample("abc", rng.randint(0, 2)))
            for k in CLASSICAL + ("ks_adm", "ks_grd", "ks_com", "k_nav"):
                if kernel(f, k) == kernel(g, k):
                    pairs += 1
                    assert kernel(delete(f, drop), k) == kernel(delete(g, drop), k)

    def test_semantics_insensitive_pairs(self):
        pairs = [
            ("stb", "k_stb"), ("adm", "k_adm"), ("grd", "k_grd"), ("com", "k_com"),
            ("semi", "k_adm"), ("eag", "k_adm"), ("prf", "k_adm"), ("id", "k_adm"),
            ("stg", "k_stb"),
        ]
        for f in all_afs(["a", "b"]):
            for sigma, k in pairs:
                assert extensions(f, sigma) == extensions(kernel(f, k), sigma), (sigma, k, f)


class TestCharacterizingKernel:
    @pytest.mark.parametrize(
        "notion,sigma,flavor,expected",
        [
            ("E", "prf", "extension", "k_adm"),
            ("E", "id", "extension", "k_adm"),
            ("E", "semi", "extension", "k_adm"),
            ("E", "eag", "extension", "k_adm"),
            ("S", "grd", "extension", "ks_grd"),
            ("S", "com", "extension", "ks_com"),
            ("E", "adm", "labelling", "k_com"),
            ("U", "stb", "extension", "identity"),
            ("E", "cf2", "extension", "identity"),
            ("N", "stg2", "extension", "identity"),
            ("L", "stg", "extension", "ks_stg"),
            ("E", "nav", "extension", "k_nav"),
            ("E", "sad", "extension", "k_grd"),
            ("S", "grd", "labelling", "k_grd"),
            ("ND", "prf", "labelling", "k_adm"),
        ],
    )
    def test_cells(self, notion, sigma, flavor, expected):
        assert characterizing_kernel(notion, sigma, flavor) == expected

    @pytest.mark.parametrize(
        "notion,sigma,flavor",
        [
            ("L", "stb", "extension"),
            ("L", "grd", "extension"),
            ("L", "com", "extension"),
            ("W", "prf", "extension"),
            ("W", "semi", "extension"),
            ("ND", "prf", "extension"),
            ("S", "cf2", "extension"),
            ("L", "stb", "labelling"),
            ("W", "com", "labelling"),
            ("E", "cf", "extension"),
        ],
    )
    def test_open_cells(self, notion, sigma, flavor):
        assert characterizing_kernel(notion, sigma, flavor) is None


class TestTables:
    def test_extension_table_pinned(self):
        ext_sems = ("stg", "stb", "semi", "eag", "adm", "prf", "id", "grd", "com", "nav", "cf2", "stg2")
        expected = {
            "W": {s: None for s in ext_sems},
            "L": {
                "stg": "ks_stg", "stb": None, "semi": "k_adm", "eag": "k_adm",
                "adm": "k_adm", "prf": "k_adm", "id": "k_adm", "grd": None,
                "com": None, "nav": "k_nav", "cf2": None, "stg2": None,
            },
            "E": {
                "stg": "k_stb", "stb": "k_stb", "semi": "k_adm", "eag": "k_adm",
                "adm": "k_adm", "prf": "k_adm", "id": "k_adm", "grd": "k_grd",
                "com": "k_com", "nav": "k_nav", "cf2": "identity", "stg2": "identity",
            },
            "S": {
                "stg": "k_stb", "stb": "k_stb", "semi": "k_adm", "eag": "k_adm",
                "adm": "ks_adm", "prf": "ks_adm", "id": "ks_adm", "grd": "ks_grd",
                "com": "ks_com", "nav": "k_nav", "cf2": None, "stg2": None,
            },
            "ND": {s: None for s in ext_sems} | {"stb": "k_stb"},
            "D": {s: "identity" for s in ext_sems},
            "LD": {s: "identity" for s in ext_sems},
            "U": {s: "identity" for s in ext_sems},
        }
        expected["N"] = dict(expected["E"])
        for notion, row in expected.items():
            for sigma, cell in row.items():
                assert characterizing_kernel(notion, sigma, "extension") == cell, (notion, sigma)
        # criterion-backed cells answer decisions even without a kernel
        f = AF("a", [])
        for notion, sigma in [("W", "stb"), ("ND", "adm"), ("ND", "grd"), ("ND", "com")]:
            assert decide_equivalence(f, f, notion, sigma).supported

    def test_labelling_table_pinned(self):
        lab_sems = ("stb", "semi", "eag", "adm", "prf", "id", "grd", "com")
        common = {
            "stb": "k_stb", "semi": "k_adm", "eag": "k_adm", "adm": "k_com",
            "prf": "k_adm", "id": "k_adm", "grd": "k_grd", "com": "k_com",
        }
        expected = {
            "L": {s: common[s] for s in ("semi", "eag", "adm", "prf", "id")}
            | {"stb": None, "grd": None, "com": None},
            "E": common,
            "N": common,
            "S": common,
            "ND": common,
            "W": {s: None for s in lab_sems},
            "D": {s: "identity" for s in lab_sems},
            "LD": {s: "identity" for s in lab_sems},
            "U": {s: "identity" for s in lab_sems},
        }
        for notion, row in expected.items():
            for sigma, cell in row.items():
                assert characterizing_kernel(notion, sigma, "labelling") == cell, (notion, sigma)
        for notion in ("L", "E", "N", "S", "ND", "D", "LD", "U"):
            for sigma in ("stg", "nav", "cf2", "stg2", "cf", "sad"):
                assert characterizing_kernel(notion, sigma, "labelling") is None


class TestCriterionCellsSemantically:
    def test_local_expansion_cells(self):
        rng = random.Random(12)
        checked_eq = checked_neq = 0
        while checked_eq < 10 or checked_neq < 10:
            f = random_af(rng, "abc", 0.4)
            g = random_af(rng, "abc", 0.4)
            for sigma, k in [("stg", "ks_stg"), ("prf", "k_adm"), ("nav", "k_nav")]:
                verdict = decide_equivalence(f, g, "L", sigma)
                assert verdict.detail == k or verdict.answer == "unsupported"
                search = search_counterexample(f, g, "L", sigma, SearchBudget(0, 3))
                if verdict.answer == "equivalent":
                    assert search.witness is None, (sigma, f, g, search.witness)
                    checked_eq += 1
                else:
                    checked_neq += 1
                    if search.found:
                        w = search.witness
                        assert w.args <= (f.args | g.args)

    def test_weak_stable_criterion_semantically(self):
        rng = random.Random(13)
        fresh = AF(["_x0", "_x1"], [("_x0", "_x1")])
        for _ in range(120):
            f = random_af(rng, "abc", 0.4)
            g = random_af(rng, "abc", 0.4)
            verdict = decide_equivalence(f, g, "W", "stb")
            if verdict.answer != "equivalent":
                continue
            # weak expansions never let fresh arguments attack old ones;
            # sample a few and require agreement
            for h in [
                AF([], []),
                fresh,
                AF(["_x0"] + sorted(f.args | g.args), [(a, "_x0") for a in sorted(f.args | g.args)]),
            ]:
                assert extensions(union_af(f, h), "stb") == extensions(union_af(g, h), "stb")

    def test_identity_rows_semantically(self):
        rng = random.Random(15)
        confirmed = 0
        for _ in range(60):
            f = random_af(rng, "abc", 0.4)
            g = random_af(rng, "abc", 0.4)
            for notion in ("D", "LD"):
                for sigma in ("stb", "prf", "nav", "cf2"):
                    verdict = decide_equivalence(f, g, notion, sigma)
                    assert verdict.method == "identity"
                    assert (verdict.answer == "equivalent") == (f == g)
                    if verdict.answer == "not_equivalent" and notion == "D":
                        search = search_counterexample(f, g, "D", sigma, SearchBudget(0, 4))
                        assert search.found, (sigma, f, g)
                        w = search.witness
                        assert extensions(delete(f, w.args, w.attacks), sigma) != extensions(
                            delete(g, w.args, w.attacks), sigma
                        )
                        confirmed += 1
        assert confirmed > 0

    def test_normal_deletion_criterion_semantically(self):
        rng = random.Random(14)
        seen_eq = 0
        for _ in range(400):
            f = random_af(rng, "abc", 0.45)
            g = random_af(rng, "abcd", 0.45)
            for sigma in ("adm", "grd", "com"):
                verdict = decide_equivalence(f, g, "ND", sigma)
                universe = sorted(f.args | g.args)
                subsets = [
                    set(c) for r in range(len(universe) + 1)
                    for c in itertools.combinations(universe, r)
                ]
                agree = all(
                    extensions(delete(f, b), sigma) == extensions(delete(g, b), sigma)
                    for b in subsets
                )
                assert agree == (verdict.answer == "equivalent"), (sigma, f, g)
                if verdict.answer == "equivalent":
                    seen_eq += 1
        assert seen_eq > 0


class TestKernelTablesAgainstSearch:
    def test_every_pair_on_two_arguments(self):
        # every searchable cell, both flavors: a not_equivalent verdict has a
        # witness within a small budget, and an equivalent one none within a
        # smaller budget; unsupported cells are skipped
        afs = list(all_afs(["a", "b"]))
        pairs = list(itertools.combinations_with_replacement(afs, 2))
        assert len(pairs) == 136
        answers = collections.Counter()
        for f, g in pairs:
            for notion in EXPANSION_NOTIONS + DELETION_NOTIONS:
                for flavor in FLAVORS:
                    for sigma in SEMANTICS if flavor == "extension" else LABELLING_SEMANTICS:
                        answer = decide_equivalence(f, g, notion, sigma, flavor).answer
                        answers[answer] += 1
                        if answer == "not_equivalent":
                            found = search_counterexample(f, g, notion, sigma, SearchBudget(2, 3), flavor)
                            assert found.witness is not None, (notion, sigma, flavor, f, g)
                        elif answer == "equivalent":
                            none = search_counterexample(f, g, notion, sigma, SearchBudget(1, 2), flavor)
                            assert none.witness is None, (notion, sigma, flavor, f, g, none.witness)
        assert answers == {"not_equivalent": 13236, "equivalent": 2540, "unsupported": 4216}


class TestDecideEquivalence:
    def test_six_af_not_equivalent(self, f_six, g_six):
        v = decide_equivalence(f_six, g_six, "E", "stb")
        assert v.answer == "not_equivalent" and v.method == "kernel" and v.detail == "k_stb"

    def test_reflexive(self, f_six):
        for notion, sigma in [("E", "stb"), ("S", "prf"), ("U", "stb"), ("ND", "adm")]:
            assert decide_equivalence(f_six, f_six, notion, sigma).answer == "equivalent"

    def test_strong_expansion_adm_star(self):
        f = AF("ab", [("a", "b"), ("b", "b")])
        g = AF("ab", [("b", "b")])
        v = decide_equivalence(f, g, "S", "prf")
        assert v.answer == "equivalent" and v.detail == "ks_adm"

    def test_weak_stable_criterion(self, three_cycle):
        f = AF("a", [("a", "a")])
        v = decide_equivalence(f, three_cycle, "W", "stb")
        assert v.answer == "equivalent" and v.method == "criterion"
        g = AF("a", [])
        assert decide_equivalence(f, g, "W", "stb").answer == "not_equivalent"

    def test_normal_deletion_adm(self):
        f = AF(
            "abcde",
            [("b", "a"), ("a", "c"), ("a", "b"), ("b", "b"), ("a", "d"),
             ("e", "c"), ("c", "e"), ("d", "e"), ("d", "d"), ("e", "e")],
        )
        g = AF("abcf", [("b", "b"), ("a", "c"), ("a", "f"), ("c", "f"), ("f", "a"), ("f", "f")])
        assert decide_equivalence(f, g, "ND", "adm").answer == "equivalent"
        # sanity: same admissible sets survive every argument retraction tried
        for drop in [set(), {"a"}, {"b"}, {"c"}, {"d", "f"}, {"a", "b"}]:
            assert extensions(delete(f, drop), "adm") == extensions(delete(g, drop), "adm")

    def test_normal_deletion_stb_is_kernel(self, f_six, g_six):
        v = decide_equivalence(f_six, g_six, "ND", "stb")
        assert v.method == "kernel" and v.detail == "k_stb"

    def test_unsupported_cells(self, f_six, g_six):
        assert decide_equivalence(f_six, g_six, "W", "prf").answer == "unsupported"
        assert decide_equivalence(f_six, g_six, "L", "stb").answer == "unsupported"
        assert decide_equivalence(f_six, g_six, "E", "cf").answer == "unsupported"
        assert decide_equivalence(f_six, g_six, "W", "stb", "labelling").answer == "unsupported"
        assert decide_equivalence(f_six, g_six, "E", "stg", "labelling").answer == "unsupported"

    def test_labelling_vs_extension_strong_expansion(self):
        # same adm-* kernels but different preferred labellings
        f = AF("ab", [("a", "b"), ("b", "b")])
        g = AF("ab", [("b", "b")])
        assert decide_equivalence(f, g, "S", "prf", "extension").answer == "equivalent"
        assert decide_equivalence(f, g, "S", "prf", "labelling").answer == "not_equivalent"

    def test_labelling_implies_extension(self):
        rng = random.Random(11)
        notions = ("E", "N", "S", "ND")
        sems = ("stb", "semi", "eag", "adm", "prf", "id", "grd", "com")
        for _ in range(120):
            f = random_af(rng, "abc", 0.4)
            g = random_af(rng, "abc", 0.4)
            for notion in notions:
                for sigma in sems:
                    lab = decide_equivalence(f, g, notion, sigma, "labelling")
                    ext = decide_equivalence(f, g, notion, sigma, "extension")
                    if lab.answer == "equivalent" and ext.supported:
                        assert ext.answer == "equivalent", (notion, sigma, f, g)

    def test_kernel_verdicts_build_no_framework(self, monkeypatch):
        # every cell decided by kernel equality (identity included), over all
        # pairs on {a, b} and a seeded sample on three arguments, some of
        # whose pairs differ in their arguments
        rng = random.Random(22)
        two, three = list(all_afs(["a", "b"])), list(all_afs(["a", "b", "c"]))
        pairs = [(f, g) for f in two for g in two]
        for _ in range(20):
            f, g = rng.sample(three, 2)
            pairs += [(f, g), (f, f.restrict(rng.sample("abc", 2))), (f, kernel(f, rng.choice(KERNEL_IDS)))]
        cells = [
            (notion, sigma, flavor, k)
            for flavor in FLAVORS
            for notion in NOTIONS
            for sigma in SEMANTICS
            if (k := characterizing_kernel(notion, sigma, flavor)) is not None
        ]
        assert {k for *_, k in cells} == set(KERNEL_IDS)
        kernels_of = {(f, k): kernel(f, k) for pair in pairs for f in pair for k in KERNEL_IDS}
        # counted at the one construction body, which both AF(...) and the
        # checked-names constructor run
        built = []
        body = AF._build
        monkeypatch.setattr(AF, "_build", lambda self, *a: built.append(1) or body(self, *a))
        for f, g in pairs:
            for notion, sigma, flavor, k in cells:
                verdict = decide_equivalence(f, g, notion, sigma, flavor)
                want = kernels_of[f, k] == kernels_of[g, k]
                assert verdict.answer == ("equivalent" if want else "not_equivalent"), (notion, sigma, flavor, f, g)
        assert built == []
        AF("a", [])
        assert built == [1]  # the counting patch is live

    def test_ordinary(self, f_six, g_six):
        assert decide_equivalence(f_six, g_six, "ordinary", "stb").answer == "equivalent"
        assert decide_equivalence(f_six, g_six, "ordinary", "grd").answer == "not_equivalent"

    def test_ordinary_labelling_needs_labellings(self, f_six, g_six):
        v = decide_equivalence(f_six, g_six, "ordinary", "cf", "labelling")
        assert (v.answer, v.method, v.detail) == ("unsupported", "none", "no labelling semantics for cf")

    def test_unknown_notion_rejected(self, f_six, g_six):
        with pytest.raises(AFError, match="unknown equivalence notion: 'Q'"):
            decide_equivalence(f_six, g_six, "Q", "stb")
        for notion in ("Q", "W", "ordinary"):
            with pytest.raises(AFError, match=f"witness search does not handle notion '{notion}'"):
                search_counterexample(f_six, g_six, notion, "stb")


class TestWitnessSearch:
    def test_six_af_witness_found_and_separates(self, f_six, g_six, h_six):
        r = search_counterexample(f_six, g_six, "E", "stb", SearchBudget(1, 3))
        assert r.found and r.complete
        w = r.witness
        assert extensions(union_af(f_six, w), "stb") != extensions(union_af(g_six, w), "stb")
        # the walkthrough's hand-built expansion separates with the stated values
        assert set(extensions(union_af(f_six, h_six), "stb")) == {fs("a", "d", "e")}
        assert extensions(union_af(g_six, h_six), "stb") == ()

    def test_reflexive_finds_nothing(self, f_six):
        r = search_counterexample(f_six, f_six, "E", "stb", SearchBudget(1, 2))
        assert r.witness is None and r.complete

    def test_normal_expansion_walkthrough(self):
        f = AF("abc", [("a", "b"), ("b", "b"), ("b", "c"), ("c", "a")])
        g = AF("abc", [("b", "b"), ("b", "c"), ("c", "a")])
        r = search_counterexample(f, g, "N", "prf", SearchBudget(1, 3))
        assert r.found
        # the deterministic minimum coincides with the hand-built expansion,
        # with the fresh argument renamed
        assert r.witness == AF(["b", "c", "_w0"], [("b", "_w0"), ("_w0", "c")])
        assert set(extensions(union_af(f, r.witness), "prf")) == {fs("a", "_w0")}
        assert set(extensions(union_af(g, r.witness), "prf")) == {fs()}

    def test_normal_candidates_respect_direction(self):
        f = AF("ab", [("a", "b")])
        g = AF("ab", [("b", "a")])
        r = search_counterexample(f, g, "S", "grd", SearchBudget(1, 2))
        if r.found:
            w = r.witness
            for base in (f, g):
                fresh = w.args - base.args
                assert all(
                    not (a in base.args and b in fresh) for a, b in w.attacks - base.attacks
                )

    def test_deletion_witness(self):
        f = AF("ab", [("a", "b")])
        g = AF("ab", [("a", "b"), ("b", "a")])
        r = search_counterexample(f, g, "ND", "prf", SearchBudget(0, 0))
        assert r.found and isinstance(r.witness, DeletionWitness)
        w = r.witness
        assert extensions(delete(f, w.args, w.attacks), "prf") != extensions(
            delete(g, w.args, w.attacks), "prf"
        )

    def test_unknown_flavor_rejected(self, f_six, g_six):
        with pytest.raises(AFError, match="unknown flavor: 'bogus'"):
            decide_equivalence(f_six, g_six, "E", "stb", "bogus")
        with pytest.raises(AFError, match="unknown flavor: 'bogus'"):
            search_counterexample(f_six, g_six, "E", "stb", flavor="bogus")
        with pytest.raises(AFError, match="unknown flavor: 'bogus'"):
            search_counterexample(f_six, g_six, "D", "prf", flavor="bogus", max_candidates=0)
        # a semantics without labellings is refused before the valve too
        for cut in (0, 1):
            with pytest.raises(AFError, match="labellings are only supported"):
                search_counterexample(f_six, g_six, "E", "cf", flavor="labelling", max_candidates=cut)

    @pytest.mark.parametrize("fresh,attacks", [(-1, 3), (1, -3), (-2, -1)])
    def test_negative_budget_rejected(self, fresh, attacks):
        with pytest.raises(AFError, match="must be non-negative"):
            SearchBudget(fresh, attacks)
        with pytest.raises(AFError, match="max_candidates must be non-negative"):
            search_counterexample(AF("a", []), AF("a", []), "E", "stb", max_candidates=min(fresh, attacks))

    def test_budget_valve_reported(self, f_six, g_six_wide):
        r = search_counterexample(
            AF("a", []), AF("a", []), "E", "stb", SearchBudget(1, 2), max_candidates=5
        )
        assert r.witness is None and not r.complete

    def test_labelling_flavor_search(self):
        f = AF("ab", [("a", "b"), ("b", "b")])
        g = AF("ab", [("b", "b")])
        r = search_counterexample(f, g, "S", "prf", SearchBudget(1, 2), flavor="labelling")
        assert r.found
        w = r.witness
        assert set(labellings(union_af(f, w), "prf")) != set(labellings(union_af(g, w), "prf"))

    def test_budget_valve_boundary(self):
        f = AF("a", [])
        budget = SearchBudget(1, 2)
        total = search_counterexample(f, f, "E", "stb", budget).scanned
        assert total == 11
        r = search_counterexample(f, f, "E", "stb", budget, max_candidates=total)
        assert r.witness is None and r.complete and r.scanned == total
        r = search_counterexample(f, f, "E", "stb", budget, max_candidates=total - 1)
        assert r.witness is None and not r.complete and r.scanned == total - 1

    def test_matches_string_level_oracle(self, monkeypatch):
        # Notion, semantics and flavour cycle through all 196 combinations;
        # a tenth of the searches run under a low enumeration cap.
        rng = random.Random(2024)
        notions = ("E", "N", "S", "L", "ND", "D", "LD")
        outcomes = collections.Counter()

        def run(search):
            try:
                return search()
            except AFError as e:
                return type(e), str(e)

        def draw_af():
            names = rng.sample("abcd", rng.randint(0, 4))
            return AF(names, [(a, b) for a in names for b in names if rng.random() < 0.3])

        for k in range(1500):
            notion, sigma = notions[k % 7], SEMANTICS[k // 7 % 14]
            flavor = ("extension", "labelling")[k // 98 % 2]
            f = draw_af()
            g = f if rng.random() < 0.3 else draw_af()
            budget = SearchBudget(rng.randint(0, 2), rng.randint(0, 3))
            cut = rng.choice([None, 0, 1, 5, 30])
            cap = rng.choice([None] * 9 + ["1"])
            if cap:
                monkeypatch.setenv("AFKIT_MAX_ARGS", cap)
            else:
                monkeypatch.delenv("AFKIT_MAX_ARGS", raising=False)
            want = run(lambda: witness_oracle(f, g, notion, sigma, budget, flavor, cut))
            got = run(
                lambda: (
                    (r := search_counterexample(f, g, notion, sigma, budget, flavor, cut)).witness,
                    r.complete,
                    r.scanned,
                )
            )
            assert got == want, (notion, sigma, flavor, f, g, budget, cut, cap)
            if isinstance(got[0], type):
                outcomes[got[0].__name__] += 1
            else:
                outcomes["found" if got[0] else "complete" if got[1] else "cut"] += 1
        assert set(outcomes) == {"found", "complete", "cut", "AFError", "EnumerationLimitError"}
        assert min(outcomes.values()) >= 20, outcomes

    def test_matches_oracle_with_fresh_names_between_old_ones(self):
        # On two or three arguments from A, B9, c and d, the fresh names _w0
        # and _w1 sort after the upper-case names and before the lower-case
        # ones, so the attack slots' name order is not their pool index order
        # once a fresh argument joins. E, N and S run twice as often as L,
        # ND, D and LD, at one and two fresh arguments, in both flavours and
        # some under a cut; a witness with a fresh argument shows the order.
        rng = random.Random(25)
        notions = ("E", "N", "S", "E", "N", "S", "L", "ND", "D", "LD")
        outcomes = collections.Counter()

        def draw_af():
            names = rng.sample(["A", "B9", "c", "d"], rng.randint(2, 3))
            return AF(names, [(a, b) for a in names for b in names if rng.random() < 0.5])

        for k in range(700):
            notion, flavor = notions[k % 10], FLAVORS[k // 10 % 2]
            sigma = rng.choice(LABELLING_SEMANTICS if flavor == "labelling" else SEMANTICS)
            f = draw_af()
            flip = (rng.choice(f.names), rng.choice(f.names))
            g = rng.choice([f, draw_af(), AF(f.names, f.attacks ^ {flip})])
            budget = SearchBudget(1 + k // 20 % 2, rng.randint(1, 2))
            cut = rng.choice([None, None, 1, 10, 60])
            r = search_counterexample(f, g, notion, sigma, budget, flavor, cut)
            want = witness_oracle(f, g, notion, sigma, budget, flavor, cut)
            assert (r.witness, r.complete, r.scanned) == want, (notion, sigma, flavor, f, g, budget, cut)
            fresh = r.found and notion in "ENS" and any(a.startswith("_w") for a in r.witness.args)
            outcomes["fresh witness" if fresh else "found" if r.found else "complete" if r.complete else "cut"] += 1
        assert min(outcomes.values()) >= 15, outcomes

    @pytest.mark.parametrize("f_names,g_names", [
        ("abc", "abc"), ("abc", "ab"), ("ab", "bc"),
        (["A", "B9", "c", "d"], ["A", "B9", "c", "d"]), (["A", "B9", "c", "d"], ["B9", "d"]), (["A", "c"], ["B9", "d"]),
    ])
    def test_pool_rows_match_the_attack_tuples(self, f_names, g_names):
        # both, one or neither framework holds the whole pool; the rows of
        # each over the pool are those its attack tuples give
        rng = random.Random(29)
        for _ in range(25):
            f, g = (AF(ns, [(a, b) for a in ns for b in ns if rng.random() < 0.4]) for ns in (f_names, g_names))
            names = sorted({*f.names, *g.names})
            index = {a: i for i, a in enumerate(names)}
            for x in (f, g):
                succ, pred = [0] * len(names), [0] * len(names)
                for a, b in x.attacks:
                    succ[index[a]] |= 1 << index[b]
                    pred[index[b]] |= 1 << index[a]
                frame, mask = kernels._pool_rows(x, names)
                assert (list(frame.succ), list(frame.pred)) == (succ, pred)
                assert mask == sum(1 << index[a] for a in x.names)
                assert (frame is x) == (len(x.names) == len(names))

    def test_fresh_name_skips_a_held_one(self):
        # both frameworks hold _w0, so the one fresh argument is _w1; the
        # witness takes none and separates them at the third candidate
        f = AF(["_w0", "b"], [("_w0", "_w0"), ("b", "b")])
        g = AF(["_w0", "b"], [("_w0", "_w0"), ("_w0", "b")])
        r = search_counterexample(f, g, "E", "com", SearchBudget(1, 2))
        assert (r.witness, r.complete, r.scanned) == (AF(["_w0", "b"], [("b", "_w0")]), True, 3)
        assert extensions(union_af(f, r.witness), "com") != extensions(union_af(g, r.witness), "com")

    def test_matches_oracle_on_names_like_fresh_ones(self):
        # E, N and S on one to three arguments from a, b, _w0, Z, _w1 and x,
        # in both flavours: f or g often holds a name of the form of a fresh
        # one, which the fresh arguments then skip. Every witness separates
        # f and g.
        rng = random.Random(26)
        outcomes = collections.Counter()

        def draw_af():
            names = rng.sample(["a", "b", "_w0", "Z", "_w1", "x"], rng.randint(1, 3))
            return AF(names, [(a, b) for a in names for b in names if rng.random() < 0.4])

        for k in range(500):
            notion, flavor = "ENS"[k % 3], FLAVORS[k // 3 % 2]
            sigma = rng.choice(LABELLING_SEMANTICS if flavor == "labelling" else SEMANTICS)
            f = draw_af()
            flip = (rng.choice(f.names), rng.choice(f.names))
            g = rng.choice([f, draw_af(), AF(f.names, f.attacks ^ {flip})])
            budget = SearchBudget(rng.randint(1, 2), rng.randint(1, 2))
            r = search_counterexample(f, g, notion, sigma, budget, flavor)
            assert (r.witness, r.complete, r.scanned) == witness_oracle(f, g, notion, sigma, budget, flavor), (
                notion, sigma, flavor, f, g, budget)
            held = ", _w held" if any(a.startswith("_w") for a in f.args | g.args) else ""
            if not r.found:
                outcomes["complete" + held] += 1
                continue
            fw, gw = union_af(f, r.witness), union_af(g, r.witness)
            if flavor == "labelling":
                assert set(labellings(fw, sigma)) != set(labellings(gw, sigma)), (notion, sigma, f, g, r.witness)
            else:
                assert extensions(fw, sigma) != extensions(gw, sigma), (notion, sigma, f, g, r.witness)
            outcomes[("fresh witness" if r.witness.args - f.args - g.args else "found") + held] += 1
        assert outcomes["fresh witness, _w held"] >= 10 and min(outcomes.values()) >= 5, outcomes

    @pytest.mark.parametrize("sigma", SEMANTICS)
    def test_repeated_deletions_skipped_exactly(self, sigma):
        # D candidates (B, S) whose S touches B are counted but not
        # evaluated. Under a cut at every position, in both flavours, every
        # search over all pairs of frameworks on subsets of {a, b} (one
        # attack deleted at most) and a seeded sample on three arguments (two
        # at most) answers as the string-level oracle, which evaluates every
        # candidate. Below its uncut count the oracle stops at the cut with
        # (None, False, cut); at the last position before that count it is
        # run again with the cut.
        rng = random.Random(22)
        two = [f for names in ([], ["a"], ["b"], ["a", "b"]) for f in all_afs(names)]
        three = list(all_afs(["a", "b", "c"]))
        pairs = [(f, g, SearchBudget(0, 1)) for f in two for g in two]
        for _ in range(4):
            f = rng.choice(three)
            flipped = AF(f.names, f.attacks ^ {rng.choice(sorted(f.attacks | {("a", "b")}))})
            pairs += [
                (f, g, SearchBudget(0, 2))
                for g in (flipped, f.restrict(rng.sample("abc", 2)), rng.choice(three))
            ]
        runs = reached_repeats = 0
        for flavor in FLAVORS if sigma in LABELLING_SEMANTICS else FLAVORS[:1]:
            for f, g, budget in pairs:
                full = witness_oracle(f, g, "D", sigma, budget, flavor)
                if full[2] > 1:
                    last = witness_oracle(f, g, "D", sigma, budget, flavor, full[2] - 1)
                    assert last == (None, False, full[2] - 1)
                for cut in range(full[2] + 1):
                    want = full if cut == full[2] else (None, False, cut)
                    r = search_counterexample(f, g, "D", sigma, budget, flavor, cut)
                    assert (r.witness, r.complete, r.scanned) == want, (flavor, f, g, cut)
                    runs += 1
                # a scan that reached every candidate of a pair with an
                # attack (a, b) went past the repeat (B, {(a, b)}) with B = {a}
                reached_repeats += full[0] is None and bool(f.attacks | g.attacks)
        assert runs > 500 and reached_repeats >= 15, (runs, reached_repeats)


class TestWitnessWork:
    # Complete scans of self-pairs at SearchBudget(1, 2) under prf, pinned by
    # (candidates counted, `extension_masks` calls): two calls per candidate
    # evaluated, so that repeated work shows without a timing.
    # D counts 8 argument sets x (1 + k + C(k, 2)) attack sets for k attacks
    # but evaluates only the (B, S) whose S does not touch B: 7 + 3 x 2 + 3
    # + 1 = 17 of 56 on the 3-cycle, 4 + 2 + 1 + 2 + 3 + 1 = 13 of 32 on the
    # 3-chain.
    PINNED = {
        "cycle": {"E": (92, 184), "N": (29, 58), "S": (11, 22), "L": (22, 44), "D": (56, 34), "LD": (7, 14)},
        "chain": {"E": (106, 212), "N": (29, 58), "S": (11, 22), "L": (29, 58), "D": (32, 26), "LD": (4, 8)},
    }

    @pytest.mark.parametrize("shape", ["cycle", "chain"])
    def test_complete_scans_pin_their_work(self, monkeypatch, shape):
        attacks = [("a", "b"), ("b", "c")] + ([("c", "a")] if shape == "cycle" else [])
        f = AF("abc", attacks)
        calls = []
        masks = kernels.extension_masks
        monkeypatch.setattr(kernels, "extension_masks", lambda *a: calls.append(1) or masks(*a))
        for notion, (scanned, made) in self.PINNED[shape].items():
            calls.clear()
            r = search_counterexample(f, f, notion, "prf", SearchBudget(1, 2))
            assert (r.witness, r.complete, r.scanned, len(calls)) == (None, True, scanned, made), notion

    @pytest.mark.parametrize("notion,flavor", [("E", "extension"), ("N", "labelling"), ("D", "extension")])
    def test_first_candidate_costs_its_two_evaluations(self, monkeypatch, notion, flavor):
        # a 3-chain and a 3-cycle differ ordinarily, so the empty scenario
        # separates them: one candidate, its two evaluations, and the one
        # framework built is the returned witness (none for a deletion)
        f = AF("abc", [("a", "b"), ("b", "c")])
        g = AF("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        empty = DeletionWitness(frozenset(), frozenset()) if notion == "D" else AF([], [])
        calls, built = [], []
        masks, body = kernels.extension_masks, AF._build
        monkeypatch.setattr(kernels, "extension_masks", lambda *a: calls.append(1) or masks(*a))
        monkeypatch.setattr(AF, "_build", lambda self, *a: built.append(self) or body(self, *a))
        r = search_counterexample(f, g, notion, "prf", SearchBudget(2, 4), flavor)
        assert (r.witness, r.complete, r.scanned, len(calls)) == (empty, True, 1, 2)
        assert built == ([] if notion == "D" else [r.witness])


class TestWitnessStructure:
    def test_builds_only_the_returned_witness(self, monkeypatch):
        f = AF("ab", [("a", "b")])
        f3 = AF("abc", [("a", "b"), ("b", "b"), ("b", "c"), ("c", "a")])
        g3 = AF("abc", [("b", "b"), ("b", "c"), ("c", "a")])
        g_del = AF("ab", [("a", "b"), ("b", "a")])
        # counted at the one construction body, which both AF(...) and the
        # checked-names constructor run
        built = []
        body = AF._build

        def counting_build(self, *args):
            body(self, *args)
            built.append(self)

        monkeypatch.setattr(AF, "_build", counting_build)
        r = search_counterexample(f, f, "E", "prf", SearchBudget(1, 2))
        assert r.witness is None and r.complete and r.scanned == 37
        assert built == []
        r = search_counterexample(f3, g3, "N", "prf", SearchBudget(1, 3))
        assert r.found and r.scanned > 1
        assert len(built) == 1 and built[0] is r.witness
        built.clear()
        r = search_counterexample(f, g_del, "ND", "prf", SearchBudget(0, 0))
        assert isinstance(r.witness, DeletionWitness) and built == []
        AF("a", [])
        assert len(built) == 1  # the counting patch is live

    def test_deletion_candidates_made_lazily(self):
        # ND on 20 pooled arguments has 2^20 argument sets to delete; the
        # valve at one candidate must not pay for the rest
        names = [f"a{i:02d}" for i in range(20)]
        chain = AF(names, list(zip(names, names[1:])))
        tracemalloc.start()
        try:
            r = search_counterexample(chain, AF(names, chain.attacks), "ND", "grd", max_candidates=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.witness is None and not r.complete and r.scanned == 1
        assert peak < 10 * 2**20, peak

    def test_deletion_attack_choices_made_lazily(self):
        # D on a 40-attack chain, deleting up to four attacks, has 102 091
        # attack choices; the valve at one candidate must make only the
        # choices it reaches, not the whole list
        names = [f"a{i:02d}" for i in range(41)]
        chain = AF(names, list(zip(names, names[1:])))
        tracemalloc.start()
        try:
            r = search_counterexample(chain, chain, "D", "grd", SearchBudget(0, 4), max_candidates=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.witness is None and not r.complete and r.scanned == 1
        assert peak < 2**18, peak
