import hashlib
import itertools
import json
import random

import pytest

from afkit import realizability, semantics
from afkit.core import AF, AFError, bits
from afkit.realizability import (
    CLASSIFIABLE_SEMANTICS,
    SIGNATURE_SEMANTICS,
    VARIANTS,
    analyze,
    canonical_cf,
    canonical_def,
    canonical_stb,
    decide_signature,
    defense_formula_cnf,
    downward_closure,
    implicit_conflicts,
    is_analytic,
    is_compact,
    normalize_candidate,
    realize,
)
from afkit.semantics import extensions

from fixtures import families_abcd_up_to_renaming
from oracles import (
    ORACLES,
    all_afs,
    conflict_sensitive_oracle,
    dcl_tight_oracle,
    defense_cnf_oracle,
    downward_closed_oracle,
    incomparable_oracle,
    powerset,
    tight_oracle,
)


def fs(*xs):
    return frozenset(xs)


class TestAnalyze:
    def test_incomparable_not_tight(self):
        a = analyze([{"a", "b"}, {"a", "c"}, {"b", "c"}])
        assert a.incomparable and not a.tight

    def test_incomparable_and_tight(self):
        a = analyze([{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}])
        assert a.incomparable and a.tight

    def test_conflict_sensitive_not_tight(self, s_defense):
        a = analyze(s_defense)
        assert a.conflict_sensitive and not a.tight

    def test_empty_set_collection(self):
        a = analyze([set()])
        assert a.downward_closed and a.tight and a.singleton and a.contains_empty

    def test_downward_closed_implies_contains_empty(self):
        rng = random.Random(1)
        for _ in range(100):
            sets = [
                fs(*rng.sample("abcd", rng.randint(0, 3))) for _ in range(rng.randint(1, 4))
            ]
            a = analyze(sets)
            if a.nonempty and a.downward_closed:
                assert a.contains_empty


class TestDecideSignature:
    def test_empty_collection_only_stable(self):
        assert decide_signature([], "stb").answer == "yes"
        for sigma in ("cf", "nav", "stg", "adm", "prf", "semi", "grd", "id", "eag"):
            assert decide_signature([], sigma).answer != "yes"

    def test_prf_fails_conflict_sensitivity(self):
        assert decide_signature([{"a", "b"}, {"a", "c"}, {"b", "c"}], "prf").answer == "no"

    def test_nav_example(self):
        sets = [{"a1", "b2", "b3"}, {"a2", "b1", "b3"}, {"a3", "b1", "b2"}, {"b1", "b2", "b3"}]
        assert decide_signature(sets, "nav").answer == "yes"

    def test_compact_prf_is_necessary_only(self, s_defense):
        v = decide_signature(s_defense, "prf", "finite_compact")
        assert v.answer == "necessary_only" and v.condition_holds is True

    def test_analytic_cells(self, s_defense):
        assert decide_signature(s_defense, "stb", "finite_analytic").decided
        v = decide_signature(s_defense, "semi", "finite_analytic")
        assert v.answer == "necessary_only"

    def test_complete_rejected(self):
        with pytest.raises(AFError):
            decide_signature([{"a"}], "com")

    def test_unknown_variant_rejected(self):
        with pytest.raises(AFError, match="unknown signature variant: 'infinite'"):
            decide_signature([{"a"}], "stb", "infinite")

    def test_soundness_sweep_two_args(self):
        for f in all_afs(["a", "b"]):
            for sigma in ("cf", "nav", "stb", "stg", "adm", "prf", "semi", "grd", "id", "eag"):
                assert decide_signature(extensions(f, sigma), sigma).answer == "yes", (sigma, f)

    def test_signature_lattice_spot_checks(self):
        universe = ["a", "b", "c"]
        subsets = [fs(*c) for r in range(4) for c in itertools.combinations(universe, r)]
        rng = random.Random(2)
        for _ in range(300):
            cand = normalize_candidate(
                rng.sample(subsets, rng.randint(0, 4))
            )
            in_nav = decide_signature(cand, "nav").answer == "yes"
            in_stg = decide_signature(cand, "stg").answer == "yes"
            in_stb = decide_signature(cand, "stb").answer == "yes"
            assert not (in_nav and not in_stg)
            # stable = stage plus the empty collection
            assert in_stb == (in_stg or cand == ())
        # strictness witness: tight antichain whose downward closure is not tight
        t = [{"a1", "b2", "b3"}, {"a2", "b1", "b3"}, {"a3", "b1", "b2"}]
        assert decide_signature(t, "stg").answer == "yes"
        assert decide_signature(t, "nav").answer == "no"

    def test_no_criterion_builds_downward_closure(self, monkeypatch, s_defense):
        # the finite criteria written over analyze()'s flags, as a reference
        criteria = {
            "cf": lambda a: a.nonempty and a.downward_closed and a.tight,
            "nav": lambda a: a.nonempty and a.incomparable and a.dcl_tight,
            "stb": lambda a: a.incomparable and a.tight,
            "stg": lambda a: a.nonempty and a.incomparable and a.tight,
            "adm": lambda a: a.contains_empty and a.conflict_sensitive,
            "prf": lambda a: a.nonempty and a.incomparable and a.conflict_sensitive,
            "semi": lambda a: a.nonempty and a.incomparable and a.conflict_sensitive,
            "grd": lambda a: a.singleton,
            "id": lambda a: a.singleton,
            "eag": lambda a: a.singleton,
        }
        assert set(criteria) == set(SIGNATURE_SEMANTICS)
        f = AF("abcd", [("a", "b"), ("b", "a"), ("c", "d"), ("d", "d")])
        stg_not_nav = [{"a1", "b2", "b3"}, {"a2", "b1", "b3"}, {"a3", "b1", "b2"}]
        candidates = [[], [set()], s_defense, stg_not_nav]
        candidates += [extensions(f, sigma) for sigma in SIGNATURE_SEMANTICS]
        expected = {
            (i, sigma): criteria[sigma](analyze(cand))
            for i, cand in enumerate(candidates)
            for sigma in SIGNATURE_SEMANTICS
        }
        calls = []
        closure = realizability.downward_closure
        monkeypatch.setattr(
            realizability, "downward_closure", lambda sets: calls.append(sets) or closure(sets)
        )
        for i, cand in enumerate(candidates):
            analyze(cand)
            for sigma in SIGNATURE_SEMANTICS:
                verdict = decide_signature(cand, sigma)
                assert verdict.answer == ("yes" if expected[i, sigma] else "no"), (i, sigma)
        assert calls == []
        realizability.downward_closure([{"a"}])
        assert len(calls) == 1  # the counting patch is live

    def test_dcl_tight_matches_closure(self):
        rng = random.Random(11)
        not_tight = 0
        for _ in range(600):
            universe = [f"x{i}" for i in range(rng.randint(1, 5))]
            cand = normalize_candidate(
                {a for a in universe if rng.random() < 0.5} for _ in range(rng.randint(0, 5))
            )
            reference = analyze(downward_closure(cand)).tight
            assert analyze(cand).dcl_tight == reference, cand
            not_tight += not reference
        assert not_tight > 0


class TestCanonicalFrameworks:
    def test_canonical_cf_shape(self):
        sets = [{"a1", "b2", "b3"}, {"a2", "b1", "b3"}, {"a3", "b1", "b2"}, {"b1", "b2", "b3"}]
        f = canonical_cf(sets)
        a = ["a1", "a2", "a3"]
        expected = set()
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected.add((a[i], a[j]))
            expected.add((a[i], f"b{i+1}"))
            expected.add((f"b{i+1}", a[i]))
        assert f.attacks == expected
        assert set(extensions(f, "nav")) == set(normalize_candidate(sets))

    def test_canonical_cf_empty(self):
        assert canonical_cf([set()]) == AF([], [])

    def test_canonical_stb_blocker(self):
        sets = [{"a1", "b2", "b3"}, {"a2", "b1", "b3"}, {"a3", "b1", "b2"}]
        f = canonical_stb(sets)
        blockers = [x for x in f.names if x.startswith("_bE")]
        assert blockers == ["_bE0"]
        assert (blockers[0], blockers[0]) in f.attacks
        attackers = {a for a, b in f.attacks if b == blockers[0] and a != blockers[0]}
        assert attackers == {"a1", "a2", "a3"}
        assert set(extensions(f, "stb")) == set(normalize_candidate(sets))
        assert set(extensions(f, "stg")) == set(normalize_candidate(sets))


class TestDefenseFormula:
    def test_walkthrough_a(self, s_defense):
        assert defense_formula_cnf(s_defense, "a") == {fs("b", "d"), fs("b", "e")}

    def test_walkthrough_e(self, s_defense):
        assert defense_formula_cnf(s_defense, "e") == {
            fs("a", "b"), fs("a", "c"), fs("b", "d"), fs("c", "d"),
        }

    def test_tautology(self):
        assert defense_formula_cnf([{"a"}], "a") == fs()

    def test_unknown_argument(self, s_defense):
        with pytest.raises(AFError):
            defense_formula_cnf(s_defense, "zz")

    def test_sixteen_disjuncts_stay_small(self):
        # the full product has 2^16 clauses; subsumption after each disjunct
        # keeps at most two
        xs = [f"x{i}" for i in range(1, 17)]
        sets = [{"a", x, "y"} for x in xs]
        assert defense_formula_cnf(sets, "a") == {fs("y"), frozenset(xs)}

    def test_truth_table_equivalence(self):
        rng = random.Random(3)
        universe = "abcdef"
        for _ in range(120):
            n = rng.randint(1, 6)
            atoms = universe[:n]
            sets = [
                fs(*rng.sample(atoms, rng.randint(1, n))) for _ in range(rng.randint(1, 4))
            ]
            cand = normalize_candidate(sets)
            args = sorted({x for s in cand for s in [s] for x in s})
            if not args:
                continue
            a = rng.choice(args)
            cnf = defense_formula_cnf(cand, a)
            disjuncts = [s - {a} for s in cand if a in s]
            for bits in range(1 << len(args)):
                world = {args[i] for i in range(len(args)) if bits >> i & 1}
                dnf_val = any(d <= world for d in disjuncts)
                cnf_val = all(clause & world for clause in cnf)
                assert dnf_val == cnf_val, (cand, a, world)


class TestRealize:
    def test_prf_walkthrough(self, s_defense):
        f = realize(s_defense, "prf")
        assert set(extensions(f, "prf")) == set(normalize_candidate(s_defense))
        assert all(
            (x, x) in f.attacks for x in f.names if x.startswith("_alpha")
        )

    def test_unique_semantics(self):
        assert realize([{"a", "b"}], "grd") == AF("ab", [])
        assert realize([{"a"}], "id") == AF("a", [])
        assert realize([fs()], "eag") == AF([], [])

    def test_stable_empty_cases(self):
        assert realize([set()], "stb") == AF([], [])
        f = realize([], "stb")
        assert f is not None and extensions(f, "stb") == ()

    def test_returns_none_when_not_realizable(self):
        assert realize([{"a", "b"}, {"a", "c"}, {"b", "c"}], "prf") is None
        assert realize([{"a"}, {"a", "b"}], "nav") is None

    def test_semi_translation(self, s_defense):
        f = realize(s_defense, "semi")
        assert set(extensions(f, "semi")) == set(normalize_candidate(s_defense))

    def test_realize_then_check_random(self):
        rng = random.Random(4)
        universe = "abcd"
        subsets = [fs(*c) for r in range(5) for c in itertools.combinations(universe, r)]
        done = 0
        while done < 40:
            cand = normalize_candidate(rng.sample(subsets, rng.randint(1, 3)))
            for sigma in ("cf", "nav", "stb", "stg", "adm", "prf", "semi"):
                if decide_signature(cand, sigma).answer == "yes":
                    f = realize(cand, sigma)
                    assert extensions(f, sigma) == cand
                    done += 1


class TestCompactAnalytic:
    def test_hub_example(self, hub_13):
        assert is_compact(hub_13, "prf")
        assert not is_compact(hub_13, "semi")
        assert not is_compact(hub_13, "stg")

    def test_implicit_conflict_example(self):
        f = AF("abcd", [("a", "b"), ("b", "a"), ("a", "c"), ("b", "d")])
        assert implicit_conflicts(f, "stb") == {fs("c", "d")}
        assert is_analytic(f, "nav")

    def test_empty_af(self):
        for sigma in ("cf", "nav", "stb", "prf", "grd", "cf2"):
            assert is_compact(AF([], []), sigma)
            assert is_analytic(AF([], []), sigma)

    def test_rejected_self_pair(self):
        f = AF("ab", [("a", "b"), ("b", "a"), ("b", "b")])
        # b is rejected under grounded but carries a self-loop: explicit
        assert fs("b") not in implicit_conflicts(f, "grd")
        g = AF("ab", [("a", "b"), ("b", "a")])
        # under grounded both are rejected, neither self-loops: implicit self-conflicts
        assert fs("a") in implicit_conflicts(g, "grd")

    def test_compact_subset_relations_exhaustive(self):
        frameworks = list(all_afs(["a", "b"])) + list(all_afs(["a", "b", "c"]))
        for f in frameworks:
            caf = {s: is_compact(f, s) for s in ("stb", "semi", "prf", "nav", "stg", "grd")}
            if caf["grd"]:
                assert caf["stb"]
            if caf["stb"]:
                assert caf["semi"] and caf["stg"]
            if caf["semi"]:
                assert caf["prf"]
            if caf["prf"]:
                assert caf["nav"]
            if caf["stg"]:
                assert caf["nav"]

    def test_sad_not_classifiable(self):
        with pytest.raises(AFError):
            is_compact(AF("a", []), "sad")

    def test_sad_not_analysable(self):
        with pytest.raises(AFError, match="analyticity is not defined for semantics 'sad'"):
            implicit_conflicts(AF("a", []), "sad")


# every collection of subsets of {a,b,c}, in the order of the bits of its number
SUBSETS_ABC = [fs(*c) for r in range(4) for c in itertools.combinations("abc", r)]
FAMILIES_ABC = [[s for i, s in enumerate(SUBSETS_ABC) if bits >> i & 1] for bits in range(256)]


def _af_record(f):
    return None if f is None else [list(f.names), sorted(map(list, f.attacks))]


class TestEveryFamilyOverThreeArguments:
    # SHA-256 of the serialised record below, taken before the module moved
    # onto one candidate index per call
    DIGEST = "4d82a309ff59fa7807a4cd190d94b9848da78d584a93899b82396cffd5a174e9"

    def test_sweep_against_definitions_and_pin(self):
        record = []
        for fam in FAMILIES_ABC:
            cand = normalize_candidate(fam)
            a = analyze(fam)
            flags = [a.nonempty, a.contains_empty, a.singleton, a.incomparable, a.downward_closed,
                     a.tight, a.dcl_tight, a.conflict_sensitive]
            assert flags == [
                bool(cand), fs() in cand, len(cand) == 1, incomparable_oracle(cand),
                downward_closed_oracle(cand), tight_oracle(cand), dcl_tight_oracle(cand),
                conflict_sensitive_oracle(cand),
            ], fam
            assert a.args == frozenset().union(*cand)
            assert a.pairs == {fs(x, y) for s in cand for x in s for y in s}
            verdicts = []
            for sigma in SIGNATURE_SEMANTICS:
                for variant in VARIANTS:
                    v = decide_signature(fam, sigma, variant)
                    verdicts.append([sigma, variant, v.answer, v.condition_holds])
            witnesses = []
            for sigma in SIGNATURE_SEMANTICS:
                w = realize(fam, sigma)
                assert (w is None) == (decide_signature(fam, sigma).answer == "no"), (fam, sigma)
                if w is not None:
                    assert ORACLES[sigma](w) == set(cand), (fam, sigma)
                witnesses.append([sigma, _af_record(w)])
            cnfs = []
            for x in sorted(a.args):
                cnf = defense_formula_cnf(fam, x)
                disjuncts = [s - {x} for s in cand if x in s]
                for world in powerset(a.args):
                    assert any(d <= world for d in disjuncts) == all(c & world for c in cnf), (fam, x)
                cnfs.append([x, sorted(sorted(c) for c in cnf)])
            record.append([
                [sorted(s) for s in cand], flags, sorted(a.args), sorted(sorted(p) for p in a.pairs),
                verdicts, witnesses, cnfs,
                [_af_record(build(fam)) for build in (canonical_cf, canonical_stb, canonical_def)],
            ])
        text = json.dumps(record, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DIGEST

    def test_defense_cnf_is_minimal_by_definition(self):
        # logical equivalence alone would also pass a CNF with subsumed clauses
        checked = 0
        for fam in FAMILIES_ABC:
            for x in sorted(frozenset().union(*fam)):
                assert defense_formula_cnf(fam, x) == defense_cnf_oracle(fam, x), (fam, x)
                checked += 1
        # each argument occurs in 256 - 16 families: all but those of the
        # four subsets without it
        assert checked == 3 * 240

    def test_each_public_call_orders_its_candidate_once(self, monkeypatch, s_defense):
        calls = []
        order = realizability.sort_extensions
        monkeypatch.setattr(
            realizability, "sort_extensions", lambda sets: calls.append(sets) or order(sets)
        )
        f = AF("abcd", [("a", "b"), ("b", "a"), ("c", "d"), ("d", "d")])
        stg_not_nav = [{"a1", "b2", "b3"}, {"a2", "b1", "b3"}, {"a3", "b1", "b2"}]
        candidates = [[], [set()], s_defense, s_defense + [set()], stg_not_nav]
        candidates += [extensions(f, sigma) for sigma in SIGNATURE_SEMANTICS]
        for cand in candidates:
            public = [
                ("analyze", lambda: analyze(cand)),
                ("canonical_cf", lambda: canonical_cf(cand)),
                ("canonical_stb", lambda: canonical_stb(cand)),
                ("canonical_def", lambda: canonical_def(cand)),
            ]
            public += [
                (f"decide_signature {sigma} {variant}",
                 lambda sigma=sigma, variant=variant: decide_signature(cand, sigma, variant))
                for sigma in SIGNATURE_SEMANTICS
                for variant in VARIANTS
            ]
            public += [(f"realize {sigma}", lambda sigma=sigma: realize(cand, sigma))
                       for sigma in SIGNATURE_SEMANTICS]
            public += [(f"defense_formula_cnf {x}", lambda x=x: defense_formula_cnf(cand, x))
                       for x in sorted(analyze(cand).args)]
            for name, call in public:
                calls.clear()
                call()
                assert len(calls) <= 1, (name, cand)
        calls.clear()
        normalize_candidate([{"a"}])
        assert len(calls) == 1  # the counting patch is live


# the 16 subsets of {a,b,c,d} by mask
SUBSETS_ABCD = [fs(*("abcd"[i] for i in bits(s))) for s in range(16)]


class TestEveryFamilyOverFourArguments:
    def test_orbits(self):
        # OEIS A000612: 3 984 families of subsets of a 4-set up to renaming
        reps = families_abcd_up_to_renaming()
        assert len(reps) == 3984 and reps[:3] == [0, 1, 2]

    def test_realize_re_enumerated(self):
        # the engine, not the oracles, re-enumerates: the brute-force oracles
        # do not finish on the helper-heavy witnesses, and the engine is
        # checked against them on every framework of up to three arguments
        realized = 0
        for m in families_abcd_up_to_renaming():
            fam = [SUBSETS_ABCD[i] for i in bits(m)]
            cand = normalize_candidate(fam)
            for sigma in SIGNATURE_SEMANTICS:
                w = realize(fam, sigma)
                assert (w is None) == (decide_signature(fam, sigma).answer == "no"), (fam, sigma)
                if w is not None:
                    assert extensions(w, sigma) == cand, (fam, sigma)
                    realized += 1
        assert realized == 536


def _defense_family(k, with_empty):
    """{a, x_i, y_i} for i < k, and the empty set if asked: a's defense
    formula is the conjunction of the k disjunctions x_i ∨ y_i, so its CNF
    has 2^k clauses, each one minimal."""
    sets = [fs("a", f"x{i:02d}", f"y{i:02d}") for i in range(k)]
    return [fs(), *sets] if with_empty else sets


class TestDefenseFamilyWithExponentialCnf:
    def test_every_clause_is_minimal(self):
        k = 10
        cnf = defense_formula_cnf(_defense_family(k, True), "a")
        assert len(cnf) == 2**k
        picks = itertools.product("xy", repeat=k)
        assert cnf == {fs(*(f"{c}{i:02d}" for i, c in enumerate(pick))) for pick in picks}

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_realize_re_enumerated(self, k):
        # adm needs the empty set; prf and semi take the incomparable family
        for sigma, with_empty in (("adm", True), ("prf", False), ("semi", False)):
            fam = _defense_family(k, with_empty)
            w = realize(fam, sigma)
            assert w is not None, (k, sigma)
            assert extensions(w, sigma) == normalize_candidate(fam), (k, sigma)


# one set of 30 arguments: more than the enumeration cap, all unattacked
SET_30 = fs(*(f"a{i:02d}" for i in range(30)))


class TestRealizeWithoutEnumeration:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("enumeration called")

        for module in (semantics, realizability):
            for name in ("extensions", "extension_masks", "check_limit"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        return monkeypatch

    def test_constructions_enumerate_nothing(self, no_enumeration, s_defense):
        stg_not_nav = [{"a1", "b2", "b3"}, {"a2", "b1", "b3"}, {"a3", "b1", "b2"}]
        candidates = [[], [set()], s_defense, s_defense + [set()], stg_not_nav, [SET_30], [set(), SET_30]]
        answers = {}
        for i, cand in enumerate(candidates):
            for build in (canonical_cf, canonical_stb, canonical_def):
                build(cand)
            for sigma in SIGNATURE_SEMANTICS:
                answers[i, sigma] = realize(cand, sigma)
        with pytest.raises(AssertionError, match="enumeration called"):
            extensions(AF("a", []), "stb")  # the patch is live
        no_enumeration.undo()
        blocker = canonical_stb(stg_not_nav)
        assert [x for x in blocker.names if x.startswith("_bE")] == ["_bE0"]
        for (i, sigma), w in answers.items():
            assert (w is None) == (decide_signature(candidates[i], sigma).answer == "no"), (i, sigma)
            if w is not None and i < 5:
                assert extensions(w, sigma) == normalize_candidate(candidates[i]), (i, sigma)

    def test_thirty_arguments_beyond_the_cap(self):
        names = sorted(SET_30)
        answered = {}
        for sigma in SIGNATURE_SEMANTICS:
            cand = [set(), SET_30] if sigma == "adm" else [SET_30]
            answered[sigma] = realize(cand, sigma)
        # cf needs a downward-closed candidate; every other sigma realizes it
        assert [s for s, w in answered.items() if w is None] == ["cf"]
        for sigma in ("nav", "stb", "stg", "grd", "id", "eag"):
            assert answered[sigma] == AF(names, []), sigma
        # each argument is defended by each other one: 30 * 29 defense
        # arguments, and for semi one mirror per argument of the prf witness
        for sigma, helpers in (("adm", 870), ("prf", 870), ("semi", 870 + 900)):
            w = answered[sigma]
            assert w.n == 30 + helpers and SET_30 <= w.args, sigma
            assert {a for a in w.names if a.startswith("_")} == {a for a, b in w.attacks if a == b}, sigma


class TestReservedNames:
    PROBES = [
        ([{"a1", "_bE0", "b3"}, {"a2", "b1", "b3"}, {"a3", "b1", "_bE0"}], "stg", "_bE0"),
        ([set(), {"a", "b"}, {"_alpha_a_0"}], "adm", "_alpha_a_0"),
    ]

    @pytest.mark.parametrize("sets,sigma,name", PROBES)
    def test_realize_names_the_argument(self, sets, sigma, name):
        assert decide_signature(sets, sigma).answer == "yes"
        with pytest.raises(AFError, match=f"reserved: '{name}'"):
            realize(sets, sigma)

    @pytest.mark.parametrize("sets,sigma,name", PROBES)
    def test_constructions_with_helpers_reject(self, sets, sigma, name):
        for build in (canonical_stb, canonical_def):
            with pytest.raises(AFError, match=f"reserved: '{name}'"):
                build(sets)

    @pytest.mark.parametrize("sets,sigma,name", [
        ([{"_ x"}], "stb", "_ x"),  # invalid and reserved
        ([set(), {"A b", "_x"}], "adm", "A b"),  # invalid, sorting before a reserved name
    ])
    def test_validity_checked_before_prefix(self, sets, sigma, name):
        # one rule, `check_user_name`, per name in name order: a name is
        # checked for validity before the reserved prefix
        assert decide_signature(sets, sigma).answer == "yes"
        for build in (canonical_stb, canonical_def, lambda s: realize(s, sigma)):
            with pytest.raises(AFError, match=rf"^invalid argument name: '{name}'$"):
                build(sets)

    def test_constructions_without_helpers_accept(self):
        sets = [{"_x", "a"}, {"b"}]
        assert canonical_cf(sets) == AF(["_x", "a", "b"], [("_x", "b"), ("a", "b"), ("b", "_x"), ("b", "a")])
        assert extensions(realize(sets, "nav"), "nav") == normalize_candidate(sets)
        assert realize([{"_x"}], "grd") == AF(["_x"], [])


class TestInvalidNames:
    # a candidate's names are checked where a framework is first built from
    # them, after the criterion: a candidate failing it gets None
    @pytest.mark.parametrize("sigma", SIGNATURE_SEMANTICS)
    def test_realize_refusal_pinned(self, sigma):
        sets = [{"a b"}, {"c"}]
        if sigma in ("cf", "adm", "grd", "id", "eag"):
            assert realize(sets, sigma) is None
        else:
            with pytest.raises(AFError, match=r"^invalid argument name: 'a b'$"):
                realize(sets, sigma)

    def test_constructions_refuse(self):
        for build in (canonical_cf, canonical_stb, canonical_def):
            with pytest.raises(AFError, match=r"^invalid argument name: 'a b'$"):
                build([{"a b"}, {"c"}])
        with pytest.raises(AFError, match=r"^invalid argument name: 'x!'$"):
            realize([{"x!", "y?"}], "grd")


@pytest.mark.parametrize("sigma", SIGNATURE_SEMANTICS)
def test_realized_frameworks_equal_public_ones(sigma):
    # built from checked names, they equal AF(...) over the same names and attacks
    rng = random.Random(90210)
    found = 0
    for _ in range(60):
        names = rng.sample(["a", "b", "c", "d", "Z", "x1"], rng.randint(1, 4))
        cand = [set(rng.sample(names, rng.randint(0, len(names)))) for _ in range(rng.randint(1, 4))]
        f = realize(cand, sigma)
        if f is not None:
            found += 1
            g = AF(f.names, f.attacks)
            assert (f.names, f.index, f.succ, f.pred, f.attacks, hash(f)) == (
                g.names, g.index, g.succ, g.pred, g.attacks, hash(g)
            )
            assert f == g
    assert found


def test_compact_from_implicit_conflicts_on_every_small_framework():
    # every classifiable semantics is conflict-free, so a self-attacking
    # argument is always rejected, and any other rejected argument is an
    # implicit conflict with itself
    frameworks = list(all_afs(["a", "b"])) + list(all_afs(["a", "b", "c"]))
    assert len(frameworks) == 528
    checked = 0
    for f in frameworks:
        for sigma in CLASSIFIABLE_SEMANTICS:
            implicit = implicit_conflicts(f, sigma)
            derived = not f.loops_mask() and all(len(p) == 2 for p in implicit)
            assert is_compact(f, sigma) == derived, (f, sigma)
            checked += 1
    assert checked == 528 * 13
