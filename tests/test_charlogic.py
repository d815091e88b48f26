import itertools
import random

import pytest

from afkit.charlogic import (
    FiniteLogic,
    canonical_characterization,
    canonical_consequence,
    consequence_properties,
    galois_check,
    has_intersection_property,
    is_characterization,
    make_logic,
    rho_logic,
    strong_eq_classes,
)
from afkit.core import AF, AFError, union_af
from afkit.kernels import characterizing_kernel, kernel
from afkit.semantics import SEMANTICS

from fixtures import all_afs_over, random_intersection_logic, random_logic
from oracles import (
    canonical_characterization_oracle,
    consequence_properties_oracle,
    galois_oracle,
    is_antimonotone,
    is_characterization_oracle,
    rho_oracle,
    strong_eq_oracle,
)


def fs(*xs):
    return frozenset(xs)


def three_atom_demo() -> FiniteLogic:
    """Explicit table realizing the five-class walkthrough: distinct models for
    the empty theory and each singleton, no models from size two up."""
    table = {
        (): {"i0"}, ("a",): {"i1"}, ("b",): {"i2"}, ("c",): {"i3"},
        ("a", "b"): set(), ("a", "c"): set(), ("b", "c"): set(), ("a", "b", "c"): set(),
    }
    return make_logic("abc", ["i0", "i1", "i2", "i3"], table)


def monotone_strong_example() -> FiniteLogic:
    return make_logic(
        "ab", ["1", "2"],
        {(): {"1", "2"}, ("a",): {"1", "2"}, ("b",): {"2"}, ("a", "b"): set()},
    )


class TestStrongEquivalence:
    def test_five_classes(self):
        part = strong_eq_classes(three_atom_demo())
        blocks = [set(b) for b in part.blocks]
        assert blocks == [
            {fs()},
            {fs("a")},
            {fs("b")},
            {fs("c")},
            {fs("a", "b"), fs("a", "c"), fs("b", "c"), fs("a", "b", "c")},
        ]

    def test_constant_logic_single_class(self):
        table = {t: {"1"} for t in [(), ("a",), ("b",), ("a", "b")]}
        part = strong_eq_classes(make_logic("ab", ["1"], table))
        assert len(part.blocks) == 1

    def test_ordinary_but_not_strong(self):
        part = strong_eq_classes(monotone_strong_example())
        assert part.block_of(()) != part.block_of(("a",))

    def test_cover_and_convexity(self):
        for seed in range(60):
            logic = random_logic(seed)
            part = strong_eq_classes(logic)
            for block in part.blocks:
                members = set(block)
                cover = frozenset().union(*members)
                assert cover in members  # join-semilattice / covered
                for t1 in members:
                    for t3 in members:
                        for mid in logic.theories:
                            if t1 <= mid <= t3:
                                assert mid in members  # convex


class TestCanonicalCharacterization:
    def test_walkthrough_table(self):
        logic = three_atom_demo()
        char = canonical_characterization(logic)
        legend = char.legend
        def models_as_theories(t):
            return {legend[i] for i in char.models(t)}
        everything = {"{}", "{a}", "{b}", "{c}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}"}
        assert models_as_theories(fs()) == everything
        assert models_as_theories(fs("a")) == {"{a}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}"}
        assert models_as_theories(fs("a", "b", "c")) == {"{a,b}", "{a,c}", "{b,c}", "{a,b,c}"}

    def test_intersection_demo(self):
        char = canonical_characterization(three_atom_demo())
        assert char.models(fs("a")) & char.models(fs("b")) == char.models(fs("a", "b"))

    def test_is_characterization(self):
        logic = three_atom_demo()
        assert is_characterization(canonical_characterization(logic), logic)

    def test_constant_logic_constant_characterization(self):
        table = {t: {"1"} for t in [(), ("a",)]}
        logic = make_logic("a", ["1"], table)
        char = canonical_characterization(logic)
        assert char.models(fs()) == char.models(fs("a"))

    def test_random_logics(self):
        for seed in range(40):
            logic = random_logic(seed)
            char = canonical_characterization(logic)
            assert is_characterization(char, logic), seed
            assert has_intersection_property(char)

    def test_absorption_against_characterization(self):
        logic = three_atom_demo()
        char = canonical_characterization(logic)
        for t in logic.theories:
            cn = canonical_consequence(logic, t)
            cnp = canonical_consequence(char, t)
            assert cnp <= cn  # sublogic
            assert canonical_consequence(char, cn) == cn  # left absorption
            assert canonical_consequence(logic, cnp) == cn  # right absorption


class TestIntersectionAndGalois:
    def test_monotone_strong_counterexample(self):
        logic = monotone_strong_example()
        assert logic.models(fs("a", "b")) != logic.models(fs("a")) & logic.models(fs("b"))
        assert not has_intersection_property(logic)
        props = consequence_properties(logic)
        assert props == {"increasing": True, "monotone": True, "idempotent": True}

    def test_one_atom_consequence(self):
        logic = make_logic("a", ["1"], {(): set(), ("a",): {"1"}})
        assert canonical_consequence(logic, ()) == fs("a")
        assert canonical_consequence(logic, ("a",)) == fs("a")
        assert not galois_check(logic)
        assert not has_intersection_property(logic)

    def test_non_idempotent_consequence(self):
        table = {}
        for r in range(4):
            for combo in itertools.combinations("abc", r):
                table[combo] = (
                    {"1"} if frozenset(combo) in ({fs(), fs("a"), fs("b")}) else set()
                )
        logic = make_logic("abc", ["1"], table)
        cn0 = canonical_consequence(logic, ())
        assert cn0 == fs("a", "b")
        assert canonical_consequence(logic, cn0) == fs("a", "b", "c")
        assert consequence_properties(logic)["idempotent"] is False

    def test_constant_full_logic(self):
        table = {t: {"1"} for t in [(), ("a",), ("b",), ("a", "b")]}
        logic = make_logic("ab", ["1"], table)
        assert has_intersection_property(logic)
        assert galois_check(logic)

    def test_constant_non_full_logic_fails_empty_theory(self):
        table = {t: {"1"} for t in [(), ("a",)]}
        logic = make_logic("a", ["1", "2"], table)
        assert not has_intersection_property(logic)

    def test_galois_iff_intersection(self):
        logics = [random_logic(seed) for seed in range(60)]
        # few random tables have the property; these have it by construction
        logics += [random_intersection_logic(seed) for seed in range(40)]
        holds = 0
        for i, logic in enumerate(logics):
            expected = galois_oracle(logic)
            assert galois_check(logic) == expected, i
            holds += expected
        assert holds == 47  # both sides of the equivalence are exercised

    def test_implication_chain(self):
        for seed in range(60):
            logic = random_logic(seed)
            inter = has_intersection_property(logic)
            anti = is_antimonotone(logic)
            mono = consequence_properties(logic)["monotone"]
            if inter:
                assert anti
            if anti:
                assert mono


class TestAgainstPairOracles:
    """The mask constructions against the pair loops they replaced."""

    @staticmethod
    def logics():
        # 0-6 atoms; one or two interpretations make large strong classes
        for seed in range(140):
            yield random_logic(seed, max_atoms=6, max_interps=1 + seed % 4, min_atoms=0)
        yield from (random_intersection_logic(seed) for seed in range(20))

    def test_partition_characterization_consequence(self):
        merged = 0
        for i, logic in enumerate(self.logics()):
            part = strong_eq_classes(logic)
            assert part.blocks == strong_eq_oracle(logic), i
            merged += len(part.blocks) < len(logic.table)
            char = canonical_characterization(logic)
            assert char == canonical_characterization_oracle(logic), i  # table, ids, legend
            assert consequence_properties(logic) == consequence_properties_oracle(logic), i
        assert merged == 88  # partitions with a block of two or more theories

    def test_consequence_properties_seven_to_nine_atoms(self):
        # intersection logics, where all three properties hold, and the same
        # with three theories' models redrawn, where monotonicity and
        # idempotence fail in these eight; Cn(t) contains t in every logic
        failed = {"monotone": 0, "idempotent": 0}
        for seed in range(8):
            logic = random_intersection_logic(seed, min_atoms=7, max_atoms=9)
            props = consequence_properties(logic)
            assert props == consequence_properties_oracle(logic) == dict.fromkeys(props, True), seed
            rng = random.Random(seed)
            table = dict(logic.table)
            for t in rng.sample(logic.theories, 3):
                table[t] = frozenset(i for i in logic.interpretations if rng.random() < 0.5)
            redrawn = make_logic(logic.atoms, logic.interpretations, table)
            props = consequence_properties(redrawn)
            assert props == consequence_properties_oracle(redrawn), seed
            for name in failed:
                failed[name] += not props[name]
        assert failed == {"monotone": 8, "idempotent": 8}

    def test_is_characterization(self):
        holds = total = 0
        for i, logic in enumerate(self.logics()):
            char = canonical_characterization(logic)
            top = char.theories[-1]
            dropped = dict(char.table)
            dropped[top] = frozenset(sorted(dropped[top])[1:])
            candidates = [
                char,
                logic,
                random_logic(i + 1000, max_atoms=6, max_interps=3, min_atoms=0),
                FiniteLogic(char.atoms, char.interpretations, dropped),
            ]
            for cand in candidates:
                if cand.atoms != logic.atoms:
                    continue
                expected = is_characterization_oracle(cand, logic)
                assert is_characterization(cand, logic) == expected, i
                holds += expected
                total += 1
        assert (holds, total) == (266, 507)  # both answers are exercised

    @pytest.mark.parametrize("sigma", [
        s for s in SEMANTICS if characterizing_kernel("E", s, "extension") is not None
    ])
    def test_rho_logic_one_two_args(self, sigma):
        for universe in (["a"], ["a", "b"]):
            assert rho_logic(universe, sigma).rho_prime == rho_oracle(universe, sigma)

    # one semantics per characterizing kernel: k_nav adds attacks and the
    # identity keeps every class apart, besides the four deleting kernels
    RHO_KERNELS = {"nav": "k_nav", "adm": "k_adm", "com": "k_com", "grd": "k_grd", "stb": "k_stb",
                   "cf2": "identity"}

    @pytest.mark.parametrize("sigma", list(RHO_KERNELS))
    def test_rho_logic_three_args(self, sigma):
        rho = rho_logic(["a", "b", "c"], sigma)
        assert rho.kernel_id == self.RHO_KERNELS[sigma]
        assert rho.rho_prime == rho_oracle("abc", sigma)


class TestValidation:
    def test_table_must_be_total(self):
        with pytest.raises(AFError):
            make_logic("ab", ["1"], {(): {"1"}})

    def test_language_cap(self):
        atoms = "abcdefghijklm"  # 13 atoms
        table = {
            c: set()
            for r in range(len(atoms) + 1)
            for c in itertools.combinations(atoms, r)
        }
        with pytest.raises(AFError):
            make_logic(atoms, [], table)

    def test_undeclared_interpretation(self):
        with pytest.raises(AFError):
            make_logic("a", ["1"], {(): {"9"}, ("a",): set()})

    def test_theory_outside_the_language(self):
        logic = monotone_strong_example()
        with pytest.raises(AFError, match="theory {a,z} outside the language"):
            logic.models({"z", "a"})
        with pytest.raises(AFError, match="theory {z} outside the partition"):
            strong_eq_classes(logic).block_of({"z"})

    def test_characterization_needs_a_shared_language(self):
        with pytest.raises(AFError, match="requires a shared language"):
            is_characterization(monotone_strong_example(), three_atom_demo())


class TestRhoLogic:
    def test_single_argument_universe(self):
        rho = rho_logic(["a"], "stb")
        assert len(rho.afs) == 3
        values = [rho.rho_prime[f] for f in rho.afs]
        assert len(set(values)) == 3  # pairwise non-equivalent, injective

    def test_two_argument_intersection(self):
        rho = rho_logic(["a", "b"], "stb")
        for f in rho.afs:
            for g in rho.afs:
                assert rho.rho_prime[union_af(f, g)] == rho.rho_prime[f] & rho.rho_prime[g]

    def test_two_argument_characterization(self):
        rho = rho_logic(["a", "b"], "stb")
        for f in rho.afs:
            for g in rho.afs:
                same_rho = rho.rho_prime[f] == rho.rho_prime[g]
                same_kernel = kernel(f, "k_stb") == kernel(g, "k_stb")
                assert same_rho == same_kernel

    def test_each_framework_built_once(self, monkeypatch):
        # the kernels are read as slot masks, and equal up-classes share one set
        # (counted at the one construction body, which both AF(...) and the
        # checked-names constructor run)
        built = []
        body = AF._build
        monkeypatch.setattr(AF, "_build", lambda self, *a: built.append(1) or body(self, *a))
        for sigma in ("grd", "nav", "cf2"):
            built.clear()
            rho = rho_logic(["a", "b"], sigma)
            assert len(built) == len(rho.afs) == 21
            values = list(rho.rho_prime.values())
            assert len({id(v) for v in values}) == len(set(values))

    def test_names_checked_once(self, monkeypatch):
        # one regex match per universe name; each framework used to check its
        # names again (1 638 matches for this call)
        from afkit import core

        calls = []
        pattern = core.ARG_NAME_RE

        class Counting:
            def match(self, name):
                calls.append(name)
                return pattern.match(name)

        monkeypatch.setattr(core, "ARG_NAME_RE", Counting())
        rho_logic("abc", "grd")
        assert calls == ["a", "b", "c"]

    def test_refusals_pinned(self):
        with pytest.raises(AFError, match=r"^invalid argument name: 'b!'$"):
            rho_logic(["a", "b!"], "grd")
        # the first framework holding a bad name names it: the least one
        with pytest.raises(AFError, match=r"^invalid argument name: 'a!'$"):
            rho_logic(["c", "b!", "a!"], "grd")
        # the cap and then the kernel are checked before the names
        with pytest.raises(AFError, match="no expansion-equivalence kernel"):
            rho_logic(["a", "b!"], "cf")
        with pytest.raises(AFError, match="capped at 3"):
            rho_logic(["a", "b", "c", "d!"], "grd")
        # the library accepts reserved names here; the command line refuses them
        assert len(rho_logic(["_x", "a"], "grd").afs) == 21

    def test_af_count_over_two(self):
        assert len(all_afs_over(["a", "b"])) == 21

    def test_universe_cap(self):
        with pytest.raises(AFError):
            rho_logic(["a", "b", "c", "d"], "stb")

    def test_duplicate_names_counted_once(self):
        once = rho_logic(["a"], "stb")
        assert rho_logic(["a", "a"], "stb") == once
        assert rho_logic(["b", "a", "b", "a", "a"], "stb").afs == rho_logic(["a", "b"], "stb").afs

    def test_requires_kernel(self):
        with pytest.raises(AFError):
            rho_logic(["a"], "cf")
