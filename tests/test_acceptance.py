"""Acceptance suite: one test per criterion, exact expectations, zero tolerance.

Each test prints a single `ACCEPTANCE <n> <label>: PASS/FAIL` line (visible with
pytest -s and in captured output) in addition to its assertions.
"""

import itertools
import random
import time

from afkit.charlogic import (
    canonical_characterization,
    consequence_properties,
    has_intersection_property,
    is_characterization,
    make_logic,
    rho_logic,
    strong_eq_classes,
)
from afkit.core import AF, loops, union_af
from afkit.kernels import (
    KERNEL_IDS,
    SearchBudget,
    decide_equivalence,
    kernel,
    search_counterexample,
    _EXT_TABLE,
)
from afkit.realizability import (
    decide_signature,
    defense_formula_cnf,
    downward_closure,
    normalize_candidate,
    realize,
)
from afkit.semantics import extensions, strongly_admissible
from afkit.verifiability import (
    REPRESENTATIVES,
    exact_class,
    more_informative,
    verification_class,
    verify,
)

from fixtures import EXACTNESS_FIXTURES, random_logic
from oracles import all_afs, is_antimonotone, random_af, sad_selfref_oracle


def fs(*xs):
    return frozenset(xs)


def report(n, label):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {n} {label}: PASS")
            return result

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


@report(1, "worked-example suite")
def test_criterion_1_worked_examples():
    started = time.perf_counter()

    # stable kernels: same extensions, different kernels, separating expansion
    f = AF("abcd", [("b", "a"), ("b", "c"), ("c", "c"), ("d", "c")])
    g = AF("bcd", [("b", "c"), ("c", "b"), ("c", "c"), ("c", "d")])
    h = AF("be", [("e", "b")])
    assert set(extensions(f, "stb")) == {fs("b", "d")}
    assert set(extensions(g, "stb")) == {fs("b", "d")}
    assert kernel(f, "k_stb") != kernel(g, "k_stb")
    assert set(extensions(union_af(f, h), "stb")) == {fs("a", "d", "e")}
    assert extensions(union_af(g, h), "stb") == ()

    # verification-class digests
    fn = AF("abc", [("a", "b"), ("b", "a"), ("b", "b"), ("c", "b")])
    plus = {(b, info[0]) for b, info in verification_class(fn, "+").entries}
    assert plus == {
        (fs(), fs()), (fs("a"), fs("a", "b")), (fs("c"), fs("b", "c")),
        (fs("a", "c"), fs("a", "b", "c")),
    }
    pm = {(b, info[0]) for b, info in verification_class(fn, "±").entries}
    assert pm == {
        (fs(), fs()), (fs("a"), fs()), (fs("c"), fs("b")), (fs("a", "c"), fs()),
    }

    # the ten strongly admissible sets
    fl = AF("abcdef", [("e", "e"), ("a", "b"), ("b", "c"), ("c", "e"),
                        ("e", "f"), ("f", "e"), ("d", "e")])
    assert set(strongly_admissible(fl)) == {
        fs(), fs("a"), fs("d"), fs("a", "d"), fs("a", "c"), fs("d", "f"),
        fs("a", "d", "c"), fs("a", "d", "f"), fs("a", "c", "f"), fs("a", "d", "c", "f"),
    }

    # defense-formula CNFs
    s = [{"a", "b"}, {"a", "d", "e"}, {"b", "c", "e"}]
    assert defense_formula_cnf(s, "a") == {fs("b", "d"), fs("b", "e")}
    assert defense_formula_cnf(s, "e") == {
        fs("a", "b"), fs("a", "c"), fs("b", "d"), fs("c", "d"),
    }

    # canonical naive realization of the four-set example
    sets = [{"a1", "b2", "b3"}, {"a2", "b1", "b3"}, {"a3", "b1", "b2"}, {"b1", "b2", "b3"}]
    w = realize(sets, "nav")
    assert set(extensions(w, "nav")) == set(normalize_candidate(sets))

    # the three-atom characterization table
    logic = make_logic(
        "abc", ["i0", "i1", "i2", "i3"],
        {(): {"i0"}, ("a",): {"i1"}, ("b",): {"i2"}, ("c",): {"i3"},
         ("a", "b"): set(), ("a", "c"): set(), ("b", "c"): set(), ("a", "b", "c"): set()},
    )
    char = canonical_characterization(logic)
    names = {i: t for i, t in char.legend.items()}
    def as_theories(t):
        return {names[i] for i in char.models(t)}
    assert as_theories(fs()) == {
        "{}", "{a}", "{b}", "{c}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}",
    }
    assert as_theories(fs("a")) == {"{a}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}"}
    assert as_theories(fs("a", "b", "c")) == {"{a,b}", "{a,c}", "{b,c}", "{a,b,c}"}
    assert char.models(fs("a")) & char.models(fs("b")) == char.models(fs("a", "b"))

    assert time.perf_counter() - started < 1.0


SUBSET_CHAINS = [
    ("stb", "semi"), ("semi", "prf"), ("prf", "com"), ("com", "adm"), ("adm", "cf"),
    ("stb", "stg"), ("stg", "nav"), ("nav", "cf"),
    ("stb", "stg2"), ("stg2", "cf2"), ("cf2", "nav"),
    ("grd", "com"), ("id", "com"), ("eag", "com"),
]

INSENSITIVE_PAIRS = [
    ("stb", "k_stb"), ("adm", "k_adm"), ("grd", "k_grd"), ("com", "k_com"),
    ("semi", "k_adm"), ("eag", "k_adm"), ("prf", "k_adm"), ("id", "k_adm"),
    ("stg", "k_stb"),
]


@report(2, "exhaustive oracle sweep")
def test_criterion_2_exhaustive_sweep():
    started = time.perf_counter()
    frameworks = list(all_afs(["a", "b"])) + list(all_afs(["a", "b", "c"]))
    assert len(frameworks) == 16 + 512
    sig_semantics = ("cf", "nav", "stb", "stg", "adm", "prf", "semi", "grd", "id", "eag")
    for f in frameworks:
        ext = {sigma: set(extensions(f, sigma)) for sigma in
               ("cf", "nav", "adm", "com", "grd", "stb", "stg", "semi", "prf",
                "id", "eag", "sad", "cf2", "stg2")}
        # (a) subset relations
        for small, large in SUBSET_CHAINS:
            assert ext[small] <= ext[large], (small, large, f)
        # (b) kernel insensitivity
        for sigma, k in INSENSITIVE_PAIRS:
            assert extensions(f, sigma) == extensions(kernel(f, k), sigma), (sigma, k, f)
        # (c) reconstruction from exact verification classes
        for sigma in ("nav", "stg", "stb", "adm", "prf", "semi", "id", "eag",
                      "sad", "grd", "com"):
            data = verification_class(f, exact_class(sigma))
            assert set(verify(sigma, data, f.args)) == ext[sigma], (sigma, f)
        # (d) signature criteria accept the actual extension sets
        for sigma in sig_semantics:
            assert decide_signature(extensions(f, sigma), sigma).answer == "yes", (sigma, f)
        # (e) constructive strongly-admissible equals the self-referential oracle
        assert ext["sad"] == sad_selfref_oracle(f), f
        # (f) kernel idempotence and node/loop preservation
        for k in KERNEL_IDS:
            g = kernel(f, k)
            assert kernel(g, k) == g
            assert g.args == f.args and loops(g) == loops(f)
    elapsed = time.perf_counter() - started
    assert elapsed < 300, elapsed


def _kernel_cells():
    cells = []
    for notion in ("E", "N", "S"):
        for sigma, cell in _EXT_TABLE[notion].items():
            if cell not in (None, "criterion"):
                cells.append((notion, sigma))
    return cells


@report(3, "equivalence soundness sampling")
def test_criterion_3_equivalence_soundness():
    rng = random.Random(31415)
    find_budget = SearchBudget(fresh_args=2, max_attacks=4)
    none_budget = SearchBudget(fresh_args=2, max_attacks=2)
    for notion, sigma in _kernel_cells():
        pairs = []
        while len(pairs) < 100:
            f = random_af(rng, "abc", 0.35)
            g = random_af(rng, "abc", 0.35)
            pairs.append((f, g))
            # seed some genuinely equivalent pairs: a framework and its kernel
            if len(pairs) % 10 == 0:
                pairs.append((f, kernel(f, _EXT_TABLE[notion][sigma])))
        for f, g in pairs[:100]:
            verdict = decide_equivalence(f, g, notion, sigma)
            if verdict.answer == "not_equivalent":
                found = search_counterexample(f, g, notion, sigma, find_budget)
                assert found.witness is not None, (notion, sigma, f, g)
                w = found.witness
                assert extensions(union_af(f, w), sigma) != extensions(union_af(g, w), sigma)
            else:
                assert verdict.answer == "equivalent"
                none = search_counterexample(f, g, notion, sigma, none_budget)
                assert none.witness is None, (notion, sigma, f, g, none.witness)


def _candidate_stream(sigma, rng):
    universe = "abcd"
    subsets = [fs(*c) for r in range(5) for c in itertools.combinations(universe, r)]
    while True:
        if sigma in ("grd", "id", "eag"):
            cand = normalize_candidate([rng.choice(subsets)])
        else:
            picked = rng.sample(subsets, rng.randint(0 if sigma == "stb" else 1, 4))
            cand = normalize_candidate(picked)
            if sigma == "cf":
                cand = downward_closure(cand)
            elif sigma in ("nav", "stb", "stg", "prf", "semi"):
                cand = normalize_candidate(
                    [s for s in cand if not any(s < t for t in cand)]
                )
            elif sigma == "adm":
                cand = normalize_candidate(list(cand) + [fs()])
        if decide_signature(cand, sigma).answer == "yes":
            yield cand


@report(4, "realize-then-check")
def test_criterion_4_realize_then_check():
    semantics = ("cf", "nav", "stb", "stg", "adm", "prf", "semi", "grd", "id", "eag")
    for index, sigma in enumerate(semantics):
        rng = random.Random(271800 + index)
        stream = _candidate_stream(sigma, rng)
        for _ in range(200):
            cand = next(stream)
            witness = realize(cand, sigma)
            assert witness is not None, (sigma, cand)
            assert extensions(witness, sigma) == cand, (sigma, cand)


@report(5, "verification-class exactness fixtures")
def test_criterion_5_exactness_fixtures():
    covered: dict[str, set[str]] = {}
    for sigma, weaker, f, g in EXACTNESS_FIXTURES:
        for cls in REPRESENTATIVES:
            if more_informative(weaker, cls):
                assert verification_class(f, cls) == verification_class(g, cls), (sigma, cls)
                covered.setdefault(sigma, set()).add(cls)
        assert extensions(f, sigma) != extensions(g, sigma), sigma
    for sigma, classes in covered.items():
        exact = exact_class(sigma)
        weaker_all = {
            cls for cls in REPRESENTATIVES
            if more_informative(exact, cls) and cls != exact
        }
        assert classes == weaker_all, sigma


@report(6, "characterization-logic properties")
def test_criterion_6_charlogic_properties():
    started = time.perf_counter()
    for seed in range(500):
        logic = random_logic(seed, max_atoms=3, max_interps=4)
        char = canonical_characterization(logic)
        assert is_characterization(char, logic), seed
        part = strong_eq_classes(logic)
        for block in part.blocks:
            members = set(block)
            assert frozenset().union(*members) in members, seed  # cover
            for t1 in members:
                for t3 in members:
                    for mid in logic.theories:
                        if t1 <= mid <= t3:
                            assert mid in members, seed  # convexity
        inter = has_intersection_property(logic)
        anti = is_antimonotone(logic)
        mono = consequence_properties(logic)["monotone"]
        assert (not inter or anti) and (not anti or mono), seed
    rho = rho_logic(["a", "b"], "stb")
    for f in rho.afs:
        for g in rho.afs:
            assert rho.rho_prime[union_af(f, g)] == rho.rho_prime[f] & rho.rho_prime[g]
            same_rho = rho.rho_prime[f] == rho.rho_prime[g]
            assert same_rho == (kernel(f, "k_stb") == kernel(g, "k_stb"))
    elapsed = time.perf_counter() - started
    assert elapsed < 120, elapsed
