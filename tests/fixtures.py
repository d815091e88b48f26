"""Shared fixture data and generators.

EXACTNESS_FIXTURES are the exact-verifiability witness pairs: each row
(sigma, weaker_class, F, F2) states that F and F2 carry identical verification
classes at `weaker_class` (hence at everything below it) while their
sigma-extensions differ. Together the rows cover, for every semantics, all
representatives strictly below its exact class.
"""

import functools
import itertools
import random

from hypothesis import strategies as st

from afkit.charlogic import FiniteLogic, _afs_with_slot_masks, make_logic
from afkit.core import AF, AFError, bits
from afkit.verifiability import BASIC_REGIONS, REPRESENTATIVES, _plan

F1 = AF("ab", [("b", "b"), ("b", "a")])
F1P = AF("ab", [("b", "b")])
F2 = AF("abc", [("b", "b"), ("b", "c"), ("c", "b")])
F2P = AF("abc", [("b", "b"), ("a", "b"), ("c", "b"), ("b", "c")])
F3 = AF("ab", [("a", "b"), ("b", "a"), ("b", "b")])
F3P = AF("ab", [("b", "b")])
F4 = AF("ab", [("a", "b"), ("b", "a"), ("b", "b")])
F4P = AF("ab", [("b", "a"), ("b", "b")])
F5 = AF("ab", [("a", "b"), ("b", "a"), ("b", "b")])
F5P = AF("ab", [("a", "b"), ("b", "b")])
F6 = AF("ab", [("a", "b"), ("b", "b")])
F6P = AF("ab", [("b", "a"), ("b", "b")])
F7 = AF("abc", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "c")])
F7P = AF("abc", [("a", "b"), ("b", "a"), ("c", "c")])
# the chapter-opening pair: identical conflict-free sets, different ranges
F0 = AF("ab", [("a", "b")])
F0P = AF("ab", [("a", "b"), ("b", "a")])


def _afs_on(draw, args, max_attacks):
    slots = [(x, y) for x in args for y in args]
    return AF(args, draw(st.lists(st.sampled_from(slots), max_size=max_attacks, unique=True)))


@st.composite
def five_six_arg_afs(draw):
    """Hypothesis strategy: a framework on a..e or a..f with up to 12 attacks."""
    return _afs_on(draw, "abcdef"[: draw(st.integers(5, 6))], 12)


@st.composite
def seven_arg_afs(draw):
    """Hypothesis strategy: a framework on a..g with up to 16 attacks."""
    return _afs_on(draw, "abcdefg", 16)


def sparse_random_af(n: int, p: float, seed: int) -> AF:
    """n arguments a00, a01, …, each ordered pair x ≠ y attacked, in
    row-major order, when `random.Random(seed).random() < p`: the sparse
    family on which the admissible and complete sweeps are measured."""
    rng = random.Random(seed)
    names = [f"a{i:02d}" for i in range(n)]
    return AF(names, [(x, y) for x in names for y in names if x != y and rng.random() < p])


def _least_per_orbit(images) -> list[int]:
    """The least 16-bit mask of each orbit under the bit permutations in
    `images` (bit i goes to bit image[i]): scanning upwards, the first mask
    of an orbit not yet seen is its least. Each permutation maps the low and
    high byte independently, through two byte tables."""
    tables = []
    for image in images:
        lo = [sum(1 << image[i] for i in bits(b)) for b in range(256)]
        hi = [sum(1 << image[i + 8] for i in bits(b)) for b in range(256)]
        tables.append((lo, hi))
    seen = bytearray(1 << 16)
    reps = []
    for m in range(1 << 16):
        if not seen[m]:
            reps.append(m)
            for lo, hi in tables:
                seen[lo[m & 255] | hi[m >> 8]] = 1
    return reps


def families_abcd_up_to_renaming() -> list[int]:
    """One family of subsets of {a,b,c,d} per class up to renaming, as the
    least 16-bit family mask (bit s for the subset with mask s)."""
    perms = itertools.permutations(range(4))
    return _least_per_orbit([[sum(1 << p[i] for i in bits(s)) for s in range(16)] for p in perms])


@functools.cache
def afs_abcd_up_to_renaming() -> tuple[AF, ...]:
    """One framework on {a,b,c,d} per class up to renaming, the one with the
    least attack mask (bit 4x + y for x attacking y)."""
    perms = itertools.permutations(range(4))
    reps = _least_per_orbit([[4 * p[i >> 2] + p[i & 3] for i in range(16)] for p in perms])
    return tuple(AF("abcd", [("abcd"[i >> 2], "abcd"[i & 3]) for i in bits(m)]) for m in reps)


EXACTNESS_FIXTURES = [
    ("com", "+±", F1, F1P),
    ("com", "−∓", F2, F2P),
    ("com", "±∓", F3, F3P),
    ("com", "−±", F4, F4P),
    ("com", "+∓", F5, F5P),
    ("com", "∩∪", F6, F6P),
    ("semi", "+", F1, F1P),
    ("semi", "∪", F6, F6P),
    ("semi", "∓", F7, F7P),
    ("eag", "+", F1, F1P),
    ("eag", "∪", F6, F6P),
    ("eag", "∓", F7, F7P),
    ("grd", "±", F1, F1P),
    ("grd", "-", F2, F2P),
    ("grd", "∪", F6, F6P),
    ("sad", "±", F1, F1P),
    ("sad", "-", F2, F2P),
    ("sad", "∪", F6, F6P),
    ("stb", "ε", F4, F4P),
    ("stg", "ε", F0, F0P),
    ("adm", "ε", F4, F4P),
    ("prf", "ε", F4, F4P),
    ("id", "ε", F4, F4P),
]


def all_afs_over(universe) -> tuple[AF, ...]:
    """Every framework over subsets of the universe, in the order of
    `charlogic.rho_logic`'s frameworks."""
    return tuple(f for f, _ in _afs_with_slot_masks(tuple(sorted(universe))))


def random_logic(
    seed: int, max_atoms: int = 3, max_interps: int = 4, min_atoms: int = 1
) -> FiniteLogic:
    """Seeded uniform model table over a small language."""
    rng = random.Random(seed)
    n_atoms = rng.randint(min_atoms, max_atoms)
    atoms = tuple("abcdefghijkl"[:n_atoms])
    n_interp = rng.randint(1, max_interps)
    interps = tuple(f"i{k}" for k in range(n_interp))
    table = {}
    for r in range(n_atoms + 1):
        for combo in itertools.combinations(atoms, r):
            table[frozenset(combo)] = frozenset(
                i for i in interps if rng.random() < 0.5
            )
    return FiniteLogic(atoms, interps, table)


def random_intersection_logic(seed: int, min_atoms: int = 2, max_atoms: int = 3) -> FiniteLogic:
    """Seeded logic with the intersection property by construction: random
    singleton models, and models(T) the intersection of T's singleton models
    (the full interpretation set for the empty theory). 2-3 atoms by
    default, 3-5 interpretations."""
    rng = random.Random(seed)
    atoms = "abcdefghijkl"[: rng.randint(min_atoms, max_atoms)]
    interps = [f"i{k}" for k in range(rng.randint(3, 5))]
    single = {a: {i for i in interps if rng.random() < 0.6} for a in atoms}
    table = {}
    for r in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, r):
            table[combo] = set(interps).intersection(*(single[a] for a in combo))
    return make_logic(atoms, interps, table)


def representative_of(components) -> str:
    """Collapse an arbitrary combination of basic functions to its representative."""
    comps = tuple(c for c in components if c != "ε")
    for c in comps:
        if c not in BASIC_REGIONS:
            raise AFError(f"unknown basic neighborhood function: {c!r}")
    for name, rep in REPRESENTATIVES.items():
        if _plan(comps, rep) is not None and _plan(rep, comps) is not None:
            return name
    raise AFError(f"no representative for components {comps!r}")
