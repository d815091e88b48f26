"""Finite logics given by explicit model tables: strong equivalence classes,
the canonical characterization construction, consequence operators, Galois
checks, and the bridge to argumentation frameworks at toy scale.

A finite logic is a total map from every theory (subset of a finite language)
to a set of opaque interpretation ids. Everything here is decided by brute
force over the (exponentially many) theories, so the language is capped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .core import AF, AFError
from .kernels import characterizing_kernel, kernel

MAX_ATOMS = 12

Theory = frozenset[str]


def theory_key(t: Theory):
    return (len(t), tuple(sorted(t)))


def _fmt_theory(t: Theory) -> str:
    return "{" + ",".join(sorted(t)) + "}"


@dataclass(frozen=True)
class FiniteLogic:
    atoms: tuple[str, ...]
    interpretations: tuple[str, ...]
    table: Mapping[Theory, frozenset[str]]
    legend: Optional[Mapping[str, str]] = None

    def __post_init__(self):
        if len(self.atoms) > MAX_ATOMS:
            raise AFError(f"language has {len(self.atoms)} atoms, cap is {MAX_ATOMS}")
        if len(set(self.atoms)) != len(self.atoms):
            raise AFError("duplicate atoms")
        interp = set(self.interpretations)
        expected = {frozenset(c) for r in range(len(self.atoms) + 1)
                    for c in itertools.combinations(self.atoms, r)}
        if set(self.table) != expected:
            missing = sorted(_fmt_theory(t) for t in expected - set(self.table))
            extra = sorted(_fmt_theory(t) for t in set(self.table) - expected)
            raise AFError(f"model table not total: missing {missing}, extra {extra}")
        for t, ids in self.table.items():
            if not ids <= interp:
                raise AFError(f"undeclared interpretation in models({_fmt_theory(t)})")

    @property
    def theories(self) -> tuple[Theory, ...]:
        return tuple(sorted(self.table, key=theory_key))

    def models(self, theory: Iterable[str]) -> frozenset[str]:
        t = frozenset(theory)
        try:
            return self.table[t]
        except KeyError:
            raise AFError(f"theory {_fmt_theory(t)} outside the language") from None


def make_logic(atoms, interpretations, model_map, legend=None) -> FiniteLogic:
    table = {frozenset(t): frozenset(ids) for t, ids in model_map.items()}
    return FiniteLogic(tuple(atoms), tuple(interpretations), table, legend)


@dataclass(frozen=True)
class EquivalencePartition:
    blocks: tuple[tuple[Theory, ...], ...]

    @property
    def representatives(self) -> tuple[Theory, ...]:
        return tuple(b[0] for b in self.blocks)

    @property
    def covers(self) -> tuple[Theory, ...]:
        return tuple(frozenset().union(*b) for b in self.blocks)

    def block_of(self, theory: Iterable[str]) -> tuple[Theory, ...]:
        t = frozenset(theory)
        for b in self.blocks:
            if t in b:
                return b
        raise AFError(f"theory {_fmt_theory(t)} outside the partition")


def strong_eq_classes(logic: FiniteLogic) -> EquivalencePartition:
    """Partition of all theories by strong equivalence, decided by brute force
    over all extending theories."""
    theories = logic.theories
    signatures: dict[Theory, tuple] = {}
    for t in theories:
        signatures[t] = tuple(logic.table[t | u] for u in theories)
    groups: dict[tuple, list[Theory]] = {}
    for t in theories:
        groups.setdefault(signatures[t], []).append(t)
    blocks = [tuple(sorted(g, key=theory_key)) for g in groups.values()]
    blocks.sort(key=lambda b: theory_key(b[0]))
    return EquivalencePartition(tuple(blocks))


def canonical_characterization(logic: FiniteLogic) -> FiniteLogic:
    """The canonical finite-theory characterization logic: the models of a theory
    are (ids of) all theories strongly equivalent to some supertheory of it."""
    part = strong_eq_classes(logic)
    theories = logic.theories
    ids = {t: f"t{i}" for i, t in enumerate(theories)}
    legend = {ids[t]: _fmt_theory(t) for t in theories}
    block_of = {t: b for b in part.blocks for t in b}
    table: dict[Theory, frozenset[str]] = {}
    for t in theories:
        out: set[str] = set()
        for s in theories:
            if t <= s:
                out.update(ids[m] for m in block_of[s])
        table[t] = frozenset(out)
    return FiniteLogic(logic.atoms, tuple(ids[t] for t in theories), table, legend)


def has_intersection_property(logic: FiniteLogic) -> bool:
    """models(T) equals the intersection of the models of T's singletons
    (the empty intersection being the full interpretation set)."""
    full = frozenset(logic.interpretations)
    for t in logic.theories:
        meet = full
        for atom in t:
            meet &= logic.table[frozenset((atom,))]
        if logic.table[t] != meet:
            return False
    return True


def is_characterization(candidate: FiniteLogic, target: FiniteLogic) -> bool:
    """Does the candidate characterize the target: ordinary candidate-equivalence
    coincides with strong target-equivalence, and binary intersection holds."""
    if candidate.atoms != target.atoms:
        raise AFError("characterization check requires a shared language")
    part = strong_eq_classes(target)
    block_of = {t: b for b in part.blocks for t in b}
    ts = target.theories
    for t1 in ts:
        for t2 in ts:
            if (candidate.table[t1] == candidate.table[t2]) != (block_of[t1] is block_of[t2]):
                return False
    for t1 in ts:
        for t2 in ts:
            if candidate.table[t1 | t2] != candidate.table[t1] & candidate.table[t2]:
                return False
    return True


def canonical_consequence(logic: FiniteLogic, theory: Iterable[str]) -> Theory:
    """Union of all theories whose models include the models of the given one."""
    t = frozenset(theory)
    base = logic.models(t)
    out: set[str] = set()
    for s in logic.theories:
        if base <= logic.table[s]:
            out |= s
    return frozenset(out)


def consequence_properties(logic: FiniteLogic) -> dict[str, bool]:
    cn = {t: canonical_consequence(logic, t) for t in logic.theories}
    increasing = all(t <= cn[t] for t in logic.theories)
    monotone = all(
        cn[t1] <= cn[t2] for t1 in logic.theories for t2 in logic.theories if t1 <= t2
    )
    idempotent = all(cn[cn[t]] <= cn[t] for t in logic.theories)
    return {"increasing": increasing, "monotone": monotone, "idempotent": idempotent}


def galois_check(logic: FiniteLogic) -> bool:
    """Whether the model function forms a Galois correspondence with its
    canonical theory function. By the intersection theorem for finite logics
    this holds exactly when the intersection property does, so it is decided
    in O(|theories|·|atoms|) rather than over all interpretation sets."""
    return has_intersection_property(logic)


# -- argumentation bridge --------------------------------------------------------


@dataclass(frozen=True)
class RhoLogic:
    universe: tuple[str, ...]
    sigma: str
    kernel_id: str
    afs: tuple[AF, ...]
    rho_prime: Mapping[AF, frozenset[AF]] = field(hash=False)


def all_afs_over(universe: Iterable[str]) -> tuple[AF, ...]:
    names = sorted(universe)
    out = []
    for r in range(len(names) + 1):
        for args in itertools.combinations(names, r):
            slots = [(x, y) for x in args for y in args]
            for n_att in range(len(slots) + 1):
                for atts in itertools.combinations(slots, n_att):
                    out.append(AF(args, atts))
    return tuple(out)


def _dsub(f: AF, g: AF) -> bool:
    return f.args <= g.args and f.attacks <= g.attacks


def rho_logic(universe: Iterable[str], sigma: str) -> RhoLogic:
    """Enumerate every framework over the universe and compute, for each one,
    the union of the strong equivalence classes of its superframeworks.
    Strong equivalence is decided by the characterizing kernel of sigma."""
    names = tuple(sorted(universe))
    if len(names) > 3:
        raise AFError(f"rho-logic universe capped at 3 arguments, got {len(names)}")
    k = characterizing_kernel("E", sigma, "extension")
    if k is None:
        raise AFError(f"no expansion-equivalence kernel for semantics {sigma!r}")
    afs = all_afs_over(names)
    kernels = {f: kernel(f, k) for f in afs}
    classes: dict[AF, list[AF]] = {}
    for f in afs:
        classes.setdefault(kernels[f], []).append(f)
    rho: dict[AF, frozenset[AF]] = {}
    for f in afs:
        out: set[AF] = set()
        for g in afs:
            if _dsub(f, g):
                out.update(classes[kernels[g]])
        rho[f] = frozenset(out)
    return RhoLogic(names, sigma, k, afs, rho)
