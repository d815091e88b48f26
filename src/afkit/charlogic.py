"""Finite logics given by explicit model tables: strong equivalence classes,
the canonical characterization construction, consequence operators, Galois
checks, and the bridge to argumentation frameworks at toy scale.

A finite logic maps every theory (subset of a finite language) to a set of
opaque interpretation ids. Theories are bitmasks over the n atoms, T = 2^n of
them, so the language is capped. Strong equivalence is partition refinement
under t ↦ t ∪ {a}, O(n²·T); unions over supersets are one superset zeta
transform over the positions that exist, O(width·positions): O(n·T) over the
theory cube, and O(m·|frameworks|) over the m = n + n² argument and attack
slots of frameworks on n arguments (12 × 567 steps on three arguments, where
the whole slot cube has 4 096 masks). It is exact when the positions are
closed under adding the lowest bit that any superset among them adds; the
theory cube is, and so are the frameworks, whose argument bits lie below their
attack-slot bits. The output, one id set per theory and one framework set per
framework, is the cost floor.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional

from .core import AF, AFError, Record, check_arg_name, extension_key as theory_key

MAX_ATOMS = 12

Theory = frozenset[str]


def _fmt_theory(t: Theory) -> str:
    return "{" + ",".join(sorted(t)) + "}"


class FiniteLogic(Record):
    """A finite logic given by its model table. Its table is a dict, so it
    has no hash."""

    _fields = ("atoms", "interpretations", "table", "legend")

    def __init__(
        self,
        atoms: tuple[str, ...],
        interpretations: tuple[str, ...],
        table: Mapping[Theory, frozenset[str]],
        legend: Optional[Mapping[str, str]] = None,
    ):
        if len(atoms) > MAX_ATOMS:
            raise AFError(f"language has {len(atoms)} atoms, cap is {MAX_ATOMS}")
        if len(set(atoms)) != len(atoms):
            raise AFError("duplicate atoms")
        interp = set(interpretations)
        if len(interp) != len(interpretations):
            raise AFError("duplicate interpretations")
        expected = set(_theories_by_mask(atoms))
        if set(table) != expected:
            missing = sorted(_fmt_theory(t) for t in expected - set(table))
            extra = sorted(_fmt_theory(t) for t in set(table) - expected)
            raise AFError(f"model table not total: missing {missing}, extra {extra}")
        for t, ids in table.items():
            if not ids <= interp:
                raise AFError(f"undeclared interpretation in models({_fmt_theory(t)})")
        d = self.__dict__
        d["atoms"] = atoms
        d["interpretations"] = interpretations
        d["table"] = table
        d["legend"] = legend

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


class EquivalencePartition(Record):
    _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[Theory, ...], ...]):
        self.__dict__["blocks"] = blocks

    def block_of(self, theory: Iterable[str]) -> tuple[Theory, ...]:
        t = frozenset(theory)
        for b in self.blocks:
            if t in b:
                return b
        raise AFError(f"theory {_fmt_theory(t)} outside the partition")


def _theories_by_mask(atoms: tuple[str, ...]) -> list[Theory]:
    """Every theory at the index of its mask: atom k doubles the list, the
    masks with bit k set being those without it plus 2^k."""
    theories = [frozenset()]
    for a in atoms:
        theories += [t | {a} for t in theories]
    return theories


def _renumber(keys) -> list[int]:
    """Dense ids for keys, in order of first occurrence."""
    seen: dict = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


def _strong_ids(logic: FiniteLogic) -> tuple[list[Theory], list[int]]:
    """Theories by mask and their strong-equivalence ids: the coarsest refinement of "same
    models" keeping t, t ∪ {a} together for every atom a (Moore), at most n + 1 rounds."""
    theories = _theories_by_mask(logic.atoms)
    steps = [1 << i for i in range(len(logic.atoms))]
    ids, new = None, _renumber(logic.table[t] for t in theories)
    while new != ids:  # a numbering by first occurrence is canonical per partition
        ids, new = new, _renumber((c, *(new[m | b] for b in steps)) for m, c in enumerate(new))
    return theories, ids


def _superset_union(rows: list[int], masks, width: int) -> None:
    """Superset zeta transform in place over the positions `masks`, highest bit first:
    afterwards rows[m] is the union of the original rows[s] over every position s ⊇ m.
    Rows off the positions must be 0 and stay so.

    After the steps for bits width-1 down to i, rows[m] holds the positions s ⊇ m that
    differ from m in bits ≥ i only; the step for bit i adds rows[m | 2^i]. That row is
    read only at a position, so the result is exact when the positions are closed under
    adding to a member m the lowest bit of s - m, for every position s ⊇ m (Björklund,
    Husfeldt, Kaski & Koivisto 2008, trimmed zeta transform). The full cube is; so are
    frameworks with their argument bits below their attack-slot bits, since the lowest
    bit a superframework adds is an argument, or an attack between arguments already
    there. width × |masks| steps, in place of width × 2^width."""
    for i in reversed(range(width)):
        bit = 1 << i
        for m in masks:
            if not m & bit:
                rows[m] |= rows[m | bit]


def _up_classes(masks, keys, labels, width: int) -> list[frozenset]:
    """Per position i, the labels in the key classes of all positions with masks ⊇ masks[i]:
    one class bit per mask, `_superset_union` over the masks (which must meet its closure
    condition), then one label set per distinct row, shared by the positions holding it.

    The sets are built superpositions first (descending masks). A row not yet built
    contains the rows of its one-step superpositions m | 2^i, all built; the largest
    one is copied and only the classes it lacks are added."""
    classes: dict[int, set] = {}
    rows = [0] * (1 << width)
    for m, c, label in zip(masks, _renumber(keys), labels):
        classes.setdefault(c, set()).add(label)
        rows[m] = 1 << c
    _superset_union(rows, masks, width)
    union = {0: frozenset()}
    full = (1 << width) - 1
    for m in sorted(masks, reverse=True):
        row = rows[m]
        if row in union:
            continue
        base, rest = 0, full & ~m
        while rest:  # `core.bits` inlined, as in `core.names_of`; rows off the positions are 0
            bit = rest & -rest
            rest ^= bit
            up = rows[m | bit]
            if up.bit_count() > base.bit_count():
                base = up
        members, r = [], row & ~base
        while r:
            low = r & -r
            members.append(classes[low.bit_length() - 1])
            r ^= low
        union[row] = union[base].union(*members)
    return [union[rows[m]] for m in masks]


def _meets(models: list) -> bool:
    """models[m] = models[m minus its lowest bit] ∩ models[that bit] for all m ≠ 0: by
    induction, models[m] = models[0] ∩ ⋂ models[{i}] over i ∈ m, i.e. binary intersection."""
    return all(models[m] == models[m & (m - 1)] & models[m & -m] for m in range(1, len(models)))


def strong_eq_classes(logic: FiniteLogic) -> EquivalencePartition:
    """Partition of all theories by strong equivalence."""
    theories, ids = _strong_ids(logic)
    groups: dict[int, list[Theory]] = {}
    for t, c in sorted(zip(theories, ids), key=lambda p: theory_key(p[0])):
        groups.setdefault(c, []).append(t)
    return EquivalencePartition(tuple(map(tuple, groups.values())))


def canonical_characterization(logic: FiniteLogic) -> FiniteLogic:
    """The canonical finite-theory characterization logic: the models of a theory
    are (ids of) all theories strongly equivalent to some supertheory of it."""
    theories, cls = _strong_ids(logic)
    ids = {t: f"t{i}" for i, t in enumerate(sorted(theories, key=theory_key))}
    models = _up_classes(range(len(theories)), cls, map(ids.get, theories), len(logic.atoms))
    legend = {i: _fmt_theory(t) for t, i in ids.items()}
    return FiniteLogic(logic.atoms, tuple(ids.values()), dict(zip(theories, models)), legend)


def has_intersection_property(logic: FiniteLogic) -> bool:
    """models(T) is the intersection of its singletons' models (all interpretations for ∅)."""
    models = [logic.table[t] for t in _theories_by_mask(logic.atoms)]
    return models[0] == frozenset(logic.interpretations) and _meets(models)


def is_characterization(candidate: FiniteLogic, target: FiniteLogic) -> bool:
    """Does the candidate characterize the target: ordinary candidate-equivalence
    coincides with strong target-equivalence, and binary intersection holds."""
    if candidate.atoms != target.atoms:
        raise AFError("characterization check requires a shared language")
    theories, cls = _strong_ids(target)
    cand = [candidate.table[t] for t in theories]
    # both number their groups in order of first occurrence by mask
    return _renumber(cand) == cls and _meets(cand)


def canonical_consequence(logic: FiniteLogic, theory: Iterable[str]) -> Theory:
    """Union of all theories whose models include the models of the given one
    (for one Cn, a scan of the table is cheaper than the bitsets that
    `consequence_properties` builds)."""
    base = logic.models(theory)
    return frozenset().union(*(s for s, models in logic.table.items() if base <= models))


def consequence_properties(logic: FiniteLogic) -> dict[str, bool]:
    """Whether Cn is increasing, monotone and idempotent, with Cn(t) the union
    of the theories whose models include models(t).

    Theories are bit positions (their masks) in one bitset per
    interpretation, of the theories it is a model of, and one per atom, of
    the theories holding it. The theories above a model set M are the AND
    of M's bitsets (all of them for M = ∅), and Cn the atoms whose bitset
    meets it: |M| + n big-int operations, once per distinct model set."""
    theories = _theories_by_mask(logic.atoms)
    everything = (1 << len(theories)) - 1
    holding = dict.fromkeys(logic.interpretations, 0)
    for m, t in enumerate(theories):
        for i in logic.table[t]:
            holding[i] |= 1 << m
    # atom k holds in the masks whose bit k is set: over the 2^n positions,
    # 2^k zeros then 2^k ones, repeated, i.e. one such block times a repunit
    having = [
        ((1 << (1 << k)) - 1 << (1 << k)) * (everything // ((1 << (2 << k)) - 1))
        for k in range(len(logic.atoms))
    ]
    known: dict[frozenset[str], int] = {}
    cn = []  # Cn(t) as an atom mask, at t's mask
    for t in theories:
        models = logic.table[t]
        if models not in known:
            above = everything
            for i in models:
                above &= holding[i]
            known[models] = sum(1 << k for k, h in enumerate(having) if above & h)
        cn.append(known[models])
    increasing = all(m & ~c == 0 for m, c in enumerate(cn))
    # monotone on every one-atom step t ⊂ t ∪ {a}, hence on every t1 ⊆ t2
    steps = [1 << k for k in range(len(logic.atoms))]
    monotone = all(c & ~cn[m | b] == 0 for m, c in enumerate(cn) for b in steps)
    idempotent = all(cn[c] & ~c == 0 for c in cn)
    return {"increasing": increasing, "monotone": monotone, "idempotent": idempotent}


def galois_check(logic: FiniteLogic) -> bool:
    """Whether the model function forms a Galois correspondence with its
    canonical theory function. By the intersection theorem for finite logics this
    holds exactly when the intersection property does: O(|theories|) intersections."""
    return has_intersection_property(logic)


class RhoLogic(Record):
    _fields = ("universe", "sigma", "kernel_id", "afs", "rho_prime")

    def __init__(
        self,
        universe: tuple[str, ...],
        sigma: str,
        kernel_id: str,
        afs: tuple[AF, ...],
        rho_prime: Mapping[AF, frozenset[AF]],
    ):
        d = self.__dict__
        d["universe"] = universe
        d["sigma"] = sigma
        d["kernel_id"] = kernel_id
        d["afs"] = afs
        d["rho_prime"] = rho_prime

    def __hash__(self) -> int:
        # the dict rho_prime takes part in == but not in the hash
        return hash((self.universe, self.sigma, self.kernel_id, self.afs))


def _attack_slot_bits(names: tuple[str, ...]) -> dict[tuple[str, str], int]:
    """Bit n + n·i + j for the attack (names[i], names[j]): in a slot mask the
    n argument bits lie below every attack bit."""
    n = len(names)
    return {(x, y): 1 << n + n * i + j for i, x in enumerate(names) for j, y in enumerate(names)}


def _afs_with_slot_masks(names: tuple[str, ...]):
    """Every framework over the sorted, checked names, each with its slot mask: bit i for
    argument names[i], and `_attack_slot_bits` for its attacks. Argument subsets
    by size, then attack sets by size, each in combination order."""
    slot_bit = _attack_slot_bits(names)
    for r in range(len(names) + 1):
        for picked in itertools.combinations(range(len(names)), r):
            args = [names[i] for i in picked]
            base = sum(1 << i for i in picked)
            slots = [((x, y), slot_bit[x, y]) for x in args for y in args]
            for n_att in range(len(slots) + 1):
                for chosen in itertools.combinations(slots, n_att):
                    yield AF._from_checked(args, [a for a, _ in chosen]), base + sum(b for _, b in chosen)


def rho_logic(universe: Iterable[str], sigma: str) -> RhoLogic:
    """Enumerate every framework over the universe and compute, for each one,
    the union of the strong equivalence classes of its superframeworks.
    Strong equivalence is decided by the characterizing kernel of sigma."""
    from .kernels import characterizing_kernel, kernel_attacks

    names = tuple(sorted(set(universe)))
    if len(names) > 3:
        raise AFError(f"rho-logic universe capped at 3 arguments, got {len(names)}")
    k = characterizing_kernel("E", sigma, "extension")
    if k is None:
        raise AFError(f"no expansion-equivalence kernel for semantics {sigma!r}")
    for name in names:  # in the order the frameworks first hold them
        check_arg_name(name)
    afs, masks = zip(*_afs_with_slot_masks(names))
    n = len(names)
    # a kernel keeps the arguments: its slot mask is f's argument bits with the kernel's attacks
    slot_bit = _attack_slot_bits(names)
    kernels = (
        (m & (1 << n) - 1) + sum(map(slot_bit.__getitem__, kernel_attacks(f, k))) for f, m in zip(afs, masks)
    )
    rho = dict(zip(afs, _up_classes(masks, kernels, afs, n + n * n)))
    return RhoLogic(names, sigma, k, afs, rho)
