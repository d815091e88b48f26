"""Neighborhood functions, verification classes, and semantics reconstruction.

A neighborhood function digests the range/anti-range pair of each conflict-free
set; the induced verification class is that digest for every conflict-free set
of a framework. Informativeness between classes is decided through a small
region model: relative to a pair (P, M) of sets, an element lives in exactly one
of four regions (only P, only M, both, neither), every basic function is a union
of regions, and a family of functions determines another function iff membership
is a function of the visible region signature.

Class data is computed on masks over one index. `verification_class` builds
each part as one column over the conflict-free sets of one `cf_masks` sweep,
from their attacked and attacking masks; `reduce_data` reads a less informative
class's parts off the source parts' masks by the same region model. The
frozenset `entries` are made only when a caller reads them.

`verify` recomputes extensions from those masks alone. Its own criteria are
only those of adm, com, sad and grd; nav, stg, stb, prf, semi, id and eag go
through `semantics.select`, the engine's own selection stage, applied to the
conflict-free or admissible sets the data shows. Two criteria check
one-argument extensions where the definitions range over all pairs of sets:
a set is complete iff it is admissible and no conflict-free s + a has all
its outside attackers in its range, and strongly admissible iff it is empty
or some s - a is and the step from s - a holds.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_, or_, xor
from typing import Iterable

from .config import EXACT_CLASS, VERIFIABLE_SEMANTICS, max_enum_args
from .core import AF, AFError, Record, bits, names_of
from .semantics import ExtensionSet, cf_masks, check_limit, check_semantics, extension_set, mask_key, select

# region codes: A = only first set, B = only second, C = both, D = neither
_REGIONS = "ABCD"

BASIC_REGIONS: dict[str, frozenset[str]] = {
    "+": frozenset("AC"),
    "-": frozenset("BC"),
    "±": frozenset("A"),
    "∓": frozenset("B"),
    "∩": frozenset("C"),
    "∪": frozenset("ABC"),
    "Δ": frozenset("AB"),
}

# the fifteen representatives and their component tuples
REPRESENTATIVES: dict[str, tuple[str, ...]] = {
    "ε": (),
    "+": ("+",),
    "-": ("-",),
    "±": ("±",),
    "∓": ("∓",),
    "∩": ("∩",),
    "∪": ("∪",),
    "Δ": ("Δ",),
    "+±": ("+", "±"),
    "+∓": ("+", "∓"),
    "±∓": ("±", "∓"),
    "∩∪": ("∩", "∪"),
    "−±": ("-", "±"),
    "−∓": ("-", "∓"),
    "+−": ("+", "-"),
}

CLASS_ALIASES: dict[str, str] = {
    "eps": "ε",
    "epsilon": "ε",
    "plus": "+",
    "minus": "-",
    "−": "-",
    "pm": "±",
    "mp": "∓",
    "cap": "∩",
    "cup": "∪",
    "delta": "Δ",
    "plus_pm": "+±",
    "+±": "+±",
    "plus_mp": "+∓",
    "pm_mp": "±∓",
    "cap_cup": "∩∪",
    "minus_pm": "−±",
    "-±": "−±",
    "minus_mp": "−∓",
    "-∓": "−∓",
    "plus_minus": "+−",
    "+-": "+−",
}


def parse_class(tag: str) -> str:
    name = CLASS_ALIASES.get(tag, tag)
    if name not in REPRESENTATIVES:
        raise AFError(f"unknown verification class: {tag!r}")
    return name


def _plan(source: tuple[str, ...], wanted: tuple[str, ...]):
    """How each wanted basic function reads off the source components: its
    regions, each as (components holding the region, components not holding
    it), which is the region's signature. None when the source does not
    determine some wanted function: a region outside it has the signature of
    a region inside it."""
    signature = {
        r: (
            tuple(k for k, c in enumerate(source) if r in BASIC_REGIONS[c]),
            tuple(k for k, c in enumerate(source) if r not in BASIC_REGIONS[c]),
        )
        for r in _REGIONS
    }
    plan = []
    for basic in wanted:
        inside = {signature[r] for r in BASIC_REGIONS[basic]}
        if inside & {signature[r] for r in _REGIONS if r not in BASIC_REGIONS[basic]}:
            return None
        plan.append(sorted(inside))
    return plan


def more_informative(x: str, y: str) -> bool:
    """Whether class x carries at least the information of class y."""
    return _plan(REPRESENTATIVES[parse_class(x)], REPRESENTATIVES[parse_class(y)]) is not None


def _apply_plan(plan, parts: tuple) -> tuple:
    """The wanted parts from the source parts, which are all frozensets or all
    masks: a region's elements lie in each part holding it and in no other
    (`x ^ (x & y)` removes y from x for either type)."""
    out = []
    for regions in plan:
        chunks = []
        for held, not_held in regions:
            x = reduce(and_, (parts[k] for k in held))
            for k in not_held:
                x ^= x & parts[k]
            chunks.append(x)
        out.append(reduce(or_, chunks))
    return tuple(out)


def neighborhood(x: str, s_plus: Iterable[str], s_minus: Iterable[str]) -> tuple[frozenset[str], ...]:
    """Apply the neighborhood function coordinate-wise to a (range, anti-range) pair."""
    plan = _plan(REPRESENTATIVES["+−"], REPRESENTATIVES[parse_class(x)])
    return _apply_plan(plan, (frozenset(s_plus), frozenset(s_minus)))


Entry = tuple[frozenset[str], tuple[frozenset[str], ...]]


class VerificationClassData(Record):
    """The digest of one verification class: per conflict-free set (`base`),
    the parts of its class function (`info`).

    The entries are held as (base, info) masks over one index of sorted
    names: the framework's arguments when built by `verification_class`,
    the names the entries mention when built by the constructor. The
    frozenset `entries` are made on first read and kept. Equality, hash,
    repr and pickling go by (class_id, entries)."""

    _fields = ("class_id", "entries")

    def __init__(self, class_id: str, entries: tuple[Entry, ...]):
        if class_id not in REPRESENTATIVES:
            raise AFError(f"class data needs a representative class id, got {class_id!r}")
        width = len(REPRESENTATIVES[class_id])
        names = tuple(sorted(set().union(*(b.union(*info) for b, info in entries))))
        bit = {a: 1 << i for i, a in enumerate(names)}

        def mask(s: frozenset[str]) -> int:
            return sum(map(bit.__getitem__, s))

        masks = []
        for base, info in entries:
            if len(info) != width:
                raise AFError(f"entry {sorted(base)} has {len(info)} parts, class {class_id} has {width}")
            masks.append((mask(base), tuple(map(mask, info))))
        d = self.__dict__
        d["class_id"] = class_id
        d["_names"] = names
        d["_masks"] = masks

    @classmethod
    def _of_masks(cls, class_id: str, names: tuple[str, ...], masks: list) -> "VerificationClassData":
        data = cls.__new__(cls)
        d = data.__dict__
        d["class_id"] = class_id
        d["_names"] = names
        d["_masks"] = masks
        return data

    @cached_property
    def entries(self) -> tuple[Entry, ...]:
        # one frozenset per distinct mask, shared by every part that names it
        names = self._names
        made = {m: names_of(names, m) for m in {x for b, info in self._masks for x in (b, *info)}}
        return tuple((made[b], tuple(map(made.__getitem__, info))) for b, info in self._masks)

    def info(self, s: frozenset[str]) -> tuple[frozenset[str], ...]:
        for base, info in self.entries:
            if base == s:
                return info
        raise AFError(f"no entry for {sorted(s)}")

    def __reduce__(self):
        return type(self), (self.class_id, self.entries)


# Each basic function as columns over the conflict-free sets m, given the
# columns of m, of the arguments m attacks (hit) and of those attacking m
# (hit_by): the range is m | hit, the anti-range m | hit_by, and m meets
# neither of the two, so only-range is hit - hit_by (`x ^ (x & y)` as in
# `_apply_plan`), only-anti-range hit_by - hit, and both m | (hit & hit_by).
_COLUMNS = {
    "+": lambda m, hit, hit_by: map(or_, m, hit),
    "-": lambda m, hit, hit_by: map(or_, m, hit_by),
    "±": lambda m, hit, hit_by: map(xor, hit, map(and_, hit, hit_by)),
    "∓": lambda m, hit, hit_by: map(xor, hit_by, map(and_, hit, hit_by)),
    "∩": lambda m, hit, hit_by: map(or_, m, map(and_, hit, hit_by)),
    "∪": lambda m, hit, hit_by: map(or_, m, map(or_, hit, hit_by)),
    "Δ": lambda m, hit, hit_by: map(xor, hit, hit_by),
}


def verification_class(f: AF, x: str) -> VerificationClassData:
    """One digest entry per conflict-free set of f, as masks over f's index,
    in extension order.

    `cf_masks` gives each set with its attacked and attacking arguments. The
    sets are put in order first, then each part of the class is built as one
    column over all of them (`_COLUMNS`), and the columns are zipped into the
    entries. `cf_masks` yields the sets of one size in the lexicographic order
    of their ascending indices, and f's names are sorted, so a stable sort by
    size is the order of `extension_key`. The sweep over the conflict-free
    sets is refused beyond the enumeration cap (see `semantics.check_limit`)."""
    name = parse_class(x)
    check_limit(f, f.full_mask, max_enum_args())
    sets = cf_masks(f)
    sets.sort(key=lambda s: s[0].bit_count())
    m, hit, hit_by = zip(*sets)
    parts = [_COLUMNS[c](m, hit, hit_by) for c in REPRESENTATIVES[name]]
    entries = list(zip(m, zip(*parts) if parts else [()] * len(m)))
    return VerificationClassData._of_masks(name, f.names, entries)


class InsufficientClassError(AFError):
    """The supplied class data carries too little information for the semantics."""


def reduce_data(data: VerificationClassData, target: str) -> VerificationClassData:
    """Re-express class data in a (weakly) less informative class: each
    target part is the union of its regions, read off the source parts'
    masks. Data already in the target class is returned as it is."""
    target_name = parse_class(target)
    if target_name == data.class_id:
        return data
    # a plan exists only when no target region has the neither-region's
    # all-absent signature, so every region is read off at least one source
    # part and unseen elements are correctly dropped
    plan = _plan(REPRESENTATIVES[data.class_id], REPRESENTATIVES[target_name])
    if plan is None:
        raise InsufficientClassError(f"class {data.class_id} cannot be reduced to {target_name}")
    return VerificationClassData._of_masks(
        target_name, data._names, [(base, _apply_plan(plan, info)) for base, info in data._masks]
    )


def exact_class(sigma: str) -> str:
    check_semantics(sigma)
    if sigma not in EXACT_CLASS:
        raise AFError(f"no verification class for semantics {sigma!r}")
    return EXACT_CLASS[sigma]


# -- criteria ------------------------------------------------------------------
#
# The class data's own criteria are only those of adm, com, sad and grd. Each
# reads the data as masks over one index: `entries` is a list of (base, info)
# with info the masks of the exact class's components, and `args` is the
# argument mask. The other seven semantics apply `semantics.select`, the
# engine's own selection stage, to a pool that meets its precondition: every
# conflict-free set for nav, stg and stb, and the admissible sets for prf,
# semi, id and eag, with ranges read off the `+` part.


def _gamma_adm(entries, args):
    return [b for b, info in entries if not info[-1]]  # last component is the ∓ part


def _gamma_sad(entries, args):
    """Chain criterion: a set is reachable when, step by step, the attackers new
    to the step lie inside the previous set's attacked-and-unattacking digest.
    A step from t to a conflict-free b splits into one-argument steps: t ->
    t + a meets the criterion for any a in b - t, and so does t + a -> b, as no
    member of b attacks b. So b is reachable iff it is empty or, for some a in
    b, b - a is reachable and the step from it holds. b - a is a smaller
    integer, so one ascending pass decides it first."""
    digest = {b: (anti & ~b, pm) for b, (anti, pm) in entries}
    # each reachable set -> its digest, in which the attackers new to a step
    # from it must lie
    reachable: dict[int, int] = {}
    for b in sorted(digest):
        attackers, pm = digest[b]
        rest, ok = b, b == 0
        while rest and not ok:
            low = rest & -rest
            rest ^= low
            cover = reachable.get(b ^ low)
            ok = cover is not None and not attackers & ~cover
        if ok:
            reachable[b] = attackers | pm
    return list(reachable)


def _gamma_grd(entries, args):
    # the one set containing every strongly admissible set, if there is one
    sad = _gamma_sad(entries, args)
    top = reduce(or_, sad, 0)
    return [top] if top in sad else []


def _gamma_com(entries, args):
    """Admissible sets s such that no conflict-free proper superset o has all
    its outside attackers in the range of s. Checking o = s + a, for each a
    outside s, suffices: for a in o, no member of o attacks s + a, so the
    outside attackers of s + a are among those of o."""
    attackers = {b: minus & ~b for b, (_, minus) in entries}
    universe = reduce(or_, attackers, 0)

    def complete(s: int, plus: int) -> bool:
        if attackers[s] & ~plus:
            return False
        for i in bits(universe & ~s):
            grown = attackers.get(s | 1 << i)
            if grown is not None and grown & ~plus == 0:
                return False
        return True

    return [s for s, (plus, _) in entries if complete(s, plus)]


_GAMMA = {
    "adm": _gamma_adm,
    "sad": _gamma_sad,
    "grd": _gamma_grd,
    "com": _gamma_com,
}


def verify(sigma: str, data: VerificationClassData, args: Iterable[str]) -> ExtensionSet:
    """Re-derive the sigma-extensions from class data at least as informative as
    the exact class of sigma. The criteria run on the data's masks, over its
    index extended by the arguments of `args` it does not hold."""
    needed = exact_class(sigma)
    try:
        reduced = reduce_data(data, needed)
    except InsufficientClassError:
        raise InsufficientClassError(f"semantics {sigma} needs class {needed}, got {data.class_id}") from None
    names, entries = reduced._names, reduced._masks
    index = {a: i for i, a in enumerate(names)}
    args = set(args)
    extra = sorted(args.difference(index))
    index.update((a, i) for i, a in enumerate(extra, len(names)))
    names = (*names, *extra)
    within = sum(1 << index[a] for a in args)
    if sigma in _GAMMA:
        result = _GAMMA[sigma](entries, within)
    else:
        parts = REPRESENTATIVES[needed]
        pool = _gamma_adm(entries, within) if "∓" in parts else [b for b, _ in entries]
        # ε has no parts and the ∓ class's only part is not a range
        in_range = {b: info[0] for b, info in entries}.get if "+" in parts else None
        result = select(sigma, pool, in_range, within)
    # the public constructor keeps its entries in the caller's order, repeats
    # included, so even the filters of the entries are put in order here
    return extension_set(names, sorted(set(result), key=mask_key))
