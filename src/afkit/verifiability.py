"""Neighborhood functions, verification classes, and semantics reconstruction.

A neighborhood function digests the range/anti-range pair of each conflict-free
set; the induced verification class is that digest for every conflict-free set
of a framework. Informativeness between classes is decided through a small
region model: relative to a pair (P, M) of sets, an element lives in exactly one
of four regions (only P, only M, both, neither), every basic function is a union
of regions, and a family of functions determines another function iff membership
is a function of the visible region signature. The same model computes both the
neighborhoods (read off the range/anti-range pair) and the data reductions used
when a semantics is re-derived from a more informative class; the criteria run
on masks over the elements of the class data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable

from .config import EXACT_CLASS, VERIFIABLE_SEMANTICS
from .core import AF, AFError, bits
from .semantics import (
    ExtensionSet,
    _greatest_below_meet,
    _maximal,
    cf_masks,
    check_semantics,
    extension_key,
    sort_extensions,
)

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


def _signature(components: tuple[str, ...], region: str) -> tuple[bool, ...]:
    return tuple(region in BASIC_REGIONS[c] for c in components)


def _derives(components: tuple[str, ...], basic: str) -> bool:
    """Do the given components determine the basic function?"""
    sig_to_member: dict[tuple[bool, ...], bool] = {}
    for region in _REGIONS:
        member = region in BASIC_REGIONS[basic] if basic in BASIC_REGIONS else False
        sig = _signature(components, region)
        if sig in sig_to_member and sig_to_member[sig] != member:
            return False
        sig_to_member[sig] = member
    return True


def more_informative(x: str, y: str) -> bool:
    """Whether class x carries at least the information of class y."""
    xs = REPRESENTATIVES[parse_class(x)]
    ys = REPRESENTATIVES[parse_class(y)]
    return all(_derives(xs, b) for b in ys)


def _plan(source: tuple[str, ...], wanted: tuple[str, ...]):
    """How each wanted basic function reads off the source components: its
    regions, each as (components holding the region, components not holding
    it). Exact when the source derives every wanted function."""
    return [
        sorted({
            (
                tuple(k for k, c in enumerate(source) if region in BASIC_REGIONS[c]),
                tuple(k for k, c in enumerate(source) if region not in BASIC_REGIONS[c]),
            )
            for region in BASIC_REGIONS[basic]
        })
        for basic in wanted
    ]


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


@dataclass(frozen=True)
class VerificationClassData:
    class_id: str
    entries: tuple[Entry, ...]

    def __post_init__(self):
        if self.class_id not in REPRESENTATIVES:
            raise AFError(f"class data needs a representative class id, got {self.class_id!r}")
        width = len(REPRESENTATIVES[self.class_id])
        for base, info in self.entries:
            if len(info) != width:
                raise AFError(f"entry {sorted(base)} has {len(info)} parts, class {self.class_id} has {width}")

    def info(self, s: frozenset[str]) -> tuple[frozenset[str], ...]:
        for base, info in self.entries:
            if base == s:
                return info
        raise AFError(f"no entry for {sorted(s)}")


def verification_class(f: AF, x: str) -> VerificationClassData:
    """One digest entry per conflict-free set of f."""
    name = parse_class(x)
    plan = _plan(REPRESENTATIVES["+−"], REPRESENTATIVES[name])
    entries = []
    for m in cf_masks(f):
        pair = (m | f.attacked_by_mask(m), m | f.attackers_of_mask(m))
        entries.append((f.set_of(m), tuple(map(f.set_of, _apply_plan(plan, pair)))))
    entries.sort(key=lambda e: extension_key(e[0]))
    return VerificationClassData(name, tuple(entries))


class InsufficientClassError(AFError):
    """The supplied class data carries too little information for the semantics."""


def reduce_data(data: VerificationClassData, target: str) -> VerificationClassData:
    """Re-express class data in a (weakly) less informative class: each
    target part is the union of its regions, read off the source parts."""
    target_name = parse_class(target)
    if not more_informative(data.class_id, target_name):
        raise InsufficientClassError(
            f"class {data.class_id} cannot be reduced to {target_name}"
        )
    # more_informative guarantees that no target region has the neither-
    # region's all-absent signature, so every region is read off at least
    # one source part and unseen elements are correctly dropped.
    plan = _plan(REPRESENTATIVES[data.class_id], REPRESENTATIVES[target_name])
    entries = tuple((base, _apply_plan(plan, info)) for base, info in data.entries)
    return VerificationClassData(target_name, entries)


def exact_class(sigma: str) -> str:
    check_semantics(sigma)
    if sigma not in EXACT_CLASS:
        raise AFError(f"no verification class for semantics {sigma!r}")
    return EXACT_CLASS[sigma]


# -- criteria ------------------------------------------------------------------
#
# Each criterion reads the class data as masks over one index: `entries` is a
# list of (base, info) with info the masks of the exact class's components,
# and `args` is the argument mask.


def _gamma_nav(entries, args):
    return _maximal([b for b, _ in entries])


def _gamma_stb(entries, args):
    return [b for b, info in entries if info[0] == args]


def _gamma_stg(entries, args):
    ranges = {b: info[0] for b, info in entries}
    return _maximal(list(ranges), ranges.get)


def _gamma_adm(entries, args):
    return [b for b, info in entries if not info[-1]]  # last component is the ∓ part


def _gamma_prf(entries, args):
    return _maximal(_gamma_adm(entries, args))


def _gamma_id(entries, args):
    adm = _gamma_adm(entries, args)
    return _greatest_below_meet(adm, _maximal(adm), args)


def _gamma_semi(entries, args):
    adm = set(_gamma_adm(entries, args))
    ranges = {b: info[0] for b, info in entries if b in adm}
    return _maximal(list(ranges), ranges.get)


def _gamma_eag(entries, args):
    return _greatest_below_meet(_gamma_adm(entries, args), _gamma_semi(entries, args), args)


def _gamma_sad(entries, args):
    """Chain criterion: a set is reachable when, step by step, the attackers new
    to the step lie inside the previous set's attacked-and-unattacking digest.
    A strict subset is a smaller integer, so one ascending pass decides every
    set after all its possible predecessors."""
    digest = {b: (anti & ~b, pm) for b, (anti, pm) in entries}
    reachable: list[int] = []
    for b in sorted(digest):
        attackers = digest[b][0]
        if b == 0 or any(
            t & ~b == 0 and attackers & ~digest[t][0] & ~digest[t][1] == 0 for t in reachable
        ):
            reachable.append(b)
    return reachable


def _gamma_grd(entries, args):
    sad = _gamma_sad(entries, args)
    return [s for s in sad if all(t & ~s == 0 for t in sad)]


def _gamma_com(entries, args):
    digest = {b: (plus, minus & ~b) for b, (plus, minus) in entries}
    return [
        s
        for s, (plus, attackers) in digest.items()
        if attackers & ~plus == 0
        and all(a & ~plus for o, (_, a) in digest.items() if o != s and s & ~o == 0)
    ]


_GAMMA = {
    "nav": _gamma_nav,
    "stb": _gamma_stb,
    "stg": _gamma_stg,
    "adm": _gamma_adm,
    "prf": _gamma_prf,
    "id": _gamma_id,
    "semi": _gamma_semi,
    "eag": _gamma_eag,
    "sad": _gamma_sad,
    "grd": _gamma_grd,
    "com": _gamma_com,
}


def verify(sigma: str, data: VerificationClassData, args: Iterable[str]) -> ExtensionSet:
    """Re-derive the sigma-extensions from class data at least as informative as
    the exact class of sigma."""
    needed = exact_class(sigma)
    if not more_informative(data.class_id, needed):
        raise InsufficientClassError(
            f"semantics {sigma} needs class {needed}, got {data.class_id}"
        )
    reduced = reduce_data(data, needed)
    args = frozenset(args)
    names = sorted(args.union(*(b.union(*info) for b, info in reduced.entries)))
    index = {a: i for i, a in enumerate(names)}

    def mask(s: frozenset[str]) -> int:
        return sum(1 << index[a] for a in s)

    entries = [(mask(b), tuple(map(mask, info))) for b, info in reduced.entries]
    result = _GAMMA[sigma](entries, mask(args))
    return sort_extensions(frozenset(names[i] for i in bits(m)) for m in result)
