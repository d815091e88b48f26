"""Neighborhood functions, verification classes, and semantics reconstruction.

A neighborhood function digests the range/anti-range pair of each conflict-free
set; the induced verification class is that digest for every conflict-free set
of a framework. Informativeness between classes is decided through a small
region model: relative to a pair (P, M) of sets, an element lives in exactly one
of four regions (only P, only M, both, neither), every basic function is a union
of regions, and a family of functions determines another function iff membership
is a function of the visible region signature. That model also yields the data
reductions used when a semantics is re-derived from a more informative class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import AF, AFError, anti_range, range_of
from .semantics import (
    ExtensionSet,
    check_semantics,
    cf_masks,
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


def _apply_basic(basic: str, p: frozenset[str], m: frozenset[str]) -> frozenset[str]:
    if basic == "+":
        return p
    if basic == "-":
        return m
    if basic == "±":
        return p - m
    if basic == "∓":
        return m - p
    if basic == "∩":
        return p & m
    if basic == "∪":
        return p | m
    if basic == "Δ":
        return (p | m) - (p & m)
    raise AFError(f"unknown basic neighborhood function: {basic!r}")


def neighborhood(x: str, s_plus: Iterable[str], s_minus: Iterable[str]) -> tuple[frozenset[str], ...]:
    """Apply the neighborhood function coordinate-wise to a (range, anti-range) pair."""
    name = parse_class(x)
    p = frozenset(s_plus)
    m = frozenset(s_minus)
    return tuple(_apply_basic(b, p, m) for b in REPRESENTATIVES[name])


Entry = tuple[frozenset[str], tuple[frozenset[str], ...]]


@dataclass(frozen=True)
class VerificationClassData:
    class_id: str
    entries: tuple[Entry, ...]

    def info(self, s: frozenset[str]) -> tuple[frozenset[str], ...]:
        for base, info in self.entries:
            if base == s:
                return info
        raise AFError(f"no entry for {sorted(s)}")


def verification_class(f: AF, x: str) -> VerificationClassData:
    """One digest entry per conflict-free set of f."""
    name = parse_class(x)
    entries = []
    for mask in cf_masks(f):
        s = f.set_of(mask)
        entries.append((s, neighborhood(name, range_of(f, s), anti_range(f, s))))
    entries.sort(key=lambda e: extension_key(e[0]))
    return VerificationClassData(name, tuple(entries))


class InsufficientClassError(AFError):
    """The supplied class data carries too little information for the semantics."""


def reduce_data(data: VerificationClassData, target: str) -> VerificationClassData:
    """Re-express class data in a (weakly) less informative class via element
    signature classification."""
    target_name = parse_class(target)
    source = REPRESENTATIVES[data.class_id]
    wanted = REPRESENTATIVES[target_name]
    if not more_informative(data.class_id, target_name):
        raise InsufficientClassError(
            f"class {data.class_id} cannot be reduced to {target_name}"
        )
    # Map each visible region signature to target membership. The
    # more_informative check above guarantees this is a function; in
    # particular the all-absent signature (the neither-region) never lands
    # in the target, so unseen elements are correctly dropped.
    tables = []
    for basic in wanted:
        table: dict[tuple[bool, ...], bool] = {}
        for region in _REGIONS:
            table[_signature(source, region)] = region in BASIC_REGIONS[basic]
        tables.append(table)
    new_entries = []
    for base, info in data.entries:
        elements: set[str] = set()
        for part in info:
            elements |= part
        new_info = []
        for table in tables:
            new_info.append(
                frozenset(
                    e
                    for e in elements
                    if table[tuple(e in info[i] for i in range(len(source)))]
                )
            )
        new_entries.append((base, tuple(new_info)))
    return VerificationClassData(target_name, tuple(new_entries))


EXACT_CLASS: dict[str, str] = {
    "nav": "ε",
    "stb": "+",
    "stg": "+",
    "adm": "∓",
    "prf": "∓",
    "id": "∓",
    "semi": "+∓",
    "eag": "+∓",
    "grd": "−±",
    "sad": "−±",
    "com": "+−",
}

VERIFIABLE_SEMANTICS = tuple(EXACT_CLASS)


def exact_class(sigma: str) -> str:
    check_semantics(sigma)
    if sigma not in EXACT_CLASS:
        raise AFError(f"no verification class for semantics {sigma!r}")
    return EXACT_CLASS[sigma]


# -- criteria ------------------------------------------------------------------


def _maximal_sets(sets, key=None) -> list[frozenset[str]]:
    """The sets whose key (default: the set itself) is ⊂-maximal among all keys."""
    keys = [key(s) if key else s for s in sets]
    return [s for s, k in zip(sets, keys) if not any(k < o for o in keys)]


def _greatest_adm_below_meet(entries, args, tops):
    bound = args
    for s in tops:
        bound &= s
    return _maximal_sets([s for s in _gamma_adm(entries, args) if s <= bound])


def _gamma_nav(entries, args):
    bases = [b for b, _ in entries]
    return _maximal_sets(bases)


def _gamma_stb(entries, args):
    return [b for b, info in entries if info[0] == args]


def _gamma_stg(entries, args):
    ranges = {b: info[0] for b, info in entries}
    return _maximal_sets(list(ranges), ranges.get)


def _gamma_adm(entries, args):
    return [b for b, info in entries if not info[-1]]  # last component is the ∓ part


def _gamma_prf(entries, args):
    return _maximal_sets(_gamma_adm(entries, args))


def _gamma_id(entries, args):
    return _greatest_adm_below_meet(entries, args, _gamma_prf(entries, args))


def _gamma_semi(entries, args):
    adm = set(_gamma_adm(entries, args))
    ranges = {b: info[0] for b, info in entries if b in adm}
    return _maximal_sets(list(ranges), ranges.get)


def _gamma_eag(entries, args):
    return _greatest_adm_below_meet(entries, args, _gamma_semi(entries, args))


def _gamma_sad(entries, args):
    """Chain criterion: a set is reachable when, step by step, the attackers new
    to the step lie inside the previous set's attacked-and-unattacking digest."""
    anti = {b: info[0] for b, info in entries}
    pm = {b: info[1] for b, info in entries}
    attackers = {b: anti[b] - b for b in anti}
    bases = sorted(anti, key=extension_key)
    reachable: set[frozenset[str]] = {frozenset()} if frozenset() in anti else set()
    changed = True
    while changed:
        changed = False
        for b in bases:
            if b in reachable:
                continue
            for t in reachable:
                if t < b and (attackers[b] - attackers[t]) <= pm[t]:
                    reachable.add(b)
                    changed = True
                    break
    return sorted(reachable, key=extension_key)


def _gamma_grd(entries, args):
    sad = _gamma_sad(entries, args)
    return [s for s in sad if all(t <= s for t in sad)]


def _gamma_com(entries, args):
    ranges = {b: info[0] for b, info in entries}
    anti = {b: info[1] for b, info in entries}
    attackers = {b: anti[b] - b for b in anti}
    admissible = [b for b in ranges if not attackers[b] - ranges[b]]
    out = []
    for s in admissible:
        if all(attackers[o] - ranges[s] for o in ranges if s < o):
            out.append(s)
    return out


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
    result = _GAMMA[sigma](list(reduced.entries), frozenset(args))
    return sort_extensions(result)
