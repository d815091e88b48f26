"""Extension and labelling enumeration for every supported semantics.

Every semantics is computed from bitmasks over the one input framework. The
enumerator walks conflict-free candidate sets only (supersets of a
conflicting pair are pruned at the search-tree level), which keeps the sweep
feasible even when a framework carries many self-attacking helper arguments.
Each filter stage (admissible, complete, ⊆- or range-maximal) runs at most
once per call. cf2 and stg2 follow SCC-recursiveness (Baroni, Giacomin &
Guida 2005) over sub-masks of the same framework: no subframework is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import config
from .core import AF, AFError, bits, scc_masks

SEMANTICS = (
    "cf",
    "nav",
    "adm",
    "com",
    "grd",
    "stb",
    "stg",
    "semi",
    "prf",
    "id",
    "eag",
    "sad",
    "cf2",
    "stg2",
)

# Semantics whose labellings are in one-to-one correspondence with extensions
# via E -> (E, E+, A \ E-plus).
LABELLING_SEMANTICS = ("stb", "semi", "eag", "prf", "id", "grd", "com")

ExtensionSet = tuple[frozenset[str], ...]


class EnumerationLimitError(AFError):
    """Framework exceeds the exhaustive-enumeration argument cap."""


class UnknownSemanticsError(AFError):
    pass


def check_semantics(tag: str) -> str:
    if tag not in SEMANTICS:
        raise UnknownSemanticsError(f"unknown semantics: {tag!r}")
    return tag


def extension_key(e: frozenset[str]):
    return (len(e), tuple(sorted(e)))


def sort_extensions(sets: Iterable[frozenset[str]]) -> ExtensionSet:
    return tuple(sorted(set(sets), key=extension_key))


@dataclass(frozen=True)
class Labelling:
    in_set: frozenset[str]
    out_set: frozenset[str]
    undec_set: frozenset[str]

    def as_tuple(self):
        return (self.in_set, self.out_set, self.undec_set)


# -- conflict-free candidate sweep --------------------------------------------


def cf_masks(f: AF, within: int | None = None) -> list[int]:
    """All conflict-free subsets of the mask `within` (default: every
    argument) as bitmasks.

    Backtracks over non-self-attacking arguments; including an argument bans
    its attackers and targets for the rest of the branch.
    """
    if within is None:
        within = f.full_mask
    free = [i for i in bits(within) if not (f.succ[i] >> i) & 1]
    out = [0]

    def walk(pos: int, current: int, banned: int) -> None:
        for k in range(pos, len(free)):
            i = free[k]
            bit = 1 << i
            if banned & bit:
                continue
            nxt = current | bit
            out.append(nxt)
            walk(k + 1, nxt, banned | f.succ[i] | f.pred[i])

    walk(0, 0, 0)
    return out


def _check_limit(f: AF) -> None:
    # Self-attacking arguments never enter a conflict-free set, so the subset
    # sweep is exponential only in the non-self-attacking arguments.
    cap = config.max_enum_args()
    relevant = f.n - bin(f.loops_mask()).count("1")
    if relevant > cap:
        raise EnumerationLimitError(
            f"framework has {relevant} non-self-attacking arguments, exceeding the "
            f"enumeration cap of {cap} (raise {config.ENV_MAX_ARGS} to override)"
        )


def _maximal(masks: list[int], key: Callable[[int], int] | None = None) -> list[int]:
    """The masks whose key (default: the mask itself) is ⊆-maximal among all
    keys. A strict superset is a larger integer, so in descending key order
    each key only needs comparing with the maximal keys kept so far."""
    top: list[int] = []
    out = []
    for k, m in sorted(((key(m) if key else m, m) for m in masks), reverse=True):
        if all(k == t or k | t != t for t in top):
            out.append(m)
            if not top or top[-1] != k:
                top.append(k)
    return out


def _is_admissible(f: AF, m: int) -> bool:
    return f.attackers_of_mask(m) & ~f.attacked_by_mask(m) == 0


def _characteristic(f: AF, m: int) -> int:
    """Gamma(m): everything defended by m."""
    attacked = f.attacked_by_mask(m)
    out = 0
    for i in range(f.n):
        if f.pred[i] & ~attacked == 0:
            out |= 1 << i
    return out


def _grounded_trace(f: AF) -> list[int]:
    """The characteristic iteration from the empty set up to its fixpoint, the
    grounded extension (the repeat itself is not recorded)."""
    trace = [0]
    while True:
        nxt = _characteristic(f, trace[-1])
        if nxt == trace[-1]:
            return trace
        trace.append(nxt)


def _adm_masks(f: AF) -> list[int]:
    return [m for m in cf_masks(f) if _is_admissible(f, m)]


def _sad_masks(f: AF) -> list[int]:
    """Strongly admissible sets via the layered construction: start from the
    unattacked arguments and repeatedly adjoin any arguments defended so far."""
    known = {0}
    frontier = [0]
    while frontier:
        m = frontier.pop()
        fresh = _characteristic(f, m) & ~m
        if not fresh:
            continue
        addable = list(bits(fresh))
        for sub in range(1, 1 << len(addable)):
            ext = m
            for j in bits(sub):
                ext |= 1 << addable[j]
            if ext not in known:
                known.add(ext)
                frontier.append(ext)
    return sorted(known)


def _scc_recursive_masks(f: AF, stage: bool) -> list[int]:
    """cf2 (naive base) or stg2 (stage base) over sub-masks of f: e is an
    extension of the subframework on `sub` iff, for every component s of
    `sub`, e & s is an extension of the subframework on the part of s that
    e outside s does not attack (UP). A single component takes the base
    semantics. Components and base extensions are memoised per sub-mask."""
    everything = cf_masks(f)
    comps_of: dict[int, list[int]] = {}
    base_of: dict[int, set[int]] = {}

    def base(sub: int) -> set[int]:
        if sub not in base_of:
            key = (lambda m: (m | f.attacked_by_mask(m)) & sub) if stage else None
            sweep = everything if sub == f.full_mask else cf_masks(f, sub)
            base_of[sub] = set(_maximal(sweep, key))
        return base_of[sub]

    def member(sub: int, e: int) -> bool:
        if sub not in comps_of:
            comps_of[sub] = scc_masks(f, sub)
        comps = comps_of[sub]
        if len(comps) <= 1:
            return e in base(sub)
        for s in comps:
            up = s & ~f.attacked_by_mask(e & ~s)
            part = e & s
            if part & ~up or not member(up, part):
                return False
        return True

    return [m for m in everything if member(f.full_mask, m)]


def extensions(f: AF, sigma: str) -> ExtensionSet:
    """All sigma-extensions of f, ordered by size then lexicographically."""
    check_semantics(sigma)
    _check_limit(f)

    def in_range(m: int) -> int:
        return m | f.attacked_by_mask(m)

    if sigma == "cf":
        masks = cf_masks(f)
    elif sigma == "nav":
        masks = _maximal(cf_masks(f))
    elif sigma == "stg":
        masks = _maximal(cf_masks(f), in_range)
    elif sigma == "stb":
        masks = [m for m in cf_masks(f) if in_range(m) == f.full_mask]
    elif sigma == "adm":
        masks = _adm_masks(f)
    elif sigma == "semi":
        masks = _maximal(_adm_masks(f), in_range)
    elif sigma == "com":
        masks = [m for m in _adm_masks(f) if _characteristic(f, m) == m]
    elif sigma == "prf":
        masks = _maximal(_adm_masks(f))
    elif sigma == "grd":
        masks = _grounded_trace(f)[-1:]
    elif sigma in ("id", "eag"):
        # The greatest admissible set inside the meet of the preferred
        # (semi-stable) extensions. It is unique and complete.
        adm = _adm_masks(f)
        bound = f.full_mask
        for m in _maximal(adm, None if sigma == "id" else in_range):
            bound &= m
        masks = _maximal([m for m in adm if m & ~bound == 0])
    elif sigma == "sad":
        masks = _sad_masks(f)
    elif sigma in ("cf2", "stg2"):
        masks = _scc_recursive_masks(f, stage=sigma == "stg2")
    else:  # pragma: no cover
        raise UnknownSemanticsError(sigma)
    return sort_extensions(f.set_of(m) for m in masks)


def grounded_iteration(f: AF) -> tuple[frozenset[str], list[frozenset[str]]]:
    """The grounded extension together with the iteration trace
    (empty set, then each new value of the characteristic function, up to the
    fixpoint; the repeat itself is not recorded)."""
    trace = _grounded_trace(f)
    return f.set_of(trace[-1]), [f.set_of(m) for m in trace]


def strongly_admissible(f: AF) -> ExtensionSet:
    """All strongly admissible sets (layered construction)."""
    return extensions(f, "sad")


def labelling_of(f: AF, e: frozenset[str]) -> Labelling:
    m = f.mask_of(e)
    plus = f.attacked_by_mask(m)
    return Labelling(frozenset(e), f.set_of(plus), f.set_of(f.full_mask & ~(m | plus)))


def labellings(f: AF, sigma: str) -> tuple[Labelling, ...]:
    """sigma-labellings, one per extension, for the one-to-one family."""
    check_semantics(sigma)
    if sigma not in LABELLING_SEMANTICS:
        raise AFError(
            f"labellings are only supported for {', '.join(LABELLING_SEMANTICS)}; got {sigma!r}"
        )
    return tuple(labelling_of(f, e) for e in extensions(f, sigma))
