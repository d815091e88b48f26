"""Extension and labelling enumeration for every supported semantics.

Every semantics is computed from bitmasks over one framework by
`extension_masks`, for the subframework on any sub-mask of its arguments
(attacks across the sub-mask's boundary are ignored), so callers never build
a subframework to evaluate one. The enumerator walks conflict-free candidate sets only (supersets of a
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
from .core import AF, AFError, Frame, bits, scc_masks

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


def cf_masks(f: Frame, within: int | None = None) -> list[int]:
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


def check_limit(f: Frame, within: int, cap: int) -> None:
    """Refuse the subframework on `within` when it has more than `cap`
    non-self-attacking arguments. Self-attacking arguments never enter a
    conflict-free set, so the subset sweep is exponential only in the rest."""
    relevant = bin(within & ~f.loops_mask()).count("1")
    if relevant > cap:
        raise EnumerationLimitError(
            f"framework has {relevant} non-self-attacking arguments, exceeding the "
            f"enumeration cap of {cap} (raise {config.ENV_MAX_ARGS} to override)"
        )


def check_labelling_semantics(sigma: str) -> str:
    if sigma not in LABELLING_SEMANTICS:
        raise AFError(
            f"labellings are only supported for {', '.join(LABELLING_SEMANTICS)}; got {sigma!r}"
        )
    return sigma


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


def _greatest_below_meet(adm: list[int], tops: list[int], within: int) -> list[int]:
    """The ⊆-maximal masks of adm inside the meet of tops (`within` when tops
    is empty). With adm the admissible sets and tops the preferred
    (semi-stable) extensions this is the ideal (eager) extension: unique and
    complete."""
    bound = within
    for m in tops:
        bound &= m
    return _maximal([m for m in adm if m & ~bound == 0])


def _characteristic(f: Frame, m: int, within: int) -> int:
    """Gamma(m): everything in `within` defended by m, i.e. not attacked from
    `within` by an argument that m does not attack."""
    return within & ~f.attacked_by_mask(within & ~f.attacked_by_mask(m))


def _grounded_trace(f: Frame, within: int) -> list[int]:
    """The characteristic iteration from the empty set up to its fixpoint, the
    grounded extension (the repeat itself is not recorded)."""
    trace = [0]
    while True:
        nxt = _characteristic(f, trace[-1], within)
        if nxt == trace[-1]:
            return trace
        trace.append(nxt)


def _adm_masks(f: Frame, within: int) -> list[int]:
    return [
        m
        for m in cf_masks(f, within)
        if f.attackers_of_mask(m) & within & ~f.attacked_by_mask(m) == 0
    ]


def _sad_masks(f: Frame, within: int) -> list[int]:
    """Strongly admissible sets via the layered construction: start from the
    unattacked arguments and repeatedly adjoin any arguments defended so far."""
    known = {0}
    frontier = [0]
    while frontier:
        m = frontier.pop()
        fresh = _characteristic(f, m, within) & ~m
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


def _scc_recursive_masks(f: Frame, stage: bool, within: int) -> list[int]:
    """cf2 (naive base) or stg2 (stage base) over sub-masks of `within`: e is
    an extension of the subframework on `sub` iff, for every component s of
    `sub`, e & s is an extension of the subframework on the part of s that
    e outside s does not attack (UP). A single component takes the base
    semantics. Components and base extensions are memoised per sub-mask."""
    everything = cf_masks(f, within)
    comps_of: dict[int, list[int]] = {}
    base_of: dict[int, set[int]] = {}

    def base(sub: int) -> set[int]:
        if sub not in base_of:
            key = (lambda m: (m | f.attacked_by_mask(m)) & sub) if stage else None
            sweep = everything if sub == within else cf_masks(f, sub)
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

    return [m for m in everything if member(within, m)]


def extension_masks(f: Frame, sigma: str, within: int) -> list[int]:
    """The sigma-extensions of the subframework of f on the arguments in the
    mask `within`, as masks in no particular order. Attacks crossing the
    boundary of `within` are ignored. No enumeration cap is applied."""

    def in_range(m: int) -> int:
        return (m | f.attacked_by_mask(m)) & within

    if sigma == "cf":
        return cf_masks(f, within)
    if sigma == "nav":
        return _maximal(cf_masks(f, within))
    if sigma == "stg":
        return _maximal(cf_masks(f, within), in_range)
    if sigma == "stb":
        return [m for m in cf_masks(f, within) if in_range(m) == within]
    if sigma == "adm":
        return _adm_masks(f, within)
    if sigma == "semi":
        return _maximal(_adm_masks(f, within), in_range)
    if sigma == "com":
        return [m for m in _adm_masks(f, within) if _characteristic(f, m, within) == m]
    if sigma == "prf":
        return _maximal(_adm_masks(f, within))
    if sigma == "grd":
        return _grounded_trace(f, within)[-1:]
    if sigma in ("id", "eag"):
        adm = _adm_masks(f, within)
        return _greatest_below_meet(adm, _maximal(adm, None if sigma == "id" else in_range), within)
    if sigma == "sad":
        return _sad_masks(f, within)
    if sigma in ("cf2", "stg2"):
        return _scc_recursive_masks(f, sigma == "stg2", within)
    raise UnknownSemanticsError(f"unknown semantics: {sigma!r}")


def extensions(f: AF, sigma: str) -> ExtensionSet:
    """All sigma-extensions of f, ordered by size then lexicographically."""
    check_semantics(sigma)
    check_limit(f, f.full_mask, config.max_enum_args())
    return sort_extensions(f.set_of(m) for m in extension_masks(f, sigma, f.full_mask))


def grounded_iteration(f: AF) -> tuple[frozenset[str], list[frozenset[str]]]:
    """The grounded extension together with the iteration trace
    (empty set, then each new value of the characteristic function, up to the
    fixpoint; the repeat itself is not recorded)."""
    trace = _grounded_trace(f, f.full_mask)
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
    check_labelling_semantics(check_semantics(sigma))
    return tuple(labelling_of(f, e) for e in extensions(f, sigma))
