"""Extension-set analysis, signature decisions, canonical realizing frameworks,
and the compact/analytic classification of frameworks.

Candidate extension-sets are plain collections of argument sets. The structural
predicates (tight, incomparable, conflict-sensitive, downward-closed) decide
membership in the finite signatures. Those that ask which arguments occur
jointly, like the canonical framework and the implicit conflicts, index the
candidate over its own sorted arguments and read each argument's joint-with
mask. Where only necessary conditions are known (the compact and analytic
variants of some semantics) the verdict says so explicitly instead of
pretending to decide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .config import CLASSIFIABLE_SEMANTICS, SIGNATURE_SEMANTICS, max_enum_args
from .core import AF, AFError, bits
from .semantics import ExtensionSet, check_semantics, extension_masks, extensions, sort_extensions

VARIANTS = ("finite", "finite_compact", "finite_analytic")

BLOCKER_PREFIX = "_bE"
DEFENSE_PREFIX = "_alpha_"
MIRROR_PREFIX = "_m_"


def normalize_candidate(sets: Iterable[Iterable[str]]) -> ExtensionSet:
    return sort_extensions(frozenset(s) for s in sets)


def args_of(sets: ExtensionSet) -> frozenset[str]:
    out: set[str] = set()
    for s in sets:
        out |= s
    return frozenset(out)


def _joint_with(masks: Iterable[int], n: int) -> list[int]:
    """Per index below n, the mask of the indices occurring in a set with it
    (itself included, if it occurs at all). The relation is symmetric."""
    joint = [0] * n
    for m in masks:
        for i in bits(m):
            joint[i] |= m
    return joint


def _index(sets: ExtensionSet) -> tuple[list[str], list[int], list[int], int]:
    """A candidate on its own index: its arguments in sorted order, each set
    as a mask, each argument's joint-with mask, and the mask of all of them."""
    names = sorted(args_of(sets))
    index = {a: i for i, a in enumerate(names)}
    masks = [sum(1 << index[a] for a in s) for s in sets]
    return names, masks, _joint_with(masks, len(names)), (1 << len(names)) - 1


def _common(m: int, joint: list[int], full: int) -> int:
    """The arguments occurring jointly with every member of m: by symmetry,
    the meet of the members' joint-with masks (all of full for m = 0)."""
    for i in bits(m):
        full &= joint[i]
    return full


def pairs_of(sets: ExtensionSet) -> frozenset[frozenset[str]]:
    """Unordered pairs of jointly occurring arguments (singletons stand for (a,a))."""
    names, _, joint, _ = _index(sets)
    return frozenset(
        frozenset((a, names[j])) for i, a in enumerate(names) for j in bits(joint[i] >> i << i)
    )


def downward_closure(sets: ExtensionSet) -> ExtensionSet:
    out: set[frozenset[str]] = set()
    for s in sets:
        members = sorted(s)
        for size in range(len(members) + 1):
            for combo in itertools.combinations(members, size):
                out.add(frozenset(combo))
    return sort_extensions(out)


def is_incomparable(sets: ExtensionSet) -> bool:
    return not any(a < b for a in sets for b in sets)


def is_downward_closed(sets: ExtensionSet) -> bool:
    # closed under dropping one member implies closed under taking any subset
    members = set(sets)
    return all(s - {a} in members for s in sets for a in s)


def is_tight(sets: ExtensionSet) -> bool:
    """Every argument a occurring jointly with each member of a set s (or any
    argument, for s empty) extends s to a set of the candidate."""
    _, masks, joint, full = _index(sets)
    members = set(masks)
    return all(s | 1 << a in members for s in masks for a in bits(_common(s, joint, full) & ~s))


def is_dcl_tight(sets: ExtensionSet) -> bool:
    """Whether downward_closure(sets) is tight, without building it. A subset
    of a set T in `sets` can take an argument a outside T only if its elements
    all occur jointly with a, so it suffices that the elements of T that do,
    plus a, lie inside some set of `sets`, for every T and every such a."""
    _, masks, joint, full = _index(sets)
    for t in masks:
        for a in bits(full & ~t):
            grown = t & joint[a] | 1 << a
            if not any(grown & ~s == 0 for s in masks):
                return False
    return True


def is_conflict_sensitive(sets: ExtensionSet) -> bool:
    """The union of two sets is in the candidate unless two of its members
    never occur jointly. The members of one set do, so it is enough that each
    member of the second occurs jointly with every member of the first."""
    _, masks, joint, full = _index(sets)
    members = set(masks)
    common = {m: _common(m, joint, full) for m in masks}
    return not any(
        a | b not in members and b & ~common[a] == 0 for a, b in itertools.combinations(masks, 2)
    )


@dataclass(frozen=True)
class SetAnalysis:
    nonempty: bool
    contains_empty: bool
    singleton: bool
    incomparable: bool
    downward_closed: bool
    tight: bool
    dcl_tight: bool
    conflict_sensitive: bool
    args: frozenset[str]
    pairs: frozenset[frozenset[str]]


def analyze(sets: Iterable[Iterable[str]]) -> SetAnalysis:
    cand = normalize_candidate(sets)
    return SetAnalysis(
        nonempty=len(cand) > 0,
        contains_empty=frozenset() in cand,
        singleton=len(cand) == 1,
        incomparable=is_incomparable(cand),
        downward_closed=is_downward_closed(cand),
        tight=is_tight(cand),
        dcl_tight=is_dcl_tight(cand),
        conflict_sensitive=is_conflict_sensitive(cand),
        args=args_of(cand),
        pairs=pairs_of(cand),
    )


@dataclass(frozen=True)
class SignatureVerdict:
    answer: str  # yes | no | necessary_only
    condition_holds: Optional[bool] = None  # set for necessary_only

    @property
    def decided(self) -> bool:
        return self.answer in ("yes", "no")


def _finite_criterion(cand: ExtensionSet, sigma: str) -> bool:
    """The finite signature criterion of sigma, evaluating only the predicates
    it uses, left to right, so cheap checks cut off the expensive ones."""
    nonempty = len(cand) > 0
    if sigma == "cf":
        return nonempty and is_downward_closed(cand) and is_tight(cand)
    if sigma == "nav":
        return nonempty and is_incomparable(cand) and is_dcl_tight(cand)
    if sigma == "stb":
        return is_incomparable(cand) and is_tight(cand)
    if sigma == "stg":
        return nonempty and is_incomparable(cand) and is_tight(cand)
    if sigma == "adm":
        return frozenset() in cand and is_conflict_sensitive(cand)
    if sigma in ("prf", "semi"):
        return nonempty and is_incomparable(cand) and is_conflict_sensitive(cand)
    if sigma in ("grd", "id", "eag"):
        return len(cand) == 1
    raise AFError(sigma)  # pragma: no cover


# variant -> semantics whose criterion remains exact
_EXACT_CELLS = {
    "finite": set(SIGNATURE_SEMANTICS),
    "finite_compact": {"cf", "nav", "grd", "id", "eag"},
    "finite_analytic": {"cf", "nav", "grd", "id", "eag", "stb", "stg"},
}


def decide_signature(sets: Iterable[Iterable[str]], sigma: str, variant: str = "finite") -> SignatureVerdict:
    """Membership of the candidate set in the sigma-signature of the variant.

    Cells where the literature provides only necessary conditions return
    `necessary_only` with the condition's truth value, never a bare yes/no.
    """
    check_semantics(sigma)
    if sigma not in SIGNATURE_SEMANTICS:
        raise AFError(f"signature membership is undecided for semantics {sigma!r}")
    if variant not in VARIANTS:
        raise AFError(f"unknown signature variant: {variant!r}")
    cand = normalize_candidate(sets)
    holds = _finite_criterion(cand, sigma)
    if sigma in _EXACT_CELLS[variant]:
        return SignatureVerdict("yes" if holds else "no")
    return SignatureVerdict("necessary_only", condition_holds=holds)


# -- canonical constructions ----------------------------------------------------


def canonical_cf(sets: Iterable[Iterable[str]]) -> AF:
    """Symmetric framework attacking exactly the non-jointly-occurring pairs."""
    names, _, joint, full = _index(normalize_candidate(sets))
    return AF(names, [(a, names[b]) for i, a in enumerate(names) for b in bits(full & ~joint[i])])


def canonical_stb(sets: Iterable[Iterable[str]]) -> AF:
    """canonical_cf plus one self-attacking blocker per undesired stable extension."""
    cand = normalize_candidate(sets)
    base = canonical_cf(cand)
    undesired = [e for e in extensions(base, "stb") if e not in set(cand)]
    args = list(base.names)
    attacks = list(base.attacks)
    universe = args_of(cand)
    for i, e in enumerate(undesired):
        blocker = f"{BLOCKER_PREFIX}{i}"
        args.append(blocker)
        attacks.append((blocker, blocker))
        for a in sorted(universe - e):
            attacks.append((a, blocker))
    return AF(args, attacks)


def defense_formula_cnf(sets: Iterable[Iterable[str]], a: str) -> frozenset[frozenset[str]]:
    """Clauses (sets of arguments) logically equivalent to the defense formula of
    `a`: the disjunction over the sets containing `a` of the conjunction of their
    other members. Subsumed clauses are removed; a tautology is the empty set."""
    cand = normalize_candidate(sets)
    if a not in args_of(cand):
        raise AFError(f"argument {a!r} does not occur in the candidate set")
    disjuncts = [frozenset(s - {a}) for s in cand if a in s]
    if any(not d for d in disjuncts):
        return frozenset()  # {a} itself occurs: tautology
    # multiply in one disjunct at a time, keeping only minimal clauses: a
    # clause subsumed now stays subsumed in every later product
    clauses: set[frozenset[str]] = {frozenset()}
    for d in disjuncts:
        grown = {c | {x} for c in clauses for x in d}
        clauses = {c for c in grown if not any(o < c for o in grown)}
    return frozenset(clauses)


def canonical_def(sets: Iterable[Iterable[str]]) -> AF:
    """canonical_cf plus one self-attacking defense argument per CNF clause,
    attacking the defended argument and attacked by the clause members."""
    cand = normalize_candidate(sets)
    base = canonical_cf(cand)
    args = list(base.names)
    attacks = list(base.attacks)
    for a in base.names:
        for j, clause in enumerate(sort_extensions(defense_formula_cnf(cand, a))):
            alpha = f"{DEFENSE_PREFIX}{a}_{j}"
            args.append(alpha)
            attacks.append((alpha, alpha))
            attacks.append((alpha, a))
            for b in sorted(clause):
                attacks.append((b, alpha))
    return AF(args, attacks)


def _prf_to_semi(f: AF) -> AF:
    """Mirror every argument with a self-attacking prime so that the semi-stable
    extensions of the result are the preferred extensions of the input."""
    args = list(f.names)
    attacks = list(f.attacks)
    for a in f.names:
        prime = f"{MIRROR_PREFIX}{a}"
        args.append(prime)
        attacks.append((a, prime))
        attacks.append((prime, prime))
    return AF(args, attacks)


class RealizationDefect(RuntimeError):
    """The canonical construction failed verification; this is a bug, not bad input."""


def realize(sets: Iterable[Iterable[str]], sigma: str) -> Optional[AF]:
    """A framework whose sigma-extensions are exactly the candidate set, or None
    when the candidate fails the finite signature criterion. The construction is
    re-enumerated before being returned."""
    cand = normalize_candidate(sets)
    verdict = decide_signature(cand, sigma, "finite")
    if verdict.answer != "yes":
        return None
    if sigma in ("cf", "nav"):
        witness = canonical_cf(cand)
    elif sigma in ("stb", "stg"):
        witness = canonical_stb(cand)
    elif sigma == "adm":
        witness = canonical_def(cand)
    elif sigma == "prf":
        witness = canonical_def(sort_extensions(set(cand) | {frozenset()}))
    elif sigma == "semi":
        witness = _prf_to_semi(canonical_def(sort_extensions(set(cand) | {frozenset()})))
    elif sigma in ("grd", "id", "eag"):
        witness = AF(cand[0], [])
    else:  # pragma: no cover
        raise AFError(sigma)
    got = extensions(witness, sigma)
    if got != cand:
        raise RealizationDefect(
            f"canonical {sigma} construction realized {got}, expected {cand}"
        )
    return witness


# -- compact / analytic classification -------------------------------------------


def is_compact(f: AF, sigma: str) -> bool:
    """No rejected arguments: every argument occurs in some sigma-extension."""
    check_semantics(sigma)
    if sigma not in CLASSIFIABLE_SEMANTICS:
        raise AFError(f"compactness is not defined for semantics {sigma!r}")
    accepted = 0
    for m in extension_masks(f, sigma, f.full_mask, max_enum_args()):
        accepted |= m
    return accepted == f.full_mask


def implicit_conflicts(f: AF, sigma: str) -> frozenset[frozenset[str]]:
    """Semantic conflicts with no attack in either direction; a rejected argument
    without a self-loop is an implicit conflict with itself."""
    check_semantics(sigma)
    if sigma not in CLASSIFIABLE_SEMANTICS:
        raise AFError(f"analyticity is not defined for semantics {sigma!r}")
    names = f.names
    joint = _joint_with(extension_masks(f, sigma, f.full_mask, max_enum_args()), f.n)
    out = set()
    for i, a in enumerate(names):
        # the arguments b >= a neither joint with a nor attacking it or attacked by it
        free = f.full_mask >> i << i & ~(joint[i] | f.succ[i] | f.pred[i])
        out.update(frozenset((a, names[j])) for j in bits(free))
    return frozenset(out)


def is_analytic(f: AF, sigma: str) -> bool:
    return not implicit_conflicts(f, sigma)
