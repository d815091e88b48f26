"""Extension-set analysis, signature decisions, canonical realizing frameworks,
and the compact/analytic classification of frameworks.

Each public call indexes its candidate extension-set once, over the
candidate's own sorted arguments: the sets become masks in extension order,
with one joint-with mask per argument. The signature predicates (tight,
incomparable, conflict-sensitive, downward-closed), the defense formulas and
the canonical constructions all read that index. Where only necessary
conditions are known (the compact and analytic variants of some semantics)
the verdict says so explicitly instead of pretending to decide. The
constructions enumerate no extensions; only the defense-formula CNF can grow
exponentially with the candidate.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional

from .config import CLASSIFIABLE_SEMANTICS, SIGNATURE_SEMANTICS, max_enum_args
from .core import AF, RESERVED_PREFIX, AFError, Frame, Record, bits, check_arg_name, names_of
from .semantics import ExtensionSet, check_semantics, extension_masks, mask_key, maximal, naive_masks, sort_extensions

VARIANTS = ("finite", "finite_compact", "finite_analytic")

BLOCKER_PREFIX = "_bE"
DEFENSE_PREFIX = "_alpha_"
MIRROR_PREFIX = "_m_"


def normalize_candidate(sets: Iterable[Iterable[str]]) -> ExtensionSet:
    return sort_extensions(frozenset(s) for s in sets)


def _joint_with(masks: Iterable[int], n: int) -> list[int]:
    """Per index below n, the mask of the indices occurring in a set with it
    (itself included, if it occurs at all). The relation is symmetric."""
    joint = [0] * n
    for m in masks:
        for i in bits(m):
            joint[i] |= m
    return joint


class _Candidate:
    """A candidate on its own index, built once per public call: the sets in
    extension order, the arguments sorted, each set as a mask, each argument's
    joint-with mask and the mask of all of them."""

    def __init__(self, sets: Iterable[Iterable[str]]):
        self.sets = normalize_candidate(sets)
        self.names = sorted({a for s in self.sets for a in s})
        index = {a: i for i, a in enumerate(self.names)}
        self.masks = [sum(1 << index[a] for a in s) for s in self.sets]
        self.joint = _joint_with(self.masks, len(self.names))
        self.full = (1 << len(self.names)) - 1


def downward_closure(sets: ExtensionSet) -> ExtensionSet:
    return sort_extensions(
        frozenset(t) for s in sets for size in range(len(s) + 1) for t in itertools.combinations(s, size)
    )


def _incomparable(c: _Candidate) -> bool:
    # a proper subset comes earlier in extension order
    return not any(a & ~b == 0 for a, b in itertools.combinations(c.masks, 2))


def _downward_closed(c: _Candidate) -> bool:
    # closed under dropping one member implies closed under taking any subset
    members = set(c.masks)
    return all(s & ~(1 << a) in members for s in c.masks for a in bits(s))


def _tight(c: _Candidate) -> bool:
    """Every argument a occurring jointly with each member of a set s (or any
    argument, for s empty) extends s to a set of the candidate."""
    members = set(c.masks)
    return all(s | 1 << a in members for s in c.masks for a in bits(c.full & ~s) if s & ~c.joint[a] == 0)


def _dcl_tight(c: _Candidate) -> bool:
    """Whether the downward closure is tight, without building it. A subset
    of a set T can take an argument a outside T only if its elements all occur
    jointly with a, so it suffices that the elements of T that do, plus a, lie
    inside some set of the candidate, for every T and every such a."""
    return all(
        any((t & c.joint[a] | 1 << a) & ~s == 0 for s in c.masks) for t in c.masks for a in bits(c.full & ~t)
    )


def _conflict_sensitive(c: _Candidate) -> bool:
    """The union of two sets is in the candidate unless two of its members
    never occur jointly. The members of one set do, so it is enough that each
    member of the second lies in the meet of the first's joint-with masks."""
    members = set(c.masks)
    common = {m: functools.reduce(int.__and__, (c.joint[i] for i in bits(m)), c.full) for m in c.masks}
    return not any(
        a | b not in members and b & ~common[a] == 0 for a, b in itertools.combinations(c.masks, 2)
    )


class SetAnalysis(Record):
    _fields = (
        "nonempty", "contains_empty", "singleton", "incomparable", "downward_closed", "tight",
        "dcl_tight", "conflict_sensitive", "args", "pairs",
    )

    def __init__(
        self, nonempty: bool, contains_empty: bool, singleton: bool, incomparable: bool,
        downward_closed: bool, tight: bool, dcl_tight: bool, conflict_sensitive: bool,
        args: frozenset[str], pairs: frozenset[frozenset[str]],
    ):
        d = self.__dict__
        d["nonempty"] = nonempty
        d["contains_empty"] = contains_empty
        d["singleton"] = singleton
        d["incomparable"] = incomparable
        d["downward_closed"] = downward_closed
        d["tight"] = tight
        d["dcl_tight"] = dcl_tight
        d["conflict_sensitive"] = conflict_sensitive
        d["args"] = args
        d["pairs"] = pairs


def analyze(sets: Iterable[Iterable[str]]) -> SetAnalysis:
    c = _Candidate(sets)
    return SetAnalysis(
        nonempty=len(c.masks) > 0,
        contains_empty=c.masks[:1] == [0],
        singleton=len(c.masks) == 1,
        incomparable=_incomparable(c),
        downward_closed=_downward_closed(c),
        tight=_tight(c),
        dcl_tight=_dcl_tight(c),
        conflict_sensitive=_conflict_sensitive(c),
        args=frozenset(c.names),
        # unordered pairs of jointly occurring arguments (singletons stand for (a,a))
        pairs=frozenset(
            frozenset((a, c.names[j])) for i, a in enumerate(c.names) for j in bits(c.joint[i] >> i << i)
        ),
    )


class SignatureVerdict(Record):
    _fields = ("answer", "condition_holds")

    def __init__(self, answer: str, condition_holds: Optional[bool] = None):
        # answer: yes | no | necessary_only; condition_holds is set for necessary_only
        d = self.__dict__
        d["answer"] = answer
        d["condition_holds"] = condition_holds

    @property
    def decided(self) -> bool:
        return self.answer in ("yes", "no")


def _finite_criterion(c: _Candidate, sigma: str) -> bool:
    """The finite signature criterion of sigma, evaluating only the predicates
    it uses, left to right, so cheap checks cut off the expensive ones."""
    nonempty = len(c.masks) > 0
    if sigma == "cf":
        return nonempty and _downward_closed(c) and _tight(c)
    if sigma == "nav":
        return nonempty and _incomparable(c) and _dcl_tight(c)
    if sigma == "stb":
        return _incomparable(c) and _tight(c)
    if sigma == "stg":
        return nonempty and _incomparable(c) and _tight(c)
    if sigma == "adm":
        return c.masks[:1] == [0] and _conflict_sensitive(c)
    if sigma in ("prf", "semi"):
        return nonempty and _incomparable(c) and _conflict_sensitive(c)
    if sigma in ("grd", "id", "eag"):
        return len(c.masks) == 1
    raise AFError(sigma)  # pragma: no cover


# variant -> semantics whose criterion remains exact
_EXACT_CELLS = {
    "finite": set(SIGNATURE_SEMANTICS),
    "finite_compact": {"cf", "nav", "grd", "id", "eag"},
    "finite_analytic": {"cf", "nav", "grd", "id", "eag", "stb", "stg"},
}


def _check_signature_semantics(sigma: str) -> None:
    check_semantics(sigma)
    if sigma not in SIGNATURE_SEMANTICS:
        raise AFError(f"signature membership is undecided for semantics {sigma!r}")


def decide_signature(sets: Iterable[Iterable[str]], sigma: str, variant: str = "finite") -> SignatureVerdict:
    """Membership of the candidate set in the sigma-signature of the variant.

    Cells where the literature provides only necessary conditions return
    `necessary_only` with the condition's truth value, never a bare yes/no.
    """
    _check_signature_semantics(sigma)
    if variant not in VARIANTS:
        raise AFError(f"unknown signature variant: {variant!r}")
    holds = _finite_criterion(_Candidate(sets), sigma)
    if sigma in _EXACT_CELLS[variant]:
        return SignatureVerdict("yes" if holds else "no")
    return SignatureVerdict("necessary_only", condition_holds=holds)


# -- canonical constructions ----------------------------------------------------


def _check_helper_free(c: _Candidate) -> None:
    # helper arguments carry the reserved prefix, so such a candidate argument could merge with one
    for a in c.names:
        if a.startswith(RESERVED_PREFIX):
            raise AFError(f"argument names starting with {RESERVED_PREFIX!r} are reserved: {a!r}")


def _check_names(c: _Candidate) -> None:
    """Check the candidate's arguments once, before any framework is built from them."""
    for a in c.names:
        check_arg_name(a)


def _cf_rows(c: _Candidate) -> list[int]:
    """canonical_cf's attack rows: each argument attacks those it never occurs with."""
    return [c.full & ~j for j in c.joint]


def _cf_attacks(c: _Candidate, rows: list[int]) -> list[tuple[str, str]]:
    names = c.names
    return [(a, names[b]) for i, a in enumerate(names) for b in bits(rows[i])]


def _cf_af(c: _Candidate) -> AF:
    _check_names(c)
    return AF._from_checked(c.names, _cf_attacks(c, _cf_rows(c)))


def canonical_cf(sets: Iterable[Iterable[str]]) -> AF:
    """Symmetric framework attacking exactly the non-jointly-occurring pairs."""
    return _cf_af(_Candidate(sets))


def _stb_af(c: _Candidate) -> AF:
    _check_helper_free(c)
    _check_names(c)
    members = set(c.masks)
    # canonical_cf is symmetric and loop-free, so its stable extensions are
    # its naive sets
    rows = _cf_rows(c)
    stable = sorted(naive_masks(Frame(rows, rows), c.full), key=mask_key)
    args, attacks = list(c.names), _cf_attacks(c, rows)
    for i, e in enumerate(m for m in stable if m not in members):
        blocker = f"{BLOCKER_PREFIX}{i}"
        args.append(blocker)
        attacks += [(blocker, blocker)] + [(c.names[a], blocker) for a in bits(c.full & ~e)]
    return AF._from_checked(sorted(args), attacks)


def canonical_stb(sets: Iterable[Iterable[str]]) -> AF:
    """canonical_cf plus one self-attacking blocker per undesired stable extension."""
    return _stb_af(_Candidate(sets))


def _cnf(c: _Candidate, a: int) -> set[int]:
    """The ⊆-minimal clauses of the defense formula of index a, as masks.

    Multiplies in one disjunct at a time and keeps only the minimal clauses:
    a clause subsumed now stays subsumed in every later product. A clause is
    minimal exactly when its complement is ⊆-maximal among the complements,
    so the engine's `maximal` keeps them; the clauses are distinct, so its
    ties do not arise."""
    disjuncts = [m & ~(1 << a) for m in c.masks if m >> a & 1]
    if 0 in disjuncts:
        return set()  # {a} itself occurs: tautology
    full = c.full
    clauses = {0}
    for d in disjuncts:
        grown = {k | 1 << x for k in clauses for x in bits(d)}
        clauses = {full & ~m for m in maximal([full & ~k for k in grown])}
    return clauses


def defense_formula_cnf(sets: Iterable[Iterable[str]], a: str) -> frozenset[frozenset[str]]:
    """Clauses (sets of arguments) logically equivalent to the defense formula of
    `a`: the disjunction over the sets containing `a` of the conjunction of their
    other members. Subsumed clauses are removed; a tautology is the empty set."""
    c = _Candidate(sets)
    if a not in c.names:
        raise AFError(f"argument {a!r} does not occur in the candidate set")
    return frozenset(names_of(c.names, k) for k in _cnf(c, c.names.index(a)))


def _def_af(c: _Candidate) -> AF:
    _check_helper_free(c)
    _check_names(c)
    args, attacks = list(c.names), _cf_attacks(c, _cf_rows(c))
    for i, a in enumerate(c.names):
        for j, clause in enumerate(sorted(_cnf(c, i), key=mask_key)):
            alpha = f"{DEFENSE_PREFIX}{a}_{j}"
            args.append(alpha)
            attacks += [(alpha, alpha), (alpha, a)] + [(c.names[b], alpha) for b in bits(clause)]
    return AF._from_checked(sorted(args), attacks)


def canonical_def(sets: Iterable[Iterable[str]]) -> AF:
    """canonical_cf plus one self-attacking defense argument per CNF clause,
    attacking the defended argument and attacked by the clause members."""
    return _def_af(_Candidate(sets))


def _prf_to_semi(f: AF) -> AF:
    """Mirror every argument with a self-attacking prime so that the semi-stable
    extensions of the result are the preferred extensions of the input."""
    args, attacks = list(f.names), list(f.attacks)
    for a in f.names:
        prime = f"{MIRROR_PREFIX}{a}"
        args.append(prime)
        attacks += [(a, prime), (prime, prime)]
    return AF._from_checked(sorted(args), attacks)


def realize(sets: Iterable[Iterable[str]], sigma: str) -> Optional[AF]:
    """A framework whose sigma-extensions are exactly the candidate set, or None
    when the candidate fails the finite signature criterion. The canonical
    constructions are correct by theorem (Dunne, Dvořák, Linsbichler & Woltran
    2015), so the witness is built without enumerating any extensions."""
    c = _Candidate(sets)
    _check_signature_semantics(sigma)
    if not _finite_criterion(c, sigma):
        return None
    if sigma in ("cf", "nav"):
        return _cf_af(c)
    if sigma in ("stb", "stg"):
        return _stb_af(c)
    if sigma in ("grd", "id", "eag"):  # the one set, unattacked
        _check_names(c)
        return AF._from_checked(c.names)
    # adm, prf and semi: prf and semi realize the candidate plus the empty set
    # under adm, which adds no disjunct to any defense formula
    witness = _def_af(c)
    return _prf_to_semi(witness) if sigma == "semi" else witness


# -- compact / analytic classification -------------------------------------------


def is_compact(f: AF, sigma: str) -> bool:
    """No rejected arguments: every argument occurs in some sigma-extension."""
    check_semantics(sigma)
    if sigma not in CLASSIFIABLE_SEMANTICS:
        raise AFError(f"compactness is not defined for semantics {sigma!r}")
    accepted = functools.reduce(int.__or__, extension_masks(f, sigma, f.full_mask, max_enum_args()), 0)
    return accepted == f.full_mask


def implicit_conflicts(f: AF, sigma: str) -> frozenset[frozenset[str]]:
    """Semantic conflicts with no attack in either direction; a rejected argument
    without a self-loop is an implicit conflict with itself."""
    check_semantics(sigma)
    if sigma not in CLASSIFIABLE_SEMANTICS:
        raise AFError(f"analyticity is not defined for semantics {sigma!r}")
    joint = _joint_with(extension_masks(f, sigma, f.full_mask, max_enum_args()), f.n)
    out = set()
    for i, a in enumerate(f.names):
        # the arguments b >= a neither joint with a nor attacking it or attacked by it
        free = f.full_mask >> i << i & ~(joint[i] | f.succ[i] | f.pred[i])
        out.update(frozenset((a, f.names[j])) for j in bits(free))
    return frozenset(out)


def is_analytic(f: AF, sigma: str) -> bool:
    return not implicit_conflicts(f, sigma)
