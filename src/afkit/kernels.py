"""Kernel constructions and syntactic decision of equivalence notions.

A kernel maps a framework to its redundancy-free version; equality of suitable
kernels decides the corresponding equivalence notion. The characterization
tables below cover the extension-based and labelling-based notions; cells the
literature leaves open come back as "unsupported" rather than a guess.

A bounded witness search complements the syntactic verdicts: it enumerates
expansion / deletion scenarios in a deterministic order and reports the
smallest one on which the two frameworks disagree.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import config
from .config import DELETION_NOTIONS, EXPANSION_NOTIONS, KERNEL_IDS, NOTIONS
from .core import AF, AFError, Frame, Record, bits
from .semantics import (
    LABELLING_SEMANTICS,
    check_labelling_semantics,
    check_semantics,
    extension_masks,
    extensions,
    labellings,
)

FLAVORS = ("extension", "labelling")


class UnknownKernelError(AFError):
    pass


def check_kernel(tag: str) -> str:
    if tag not in KERNEL_IDS:
        raise UnknownKernelError(f"unknown kernel: {tag!r}")
    return tag


def _settled(f: Frame, loops: int, i: int, j: int, extra: int) -> bool:
    """Each target of j attacks i, is attacked by i, loops, or is in extra."""
    return f.succ[j] & ~(f.succ[i] | f.pred[i] | loops | extra) == 0


def _drop_adm(f: Frame, loops: int, i: int, j: int) -> bool:
    return loops >> i & 1 and (f.pred[i] | loops) >> j & 1


def _drop_grd(f: Frame, loops: int, i: int, j: int) -> bool:
    return loops >> j & 1 and (f.succ[j] | loops) >> i & 1


def _drop_com(f: Frame, loops: int, i: int, j: int) -> bool:
    return loops >> i & 1 and loops >> j & 1


# kernel -> drop(f, loops, i, j): does the kernel delete the attack from index
# i to index j != i? `loops` is the self-loop mask of f.
_DROP = {
    "k_stb": lambda f, loops, i, j: loops >> i & 1,
    "k_adm": _drop_adm,
    "k_grd": _drop_grd,
    "k_com": _drop_com,
    "ks_adm": lambda f, loops, i, j: _drop_adm(f, loops, i, j)
    or loops >> j & 1 and _settled(f, loops, i, j, f.pred[j]),
    "ks_grd": lambda f, loops, i, j: _drop_grd(f, loops, i, j)
    or loops >> j & 1 and _settled(f, loops, i, j, 0),
    "ks_com": lambda f, loops, i, j: _drop_com(f, loops, i, j)
    or loops >> j & 1 and not f.succ[j] >> i & 1 and _settled(f, loops, i, j, f.pred[j]),
    "ks_stg": lambda f, loops, i, j: loops >> i & 1 or loops | 1 << i == f.full_mask,
}


def kernel_attacks(f: AF, kind: str) -> list[tuple[str, str]]:
    """The attacks of `kernel(f, kind)`, each once, without building it.

    k_nav adds attacks; every other kernel but the identity deletes the
    attacks its `_DROP` test accepts.
    """
    check_kernel(kind)
    if kind == "identity":
        return list(f.attacks)
    loops = f.loops_mask()
    if kind == "k_nav":
        # (a, b), b != a and not yet an attack, for every b when a loops,
        # else for b attacking a or looping
        extra = [
            (f.names[i], f.names[j])
            for i in range(f.n)
            for j in bits((f.full_mask if loops >> i & 1 else f.pred[i] | loops) & ~(f.succ[i] | 1 << i))
        ]
        return list(f.attacks) + extra
    drop, index = _DROP[kind], f.index
    return [(a, b) for a, b in f.attacks if a == b or not drop(f, loops, index[a], index[b])]


def kernel(f: AF, kind: str) -> AF:
    """Apply the selected kernel; arguments and self-loops are always preserved."""
    return f if kind == "identity" else AF(f.names, kernel_attacks(f, kind))


# -- characterization tables ---------------------------------------------------

_EXT_TABLE_SEMANTICS = (
    "stg",
    "stb",
    "semi",
    "eag",
    "adm",
    "prf",
    "id",
    "grd",
    "com",
    "nav",
    "cf2",
    "stg2",
)

_LAB_TABLE_SEMANTICS = ("stb", "semi", "eag", "adm", "prf", "id", "grd", "com")

# Markers for cells decided by a dedicated criterion rather than kernel equality.
CRITERION = "criterion"

_E_ROW = {
    "stg": "k_stb",
    "stb": "k_stb",
    "semi": "k_adm",
    "eag": "k_adm",
    "adm": "k_adm",
    "prf": "k_adm",
    "id": "k_adm",
    "grd": "k_grd",
    "com": "k_com",
    "nav": "k_nav",
    "cf2": "identity",
    "stg2": "identity",
    # strongly admissible sets share the grounded kernel
    "sad": "k_grd",
}

_EXT_TABLE: dict[str, dict[str, Optional[str]]] = {
    "E": dict(_E_ROW),
    "N": {s: k for s, k in _E_ROW.items() if s != "sad"},
    "S": {
        "stg": "k_stb",
        "stb": "k_stb",
        "semi": "k_adm",
        "eag": "k_adm",
        "adm": "ks_adm",
        "prf": "ks_adm",
        "id": "ks_adm",
        "grd": "ks_grd",
        "com": "ks_com",
        "nav": "k_nav",
    },
    "L": {
        "stg": "ks_stg",
        "semi": "k_adm",
        "eag": "k_adm",
        "adm": "k_adm",
        "prf": "k_adm",
        "id": "k_adm",
        "nav": "k_nav",
    },
    "W": {"stb": CRITERION},
    "ND": {"stb": "k_stb", "adm": CRITERION, "grd": CRITERION, "com": CRITERION},
    "D": {s: "identity" for s in _EXT_TABLE_SEMANTICS},
    "LD": {s: "identity" for s in _EXT_TABLE_SEMANTICS},
    "U": {s: "identity" for s in _EXT_TABLE_SEMANTICS},
}

_LAB_COMMON = {
    "stb": "k_stb",
    "semi": "k_adm",
    "eag": "k_adm",
    "adm": "k_com",
    "prf": "k_adm",
    "id": "k_adm",
    "grd": "k_grd",
    "com": "k_com",
}

_LAB_TABLE: dict[str, dict[str, Optional[str]]] = {
    "E": dict(_LAB_COMMON),
    "N": dict(_LAB_COMMON),
    "S": dict(_LAB_COMMON),
    "ND": dict(_LAB_COMMON),
    "L": {
        "semi": "k_adm",
        "eag": "k_adm",
        "adm": "k_com",
        "prf": "k_adm",
        "id": "k_adm",
    },
    "W": {},
    "D": {s: "identity" for s in _LAB_TABLE_SEMANTICS},
    "LD": {s: "identity" for s in _LAB_TABLE_SEMANTICS},
    "U": {s: "identity" for s in _LAB_TABLE_SEMANTICS},
}


def _cell(notion: str, sigma: str, flavor: str) -> Optional[str]:
    """The table cell for the notion, semantics and flavor (None when open or
    for ordinary equivalence), after validating all three."""
    if notion not in NOTIONS:
        raise AFError(f"unknown equivalence notion: {notion!r}")
    if flavor not in FLAVORS:
        raise AFError(f"unknown flavor: {flavor!r}")
    check_semantics(sigma)
    table = _EXT_TABLE if flavor == "extension" else _LAB_TABLE
    return table.get(notion, {}).get(sigma)


def characterizing_kernel(notion: str, sigma: str, flavor: str = "extension") -> Optional[str]:
    """The kernel whose equality decides the notion, or None when the cell is
    open / only characterized through a non-kernel criterion."""
    cell = _cell(notion, sigma, flavor)
    return None if cell == CRITERION else cell


class EquivalenceVerdict(Record):
    _fields = ("answer", "method", "detail")

    def __init__(self, answer: str, method: str, detail: str = ""):
        # answer: equivalent | not_equivalent | unsupported;
        # method: kernel | identity | criterion | none
        d = self.__dict__
        d["answer"] = answer
        d["method"] = method
        d["detail"] = detail

    @property
    def supported(self) -> bool:
        return self.answer != "unsupported"


def _normal_deletion_criterion(f: AF, g: AF, sigma: str) -> EquivalenceVerdict:
    """Three-condition theorem for normal deletion equivalence of adm/com/grd."""
    shared = set(f.names) & set(g.names)
    only_f = set(f.names) - shared
    only_g = set(g.names) - shared
    # non-shared arguments must be self-defeating
    if not all((a, a) in f.attacks for a in only_f) or not all(
        (a, a) in g.attacks for a in only_g
    ):
        return EquivalenceVerdict("not_equivalent", "criterion", "non-shared argument without self-loop")
    nl_f = {a for a in shared if (a, a) not in f.attacks}
    nl_g = {a for a in shared if (a, a) not in g.attacks}
    if sigma == "adm":
        # counter-attack if attacked
        ok = all(
            (a, b) in f.attacks for b in only_f for a in nl_f if (b, a) in f.attacks
        ) and all((a, b) in g.attacks for b in only_g for a in nl_g if (b, a) in g.attacks)
    else:
        # forbidden to be attacked
        ok = all((b, a) not in f.attacks for b in only_f for a in nl_f) and all(
            (b, a) not in g.attacks for b in only_g for a in nl_g
        )
    if not ok:
        return EquivalenceVerdict("not_equivalent", "criterion", "attack condition on non-shared arguments fails")
    k = "ks_adm" if sigma == "adm" else ("ks_grd" if sigma == "grd" else "ks_com")
    if kernel(f.restrict(shared), k) == kernel(g.restrict(shared), k):
        return EquivalenceVerdict("equivalent", "criterion", f"{k} on shared arguments")
    return EquivalenceVerdict("not_equivalent", "criterion", f"{k} on shared arguments differs")


def _weak_stable_criterion(f: AF, g: AF) -> EquivalenceVerdict:
    sf = extensions(f, "stb")
    sg = extensions(g, "stb")
    if not sf and not sg:
        return EquivalenceVerdict("equivalent", "criterion", "both lack stable extensions")
    if f.args == g.args and sf == sg:
        return EquivalenceVerdict("equivalent", "criterion", "same arguments and stable extensions")
    return EquivalenceVerdict("not_equivalent", "criterion", "weak-expansion criterion fails")


def decide_equivalence(
    f: AF, g: AF, notion: str, sigma: str, flavor: str = "extension"
) -> EquivalenceVerdict:
    """Decide the equivalence notion for f and g, syntactically where possible."""
    cell = _cell(notion, sigma, flavor)
    if notion == "ordinary":
        if flavor == "extension":
            same = extensions(f, sigma) == extensions(g, sigma)
        else:
            if sigma not in LABELLING_SEMANTICS:
                return EquivalenceVerdict("unsupported", "none", f"no labelling semantics for {sigma}")
            same = set(labellings(f, sigma)) == set(labellings(g, sigma))
        return EquivalenceVerdict(
            "equivalent" if same else "not_equivalent", "criterion", "semantic comparison"
        )
    if cell is None:
        return EquivalenceVerdict("unsupported", "none", "cell open in the literature")
    if cell == CRITERION:  # extension flavor only: W for stb, ND for adm/grd/com
        if notion == "W":
            return _weak_stable_criterion(f, g)
        return _normal_deletion_criterion(f, g, sigma)
    if cell == "identity":
        same = f == g
        return EquivalenceVerdict(
            "equivalent" if same else "not_equivalent", "identity", "syntactic identity"
        )
    # kernel(f, cell) == kernel(g, cell), read off the kernels' attacks
    same = f.names == g.names and set(kernel_attacks(f, cell)) == set(kernel_attacks(g, cell))
    return EquivalenceVerdict("equivalent" if same else "not_equivalent", "kernel", cell)


# -- bounded witness search ----------------------------------------------------

FRESH_PREFIX = "_w"


class SearchBudget(Record):
    _fields = ("fresh_args", "max_attacks")

    def __init__(self, fresh_args: int = 1, max_attacks: int = 3):
        for name, value in (("fresh_args", fresh_args), ("max_attacks", max_attacks)):
            if value < 0:
                raise AFError(f"search budget {name} must be non-negative, got {value}")
        d = self.__dict__
        d["fresh_args"] = fresh_args
        d["max_attacks"] = max_attacks


class DeletionWitness(Record):
    _fields = ("args", "attacks")

    def __init__(self, args: frozenset[str], attacks: frozenset[tuple[str, str]]):
        d = self.__dict__
        d["args"] = args
        d["attacks"] = attacks


class SearchResult(Record):
    _fields = ("witness", "complete", "scanned")

    def __init__(self, witness: Optional[object], complete: bool, scanned: int = 0):
        # witness: an AF for expansions, a DeletionWitness for deletions;
        # complete: the whole budgeted space was scanned; scanned: candidates
        # reached, each evaluated except a repeated deletion scenario
        d = self.__dict__
        d["witness"] = witness
        d["complete"] = complete
        d["scanned"] = scanned

    @property
    def found(self) -> bool:
        return self.witness is not None


def _frame(base: Frame, attacks) -> Frame:
    """A copy of the rows of `base` with the given (i, j) index attacks added."""
    succ = list(base.succ)
    pred = list(base.pred)
    for i, j in attacks:
        succ[i] |= 1 << j
        pred[j] |= 1 << i
    return Frame(succ, pred)


def _expansion_candidates(f: AF, g: AF, notion: str, budget: SearchBudget):
    """Candidate expansions H, ordered by (fresh-argument count, attack count,
    lexicographic form), as (f∪H frame, its arguments, g∪H frame, its
    arguments, witness builder) over one pool: the arguments of f and g, then
    the fresh ones. Fresh arguments always occur in at least one attack;
    isolated candidates only draw on arguments the two frameworks do not
    share. An attack is allowed when it is valid for the notion on its own
    (an N- or S-expansion is valid iff each of its new attacks is). The pool
    rows of f and g are built once; each candidate's frames copy them with
    its attacks added."""
    old = sorted(f.args | g.args)
    # a fresh argument takes part in an attack, and an attack touches at most
    # two, so more than 2 * max_attacks fresh arguments yield no candidate
    max_fresh = 0 if notion == "L" else min(budget.fresh_args, 2 * budget.max_attacks)
    names = old + [f"{FRESH_PREFIX}{i}" for i in range(max_fresh)]
    index = {a: i for i, a in enumerate(names)}
    sym_diff = [index[a] for a in sorted(f.args ^ g.args)]
    # the attacks no candidate adds: those f and g share, and those invalid
    # for the notion on one side (N: between two of its arguments, S: also
    # from one of them to a fresh one), unless that side already has them
    excluded = set(f.attacks & g.attacks)
    if notion in ("N", "S"):
        for x in (f, g):
            targets = x.args if notion == "N" else names
            excluded.update((a, b) for a in x.args for b in targets if (a, b) not in x.attacks)
    empty = Frame([0] * len(names), [0] * len(names))
    f_rows = _frame(empty, [(index[a], index[b]) for a, b in f.attacks])
    g_rows = _frame(empty, [(index[a], index[b]) for a, b in g.attacks])
    f_mask = sum(1 << index[a] for a in f.args)
    g_mask = sum(1 << index[a] for a in g.args)

    for n_fresh in range(max_fresh + 1):
        pool = names[: len(old) + n_fresh]
        fresh = ((1 << n_fresh) - 1) << len(old)
        slots = [
            (index[a], index[b]) for a, b in sorted((a, b) for a in pool for b in pool if (a, b) not in excluded)
        ]
        for n_att in range(min(budget.max_attacks, len(slots)) + 1):  # no more attacks than slots
            for attacks in itertools.combinations(slots, n_att):
                used = 0
                for i, j in attacks:
                    used |= 1 << i | 1 << j
                if fresh & ~used:
                    continue  # every fresh argument must take part
                fa = _frame(f_rows, attacks)
                ga = _frame(g_rows, attacks)
                iso_pool = [i for i in sym_diff if not used >> i & 1]
                for k_iso in range(len(iso_pool) + 1):
                    for iso in itertools.combinations(iso_pool, k_iso):
                        h = used
                        for i in iso:
                            h |= 1 << i
                        yield fa, f_mask | h, ga, g_mask | h, lambda h=h, attacks=attacks: AF(
                            [names[i] for i in bits(h)],
                            [(names[i], names[j]) for i, j in attacks],
                        )


def _deletion_candidates(f: AF, g: AF, notion: str, budget: SearchBudget):
    """Candidate deletions, argument sets outermost, in the same tuple form as
    `_expansion_candidates`: the frames lose the deleted attacks, and the
    deleted arguments leave the argument masks.

    A candidate (B, S) whose S holds an attack touching B comes as None, as
    the repeat of an earlier one. Deleting B removes every attack touching
    it, so on both sides F \\ [B, S] = F \\ [B, S'], where S' is the attacks
    of S that do not touch B. (B, S') has the same B and fewer attacks, so it
    came earlier, and the two sides agreed on it, or the search would have
    stopped there."""
    old = sorted(f.args | g.args)
    index = {a: i for i, a in enumerate(old)}
    all_attacks = sorted(f.attacks | g.attacks)
    arg_choices = [()] if notion == "LD" else (
        c for size in range(len(old) + 1) for c in itertools.combinations(range(len(old)), size)
    )
    att_choices = [()] if notion == "ND" else [
        c
        for size in range(min(budget.max_attacks, len(all_attacks)) + 1)
        for c in itertools.combinations(all_attacks, size)
    ]
    f_mask = sum(1 << index[a] for a in f.args)
    g_mask = sum(1 << index[a] for a in g.args)
    empty = Frame([0] * len(old), [0] * len(old))
    # per attack choice, the two frames and the mask of the attacks'
    # endpoints, built when first reached: all of them under the first
    # argument choice, the empty one, where nothing repeats
    frames = []
    for args in arg_choices:
        deleted = sum(1 << i for i in args)
        keep = ~deleted
        for k, atts in enumerate(att_choices):
            if k == len(frames):
                touched = 0
                for a, b in atts:
                    touched |= 1 << index[a] | 1 << index[b]
                frames.append((
                    _frame(empty, [(index[a], index[b]) for a, b in f.attacks if (a, b) not in atts]),
                    _frame(empty, [(index[a], index[b]) for a, b in g.attacks if (a, b) not in atts]),
                    touched,
                ))
            fa, ga, touched = frames[k]
            if touched & deleted:
                yield None
                continue
            yield fa, f_mask & keep, ga, g_mask & keep, lambda args=args, atts=atts: DeletionWitness(
                frozenset(old[i] for i in args), frozenset(atts)
            )


def search_counterexample(
    f: AF,
    g: AF,
    notion: str,
    sigma: str,
    budget: SearchBudget = SearchBudget(),
    flavor: str = "extension",
    max_candidates: Optional[int] = None,
) -> SearchResult:
    """Look for the smallest scenario within budget on which f and g disagree.

    A result with witness=None and complete=True means the whole budgeted space
    was scanned without success; complete=False means the max_candidates valve
    cut the scan short. Candidates are evaluated on masks over one argument
    pool; only the returned witness is built as a framework or deletion.
    `scanned` counts the candidates reached. A deletion candidate that
    repeats an earlier scenario is counted but not evaluated (see
    `_deletion_candidates`).
    """
    if notion not in EXPANSION_NOTIONS + DELETION_NOTIONS:
        raise AFError(f"witness search does not handle notion {notion!r}")
    if flavor not in FLAVORS:
        raise AFError(f"unknown flavor: {flavor!r}")
    check_semantics(sigma)
    if notion in EXPANSION_NOTIONS:
        candidates = _expansion_candidates(f, g, notion, budget)
    else:
        candidates = _deletion_candidates(f, g, notion, budget)

    def outcome(frame: Frame, within: int):
        masks = extension_masks(frame, sigma, within, cap)
        if flavor != "labelling":
            return set(masks)
        labels = set()
        for m in masks:
            out = frame.attacked_by_mask(m) & within
            labels.add((m, out, within & ~(m | out)))
        return labels

    cap = None
    scanned = 0
    for candidate in candidates:
        if max_candidates is not None and scanned >= max_candidates:
            return SearchResult(None, False, scanned)
        if cap is None:
            # Evaluating the first candidate is where a semantics without
            # labellings is refused and the enumeration cap is read.
            if flavor == "labelling":
                check_labelling_semantics(sigma)
            cap = config.max_enum_args()
        scanned += 1
        if candidate is None:  # a repeated deletion scenario: counted, not evaluated
            continue
        fa, f_args, ga, g_args, witness = candidate
        if outcome(fa, f_args) != outcome(ga, g_args):
            return SearchResult(witness(), True, scanned)
    return SearchResult(None, True, scanned)
