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
from bisect import bisect_left
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
    return f if kind == "identity" else AF._from_checked(f.names, kernel_attacks(f, kind))


# -- characterization tables ---------------------------------------------------

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

_N_ROW = {s: k for s, k in _E_ROW.items() if s != "sad"}

_EXT_TABLE: dict[str, dict[str, Optional[str]]] = {
    "E": dict(_E_ROW),
    "N": _N_ROW,
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
    "D": dict.fromkeys(_N_ROW, "identity"),
    "LD": dict.fromkeys(_N_ROW, "identity"),
    "U": dict.fromkeys(_N_ROW, "identity"),
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

# The adm cells of the searchable rows (E, N, S, ND, L, D, LD) answer from
# this table alone: `labellings` and `search_counterexample` refuse adm
# (`LABELLING_SEMANTICS`), so neither the witness search nor an oracle checks
# those seven verdicts.
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
    "D": dict.fromkeys(_LAB_COMMON, "identity"),
    "LD": dict.fromkeys(_LAB_COMMON, "identity"),
    "U": dict.fromkeys(_LAB_COMMON, "identity"),
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
    """Three-condition theorem for normal deletion equivalence of adm/com/grd,
    tested on the rows of f and g over their pooled arguments."""
    names = sorted({*f.names, *g.names})
    pooled = _pool_rows(f, names), _pool_rows(g, names)
    shared = pooled[0][1] & pooled[1][1]
    # per side: its rows, its non-shared arguments and its self-loops
    sides = [(x.succ, x.pred, mask & ~shared, x.loops_mask()) for x, mask in pooled]
    # non-shared arguments must be self-defeating
    if any(only & ~loops for _, _, only, loops in sides):
        return EquivalenceVerdict("not_equivalent", "criterion", "non-shared argument without self-loop")
    # a shared argument without a self-loop that a non-shared one attacks
    # must counter-attack it (adm), or may not be attacked by it (grd, com)
    if any(
        succ[b] & shared & ~loops & ~(pred[b] if sigma == "adm" else 0)
        for succ, pred, only, loops in sides
        for b in bits(only)
    ):
        return EquivalenceVerdict("not_equivalent", "criterion", "attack condition on non-shared arguments fails")
    k = "ks_adm" if sigma == "adm" else ("ks_grd" if sigma == "grd" else "ks_com")
    keep = [names[i] for i in bits(shared)]
    if set(kernel_attacks(f.restrict(keep), k)) == set(kernel_attacks(g.restrict(keep), k)):
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


def _pool_rows(x: AF, names: list) -> tuple[Frame, int]:
    """x's frame over the sorted pool `names` of its names and others', with
    its argument mask: x itself when it holds the whole pool, else its rows
    re-indexed into the pool, as tuples too, so frames compare by rows."""
    if x.n == len(names):
        return x, x.full_mask
    pos = [bisect_left(names, a) for a in x.names]
    succ, pred = [0] * len(names), [0] * len(names)
    for i, p in enumerate(pos):
        succ[p] = sum(1 << pos[j] for j in bits(x.succ[i]))
        pred[p] = sum(1 << pos[j] for j in bits(x.pred[i]))
    return Frame(tuple(succ), tuple(pred)), sum(1 << p for p in pos)


def _expansion_candidates(fa: Frame, f_mask: int, ga: Frame, g_mask: int, names: list, notion: str, budget):
    """The candidate expansions H after the empty one, by (fresh-argument
    count, attack count, lexicographic form), as `search_counterexample`'s
    candidates over the pool `names`, whose rows fa and ga hold. Fresh
    arguments always occur in at least one attack; isolated ones come from
    the arguments f and g do not share, and the attack-free candidates come
    first, reading fa and ga as they are. Then the set-up appends the fresh
    names (the first `_w0`, `_w1`, … that neither f nor g holds) to `names`,
    pads the rows, makes one mask per row of the attacks no candidate adds,
    and puts the slots (i, j, 1 << j, 1 << i, endpoints) in name order, in
    which a fresh name can fall between old ones. An attack is allowed when
    it is valid for the notion on its own (an N- or S-expansion is valid iff
    each of its new attacks is). Each candidate copies the rows once, into
    one frame for both sides when fa is ga."""
    sym_diff = [1 << i for i in bits(f_mask ^ g_mask)]
    for k_iso in range(1, len(sym_diff) + 1):
        for iso in itertools.combinations(sym_diff, k_iso):
            h = sum(iso)
            yield fa, f_mask | h, ga, g_mask | h, (h, ())
    # a fresh argument takes part in an attack, and an attack touches at
    # most two, so more than 2 * max_attacks fresh arguments yield no candidate
    held, n_old, k = set(names), len(names), 0
    n = n_old + (0 if notion == "L" else min(budget.fresh_args, 2 * budget.max_attacks))
    while len(names) < n:
        if (w := f"{FRESH_PREFIX}{k}") not in held:
            names.append(w)
        k += 1
    pad = [0] * (n - n_old)
    f_succ, f_pred, g_succ, g_pred = ([*row, *pad] for row in (fa.succ, fa.pred, ga.succ, ga.pred))
    same = fa is ga
    # the attacks no candidate adds: those f and g share, and those invalid
    # for the notion on one side (N: between two of its arguments, S: also
    # from one of them to a fresh one), unless that side already has them
    excluded = [s & t for s, t in zip(f_succ, g_succ)]
    if notion in ("N", "S"):
        for succ, mask in ((f_succ, f_mask), (g_succ, g_mask)):
            for i in bits(mask):
                excluded[i] |= (mask if notion == "N" else (1 << n) - 1) & ~succ[i]
    order = sorted(range(n), key=names.__getitem__)
    for n_fresh in range(n - n_old + 1):
        fresh = ((1 << n_fresh) - 1) << n_old
        pool = [i for i in order if i < n_old + n_fresh]
        slots = [(i, j, 1 << j, 1 << i, 1 << i | 1 << j) for i in pool for j in pool if not excluded[i] >> j & 1]
        for k in range(1, min(budget.max_attacks, len(slots)) + 1):
            for attacks in itertools.combinations(slots, k):
                used = 0
                for slot in attacks:
                    used |= slot[4]
                if fresh & ~used:
                    continue  # every fresh argument must take part
                fs, fp = f_succ[:], f_pred[:]
                gs, gp = (fs, fp) if same else (g_succ[:], g_pred[:])
                for i, j, bj, bi, _ in attacks:
                    fs[i] |= bj
                    fp[j] |= bi
                    gs[i] |= bj
                    gp[j] |= bi
                fh = Frame(fs, fp)
                gh = fh if same else Frame(gs, gp)
                iso_pool = [b for b in sym_diff if not used & b]
                if not iso_pool:
                    yield fh, f_mask | used, gh, g_mask | used, (used, attacks)
                    continue
                for k_iso in range(len(iso_pool) + 1):
                    for iso in itertools.combinations(iso_pool, k_iso):
                        h = used | sum(iso)
                        yield fh, f_mask | h, gh, g_mask | h, (h, attacks)


def _deletion_candidates(fa: Frame, f_mask: int, ga: Frame, g_mask: int, notion: str, max_attacks: int):
    """The candidate deletions (B, S) after the empty one, argument sets
    outermost, as `search_counterexample`'s candidates over the pool whose
    rows fa and ga hold: the frames lose the attacks S, B leaves the argument
    masks, and the key is (B's mask, S's slots). The attack choices, and
    their frames shared by every argument choice, are made as the empty
    argument choice reaches them, so a cut scan makes only those it reached.

    A candidate (B, S) whose S holds an attack touching B comes as None, as
    the repeat of an earlier one. Deleting B removes every attack touching
    it, so on both sides F \\ [B, S] = F \\ [B, S'], where S' is the attacks
    of S that do not touch B. (B, S') has the same B and fewer attacks, so it
    came earlier, and the two sides agreed on it, or the search would have
    stopped there."""
    n = len(fa.succ)
    # the attacks of f or g, in name order, which is index order here
    slots = [(i, j, ~(1 << j), ~(1 << i), 1 << i | 1 << j) for i in range(n) for j in bits(fa.succ[i] | ga.succ[i])]
    made = [(fa, ga, 0, ())]
    for size in range(1, 0 if notion == "ND" else min(max_attacks, len(slots)) + 1):
        for atts in itertools.combinations(slots, size):
            fs, fp = list(fa.succ), list(fa.pred)
            gs, gp = (fs, fp) if fa is ga else (list(ga.succ), list(ga.pred))
            touched = 0
            for i, j, cj, ci, ends in atts:
                fs[i] &= cj
                fp[j] &= ci
                gs[i] &= cj
                gp[j] &= ci
                touched |= ends
            fd = Frame(fs, fp)
            gd = fd if fa is ga else Frame(gs, gp)
            made.append((fd, gd, touched, atts))
            yield fd, f_mask, gd, g_mask, (0, atts)
    for size in range(1, 0 if notion == "LD" else n + 1):
        for args in itertools.combinations(range(n), size):
            deleted = sum(1 << i for i in args)
            for fd, gd, touched, atts in made:
                if touched & deleted:
                    yield None
                    continue
                yield fd, f_mask & ~deleted, gd, g_mask & ~deleted, (deleted, atts)


_WITNESS_NOTIONS = EXPANSION_NOTIONS + DELETION_NOTIONS


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
    was scanned without success; complete=False means the max_candidates valve,
    checked after all the arguments, cut the scan short. A candidate is (f
    frame, its argument mask, g frame, its argument mask, key) over one pool
    of f's and g's arguments, and both sides are evaluated by
    `extension_masks`. The first is the empty scenario, f and g as they are
    (`_pool_rows`), in one frame when their rows are equal; the rest, and
    their set-up, come only if it does not separate. Only the returned
    witness is built, from its key: an expansion by `AF._from_checked`, its
    names being f's, g's or fresh. `scanned` counts the candidates reached; a
    repeated deletion scenario is counted but not evaluated.
    """
    if notion not in _WITNESS_NOTIONS:
        raise AFError(f"witness search does not handle notion {notion!r}")
    if flavor not in FLAVORS:
        raise AFError(f"unknown flavor: {flavor!r}")
    check_semantics(sigma)
    labelled = flavor == "labelling"
    if labelled:
        check_labelling_semantics(sigma)
    if max_candidates is not None and max_candidates < 0:
        raise AFError(f"max_candidates must be non-negative, got {max_candidates}")
    cap = config.max_enum_args()
    names = sorted({*f.names, *g.names})
    (fa, f_mask), (ga, g_mask) = _pool_rows(f, names), _pool_rows(g, names)
    if fa.succ == ga.succ:
        ga = fa
    if notion in EXPANSION_NOTIONS:
        rest = _expansion_candidates(fa, f_mask, ga, g_mask, names, notion, budget)
    else:
        rest = _deletion_candidates(fa, f_mask, ga, g_mask, notion, budget.max_attacks)

    def outcome(frame: Frame, within: int) -> set:
        labels = set()
        for m in extension_masks(frame, sigma, within, cap):
            out = frame.attacked_by_mask(m) & within
            labels.add((m, out, within & ~(m | out)))
        return labels

    scanned = 0
    for candidate in itertools.chain([(fa, f_mask, ga, g_mask, (0, ()))], rest):
        if max_candidates is not None and scanned >= max_candidates:
            return SearchResult(None, False, scanned)
        scanned += 1
        if candidate is None:  # a repeated deletion scenario: counted, not evaluated
            continue
        fc, f_args, gc, g_args, key = candidate
        if (
            outcome(fc, f_args) != outcome(gc, g_args)
            if labelled
            else set(extension_masks(fc, sigma, f_args, cap)) != set(extension_masks(gc, sigma, g_args, cap))
        ):
            args = [names[i] for i in bits(key[0])]
            attacks = [(names[i], names[j]) for i, j, *_ in key[1]]
            if notion in EXPANSION_NOTIONS:
                return SearchResult(AF._from_checked(sorted(args), attacks), True, scanned)
            return SearchResult(DeletionWitness(frozenset(args), frozenset(attacks)), True, scanned)
    return SearchResult(None, True, scanned)
