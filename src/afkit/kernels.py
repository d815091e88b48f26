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
    rows = _pool_rows(f, g, names)
    shared = rows[0][2] & rows[1][2]
    # per side: its rows, its non-shared arguments and its self-loops
    sides = [(succ, pred, mask & ~shared, Frame(succ, pred).loops_mask()) for succ, pred, mask in rows]
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


def _pool_rows(f: AF, g: AF, names: list):
    """The successor and predecessor rows of f and of g over the indices of
    the pool `names`, each with its argument mask."""
    index = {a: i for i, a in enumerate(names)}
    out = []
    for x in (f, g):
        succ, pred = [0] * len(names), [0] * len(names)
        for a, b in x.attacks:
            i, j = index[a], index[b]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
        out.append((succ, pred, sum(1 << index[a] for a in x.names)))
    return out


def _expansion_candidates(f: AF, g: AF, names: list, n_old: int, notion: str, max_attacks: int):
    """Candidate expansions H, ordered by (fresh-argument count, attack count,
    lexicographic form), as (f∪H frame, its arguments, g∪H frame, its
    arguments, key), where key is (H's argument mask, H's attack slots), over
    the pool `names`: the n_old arguments of f and g, then the fresh ones.
    Fresh arguments always occur in at least one attack; isolated ones come
    from the arguments f and g do not share. An attack is allowed when it is
    valid for the notion on its own (an N- or S-expansion is valid iff each
    of its new attacks is). After the attack-free candidates, the set-up is
    one mask per pool row of the attacks no candidate adds, and the slots
    (i, j, 1 << j, 1 << i, endpoints) in name order, in which a fresh name can
    fall between old ones. Each candidate copies the pool rows once; when
    the rows of f and g are equal, both sides read the same frame."""
    (f_succ, f_pred, f_mask), (g_succ, g_pred, g_mask) = _pool_rows(f, g, names)
    same = f_succ == g_succ
    sym_diff = [1 << i for i in bits(f_mask ^ g_mask)]

    def attack_sets():  # (fresh mask, attack sets of one attack up) per fresh count
        n = len(names)
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
            pool = [i for i in order if i < n_old + n_fresh]
            slots = [(i, j, 1 << j, 1 << i, 1 << i | 1 << j) for i in pool for j in pool if not excluded[i] >> j & 1]
            yield ((1 << n_fresh) - 1) << n_old, itertools.chain.from_iterable(
                itertools.combinations(slots, k) for k in range(1, min(max_attacks, len(slots)) + 1)
            )

    for fresh, choices in itertools.chain([(0, [()])], attack_sets()):
        for attacks in choices:
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
            fa = Frame(fs, fp)
            ga = fa if same else Frame(gs, gp)
            iso_pool = [b for b in sym_diff if not used & b]
            if not iso_pool:
                yield fa, f_mask | used, ga, g_mask | used, (used, attacks)
                continue
            for k_iso in range(len(iso_pool) + 1):
                for iso in itertools.combinations(iso_pool, k_iso):
                    h = used | sum(iso)
                    yield fa, f_mask | h, ga, g_mask | h, (h, attacks)


def _deletion_candidates(f: AF, g: AF, names: list, notion: str, max_attacks: int):
    """Candidate deletions (B, S), argument sets outermost, in the tuple form
    of `_expansion_candidates` over the pool `names` of f's and g's arguments:
    the frames lose the attacks S, B leaves the argument masks, and the key
    is (B's mask, S's slots). The attack choices, and their frames shared by
    every argument choice, are made as the first argument choice (the empty
    one) reaches them, so a cut scan makes only those it reached.

    A candidate (B, S) whose S holds an attack touching B comes as None, as
    the repeat of an earlier one. Deleting B removes every attack touching
    it, so on both sides F \\ [B, S] = F \\ [B, S'], where S' is the attacks
    of S that do not touch B. (B, S') has the same B and fewer attacks, so it
    came earlier, and the two sides agreed on it, or the search would have
    stopped there."""
    n = len(names)
    (f_succ, f_pred, f_mask), (g_succ, g_pred, g_mask) = _pool_rows(f, g, names)
    same = f_succ == g_succ
    # the attacks of f or g, in name order, which is index order here
    slots = [(i, j, ~(1 << j), ~(1 << i), 1 << i | 1 << j) for i in range(n) for j in bits(f_succ[i] | g_succ[i])]
    att_choices = [()] if notion == "ND" else (
        c for size in range(min(max_attacks, len(slots)) + 1) for c in itertools.combinations(slots, size)
    )
    made = []
    for atts in att_choices:
        fs, fp = f_succ[:], f_pred[:]
        gs, gp = (fs, fp) if same else (g_succ[:], g_pred[:])
        touched = 0
        for i, j, cj, ci, ends in atts:
            fs[i] &= cj
            fp[j] &= ci
            gs[i] &= cj
            gp[j] &= ci
            touched |= ends
        fa = Frame(fs, fp)
        ga = fa if same else Frame(gs, gp)
        made.append((fa, ga, touched, atts))
        yield fa, f_mask, ga, g_mask, (0, atts)
    for size in range(1, 0 if notion == "LD" else n + 1):
        for args in itertools.combinations(range(n), size):
            deleted = sum(1 << i for i in args)
            for fa, ga, touched, atts in made:
                if touched & deleted:
                    yield None
                    continue
                yield fa, f_mask & ~deleted, ga, g_mask & ~deleted, (deleted, atts)


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
    was scanned without success; complete=False means the max_candidates valve
    cut the scan short. Candidates are evaluated on masks over one argument
    pool, both sides of each candidate by `extension_masks`; only the returned
    witness is built, as a framework or deletion, from its candidate's key.
    `scanned` counts the candidates reached. A deletion candidate that
    repeats an earlier scenario is counted but not evaluated (see
    `_deletion_candidates`).
    """
    if notion not in _WITNESS_NOTIONS:
        raise AFError(f"witness search does not handle notion {notion!r}")
    if flavor not in FLAVORS:
        raise AFError(f"unknown flavor: {flavor!r}")
    check_semantics(sigma)
    held = {*f.names, *g.names}
    names = sorted(held)
    if notion in EXPANSION_NOTIONS:
        # the fresh names are the first _w0, _w1, … that neither f nor g
        # holds; a fresh argument takes part in an attack, and an attack touches
        # at most two, so more than 2 * max_attacks fresh arguments yield no candidate
        n_old = len(names)
        unused = (w for w in map(f"{FRESH_PREFIX}{{}}".format, itertools.count()) if w not in held)
        names += itertools.islice(unused, 0 if notion == "L" else min(budget.fresh_args, 2 * budget.max_attacks))
        candidates = _expansion_candidates(f, g, names, n_old, notion, budget.max_attacks)
    else:
        candidates = _deletion_candidates(f, g, names, notion, budget.max_attacks)
    labelled = flavor == "labelling"

    def outcome(frame: Frame, within: int) -> set:
        labels = set()
        for m in extension_masks(frame, sigma, within, cap):
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
            if labelled:
                check_labelling_semantics(sigma)
            cap = config.max_enum_args()
        scanned += 1
        if candidate is None:  # a repeated deletion scenario: counted, not evaluated
            continue
        fa, f_args, ga, g_args, key = candidate
        if (
            outcome(fa, f_args) != outcome(ga, g_args)
            if labelled
            else set(extension_masks(fa, sigma, f_args, cap)) != set(extension_masks(ga, sigma, g_args, cap))
        ):
            args = [names[i] for i in bits(key[0])]
            attacks = [(names[i], names[j]) for i, j, *_ in key[1]]
            if notion in EXPANSION_NOTIONS:
                return SearchResult(AF(args, attacks), True, scanned)
            return SearchResult(DeletionWitness(frozenset(args), frozenset(attacks)), True, scanned)
    return SearchResult(None, True, scanned)
