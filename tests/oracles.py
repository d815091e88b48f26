"""Independent brute-force oracles used to cross-check the library.

Everything here works on plain frozensets straight from the definitions, with
no shared code paths with afkit's bitmask implementations (`kernel_oracle`
states each kernel over argument names and attack pairs). There are two
exceptions. `witness_oracle`, the string-level witness search, builds every
candidate scenario as a whole framework and compares those through afkit's
`extensions`/`labellings`, so it checks the mask-level search's candidate
order, pool indexing and sub-framework masks against the engine's plain
entry point. `adm_masks_by_filter` sweeps every conflict-free set with the
engine's unguarded walk and then filters, so it checks the guarded walk's
look-ahead and order against the plain sweep.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from afkit.charlogic import FiniteLogic, theory_key
from afkit.core import AF, AFError, delete, union_af
from afkit.kernels import (
    DELETION_NOTIONS,
    EXPANSION_NOTIONS,
    FRESH_PREFIX,
    DeletionWitness,
    characterizing_kernel,
)
from afkit.semantics import Labelling, cf_masks, check_labelling_semantics, check_semantics, extensions, labellings


def powerset(xs):
    xs = sorted(xs)
    for r in range(len(xs) + 1):
        for combo in itertools.combinations(xs, r):
            yield frozenset(combo)


def attacks_between(f: AF, xs, ys) -> bool:
    return any((a, b) in f.attacks for a in xs for b in ys)


def cf_oracle(f: AF):
    return {s for s in powerset(f.args) if not attacks_between(f, s, s)}


def plus(f: AF, e):
    return frozenset(b for a, b in f.attacks if a in e)


def minus(f: AF, e):
    return frozenset(a for a, b in f.attacks if b in e)


def labelling_oracle(f: AF, e) -> Labelling:
    """The labelling of extension e: in e, out what e attacks, undec the rest."""
    return Labelling(frozenset(e), plus(f, e), f.args - e - plus(f, e))


def defends(f: AF, e, a) -> bool:
    return all(attacks_between(f, e, {b}) for b in f.args if (b, a) in f.attacks)


def adm_oracle(f: AF):
    return {s for s in cf_oracle(f) if all(defends(f, s, a) for a in s)}


def adm_masks_by_filter(f, within: int, root: int = 0) -> list[int]:
    """The admissible sets containing the admissible `root`, in walk order, by
    the full sweep: root | m for every conflict-free set m outside root and
    its range, kept when root | m attacks each of its attackers in `within`."""
    root_out = f.attacked_by_mask(root)
    return [
        root | m
        for m, attacked, attacking in cf_masks(f, within & ~(root | root_out))
        if attacking & within & ~(root_out | attacked) == 0
    ]


def maximal_oracle(masks, key=None) -> list[int]:
    """The masks whose key (default: the mask) is not a proper subset of
    another mask's key, by all pairs: `semantics.maximal` by definition."""
    keys = [key(m) if key else m for m in masks]
    return [m for m, k in zip(masks, keys) if not any(k != o and k & ~o == 0 for o in keys)]


def select_oracle(sigma: str, sets, in_range, within: int) -> list[int]:
    """`semantics.select` by its definition, with every maximality test
    made by all pairs (`maximal_oracle`): nav and prf keep the ⊆-maximal
    sets, stg and semi the range-maximal ones, stb those whose range is
    `within`, and id and eag the greatest set below the meet of the
    ⊆-maximal (id) or range-maximal (eag) ones."""
    if sigma in ("nav", "prf"):
        return maximal_oracle(sets)
    if sigma in ("stg", "semi"):
        return maximal_oracle(sets, in_range)
    if sigma == "stb":
        return [m for m in sets if in_range(m) == within]
    meet = within
    for m in maximal_oracle(sets, None if sigma == "id" else in_range):
        meet &= m
    return maximal_oracle([m for m in sets if m & ~meet == 0])


def nav_oracle(f: AF):
    cf = cf_oracle(f)
    return {s for s in cf if not any(s < t for t in cf)}


def stb_oracle(f: AF):
    return {s for s in cf_oracle(f) if s | plus(f, s) == f.args}


def stg_oracle(f: AF):
    cf = cf_oracle(f)
    rng = {s: s | plus(f, s) for s in cf}
    return {s for s in cf if not any(rng[s] < rng[t] for t in cf)}


def semi_oracle(f: AF):
    adm = adm_oracle(f)
    rng = {s: s | plus(f, s) for s in adm}
    return {s for s in adm if not any(rng[s] < rng[t] for t in adm)}


def com_oracle(f: AF):
    return {
        s
        for s in adm_oracle(f)
        if all(a in s for a in f.args if defends(f, s, a))
    }


def grd_oracle(f: AF):
    # least complete set, an independent formulation of the least fixpoint
    com = com_oracle(f)
    return {s for s in com if all(s <= t for t in com)}


def prf_oracle(f: AF):
    adm = adm_oracle(f)
    com = com_oracle(f)
    return {s for s in adm if not any(s < t for t in com)}


def id_oracle(f: AF):
    bound = frozenset(f.args)
    for p in prf_oracle(f):
        bound &= p
    com = com_oracle(f)
    return {
        s
        for s in adm_oracle(f)
        if s <= bound and not any(s < t <= bound for t in com)
    }


def eag_oracle(f: AF):
    bound = frozenset(f.args)
    for p in semi_oracle(f):
        bound &= p
    com = com_oracle(f)
    return {
        s
        for s in adm_oracle(f)
        if s <= bound and not any(s < t <= bound for t in com)
    }


def sad_selfref_oracle(f: AF):
    """Self-referential definition: every member is defended by a strongly
    admissible subset not containing it."""

    @lru_cache(maxsize=None)
    def is_sad(s: frozenset) -> bool:
        return all(
            any(
                is_sad(t) and defends(f, t, a)
                for t in powerset(s - {a})
            )
            for a in s
        )

    return {s for s in powerset(f.args) if is_sad(s)}


def _up(f: AF, s, e):
    return frozenset(a for a in s if not any((b, a) in f.attacks for b in e - s))


def _scc_oracle(f: AF):
    """SCCs by reachability matrix."""
    reach = {a: {a} for a in f.args}
    changed = True
    while changed:
        changed = False
        for a, b in f.attacks:
            extra = reach[b] - reach[a]
            if extra:
                reach[a] |= extra
                changed = True
    comps = set()
    for a in f.args:
        comps.add(frozenset(x for x in f.args if x in reach[a] and a in reach[x]))
    return comps


def scc_recursive_oracle(f: AF, base):
    def member(g: AF, e) -> bool:
        comps = _scc_oracle(g)
        if len(comps) <= 1:
            return e in base(g)
        for s in comps:
            up = _up(g, s, e)
            if not e & s <= up:
                return False
            if not member(g.restrict(up), frozenset(e & s)):
                return False
        return True

    return {s for s in cf_oracle(f) if member(f, s)}


def cf2_oracle(f: AF):
    return scc_recursive_oracle(f, nav_oracle)


def stg2_oracle(f: AF):
    return scc_recursive_oracle(f, stg_oracle)


ORACLES = {
    "cf": cf_oracle,
    "nav": nav_oracle,
    "adm": adm_oracle,
    "com": com_oracle,
    "grd": grd_oracle,
    "stb": stb_oracle,
    "stg": stg_oracle,
    "semi": semi_oracle,
    "prf": prf_oracle,
    "id": id_oracle,
    "eag": eag_oracle,
    "sad": sad_selfref_oracle,
    "cf2": cf2_oracle,
    "stg2": stg2_oracle,
}


# -- signature properties of candidate extension-sets, from their definitions --


def _joint_pairs(sets):
    """Pairs(S): the ordered pairs (a, b), a = b included, of arguments that
    occur together in some set."""
    return {(a, b) for s in sets for a in s for b in s}


def implicit_conflicts_oracle(f: AF, exts):
    """The pairs {a, b}, a = b included, that no extension of `exts` holds
    together although neither attacks the other."""
    joint = _joint_pairs(exts)
    return {
        frozenset((a, b))
        for a in f.args
        for b in f.args
        if (a, b) not in joint and (a, b) not in f.attacks and (b, a) not in f.attacks
    }


def incomparable_oracle(sets) -> bool:
    return not any(s < t for s in sets for t in sets)


def downward_closed_oracle(sets) -> bool:
    sets = set(sets)
    return all(t in sets for s in sets for t in powerset(s))


def tight_oracle(sets) -> bool:
    """For every S in the collection and every argument a of it, S ∪ {a} is
    in the collection or a does not occur together with some member of S."""
    sets = set(sets)
    pairs = _joint_pairs(sets)
    args = frozenset().union(*sets)
    return all(s | {a} in sets or any((a, b) not in pairs for b in s) for s in sets for a in args)


def dcl_tight_oracle(sets) -> bool:
    """Tightness of the downward closure."""
    return tight_oracle({t for s in sets for t in powerset(s)})


def conflict_sensitive_oracle(sets) -> bool:
    """For all S, T in the collection, S ∪ T is in it too unless two of its
    arguments never occur together."""
    sets = set(sets)
    pairs = _joint_pairs(sets)
    return all(
        s | t in sets or any((a, b) not in pairs for a in s | t for b in s | t)
        for s in sets
        for t in sets
    )


def defense_cnf_oracle(sets, a):
    """The ⊆-minimal sets of arguments other than `a` that meet every
    disjunct of a's defense formula (each set holding `a`, without it), by
    trying every such set. A tautology has an empty disjunct, which no set
    meets, so its family is empty."""
    disjuncts = [s - {a} for s in sets if a in s]
    others = frozenset().union(*sets) - {a}
    hitting = [c for c in powerset(others) if all(c & d for d in disjuncts)]
    return {c for c in hitting if not any(o < c for o in hitting)}


def all_afs(names):
    """Every framework on exactly the given argument names."""
    names = sorted(names)
    slots = [(x, y) for x in names for y in names]
    for bits in range(1 << len(slots)):
        yield AF(names, [slots[i] for i in range(len(slots)) if bits >> i & 1])


def random_af(rng, pool, p_attack=0.3):
    names = sorted(rng.sample(sorted(pool), rng.randint(1, len(pool))))
    attacks = [
        (a, b) for a in names for b in names if rng.random() < p_attack
    ]
    return AF(names, attacks)


# -- kernels -----------------------------------------------------------------


def kernel_oracle(f: AF, kind: str) -> AF:
    """The kernel constructions stated attack by attack over argument names:
    which attacks (a, b), a != b, each kernel keeps (k_nav: adds)."""
    r = f.attacks
    args = f.names
    if kind == "identity":
        return f

    def loop(a: str) -> bool:
        return (a, a) in r

    def keep(a: str, b: str) -> bool:
        if a == b:
            return True
        if kind == "k_stb":
            return not loop(a)
        if kind == "k_adm":
            return not (loop(a) and ((b, a) in r or loop(b)))
        if kind == "k_grd":
            return not (loop(b) and (loop(a) or (b, a) in r))
        if kind == "k_com":
            return not (loop(a) and loop(b))
        if kind == "ks_adm":
            first = loop(a) and ((b, a) in r or loop(b))
            second = loop(b) and all(
                (a, c) in r or (c, a) in r or loop(c) or (c, b) in r
                for c in args
                if (b, c) in r
            )
            return not (first or second)
        if kind == "ks_grd":
            first = loop(b) and (loop(a) or (b, a) in r)
            second = loop(b) and all(
                (a, c) in r or (c, a) in r or loop(c) for c in args if (b, c) in r
            )
            return not (first or second)
        if kind == "ks_com":
            first = loop(a) and loop(b)
            second = (
                loop(b)
                and (b, a) not in r
                and all(
                    (a, c) in r or (c, a) in r or loop(c) or (c, b) in r
                    for c in args
                    if (b, c) in r
                )
            )
            return not (first or second)
        if kind == "ks_stg":
            return not (loop(a) or all(loop(c) for c in args if c != a))
        raise AFError(f"unknown kernel: {kind!r}")

    if kind == "k_nav":
        extra = [
            (a, b)
            for a in args
            for b in args
            if a != b and (loop(a) or (b, a) in r or loop(b))
        ]
        return AF(args, list(r) + extra)
    return AF(args, [(a, b) for a, b in r if keep(a, b)])


# -- witness search ----------------------------------------------------------


def witness_oracle(
    f: AF, g: AF, notion: str, sigma: str, budget, flavor="extension", max_candidates=None
):
    """The bounded witness search at the string level: every candidate
    expansion is built as an AF and joined with `union_af`, every deletion
    applied with `delete`, and the two results compared through afkit's
    `extensions`/`labellings` on whole frameworks. Returns (witness, complete,
    candidates evaluated), taking candidates in the same order as
    `kernels.search_counterexample`."""
    if notion not in EXPANSION_NOTIONS + DELETION_NOTIONS:
        raise AFError(f"witness search does not handle notion {notion!r}")
    check_semantics(sigma)
    if flavor == "labelling":  # refused before the max_candidates valve
        check_labelling_semantics(sigma)

    def differ(x: AF, y: AF) -> bool:
        if flavor == "labelling":
            return set(labellings(x, sigma)) != set(labellings(y, sigma))
        return extensions(x, sigma) != extensions(y, sigma)

    if notion in EXPANSION_NOTIONS:
        candidates = _oracle_expansions(f, g, notion, budget)
        separates = lambda h: differ(union_af(f, h), union_af(g, h))
    else:
        candidates = _oracle_deletions(f, g, notion, budget)
        separates = lambda w: differ(delete(f, w.args, w.attacks), delete(g, w.args, w.attacks))
    seen = 0
    for w in candidates:
        if max_candidates is not None and seen >= max_candidates:
            return None, False, seen
        seen += 1
        if separates(w):
            return w, True, seen
    return None, True, seen


def _is_normal_for(base: AF, h: AF) -> bool:
    return all(a not in base.args or b not in base.args for a, b in h.attacks - base.attacks)


def _is_strong_for(base: AF, h: AF) -> bool:
    return _is_normal_for(base, h) and all(
        not (a in base.args and b not in base.args) for a, b in h.attacks - base.attacks
    )


def _valid_expansion(f: AF, g: AF, h: AF, notion: str) -> bool:
    if notion == "N":
        return _is_normal_for(f, h) and _is_normal_for(g, h)
    if notion == "S":
        return _is_strong_for(f, h) and _is_strong_for(g, h)
    if notion == "L":
        return h.args <= (f.args | g.args)
    return True


def _oracle_expansions(f: AF, g: AF, notion: str, budget):
    """Expansions H by (fresh-argument count, attack count, lexicographic
    form); fresh arguments occur in an attack, isolated ones come from the
    symmetric difference of the argument sets. The fresh names are the first
    _w0, _w1, … that neither framework holds."""
    old = sorted(f.args | g.args)
    sym_diff = sorted(f.args ^ g.args)
    boring = f.attacks & g.attacks
    max_fresh = 0 if notion == "L" else budget.fresh_args
    unused = [w for w in (f"{FRESH_PREFIX}{i}" for i in range(len(old) + max_fresh)) if w not in old]
    for n_fresh in range(max_fresh + 1):
        fresh = unused[:n_fresh]
        pool = old + fresh
        slots = sorted((a, b) for a in pool for b in pool if (a, b) not in boring)
        for n_att in range(budget.max_attacks + 1):
            for attacks in itertools.combinations(slots, n_att):
                used = {a for pair in attacks for a in pair}
                if any(x not in used for x in fresh):
                    continue
                iso_pool = [a for a in sym_diff if a not in used]
                for k_iso in range(len(iso_pool) + 1):
                    for iso in itertools.combinations(iso_pool, k_iso):
                        h = AF(used | set(iso), attacks)
                        if _valid_expansion(f, g, h, notion):
                            yield h


def _oracle_deletions(f: AF, g: AF, notion: str, budget):
    old = sorted(f.args | g.args)
    all_attacks = sorted(f.attacks | g.attacks)
    arg_choices = [()] if notion == "LD" else [
        c for size in range(len(old) + 1) for c in itertools.combinations(old, size)
    ]
    att_choices = [()] if notion == "ND" else [
        c
        for size in range(min(budget.max_attacks, len(all_attacks)) + 1)
        for c in itertools.combinations(all_attacks, size)
    ]
    for args in arg_choices:
        for atts in att_choices:
            yield DeletionWitness(frozenset(args), frozenset(atts))


# -- verification criteria ---------------------------------------------------
#
# The quadratic forms of two criteria of `verifiability`, over masked class
# data as its `_GAMMA` reads it: (base, info) masks of every conflict-free
# set. The library checks one-argument extensions instead.


def gamma_com_pairwise(entries, args):
    """Admissible sets none of whose conflict-free proper supersets has all its
    outside attackers in the set's range, over all pairs of entries."""
    digest = {b: (plus, minus & ~b) for b, (plus, minus) in entries}
    return [
        s
        for s, (plus, attackers) in digest.items()
        if attackers & ~plus == 0
        and all(a & ~plus for o, (_, a) in digest.items() if o != s and s & ~o == 0)
    ]


def gamma_sad_scan(entries, args):
    """The chain criterion from every reachable subset: a set is reachable when
    it is empty or some reachable proper subset t has the set's attackers
    new to it inside t's attacked-and-unattacking part."""
    digest = {b: (anti & ~b, pm) for b, (anti, pm) in entries}
    reachable: list[int] = []
    for b in sorted(digest):
        attackers = digest[b][0]
        if b == 0 or any(
            t & ~b == 0 and attackers & ~digest[t][0] & ~digest[t][1] == 0 for t in reachable
        ):
            reachable.append(b)
    return reachable


# -- finite logics -----------------------------------------------------------


def is_antimonotone(logic) -> bool:
    for t1 in logic.theories:
        for t2 in logic.theories:
            if t1 <= t2 and not logic.table[t2] <= logic.table[t1]:
                return False
    return True


def canonical_theory_function(logic):
    def th(k):
        out = set()
        for t in logic.theories:
            if k <= logic.table[t]:
                out |= t
        return frozenset(out)

    return th


def galois_oracle(logic) -> bool:
    """Whether the model function and the canonical theory function form a
    Galois correspondence, straight from the definition: both antimonotone and
    both compositions increasing, over all 2^|interpretations| sets."""
    th = canonical_theory_function(logic)
    interp_sets = list(powerset(logic.interpretations))
    if not is_antimonotone(logic):
        return False
    for k1 in interp_sets:
        for k2 in interp_sets:
            if k1 <= k2 and not th(k2) <= th(k1):
                return False
    for t in logic.theories:
        if not t <= th(logic.table[t]):
            return False
    for k in interp_sets:
        if not k <= logic.models(th(k)):
            return False
    return True


def strong_eq_oracle(logic):
    """Blocks of strong equivalence straight from the definition: one
    signature per theory, its models under every extension by a theory."""
    theories = logic.theories
    groups = {}
    for t in theories:
        groups.setdefault(tuple(logic.table[t | u] for u in theories), []).append(t)
    blocks = [tuple(sorted(g, key=theory_key)) for g in groups.values()]
    return tuple(sorted(blocks, key=lambda b: theory_key(b[0])))


def canonical_characterization_oracle(logic) -> FiniteLogic:
    """The canonical characterization over all pairs of theories: the models
    of t are the ids of every block that holds a superset of t."""
    theories = logic.theories
    ids = {t: f"t{i}" for i, t in enumerate(theories)}
    block_of = {t: b for b in strong_eq_oracle(logic) for t in b}
    table = {
        t: frozenset(ids[m] for s in theories if t <= s for m in block_of[s])
        for t in theories
    }
    legend = {ids[t]: "{" + ",".join(sorted(t)) + "}" for t in theories}
    return FiniteLogic(logic.atoms, tuple(ids[t] for t in theories), table, legend)


def is_characterization_oracle(candidate, target) -> bool:
    """Same grouping as strong target-equivalence, and binary intersection,
    both over all pairs of theories."""
    block_of = {t: b for b in strong_eq_oracle(target) for t in b}
    ts = target.theories
    cand = candidate.table
    for t1 in ts:
        for t2 in ts:
            if (cand[t1] == cand[t2]) != (block_of[t1] is block_of[t2]):
                return False
            if cand[t1 | t2] != cand[t1] & cand[t2]:
                return False
    return True


def consequence_properties_oracle(logic) -> dict:
    """Cn(t) = th(models(t)) for every theory, monotonicity over all pairs."""
    th = canonical_theory_function(logic)
    ts = logic.theories
    cn = {t: th(logic.table[t]) for t in ts}
    return {
        "increasing": all(t <= cn[t] for t in ts),
        "monotone": all(cn[t1] <= cn[t2] for t1 in ts for t2 in ts if t1 <= t2),
        "idempotent": all(cn[cn[t]] <= cn[t] for t in ts),
    }


def rho_oracle(universe, sigma) -> dict:
    """rho'(F) over all pairs of frameworks on the universe: the kernel classes
    of every G with F's arguments and attacks among G's."""
    k = characterizing_kernel("E", sigma, "extension")
    afs = [f for args in powerset(universe) for f in all_afs(args)]
    kernels = {f: kernel_oracle(f, k) for f in afs}
    classes = {}
    for f in afs:
        classes.setdefault(kernels[f], []).append(f)
    return {
        f: frozenset(
            h for g in afs if f.args <= g.args and f.attacks <= g.attacks
            for h in classes[kernels[g]]
        )
        for f in afs
    }
