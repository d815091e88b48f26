"""Independent brute-force oracles used to cross-check the library.

Everything here works on plain frozensets straight from the definitions, with
no shared code paths with afkit's bitmask implementations.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from afkit.core import AF


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


def defends(f: AF, e, a) -> bool:
    return all(attacks_between(f, e, {b}) for b in f.args if (b, a) in f.attacks)


def adm_oracle(f: AF):
    return {s for s in cf_oracle(f) if all(defends(f, s, a) for a in s)}


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
