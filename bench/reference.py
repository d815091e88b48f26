"""Independent reference answers for the benchmark's correctness gate.

Nothing here calls afkit: every function reads only ``f.args`` and
``f.attacks`` of a framework and works from the definitions, on bitmasks of
its own. ``tests/oracles.py`` is the arbiter, but its brute force walks every
subset of every argument, self-attackers included, which is out of reach at
the 12-17 arguments the ``enumerate`` workload uses. This module walks the
subsets of the non-self-attacking arguments only, shares one conflict-free
table between all fourteen semantics, and is itself checked against the
oracles on small frameworks by ``bench/test_bench.py``.
"""

from __future__ import annotations

import itertools


def extension_key(e):
    """The documented extension order: by size, then lexicographically."""
    return (len(e), tuple(sorted(e)))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Frame:
    """All fourteen extension sets of one framework, computed on first use."""

    def __init__(self, f):
        self.names = sorted(f.args)
        index = {a: i for i, a in enumerate(self.names)}
        n = len(self.names)
        self.n = n
        self.full = (1 << n) - 1
        self.succ = [0] * n
        self.pred = [0] * n
        for a, b in f.attacks:
            self.succ[index[a]] |= 1 << index[b]
            self.pred[index[b]] |= 1 << index[a]
        self.loops = sum(1 << i for i in range(n) if self.succ[i] >> i & 1)
        self._cache = {}
        self._plus = {}
        self._cf_list = self._conflict_free()

    def _conflict_free(self):
        """Every conflict-free mask, by a table over the subsets of the
        non-self-attacking arguments (subset k extends subset k minus its
        lowest bit)."""
        free = [i for i in range(self.n) if not self.loops >> i & 1]
        size = 1 << len(free)
        plus = [0] * size
        minus = [0] * size
        real = [0] * size
        ok = bytearray(size)
        ok[0] = 1
        out = [0]
        self._plus[0] = 0
        self._minus = {0: 0}
        for k in range(1, size):
            low = k & -k
            j = low.bit_length() - 1
            rest = k ^ low
            i = free[j]
            bit = 1 << i
            real[k] = real[rest] | bit
            plus[k] = plus[rest] | self.succ[i]
            minus[k] = minus[rest] | self.pred[i]
            if ok[rest] and not (self.succ[i] | self.pred[i]) & real[k]:
                ok[k] = 1
                m = real[k]
                out.append(m)
                self._plus[m] = plus[k]
                self._minus[m] = minus[k]
        return out

    def plus(self, m):
        p = self._plus.get(m)
        if p is None:
            p = 0
            for i in _bits(m):
                p |= self.succ[i]
        return p

    def defended(self, m):
        """Gamma(m): every argument all of whose attackers m attacks."""
        p = self.plus(m)
        return sum(1 << i for i in range(self.n) if not self.pred[i] & ~p)

    def set_of(self, m):
        return frozenset(self.names[i] for i in _bits(m))

    def sets(self, masks):
        return {self.set_of(m) for m in masks}

    # -- the fourteen semantics, as lists of masks ------------------------------

    def masks(self, sigma):
        got = self._cache.get(sigma)
        if got is None:
            got = self._cache[sigma] = getattr(self, "_" + sigma)()
        return got

    def extensions(self, sigma):
        return self.sets(self.masks(sigma))

    def _cf(self):
        return self._cf_list

    def _nav(self):
        cf = set(self._cf_list)
        free = self.full & ~self.loops
        return [m for m in self._cf_list if not any(m | 1 << i in cf for i in _bits(free & ~m))]

    def _adm(self):
        return [m for m in self._cf_list if not self._minus[m] & ~self._plus[m]]

    def _com(self):
        return [m for m in self.masks("adm") if self.defended(m) == m]

    def _grd(self):
        com = self.masks("com")
        least = self.full
        for m in com:
            least &= m
        if least not in com:
            raise RuntimeError("no least complete extension")
        return [least]

    def _stb(self):
        return [m for m in self._cf_list if m | self._plus[m] == self.full]

    def _range_maximal(self, masks):
        ranges = {m: m | self._plus[m] for m in masks}
        top = _maximal_values(set(ranges.values()))
        return [m for m in masks if ranges[m] in top]

    def _stg(self):
        return self._range_maximal(self._cf_list)

    def _semi(self):
        return self._range_maximal(self.masks("adm"))

    def _prf(self):
        top = _maximal_values(set(self.masks("adm")))
        return [m for m in self.masks("adm") if m in top]

    def _below_bound(self, tops):
        bound = self.full
        for m in tops:
            bound &= m
        inside = [c for c in self.masks("com") if not c & ~bound]
        return [
            m
            for m in self.masks("adm")
            if not m & ~bound and not any(m != c and not m & ~c for c in inside)
        ]

    def _id(self):
        return self._below_bound(self.masks("prf"))

    def _eag(self):
        return self._below_bound(self.masks("semi"))

    def _sad(self):
        # A set S is strongly admissible iff iterating X -> S & Gamma(X) from
        # the empty set reaches S; every such set lies in the grounded one.
        (grd,) = self.masks("grd")
        out = []
        for m in self._cf_list:
            if m & ~grd:
                continue
            x = 0
            while True:
                nxt = m & self.defended(x)
                if nxt == x:
                    break
                x = nxt
            if x == m:
                out.append(m)
        return out

    # -- SCC-recursive semantics -------------------------------------------------

    def _components(self, u):
        key = ("scc", u)
        if key in self._cache:
            return self._cache[key]
        reach = {}
        for i in _bits(u):
            seen = 1 << i
            todo = seen
            while todo:
                j = (todo & -todo).bit_length() - 1
                todo &= todo - 1
                new = self.succ[j] & u & ~seen
                seen |= new
                todo |= new
            reach[i] = seen
        comps = set()
        for i in _bits(u):
            comps.add(sum(1 << j for j in _bits(reach[i]) if reach[j] >> i & 1))
        self._cache[key] = comps
        return comps

    def largest_scc(self):
        return max((bin(c).count("1") for c in self._components(self.full)), default=0)

    def _base_in(self, u, e, base):
        if base == "nav":
            return not any(
                not (self.succ[i] | self.pred[i]) & e for i in _bits(u & ~self.loops & ~e)
            )
        tops = self._stg_within(u)
        return e in tops

    def _stg_within(self, u):
        key = ("stg", u)
        got = self._cache.get(key)
        if got is None:
            cands = [m for m in self._cf_list if not m & ~u]
            ranges = {m: m | (self._plus[m] & u) for m in cands}
            top = _maximal_values(set(ranges.values()))
            got = self._cache[key] = {m for m in cands if ranges[m] in top}
        return got

    def _scc_recursive(self, base):
        memo = {}

        def member(u, e):
            key = (u, e)
            if key in memo:
                return memo[key]
            comps = self._components(u)
            if len(comps) <= 1:
                result = self._base_in(u, e, base)
            else:
                result = True
                for s in comps:
                    outside = e & ~s
                    attacked = 0
                    for b in _bits(outside):
                        attacked |= self.succ[b]
                    up = s & ~attacked
                    part = e & s
                    if part & ~up or not member(up, part):
                        result = False
                        break
            memo[key] = result
            return result

        return [m for m in self._cf_list if member(self.full, m)]

    def _cf2(self):
        return self._scc_recursive("nav")

    def _stg2(self):
        return self._scc_recursive("stg")

    def labellings(self, sigma):
        out = set()
        for m in self.masks(sigma):
            p = self.plus(m)
            out.add((self.set_of(m), self.set_of(p), self.set_of(self.full & ~(m | p))))
        return out


def _maximal_values(values):
    """The subset-maximal masks among `values`, by descending popcount."""
    top = []
    for v in sorted(values, key=lambda m: -bin(m).count("1")):
        if not any(v != t and not v & ~t for t in top):
            top.append(v)
    return set(top)


def ordered(sets):
    """Sets in the documented extension order."""
    return sorted(sets, key=extension_key)


# -- framework operations, from the definitions ---------------------------------


def union_parts(f, h):
    """Arguments and attacks of the pointwise union f U h."""
    return f.args | h.args, f.attacks | h.attacks


def delete_parts(f, args, attacks):
    keep = f.args - set(args)
    return keep, {(a, b) for a, b in f.attacks - set(attacks) if a in keep and b in keep}


def is_normal_expansion(base, h):
    return all(a not in base.args or b not in base.args for a, b in h.attacks - base.attacks)


def is_strong_expansion(base, h):
    return is_normal_expansion(base, h) and all(
        not (a in base.args and b not in base.args) for a, b in h.attacks - base.attacks
    )


# Expansion-equivalence kernels (Oikarinen & Woltran 2011): the attack (a, b),
# a != b, is dropped when the condition holds; loops always stay.
_DROP = {
    "k_stb": lambda loop, r, a, b: loop(a),
    "k_adm": lambda loop, r, a, b: loop(a) and ((b, a) in r or loop(b)),
    "k_grd": lambda loop, r, a, b: loop(b) and (loop(a) or (b, a) in r),
    "k_com": lambda loop, r, a, b: loop(a) and loop(b),
}

E_KERNEL = {"stb": "k_stb", "adm": "k_adm", "grd": "k_grd", "com": "k_com"}


def kernel_parts(f, kind):
    r = f.attacks

    def loop(x):
        return (x, x) in r

    drop = _DROP[kind]
    return f.args, frozenset((a, b) for a, b in r if a == b or not drop(loop, r, a, b))


def rho_table(universe, sigma):
    """rho'(F) for every framework F over the universe, as a map from
    (args, attacks) to the set of (args, attacks) of frameworks strongly
    equivalent to some superframework of F."""
    names = sorted(universe)
    afs = []
    for r in range(len(names) + 1):
        for args in itertools.combinations(names, r):
            slots = [(x, y) for x in args for y in args]
            for n_att in range(len(slots) + 1):
                for atts in itertools.combinations(slots, n_att):
                    afs.append((frozenset(args), frozenset(atts)))

    class _F:
        __slots__ = ("args", "attacks")

        def __init__(self, args, attacks):
            self.args, self.attacks = args, attacks

    kind = E_KERNEL[sigma]
    ker = {af: kernel_parts(_F(*af), kind) for af in afs}
    classes = {}
    for af in afs:
        classes.setdefault(ker[af], set()).add(af)
    out = {}
    for f in afs:
        acc = set()
        for g in afs:
            if f[0] <= g[0] and f[1] <= g[1]:
                acc |= classes[ker[g]]
        out[f] = frozenset(acc)
    return out


# -- finite logics ----------------------------------------------------------------


def strong_partition(logic):
    """Strong-equivalence blocks as a set of frozensets of theories."""
    theories = list(logic.table)
    sig = {t: tuple(logic.table[t | u] for u in sorted(theories, key=extension_key)) for t in theories}
    blocks = {}
    for t in theories:
        blocks.setdefault(sig[t], set()).add(t)
    return {frozenset(b) for b in blocks.values()}


def characterization_models(logic):
    """For each theory T, the theories strongly equivalent to a supertheory of T."""
    blocks = strong_partition(logic)
    block_of = {t: b for b in blocks for t in b}
    return {
        t: frozenset(m for s in logic.table if t <= s for m in block_of[s])
        for t in logic.table
    }


def intersection_holds(logic):
    full = frozenset(logic.interpretations)
    for t, models in logic.table.items():
        meet = full
        for atom in t:
            meet &= logic.table[frozenset((atom,))]
        if models != meet:
            return False
    return True
