"""Finite argumentation frameworks and the set algebra everything else builds on.

Arguments are plain strings over [A-Za-z0-9_]. An AF interns its arguments to
dense indices (lexicographic order) and stores the attack relation as
per-argument successor/predecessor bitmasks (its `Frame` part), so range
computations and the exhaustive subset sweeps of the semantics module stay
cheap.

All values are immutable after construction; every operation is a pure
function returning fresh values.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

ARG_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")

# Names starting with "_" are reserved for machine-generated arguments
# (witness search, canonical constructions); `check_user_name` rejects them in user input.
RESERVED_PREFIX = "_"


class AFError(ValueError):
    """Malformed framework or argument-set input."""


def check_arg_name(name: str) -> str:
    if not isinstance(name, str) or not ARG_NAME_RE.match(name):
        raise AFError(f"invalid argument name: {name!r}")
    return name


def check_user_name(name: str) -> str:
    """name, if user input may give it to an argument: a valid argument name
    without the reserved prefix. Raises AFError otherwise."""
    if check_arg_name(name).startswith(RESERVED_PREFIX):
        raise AFError(f"argument names starting with {RESERVED_PREFIX!r} are reserved: {name!r}")
    return name


def extension_key(e: frozenset[str]):
    """The order of sets of names, extensions and theories alike: by size, then by sorted members."""
    return (len(e), tuple(sorted(e)))


class Record:
    """Base of the small immutable value types: a subclass names its fields
    in `_fields` and stores them from its own `__init__` by one item store per
    field into `self.__dict__` (`d = self.__dict__; d["x"] = x; ...`). Item
    stores keep the instance dict sharing its class's keys, where one
    `__dict__.update` gives each instance its own table: a three-field
    `Labelling` takes 168 bytes besides its values instead of 248 (CPython
    3.11, tracemalloc). ==, hash and repr go by the fields in that order: ==
    holds only between instances of one class, the hash is that of the tuple of fields,
    and the repr reads `Name(field=value, ...)`. Assigning or deleting any
    attribute raises FrozenInstanceError, whose module is imported on that
    path only. Instances keep their `__dict__`, so `vars()`,
    `functools.cached_property` and default pickling work on them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        _refuse("assign to", name)

    def __delattr__(self, name):
        _refuse("delete", name)


def _refuse(action: str, name: str):
    from dataclasses import FrozenInstanceError  # loaded on this error path only

    raise FrozenInstanceError(f"cannot {action} field {name!r}")


class Frame:
    """An attack relation over the dense indices 0..n-1, as per-index successor
    and predecessor bitmasks: all the mask engine of the semantics module
    reads. The witness search builds these directly over an index pool, and
    one frame may serve both sides of a candidate. The rows are never written
    after construction."""

    __slots__ = ("succ", "pred")

    def __init__(self, succ, pred):
        self.succ = succ
        self.pred = pred

    @property
    def n(self) -> int:
        return len(self.succ)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.succ)) - 1

    def attacked_by_mask(self, mask: int) -> int:
        """The union of the successor rows over the set bits of mask (`bits`
        inlined: this is the engine's innermost loop)."""
        succ, out = self.succ, 0
        while mask:
            low = mask & -mask
            out |= succ[low.bit_length() - 1]
            mask ^= low
        return out

    def attackers_of_mask(self, mask: int) -> int:
        # what mask attacks in the reversed relation
        return Frame(self.pred, self.succ).attacked_by_mask(mask)

    def loops_mask(self) -> int:
        m = 0
        for i in range(len(self.succ)):
            if self.succ[i] & (1 << i):
                m |= 1 << i
        return m


class AF(Frame):
    """Immutable finite argumentation framework (argument set + attack relation)."""

    __slots__ = ("names", "index", "_attacks", "_hash")

    def __init__(self, args: Iterable[str], attacks: Iterable[tuple[str, str]] = ()):
        self._build(tuple(sorted({check_arg_name(a) for a in args})), attacks)

    @classmethod
    def _from_checked(cls, names: Sequence[str], attacks: Iterable[tuple[str, str]] = ()) -> "AF":
        """`AF(names, attacks)` without the name check, for frameworks the
        library makes from names already checked (another framework's, or a
        public call's input after its own check, and helper names made from
        them). The names must be sorted, distinct and valid, and the attacks
        between them. Code reading user input builds through `AF(...)`."""
        f = cls.__new__(cls)
        f._build(tuple(names), attacks)
        return f

    def _build(self, names: tuple[str, ...], attacks: Iterable[tuple[str, str]]) -> None:
        """The one construction body, over sorted, distinct, valid names. An
        attack endpoint outside them fails its index lookup, which is the
        endpoint check."""
        index = {name: i for i, name in enumerate(names)}
        succ = [0] * len(names)
        pred = succ[:]
        pairs = set()
        for a, b in attacks:
            try:
                i, j = index[a], index[b]
            except KeyError:
                raise AFError(f"attack endpoint not declared: ({a!r}, {b!r})") from None
            pairs.add((a, b))
            succ[i] |= 1 << j
            pred[j] |= 1 << i
        self.names = names
        self.index = index
        self.succ = tuple(succ)
        self.pred = tuple(pred)
        self._attacks = pairs = frozenset(pairs)
        self._hash = hash((names, pairs))

    # -- basic views ---------------------------------------------------------

    @property
    def args(self) -> frozenset[str]:
        return frozenset(self.names)

    @property
    def attacks(self) -> frozenset[tuple[str, str]]:
        return self._attacks

    def __eq__(self, other) -> bool:
        if not isinstance(other, AF):
            return NotImplemented
        return self.names == other.names and self._attacks == other._attacks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        atts = ",".join(f"({a},{b})" for a, b in sorted(self._attacks))
        return f"AF({{{','.join(self.names)}}}, {{{atts}}})"

    # -- name/mask conversion ------------------------------------------------

    def mask_of(self, members: Iterable[str]) -> int:
        m = 0
        for a in members:
            try:
                m |= 1 << self.index[a]
            except KeyError:
                raise AFError(f"argument {a!r} not in framework") from None
        return m

    def set_of(self, mask: int) -> frozenset[str]:
        return names_of(self.names, mask)

    # -- structural operations -----------------------------------------------

    def restrict(self, keep: Iterable[str]) -> "AF":
        keep_set = set(keep)
        return AF._from_checked(
            [a for a in self.names if a in keep_set],
            [(a, b) for a, b in self._attacks if a in keep_set and b in keep_set],
        )


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def names_of(names: Sequence[str], mask: int) -> frozenset[str]:
    """The names at the set bits of mask: the one conversion from a mask to a
    set of arguments (`bits` inlined: every extension passes through it)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(names[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def union_af(f: AF, g: AF) -> AF:
    """Pointwise union of two frameworks."""
    return AF._from_checked(sorted(set(f.names).union(g.names)), [*f.attacks, *g.attacks])


def delete(f: AF, args: Iterable[str] = (), attacks: Iterable[tuple[str, str]] = ()) -> AF:
    """Update F \\ [B, S]: drop the attacks in S, then restrict to the surviving arguments.

    Neither B nor S needs to occur in F.
    """
    drop_args = set(args)
    drop_attacks = set(attacks)
    keep = [a for a in f.names if a not in drop_args]
    keep_set = set(keep)
    return AF._from_checked(
        keep,
        [
            (a, b)
            for a, b in f.attacks
            if (a, b) not in drop_attacks and a in keep_set and b in keep_set
        ],
    )


def range_of(f: AF, e: Iterable[str]) -> frozenset[str]:
    """E plus everything E attacks."""
    m = f.mask_of(e)
    return f.set_of(m | f.attacked_by_mask(m))


def anti_range(f: AF, e: Iterable[str]) -> frozenset[str]:
    """E plus everything attacking E."""
    m = f.mask_of(e)
    return f.set_of(m | f.attackers_of_mask(m))


def loops(f: AF) -> frozenset[str]:
    """All self-attacking arguments."""
    return f.set_of(f.loops_mask())


def sccs(f: AF) -> list[frozenset[str]]:
    """Strongly connected components, in topological order of the condensation
    (attackers before attacked), ties broken by lexicographically least member.
    """
    members = [list(bits(m)) for m in scc_masks(f, f.full_mask)]
    comp = [0] * f.n
    for c, ms in enumerate(members):
        for v in ms:
            comp[v] = c
    # edges of the condensation
    out: list[set[int]] = [set() for _ in members]
    indeg = [0] * len(members)
    for v in range(f.n):
        for w in bits(f.succ[v]):
            if comp[v] != comp[w] and comp[w] not in out[comp[v]]:
                out[comp[v]].add(comp[w])
                indeg[comp[w]] += 1
    # Kahn, taking the ready component with the least member first; names
    # are sorted, so a component's least member is its first index
    import heapq  # this function is its only user

    ready = [(ms[0], c) for c, ms in enumerate(members) if indeg[c] == 0]
    heapq.heapify(ready)
    order: list[frozenset[str]] = []
    while ready:
        c = heapq.heappop(ready)[1]
        order.append(frozenset(f.names[v] for v in members[c]))
        for d in out[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(ready, (members[d][0], d))
    return order


def scc_masks(f: Frame, within: int) -> list[int]:
    """Strongly connected components of f restricted to the arguments in the
    mask `within`, as masks, attackers first: every attack between two of
    them goes from an earlier one to a later one.

    Iterative Tarjan, in which each work frame holds its vertex's unvisited
    successors as a mask. Tarjan completes a component only after every
    component it attacks, so the completion order is reversed at the end.
    """
    succ = f.succ
    index_of = [-1] * f.n
    low = [0] * f.n
    stack: list[int] = []
    on_stack = 0
    comps: list[int] = []
    counter = 0
    roots = within
    while roots:  # `bits` inlined, as in `names_of`
        root_bit = roots & -roots
        roots ^= root_bit
        root = root_bit.bit_length() - 1
        if index_of[root] != -1:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack |= root_bit
        work = [[root, succ[root] & within]]
        while work:
            top = work[-1]
            v, rest = top
            while rest:
                bit = rest & -rest
                rest ^= bit
                w = bit.bit_length() - 1
                if index_of[w] == -1:
                    # descend into w, and come back to the rest of v's successors
                    top[1] = rest
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack |= bit
                    work.append([w, succ[w] & within])
                    break
                if on_stack & bit and index_of[w] < low[v]:
                    low[v] = index_of[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index_of[v]:
                    m = 0
                    while True:
                        w = stack.pop()
                        m |= 1 << w
                        if w == v:
                            break
                    on_stack ^= m
                    comps.append(m)
    comps.reverse()
    return comps
