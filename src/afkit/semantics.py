"""Extension and labelling enumeration for every supported semantics.

Every semantics is computed from bitmasks over one framework by
`extension_masks`, for the subframework on any sub-mask of its arguments
(attacks across the sub-mask's boundary are ignored), so callers never build
a subframework to evaluate one. Each semantics draws its candidates from a
family that theory shows contains all its extensions:

- cf sweeps every conflict-free set by one backtracking walk (supersets of
  a conflicting pair are pruned at the search-tree level, so self-attacking
  helper arguments cost nothing);
- adm runs the same walk guarded: a set must attack each of its attackers,
  and a branch is cut as soon as one of them has no attacker left among
  the arguments the branch may still take (the must-out look-ahead of
  labelling-based backtracking), so on sparse frameworks it visits a few
  nodes per admissible set instead of every conflict-free set;
- the complete family (com, stb, prf, semi, id, eag) starts that guarded
  walk at the grounded extension G, over the arguments outside G and its
  range, since every complete extension contains G (Dung 1995); when those
  all attack themselves, G is the only complete extension and no walk runs.
  grd is the characteristic iteration alone, and each strongly admissible
  set is built once, along its own characteristic chain, with Γ carried
  down the chain and re-checked only where a step newly defeats an attacker;
- nav and stg enumerate only the naive (⊆-maximal conflict-free) sets, the
  maximal cliques of the compatibility graph, by Bron–Kerbosch with
  pivoting. A stage extension is naive, since an argument that could join it
  lies outside its range and would enlarge it;
- cf2 and stg2 are built forward along the strongly connected components,
  attackers first (SCC-recursiveness, Baroni, Giacomin & Guida 2005): each
  component takes the extensions of the part that the choices before it
  leave undefeated (a lone argument inline), and naive sets are swept only
  on sub-masks that are a single component, each at most once per call.

Each filter stage runs at most once per call. The last one, picking by
⊆- or range-maximality, stability or the meet, is `select`, one selection
stage that `verifiability.verify` applies to class data as well; its
maximality test compares a key only with the kept keys of larger size. cf2
and stg2 work on sub-masks of the same framework: no subframework is built.

The masks then become an `ExtensionSet` in two steps: the semantics outside
`WALK_ORDER` are sorted by `mask_key`, a string key built in C, and
`extension_set` orders every family by size and builds each frozenset from
its parent's (the set without its highest member) where the family has it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from . import config
from .core import AF, AFError, Frame, Record, names_of, scc_masks

SEMANTICS = ("cf", "nav", "adm", "com", "grd", "stb", "stg", "semi", "prf", "id", "eag", "sad", "cf2", "stg2")

# Semantics whose extensions are all complete, so each contains the grounded
# extension and their sweep starts there.
COMPLETE_FAMILY = ("com", "stb", "prf", "semi", "id", "eag")

# Semantics whose labellings are in one-to-one correspondence with extensions
# via E -> (E, E+, A \ E-plus).
LABELLING_SEMANTICS = ("stb", "semi", "eag", "prf", "id", "grd", "com")

# Semantics whose `extension_masks` keep the order of the conflict-free walk:
# those of one size come in the lexicographic order of their ascending indices.
WALK_ORDER = ("cf", "adm", "com", "stb", "grd")

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
    """Sets given by name, each once, in extension order (`extension_key`)."""
    return tuple(sorted(set(sets), key=extension_key))


_FLIP = str.maketrans("01", "10")


def mask_key(m: int) -> tuple[int, str]:
    """A key that orders masks as `extension_key` orders the sets they name
    over sorted names: by size, then by the string of m's bits from index 0
    up, each flipped. Within one size, the set whose ascending indices come
    first lexicographically is the one holding the lowest differing bit, and
    flipped, that bit reads "0" against "1"; neither string is a prefix of
    the other, since both end at a top bit and hold as many bits. Built by
    `bin` and `str.translate` in C, with no generator."""
    return m.bit_count(), bin(m)[:1:-1].translate(_FLIP)


def extension_set(names: Sequence[str], masks: list[int]) -> ExtensionSet:
    """The sets that the distinct `masks` name over the sorted `names`, in
    extension order. Those of one size must come in the lexicographic order
    of their ascending indices (`WALK_ORDER`, or sorted by `mask_key`): one
    stable sort by size, in place on `masks`, then orders them all.

    Sets come smallest first, so a set whose parent (itself without its
    highest member) is in the family is built as the parent's frozenset `|`
    that one name, a single C-level union; the others, and all of them in a
    family without parents, go through `names_of`."""
    masks.sort(key=int.bit_count)
    sets: dict[int, frozenset[str]] = {}
    built = sets.get
    for m in masks:
        top = m.bit_length() - 1
        parent = built(m ^ 1 << top) if m else None
        sets[m] = names_of(names, m) if parent is None else parent | {names[top]}
    return tuple(sets.values())


class Labelling(Record):
    _fields = ("in_set", "out_set", "undec_set")

    def __init__(self, in_set: frozenset[str], out_set: frozenset[str], undec_set: frozenset[str]):
        d = self.__dict__
        d["in_set"] = in_set
        d["out_set"] = out_set
        d["undec_set"] = undec_set


# -- conflict-free candidate sweep --------------------------------------------


def cf_masks(f: Frame, within: int | None = None, guard: int = 0) -> list[tuple[int, int, int]]:
    """The conflict-free subsets m of the mask `within` (default: every
    argument) that attack every attacker they have in the mask `guard`, each
    as (m, attacked, attacking): m with the masks of the arguments it attacks
    and of those attacking it, over all of f. With guard = 0 these are all
    the conflict-free subsets; with guard = `within` the admissible ones.

    Backtracks over non-self-attacking arguments in index order; including an
    argument adds its targets and attackers to the branch's pair, and both
    are banned for the rest of the branch. A set whose attacker in `guard` it
    does not attack is not output, and its branch is cut when no later
    argument of `within` that the branch has not banned attacks that
    attacker: the must-out look-ahead of labelling-based backtracking
    (Nofal, Atkinson & Dunne 2016). A self-attacking one among them never
    joins, so counting it only weakens the cut, and saves building the mask
    of the others on every call. With guard = 0 nothing is cut. Each set
    comes once, in pre-order: the lexicographic order of their ascending
    indices over all sizes, which `extensions` and
    `verifiability.verification_class` rely on. The walk recurses once per
    member: a set of d members has 2^d conflict-free subsets, so no sweep
    that could finish needs a deep stack, and one that could not fails fast
    with RecursionError.
    """
    if within is None:
        within = f.full_mask
    succ, pred = f.succ, f.pred
    rows = []
    rest = within
    while rest:  # `bits` inlined, as in `names_of`
        bit = rest & -rest
        rest ^= bit
        i = bit.bit_length() - 1
        if not succ[i] & bit:
            rows.append((bit, succ[i], pred[i]))
    out = [(0, 0, 0)]
    if not rows:  # half the walks of the witness search
        return out
    last = len(rows) - 1

    def walk(pos: int, current: int, attacked: int, attacking: int) -> None:
        banned = attacked | attacking
        for k in range(pos, len(rows)):
            bit, targets, attackers = rows[k]
            if banned & bit:
                continue
            m, hit, hit_by = current | bit, attacked | targets, attacking | attackers
            if guard and (need := hit_by & guard & ~hit):
                # cut unless the later arguments the branch has not banned
                # attack each attacker in guard that m leaves unattacked
                open_ = within & -(bit << 1) & ~(hit | hit_by)
                while need:
                    low = need & -need
                    if not pred[low.bit_length() - 1] & open_:
                        break
                    need ^= low
                if need:
                    continue
            else:
                out.append((m, hit, hit_by))
            if k < last:
                walk(k + 1, m, hit, hit_by)

    walk(0, 0, 0, 0)
    return out


def naive_masks(f: Frame, within: int) -> list[int]:
    """The ⊆-maximal conflict-free subsets of the mask `within`, each once, in
    no particular order and with no cap. On a symmetric framework without
    self-attacks they are its stable extensions (Coste-Marquis et al. 2005).

    These are the maximal cliques of the compatibility graph on the
    non-self-attacking arguments (two are adjacent when neither attacks the
    other), found by Bron–Kerbosch with Tomita's pivot: a node (r, p, x)
    extends the set r by the candidates p, while x holds the arguments that
    would also extend r but whose sets an earlier sibling's branch reports;
    only the candidates outside the pivot's neighbourhood open a branch. An
    explicit stack replaces the recursion, and siblings are pushed at once
    since each one's (p, x) depends only on those before it. The cost is
    O(3^(n/3)) in the worst case (Tomita, Tanaka & Takahashi 2006), and one
    node per member on inputs with a single naive set.
    """
    succ, pred = f.succ, f.pred
    free = 0
    rest = within
    while rest:  # `bits` inlined here and below, as in `cf_masks`
        bit = rest & -rest
        rest ^= bit
        if not succ[bit.bit_length() - 1] & bit:
            free |= bit
    nbr = [0] * f.n
    rest = free
    while rest:
        bit = rest & -rest
        rest ^= bit
        i = bit.bit_length() - 1
        nbr[i] = free & ~(succ[i] | pred[i] | bit)
    out = []
    stack = [(0, free, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        best = -1
        rest = p | x
        while rest:
            bit = rest & -rest
            rest ^= bit
            row = nbr[bit.bit_length() - 1]
            covered = (p & row).bit_count()
            if covered > best:
                best, pivot_nbr = covered, row
        rest = p & ~pivot_nbr
        while rest:
            bit = rest & -rest
            rest ^= bit
            row = nbr[bit.bit_length() - 1]
            stack.append((r | bit, p & row, x & row))
            p ^= bit
            x |= bit
    return out


def check_limit(f: Frame, within: int, cap: int, where: str = "") -> None:
    """Refuse a sweep over the arguments in `within` when more than `cap` of
    them are non-self-attacking. Self-attacking arguments never enter a
    conflict-free set, so the subset sweep is exponential only in the rest.
    `where` qualifies the count in the message."""
    if within.bit_count() <= cap:
        return
    relevant = (within & ~f.loops_mask()).bit_count()
    if relevant > cap:
        raise EnumerationLimitError(
            f"framework has {relevant} non-self-attacking arguments{where}, exceeding the "
            f"enumeration cap of {cap} (raise {config.ENV_MAX_ARGS} to override)"
        )


def check_labelling_semantics(sigma: str) -> str:
    if sigma not in LABELLING_SEMANTICS:
        raise AFError(f"labellings are only supported for {', '.join(LABELLING_SEMANTICS)}; got {sigma!r}")
    return sigma


def maximal(masks: list[int], key: Callable[[int], int] | None = None) -> list[int]:
    """The masks whose key (default: the mask itself) is ⊆-maximal among all
    keys; masks with equal keys are kept or dropped together. This is the
    library's one ⊆-extremal routine: `select` keeps maximal sets and
    ranges with it, and `realizability` keeps minimal clauses as the
    complements of maximal complements.

    A strict superset has more bits, so with the distinct keys in descending
    size each is tested only against the maximal keys kept at strictly larger
    sizes (distinct keys of one size are never ⊆-comparable); keys all of one
    size, as the ranges of odd cycles' naive sets are, take no test at all.
    The test, k | t == t for some kept t, is a plain loop: the interpreter
    specialises `int` operators in bytecode, which beats `map`s of method
    wrappers on the few keys of a typical call."""
    if len(masks) < 2:
        return list(masks)
    keys = list(map(key, masks)) if key else masks
    bigger, level, size = [], [], -1
    for k in sorted(set(keys), key=int.bit_count, reverse=True):
        if k.bit_count() != size:
            bigger += level
            level = []
            size = k.bit_count()
        for t in bigger:
            if k | t == t:
                break
        else:
            level.append(k)
    bigger += level
    if key is None:
        return bigger if len(bigger) == len(masks) else list(filter(set(bigger).__contains__, masks))
    kept = set(bigger)
    return [m for m, k in zip(masks, keys) if k in kept]


def select(sigma: str, sets: list[int], in_range: Callable[[int], int] | None, within: int) -> list[int]:
    """The selection stage of nav, prf (⊆-maximal), stg, semi (range-
    maximal), stb (range is `within`), id and eag (the greatest set of
    `sets` below the meet of the preferred, or semi-stable, ones).

    `sets` are conflict-free subsets of `within`, and `in_range(m)` is m's
    range within `within` (read only for stg, semi, stb and eag). The result
    is the sigma-extensions of the subframework on `within` when, for nav,
    stg and stb, `sets` contains every naive set, and, for prf, semi, id and
    eag, `sets` is the admissible sets or those containing the grounded
    extension G. Every stable extension is admissible and contains G, so for
    stb the latter families do as well. S | G is admissible for every
    admissible S, so dropping the sets without G changes neither maximality
    nor the greatest admissible set below a meet. That set is the union of
    those below the meet, taken by one OR: they all lie in one preferred (or
    semi-stable) extension, so their union is conflict-free, hence
    admissible and in `sets`."""
    if sigma in ("nav", "prf"):
        return maximal(sets)
    if sigma in ("stg", "semi"):
        return maximal(sets, in_range)
    if sigma == "stb":
        return [m for m in sets if in_range(m) == within]
    bound = within
    for m in maximal(sets, None if sigma == "id" else in_range):
        bound &= m
    top = 0
    for m in sets:
        if not m & ~bound:
            top |= m
    return [top] if sets else []


def _characteristic(f: Frame, m: int, within: int) -> int:
    """Gamma(m): everything in `within` defended by m, i.e. not attacked from
    `within` by an argument that m does not attack."""
    return within & ~f.attacked_by_mask(within & ~f.attacked_by_mask(m))


def _newly_defended(f: Frame, hit: int, defeated: int, within: int, known: int) -> int:
    """What Gamma gains when a set's defeated arguments in `within` grow by
    `hit` to `defeated`: the arguments of `within` outside `known` (the
    Gamma before) attacked from `hit` whose attackers in `within` are all
    defeated. No other argument can join, so only these are checked."""
    pred = f.pred
    gained = 0
    rest = f.attacked_by_mask(hit) & within & ~known
    while rest:  # `bits` inlined
        bit = rest & -rest
        rest ^= bit
        if pred[bit.bit_length() - 1] & within & ~defeated == 0:
            gained |= bit
    return gained


def _grounded(f: Frame, within: int, trace: list | None = None) -> int:
    """The grounded extension of the subframework on `within`: the fixpoint
    of the characteristic iteration from the empty set, each value after the
    empty set's appended to `trace` when one is given.

    Each step takes in the arguments whose attackers in `within` are all
    attacked by the previous set. Only an argument attacked by one that the
    previous step newly defeated can join (`_newly_defended`), and each
    attack is read a bounded number of times over the whole iteration."""
    grounded = defeated = 0
    step = within & ~f.attacked_by_mask(within)
    while step:
        grounded |= step
        if trace is not None:
            trace.append(grounded)
        fresh = f.attacked_by_mask(step) & within & ~defeated
        defeated |= fresh
        step = _newly_defended(f, fresh, defeated, within, grounded)
    return grounded


def _adm_masks(f: Frame, within: int, root: int = 0, root_out: int | None = None) -> list[int]:
    """The admissible sets containing `root`, itself admissible, in walk
    order: root | m for the conflict-free sets m outside root and its range
    that attack every attacker of root | m that root does not attack. root
    defends itself, so its attackers in `within` lie in its range: nothing
    else is in conflict with it. With root = 0 these are all the admissible
    sets. The walk's look-ahead cuts the branches that cannot hold one.
    `root_out`, what root attacks, is computed when not given."""
    if root_out is None:
        root_out = f.attacked_by_mask(root)
    return [root | m for m, _, _ in cf_masks(f, within & ~(root | root_out), within & ~root_out)]


def _sad_masks(f: Frame, within: int) -> list[int]:
    """Strongly admissible sets, each produced once. A set S is strongly
    admissible iff its own characteristic chain, m -> Gamma(m) & S from the
    empty set, reaches S. Walking that chain, the arguments Gamma(m) newly
    defends at node m are split into a part adjoined now and a rest excluded
    for the branch: S cannot take the rest later, since its chain would have
    taken them at m.

    Each node carries what m defeats in `within` and Gamma(m), as
    `_grounded` does along its one chain: a child's Gamma only grows
    by arguments attacked by one the adjoined part newly defeats
    (`_newly_defended`), and a chain of d nodes reads its attacks a bounded
    number of times instead of all of `within` at every node."""
    out = []
    stack = [(0, 0, 0, within & ~f.attacked_by_mask(within))]
    while stack:
        m, excluded, defeated, gamma = stack.pop()
        out.append(m)
        fresh = gamma & ~(m | excluded)
        part = fresh
        while part:
            hit = f.attacked_by_mask(part) & within & ~defeated
            beaten = defeated | hit
            grown = gamma | _newly_defended(f, hit, beaten, within, gamma)
            stack.append((m | part, excluded | fresh & ~part, beaten, grown))
            part = (part - 1) & fresh
    return out


def _scc_recursive_masks(f: Frame, stage: bool, within: int) -> list[int]:
    """cf2 (naive base) or stg2 (stage base) of the subframework on `within`,
    built forward along its components (Cerutti, Giacomin, Vallati & Zanella
    2014). By SCC-recursiveness (Baroni, Giacomin & Guida 2005), e is an
    extension on `sub` iff, for every component s of `sub`, e & s is an
    extension on the part of s that e outside s does not attack (UP); a
    single component takes the base semantics. Only earlier components attack
    s, so with the components attackers first, the choices made so far fix
    UP, no later choice conflicts with them, and as no sub-mask has zero
    extensions, every partial set extends to an extension. A one-argument
    component joins e unless it attacks itself or e attacks it, decided in
    the product loop with no call; other results are memoised per sub-mask."""
    memo: dict[int, list[int]] = {}

    def ext(sub: int) -> list[int]:
        if sub in memo:
            return memo[sub]
        if sub & (sub - 1) == 0:  # at most one argument
            out = [0] if f.attacked_by_mask(sub) & sub else [sub]
        else:
            comps = scc_masks(f, sub)
            if len(comps) == 1:
                out = naive_masks(f, sub)
                if stage:
                    out = select("stg", out, lambda m: (m | f.attacked_by_mask(m)) & sub, sub)
            else:
                out = [0]
                for s in comps:
                    if s & (s - 1):
                        out = [e | x for e in out for x in ext(s & ~f.attacked_by_mask(e))]
                    elif not f.succ[i := s.bit_length() - 1] & s:  # one argument, joining
                        out = [e if f.pred[i] & e else e | s for e in out]  # unless e attacks it
        memo[sub] = out
        return out

    return ext(within)


def extension_masks(f: Frame, sigma: str, within: int, cap: int) -> list[int]:
    """The sigma-extensions of the subframework of f on the arguments in the
    mask `within` (attacks crossing its boundary are ignored), as distinct
    masks in no particular order, except that the `WALK_ORDER` semantics
    keep the walk's order within each size: cf and adm come in `cf_masks`
    pre-order, and com and stb as root | m over it. A sweep over more than
    `cap` non-self-attacking arguments is refused (see `check_limit`): grd
    sweeps none, the complete family those outside the grounded extension G
    and its range, and the rest all of `within`. When all of the former
    attack themselves, G is the only admissible set containing G, and the
    family answers [G] with no sweep (stb [] unless nothing is left open)."""
    if sigma == "grd":
        return [_grounded(f, within)]
    if sigma in COMPLETE_FAMILY:
        root = _grounded(f, within)
        root_out = f.attacked_by_mask(root)
        rest = open_ = within & ~(root | root_out)
        while rest:  # `bits` inlined, up to an open non-self-attacker
            bit = rest & -rest
            rest ^= bit
            if not f.succ[bit.bit_length() - 1] & bit:
                break
        else:
            return [root] if sigma != "stb" or not open_ else []
        check_limit(f, open_, cap, " outside the grounded extension and its range")
        adm = _adm_masks(f, within, root, root_out)
        if sigma == "com":
            return [m for m in adm if _characteristic(f, m, within) == m]
        return select(sigma, adm, lambda m: (m | f.attacked_by_mask(m)) & within, within)
    check_limit(f, within, cap)
    if sigma == "cf":
        return [m for m, _, _ in cf_masks(f, within)]
    if sigma == "nav":
        return naive_masks(f, within)
    if sigma == "stg":
        # a range-maximal conflict-free set is also ⊆-maximal
        return select("stg", naive_masks(f, within), lambda m: (m | f.attacked_by_mask(m)) & within, within)
    if sigma == "adm":
        return _adm_masks(f, within)
    if sigma == "sad":
        return _sad_masks(f, within)
    if sigma in ("cf2", "stg2"):
        return _scc_recursive_masks(f, sigma == "stg2", within)
    raise UnknownSemanticsError(f"unknown semantics: {sigma!r}")


def _ordered_masks(f: AF, sigma: str) -> list[int]:
    """The sigma-extensions of f as masks, ready for `extension_set`."""
    masks = extension_masks(f, sigma, f.full_mask, config.max_enum_args())
    if sigma not in WALK_ORDER:
        masks.sort(key=mask_key)
    return masks


def extensions(f: AF, sigma: str) -> ExtensionSet:
    """All sigma-extensions of f, ordered by size then lexicographically."""
    check_semantics(sigma)
    return extension_set(f.names, _ordered_masks(f, sigma))


def grounded_iteration(f: AF) -> tuple[frozenset[str], list[frozenset[str]]]:
    """The grounded extension together with the iteration trace
    (empty set, then each new value of the characteristic function, up to the
    fixpoint; the repeat itself is not recorded)."""
    trace = [0]
    return f.set_of(_grounded(f, f.full_mask, trace)), [f.set_of(m) for m in trace]


def strongly_admissible(f: AF) -> ExtensionSet:
    """All strongly admissible sets, each built along its characteristic chain."""
    return extensions(f, "sad")


def labellings(f: AF, sigma: str) -> tuple[Labelling, ...]:
    """sigma-labellings, one per extension and in its order, for the
    one-to-one family."""
    check_labelling_semantics(check_semantics(sigma))
    full, names, masks = f.full_mask, f.names, _ordered_masks(f, sigma)
    exts = extension_set(names, masks)  # also sorts masks into their order
    plus = [f.attacked_by_mask(m) for m in masks]
    return tuple(
        Labelling(e, names_of(names, p), names_of(names, full & ~(m | p))) for e, m, p in zip(exts, masks, plus)
    )
