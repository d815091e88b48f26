"""The four seeded workloads: their inputs, their queries and the reference
check for each query's answer.

Each `build_*` function takes the seed, the freshly imported ``afkit`` package
and a work directory, and returns a `Workload`. Every query looks the afkit
function up on its module when it runs, so the traced run's wrappers see it.
Checks run after the timed loop. They use ``tests/oracles.py`` on small
frameworks, `reference` on larger ones, and facts that hold by construction
of the input; the cli checks compare each child's output with the library's
own verdict, which the other workloads check.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as ref

SEMANTICS = ("cf", "nav", "adm", "com", "grd", "stb", "stg", "semi", "prf", "id", "eag", "sad", "cf2", "stg2")
LABELLING_SEMANTICS = ("stb", "semi", "eag", "prf", "id", "grd", "com")
SIGNATURE_SEMANTICS = ("cf", "nav", "stb", "stg", "adm", "prf", "semi", "grd", "id", "eag")
CLASSIFIABLE = ("cf", "nav", "adm", "com", "grd", "stb", "stg", "semi", "prf", "id", "eag", "cf2", "stg2")

# Exact verification class of each verifiable semantics, and the basic
# neighborhood functions it is made of, applied to (range P, anti-range M).
EXACT_CLASS = {
    "nav": ("ε", ()),
    "stb": ("+", ("+",)),
    "stg": ("+", ("+",)),
    "adm": ("∓", ("∓",)),
    "prf": ("∓", ("∓",)),
    "id": ("∓", ("∓",)),
    "semi": ("+∓", ("+", "∓")),
    "eag": ("+∓", ("+", "∓")),
    "grd": ("−±", ("-", "±")),
    "sad": ("−±", ("-", "±")),
    "com": ("+−", ("+", "-")),
}
BASIC = {
    "+": lambda p, m: p,
    "-": lambda p, m: m,
    "±": lambda p, m: p - m,
    "∓": lambda p, m: m - p,
}


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # cli only: the same command through an in-process ``main(argv)``
    inproc: Optional[Callable[[], object]] = None


@dataclass
class Workload:
    queries: list[Query]
    inputs: list[str]  # canonical text of every generated input

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.inputs).encode()).hexdigest()


def _names(rng, n, prefix="a"):
    return [f"{prefix}{k}" for k in sorted(rng.sample(range(10, 100), n))]


# -- enumerate ----------------------------------------------------------------------


def _random_af(rng, AF, n, p, loops):
    """n arguments, exactly round(p*n*(n-1)) attacks between distinct
    arguments and `loops` self-attacks; fixed counts keep the cost of one
    seed close to that of another."""
    names = _names(rng, n)
    slots = [(a, b) for a in names for b in names if a != b]
    attacks = rng.sample(slots, round(p * n * (n - 1)))
    attacks += [(a, a) for a in rng.sample(names, loops)]
    return AF(names, attacks)


def _hub_13(rng, AF):
    """The hub_13 fixture of the test suite under seeded argument names."""
    canon = ["a1", "a2", "a3", "b1", "b2", "b3", "x1", "x2", "x3", "y1", "y2", "y3", "z"]
    rename = dict(zip(canon, rng.sample(_names(rng, 13), 13)))
    atts = [
        ("x1", "a3"), ("x2", "a1"), ("x3", "a2"), ("y1", "b3"), ("y2", "b1"), ("y3", "b2"),
        ("a3", "a1"), ("a1", "a2"), ("a2", "a3"), ("b3", "b1"), ("b1", "b2"), ("b2", "b3"),
    ]
    xy = ["x1", "x2", "x3", "y1", "y2", "y3"]
    atts += [(u, v) for u in xy for v in xy if u != v]
    atts += [p for u in xy for p in (("z", u), (u, "z"))]
    return AF(rename.values(), [(rename[a], rename[b]) for a, b in atts])


def _chain(rng, AF, n):
    order = rng.sample(_names(rng, n), n)
    return AF(order, list(zip(order, order[1:])))


def _odd_cycles(rng, AF, lengths):
    order = rng.sample(_names(rng, sum(lengths)), sum(lengths))
    attacks, start = [], 0
    for k in lengths:
        ring = order[start:start + k]
        attacks += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
        start += k
    return AF(order, attacks)


def _with_helpers(rng, AF, base, helpers, p):
    """A random core plus self-attacking helpers, each attacking one core
    argument and attacked by another, as in the canonical constructions."""
    core = _names(rng, base)
    extra = _names(rng, helpers, prefix="h")
    attacks = [(a, b) for a in core for b in core if a != b and rng.random() < p]
    for h in extra:
        attacks += [(h, h), (h, rng.choice(core)), (rng.choice(core), h)]
    return AF(core + extra, attacks)


def _banded(make, cf_band, scc_band=(0, 99)):
    """Call `make` until the framework's number of conflict-free sets and its
    largest SCC fall in the given bands. The sweep's work grows with the
    first and cf2/stg2's with the second; each varies severalfold between
    random frameworks of one size, and bands in the middle of each
    distribution keep one seed's work close to another's."""
    while True:
        f = make()
        frame = ref.Frame(f)
        if cf_band[0] <= len(frame.masks("cf")) <= cf_band[1] and scc_band[0] <= frame.largest_scc() <= scc_band[1]:
            return f


def enumerate_frameworks(rng, AF):
    # The structured frameworks give the tail a few deterministic heavy
    # non-SCC queries (stg and nav on the cycles, sad on the isolated
    # arguments, nav on the chain), so that p90 falls inside the cf2/stg2
    # group of the random frameworks rather than at its edge.
    return (
        [_banded(lambda: _random_af(rng, AF, 12, 0.05, 1), (528, 640), (1, 2)) for _ in range(10)]
        + [_banded(lambda: _random_af(rng, AF, 13, 0.15, 1), (210, 270), (7, 9)) for _ in range(6)]
        + [
            AF(_names(rng, 10)),
            _chain(rng, AF, 15),
            _odd_cycles(rng, AF, (3, 5, 5)),
            _odd_cycles(rng, AF, (3, 3, 3, 3, 3)),
            _hub_13(rng, AF),
            _with_helpers(rng, AF, 10, 10, 0.1),
        ]
    )


def build_enumerate(seed, api, workdir):
    rng = random.Random(seed)
    frameworks = enumerate_frameworks(rng, api.AF)
    queries = []
    for f in frameworks:
        frame = functools.cache(lambda f=f: ref.Frame(f))
        for sigma in SEMANTICS:
            queries.append(Query(
                f"extensions:{sigma}",
                lambda f=f, s=sigma: api.extensions(f, s),
                lambda ans, fr=frame, s=sigma: list(ans) == ref.ordered(fr().extensions(s)),
            ))
        for sigma in LABELLING_SEMANTICS:
            queries.append(Query(
                f"labellings:{sigma}",
                lambda f=f, s=sigma: api.labellings(f, s),
                lambda ans, fr=frame, s=sigma: _labellings_match(ans, fr().labellings(s)),
            ))
    return Workload(queries, [repr(f) for f in frameworks])


def _labellings_match(ans, want):
    got = [(l.in_set, l.out_set, l.undec_set) for l in ans]
    return got == sorted(want, key=lambda t: ref.extension_key(t[0]))


# -- equiv-witness --------------------------------------------------------------------

_EXT_CELLS = (
    [("E", s) for s in ("stg", "stb", "semi", "eag", "adm", "prf", "id", "grd", "com", "nav", "cf2", "stg2", "sad")]
    + [("N", s) for s in ("stg", "stb", "semi", "eag", "adm", "prf", "id", "grd", "com", "nav", "cf2", "stg2")]
    + [("S", s) for s in ("stg", "stb", "semi", "eag", "adm", "prf", "id", "grd", "com", "nav")]
    + [("L", s) for s in ("stg", "semi", "eag", "adm", "prf", "id", "nav")]
    + [("ND", s) for s in ("stb", "adm", "grd", "com")]
    + [(n, s) for n in ("D", "LD") for s in ("stg", "stb", "semi", "eag", "adm", "prf", "id", "grd", "com", "nav", "cf2", "stg2")]
)
# the labelling cells whose semantics has labellings (the witness search
# compares labellings, which afkit defines for these seven only)
_LAB7 = ("stb", "semi", "eag", "prf", "id", "grd", "com")
_LAB_CELLS = (
    [(n, s) for n in ("E", "N", "S", "ND") for s in _LAB7]
    + [("L", s) for s in ("semi", "eag", "prf", "id")]
    + [(n, s) for n in ("D", "LD") for s in _LAB7]
)
# kernels behind the normal-deletion criterion cells (on shared arguments)
_CRITERION_KERNEL = {"adm": "ks_adm", "grd": "ks_grd", "com": "ks_com"}
# Each extension cell gets EXT_ROUNDS x (one (f, kernel(f)) pair, whose
# budgeted scan runs to completion, and two random pairs); LAB_QUERIES go
# round the labelling cells, so that a tenth of the queries are labelling
# ones. Fixed per-cell counts keep the number of full scans the same on
# every seed.
EXT_ROUNDS = 3
LAB_QUERIES = 70


def _small_af(rng, AF):
    """A framework over a, b and c with three of its nine possible attacks.
    The acceptance suite draws each attack with probability 0.35 over one to
    three arguments; fixed counts keep the scan cost of one seed close to
    that of another."""
    names = ("a", "b", "c")
    return AF(names, rng.sample([(a, b) for a in names for b in names], 3))


def build_equiv(seed, api, workdir):
    rng = random.Random(seed)
    find = api.SearchBudget(fresh_args=2, max_attacks=4)
    scan = api.SearchBudget(fresh_args=1, max_attacks=2)
    plan = [
        (cell, "extension", k == 0) for _ in range(EXT_ROUNDS) for cell in _EXT_CELLS for k in range(3)
    ]
    plan += [(cell, "labelling", j % 3 == 0) for j, cell in enumerate((_LAB_CELLS * 2)[:LAB_QUERIES])]
    rng.shuffle(plan)
    queries, inputs = [], []
    for (notion, sigma), flavor, kernel_pair in plan:
        f = _small_af(rng, api.AF)
        if kernel_pair:
            kind = api.characterizing_kernel(notion, sigma, flavor) or _CRITERION_KERNEL[sigma]
            g = api.kernel(f, kind)
        else:
            g = _small_af(rng, api.AF)
        inputs.append(f"{notion} {sigma} {flavor} {f!r} {g!r}")

        def run(f=f, g=g, notion=notion, sigma=sigma, flavor=flavor):
            verdict = api.decide_equivalence(f, g, notion, sigma, flavor)
            budget = find if verdict.answer == "not_equivalent" else scan
            return verdict, api.search_counterexample(f, g, notion, sigma, budget, flavor)

        def check(ans, f=f, g=g, notion=notion, sigma=sigma, flavor=flavor, kp=kernel_pair):
            return _check_equiv(api.AF, ans, f, g, notion, sigma, flavor, kp)

        queries.append(Query(f"equiv:{notion}:{sigma}:{flavor}", run, check))
    return Workload(queries, inputs)


def _oracle_answer(AF, args, attacks, sigma, flavor):
    from oracles import ORACLES, plus

    f = AF(args, attacks)
    exts = ORACLES[sigma](f)
    if flavor == "extension":
        return exts
    return {(e, plus(f, e), f.args - e - plus(f, e)) for e in exts}


def _check_equiv(AF, ans, f, g, notion, sigma, flavor, kernel_pair):
    verdict, search = ans
    if verdict.answer == "equivalent":
        # An equivalence notion implies ordinary equivalence (the empty
        # scenario is always allowed), and the budgeted scan finds nothing.
        same = _oracle_answer(AF, f.args, f.attacks, sigma, flavor) == _oracle_answer(
            AF, g.args, g.attacks, sigma, flavor
        )
        return same and search.witness is None and search.complete
    if verdict.answer != "not_equivalent" or kernel_pair:
        return False  # a framework is equivalent to its characterizing kernel
    w = search.witness
    if w is None:
        return False
    if notion in ("ND", "D", "LD"):
        if (notion == "ND" and w.attacks) or (notion == "LD" and w.args):
            return False
        pf = ref.delete_parts(f, w.args, w.attacks)
        pg = ref.delete_parts(g, w.args, w.attacks)
    else:
        valid = {
            "E": True,
            "N": ref.is_normal_expansion(f, w) and ref.is_normal_expansion(g, w),
            "S": ref.is_strong_expansion(f, w) and ref.is_strong_expansion(g, w),
            "L": w.args <= f.args | g.args,
        }[notion]
        if not valid:
            return False
        pf, pg = ref.union_parts(f, w), ref.union_parts(g, w)
    return _oracle_answer(AF, *pf, sigma, flavor) != _oracle_answer(AF, *pg, sigma, flavor)


# -- realize-verify -------------------------------------------------------------------


def _sparse_af(rng, AF, n, p):
    """n arguments and exactly round(p*n*(n-1)) attacks, none of them loops."""
    names = _names(rng, n)
    return AF(names, rng.sample([(a, b) for a in names for b in names if a != b], round(p * n * (n - 1))))


# Light queries are the majority, so that p50 falls inside the signature
# group, and three 14-argument verification frameworks fill the top tenth,
# so that p90 falls inside their group rather than at an edge between kinds.
SIGNATURE_CANDIDATES = 20
# the middle of the conflict-free count distribution of _sparse_af(n, 0.2)
CF_BAND_P20 = {8: (41, 45), 10: (76, 84), 11: (104, 114), 12: (136, 153), 14: (234, 261)}
# the middle of the largest-SCC distribution of the classified frameworks,
# as cf2 and stg2 recurse over the SCCs
SCC_BAND_P20 = {8: (2, 4), 11: (7, 9)}
# Realizing a candidate of many sets is a search whose cost grows steeply
# with their number (36 adm sets over 7 arguments take 0.2 s, 14 sets take
# 2 ms), so candidates with more sets are redrawn; cf candidates are
# downward closed, many-set and cheap, and are kept whole.
MAX_CANDIDATE_SETS = 20


def _not_realizable(cand, sigma, universe):
    """Break a definitional necessary condition of sigma's signature: cf and
    adm sets always contain the empty set, unique-status semantics give
    exactly one set, and the rest give subset-incomparable sets."""
    cand = set(cand)
    if sigma in ("cf", "adm"):
        cand.discard(frozenset())
        if not cand:
            cand = {frozenset(universe[:1])}
    elif sigma in ("grd", "id", "eag"):
        (only,) = cand
        cand.add(only ^ {universe[0]})
    else:
        big = max(cand, key=len, default=frozenset())
        if big:
            cand.add(big - {min(big)})
        else:
            cand |= {frozenset(universe[:1]), frozenset(universe[:2])}
    return ref.ordered(cand)


def _logic_with_intersection(rng, make_logic, n_atoms, n_interps):
    atoms = "abcdef"[:n_atoms]
    interps = [f"i{j}" for j in range(n_interps)]
    single = {a: {i for i in interps if rng.random() < 0.6} for a in atoms}
    table = {}
    for r in range(n_atoms + 1):
        for combo in itertools.combinations(atoms, r):
            models = set(interps)
            for a in combo:
                models &= single[a]
            table[combo] = models
    return make_logic(atoms, interps, table)


def _fmt_theory(t):
    return "{" + ",".join(sorted(t)) + "}"


def build_realize(seed, api, workdir):
    rng = random.Random(seed)
    AF = api.AF
    queries, inputs = [], []

    # signature + realize: candidates are extension sets of random
    # frameworks (realizable by definition), every fourth one broken; the
    # sizes go round 4..8, as the cost of a candidate grows with its size
    for sigma in SIGNATURE_SEMANTICS:
        for k in range(SIGNATURE_CANDIDATES):
            while True:
                f = _sparse_af(rng, AF, 4 + k % 5, 0.25)
                cand = ref.ordered(ref.Frame(f).extensions(sigma))
                if sigma == "cf" or len(cand) <= MAX_CANDIDATE_SETS:
                    break
            expect = "yes"
            if k % 4 == 3:
                cand, expect = _not_realizable(cand, sigma, list(f.names)), "no"
            inputs.append(f"sig {sigma} {[sorted(s) for s in cand]}")

            def run(cand=cand, sigma=sigma):
                verdict = api.decide_signature(cand, sigma)
                return verdict.answer, api.realize(cand, sigma) if verdict.answer == "yes" else None

            def check(ans, cand=cand, sigma=sigma, expect=expect):
                answer, witness = ans
                if answer != expect:
                    return False
                return expect == "no" or (
                    witness is not None and ref.ordered(ref.Frame(witness).extensions(sigma)) == cand
                )

            queries.append(Query(f"signature:{sigma}", run, check))

    # analyze on one large extension: the downward-closure path
    for size in (10, 12, 13):
        big = _names(rng, size)
        inputs.append(f"analyze {big}")

        def check_analyze(a, big=frozenset(big)):
            flags = (a.nonempty, a.contains_empty, a.singleton, a.incomparable, a.downward_closed,
                     a.tight, a.dcl_tight, a.conflict_sensitive)
            pairs = {frozenset(p) for r in (1, 2) for p in itertools.combinations(sorted(big), r)}
            return flags == (True, False, True, True, False, True, True, True) and a.args == big and a.pairs == pairs

        queries.append(Query("analyze", lambda big=big: api.analyze([big]), check_analyze))

    # verification class at the exact class, then reconstruction
    for n in (8, 10, 12, 14, 14, 14):
        f = _banded(lambda: _sparse_af(rng, AF, n, 0.2), CF_BAND_P20[n])
        frame = functools.cache(lambda f=f: ref.Frame(f))
        inputs.append(f"verify {f!r}")
        for sigma, (cls, parts) in EXACT_CLASS.items():
            def run(f=f, sigma=sigma, cls=cls):
                data = api.verification_class(f, cls)
                return data, api.verify(sigma, data, f.args)

            def check(ans, fr=frame, sigma=sigma, cls=cls, parts=parts):
                data, exts = ans
                return data.class_id == cls and data.entries == _entries(fr(), parts) and list(
                    exts
                ) == ref.ordered(fr().extensions(sigma))

            queries.append(Query(f"verify:{sigma}", run, check))

    # compact / analytic classification
    for n in (8, 11):
        f = _banded(lambda: _sparse_af(rng, AF, n, 0.2), CF_BAND_P20[n], SCC_BAND_P20[n])
        frame = functools.cache(lambda f=f: ref.Frame(f))
        inputs.append(f"classify {f!r}")
        for sigma in CLASSIFIABLE:
            def run(f=f, sigma=sigma):
                return api.is_compact(f, sigma), api.implicit_conflicts(f, sigma)

            def check(ans, f=f, fr=frame, sigma=sigma):
                return ans == _classification(f, fr().extensions(sigma))

            queries.append(Query(f"classify:{sigma}", run, check))

    # finite logics with the intersection property
    for n_atoms, n_interps, galois in ((3, 6, True), (4, 8, False), (5, 10, False), (6, 6, True), (6, 10, False)):
        logic = _logic_with_intersection(rng, api.make_logic, n_atoms, n_interps)
        inputs.append(f"logic {sorted((sorted(t), sorted(m)) for t, m in logic.table.items())}")
        blocks = functools.cache(lambda logic=logic: ref.strong_partition(logic))
        char = functools.cache(lambda logic=logic: ref.characterization_models(logic))
        queries.append(Query(
            "charlogic:strong_eq_classes",
            lambda logic=logic: api.strong_eq_classes(logic),
            lambda part, b=blocks: {frozenset(x) for x in part.blocks} == b(),
        ))
        queries.append(Query(
            "charlogic:canonical_characterization",
            lambda logic=logic: api.canonical_characterization(logic),
            lambda c, m=char: all(
                {c.legend[i] for i in c.table[t]} == {_fmt_theory(s) for s in m()[t]} for t in m()
            ),
        ))
        queries.append(Query(
            "charlogic:has_intersection_property",
            lambda logic=logic: api.has_intersection_property(logic),
            lambda ok, logic=logic: ok is True and ref.intersection_holds(logic),
        ))
        if galois:
            # galois_check must agree with the intersection property, which
            # holds by construction
            queries.append(Query(
                "charlogic:galois_check",
                lambda logic=logic: api.galois_check(logic),
                lambda ok: ok is True,
            ))

    for universe, sigma in ((("a", "b"), "stb"), (("a", "b"), "adm"), (("a", "b", "c"), "grd")):
        table = functools.cache(lambda u=universe, s=sigma: ref.rho_table(u, s))
        inputs.append(f"rho {universe} {sigma}")

        def check_rho(rho, table=table):
            got = {(f.args, f.attacks): frozenset((g.args, g.attacks) for g in rho.rho_prime[f]) for f in rho.afs}
            return got == table()

        queries.append(Query(f"rho:{sigma}:{len(universe)}", lambda u=universe, s=sigma: api.rho_logic(u, s), check_rho))

    return Workload(queries, inputs)


def _entries(frame, parts):
    out = []
    for m in frame.masks("cf"):
        s = frame.set_of(m)
        p = s | frame.set_of(frame.plus(m))
        minus = s | {frame.names[i] for i in range(frame.n) if frame.succ[i] & m}
        out.append((s, tuple(BASIC[b](p, frozenset(minus)) for b in parts)))
    return tuple(sorted(out, key=lambda e: ref.extension_key(e[0])))


def _classification(f, exts):
    accepted = frozenset().union(*exts) if exts else frozenset()
    implicit = set()
    for a in f.args:
        for b in f.args:
            if a > b or (a, b) in f.attacks or (b, a) in f.attacks:
                continue
            if not any(a in e and b in e for e in exts):
                implicit.add(frozenset((a, b)))
    return accepted == f.args, frozenset(implicit)


# -- cli ---------------------------------------------------------------------------------


def _apx(f):
    return "".join(f"arg({a}).\n" for a in sorted(f.args)) + "".join(
        f"att({a},{b}).\n" for a, b in sorted(f.attacks)
    )


def _tgf(f):
    ids = {a: str(i + 1) for i, a in enumerate(sorted(f.args))}
    return "".join(f"{ids[a]} {a}\n" for a in sorted(f.args)) + "#\n" + "".join(
        f"{ids[a]} {ids[b]}\n" for a, b in sorted(f.attacks)
    )


def cli_env(root):
    env = {k: v for k, v in os.environ.items() if k not in ("AFKIT_MAX_ARGS", "AFKIT_WORKERS")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def run_cli(argv, env):
    proc = subprocess.run(
        [sys.executable, "-m", "afkit.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    return proc.returncode, proc.stdout


def run_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


# The script runs on this many input sets, so that a pass has more than 100
# distinct commands: each command's latency is its best over the passes.
CLI_INPUT_SETS = 3


def _cli_script(rng, api, d):
    """Seeded input files in `d` and the fixed script over them: a list of
    (argv, function giving the expected exit code and json items)."""
    AF = api.AF
    d.mkdir(parents=True, exist_ok=True)
    f = _sparse_af(rng, AF, rng.randint(4, 6), 0.3)
    g = _sparse_af(rng, AF, rng.randint(2, 4), 0.4)
    loop = rng.choice(sorted(f.args))
    h = AF(f.args, f.attacks | {(loop, loop)})
    fk = api.AF(f.args, ref.kernel_parts(h, "k_stb")[1])
    sets = ref.ordered(ref.Frame(_sparse_af(rng, AF, rng.randint(3, 5), 0.3)).extensions("stg"))
    logic = _logic_with_intersection(rng, api.make_logic, 3, 4)
    files = {
        "f.apx": _apx(f), "g.apx": _apx(g), "h.apx": _apx(h), "fk.apx": _apx(fk), "f.tgf": _tgf(f),
        "s.set": "".join((",".join(sorted(s)) or "-") + "\n" for s in sets),
        "l.lf": "atoms " + ", ".join(logic.atoms) + "\ninterpretations " + ", ".join(logic.interpretations) + "\n"
        + "".join(f"models({','.join(sorted(t)) or '{}'}) = {{{', '.join(sorted(m))}}}\n" for t, m in logic.table.items()),
    }
    for name, text in files.items():
        (d / name).write_text(text, encoding="utf-8")
    p = {name: str(d / name) for name in files}
    sem = rng.choice(("prf", "stb", "com", "grd"))

    def rc_of(answer):
        return {"equivalent": 0, "yes": 0, "not_equivalent": 1, "no": 1}.get(answer, 3)

    # argv -> expected (exit code, json payload items) from the library
    script = [
        (["enumerate", "--semantics", sem, p["f.apx"]],
         lambda: (0, [sorted(e) for e in api.extensions(f, sem)])),
        (["enumerate", "--semantics", "cf2", "--format", "tgf", p["f.tgf"]],
         lambda: (0, [sorted(e) for e in api.extensions(f, "cf2")])),
        (["labellings", "--semantics", "prf", p["h.apx"]],
         lambda: (0, [{"in": sorted(l.in_set), "out": sorted(l.out_set), "undec": sorted(l.undec_set)}
                      for l in api.labellings(h, "prf")])),
        (["kernel", "--kind", "k_stb", p["h.apx"]],
         lambda: (0, {"args": sorted(fk.args), "attacks": sorted(list(x) for x in fk.attacks)})),
        (["equiv", "--notion", "E", "--semantics", "stb", p["h.apx"], p["fk.apx"]],
         lambda: (0, {"answer": "equivalent"})),
        (["equiv", "--notion", "E", "--semantics", "prf", p["f.apx"], p["g.apx"]],
         lambda: (rc_of(v := api.decide_equivalence(f, g, "E", "prf").answer), {"answer": v})),
        (["equiv", "--notion", "W", "--semantics", "prf", p["f.apx"], p["g.apx"]],
         lambda: (3, {"answer": "unsupported"})),
        (["witness", "--notion", "E", "--semantics", "stb", "--max-attacks", "2", p["h.apx"], p["fk.apx"]],
         lambda: (1, {"witness": None, "complete": True})),
        (["witness", "--notion", "N", "--semantics", "prf", p["f.apx"], p["g.apx"]],
         lambda: (0 if (r := api.search_counterexample(f, g, "N", "prf")).witness else 1, {"complete": r.complete})),
        (["analyze-set", p["s.set"]],
         lambda: (0, {k: v for k, v in vars(api.analyze(sets)).items() if isinstance(v, bool)})),
        (["realize", "--semantics", "stg", p["s.set"]],
         lambda: (0, {"answer": "yes"})),
        (["realize", "--semantics", "prf", "--variant", "compact", p["s.set"]],
         lambda: (3, {"answer": "necessary_only"})),
        (["classify", "--semantics", "semi", p["f.apx"]],
         lambda: (0, {"compact": api.is_compact(f, "semi"), "analytic": not api.implicit_conflicts(f, "semi")})),
        (["verify-class", "--semantics", "com", p["f.apx"]],
         lambda: (0, {"extensions": [sorted(e) for e in api.extensions(f, "com")]})),
        (["charlogic", "--check-intersection", p["l.lf"]],
         lambda: (0, {"intersection": True, "galois": True})),
        (["charlogic", "--characterize", p["l.lf"]],
         lambda: (0, {"legend": dict(api.canonical_characterization(logic).legend)})),
        (["rho-logic", "--universe", "a,b", "--semantics", "stb"],
         lambda: (0, {"kernel": "k_stb"})),
    ]
    return files, script


def build_cli(seed, api, workdir):
    """A fixed script over all eleven subcommands on tiny seeded inputs, in
    text and json; the json runs are checked against the library's own
    verdict, the text runs against an in-process ``main(argv)``."""
    import afkit.cli as cli

    rng = random.Random(seed)
    inputs, script = [], []
    for k in range(CLI_INPUT_SETS):
        d = Path(workdir) / f"cli-{seed}" / str(k)
        files, part = _cli_script(rng, api, d)
        inputs += [f"{k}/{name}\n{text}" for name, text in sorted(files.items())]
        script += part
    env = cli_env(Path(workdir).parent)
    queries = []
    for argv, expect in script:
        for output in ("text", "json"):
            full = argv[:1] + ["--output", output] + argv[1:]

            def check(ans, full=full, expect=expect, output=output):
                rc, stdout = ans
                if (rc, stdout) != run_main(cli, full):
                    return False
                want_rc, want = expect()
                if rc != want_rc:
                    return False
                if output == "text":
                    return True
                got = json.loads(stdout)
                if isinstance(want, dict):
                    return all(got.get(k) == v for k, v in want.items())
                return got == want

            queries.append(Query(
                f"cli:{argv[0]}:{output}",
                lambda full=full: run_cli(full, env),
                check,
                inproc=lambda full=full: run_main(cli, full),
            ))
    return Workload(queries, inputs)


WORKLOADS = {
    "enumerate": build_enumerate,
    "equiv-witness": build_equiv,
    "realize-verify": build_realize,
    "cli": build_cli,
}
