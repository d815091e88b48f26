"""Command-line surface. Decision subcommands encode their answer in the exit
code (0 affirmative, 1 negative, 3 unsupported/undecided); usage and parse
problems and internal errors exit with 2. Output is plain text by default or
key-sorted JSON with --output json; each handler returns both, and main alone
prints.
"""

from __future__ import annotations

import argparse
import sys

from . import formats
from .config import (
    CLASSIFIABLE_SEMANTICS,
    DELETION_NOTIONS,
    EXPANSION_NOTIONS,
    KERNEL_IDS,
    NOTIONS,
    SIGNATURE_SEMANTICS,
    VERIFIABLE_SEMANTICS,
)
from .core import AF, AFError, check_user_name
from .semantics import (
    LABELLING_SEMANTICS,
    SEMANTICS,
    extensions,
    labellings,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_UNSUPPORTED = 3


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise AFError(f"cannot read {path}: {exc}") from None


def _load_af(path: str, fmt: str) -> AF:
    return formats.parse_af(_read(path), fmt)


def _af_out(f: AF, fmt: str):
    """A framework as text in fmt, without the final newline, and as JSON."""
    payload = {"args": list(f.names), "attacks": [list(p) for p in sorted(f.attacks)]}
    return formats.emit_af(f, fmt).rstrip("\n"), payload


def _af_inline(f: AF) -> str:
    args = " ".join(f.names)
    atts = " ".join(f"{a}>{b}" for a, b in sorted(f.attacks))
    return f"[{args} | {atts}]"


def _ext_lines(sets) -> str:
    return formats.emit_extension_set(sets).rstrip("\n")


def _flag_lines(flags) -> str:
    return "\n".join(f"{k}: {str(v).lower()}" for k, v in flags)


# -- subcommand handlers ---------------------------------------------------------
# Each handler returns (exit code, text, JSON payload), and main prints one of
# the two. Each imports the library module it uses, and the parser's choice
# lists come from config, so a process loads only what its subcommand needs.


def cmd_enumerate(ns):
    exts = extensions(_load_af(ns.file, ns.format), ns.semantics)
    return EXIT_OK, _ext_lines(exts), [sorted(e) for e in exts]


def cmd_labellings(ns):
    labs = labellings(_load_af(ns.file, ns.format), ns.semantics)
    parts = [(l.in_set, l.out_set, l.undec_set) for l in labs]
    text = "\n".join("in={} out={} undec={}".format(*map(formats.names_text, p)) for p in parts)
    return EXIT_OK, text, [{"in": sorted(i), "out": sorted(o), "undec": sorted(u)} for i, o, u in parts]


def cmd_kernel(ns):
    from . import kernels

    return (EXIT_OK, *_af_out(kernels.kernel(_load_af(ns.file, ns.format), ns.kind), ns.format))


def cmd_equiv(ns):
    from . import kernels

    f = _load_af(ns.f, ns.format)
    g = _load_af(ns.g, ns.format)
    flavor = "labelling" if ns.labelling else "extension"
    v = kernels.decide_equivalence(f, g, ns.notion, ns.semantics, flavor)
    rc = {"equivalent": EXIT_OK, "not_equivalent": EXIT_NO}.get(v.answer, EXIT_UNSUPPORTED)
    text = f"{v.answer} ({v.method}: {v.detail})" if v.detail else v.answer
    return rc, text, {"answer": v.answer, "method": v.method, "detail": v.detail}


def cmd_witness(ns):
    from . import kernels

    f = _load_af(ns.f, ns.format)
    g = _load_af(ns.g, ns.format)
    budget = kernels.SearchBudget(fresh_args=ns.fresh, max_attacks=ns.max_attacks)
    result = kernels.search_counterexample(f, g, ns.notion, ns.semantics, budget)
    w = result.witness
    if w is None:  # the command sets no candidate cap, so the search ran to the end
        return EXIT_NO, "none within budget", {"witness": None, "complete": result.complete}
    if isinstance(w, AF):
        text, payload = _af_out(w, ns.format)
        text = text or "(empty framework)"
    else:
        attacks = sorted(w.attacks)
        text = "delete args={} attacks={}".format(
            formats.names_text(w.args), ",".join(f"{a}>{b}" for a, b in attacks) or "-"
        )
        payload = {"delete_args": sorted(w.args), "delete_attacks": [list(p) for p in attacks]}
    return EXIT_OK, text, {"witness": payload, "complete": result.complete}


def cmd_analyze_set(ns):
    from . import realizability

    a = realizability.analyze(formats.parse_extension_set(_read(ns.setfile)))
    flags = {k: v for k, v in vars(a).items() if isinstance(v, bool)}
    text = _flag_lines(sorted(flags.items())) + "\nargs: " + formats.names_text(a.args)
    return EXIT_OK, text, dict(flags, args=sorted(a.args))


def cmd_realize(ns):
    from . import realizability

    sets = formats.parse_extension_set(_read(ns.setfile))
    variants = {"finite": "finite", "compact": "finite_compact", "analytic": "finite_analytic"}
    variant = variants[ns.variant]
    if variant == "finite":  # every finite cell is exact: realize decides, None is "no"
        witness = realizability.realize(sets, ns.semantics)
        verdict = realizability.SignatureVerdict("no" if witness is None else "yes")
    else:
        witness, verdict = None, realizability.decide_signature(sets, ns.semantics, variant)
    payload = {"answer": verdict.answer, "condition_holds": verdict.condition_holds, "witness": None}
    if verdict.answer == "necessary_only":
        rc = EXIT_UNSUPPORTED
        condition = "holds" if verdict.condition_holds else "fails"
        text = f"necessary_only (condition {condition}; not a decision)"
    else:
        rc = EXIT_OK if verdict.answer == "yes" else EXIT_NO
        text = verdict.answer
    if witness is not None:
        af_text, payload["witness"] = _af_out(witness, ns.format)
        text += "\n" + af_text
    return rc, text, payload


def cmd_classify(ns):
    from . import realizability

    f = _load_af(ns.file, ns.format)
    implicit = realizability.implicit_conflicts(f, ns.semantics)
    # every classifiable semantics is conflict-free, so a self-attacker is always
    # rejected, and any other rejected argument is an implicit conflict with itself
    compact = not f.loops_mask() and all(len(p) == 2 for p in implicit)
    analytic = not implicit
    text = _flag_lines([("compact", compact), ("analytic", analytic)])
    text += "\nimplicit: " + ("; ".join(sorted(map(formats.names_text, implicit))) or "-")
    payload = {"compact": compact, "analytic": analytic, "implicit_conflicts": sorted(map(sorted, implicit))}
    return EXIT_OK, text, payload


def cmd_verify_class(ns):
    from . import verifiability

    f = _load_af(ns.file, ns.format)
    exact = verifiability.exact_class(ns.semantics)
    use = verifiability.parse_class(ns.cls) if ns.cls else exact
    data = verifiability.verification_class(f, use)
    exts = verifiability.verify(ns.semantics, data, f.args)
    lines = [f"exact-class: {exact}", f"class: {use}"]
    for base, info in data.entries:
        parts = " ; ".join(map(formats.names_text, info))
        lines.append(f"({formats.names_text(base)}) -> ({parts})")
    lines.append("extensions:")
    if exts:
        lines.append(_ext_lines(exts))
    payload = {
        "exact_class": exact,
        "class": use,
        "entries": [{"set": sorted(base), "info": [sorted(x) for x in info]} for base, info in data.entries],
        "extensions": [sorted(e) for e in exts],
    }
    return EXIT_OK, "\n".join(lines), payload


def cmd_charlogic(ns):
    from . import charlogic as cl

    logic = formats.parse_logic(_read(ns.logicfile))
    if ns.consequence is not None:
        # the atoms, comma-separated, inside one optional pair of braces
        atoms = ns.consequence
        if atoms[:1] == "{" and atoms[-1:] == "}":
            atoms = atoms[1:-1]
        if "{" in atoms or "}" in atoms:
            raise AFError(f"--consequence {ns.consequence!r} has a brace other than one pair around it")
        theory = frozenset(t.strip() for t in atoms.split(",")) if atoms else frozenset()
        if "" in theory:
            raise AFError(f"empty atom name in --consequence {ns.consequence!r}")
        cn = cl.canonical_consequence(logic, theory)
        props = cl.consequence_properties(logic)
        text = f"Cn: {formats.names_text(cn)}\n" + _flag_lines(sorted(props.items()))
        return EXIT_OK, text, {"consequence": sorted(cn), "properties": props}
    if ns.check_intersection:
        ok = cl.has_intersection_property(logic)
        galois = cl.galois_check(logic)
        text = _flag_lines([("intersection", ok), ("galois", galois)])
        return EXIT_OK if ok else EXIT_NO, text, {"intersection": ok, "galois": galois}
    if ns.characterize:
        char = cl.canonical_characterization(logic)
        legend = char.legend or {}

        def by_number(i):
            return int(i[1:])

        lines = [
            f"models({formats.theory_text(t)}) = {{{', '.join(sorted(char.table[t], key=by_number))}}}"
            for t in char.theories
        ]
        lines.append("legend:")
        lines += [f"  {i} = {legend[i]}" for i in sorted(legend, key=by_number)]
        payload = {
            "models": {formats.theory_text(t): sorted(char.table[t]) for t in char.theories},
            "legend": dict(legend),
        }
        return EXIT_OK, "\n".join(lines), payload
    # default: echo the canonical form of the logic
    payload = {
        "atoms": list(logic.atoms),
        "interpretations": list(logic.interpretations),
        "models": {formats.theory_text(t): sorted(logic.table[t]) for t in logic.theories},
    }
    return EXIT_OK, formats.emit_logic(logic).rstrip("\n"), payload


def cmd_rho_logic(ns):
    from . import charlogic as cl

    universe = sorted({t.strip() for t in ns.universe.split(",")} - {""})
    for name in universe:
        check_user_name(name)
    rho = cl.rho_logic(universe, ns.semantics)
    rows = [(_af_inline(f), sorted(map(_af_inline, rho.rho_prime[f]))) for f in rho.afs]
    lines = [f"kernel: {rho.kernel_id}", f"frameworks: {len(rho.afs)}"]
    lines += [f"{af} -> {len(members)}: " + " ".join(members) for af, members in rows]
    payload = {"kernel": rho.kernel_id, "rows": [{"af": af, "rho": members} for af, members in rows]}
    return EXIT_OK, "\n".join(lines), payload


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afkit", description="Finite argumentation-framework toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=True):
        if with_format:
            p.add_argument("--format", choices=("apx", "tgf"), default="apx")
        p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("enumerate", help="extensions of a framework")
    p.add_argument("--semantics", required=True, choices=SEMANTICS)
    common(p)
    p.add_argument("file")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("labellings", help="labellings of a framework")
    p.add_argument("--semantics", required=True, choices=LABELLING_SEMANTICS)
    common(p)
    p.add_argument("file")
    p.set_defaults(handler=cmd_labellings)

    p = sub.add_parser("kernel", help="kernelized framework")
    p.add_argument("--kind", required=True, choices=KERNEL_IDS)
    common(p)
    p.add_argument("file")
    p.set_defaults(handler=cmd_kernel)

    p = sub.add_parser("equiv", help="decide an equivalence notion")
    p.add_argument("--notion", required=True, choices=NOTIONS)
    p.add_argument("--semantics", required=True, choices=SEMANTICS)
    p.add_argument("--labelling", action="store_true")
    common(p)
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(handler=cmd_equiv)

    p = sub.add_parser("witness", help="search a distinguishing scenario")
    p.add_argument("--notion", required=True, choices=EXPANSION_NOTIONS + DELETION_NOTIONS)
    p.add_argument("--semantics", required=True, choices=SEMANTICS)
    p.add_argument("--fresh", type=int, default=1)
    p.add_argument("--max-attacks", type=int, default=3)
    common(p)
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("analyze-set", help="structural flags of an extension-set")
    common(p, with_format=False)
    p.add_argument("setfile")
    p.set_defaults(handler=cmd_analyze_set)

    p = sub.add_parser("realize", help="signature membership and witness framework")
    p.add_argument("--semantics", required=True, choices=SIGNATURE_SEMANTICS)
    p.add_argument("--variant", choices=("finite", "compact", "analytic"), default="finite")
    common(p)
    p.add_argument("setfile")
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser("classify", help="compact/analytic classification")
    p.add_argument("--semantics", required=True, choices=CLASSIFIABLE_SEMANTICS)
    common(p)
    p.add_argument("file")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify-class", help="verification class data and reconstruction")
    p.add_argument("--semantics", required=True, choices=VERIFIABLE_SEMANTICS)
    p.add_argument("--class", dest="cls", default=None)
    common(p)
    p.add_argument("file")
    p.set_defaults(handler=cmd_verify_class)

    p = sub.add_parser("charlogic", help="finite-logic operations")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--characterize", action="store_true")
    group.add_argument("--check-intersection", action="store_true")
    group.add_argument("--consequence", metavar="THEORY", default=None)
    common(p, with_format=False)
    p.add_argument("logicfile")
    p.set_defaults(handler=cmd_charlogic)

    p = sub.add_parser("rho-logic", help="framework-level characterization table")
    p.add_argument("--universe", required=True)
    p.add_argument("--semantics", required=True, choices=SEMANTICS)
    common(p, with_format=False)
    p.set_defaults(handler=cmd_rho_logic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_ERROR if exc.code not in (0,) else 0
    try:
        rc, text, payload = ns.handler(ns)
        if ns.output == "json":
            import json  # only --output json pays for it

            print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
        elif text:
            print(text)
        return rc
    except ValueError as exc:  # AFError and formats.ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # an internal fault must not exit 1, which reads as a negative verdict
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
