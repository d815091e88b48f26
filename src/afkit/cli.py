"""Command-line surface. Decision subcommands encode their answer in the exit
code (0 affirmative, 1 negative, 3 unsupported/undecided); usage and parse
problems and internal errors exit with 2. Output is plain text by default or
key-sorted JSON with --output json.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

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
from .core import AF, AFError
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


def _emit(payload_text: str, payload_json, as_json: bool) -> None:
    if as_json:
        import json  # only --output json pays for it

        print(json.dumps(payload_json, sort_keys=True, ensure_ascii=False))
    else:
        if payload_text:
            print(payload_text)


def _set_list(s: Iterable[str]) -> list[str]:
    return sorted(s)


def _af_json(f: AF):
    return {"args": list(f.names), "attacks": [list(p) for p in sorted(f.attacks)]}


def _af_inline(f: AF) -> str:
    args = " ".join(f.names)
    atts = " ".join(f"{a}>{b}" for a, b in sorted(f.attacks))
    return f"[{args} | {atts}]"


def _ext_lines(sets) -> str:
    return formats.emit_extension_set(sets).rstrip("\n")


# -- subcommand handlers ---------------------------------------------------------
# Each handler imports the library module it uses, and the parser's choice lists
# come from config, so a process loads only what its subcommand needs.


def cmd_enumerate(ns) -> int:
    f = _load_af(ns.file, ns.format)
    exts = extensions(f, ns.semantics)
    _emit(_ext_lines(exts), [_set_list(e) for e in exts], ns.output == "json")
    return EXIT_OK


def cmd_labellings(ns) -> int:
    f = _load_af(ns.file, ns.format)
    labs = labellings(f, ns.semantics)
    text = "\n".join(
        "in={} out={} undec={}".format(
            ",".join(_set_list(l.in_set)) or "-",
            ",".join(_set_list(l.out_set)) or "-",
            ",".join(_set_list(l.undec_set)) or "-",
        )
        for l in labs
    )
    payload = [
        {"in": _set_list(l.in_set), "out": _set_list(l.out_set), "undec": _set_list(l.undec_set)}
        for l in labs
    ]
    _emit(text, payload, ns.output == "json")
    return EXIT_OK


def cmd_kernel(ns) -> int:
    from . import kernels

    f = _load_af(ns.file, ns.format)
    out = kernels.kernel(f, ns.kind)
    _emit(formats.emit_af(out, ns.format).rstrip("\n"), _af_json(out), ns.output == "json")
    return EXIT_OK


def cmd_equiv(ns) -> int:
    from . import kernels

    f = _load_af(ns.f, ns.format)
    g = _load_af(ns.g, ns.format)
    flavor = "labelling" if ns.labelling else "extension"
    verdict = kernels.decide_equivalence(f, g, ns.notion, ns.semantics, flavor)
    text = verdict.answer
    if verdict.detail:
        text += f" ({verdict.method}: {verdict.detail})"
    payload = {"answer": verdict.answer, "method": verdict.method, "detail": verdict.detail}
    _emit(text, payload, ns.output == "json")
    if verdict.answer == "equivalent":
        return EXIT_OK
    if verdict.answer == "not_equivalent":
        return EXIT_NO
    return EXIT_UNSUPPORTED


def cmd_witness(ns) -> int:
    from . import kernels

    f = _load_af(ns.f, ns.format)
    g = _load_af(ns.g, ns.format)
    budget = kernels.SearchBudget(fresh_args=ns.fresh, max_attacks=ns.max_attacks)
    result = kernels.search_counterexample(f, g, ns.notion, ns.semantics, budget)
    if result.witness is None:
        _emit(
            "none within budget" if result.complete else "search cut short",
            {"witness": None, "complete": result.complete},
            ns.output == "json",
        )
        return EXIT_NO
    w = result.witness
    if isinstance(w, AF):
        text = formats.emit_af(w, ns.format).rstrip("\n") or "(empty framework)"
        _emit(text, {"witness": _af_json(w), "complete": result.complete}, ns.output == "json")
    else:
        text = "delete args={} attacks={}".format(
            ",".join(_set_list(w.args)) or "-",
            ",".join(f"{a}>{b}" for a, b in sorted(w.attacks)) or "-",
        )
        payload = {
            "witness": {
                "delete_args": _set_list(w.args),
                "delete_attacks": [list(p) for p in sorted(w.attacks)],
            },
            "complete": result.complete,
        }
        _emit(text, payload, ns.output == "json")
    return EXIT_OK


def cmd_analyze_set(ns) -> int:
    from . import realizability

    sets = formats.parse_extension_set(_read(ns.setfile))
    a = realizability.analyze(sets)
    flags = {
        "nonempty": a.nonempty,
        "contains_empty": a.contains_empty,
        "singleton": a.singleton,
        "incomparable": a.incomparable,
        "downward_closed": a.downward_closed,
        "tight": a.tight,
        "dcl_tight": a.dcl_tight,
        "conflict_sensitive": a.conflict_sensitive,
    }
    text = "\n".join(f"{k}: {str(v).lower()}" for k, v in sorted(flags.items()))
    text += "\nargs: " + (",".join(_set_list(a.args)) or "-")
    payload = dict(flags, args=_set_list(a.args))
    _emit(text, payload, ns.output == "json")
    return EXIT_OK


def cmd_realize(ns) -> int:
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
        lines = [f"necessary_only (condition {condition}; not a decision)"]
    else:
        rc = EXIT_OK if verdict.answer == "yes" else EXIT_NO
        lines = [verdict.answer]
    if witness is not None:
        lines.append(formats.emit_af(witness, ns.format).rstrip("\n"))
        payload["witness"] = _af_json(witness)
    _emit("\n".join(lines), payload, ns.output == "json")
    return rc


def cmd_classify(ns) -> int:
    from . import realizability

    f = _load_af(ns.file, ns.format)
    implicit = realizability.implicit_conflicts(f, ns.semantics)
    # every classifiable semantics is conflict-free, so a self-attacker is always
    # rejected, and any other rejected argument is an implicit conflict with itself
    compact = not f.loops_mask() and all(len(p) == 2 for p in implicit)
    analytic = not implicit
    pair_strs = sorted(",".join(_set_list(p)) for p in implicit)
    text = f"compact: {str(compact).lower()}\nanalytic: {str(analytic).lower()}"
    text += "\nimplicit: " + ("; ".join(pair_strs) if pair_strs else "-")
    payload = {
        "compact": compact,
        "analytic": analytic,
        "implicit_conflicts": [_set_list(p) for p in sorted(implicit, key=lambda p: sorted(p))],
    }
    _emit(text, payload, ns.output == "json")
    return EXIT_OK


def cmd_verify_class(ns) -> int:
    from . import verifiability

    f = _load_af(ns.file, ns.format)
    exact = verifiability.exact_class(ns.semantics)
    use = verifiability.parse_class(ns.cls) if ns.cls else exact
    data = verifiability.verification_class(f, use)
    exts = verifiability.verify(ns.semantics, data, f.args)
    lines = [f"exact-class: {exact}", f"class: {use}"]
    for base, info in data.entries:
        parts = " ; ".join(",".join(_set_list(x)) or "-" for x in info)
        lines.append("({}) -> ({})".format(",".join(_set_list(base)) or "-", parts))
    lines.append("extensions:")
    lines.append(_ext_lines(exts) if exts else "")
    payload = {
        "exact_class": exact,
        "class": use,
        "entries": [
            {"set": _set_list(base), "info": [_set_list(x) for x in info]}
            for base, info in data.entries
        ],
        "extensions": [_set_list(e) for e in exts],
    }
    _emit("\n".join(l for l in lines if l != ""), payload, ns.output == "json")
    return EXIT_OK


def cmd_charlogic(ns) -> int:
    from . import charlogic as cl

    logic = formats.parse_logic(_read(ns.logicfile))
    as_json = ns.output == "json"
    if ns.consequence is not None:
        theory = (
            frozenset()
            if ns.consequence in ("{}", "")
            else frozenset(t.strip() for t in ns.consequence.split(","))
        )
        cn = cl.canonical_consequence(logic, theory)
        props = cl.consequence_properties(logic)
        text = "Cn: " + (",".join(_set_list(cn)) or "-")
        text += "\n" + "\n".join(f"{k}: {str(v).lower()}" for k, v in sorted(props.items()))
        _emit(text, {"consequence": _set_list(cn), "properties": props}, as_json)
        return EXIT_OK
    if ns.check_intersection:
        ok = cl.has_intersection_property(logic)
        galois = cl.galois_check(logic)
        text = f"intersection: {str(ok).lower()}\ngalois: {str(galois).lower()}"
        _emit(text, {"intersection": ok, "galois": galois}, as_json)
        return EXIT_OK if ok else EXIT_NO
    if ns.characterize:
        char = cl.canonical_characterization(logic)
        lines = []
        legend = char.legend or {}
        for t in char.theories:
            theory_txt = ",".join(sorted(t)) if t else "{}"
            ids = sorted(char.table[t], key=lambda i: int(i[1:]))
            lines.append(f"models({theory_txt}) = {{{', '.join(ids)}}}")
        lines.append("legend:")
        for i in sorted(legend, key=lambda i: int(i[1:])):
            lines.append(f"  {i} = {legend[i]}")
        payload = {
            "models": {
                (",".join(sorted(t)) if t else "{}"): sorted(char.table[t]) for t in char.theories
            },
            "legend": dict(legend),
        }
        _emit("\n".join(lines), payload, as_json)
        return EXIT_OK
    # default: echo the canonical form of the logic
    _emit(
        formats.emit_logic(logic).rstrip("\n"),
        {
            "atoms": list(logic.atoms),
            "interpretations": list(logic.interpretations),
            "models": {
                (",".join(sorted(t)) if t else "{}"): _set_list(logic.table[t])
                for t in logic.theories
            },
        },
        as_json,
    )
    return EXIT_OK


def cmd_rho_logic(ns) -> int:
    from . import charlogic as cl

    universe = [t.strip() for t in ns.universe.split(",") if t.strip()]
    rho = cl.rho_logic(universe, ns.semantics)
    lines = [f"kernel: {rho.kernel_id}", f"frameworks: {len(rho.afs)}"]
    payload_rows = []
    for f in rho.afs:
        members = sorted(_af_inline(g) for g in rho.rho_prime[f])
        lines.append(f"{_af_inline(f)} -> {len(members)}: " + " ".join(members))
        payload_rows.append({"af": _af_inline(f), "rho": members})
    _emit(
        "\n".join(lines),
        {"kernel": rho.kernel_id, "rows": payload_rows},
        ns.output == "json",
    )
    return EXIT_OK


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
        return ns.handler(ns)
    except (AFError, formats.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # an internal fault must not exit 1, which reads as a negative verdict
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
