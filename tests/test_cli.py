"""Golden-file tests for the command surface: three per subcommand, byte-exact
output plus the documented exit codes (0 affirmative, 1 negative, 2 error,
3 unsupported)."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afkit.cli
from afkit import kernels, realizability, verifiability
from afkit.cli import main
from afkit.semantics import LABELLING_SEMANTICS, SEMANTICS

F6 = "arg(a).\narg(b).\narg(c).\narg(d).\natt(b,a).\natt(b,c).\natt(c,c).\natt(d,c).\n"
G6 = "arg(b).\narg(c).\narg(d).\natt(b,c).\natt(c,b).\natt(c,c).\natt(c,d).\n"
G6W = "arg(a).\narg(b).\narg(c).\narg(d).\natt(b,c).\natt(c,b).\natt(c,c).\natt(c,d).\n"
SELF = "arg(a1).\natt(a1,a1).\n"
CYCLE = "arg(a1).\narg(a2).\narg(a3).\natt(a1,a2).\natt(a2,a3).\natt(a3,a1).\n"
LAB_F = "arg(a).\narg(b).\natt(a,b).\natt(b,b).\n"
LAB_G = "arg(a).\narg(b).\natt(b,b).\n"
NAV_K = "arg(a).\narg(b).\natt(a,b).\n"
F_KER = "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,b).\natt(b,c).\natt(c,a).\n"
G_KER = "arg(a).\narg(b).\narg(c).\natt(b,b).\natt(b,c).\natt(c,a).\n"
F_SIMPLE = "arg(a).\narg(b).\narg(c).\narg(d).\natt(a,b).\natt(b,a).\natt(a,c).\natt(b,d).\n"
F_NEIGH = "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,a).\natt(b,b).\natt(c,b).\n"
F_COM1 = "arg(a).\narg(b).\natt(b,b).\natt(b,a).\n"
# Components {a,b}, the odd cycle {c,d,e} (where d attacks both others), the
# self-attacker f, then g and h: nav, stg, cf2 and stg2 all differ.
NAIVE_AF = (
    "arg(a).\narg(b).\narg(c).\narg(d).\narg(e).\narg(f).\narg(g).\narg(h).\n"
    "att(a,b).\natt(b,a).\natt(b,c).\natt(c,d).\natt(d,e).\natt(e,c).\natt(d,c).\n"
    "att(e,f).\natt(f,f).\natt(f,g).\natt(g,h).\n"
)
# NAIVE_AF, F_KER and G_KER in TGF, with node ids that are not the labels
NAIVE_TGF = (
    "1 a\n2 b\n3 c\n4 d\n5 e\n6 f\n7 g\n8 h\n#\n"
    "1 2\n2 1\n2 3\n3 4\n4 5\n5 3\n4 3\n5 6\n6 6\n6 7\n7 8\n"
)
F_KER_TGF = "n1 a\nn2 b\nn3 c\n#\nn1 n2\nn2 n2\nn2 n3\nn3 n1\n"
G_KER_TGF = "n1 a\nn2 b\nn3 c\n#\nn2 n2\nn2 n3\nn3 n1\n"
SET_ANTICHAIN = "a,b\na,c\nb,c\n"
SET_TIGHT = "a,b\na,c\nb,d\nc,d\n"
SET_EMPTYEXT = "-\n"
SET_NAV = "a1,b2,b3\na2,b1,b3\na3,b1,b2\nb1,b2,b3\n"
SET_DEFENSE = "a,b\na,d,e\nb,c,e\n"
# stg-realizable, and its canonical construction needs one blocker
SET_STG = "a,b,c\nb,e,f\nc,d,e\n"
DEMO_LF = (
    "atoms a, b, c\ninterpretations i0, i1, i2, i3\n"
    "models({}) = {i0}\nmodels(a) = {i1}\nmodels(b) = {i2}\nmodels(c) = {i3}\n"
    "models(a,b) = {}\nmodels(a,c) = {}\nmodels(b,c) = {}\nmodels(a,b,c) = {}\n"
)
MONO_LF = (
    "atoms a, b\ninterpretations 1, 2\n"
    "models({}) = {1, 2}\nmodels(a) = {1, 2}\nmodels(b) = {2}\nmodels(a,b) = {}\n"
)
# models(s ∪ t) = models(s) ∩ models(t): the intersection property holds
MEET_LF = (
    "atoms a, b\ninterpretations 1, 2, 3, 4\n"
    "models({}) = {1, 2, 3, 4}\nmodels(a) = {1, 2}\nmodels(b) = {1, 3}\nmodels(a,b) = {1}\n"
)
ONE_LF = "atoms a\ninterpretations 1\nmodels({}) = {}\nmodels(a) = {1}\n"


def _six_atom_lf() -> str:
    """A fixed 6-atom logic whose strong partition merges some theories."""
    atoms = "abcdef"
    lines = ["atoms " + ", ".join(atoms), "interpretations i0, i1, i2, i3"]
    for m in range(64):
        t = [a for i, a in enumerate(atoms) if m >> i & 1]
        keep = (len(t) <= 3, "a" not in t or "b" in t, bin(m & 0b110100).count("1") % 2 == 0, m % 7 != 3)
        ids = [f"i{k}" for k in range(4) if keep[k]]
        lines.append(f"models({','.join(t) or '{}'}) = {{{', '.join(ids)}}}")
    return "\n".join(lines) + "\n"


SIX_LF = _six_atom_lf()


def run(tmp_path, capsys, argv, files):
    paths = {}
    for name, content in files.items():
        p = tmp_path / name
        p.write_text(content, encoding="utf-8")
        paths[name] = str(p)
    rc = main([paths.get(a, a) for a in argv])
    return rc, capsys.readouterr().out


class TestEnumerate:
    def test_stable_six_af(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["enumerate", "--semantics", "stb", "f.apx"], {"f.apx": F6})
        assert (rc, out) == (0, "b,d\n")

    def test_stage_of_self_attacker(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["enumerate", "--semantics", "stg", "f.apx"], {"f.apx": SELF})
        assert (rc, out) == (0, "-\n")

    def test_cf2_three_cycle(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["enumerate", "--semantics", "cf2", "f.apx"], {"f.apx": CYCLE})
        assert (rc, out) == (0, "a1\na2\na3\n")

    def test_cap_counts_only_swept_arguments(self, tmp_path, capsys, monkeypatch):
        # grd sweeps nothing, so a 30-argument chain answers at the default cap;
        # 30 isolated arguments under cf are still refused
        monkeypatch.delenv("AFKIT_MAX_ARGS", raising=False)
        names = [f"a{i:02d}" for i in range(30)]
        args = "".join(f"arg({a}).\n" for a in names)
        chain = args + "".join(f"att({a},{b}).\n" for a, b in zip(names, names[1:]))
        rc, out = run(tmp_path, capsys, ["enumerate", "--semantics", "grd", "f.apx"], {"f.apx": chain})
        assert (rc, out) == (0, ",".join(names[::2]) + "\n")
        path = tmp_path / "g.apx"
        path.write_text(args, encoding="utf-8")
        assert main(["enumerate", "--semantics", "cf", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: framework has 30 non-self-attacking arguments, exceeding the enumeration "
            "cap of 24 (raise AFKIT_MAX_ARGS to override)\n"
        )


class TestLabellings:
    def test_out_labelled_loop(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["labellings", "--semantics", "prf", "f.apx"], {"f.apx": LAB_F})
        assert (rc, out) == (0, "in=a out=b undec=-\n")

    def test_undec_labelled_loop(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["labellings", "--semantics", "prf", "f.apx"], {"f.apx": LAB_G})
        assert (rc, out) == (0, "in=a out=- undec=b\n")

    def test_empty_framework(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["labellings", "--semantics", "grd", "f.apx"], {"f.apx": ""})
        assert (rc, out) == (0, "in=- out=- undec=-\n")


class TestKernel:
    def test_stable_kernel(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["kernel", "--kind", "k_stb", "f.apx"], {"f.apx": G6W})
        assert (rc, out) == (0, "arg(a).\narg(b).\narg(c).\narg(d).\natt(b,c).\natt(c,c).\n")

    def test_naive_kernel_adds(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["kernel", "--kind", "k_nav", "f.apx"], {"f.apx": NAV_K})
        assert (rc, out) == (0, "arg(a).\narg(b).\natt(a,b).\natt(b,a).\n")

    def test_adm_star_kernel(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["kernel", "--kind", "ks_adm", "f.apx"], {"f.apx": LAB_F})
        assert (rc, out) == (0, "arg(a).\narg(b).\natt(b,b).\n")


class TestEquiv:
    def test_not_equivalent_exit_1(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["equiv", "--notion", "E", "--semantics", "stb", "f.apx", "g.apx"],
            {"f.apx": F6, "g.apx": G6},
        )
        assert (rc, out) == (1, "not_equivalent (kernel: k_stb)\n")

    def test_equivalent_exit_0(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["equiv", "--notion", "S", "--semantics", "prf", "f.apx", "g.apx"],
            {"f.apx": LAB_F, "g.apx": LAB_G},
        )
        assert (rc, out) == (0, "equivalent (kernel: ks_adm)\n")

    def test_unsupported_exit_3(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["equiv", "--notion", "W", "--semantics", "prf", "f.apx", "g.apx"],
            {"f.apx": F6, "g.apx": G6},
        )
        assert (rc, out) == (3, "unsupported (none: cell open in the literature)\n")


class TestWitness:
    def test_six_af_witness(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["witness", "--notion", "E", "--semantics", "stb", "--fresh", "1", "f.apx", "g.apx"],
            {"f.apx": F6, "g.apx": G6},
        )
        assert (rc, out) == (0, "arg(a).\n")

    @pytest.mark.parametrize("output,want", [
        ("text", "arg(_w0).\narg(c).\narg(d).\natt(_w0,c).\natt(_w0,d).\n"),
        ("json", '{"complete": true, "witness": {"args": ["_w0", "c", "d"], '
                 '"attacks": [["_w0", "c"], ["_w0", "d"]]}}\n'),
    ])
    def test_witness_with_fresh_and_old_names(self, tmp_path, capsys, output, want):
        # the fresh _w0 sorts between B9 and c in the witness
        args = "arg(A).\narg(B9).\narg(c).\narg(d).\n"
        files = {
            "f.apx": args + "att(A,A).\natt(c,B9).\natt(c,c).\natt(d,B9).\n",
            "g.apx": args + "att(A,A).\natt(A,B9).\natt(c,B9).\natt(c,c).\natt(d,B9).\n",
        }
        argv = ["witness", "--notion", "N", "--semantics", "prf", "--fresh", "2", "--max-attacks", "3"]
        assert run(tmp_path, capsys, argv + ["--output", output, "f.apx", "g.apx"], files) == (0, want)

    def test_none_within_budget(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["witness", "--notion", "E", "--semantics", "stb", "--fresh", "1", "f.apx", "g.apx"],
            {"f.apx": F6, "g.apx": F6},
        )
        assert (rc, out) == (1, "none within budget\n")

    @pytest.mark.parametrize("option", [["--max-attacks", "-3"], ["--fresh", "-2"]])
    def test_negative_budget_exit_2(self, tmp_path, capsys, option):
        argv = ["witness", "--notion", "E", "--semantics", "stb", "f.apx", "g.apx"]
        files = {"f.apx": "arg(a).\n", "g.apx": "arg(a).\natt(a,a).\n"}
        assert run(tmp_path, capsys, argv, files) == (0, "(empty framework)\n")
        rc = main([str(tmp_path / a) if a in files else a for a in argv[:-2] + option + argv[-2:]])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith("error: search budget") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("notion,large,small", [
        ("E", ["--fresh", "400", "--max-attacks", "2"], ["--fresh", "4", "--max-attacks", "2"]),
        ("L", ["--max-attacks", "1000000"], ["--max-attacks", "3"]),
    ])
    def test_large_budget_scans_only_what_can_yield(self, tmp_path, notion, large, small):
        # two stable-equivalent frameworks, so every candidate is scanned: a
        # fresh argument must take part in an attack, and the E scan never
        # needs more than two fresh arguments per two attacks, nor the L
        # scan more attacks than its three slots
        (tmp_path / "f.apx").write_text("arg(a).\narg(b).\natt(a,a).\natt(a,b).\n", encoding="utf-8")
        (tmp_path / "g.apx").write_text("arg(a).\narg(b).\natt(a,a).\n", encoding="utf-8")
        src = str(Path(afkit.cli.__file__).resolve().parent.parent)
        procs = [
            subprocess.run(
                [sys.executable, "-m", "afkit.cli", "witness", "--notion", notion, "--semantics", "stb",
                 *budget, "--output", "json", str(tmp_path / "f.apx"), str(tmp_path / "g.apx")],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
            )
            for budget in (large, small)
        ]
        assert [(p.returncode, p.stdout, p.stderr) for p in procs] == [
            (1, '{"complete": true, "witness": null}\n', "")
        ] * 2

    def test_normal_expansion_witness(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["witness", "--notion", "N", "--semantics", "prf", "--fresh", "1", "f.apx", "g.apx"],
            {"f.apx": F_KER, "g.apx": G_KER},
        )
        assert (rc, out) == (0, "arg(_w0).\narg(b).\narg(c).\natt(_w0,c).\natt(b,_w0).\n")


class TestAnalyzeSet:
    def test_incomparable_not_tight(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["analyze-set", "s.set"], {"s.set": SET_ANTICHAIN})
        assert rc == 0
        assert out == (
            "conflict_sensitive: false\ncontains_empty: false\ndcl_tight: false\n"
            "downward_closed: false\nincomparable: true\nnonempty: true\n"
            "singleton: false\ntight: false\nargs: a,b,c\n"
        )

    def test_incomparable_and_tight(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["analyze-set", "s.set"], {"s.set": SET_TIGHT})
        assert rc == 0
        assert "tight: true" in out and "incomparable: true" in out

    def test_empty_extension_only(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["analyze-set", "s.set"], {"s.set": SET_EMPTYEXT})
        assert rc == 0
        assert out == (
            "conflict_sensitive: true\ncontains_empty: true\ndcl_tight: true\n"
            "downward_closed: true\nincomparable: true\nnonempty: true\n"
            "singleton: true\ntight: true\nargs: -\n"
        )


class TestRealize:
    def test_naive_realization(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["realize", "--semantics", "nav", "s.set"], {"s.set": SET_NAV})
        assert rc == 0
        assert out == (
            "yes\n"
            "arg(a1).\narg(a2).\narg(a3).\narg(b1).\narg(b2).\narg(b3).\n"
            "att(a1,a2).\natt(a1,a3).\natt(a1,b1).\natt(a2,a1).\natt(a2,a3).\natt(a2,b2).\n"
            "att(a3,a1).\natt(a3,a2).\natt(a3,b3).\natt(b1,a1).\natt(b2,a2).\natt(b3,a3).\n"
        )

    def test_not_realizable_exit_1(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["realize", "--semantics", "prf", "s.set"], {"s.set": SET_ANTICHAIN})
        assert (rc, out) == (1, "no\n")

    @pytest.mark.parametrize("sigma,setfile,rc", [("nav", SET_NAV, 0), ("prf", SET_ANTICHAIN, 1)])
    def test_finite_decides_once(self, tmp_path, capsys, monkeypatch, sigma, setfile, rc):
        # every finite cell is exact, so realize alone answers: None is "no"
        expected = run(tmp_path, capsys, ["realize", "--semantics", sigma, "--output", "json", "s.set"],
                       {"s.set": setfile})
        assert expected[0] == rc
        monkeypatch.setattr(realizability, "decide_signature", None)
        assert run(tmp_path, capsys, ["realize", "--semantics", sigma, "--output", "json", "s.set"],
                   {"s.set": setfile}) == expected

    def test_beyond_the_cap(self, tmp_path, capsys):
        # one set of 30 unattacked arguments: realize enumerates nothing, so
        # the enumeration cap does not apply
        names = [f"a{i:02d}" for i in range(30)]
        rc, out = run(
            tmp_path, capsys, ["realize", "--semantics", "nav", "s.set"], {"s.set": ",".join(names) + "\n"}
        )
        assert (rc, out) == (0, "yes\n" + "".join(f"arg({a}).\n" for a in names))

    def test_necessary_only_exit_3(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["realize", "--semantics", "prf", "--variant", "compact", "s.set"],
            {"s.set": SET_DEFENSE},
        )
        assert (rc, out) == (3, "necessary_only (condition holds; not a decision)\n")


class TestClassify:
    def test_one_enumeration(self, tmp_path, capsys, monkeypatch):
        calls = []
        enumerate_masks = realizability.extension_masks
        monkeypatch.setattr(
            realizability, "extension_masks", lambda *a: calls.append(a) or enumerate_masks(*a)
        )
        rc, out = run(tmp_path, capsys, ["classify", "--semantics", "stb", "f.apx"], {"f.apx": F_SIMPLE})
        assert (rc, out) == (0, "compact: true\nanalytic: false\nimplicit: c,d\n")
        assert len(calls) == 1

    def test_implicit_conflict(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["classify", "--semantics", "stb", "f.apx"], {"f.apx": F_SIMPLE})
        assert (rc, out) == (0, "compact: true\nanalytic: false\nimplicit: c,d\n")

    def test_naive_analytic(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["classify", "--semantics", "nav", "f.apx"], {"f.apx": F_SIMPLE})
        assert (rc, out) == (0, "compact: true\nanalytic: true\nimplicit: -\n")

    def test_empty_framework(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["classify", "--semantics", "prf", "f.apx"], {"f.apx": ""})
        assert (rc, out) == (0, "compact: true\nanalytic: true\nimplicit: -\n")


class TestVerifyClass:
    def test_stable_from_range_class(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["verify-class", "--semantics", "stb", "f.apx"], {"f.apx": F_NEIGH})
        assert rc == 0
        assert out == (
            "exact-class: +\nclass: +\n(-) -> (-)\n(a) -> (a,b)\n(c) -> (b,c)\n"
            "(a,c) -> (a,b,c)\nextensions:\na,c\n"
        )

    def test_complete_class(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["verify-class", "--semantics", "com", "f.apx"], {"f.apx": F_COM1})
        assert rc == 0
        assert out == (
            "exact-class: +−\nclass: +−\n(-) -> (- ; -)\n(a) -> (a ; a,b)\nextensions:\n-\n"
        )

    def test_reduction_from_stronger_class(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["verify-class", "--semantics", "nav", "--class", "plus_minus", "f.apx"],
            {"f.apx": F_NEIGH},
        )
        assert rc == 0
        assert out.startswith("exact-class: ε\nclass: +−\n")
        assert out.endswith("extensions:\na,c\n")


    @pytest.mark.parametrize("n", [40, 1200])
    def test_class_sweep_is_capped(self, tmp_path, capsys, monkeypatch, n):
        # the conflict-free sweep is refused, not run until it hangs or
        # overflows the stack
        monkeypatch.delenv("AFKIT_MAX_ARGS", raising=False)
        path = tmp_path / "f.apx"
        path.write_text("".join(f"arg(a{i:04d}).\n" for i in range(n)), encoding="utf-8")
        assert main(["verify-class", "--semantics", "stb", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: framework has {n} non-self-attacking arguments, exceeding the enumeration "
            "cap of 24 (raise AFKIT_MAX_ARGS to override)\n"
        )


class TestCharlogic:
    def test_characterize_table(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["charlogic", "--characterize", "l.lf"], {"l.lf": DEMO_LF})
        assert rc == 0
        assert out == (
            "models({}) = {t0, t1, t2, t3, t4, t5, t6, t7}\n"
            "models(a) = {t1, t4, t5, t6, t7}\n"
            "models(b) = {t2, t4, t5, t6, t7}\n"
            "models(c) = {t3, t4, t5, t6, t7}\n"
            "models(a,b) = {t4, t5, t6, t7}\n"
            "models(a,c) = {t4, t5, t6, t7}\n"
            "models(b,c) = {t4, t5, t6, t7}\n"
            "models(a,b,c) = {t4, t5, t6, t7}\n"
            "legend:\n  t0 = {}\n  t1 = {a}\n  t2 = {b}\n  t3 = {c}\n"
            "  t4 = {a,b}\n  t5 = {a,c}\n  t6 = {b,c}\n  t7 = {a,b,c}\n"
        )

    def test_check_intersection_exit_1(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["charlogic", "--check-intersection", "l.lf"], {"l.lf": MONO_LF})
        assert (rc, out) == (1, "intersection: false\ngalois: false\n")

    def test_consequence(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["charlogic", "--consequence", "{}", "l.lf"], {"l.lf": ONE_LF})
        assert (rc, out) == (0, "Cn: a\nidempotent: true\nincreasing: true\nmonotone: true\n")

    def test_consequence_of_a_theory(self, tmp_path, capsys):
        # {a, b} has no model, so every theory's models include its models
        rc, out = run(tmp_path, capsys, ["charlogic", "--consequence", "a,b", "l.lf"], {"l.lf": DEMO_LF})
        assert (rc, out) == (0, "Cn: a,b,c\nidempotent: true\nincreasing: true\nmonotone: true\n")

    @pytest.mark.parametrize("theory", [",", ",,", "a,", " , b"])
    def test_consequence_empty_atom_refused(self, tmp_path, capsys, theory):
        path = tmp_path / "l.lf"
        path.write_text(DEMO_LF, encoding="utf-8")
        rc = main(["charlogic", "--consequence", theory, str(path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"error: empty atom name in --consequence {theory!r}\n"

    @pytest.mark.parametrize("theory", ["", "{}"])
    def test_consequence_of_the_empty_theory(self, tmp_path, capsys, theory):
        rc, out = run(tmp_path, capsys, ["charlogic", "--consequence", theory, "l.lf"], {"l.lf": ONE_LF})
        assert (rc, out) == (0, "Cn: a\nidempotent: true\nincreasing: true\nmonotone: true\n")

    @pytest.mark.parametrize("theory,cn", [("{a,b}", "a,b,c"), ("{ a , b }", "a,b,c"), ("{a}", "a")])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_consequence_in_braces(self, tmp_path, capsys, theory, cn, output):
        # one pair of braces around the theory reads as the atoms inside it,
        # with the bytes of the same atoms written without braces
        files = {"l.lf": DEMO_LF}
        braced = run(tmp_path, capsys, ["charlogic", "--consequence", theory, "--output", output, "l.lf"], files)
        bare = run(tmp_path, capsys, ["charlogic", "--consequence", theory[1:-1], "--output", output, "l.lf"], files)
        assert braced == bare and braced[0] == 0
        if output == "text":
            assert braced[1].startswith(f"Cn: {cn}\n")

    @pytest.mark.parametrize("theory", ["{a", "a}", "{{a}}", "{a}}", "{", "}", "{a}b", "a{b}", "{a},{b}"])
    def test_consequence_stray_brace_refused(self, tmp_path, capsys, theory):
        path = tmp_path / "l.lf"
        path.write_text(DEMO_LF, encoding="utf-8")
        rc = main(["charlogic", "--consequence", theory, str(path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"error: --consequence {theory!r} has a brace other than one pair around it\n"


class TestRhoLogic:
    EXPECTED = (
        "kernel: k_stb\nframeworks: 3\n"
        "[ | ] -> 3: [ | ] [a | ] [a | a>a]\n"
        "[a | ] -> 2: [a | ] [a | a>a]\n"
        "[a | a>a] -> 1: [a | a>a]\n"
    )

    def test_single_argument_table(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["rho-logic", "--universe", "a", "--semantics", "stb"], {})
        assert (rc, out) == (0, self.EXPECTED)

    def test_json_output(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["rho-logic", "--universe", "a", "--semantics", "stb", "--output", "json"], {},
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["kernel"] == "k_stb"
        assert [row["af"] for row in payload["rows"]] == ["[ | ]", "[a | ]", "[a | a>a]"]

    def test_duplicate_names_counted_once(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["rho-logic", "--universe", "a,a", "--semantics", "stb"], {})
        assert (rc, out) == (0, self.EXPECTED)

    @pytest.mark.parametrize("universe,name", [("_x", "_x"), ("a,_x", "_x"), (" _w0 ,b", "_w0")])
    def test_reserved_name_refused(self, capsys, universe, name):
        # the refusal every input file gives, without a position
        assert main(["rho-logic", "--universe", universe, "--semantics", "stb"]) == 2
        err = f"error: argument names starting with '_' are reserved: {name!r}\n"
        assert capsys.readouterr() == ("", err)

    def test_preferred_uses_adm_kernel(self, tmp_path, capsys):
        rc, out = run(tmp_path, capsys, ["rho-logic", "--universe", "a", "--semantics", "prf"], {})
        assert rc == 0
        assert out == self.EXPECTED.replace("k_stb", "k_adm")


class TestPinnedOutput:
    """SHA-256 of stdout, each taken before the code behind it was rewritten
    (the charlogic constructions onto masks, the naive family onto its own
    enumeration, class data and the realizability predicates onto masks):
    the rows, their order and every member list stay byte-identical."""

    @pytest.mark.parametrize("argv,files,digest", [
        (["rho-logic", "--universe", "a,b,c", "--semantics", "grd"], {},
         "68c58aba59a5144fa1562e2205726106c705b434b301e077dc8e4f49d2195744"),
        (["rho-logic", "--universe", "a,b,c", "--semantics", "grd", "--output", "json"], {},
         "3de235e0a96789d3ce1773b15e12c3dd37f6a63c8b554c0519855b093c0bbeda"),
        (["charlogic", "--characterize", "l.lf"], {"l.lf": SIX_LF},
         "c08151426e534a8a4b1a5d1fb6942a55f633312f14d8e867ae303b26016ca075"),
        (["charlogic", "--characterize", "--output", "json", "l.lf"], {"l.lf": SIX_LF},
         "706663e9def47b029fbb75cb306289cc909a831600d016038aaca643861fc928"),
        (["enumerate", "--semantics", "nav", "f.apx"], {"f.apx": NAIVE_AF},
         "7dd9e1d765fa09a32cd3e4d067a4de72d30b55de059efd5ec1cd4cb48f06cda2"),
        (["enumerate", "--semantics", "nav", "--output", "json", "f.apx"], {"f.apx": NAIVE_AF},
         "68c3fa5bf3034c0fabb462c1f5882c02b9ea2366b329e891f83d6660a9657b76"),
        (["enumerate", "--semantics", "stg", "f.apx"], {"f.apx": NAIVE_AF},
         "2665f46fcd34b229b08123120dfbc6a6f5dd3fbe6c7d5ff6200a5a2983f8c7cd"),
        (["enumerate", "--semantics", "stg", "--output", "json", "f.apx"], {"f.apx": NAIVE_AF},
         "0d658fc195511478b8e96be497ead568f326e2c4dc889efbe64695215e7dff03"),
        (["enumerate", "--semantics", "cf2", "f.apx"], {"f.apx": NAIVE_AF},
         "0843fd3183082849c2830944842d52c262510f2b8dfcf4cae7678eb7b53df98f"),
        (["enumerate", "--semantics", "cf2", "--output", "json", "f.apx"], {"f.apx": NAIVE_AF},
         "4a40a32610dce7821146a04f8fe8ca98ddfdc3a6a7df6f4d0c0b196e28b18e1e"),
        (["enumerate", "--semantics", "stg2", "f.apx"], {"f.apx": NAIVE_AF},
         "8bde5dd76951cc6b47c1c263dfc9156560fb3e7ff1122ed62378b591abbabf46"),
        (["enumerate", "--semantics", "stg2", "--output", "json", "f.apx"], {"f.apx": NAIVE_AF},
         "2652642518393190bf32d3d9d1379759f8ee422c4ebfaa6a948da96bc9478132"),
        # the meta layers, before class data and the realizability
        # predicates moved onto masks: the exact class, the reduction path
        (["verify-class", "--semantics", "com", "f.apx"], {"f.apx": NAIVE_AF},
         "196505ceeb8fa8b5d29bfbf7dbff18f94bc368e45ec8a1f17a60289926aea36c"),
        (["verify-class", "--semantics", "com", "--output", "json", "f.apx"], {"f.apx": NAIVE_AF},
         "fb52baeafda8505be24353ae341fec5086c8a7d232db275503fb2c826f40e457"),
        (["verify-class", "--semantics", "stb", "--class", "+−", "f.apx"], {"f.apx": F_SIMPLE},
         "4fc04f6310201d24dac31d8e8feb4cf090470c703591c157f4957cc3443cdc2a"),
        (["verify-class", "--semantics", "stb", "--class", "+−", "--output", "json", "f.apx"],
         {"f.apx": F_SIMPLE},
         "017759be5b6ad0889cc9f1924bf9f1e30255217b66a4933c594b4babb36ff083"),
        (["analyze-set", "s.set"], {"s.set": SET_STG},
         "5dbfe83de95120b4525521904743fea790679b7ebcebfebc4e735cf3be487056"),
        (["analyze-set", "--output", "json", "s.set"], {"s.set": SET_STG},
         "135ad71f9a70380d626482f484d1c57acf51616390fb67f2cce4f8d5e9e89f42"),
        (["realize", "--semantics", "stg", "s.set"], {"s.set": SET_STG},
         "d728e6d6e53134ee195185f4618b772fc7b9c966f9f1a9dca49e81fca24b9f6c"),
        (["realize", "--semantics", "stg", "--output", "json", "s.set"], {"s.set": SET_STG},
         "113cf5fabcc1de5b6fd7339cec63d078b3684ac02a904b9a2909b22cf776fd86"),
        (["classify", "--semantics", "semi", "f.apx"], {"f.apx": NAIVE_AF},
         "f0e9111355fbf9d5eb3b540f2e77e87ebd4200a11f130f75692663406ab3436b"),
        (["classify", "--semantics", "semi", "--output", "json", "f.apx"], {"f.apx": NAIVE_AF},
         "da3bb9cb3dca4663b65c81d08638d400fbf3383143966abbec4d1e3b57c4589e"),
    ])
    def test_digest(self, tmp_path, capsys, argv, files, digest):
        rc, out = run(tmp_path, capsys, argv, files)
        assert rc == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # (exit code, SHA-256 of stdout) for the outputs the digests above do
    # not cover, each in text and JSON, taken before the command layer was
    # given one output path: every handler's verdict, exit code and
    # rendering stay byte-identical
    @pytest.mark.parametrize("argv,files,rc,digest", [
        (["labellings", "--semantics", "prf", "f.apx"], {"f.apx": NAIVE_AF}, 0,
         "ab9c8d7eedddccea7da0b9fc657f929ec5076b308fb0cda559ff9baec90de6da"),
        (["labellings", "--semantics", "prf", "--output", "json", "f.apx"], {"f.apx": NAIVE_AF}, 0,
         "96e8b32da1d9820f3012e1e8a21b5891edf88f90db3ab67704220490ce8aa48d"),
        (["kernel", "--kind", "k_nav", "f.apx"], {"f.apx": NAIVE_AF}, 0,
         "7d23e8e9f242345766fd1c47c41501bc3d2d07ecf7787613de4656230e9d8057"),
        (["kernel", "--kind", "k_nav", "--output", "json", "f.apx"], {"f.apx": NAIVE_AF}, 0,
         "c703f0d24c01ae4c833568e95c156a42ae5a93d44a10eff74f561d8289fc5b65"),
        (["kernel", "--kind", "k_adm", "--format", "tgf", "f.tgf"], {"f.tgf": NAIVE_TGF}, 0,
         "3ef47ed32372924ba628f15e0a360050ea9828053b7be2984870cdefd2e79538"),
        (["kernel", "--kind", "k_adm", "--format", "tgf", "--output", "json", "f.tgf"],
         {"f.tgf": NAIVE_TGF}, 0,
         "93c90c87b61e2351ab4f61ebf0564ec6f2eb7ce40a1124ac369facc622e5fbfd"),
        (["equiv", "--notion", "S", "--semantics", "prf", "f.apx", "g.apx"],
         {"f.apx": LAB_F, "g.apx": LAB_G}, 0,
         "b485bcf2d477576f6b8054fb6cbbd5b18b6b9782cc1762ecaa3abeab35716b84"),
        (["equiv", "--notion", "S", "--semantics", "prf", "--output", "json", "f.apx", "g.apx"],
         {"f.apx": LAB_F, "g.apx": LAB_G}, 0,
         "976e89f5cbeb18890dce4fc5b175d6303e2953b1294b725bc5dd39a2ad49b4cb"),
        (["equiv", "--notion", "E", "--semantics", "stb", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": G6}, 1,
         "de78ecbe2f254f93fb00005f6a9c4729504bd5c214f9da54a1581804f34cf6ad"),
        (["equiv", "--notion", "E", "--semantics", "stb", "--output", "json", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": G6}, 1,
         "8248e4716d3655f3ad8288fd4852007f6e0539106235ea01e408c9e75f2bccc2"),
        (["equiv", "--notion", "W", "--semantics", "prf", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": G6}, 3,
         "7a2d5551abfd0f6c5c28a446f31f933cf7e1206be1b3accfde054eb94f966b99"),
        (["equiv", "--notion", "W", "--semantics", "prf", "--output", "json", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": G6}, 3,
         "1e1f598f5d2b5686c2ddb3d95d604fb7308bb698830ec23c7ecc169c35102d3c"),
        (["witness", "--notion", "N", "--semantics", "prf", "f.apx", "g.apx"],
         {"f.apx": F_KER, "g.apx": G_KER}, 0,
         "55dcb14876adc7c319bf35f5bfb33315da1ebb3f38641c83b9f4abb2d9c05c12"),
        (["witness", "--notion", "N", "--semantics", "prf", "--output", "json", "f.apx", "g.apx"],
         {"f.apx": F_KER, "g.apx": G_KER}, 0,
         "fc5b74ba2ed0991ca86997c9f75241e35be6fb314a72755f20bdde757ee778ad"),
        (["witness", "--notion", "N", "--semantics", "prf", "--format", "tgf", "f.tgf", "g.tgf"],
         {"f.tgf": F_KER_TGF, "g.tgf": G_KER_TGF}, 0,
         "16316e3680118910afa8ee8ed6a752ad9a0e034fccb9447cf1f5b495a70f2308"),
        (["witness", "--notion", "D", "--semantics", "stb", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": G6}, 0,
         "304ccdfd65295524dd61311aac82b5b168ff138ca7306dc74f23a258c5291e58"),
        (["witness", "--notion", "D", "--semantics", "stb", "--output", "json", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": G6}, 0,
         "e3b1fae733da8f5709e997dc500b1713594ea3ba5a949d16bb8040a61522d633"),
        (["witness", "--notion", "ND", "--semantics", "stb", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": G6}, 0,
         "5d1a3f3b6aac861e6bfaa7d84f1eb363c999d19ba133cbf95921ab6a002e4730"),
        (["witness", "--notion", "ND", "--semantics", "stb", "--output", "json", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": G6}, 0,
         "0aa06f3f694f0427c02de9fa8bd42cf5d5c9bb1a2dc8f6f1673a507eff3e3990"),
        (["witness", "--notion", "E", "--semantics", "stb", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": F6}, 1,
         "7e739b4659bfd9d7b0e4854935ce1faaa66629ab05c819dc89ab568ca4b094a9"),
        (["witness", "--notion", "E", "--semantics", "stb", "--output", "json", "f.apx", "g.apx"],
         {"f.apx": F6, "g.apx": F6}, 1,
         "d3329c0306df7d1d1c829433c6a4576ee9ddf840f217f7310bf210814c4dc3ca"),
        (["charlogic", "l.lf"], {"l.lf": DEMO_LF}, 0,
         "187dd77ac2f28e96719eb1edc57fbcd2199cba91ce8acc0b796ac7bc19d6d441"),
        (["charlogic", "--output", "json", "l.lf"], {"l.lf": DEMO_LF}, 0,
         "85c44e00b0711f498c35b1d41847eec309c2f964af4f8ba2d63b349988014392"),
        (["charlogic", "--consequence", "a,c", "l.lf"], {"l.lf": SIX_LF}, 0,
         "19e173818efbeb64a7552e37ba0ff86e0699a88b8b0d5a3b47cf3554e858f50d"),
        (["charlogic", "--consequence", "a,c", "--output", "json", "l.lf"], {"l.lf": SIX_LF}, 0,
         "694e557a7cef32dcc4db6a25497fe7418edb79fc186ae05377039152709e5a52"),
        (["charlogic", "--check-intersection", "l.lf"], {"l.lf": MEET_LF}, 0,
         "4f5e8e66446db83512b91ea1fcddb22e50c4ced4ee142168d83e53bcc7a3d5e2"),
        (["charlogic", "--check-intersection", "--output", "json", "l.lf"], {"l.lf": MEET_LF}, 0,
         "34402a634866c4d67634529baac58955ec6720980e887ed30066574938a456cc"),
        (["charlogic", "--check-intersection", "l.lf"], {"l.lf": MONO_LF}, 1,
         "ab42cfe3d7323b3d5ed72bcee88ed51ca5a51df216444235bb677b753148fa79"),
        (["charlogic", "--check-intersection", "--output", "json", "l.lf"], {"l.lf": MONO_LF}, 1,
         "ef6accfa9f24aa6a9a9b060c774ff1280fe84e6c38bebec1174606ac0ef90e00"),
        (["realize", "--semantics", "prf", "s.set"], {"s.set": SET_ANTICHAIN}, 1,
         "564739ea8fa5926d4fa5c9734fed462061960a22e6b8d5c06e94969d97891bf2"),
        (["realize", "--semantics", "prf", "--output", "json", "s.set"], {"s.set": SET_ANTICHAIN}, 1,
         "dd47d9859445f74263ec5239276199975645dbc1dde70eda8f6462a50bc666e1"),
        (["realize", "--semantics", "prf", "--variant", "compact", "s.set"], {"s.set": SET_DEFENSE}, 3,
         "99875f59112439c1f4dbdf627f556b6e31d8e41a3b14a65398d700a087a3f27a"),
        (["realize", "--semantics", "prf", "--variant", "compact", "--output", "json", "s.set"],
         {"s.set": SET_DEFENSE}, 3,
         "da44c7d9ae63c593d62a81a11d01d9a937d3189219b60e93c4ae5de58172db66"),
    ])
    def test_exit_code_and_digest(self, tmp_path, capsys, argv, files, rc, digest):
        got, out = run(tmp_path, capsys, argv, files)
        assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (rc, digest)

    # SHA-256 of exit code, stdout and stderr for the top-level and every
    # subcommand's help, and for one invalid-choice usage error per option
    # with choices: the parser's text, choices and their order stay as they
    # were. argparse's layout follows the Python version (these are 3.11's)
    # and the terminal width, which COLUMNS pins.
    @pytest.mark.parametrize("argv,digest", [
        ("--help",
         "7be409d6438485ff74179541ffff1904d741512af8ce0d54174e38a7e8d3de94"),
        ("enumerate --help",
         "243050714211b6b6490dd289589508624f1296d157f330fccd34e96995fc9822"),
        ("labellings --help",
         "892aedde1d761d612be3c3f37ad947943792650bdfb2be7302c7f0fdf6e06857"),
        ("kernel --help",
         "98b4e91f5498dafa8e0406509944111d21bac0cd7f95b9b5219dae0e9e702d2c"),
        ("equiv --help",
         "c597f51081999260e9bce9fb8b5cbb4504417380a6b9292eabd3a7f259739f9e"),
        ("witness --help",
         "964348ac4f04cc5a0f20028347e725585e229d3f51672202150ad0af21d1247a"),
        ("analyze-set --help",
         "dee8b2f192db199c06c9fd8a44030417790c6413e31a1912ecd571c06a253de7"),
        ("realize --help",
         "c40454cbf20991727df260fabb6a214e23b9cdb1d910646d21ce53c02bace8f9"),
        ("classify --help",
         "0ec79d5a5e5407178bc69c371ce4bfb9db8dec3aa450b63956a0e0de096daf2a"),
        ("verify-class --help",
         "ad3458de8e05283a7eda72374430b1d03e600cca7cfca0121babe2dc02dd1628"),
        ("charlogic --help",
         "afb5ee4c3cb3fa48324e542689475b656b964cc9e3ce7c1126340ff0a3094669"),
        ("rho-logic --help",
         "1ed8e28cfee82dfa23d3c0bd1fef3b19460d79037e0121c396bca8fe8a886d60"),
        ("enumerate --semantics bogus f.apx",
         "dc8f1703f2260f62c89eec42480fc62c48d5635aa56a16bcf0ae392fbe7ae766"),
        ("enumerate --semantics stb --format bogus f.apx",
         "74cdf9e36c9cfeeeb7ba9e7a5a69742c9db2439719a5aefaa0d0f3b63ad6f00f"),
        ("enumerate --semantics stb --output bogus f.apx",
         "09c7dcba124842d8f79559d832159b89a53a553eba01bda1a97a1845735f6cf9"),
        ("labellings --semantics cf f.apx",
         "07456540e323e06fc4e1f967799dfef7c9883699aafd2e3ec3b1ee5db138c137"),
        ("labellings --semantics stb --format bogus f.apx",
         "f3a3055f29504dc42f3b8f05bc2cefb6de3f59922f506834beb15d45c240da5a"),
        ("labellings --semantics stb --output bogus f.apx",
         "d4fc2bc7c79bf0c4666c24b267da4929c527b2fbf0a60c90169677cf602c3878"),
        ("kernel --kind bogus f.apx",
         "dc4c8097de2ad3ecb5248c03a3916af95754a9ac8899bbda5ae5f13c6f7489c6"),
        ("kernel --kind k_stb --format bogus f.apx",
         "c1b40c97673769a45dd80ef33980d1ab1ab925ecab9b5b7c99d60d609d2f3752"),
        ("kernel --kind k_stb --output bogus f.apx",
         "898e235da9f5ab5ab4c91236a3da77356630630fb0bb92e26f72cf22aeba0b9e"),
        ("equiv --notion bogus --semantics stb f.apx g.apx",
         "909bb2f5fe2bc7db4df07d51b844b3efc2b8e4c0eb5fc013908af0fd091a0f3b"),
        ("equiv --notion E --semantics bogus f.apx g.apx",
         "6acbd7518e39c7ec1e429466eabebfab798786f461b35f839fc8ccaebee889e0"),
        ("equiv --notion E --semantics stb --format bogus f.apx g.apx",
         "c29fe3e4e944c470a31c8c2c881473572491e0eda7e9a2ff8099b1578cc790c2"),
        ("equiv --notion E --semantics stb --output bogus f.apx g.apx",
         "eca524bd7fdf2cddec45fcfc7c4aef818c64fcb86b60d8b2d80241be6fa0f745"),
        ("witness --notion W --semantics stb f.apx g.apx",
         "4db50b0b2d74ff75d820a086148c786ad598d7c0e5a15c447628ee27290ff575"),
        ("witness --notion E --semantics bogus f.apx g.apx",
         "475533d491bac10b9866a1675f91effaab877ad4b254d03ba4d490098ea8a795"),
        ("witness --notion E --semantics stb --format bogus f.apx g.apx",
         "8e575a91c151ab11ebb1fea7bac17ed06639c18d2078116eed9cdc71f4d582b4"),
        ("witness --notion E --semantics stb --output bogus f.apx g.apx",
         "b8c20f4bdfd9452b88075069b11b0cba8f4ffe02caad565890bb5572fce93f31"),
        ("analyze-set --output bogus s.set",
         "ae45cd0bdc630bd701438bbb8ecbcda427c91324431306b270ce39d62cf76b19"),
        ("realize --semantics com s.set",
         "9ec5ed560d82fccae40471ff6c95f097d1195e9512bd2e936b76c482cc39a077"),
        ("realize --semantics stb --variant bogus s.set",
         "87e35b1704cf3bdcf1fc2656e15bb4c4e1db3a4cd2831a56122654ea902735d2"),
        ("realize --semantics stb --format bogus s.set",
         "00036aa08a634e8668b716965d6d1fd34f233688423cee40f8e9d31241e90795"),
        ("realize --semantics stb --output bogus s.set",
         "6e55981b7e83951aa152fe451813d81cacb212c84c47ae203822a79f54edae5a"),
        ("classify --semantics sad f.apx",
         "2d710d69eae5faf12fb2831b494cbab656d0899395b46456e106311f3494ec98"),
        ("classify --semantics stb --format bogus f.apx",
         "6fd229a8ab96c68208aee333ddb6daf2347bc672aed40a9eea0fe30434ef2da9"),
        ("classify --semantics stb --output bogus f.apx",
         "d3d3cf721af014c735831cb837ce49e617e0283a95a00d1b1167e757f99d4642"),
        ("verify-class --semantics cf f.apx",
         "b28487a6f8cdf1b60d36ea41c6c5cf6931fd961596e1d628dd9174c7eca64872"),
        ("verify-class --semantics stb --format bogus f.apx",
         "47b2d39197430f253d7322b40ca06a81539fbbed290ea3f59dc905b1fd98a84e"),
        ("verify-class --semantics stb --output bogus f.apx",
         "59e777848d914dab3eed4c960f9b779de31431f8e231fd1ad3eaee5b4f06cf87"),
        ("charlogic --output bogus l.lf",
         "1d0d59447157005afb1ee123396a2468b28722ca1c53324c1a9f07b64b25f04a"),
        ("rho-logic --universe a --semantics bogus",
         "d0661d3ecc6bf113d6e1061722e51634aed7544f210a4d52f88c713da2ef9b45"),
        ("rho-logic --universe a --semantics stb --output bogus",
         "d69af59b29a3e3d7024ded0bae60603e7adec70c1d0044f6cc31d13558872f15"),
    ])
    def test_surface_digest(self, monkeypatch, argv, digest):
        monkeypatch.setenv("COLUMNS", "80")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv.split())
        text = f"{rc}\0{out.getvalue()}\0{err.getvalue()}"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestFullSurfaceSmoke:
    """Every enum value reachable through the CLI runs without error."""

    AF_TEXT = (
        "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,a).\natt(b,c).\natt(c,c).\n"
    )

    def test_every_semantics_enumerates(self, tmp_path, capsys):
        from afkit.semantics import SEMANTICS

        for sigma in SEMANTICS:
            rc, out = run(
                tmp_path, capsys, ["enumerate", "--semantics", sigma, "f.apx"],
                {"f.apx": self.AF_TEXT},
            )
            assert rc == 0 and out

    def test_every_kernel_applies(self, tmp_path, capsys):
        from afkit.kernels import KERNEL_IDS

        for kind in KERNEL_IDS:
            rc, out = run(
                tmp_path, capsys, ["kernel", "--kind", kind, "f.apx"],
                {"f.apx": self.AF_TEXT},
            )
            assert rc == 0 and out.startswith("arg(a).")

    def test_every_classifiable_semantics(self, tmp_path, capsys):
        from afkit.realizability import CLASSIFIABLE_SEMANTICS

        for sigma in CLASSIFIABLE_SEMANTICS:
            rc, out = run(
                tmp_path, capsys, ["classify", "--semantics", sigma, "f.apx"],
                {"f.apx": self.AF_TEXT},
            )
            assert rc == 0 and "compact:" in out

    def test_every_verifiable_semantics(self, tmp_path, capsys):
        from afkit.verifiability import VERIFIABLE_SEMANTICS

        for sigma in VERIFIABLE_SEMANTICS:
            rc, out = run(
                tmp_path, capsys, ["verify-class", "--semantics", sigma, "f.apx"],
                {"f.apx": self.AF_TEXT},
            )
            assert rc == 0 and out.startswith("exact-class:")

    def test_every_notion_decides_or_reports(self, tmp_path, capsys):
        from afkit.kernels import NOTIONS

        for notion in NOTIONS:
            for flavor in ([], ["--labelling"]):
                rc, out = run(
                    tmp_path, capsys,
                    ["equiv", "--notion", notion, "--semantics", "prf", *flavor, "f.apx", "g.apx"],
                    {"f.apx": self.AF_TEXT, "g.apx": self.AF_TEXT},
                )
                assert rc in (0, 1, 3) and out

    def test_json_everywhere(self, tmp_path, capsys):
        for argv, files in [
            (["enumerate", "--semantics", "prf", "--output", "json", "f.apx"], {"f.apx": self.AF_TEXT}),
            (["labellings", "--semantics", "grd", "--output", "json", "f.apx"], {"f.apx": self.AF_TEXT}),
            (["kernel", "--kind", "k_stb", "--output", "json", "f.apx"], {"f.apx": self.AF_TEXT}),
            (["analyze-set", "--output", "json", "s.set"], {"s.set": SET_TIGHT}),
            (["realize", "--semantics", "stg", "--output", "json", "s.set"], {"s.set": SET_TIGHT}),
            (["classify", "--semantics", "stb", "--output", "json", "f.apx"], {"f.apx": self.AF_TEXT}),
            (["verify-class", "--semantics", "grd", "--output", "json", "f.apx"], {"f.apx": self.AF_TEXT}),
            (["charlogic", "--output", "json", "l.lf"], {"l.lf": ONE_LF}),
            (["witness", "--notion", "E", "--semantics", "stb", "--output", "json", "f.apx", "g.apx"],
             {"f.apx": self.AF_TEXT, "g.apx": "arg(a).\n"}),
        ]:
            rc, out = run(tmp_path, capsys, argv, files)
            assert rc in (0, 1, 3)
            json.loads(out)


class TestErrors:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        rc, _ = run(tmp_path, capsys, ["enumerate", "--semantics", "stb", "f.apx"], {"f.apx": "nonsense\n"})
        assert rc == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc, _ = run(tmp_path, capsys, ["enumerate", "--semantics", "stb", str(tmp_path / "nope.apx")], {})
        assert rc == 2

    def test_usage_error_exit_2(self, tmp_path, capsys):
        assert main(["enumerate", "--semantics", "bogus", "x.apx"]) == 2

    @pytest.mark.parametrize("exc", [RecursionError, RuntimeError])
    def test_internal_error_exit_2(self, tmp_path, capsys, monkeypatch, exc):
        def crash(ns):
            raise exc("boom")

        monkeypatch.setattr(afkit.cli, "cmd_enumerate", crash)
        path = tmp_path / "f.apx"
        path.write_text(F6, encoding="utf-8")
        rc = main(["enumerate", "--semantics", "cf", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err == f"error: internal {exc.__name__}: boom\n"

    @pytest.mark.parametrize("sigma", ["cf", "adm"])
    def test_deep_sweep_fails_fast(self, tmp_path, sigma):
        # 1 200 isolated arguments above a raised cap: the conflict-free walk
        # recurses once per member, so it stops at the recursion limit with
        # a one-line error. The address-space limit turns a walk that would
        # run until memory runs out into a failure of this test.
        path = tmp_path / "f.apx"
        path.write_text("".join(f"arg(a{i:04d}).\n" for i in range(1200)), encoding="utf-8")
        src = str(Path(afkit.cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, AFKIT_MAX_ARGS="2000")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "afkit.cli", "enumerate", "--semantics", sigma, str(path)],
            env=env, capture_output=True, text=True, timeout=20, preexec_fn=limit_memory,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text,err",
        [
            ("1 a\n#\n#\n", "line 3, column 1: second '#' separator"),
            ("1 a x\n#\n", "line 1, column 1: cannot parse node line: '1 a x'"),
            ("1 a\n2 b\n#\n1\n", "line 4, column 1: cannot parse edge line: '1'"),
            ("1 a\n2 b-c\n#\n", "line 2, column 3: invalid argument name: 'b-c'"),
            ("a\n  x.y\n#\n", "line 2, column 3: invalid argument name: 'x.y'"),
            ("1 a\nb _b\n#\n", "line 2, column 3: argument names starting with '_' are reserved: '_b'"),
            ("1 a\n 1 b\n#\n", "line 2, column 2: duplicate node id '1'"),
            ("1 a\n2 a\n#\n", "line 2, column 3: duplicate node label 'a'"),
            ("1 a\n2 b\n#\n1 2\n1  3\n", "line 5, column 4: edge endpoint '3' not declared"),
            ("1 a\n#\n  x 1\n", "line 3, column 3: edge endpoint 'x' not declared"),
        ],
    )
    def test_tgf_parse_errors(self, tmp_path, capsys, text, err):
        path = tmp_path / "f.tgf"
        path.write_text(text, encoding="utf-8")
        assert main(["kernel", "--kind", "identity", "--format", "tgf", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "text,err",
        [
            ("arg(a).\natt(a,b).\n", "line 2, column 7: attack endpoint 'b' not declared as arg"),
            ("arg(b).\n  att( a , b ).\n", "line 2, column 8: attack endpoint 'a' not declared as arg"),
            # the endpoint's own column, not that of an earlier occurrence
            ("arg(x_y).\natt(x_y,_y).\n", "line 2, column 9: argument names starting with '_' are reserved: '_y'"),
            ("arg(aa).\natt(aa,a).\n", "line 2, column 8: attack endpoint 'a' not declared as arg"),
            (" arg(_a).\n", "line 1, column 6: argument names starting with '_' are reserved: '_a'"),
        ],
    )
    def test_apx_parse_errors(self, tmp_path, capsys, text, err):
        path = tmp_path / "f.apx"
        path.write_text(text, encoding="utf-8")
        assert main(["kernel", "--kind", "identity", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "text,err",
        [
            ("a, c d\n", "line 1, column 4: invalid argument name: 'c d'"),
            ("a\nb,_x\n", "line 2, column 3: argument names starting with '_' are reserved: '_x'"),
            ("a,,b\n", "line 1, column 3: empty argument name"),
            ("-\n  a ,b, c-d  # note\n", "line 2, column 9: invalid argument name: 'c-d'"),
        ],
    )
    def test_set_parse_errors(self, tmp_path, capsys, text, err):
        path = tmp_path / "s.set"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze-set", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "text,err",
        [
            ("atoms a\natoms b\ninterpretations 1\n", "line 2, column 1: duplicate atoms line"),
            (
                "atoms a\ninterpretations 1\ninterpretations 2\n",
                "line 3, column 1: duplicate interpretations line",
            ),
            (
                "atoms a\nmodels({}) = {}\ninterpretations 1\n",
                "line 2, column 1: models line before atoms/interpretations",
            ),
            (
                "atoms a\ninterpretations 1\nmodels({}) = {2}\n",
                "line 3, column 15: unknown interpretation '2'",
            ),
            (
                "atoms a, b\ninterpretations 1\n  models(b, x, y) = {1}\n",
                "line 3, column 13: unknown atom 'x'",
            ),
            (
                "atoms a, b\ninterpretations 1\nmodels(a, b) = {1}\nmodels(b,a) = {}\n",
                "line 4, column 1: duplicate models line for theory ['a', 'b']",
            ),
            ("atoms a\ninterpretations 1\nbogus\n", "line 3, column 1: cannot parse line: 'bogus'"),
            ("atoms a\n", "line 1, column 1: missing interpretations line"),
            ("atoms a, a\ninterpretations 1\nmodels({}) = {1}\nmodels(a) = {1}\n", "line 1, column 10: duplicate atom 'a'"),
            ("atomsa, b\ninterpretations 1\n", "line 1, column 1: cannot parse line: 'atomsa, b'"),
            ("atoms a\ninterpretationsx 1\n", "line 2, column 1: cannot parse line: 'interpretationsx 1'"),
            (
                "atoms a\n  interpretations 1, 1\nmodels({}) = {1}\nmodels(a) = {1}\n",
                "line 2, column 22: duplicate interpretation '1'",
            ),
            # a whole-line error on an indented line names the line's first column
            ("atoms a\ninterpretations 1\n   bogus\n", "line 3, column 4: cannot parse line: 'bogus'"),
            ("atoms a\n  atoms b\ninterpretations 1\n", "line 2, column 3: duplicate atoms line"),
            (
                "atoms a\ninterpretations 1\n\tinterpretations 2\n",
                "line 3, column 2: duplicate interpretations line",
            ),
            (
                "  models({}) = {}\natoms a\ninterpretations 1\n",
                "line 1, column 3: models line before atoms/interpretations",
            ),
            (
                "atoms a, b\ninterpretations 1\nmodels(a, b) = {1}\n    models(b,a) = {}\n",
                "line 4, column 5: duplicate models line for theory ['a', 'b']",
            ),
        ],
    )
    def test_logic_parse_errors(self, tmp_path, capsys, text, err):
        path = tmp_path / "l.lf"
        path.write_text(text, encoding="utf-8")
        assert main(["charlogic", "--characterize", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_logic_parse_error_ignores_hash_seed(self, tmp_path):
        # the first bad token in line order is named, whatever order a
        # hashed set would iterate the three unknown atoms in
        path = tmp_path / "l.lf"
        path.write_text("atoms a\ninterpretations 1\nmodels(x,y,z) = {1}\n", encoding="utf-8")
        src = str(Path(afkit.cli.__file__).resolve().parent.parent)
        for seed in "0123":
            proc = subprocess.run(
                [sys.executable, "-m", "afkit.cli", "charlogic", "--characterize", str(path)],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True, text=True, timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (2, "error: line 3, column 8: unknown atom 'x'\n"), seed

    @pytest.mark.parametrize(
        "value,err",
        [
            ("abc", "AFKIT_MAX_ARGS must be an integer, got 'abc'"),
            ("-1", "AFKIT_MAX_ARGS must be non-negative, got -1"),
        ],
    )
    def test_bad_cap_setting(self, tmp_path, capsys, monkeypatch, value, err):
        monkeypatch.setenv("AFKIT_MAX_ARGS", value)
        path = tmp_path / "f.apx"
        path.write_text(F6, encoding="utf-8")
        assert main(["enumerate", "--semantics", "cf", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_tgf_format_round(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["kernel", "--kind", "identity", "--format", "tgf", "f.tgf"],
            {"f.tgf": "1 a\n2 b\n#\n1 2\n"},
        )
        assert (rc, out) == (0, "1 a\n2 b\n#\n1 2\n")

    def test_json_outputs_sorted(self, tmp_path, capsys):
        rc, out = run(
            tmp_path, capsys,
            ["enumerate", "--semantics", "stb", "--output", "json", "f.apx"],
            {"f.apx": F6},
        )
        assert rc == 0
        assert json.loads(out) == [["b", "d"]]


# -- fuzz: every subcommand on small random inputs ------------------------------

NAMES = st.sampled_from(["a", "b", "c", "d"])
GARBAGE = st.text(alphabet="arg().,{}=-#ab1 \n", max_size=30)


@st.composite
def apx_text(draw, max_args=4):
    if draw(st.integers(0, 7)) == 0:
        return draw(GARBAGE)
    args = draw(st.lists(NAMES, max_size=max_args, unique=True))
    pairs = st.tuples(st.sampled_from(args), st.sampled_from(args)) if args else st.nothing()
    atts = draw(st.lists(pairs, max_size=6 if args else 0))
    return "".join(f"arg({a}).\n" for a in args) + "".join(f"att({a},{b}).\n" for a, b in atts)


@st.composite
def set_text(draw):
    if draw(st.integers(0, 7)) == 0:
        return draw(GARBAGE)
    sets = draw(st.lists(st.lists(NAMES, max_size=3, unique=True), min_size=1, max_size=4))
    return "".join((",".join(s) or "-") + "\n" for s in sets)


@st.composite
def logic_text(draw):
    if draw(st.integers(0, 7)) == 0:
        return draw(GARBAGE)
    atoms = "abc"[: draw(st.integers(0, 3))]
    interps = [f"i{k}" for k in range(draw(st.integers(1, 3)))]
    lines = ["atoms " + ", ".join(atoms), "interpretations " + ", ".join(interps)]
    for m in range(1 << len(atoms)):
        t = ",".join(a for i, a in enumerate(atoms) if m >> i & 1) or "{}"
        models = draw(st.lists(st.sampled_from(interps), unique=True))
        lines.append(f"models({t}) = {{{', '.join(models)}}}")
    return "\n".join(lines) + "\n"


COMMANDS = ["enumerate", "labellings", "kernel", "equiv", "witness", "analyze-set",
            "realize", "classify", "verify-class", "charlogic", "rho-logic"]


@st.composite
def cli_cases(draw, cmd):
    """An argv for the subcommand and the files it reads."""
    def pick(xs):
        return draw(st.sampled_from(list(xs)))

    files = {}
    if cmd in ("enumerate", "labellings", "kernel", "classify", "verify-class"):
        files["f.apx"] = draw(apx_text())
        opt = {
            "enumerate": ["--semantics", pick(SEMANTICS)],
            "labellings": ["--semantics", pick(LABELLING_SEMANTICS)],
            "kernel": ["--kind", pick(kernels.KERNEL_IDS)],
            "classify": ["--semantics", pick(realizability.CLASSIFIABLE_SEMANTICS)],
            "verify-class": ["--semantics", pick(verifiability.VERIFIABLE_SEMANTICS)]
            + (["--class", pick(["+", "+−", "∓", "eps", "bogus"])] if draw(st.booleans()) else []),
        }[cmd]
        argv = [cmd, *opt, "f.apx"]
    elif cmd in ("equiv", "witness"):
        files["f.apx"] = draw(apx_text(max_args=3))
        files["g.apx"] = draw(apx_text(max_args=3))
        if cmd == "equiv":
            opt = ["--notion", pick(kernels.NOTIONS)] + (["--labelling"] if draw(st.booleans()) else [])
        else:
            opt = ["--notion", pick(kernels.EXPANSION_NOTIONS + kernels.DELETION_NOTIONS),
                   "--fresh", str(draw(st.integers(0, 1))),
                   "--max-attacks", str(draw(st.integers(0, 2)))]
        argv = [cmd, *opt, "--semantics", pick(SEMANTICS), "f.apx", "g.apx"]
    elif cmd in ("analyze-set", "realize"):
        files["s.set"] = draw(set_text())
        opt = [] if cmd == "analyze-set" else [
            "--semantics", pick(realizability.SIGNATURE_SEMANTICS),
            "--variant", pick(["finite", "compact", "analytic"]),
        ]
        argv = [cmd, *opt, "s.set"]
    elif cmd == "charlogic":
        files["l.lf"] = draw(logic_text())
        mode = pick([[], ["--characterize"], ["--check-intersection"],
                     ["--consequence", pick(["{}", "a", "a,b", "z"])]])
        argv = [cmd, *mode, "l.lf"]
    else:
        # up to two valid names keeps each run small; four hits the cap
        universe = pick(["", "a", "a,b", "b,a", "a,1x!", "a,b,c,d"])
        argv = [cmd, "--universe", universe, "--semantics", pick(SEMANTICS)]
    if draw(st.booleans()):
        argv.insert(1, "--output=json")
    return argv, files


@pytest.mark.parametrize("cmd", COMMANDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fuzz_every_subcommand(cmd, data):
    argv, files = data.draw(cli_cases(cmd))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            (Path(d) / name).write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([str(Path(d) / a) if a in files else a for a in argv])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if rc != 2 and "--output=json" in argv:
        json.loads(out.getvalue())
