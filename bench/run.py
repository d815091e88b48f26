"""afkit benchmark: one seeded workload, timed end to end or traced per layer.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name and unit, and the machine,
commit and input digest the numbers belong to. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 90210
SETUP_REPS = 5
WARMUP_QUERIES = 3
MIN_PASSES = 2
TIMING_REPS = 5  # bare-interpreter and import probes of the traced cli run
TRACED_PASSES = 3  # fixed, so that counts repeat exactly; reported per pass
CAL_EVERY_S = 0.5  # one calibration run between queries this often
CAL_NOMINAL_MS = 6.0  # best calibration run that reported timings are scaled to

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SEMANTICS = ("cf", "nav", "adm", "com", "grd", "stb", "stg", "semi", "prf", "id", "eag", "sad", "cf2", "stg2")
PER_LAYER = (
    [("core.AF.calls", "count"), ("core.AF.busy_ms", "ms"), ("core.union_af.calls", "count"),
     ("core.delete.calls", "count"), ("core.sccs.calls", "count"), ("core.sccs.busy_ms", "ms"),
     ("semantics.cf_masks.calls", "count"), ("semantics.cf_masks.busy_ms", "ms"),
     ("semantics.cf_sets", "count"), ("semantics.ext_sets", "count"),
     ("semantics.extensions.calls", "count"), ("semantics.extensions.busy_ms", "ms")]
    + [(f"semantics.{s}.busy_ms", "ms") for s in SEMANTICS]
    + [("semantics.labellings.busy_ms", "ms"),
       ("kernels.kernel.calls", "count"), ("kernels.kernel.busy_ms", "ms"),
       ("kernels.decide_equivalence.busy_ms", "ms"),
       ("kernels.search_counterexample.calls", "count"), ("kernels.search_counterexample.busy_ms", "ms"),
       ("kernels.witness.candidates", "count"), ("kernels.witness.found_frac", "fraction"),
       ("realizability.decide_signature.busy_ms", "ms"), ("realizability.realize.busy_ms", "ms"),
       ("realizability.analyze.busy_ms", "ms"), ("realizability.classify.busy_ms", "ms"),
       ("realizability.dcl_sets", "count"), ("realizability.witness_args", "count"),
       ("verifiability.verification_class.busy_ms", "ms"), ("verifiability.verify.busy_ms", "ms"),
       ("verifiability.entries", "count"),
       ("charlogic.strong_eq_classes.busy_ms", "ms"), ("charlogic.canonical_characterization.busy_ms", "ms"),
       ("charlogic.galois_check.busy_ms", "ms"), ("charlogic.rho_logic.busy_ms", "ms"),
       ("charlogic.theories", "count"), ("charlogic.interp_pairs", "count"),
       ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main.busy_ms", "ms"),
       ("formats.parse.busy_ms", "ms"), ("formats.emit.busy_ms", "ms"),
       ("trace.overhead_frac", "fraction")]
)

def pinned_env():
    """The environment every measured process runs in: default enumeration
    cap, serial witness search, fixed string hashing."""
    env = {k: v for k, v in os.environ.items() if k not in ("AFKIT_MAX_ARGS", "AFKIT_WORKERS")}
    env["PYTHONHASHSEED"] = "0"
    return env


def _calibration_af():
    """A fixed framework of 15 arguments: a ring, chords from every second
    argument, and one self-attack (622 conflict-free sets)."""
    n = 15
    names = [f"c{i:02d}" for i in range(n)]
    attacks = [(names[i], names[(i + 1) % n]) for i in range(n)]
    attacks += [(names[i], names[(3 * i + 5) % n]) for i in range(0, n, 2) if (3 * i + 5) % n != i]
    return SimpleNamespace(args=frozenset(names), attacks=frozenset(attacks + [(names[0], names[0])]))


CALIBRATION_AF = _calibration_af()


def calibration_ms():
    """One run of a fixed task of the kind afkit does (bitmask sweeps, sets
    and dicts in pure Python) by the benchmark's own reference code, which
    no change to afkit moves; its time tracks the machine's speed."""
    import reference

    t0 = time.perf_counter()
    frame = reference.Frame(CALIBRATION_AF)
    for sigma in ("prf", "stg", "semi", "com"):
        frame.extensions(sigma)
    return (time.perf_counter() - t0) * 1000


def fresh_afkit():
    """Drop afkit (and the oracles bound to its classes) from the module
    cache and import it again; returns the package."""
    for name in [n for n in sys.modules if n == "afkit" or n.startswith("afkit.") or n == "oracles"]:
        del sys.modules[name]
    return importlib.import_module("afkit")


def setup(name, seed):
    """One set-up: import afkit, build the inputs (writing any files), and
    run the first few queries once."""
    import workloads

    t0 = time.perf_counter()
    api = fresh_afkit()
    wl = workloads.WORKLOADS[name](seed, api, WORKDIR)
    for q in wl.queries[:WARMUP_QUERIES]:
        q.run()
    return time.perf_counter() - t0, wl


def digest(answer):
    """A cheap fingerprint for comparing an answer with the first one."""
    try:
        return hash(answer)
    except TypeError:
        return hash(repr(answer))


class Loop:
    """Closed loop, one client: each query starts when the previous returns.

    Outside the timed call, each answer's fingerprint is compared with the
    first answer's, and the first answer is kept pickled: live answer objects
    would make every garbage collection in the loop slower, by an amount that
    depends on the answers. First answers are checked against the reference
    after the loop."""

    def __init__(self, queries, corrupt=None):
        self.queries = queries
        self.first = [None] * len(queries)  # (fingerprint, pickled answer)
        self.bad_runs = [0] * len(queries)
        self.runs = [0] * len(queries)
        self.errors: list[str] = []
        self.corrupt = corrupt

    def one_pass(self, latencies, inproc=False, on_query=None):
        for i, q in enumerate(self.queries):
            if on_query:
                on_query(i)
            call = q.inproc if inproc else q.run
            t0 = time.perf_counter()
            try:
                ans = call()
            except Exception as exc:  # a raising query is a failed query
                latencies.append(time.perf_counter() - t0)
                self.runs[i] += 1
                self.bad_runs[i] += 1
                self.errors.append(f"{q.kind}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            self.runs[i] += 1
            if self.corrupt:
                ans = self.corrupt(i, ans)
            if self.first[i] is None:
                self.first[i] = (digest(ans), pickle.dumps(ans))
            elif digest(ans) != self.first[i][0]:
                self.bad_runs[i] += 1
                self.errors.append(f"{q.kind}: answer changed between runs")
            del ans

    def passes(self, seconds, inproc=False, calibration=None):
        """Whole passes until `seconds` of query time and MIN_PASSES; one
        list of latencies per pass. With a `calibration` list, a calibration
        run goes into it every CAL_EVERY_S, between two queries."""
        due = [0.0]

        def calibrate(i):
            if time.perf_counter() >= due[0]:
                calibration.append(calibration_ms())
                due[0] = time.perf_counter() + CAL_EVERY_S

        passes: list[list[float]] = []
        while sum(map(sum, passes)) < seconds or len(passes) < MIN_PASSES:
            passes.append([])
            self.one_pass(passes[-1], inproc, calibrate if calibration is not None else None)
        return passes

    def verdict(self):
        """(attempted, failed): every run of a query whose first answer fails
        the reference check counts as failed."""
        failed = 0
        for i, q in enumerate(self.queries):
            if self.first[i] is None:
                failed += self.runs[i]
                continue
            try:
                ok = q.check(pickle.loads(self.first[i][1]))
            except Exception as exc:
                ok = False
                self.errors.append(f"{q.kind}: check raised {type(exc).__name__}: {exc}")
            if not ok:
                self.errors.append(f"{q.kind}: answer differs from the reference")
                failed += self.runs[i]
            else:
                failed += self.bad_runs[i]
        return sum(self.runs), failed


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def spawn_ms(code, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return (time.perf_counter() - t0) * 1000


def run(name, seed, seconds, trace, corrupt=None):
    """Measure one workload; returns (result dict, info dict)."""
    setups = []
    for _ in range(SETUP_REPS):
        elapsed, wl = setup(name, seed)
        setups.append(elapsed)
    loop = Loop(wl.queries, corrupt)
    gc.collect()
    info = {"queries_per_pass": len(wl.queries), "input_digest": wl.digest()}
    if not trace:
        # Each query's latency is its best over the run's passes: other
        # tenants of a shared machine only ever add time. They also slow the
        # whole machine for a minute or more, longer than a run, so every
        # time is scaled by CAL_NOMINAL_MS over the best calibration run
        # taken between the queries.
        calibration: list[float] = []
        passes = loop.passes(seconds, calibration=calibration)
        rss = peak_rss_mb(children=name == "cli")
        best = [min(p[i] for p in passes) for i in range(len(wl.queries))]
        scale = CAL_NOMINAL_MS / min(calibration)
        raw = {
            "setup_s": statistics.median(setups),
            "throughput_qps": len(best) / sum(best),
            "latency_p50_ms": percentile(best, 50) * 1000,
            "latency_p90_ms": percentile(best, 90) * 1000,
        }
        metrics = {
            "setup_s": raw["setup_s"] * scale,
            "throughput_qps": raw["throughput_qps"] / scale,
            "latency_p50_ms": raw["latency_p50_ms"] * scale,
            "latency_p90_ms": raw["latency_p90_ms"] * scale,
            "peak_rss_mb": rss,
        }
        info["unscaled"] = raw
        info["calibration_ms"] = {"best": min(calibration), "median": statistics.median(calibration), "runs": len(calibration)}
        units = dict(END_TO_END)
        info["pass_seconds"] = [sum(p) for p in passes]
        info["pass_p50_ms"] = [percentile(p, 50) * 1000 for p in passes]
        info["pass_p90_ms"] = [percentile(p, 90) * 1000 for p in passes]
        info["passes"] = len(passes)
        info["samples"] = len(best)
        info["samples_above_p90"] = sum(1 for x in best if x * 1000 > raw["latency_p90_ms"])
    else:
        metrics, units = traced(name, seed, seconds, loop)
    attempted, failed = loop.verdict()
    info["failed_frac"] = failed / attempted
    info["errors"] = loop.errors[:10]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, info


def traced(name, seed, seconds, loop):
    """Untraced passes for half the time, then TRACED_PASSES traced ones.
    The cli workload runs ``main(argv)`` in process for both, since spans
    cannot be taken inside a child process."""
    import tracing

    inproc = name == "cli"
    untraced = statistics.median(map(sum, loop.passes(seconds / 2, inproc)))
    tracer = tracing.Tracer()
    tracer.install()
    traced_passes = [[] for _ in range(TRACED_PASSES)]
    try:
        for k, lat in enumerate(traced_passes):
            loop.one_pass(lat, inproc, on_query=lambda i: setattr(tracer, "query_id", k * len(loop.queries) + i))
    finally:
        tracer.uninstall()
    values = tracer.metrics(TRACED_PASSES)
    values["trace.overhead_frac"] = 1 - untraced / statistics.median(map(sum, traced_passes))
    if inproc:
        env = pinned_env()
        env["PYTHONPATH"] = str(ROOT / "src")
        bare = statistics.median(spawn_ms("pass", env) for _ in range(TIMING_REPS))
        imp = statistics.median(spawn_ms("import afkit.cli", env) for _ in range(TIMING_REPS))
        values["cli.interp_ms"] = bare
        values["cli.import_ms"] = imp - bare
    WORKDIR.mkdir(exist_ok=True)
    tracer.write(WORKDIR / f"spans-{name}-{seed}.tsv.gz")
    metrics = {k: values.get(k, 0) for k, _ in PER_LAYER}
    return metrics, dict(PER_LAYER)


def source_info():
    """The git commit (None outside a repository) and a digest of the source."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "afkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return commit, h.hexdigest()


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for confirming a claim)",
    )
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "afkit" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no afkit checkout (src/afkit and tests/oracles.py)", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    result, info = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    commit, source = source_info()
    info.update(
        workload=ns.workload, seed=ns.seed, seconds=ns.seconds, trace=ns.trace,
        python=sys.version.split()[0], nproc=os.cpu_count(), commit=commit, source_sha256=source,
    )
    print(f"# {ns.workload}, seed {ns.seed}, {'traced' if ns.trace else 'untraced'}")
    for key, m in result["metrics"].items():
        print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {info['failed_frac']:14.6g} fraction ({result['failed']}/{result['attempted']})")
    for line in info["errors"]:
        print(f"  error: {line}")
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    env = pinned_env()
    if any(os.environ.get(k) != env.get(k) for k in ("PYTHONHASHSEED", "AFKIT_MAX_ARGS", "AFKIT_WORKERS")):
        # re-execute under the pinned environment; same process, no child
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.exit(main())
