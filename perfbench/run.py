#!/usr/bin/env python3
"""Campaign benchmark: times tsc_run on the leakage and predictability
campaigns, byte-checks every output, and (with --trace 1) replays the
workload through the library's public calls with spans around each layer.

    python3 perfbench/run.py --workload leakage_golden --seed 2018 \\
        --seconds 10 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the library, tsc_run and the traced replay) into
.bench_build/.  Human-readable lines go to stdout first; the last stdout
line is one JSON object {correct, attempted, failed, metrics}.  Exit code 0
only when every run was correct.  See perfbench/README.md."""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

GOLDEN_SEED = 2018
SETUP_REPS = 11
RUN_LIMIT_S = 170  # per workload: every process is killed past it


@dataclass(frozen=True)
class Experiment:
    name: str
    samples: int
    shard_size: int
    durable: bool = False

    def golden(self, root):
        return (root / "tests" / "golden" /
                f"{self.name}_s{self.samples}_ss{self.shard_size}.json")

    def args(self, seed):
        return ["--experiment", self.name, "--samples", str(self.samples),
                "--shard-size", str(self.shard_size), "--seed", str(seed),
                "--json"]

    def timed_argv(self, tsc_run, seed, workers, out, checkpoint):
        argv = [str(tsc_run), *self.args(seed), "--shards", str(workers),
                "--output", str(out)]
        if self.durable:
            argv += ["--dispatch", str(workers), "--checkpoint", str(checkpoint)]
        return argv

    def reference_argv(self, tsc_run, seed, workers, out):
        # One worker thread; pwcet_matrix spreads those single-threaded
        # workers over processes, since a one-thread in-process run of it
        # alone outlasts the benchmark's time limit.
        argv = [str(tsc_run), *self.args(seed), "--shards", "1",
                "--output", str(out)]
        if self.name == "pwcet_matrix":
            argv += ["--dispatch", str(workers)]
        return argv


# The scales are the goldens'; perfbench_trace --replay runs the same ones.
WORKLOADS = {
    "leakage_golden": (Experiment("attack_matrix", 1200, 400),
                       Experiment("flush_matrix", 600, 200)),
    "predictability_golden": (Experiment("pwcet_matrix", 240, 80),),
    "leakage_durable": (Experiment("attack_matrix", 1200, 400, durable=True),),
}


class BenchError(Exception):
    pass


# --- processes ----------------------------------------------------------------


class Proc:
    """A child in its own process group, so a kill reaches the workers a
    --dispatch supervisor forked.  wait() reports wall time from launch,
    user+sys CPU of the whole tree and the largest resident set in it."""

    def __init__(self, argv, deadline, log=None):
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.popen = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=log or subprocess.DEVNULL,
            start_new_session=True)

    def _kill(self):
        try:
            os.killpg(self.popen.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self):
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                self._kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.popen.pid, 0)
        finally:
            timer.cancel()
        self.wall = time.perf_counter() - self.t0
        self._kill()  # strays of the group, if any
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.rc = self.popen.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        return self


def run(argv, deadline, **kw):
    return Proc(argv, deadline, **kw).wait()


# --- build and host -------------------------------------------------------------


def check_sources(root):
    needed = [root / "CMakeLists.txt", root / "src", root / "tests" / "golden",
              root / "perfbench" / "CMakeLists.txt"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        raise BenchError("not a repository checkout (missing "
                         + ", ".join(missing) + "); run from its root")


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1), "--target", "tsc_run",
                    "perfbench_trace"], stdout=sys.stderr, check=True)
    return build_dir / "tscache" / "tsc_run", build_dir / "perfbench_trace"


def read_cmake_cache(build_dir):
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line and line[0] not in "#/" and "=" in line and ":" in line:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def host_record(build_dir, workers):
    cache = read_cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    for f in (build_dir / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        fields = {}
        for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
            marker = f'set({key} "'
            if marker in text:
                fields[key] = text.split(marker, 1)[1].split('"', 1)[0]
        compiler = " ".join(fields.values()) or compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    sanitized = any(cache.get(k, "OFF").upper() in ("ON", "1", "TRUE")
                    for k in ("TSC_SANITIZE", "TSC_SANITIZE_THREAD"))
    sanitized = sanitized or "-fsanitize" in cache.get("CMAKE_CXX_FLAGS", "")
    if build_type.lower() == "debug" or sanitized or not build_type:
        raise BenchError(f"refusing a {build_type or 'untyped'}"
                         f"{' sanitizer' if sanitized else ''} build: its "
                         "timings measure something else")
    return {"nproc": os.cpu_count(), "workers": workers,
            "loadavg": list(os.getloadavg()), "compiler": compiler,
            "build_type": build_type}


# --- workloads ------------------------------------------------------------------


def references(exps, root, tsc_run, seed, workers, run_dir, deadline):
    """Expected bytes per experiment: the golden at the golden seed; for a
    held-out seed, the same experiment with one worker thread per process,
    generated here, untimed.  Worker-count invariance makes them equal.
    Generated references are kept per tsc_run binary and seed under
    .bench_build/refs/, so a seed run again reuses them."""
    if seed == GOLDEN_SEED:
        return {e.name: e.golden(root).read_bytes() for e in exps}
    digest = hashlib.sha256(Path(tsc_run).read_bytes()).hexdigest()[:16]
    cache = root / ".bench_build" / "refs" / digest
    cache.mkdir(parents=True, exist_ok=True)
    paths = {e.name: cache / f"{e.name}_s{e.samples}_ss{e.shard_size}_seed{seed}.json"
             for e in exps}
    procs = []
    for e in exps:
        if not paths[e.name].exists():
            tmp = run_dir / f"{e.name}.reference.json"
            procs.append((e, tmp, Proc(e.reference_argv(tsc_run, seed, workers, tmp),
                                       deadline)))
    for _, _, p in procs:
        p.wait()
    for e, tmp, p in procs:
        if p.rc != 0:
            raise BenchError(f"reference run of {e.name} exited {p.rc}")
        tmp.replace(paths[e.name])
    return {e.name: paths[e.name].read_bytes() for e in exps}


def timed_pass(exps, tsc_run, seed, workers, run_dir, refs, tally, deadline):
    """Run every experiment of the workload once; returns (wall, cpu, rss)
    and the produced bytes per experiment."""
    wall = cpu = rss = 0.0
    produced = {}
    for e in exps:
        out = run_dir / f"{e.name}.json"
        checkpoint = run_dir / "checkpoint.bin"  # fresh: deleted below
        with open(run_dir / "tsc_run.log", "ab") as log:
            p = run(e.timed_argv(tsc_run, seed, workers, out, checkpoint),
                    deadline, log=log)
        ok = p.rc == 0 and (refs is None or metrics.output_matches(out, refs[e.name]))
        tally.record(ok)
        if not ok:
            print(f"FAIL {e.name}: exit {p.rc}, output "
                  f"{'differs from the reference' if p.rc == 0 else 'missing'}",
                  file=sys.stderr)
        produced[e.name] = out.read_bytes() if out.exists() else b""
        for f in (out, checkpoint):
            f.unlink(missing_ok=True)
        wall += p.wall
        cpu += p.cpu
        rss = max(rss, p.rss_mb)
    return (wall, cpu, rss), produced


def setup_probe(trace_bin, workload, seed, workers, deadline):
    """SETUP_REPS cold set-ups, each in a fresh process as tsc_run pays it."""
    times = []
    for _ in range(SETUP_REPS):
        p = subprocess.run([str(trace_bin), "--setup-probe", workload,
                            "--seed", str(seed), "--workers", str(workers)],
                           capture_output=True, text=True, check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(p.stdout))
    return times


def measure(workload, args, env):
    """End-to-end metrics, tracing off."""
    exps = WORKLOADS[workload]
    tally = metrics.Tally()
    setups = setup_probe(env["trace_bin"], workload, args.seed, env["workers"],
                         env["deadline"])
    refs = references(exps, env["root"], env["tsc_run"], args.seed,
                      env["workers"], env["run_dir"], env["deadline"])
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        if passes and time.monotonic() + max(p[0] for p in passes) > env["deadline"] - 10:
            break  # another pass would not finish inside the run limit
        sample, _ = timed_pass(exps, env["tsc_run"], args.seed, env["workers"],
                               env["run_dir"], refs, tally, env["deadline"])
        passes.append(sample)
    summaries = {
        "wall_s": metrics.summarize(p[0] for p in passes),
        "cpu_s": metrics.summarize(p[1] for p in passes),
        "peak_rss_mb": metrics.summarize(p[2] for p in passes),
        "setup_s": metrics.summarize(setups),
    }
    for name, s in summaries.items():
        print(f"{workload:22s} {name:12s} {s['median']:12.4f} "
              f"{metrics.END_TO_END_UNITS[name]:3s}  median of {s['n']} "
              f"(quartiles {s['p25']:.4f} .. {s['p75']:.4f})")
    print(f"{workload:22s} {'fail_frac':12s} {tally.fail_frac:12.4f}      "
          f"{tally.failed} of {tally.attempted} runs")
    return tally, {name: s["median"] for name, s in summaries.items()}


def trace(workload, args, env):
    """Per-layer metrics from two traced replays, tracing overhead against
    one untraced pass, and the determinism canary."""
    exps = WORKLOADS[workload]
    tally = metrics.Tally()
    golden = args.seed == GOLDEN_SEED
    refs = references(exps, env["root"], env["tsc_run"], args.seed,
                      env["workers"], env["run_dir"], env["deadline"]) if golden else None
    (untraced_wall, _, _), produced = timed_pass(
        exps, env["tsc_run"], args.seed, env["workers"], env["run_dir"], refs,
        tally, env["deadline"])
    # Held-out seed: the replays must reproduce the untraced run's bytes.
    refs = refs or produced

    replays = []
    for k in range(2):
        out = env["run_dir"] / f"replay{k}"
        out.mkdir()
        p = run([str(env["trace_bin"]), "--replay", workload, "--seed",
                 str(args.seed), "--workers", str(env["workers"]), "--out",
                 str(out)], env["deadline"])
        if not tally.record(p.rc == 0):
            raise BenchError(f"traced replay exited {p.rc}")
        for e in exps:
            if not tally.record(metrics.output_matches(out / f"{e.name}.json",
                                                       refs[e.name])):
                print(f"FAIL replay of {e.name} differs from the reference",
                      file=sys.stderr)
        spans = metrics.parse_spans((out / "spans.tsv").read_text())
        counters = json.loads((out / "counters.json").read_text())
        replays.append((p.wall, spans, counters))
        shutil.rmtree(out)

    canary_ok = all(replays[0][2].get(c, 0) == replays[1][2].get(c, 0)
                    for c in metrics.CANARY_COUNTERS)
    if not tally.record(canary_ok):
        print("FAIL determinism canary: counts differ between traced replays",
              file=sys.stderr)
    layers = [metrics.layer_metrics(s, c, env["workers"]) for _, s, c in replays]
    m = {}
    for name in metrics.PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            m[name] = sum(w for w, _, _ in replays) / 2 - untraced_wall
        elif name == "trace.coverage":
            m[name] = min(l[name] for l in layers)
        elif metrics.PER_LAYER_UNITS[name] == "count" or name.endswith("_bytes"):
            m[name] = layers[0][name]
        else:
            m[name] = sum(l[name] for l in layers) / 2
    if not tally.record(m["trace.coverage"] >= 0.9):
        print(f"FAIL layer spans cover only {m['trace.coverage']:.3f} of the "
              "traced wall time", file=sys.stderr)

    for name, (n, self_s) in sorted(metrics.span_table(replays[0][1]).items()):
        print(f"{workload:22s} span {name:22s} x{n:<7d} self {self_s:10.4f} s")
    for name, value in m.items():
        print(f"{workload:22s} {name:26s} {value:16.6g} "
              f"{metrics.PER_LAYER_UNITS[name]}")
    print(f"{workload:22s} untraced wall {untraced_wall:.4f} s, traced "
          f"{[round(w, 4) for w, _, _ in replays]} s, canary "
          f"{'repeats' if canary_ok else 'DIFFERS'}")
    return tally, m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    try:
        check_sources(root)
        build_dir = root / ".bench_build" / "perfbench"
        tsc_run, trace_bin = build(root, build_dir)
        workers = min(4, len(os.sched_getaffinity(0)))
        host = host_record(build_dir, workers)
        print("host " + json.dumps(host))
        run_dir = root / ".bench_build" / "runs" / f"{os.getpid()}"
        run_dir.mkdir(parents=True)
        env = {"root": root, "tsc_run": tsc_run, "trace_bin": trace_bin,
               "workers": workers, "run_dir": run_dir}
        try:
            subprocess.run([str(tsc_run), "--list"], stdout=subprocess.DEVNULL,
                           check=True)  # page the binary in before timing
            names = list(WORKLOADS) if args.workload == "all" else [args.workload]
            step = trace if args.trace else measure
            attempted = failed = 0
            result = {}
            for name in names:
                # Each workload gets the run limit; the build is not counted.
                env["deadline"] = time.monotonic() + RUN_LIMIT_S
                tally, m = step(name, args, env)
                attempted += tally.attempted
                failed += tally.failed
                units = metrics.PER_LAYER_UNITS if args.trace else metrics.END_TO_END_UNITS
                prefix = f"{name}." if args.workload == "all" else ""
                result.update({prefix + k: {"value": v, "unit": units[k]}
                               for k, v in m.items()})
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
