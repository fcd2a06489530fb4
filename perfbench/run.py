#!/usr/bin/env python3
"""Layered benchmark of the partitioning study.

Run from the repository root:

    python3 perfbench/run.py --workload pagerank --seed 1 --seconds 10 --trace 0

It builds the benchmark package (perfbench/build.sbt, which compiles the
program's sources with the benchmark code) when the sources changed since the last
build, then runs the workload in a fresh JVM. The build ends with a training
run on tiny inputs whose loaded classes are dumped into a class-data-sharing
archive; every timed JVM starts from it, which removes most of Spark's
class-loading time from each run's set-up. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Run records and span files go to perfbench/out.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(REPO, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
OUT = os.path.join(HERE, "out")
CLASSPATH = os.path.join(TARGET, "bench-classpath.txt")
STAMP = os.path.join(TARGET, "bench-sources.sha256")
ARCHIVE = os.path.join(TARGET, "bench-classes.jsa")

BUILD_TIMEOUT_S = 420
TRAIN_TIMEOUT_S = 240
RUN_TIMEOUT_S = 170
HEAP = "3g"

# JDK 17 module opens that spark-submit normally adds; GraphX's Kryo path needs them.
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Hash of every file the build reads, so a changed source forces a rebuild."""
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(HERE, "src", "main"), os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for root in roots:
        for d, dirs, names in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, REPO).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def java_cmd(classpath, archive_opt, main_args):
    """JVM command line; JVM log output goes to stderr so stdout stays the result."""
    return (["java"] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS] +
            [f"-Xmx{HEAP}", f"-Djava.io.tmpdir={os.path.join(TARGET, 'tmp')}",
             "-Dspark.driver.host=127.0.0.1", "-Xlog:disable", "-Xlog:all=warning:stderr",
             archive_opt, "-cp", classpath] + main_args)


def run_java(cmd, timeout):
    """Run a JVM to completion, killing it on timeout; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=REPO, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None, ""
    return proc.returncode, stdout


def build():
    """Compile with sbt and dump the class archive, unless both exist for this
    exact source state; returns the classpath."""
    digest = source_hash()
    if all(os.path.exists(f) for f in (CLASSPATH, STAMP, ARCHIVE)):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                with open(CLASSPATH) as cp:
                    return cp.read().strip()
    for f in (STAMP, ARCHIVE):
        if os.path.exists(f):
            os.remove(f)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
           "package", "export Runtime/fullClasspathAsJars"]
    print("perfbench: building", file=sys.stderr)
    try:
        res = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l.strip() for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines or "perfbench_2.13" not in lines[-1]:
        sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
        fail("build failed")
    classpath = lines[-1]
    os.makedirs(os.path.join(TARGET, "tmp"), exist_ok=True)
    code, out = run_java(java_cmd(classpath, f"-XX:ArchiveClassesAtExit={ARCHIVE}",
                                  ["perfbench.Train", os.path.join(TARGET, "train")]), TRAIN_TIMEOUT_S)
    if code != 0 or not os.path.exists(ARCHIVE):
        sys.stderr.write(out[-4000:])
        fail("training run for the class archive failed")
    with open(CLASSPATH, "w") as fh:
        fh.write(classpath)
    with open(STAMP, "w") as fh:
        fh.write(digest)
    return classpath


def benchmark_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_fingerprint(workload, seed):
    """Compare this run's input with the fingerprint recorded for the seed."""
    with open(os.path.join(OUT, f"run-{workload}-seed{seed}-trace0.json")) as fh:
        got = json.load(fh)["input"]
    with open(os.path.join(HERE, "spec.json")) as fh:
        recorded = json.load(fh)["fingerprints"]
    want = recorded.get(got["dataset"], {}).get(str(seed))
    if want is None:
        return f"input fingerprint: none recorded for {got['dataset']} seed {seed}"
    if [got["edges"], got["hash_sum"]] == want:
        return f"input fingerprint: matches the recorded {want}"
    return (f"input fingerprint: FLAG differs from recorded {want}: got "
            f"[{got['edges']}, {got['hash_sum']}]; do not compare these timings with recorded runs")


def parsel_overhead(seed):
    """PARSEL's overhead: parsel run_s over pagerank run_s on the same input."""
    runs = {}
    for w in ("parsel", "pagerank"):
        path = os.path.join(OUT, f"run-{w}-seed{seed}-trace0.json")
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            runs[w] = json.load(fh)["end_to_end"]["run_s"]["value"]
    return (f"parsel_overhead_ratio {runs['parsel'] / runs['pagerank']:.4f} "
            f"(parsel run_s {runs['parsel']:.4f} s / pagerank run_s {runs['pagerank']:.4f} s, seed {seed})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["pagerank", "triangles", "parsel"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")
    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SRC)}; "
             "run from a checkout of the repository")
    classpath = build()

    code, stdout = run_java(java_cmd(
        classpath, f"-XX:SharedArchiveFile={ARCHIVE}",
        ["perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]), RUN_TIMEOUT_S)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"run failed with exit code {code}")
    result = json.loads(lines[-1])
    spec = benchmark_spec()
    if args.workload in {w["name"] for w in spec["workloads"]}:
        # A listed workload reports exactly the metrics BENCHMARK.json names.
        names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            fail(f"metrics missing from the result: {missing}")
        result["metrics"] = {n: result["metrics"][n] for n in names}

    print("\n".join(lines[:-1]))
    if args.trace == 0:
        print(check_fingerprint(args.workload, args.seed))
        if args.workload in ("parsel", "pagerank"):
            print(parsel_overhead(args.seed) or "parsel_overhead_ratio needs a pagerank and a parsel run of this seed")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
