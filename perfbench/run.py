#!/usr/bin/env python3
"""Summarize-and-query benchmark for SLUGGER.

Builds the repository and the benchmark program with sbt (again whenever the
sources or the class files on the cached classpath change; the classpath is
cached under .bench_build/), then runs one JVM:

    python3 perfbench/run.py --heap 3g --young 1g --gc ParallelGC --threads 4 \
        --workload hyperlink --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. `--smoke` runs every workload in both modes on tiny
inputs and checks each result against BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")
MAIN = "repro.perfbench.Main"
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170
SMOKE_TIMEOUT = 600


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file whose change must trigger a rebuild."""
    tops = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    trees = [os.path.join(ROOT, d) for d in ("project", "src/main", "jobs")]
    trees += [os.path.join(HERE, d) for d in ("project", "src")]
    out = [p for p in tops if os.path.isfile(p)]
    for tree in trees:
        for dirpath, dirnames, filenames in os.walk(tree):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            out += [os.path.join(dirpath, f) for f in sorted(filenames)]
    return out


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s", 1)
    return proc.returncode, out


def output_digest(cp):
    """Names, sizes and mtimes of every file on the classpath.

    The root build writes its classes to the same directories, so class files
    from another source state can replace the ones this stamp was made for.
    """
    digest = hashlib.sha256()
    for entry in cp.split(os.pathsep):
        files = [entry]
        if os.path.isdir(entry):
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(entry) for f in fs)
        for path in files:
            st = os.stat(path)
            digest.update(f"{path}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return digest.hexdigest()


def classpath():
    needed = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "src", "main", "scala"),
              os.path.join(HERE, "build.sbt"), os.path.join(HERE, "src", "main", "scala")]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.exists(p)]
    if missing:
        fail("cannot build: missing " + ", ".join(missing))
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    sources = digest.hexdigest()
    # One stamp for the one set of class files on disk: the source digest of
    # the last successful build, the digest of its output, then its classpath.
    # sbt runs again when either digest differs from what is on disk now.
    stamp = os.path.join(CACHE, "build.stamp")
    if os.path.isfile(stamp):
        with open(stamp) as f:
            built, outputs, cp = (f.read().split("\n", 2) + ["", ""])[:3]
        cp = cp.strip()
        try:
            if built == sources and outputs == output_digest(cp):
                return cp
        except OSError:
            pass  # a classpath entry is gone: rebuild
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    rc, out = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                        BUILD_TIMEOUT, cwd=HERE, env=env, stdout=subprocess.PIPE,
                        stdin=subprocess.DEVNULL, text=True)
    lines = [l.strip() for l in out.splitlines() if l.strip()]
    if rc != 0 or not lines:
        sys.stderr.write(out)
        fail(f"sbt build failed (exit {rc})", 1)
    cp = lines[-1]
    if not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        sys.stderr.write(out)
        fail("sbt did not print a usable classpath", 1)
    os.makedirs(CACHE, exist_ok=True)
    with open(stamp, "w") as f:
        f.write(sources + "\n" + output_digest(cp) + "\n" + cp)
    return cp


def java_cmd(args, cp):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    threads = max(1, min(args.threads, os.cpu_count() or 1))
    # A fixed young generation: adaptive resizing would let each run pick
    # its own GC rhythm for the same allocation stream.
    return [java, f"-Xms{args.heap}", f"-Xmx{args.heap}", f"-Xmn{args.young}", f"-XX:+Use{args.gc}",
            "-XX:-UseAdaptiveSizePolicy", f"-XX:ActiveProcessorCount={threads}", f"-Djava.io.tmpdir={tmp}",
            "-cp", cp, MAIN, "--threads", str(threads)]


def java_env():
    """The JVM's environment: Spark must keep its scratch files in the checkout."""
    env = dict(os.environ)
    env.pop("SPARK_LOCAL_DIRS", None)
    return env


def check_result(line, names):
    """Problems with one result line, given the metric names it must have."""
    res = json.loads(line)
    probs = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        probs.append(f"keys {sorted(res)}")
    if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        probs.append(f"correct={res.get('correct')} attempted={res.get('attempted')} failed={res.get('failed')}")
    got = set(res.get("metrics", {}))
    if got != set(names):
        probs.append(f"missing {sorted(set(names) - got)} extra {sorted(got - set(names))}")
    return probs


def smoke(args, cp):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {"0": [m["name"] for m in bench["end_to_end"]], "1": [m["name"] for m in bench["per_layer"]]}
    rc, out = run_group(java_cmd(args, cp) + ["--smoke", "--seed", str(args.seed)], SMOKE_TIMEOUT,
                        cwd=ROOT, env=java_env(), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    seen, bad = set(), 0
    for line in out.splitlines():
        if not line.startswith("SMOKE "):
            continue
        _, workload, trace, body = line.split(" ", 3)
        probs = check_result(body, names[trace])
        seen.add((workload, trace))
        bad += bool(probs)
        print(f"{workload} trace={trace}: {'ok' if not probs else '; '.join(probs)}")
    expected = {(w["name"], t) for w in bench["workloads"] for t in ("0", "1")}
    if rc != 0 or seen != expected or bad:
        fail(f"smoke failed: exit {rc}, ran {sorted(seen)}, {bad} bad results", 1)
    print("smoke ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--heap", required=True, help="JVM heap, fixed (-Xms = -Xmx)")
    ap.add_argument("--young", required=True, help="JVM young generation, fixed (-Xmn)")
    ap.add_argument("--gc", required=True, help="JVM collector, as in -XX:+Use<gc>")
    ap.add_argument("--threads", type=int, required=True, help="Spark local[N] threads, at most nproc")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, both modes")
    args = ap.parse_args()
    if not args.smoke and None in (args.workload, args.seconds, args.trace):
        fail("--workload, --seconds and --trace are required")
    cp = classpath()
    if args.smoke:
        smoke(args, cp)
        return
    cmd = java_cmd(args, cp) + ["--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", args.trace]
    rc, out = run_group(cmd, RUN_TIMEOUT, cwd=ROOT, env=java_env(), stdout=subprocess.PIPE,
                        stdin=subprocess.DEVNULL, text=True)
    lines = out.splitlines()
    try:
        res = json.loads(lines[-1])
        ok = rc == 0 and sorted(res) == ["attempted", "correct", "failed", "metrics"]
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        fail(f"benchmark JVM failed (exit {rc})", 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
