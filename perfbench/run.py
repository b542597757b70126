#!/usr/bin/env python3
"""Foresight benchmark: one command for every workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-open --seed 7 --seconds 30 --trace 0

It builds foresightd and the benchmark's own programs from the
checkout's source into .bench_build/, writes the workload's inputs from
the seed as CSV, and then either drives foresightd over loopback HTTP
(--trace 0, the end-to-end metrics) or runs the traced in-process run
(--trace 1, the per-layer metrics). The last line of stdout is the
result object; its metric names are checked against BENCHMARK.json.
Everything the run writes stays under .bench_build/; the per-run
directory is removed at the end, except the trace written by --trace 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
BENCH = ROOT / "perfbench"
DEADLINE_S = 175  # a run must end within 180 s; the first build may take longer


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def go_env():
    """Confines the Go toolchain's caches and temporary files to the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        path = BUILD / sub
        path.mkdir(parents=True, exist_ok=True)
        env[key] = str(path)
    env["GOMODCACHE"] = str(BUILD / "gopath" / "pkg" / "mod")
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off", CGO_ENABLED="0")
    return env


def build(env, trace):
    bindir = BUILD / "bin"
    bindir.mkdir(parents=True, exist_ok=True)
    steps = [(ROOT, ["go", "build", "-o", str(bindir / "foresightd"), "./cmd/foresightd"]),
             (BENCH, ["go", "build", "-o", str(bindir) + "/", "./inputs",
                      "./tracer" if trace else "./client"])]
    for cwd, cmd in steps:
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}\n{res.stdout}")
    return bindir


def source_digest():
    """Names the code under test: the checkout is not a git repository."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not (top == str(ROOT) and d in (".bench_build", "perfbench", ".git")))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = Path(top) / name
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:12]


def run_child(cmd, env, deadline):
    """Runs cmd in its own process group, so that a timeout also stops
    every foresightd it started; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{Path(cmd[0]).name} did not finish in time")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # reap anything left in the group
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the root of a checkout (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "go.mod").is_file() or not (ROOT / "cmd" / "foresightd").is_dir():
        fail("no foresight source tree here (go.mod, cmd/foresightd)")

    env = go_env()
    bindir = build(env, args.trace)
    deadline = time.monotonic() + DEADLINE_S
    work = BUILD / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    try:
        code, _ = run_child([str(bindir / "inputs"), "-workload", args.workload, "-seed", str(args.seed),
                             "-seconds", str(args.seconds), "-dir", str(inputs)], env, deadline)
        if code != 0:
            fail("generating inputs failed")
        common = ["-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
                  "-inputs", str(inputs), "-work", str(work)]
        if args.trace:
            cmd = [str(bindir / "tracer"), *common, "-out", str(BUILD / "traces")]
            names = [m["name"] for m in spec["per_layer"]]
        else:
            cmd = [str(bindir / "client"), *common, "-foresightd", str(bindir / "foresightd"),
                   "-source", source_digest()]
            names = [m["name"] for m in spec["end_to_end"]]
        code, lines = run_child(cmd, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result (exit code {code})")
    if sorted(result.get("metrics", {})) != sorted(names):
        missing = sorted(set(names) - set(result.get("metrics", {})))
        extra = sorted(set(result.get("metrics", {})) - set(names))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}")
    print(lines[-1])
    sys.exit(code)


if __name__ == "__main__":
    main()
