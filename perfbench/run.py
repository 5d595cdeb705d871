#!/usr/bin/env python3
"""Build and run the Triple-A simulator benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload read_hot --seed 2014 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, then a summary
    python3 perfbench/run.py --selftest                # tiny-scale check of names, units, gates

The script builds `perfbench/` (a Cargo package of its own that links the
simulator's library crates by path) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), prints one `# host` line
with the facts a result depends on, then runs the benchmark binary. The
last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["read_hot", "mixed_storm", "fed_mirror"]
DEFAULT_SEED = 2014
# A second seed on which every workload must also pass its gates
# (`--selftest` checks it at tiny scale).
HELD_OUT_SEED = 7777777


def target_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Builds the benchmark; returns the binary path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return None
    return target_dir() / "release" / "triplea-perfbench"


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from, so results from
    a checkout that is not a git repository still name their code."""
    h = hashlib.sha256()
    files = sorted(
        p for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "perfbench/src/*.rs",
                          "perfbench/Cargo.toml", "perfbench/Cargo.lock")
        for p in ROOT.glob(pattern) if p.is_file()
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_facts():
    return {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release",
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "source_digest": source_digest(),
        "engine": "serial",
    }


def run_binary(binary, args, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    done = subprocess.run([str(binary)] + args, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    return done.returncode, lines


def last_json(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def run_all(binary, a):
    """Every workload in its own process, then one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        rc, lines = run_binary(binary, bench_args(a, w))
        result = last_json(lines)
        if rc != 0 or result is None:
            code = 1
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total))
    return code


def bench_args(a, workload):
    return ["--workload", workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--scale", a.scale]


def selftest(binary):
    """Checks, at tiny scale, that every metric named in BENCHMARK.json is
    printed with its unit for every workload and both trace modes, on the
    default and the held-out seed, and that every correctness gate fires."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    rc, _ = run_binary(binary, ["gates"])
    if rc != 0:
        problems.append("a correctness gate did not fire")
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for w in WORKLOADS:
                args = ["--workload", w, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--scale", "tiny"]
                rc, lines = run_binary(binary, args, echo=False)
                result = last_json(lines)
                label = f"{w} seed {seed} trace {trace}"
                if rc != 0 or result is None or not result["correct"]:
                    problems.append(f"{label}: run failed its gates")
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(got.items()) ^ set(want.items()))}")
                print(f"ok {label}: {len(got)} metrics with units")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload or --selftest is required")
    binary = build()
    if binary is None:
        return 1
    print("# host " + json.dumps(host_facts()), flush=True)
    if a.selftest:
        return selftest(binary)
    if a.workload == "all":
        return run_all(binary, a)
    rc, _ = run_binary(binary, bench_args(a, a.workload))
    return rc


if __name__ == "__main__":
    sys.exit(main())
