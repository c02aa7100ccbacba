#!/usr/bin/env python3
"""Builds and runs the anda end-to-end benchmark (see README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload priced_serving --seed 1 \\
      --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

The benchmark compiles the library from this checkout's src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and forwards the result: the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Run metadata (host, nproc, compiler, build type, source id, threads)
is printed before it and saved with the result under
<build dir>/out/.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORKLOADS = ("priced_serving", "executed_serving", "precision_search")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else REPO / root


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{what} failed")


def build(build_type="Release", name="perfbench"):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (REPO / "src" / "serve" / "serving_sim.h").is_file():
        fail(f"no anda sources under {REPO / 'src'}")
    out = build_root() / name
    if not (out / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   f"-DCMAKE_BUILD_TYPE={build_type}"], "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out), "-j", jobs], "build")
    return out / "anda_perfbench"


def git(*args):
    """Output of a git command in the checkout, or None outside git."""
    if not (REPO / ".git").exists():
        return None
    proc = subprocess.run(["git", *args], cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((REPO / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(REPO)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def source_id():
    """The git commit of a clean tree; with uncommitted changes under
    src/ or perfbench/ the commit plus "+dirty" and a digest of those
    sources; outside git the digest alone."""
    head = git("rev-parse", "HEAD")
    if head is None:
        return source_digest()
    if git("status", "--porcelain", "--", "src", "perfbench"):
        return f"git:{head}+dirty:{source_digest()}"
    return f"git:{head}"


def run_binary(binary, argv):
    """Runs the binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([str(binary)] + argv, cwd=REPO,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def benchmark(args):
    binary = build()
    out_dir = build_root() / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", str(out_dir), "--source-id", source_id()]
    code, lines = run_binary(binary, argv)
    if code != 0 or not lines:
        fail(f"{args.workload} exited with code {code}")
    result = parse_result(lines)
    meta = next((json.loads(line)["meta"] for line in lines
                 if line.startswith('{"meta"')), {})
    record = out_dir / (f"result-{args.workload}-{args.seed}-"
                        f"trace{args.trace}.json")
    record.write_text(json.dumps({"meta": meta, "result": result},
                                 indent=1) + "\n")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def selftest():
    """Tiny runs of every workload: metric names, units and finiteness,
    plus the correctness gate tripping on each corrupted output."""
    binary = build()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    out_dir = build_root() / "perfbench" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    tiny = ["--seed", "7", "--seconds", "1", "--tiny",
            "--out-dir", str(out_dir)]
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            code, lines = run_binary(
                binary, ["--workload", workload, "--trace", str(trace)] + tiny)
            result = parse_result(lines) if code == 0 and lines else None
            if result is None:
                problems.append(f"{label}: exit code {code}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {lines[-8:]}")
            metrics = result["metrics"]
            if sorted(metrics) != sorted(expected[trace]):
                problems.append(f"{label}: metric names differ")
            for name, unit in expected[trace].items():
                m = metrics.get(name, {})
                value = m.get("value")
                if m.get("unit") != unit:
                    problems.append(f"{label}: {name} unit {m.get('unit')}")
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    problems.append(f"{label}: {name} = {value}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{label}: {name} = {value} is not > 0")
    for workload, corrupt in (("priced_serving", "outcomes"),
                              ("executed_serving", "steps"),
                              ("executed_serving", "tokens"),
                              ("precision_search", "tuple")):
        code, lines = run_binary(
            binary, ["--workload", workload, "--trace", "0",
                     "--corrupt", corrupt] + tiny)
        if code != 0 or not lines or \
                parse_result(lines)["correct"] is not False:
            problems.append(f"{workload}: gate did not trip on corrupted "
                            f"{corrupt}")

    debug = build("Debug", "perfbench-debug")
    code, lines = run_binary(debug, ["--workload", "priced_serving",
                                     "--trace", "0"] + tiny)
    if code == 0 or lines:
        problems.append("a Debug build reported a result")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'FAILED' if problems else 'passed'}")
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        benchmark(args)


if __name__ == "__main__":
    main()
