#!/usr/bin/env python3
"""Repository benchmark: ThreadedAiaccEngine on named workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ctr_many_tensors --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

BENCHMARK.json lists the measured workloads; bert_overlap runs only by hand
(perfbench/README.md says why).

A measured run builds the benchmark (perfbench/CMakeLists.txt, which builds
the program's libraries from src/) into .bench_build/perfbench, runs one
workload, and relays its output. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1 (BENCHMARK.json lists
both). The exit code is the bench binary's: 0 correct, 1 a correctness gate
failed, 2 bad usage or no sources, 3 the stall watchdog fired.

The engine can lose the wake-up that ends an iteration (its MPI-process
loop waits on a counter the communication threads decrement without the
lock), so now and then a run stalls. The bench binary's watchdog then prints each
rank's last iteration and exits 3. A stalled run is retried with the same
seed, at most twice; the stalled iterations stay in the reported `attempted`
and `failed` counts and in `completed_iter_ratio`, and the diagnostics stay
on stderr.

--selftest runs every workload briefly, checks that every metric of
BENCHMARK.json prints with its unit, that each correctness gate fails on an
injected mismatch, and that the watchdog ends an injected stall.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "aiacc_perfbench"
WORKLOADS = ("bert_overlap", "ctr_many_tensors", "mlp_robust_fp16")
# A measured run, retries included, must end within 180 s.
RUN_TIMEOUT_S = 170
STALL_EXIT = 3
STALL_RETRIES = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no program sources at {ROOT / 'src'}")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "aiacc_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def bench_env():
    """The program's tracing switches change what is measured: drop them."""
    return {k: v for k, v in os.environ.items() if not k.startswith("AIACC_")}


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Run the bench binary; returns (exit code, stdout, stderr)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, env=bench_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        err = e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or "")
        return None, out, err + f"\nperfbench: timed out after {timeout} s\n"
    return proc.returncode, proc.stdout, proc.stderr


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_measured(args):
    """Run the bench binary, retrying a stalled run; returns (code, stdout, stderr)
    with the stalled attempts' iterations folded into the result line."""
    lost_attempted = lost_failed = 0
    errors = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for attempt in range(STALL_RETRIES + 1):
        code, out, err = run_binary(args, max(1, deadline - time.monotonic()))
        errors.append(err)
        res = result_of(out)
        if code != STALL_EXIT or res is None or attempt == STALL_RETRIES:
            break
        lost_attempted += res["attempted"]
        lost_failed += res["failed"]
        errors.append(f"perfbench: run stalled (attempt {attempt + 1}); "
                      "retrying with the same seed\n")
    if lost_attempted and res is not None:
        res["attempted"] += lost_attempted
        res["failed"] += lost_failed
        ratio = res["metrics"].get("completed_iter_ratio")
        if ratio is not None:
            ratio["value"] = ((res["attempted"] - res["failed"])
                              / res["attempted"])
        lines = out.strip().splitlines()
        out = "\n".join(lines[:-1] + [json.dumps(res)]) + "\n"
    return code, out, "".join(errors)


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(label, ok, detail=""):
        log(f"selftest: {'ok  ' if ok else 'FAIL'} {label}"
            + (f": {detail}" if detail and not ok else ""))
        if not ok:
            problems.append(label)

    for w in WORKLOADS:
        for trace in (0, 1):
            code, out, err = run_measured(["--workload", w, "--seed", "1",
                                           "--seconds", "1", "--trace",
                                           str(trace)])
            res = result_of(out)
            label = f"{w} trace {trace} runs correct"
            check(label, code == 0 and res is not None and res["correct"],
                  f"exit {code}\n{err}")
            if res is None:
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(f"{w} trace {trace} prints every metric with its unit",
                  got == want[trace],
                  f"missing {sorted(set(want[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(want[trace]))}, units "
                  f"{ {k: (got.get(k), u) for k, u in want[trace].items() if got.get(k) != u} }")

    gates = [("replica", w) for w in WORKLOADS] + [
        ("reference", "bert_overlap"), ("target", "mlp_robust_fp16"),
        ("wire", "mlp_robust_fp16"), ("wire", "bert_overlap")]
    for gate, w in gates:
        code, out, err = run_binary(["--workload", w, "--seed", "1", "--seconds",
                                     "1", "--trace", "0", "--inject", gate])
        res = result_of(out)
        check(f"{w}: gate '{gate}' fails on an injected mismatch",
              code == 1 and res is not None and not res["correct"]
              and f"GATE FAILED: {gate}" in err, f"exit {code}\n{err}")

    code, out, err = run_binary(["--workload", "ctr_many_tensors", "--seed", "1",
                                 "--seconds", "1", "--trace", "0",
                                 "--inject", "stall"], timeout=60)
    res = result_of(out)
    check("watchdog ends an injected stall as a counted failure",
          code == STALL_EXIT and res is not None and not res["correct"]
          and res["failed"] > 0 and "seed 1" in err
          and err.count("last completed iteration") == 4,
          f"exit {code}\n{err}")

    log("selftest: " + ("PASS" if not problems else
                        f"FAIL ({len(problems)} checks)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    code, out, err = run_measured(["--workload", args.workload,
                                   "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)])
    sys.stderr.write(err)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code is None:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
