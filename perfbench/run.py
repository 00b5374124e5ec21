#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <serve-kernel|serve-cheap|ingest-recover> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`), whose `perfbench-store-<pid>` subdirectory
holds the run's durable store until the run ends. Cargo's output goes to
standard error; the benchmark's last line of standard output is its JSON
result. A failed build exits non-zero without printing a result. SIGTERM
and SIGINT are passed on to the running child, which is waited for.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
running = []


def stop(signum, _frame):
    for child in running:
        child.send_signal(signum)


def run(cmd, env, **kwargs):
    child = subprocess.Popen(cmd, env=env, **kwargs)
    running.append(child)
    try:
        return child.wait()
    finally:
        running.remove(child)


def main():
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        env,
        stdout=sys.stderr,
    )
    if build != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "selest-perfbench")
    store = os.path.join(target, "perfbench-store-%d" % os.getpid())
    try:
        code = run([exe, *sys.argv[1:], "--store", store], env)
    finally:
        # The benchmark removes its store itself; a stopped run may not.
        shutil.rmtree(store, ignore_errors=True)
    return 1 if code < 0 else code


if __name__ == "__main__":
    sys.exit(main())
