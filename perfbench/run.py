#!/usr/bin/env python3
"""Build the repository's benchmark and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-stp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["exact-stp", "exact-sat", "netlist", "service"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the library sources, so a result names the code it measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c", "dune", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run me from the root of a checkout (dune-project and lib/ are missing)")
    # The shared dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail(f"build failed ({r.returncode})")


def run(args):
    env = dict(os.environ, PERFBENCH_COMMIT=commit(), PERFBENCH_DIGEST=source_digest())
    # A session of its own, so a run cut by the timeout takes the service it
    # forked down with it.
    proc = subprocess.Popen([EXE] + args, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="feed the checker known-bad answers and confirm each is caught")
    a = p.parse_args()
    if not a.self_test and (a.workload is None or a.seed is None or a.seconds is None):
        p.error("--workload, --seed and --seconds are required")
    build()
    if a.self_test:
        sys.exit(run(["selftest"]))
    sys.exit(run(["run", "--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", repr(a.seconds), "--trace", str(a.trace)]))


if __name__ == "__main__":
    main()
