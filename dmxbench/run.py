#!/usr/bin/env python3
"""Build the dmx benchmark from source and run it.

    python3 dmxbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 dmxbench/run.py --selftest
    python3 dmxbench/run.py --describe

Run from the root of a dmx source tree. The benchmark program is built with
dune into _build/ and then replaces this process; its last line of standard
output is the JSON result. Build output goes to standard error.

--selftest checks what the benchmark promises about its own counts: for a
fixed number of operations and one seed, page reads and writes, pool hits
and misses, WAL appends and fsyncs, lock grants and plan translations
repeat exactly; a workload run alone counts the same as after the others;
the traced pass does the same page I/O as the untraced one; no operation
fails; and BENCHMARK.json is what the program describes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "dmxbench", "dmxbench.exe")
WORKLOADS = ["oltp-durable", "oltp-memory", "scan-join"]


def die(msg, code=2):
    print("dmxbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", os.path.join("lib", "db", "db.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no dmx source tree here (missing %s)" % need)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        die("neither dune nor opam is on PATH")
    # --cache=disabled keeps every build output inside this tree.
    cmd = dune + ["build", "--cache=disabled", "--root", ROOT, "./dmxbench/dmxbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        die("build failed", r.returncode)


def counts(names, seed):
    out = subprocess.run(
        [EXE, "--counts", ",".join(names), "--seed", str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
        timeout=300,
    ).stdout.decode()
    return {r["workload"]: r for r in map(json.loads, out.strip().splitlines())}


def selftest():
    seed = 7
    problems = []
    alone = {}
    for name in WORKLOADS:
        alone.update(counts([name], seed))
    together = counts(WORKLOADS, seed)
    reverse = counts(list(reversed(WORKLOADS)), seed)
    for name in WORKLOADS:
        a = alone[name]
        if a["failed"] or together[name]["failed"] or reverse[name]["failed"]:
            problems.append("%s: failed operations" % name)
        for other, label in ((together, "after the others"), (reverse, "in reverse order")):
            for mode in ("untraced", "traced"):
                if other[name][mode] != a[mode]:
                    problems.append(
                        "%s %s counts differ %s: %s vs %s"
                        % (name, mode, label, a[mode], other[name][mode])
                    )
        io = lambda d: {k: v for k, v in d.items() if k.startswith("io.")}
        if io(a["traced"]) != io(a["untraced"]):
            problems.append("%s: tracing changed the page I/O" % name)
        if a["traced"]["io.pool_hits"] + a["traced"]["io.pool_misses"] == 0:
            problems.append("%s: no pins counted" % name)
        print("%-13s %s" % (name, json.dumps(a["traced"], sort_keys=True)))
    described = json.loads(
        subprocess.run([EXE, "--describe"], stdout=subprocess.PIPE, check=True).stdout
    )
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        if json.load(f) != described:
            problems.append("BENCHMARK.json differs from dmxbench --describe")
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(selftest())
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
