#!/usr/bin/env python3
"""Build and run the gcr benchmark (see gcrbench/README.md).

    python3 gcrbench/run.py --workload <sim_sweep|profile_sweep|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 gcrbench/run.py --selftest
    python3 gcrbench/run.py --write-referee

Run from the repository root.  The first call configures and builds the
library, the gcr-server daemon and the benchmark (Release) under
.bench_build/; later calls rebuild incrementally.  Build output goes to
stderr; the benchmark's last stdout line is its JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(".bench_build", "work")
REFEREE = os.path.join(HERE, "referee.tsv")


def build(targets):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def main(argv):
    os.chdir(ROOT)
    if argv[:1] == ["--selftest"]:
        build(["gcrbench_selftest", "gcr-server"])
        sys.exit(subprocess.run([
            os.path.join(BUILD, "gcrbench_selftest"), "--referee", REFEREE,
            "--server", os.path.join(BUILD, "gcr-server"),
            "--work-dir", os.path.join(WORK, "selftest")]).returncode)
    if argv[:1] == ["--write-referee"]:
        build(["gcrbench"])
        sys.exit(subprocess.run([os.path.join(BUILD, "gcrbench"),
                                 "--write-referee", REFEREE]).returncode)
    build(["gcrbench", "gcr-server"])
    binary = os.path.join(BUILD, "gcrbench")
    os.execv(binary, [binary] + argv + [
        "--referee", REFEREE,
        "--server", os.path.join(BUILD, "gcr-server"),
        "--work-dir", WORK])


if __name__ == "__main__":
    main(sys.argv[1:])
