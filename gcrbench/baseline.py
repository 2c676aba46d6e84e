#!/usr/bin/env python3
"""Per-app layer table from the span files of two traced runs.

    python3 gcrbench/run.py --workload sim_sweep --seed 1 --seconds 30 --trace 1
    python3 gcrbench/run.py --workload profile_sweep --seed 1 --seconds 30 --trace 1
    python3 gcrbench/baseline.py .bench_build/work/traces/sim_sweep-seed1.jsonl \
        .bench_build/work/traces/profile_sweep-seed1.jsonl

Prints, for the FusedRegrouped version of each app at T=8, the seconds of
trace generation, of the whole hierarchy and of the exact tracker, then each
component's rate on the Swim and SP streams (the README baseline table).
"""
import json
import sys

APPS = [("ADI", 96), ("Swim", 96), ("Tomcatv", 96), ("SP", 20)]


def load(path):
    spans = [json.loads(line) for line in open(path)]
    keys = {}
    for s in spans:
        if s["name"] == "request":
            keys[(s["worker"], s["request"])] = s["key"]
    by = {}
    for s in spans:
        key = keys.get((s["worker"], s["request"]), "")
        entry = by.setdefault((key, s["name"]), [0.0, 0])
        entry[0] += (s["end_us"] - s["start_us"]) / 1e6
        entry[1] += s["work"]
    return by


def main(sim_path, profile_path):
    sim, prof = load(sim_path), load(profile_path)

    def get(table, kind, app, n, name):
        return table.get(("%s/%s/FusedRegrouped/n%d/T8" % (kind, app, n), name),
                         [0.0, 0])

    header = "| metric (FusedRegrouped, T=8) | " + " | ".join(
        "%s %d" % a for a in APPS) + " |"
    print(header)
    print("|" + "---|" * (len(APPS) + 1))
    for label, table, kind, name in [
            ("interp.trace_gen_s", sim, "measure", "interp.trace_gen"),
            ("cachesim.hierarchy_s", sim, "measure", "cachesim.hierarchy"),
            ("locality.exact_tracker_s", prof, "profile",
             "locality.exact_tracker")]:
        cells = ["%.3f" % get(table, kind, app, n, name)[0] for app, n in APPS]
        print("| %s | %s |" % (label, " | ".join(cells)))
    print()
    print("| component rate (Macc/s) | Swim 96 | SP 20 |")
    print("|---|---|---|")
    for label, table, kind, name in [
            ("interp.trace_maccess_per_s", sim, "measure", "interp.trace_gen"),
            ("cachesim.l1_maccess_per_s", sim, "measure", "cachesim.l1"),
            ("cachesim.l2_maccess_per_s", sim, "measure", "cachesim.l2"),
            ("cachesim.tlb_maccess_per_s", sim, "measure", "cachesim.tlb"),
            ("cachesim.hierarchy_maccess_per_s", sim, "measure",
             "cachesim.hierarchy"),
            ("locality.exact_tracker_maccess_per_s", prof, "profile",
             "locality.exact_tracker")]:
        cells = []
        for app, n in [("Swim", 96), ("SP", 20)]:
            secs, work = get(table, kind, app, n, name)
            cells.append("%.0f" % (work / secs / 1e6) if secs else "-")
        print("| %s | %s |" % (label, " | ".join(cells)))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
