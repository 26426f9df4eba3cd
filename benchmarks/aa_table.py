"""Prints the A/A table from the run logs aa.sh left in the directory given.

Per workload and end-to-end metric: each set's median and quartiles, the
difference between the set medians as a share of A's, the spread of all ten
runs (interquartile range over median, what the driver holds to the bound)
and the worst single run against its set median. Exits 1 if

  - a pair of set medians differs by more than the metric's bound, or
  - a single run of rounds_per_s or round_p50_ms strays from its set median
    by more than a tenth, or
  - a run reports a failed round.
"""
import json, statistics, sys

RUNS = range(1, 6)
STRAY = 0.10  # single runs of these two must stay this close to their set median
HELD = ("rounds_per_s", "round_p50_ms")

logs = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
ok = True


def load(workload, which):
    return [json.load(open("%s/%s.%s.%d.json" % (logs, workload, which, i))) for i in RUNS]


def quartiles(vals):
    q = statistics.quantiles(vals, n=4)
    return q[0], statistics.median(vals), q[2]


print("# A/A: two interleaved sets of 5 runs per workload, %d s timed phase\n" % spec["run_seconds"])
print("`median [q1, q3]` per set; `A vs B` is the difference of the set medians as a share of A's;")
print("`spread` is the interquartile range of all 10 runs over their median; `worst run` is the")
print("largest distance of a single run from its set median.\n")
print("| workload | metric | bound | set A | set B | A vs B | bound / (A vs B) | spread | worst run |")
print("|---|---|---|---|---|---|---|---|---|")
for w in spec["workloads"]:
    sets = {s: load(w["name"], s) for s in "AB"}
    for s in "AB":
        for r in sets[s]:
            if not r["correct"] or r["failed"]:
                ok = False
                print("FAILED ROUNDS: %s set %s: %d of %d" % (w["name"], s, r["failed"], r["attempted"]))
    for m in spec["end_to_end"]:
        vals = {s: [r["metrics"][m["name"]]["value"] for r in sets[s]] for s in "AB"}
        med, cell = {}, {}
        for s in "AB":
            q1, med[s], q3 = quartiles(vals[s])
            cell[s] = "%.4g [%.4g, %.4g]" % (med[s], q1, q3)
        diff = abs(med["A"] - med["B"]) / med["A"]
        q1, both, q3 = quartiles(vals["A"] + vals["B"])
        worst = max(abs(v - med[s]) / med[s] for s in "AB" for v in vals[s])
        flags = ""
        if diff > m["bound"]:
            ok, flags = False, " **sets differ by more than the bound**"
        if m["name"] in HELD and worst > STRAY:
            ok, flags = False, flags + " **a run strays by more than a tenth**"
        print("| %s | %s (%s) | %.0f %% | %s | %s | %.2f %% | %s | %.2f %% | %.2f %%%s |" % (
            w["name"], m["name"], m["unit"], 100 * m["bound"], cell["A"], cell["B"], 100 * diff,
            "%.1f" % (m["bound"] / diff) if diff > 0 else "inf", 100 * (q3 - q1) / both, 100 * worst, flags))

print("\n## Not gated: spread over 5 traced runs per workload\n")
print("`median (spread)`, spread being the interquartile range over the median.\n")
names = ["lat.p90_ms", "lat.p99_ms", "proc.cpu_ms", "proc.peak_rss_mb", "trace.overhead_pct", "trace.budget_closure_pct"]
print("| workload | " + " | ".join(names) + " |")
print("|---|" + "---|" * len(names))
for w in spec["workloads"]:
    traced = load(w["name"], "T")
    cells = []
    for n in names:
        vals = [r["metrics"][n]["value"] for r in traced]
        q1, med, q3 = quartiles(vals)
        if n.startswith("trace."):
            cells.append("%.1f [%.1f, %.1f]" % (med, min(vals), max(vals)))
        else:
            cells.append("%.4g (%.1f %%)" % (med, 100 * (q3 - q1) / med))
    if any(not r["correct"] for r in traced):
        ok = False
        cells.append("FAILED ROUNDS")
    print("| %s | %s |" % (w["name"], " | ".join(cells)))
print("\nThe two `trace.` columns are `median [min, max]` in percent.")
print("\n" + ("A/A passed." if ok else "A/A FAILED."))
sys.exit(0 if ok else 1)
