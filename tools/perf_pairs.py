#!/usr/bin/env python3
"""Before/after pairs of the perfbench ledger: a parent revision vs this checkout.

    python3 tools/perf_pairs.py --parent HEAD --workload ls32-secn1 \\
        --seeds 71-80 --seconds 25 --trace 0 [--mode alternate]

Run from anywhere inside a checkout. The parent side is `git archive REV`
unpacked under the work directory (default .perf_pairs/, ignored by git);
the change side is the checkout as it stands, uncommitted edits included.
Each side builds into its own $CARGO_TARGET_DIR under the work directory,
through perfbench/run.py, which this tool calls and never modifies.

One pair is one seed: parent and change run the same workload at the same
seed, either at the same time (--mode side-by-side, so both see the same
neighbours on a shared machine) or one after the other with the order
flipped every pair (--mode alternate, the default). Per workload and
end-to-end metric it prints the parent's and the change's median and IQR,
the median gap, and how many pairs the change won (strictly better, in the
direction BENCHMARK.json gives); a traced run (--trace 1) summarizes the
per-layer metrics instead. The last stdout line is one JSON object with the
same numbers.

Exit status: 0 when every run passed its output check and every simulated
metric is identical on both sides of every pair; 1 when a run failed its
check or a simulated metric differs (the host-time metrics may differ, the
simulated outcome may not); 2 for a usage, git or build error.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics that measure the host, not the simulation: the only ones a change
# to the program may move. Every other metric a run prints is a simulated
# outcome (or an exact event count) and must match between the two sides.
HOST_METRICS = {
    "setup_s", "host_ref_per_sim_ms", "peak_rss_mb",
    "sim.ns_per_event", "sim.chunk_us_p50", "sim.chunk_us_p99",
    "host.ms_per_sim_ms", "host.ref_unit_us", "trace.overhead_ratio",
}
HOST_SUFFIXES = (".ns", ".us", ".share", "_ms")


def is_host_metric(name):
    return name in HOST_METRICS or name.endswith(HOST_SUFFIXES)


def parse_seeds(text):
    """'71-74,80' -> [71, 72, 73, 74, 80]."""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = (int(x) for x in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quartiles of an empty list")

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(pairs, better):
    """Summary of (parent, change) value pairs of one metric.

    `better` is "lower" or "higher". A pair is a win when the change is
    strictly better. `gap` is the parent median minus the change median,
    signed so that a positive gap means the change is better; `delta_pct`
    is the change median relative to the parent median. `beats_iqr` holds
    when the gap exceeds the parent's interquartile range.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if not pairs:
        raise ValueError("no pairs")
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    gap = sign * (p_med - c_med)
    return {
        "pairs": len(pairs),
        "parent_median": p_med,
        "parent_iqr": p_q3 - p_q1,
        "change_median": c_med,
        "change_iqr": c_q3 - c_q1,
        "delta_pct": (100.0 * (c_med - p_med) / p_med) if p_med else None,
        "gap": gap,
        "wins": wins,
        "beats_iqr": gap > p_q3 - p_q1,
    }


def simulated_mismatches(parent_metrics, change_metrics):
    """Names of simulated metrics whose values differ (or exist on one side)."""
    names = set(parent_metrics) | set(change_metrics)
    bad = []
    for name in sorted(names):
        if is_host_metric(name):
            continue
        p = parent_metrics.get(name, {}).get("value")
        c = change_metrics.get(name, {}).get("value")
        if p != c:
            bad.append(name)
    return bad


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                return None
    return None


class Side:
    def __init__(self, name, tree, target_dir):
        self.name = name
        self.tree = tree
        self.target_dir = target_dir

    def command(self, workload, seed, seconds, trace):
        return [sys.executable, os.path.join(self.tree, "perfbench", "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(trace)]

    def env(self):
        env = dict(os.environ)
        env["CARGO_TARGET_DIR"] = self.target_dir
        return env

    def start(self, workload, seed, seconds, trace, log):
        return subprocess.Popen(
            self.command(workload, seed, seconds, trace), cwd=self.tree,
            env=self.env(), stdout=subprocess.PIPE, stderr=log, text=True)


def export_parent(rev, dest):
    """Unpacks `git archive rev` into dest (once per resolved commit)."""
    if os.path.isdir(os.path.join(dest, "perfbench")):
        return
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not export {rev} into {dest}")


def finish(proc):
    out, _ = proc.communicate()
    return proc.returncode, last_json_line(out)


def run_pair(sides, workload, seed, seconds, trace, mode, flip, log):
    """Returns {side name: (exit code, result)} for one seed."""
    results = {}
    if mode == "side-by-side":
        procs = {s.name: s.start(workload, seed, seconds, trace, log)
                 for s in sides}
        for name, proc in procs.items():
            results[name] = finish(proc)
    else:
        for s in (reversed(sides) if flip else sides):
            results[s.name] = finish(s.start(workload, seed, seconds, trace, log))
    return results


def print_table(workload, summaries, out):
    print(f"\n{workload}", file=out)
    print(f"  {'metric':<24} {'parent med':>12} {'IQR':>9} {'change med':>12} "
          f"{'IQR':>9} {'delta':>8} {'wins':>7}  gap>IQR", file=out)
    for name, s in summaries.items():
        delta = "n/a" if s["delta_pct"] is None else f"{s['delta_pct']:+.1f}%"
        print(f"  {name:<24} {s['parent_median']:>12.5g} {s['parent_iqr']:>9.3g} "
              f"{s['change_median']:>12.5g} {s['change_iqr']:>9.3g} {delta:>8} "
              f"{s['wins']:>3}/{s['pairs']:<3}  {'yes' if s['beats_iqr'] else 'no'}",
              file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent side, e.g. HEAD")
    parser.add_argument("--workload", required=True, action="append",
                        help="perfbench workload; repeat for several")
    parser.add_argument("--seeds", required=True,
                        help="one pair per seed: '71-80' or '71,75,90'")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--mode", choices=["alternate", "side-by-side"],
                        default="alternate")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".perf_pairs"))
    args = parser.parse_args(argv)

    try:
        seeds = parse_seeds(args.seeds)
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                              args.parent + "^{commit}"], check=True,
                             capture_output=True, text=True).stdout.strip()
        work = os.path.abspath(args.work_dir)
        parent_tree = os.path.join(work, "parent-" + sha[:12])
        export_parent(sha, parent_tree)
    except (ValueError, OSError, RuntimeError,
            subprocess.CalledProcessError) as err:
        print(f"perf_pairs: {err}", file=sys.stderr)
        return 2
    sides = [Side("parent", parent_tree,
                  os.path.join(work, "build-parent-" + sha[:12])),
             Side("change", ROOT, os.path.join(work, "build-change"))]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # Traced runs print the per-layer metrics, untraced ones the end-to-end.
    listed = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    better = {m["name"]: m["better"] for m in listed}
    progress = "host_ref_per_sim_ms" if args.trace == "0" else "host.ms_per_sim_ms"

    log = sys.stderr
    # Build both sides one after the other before any timed run, so no
    # measured pair shares the machine with a compiler.
    for s in sides:
        code, _ = finish(s.start(args.workload[0], seeds[0], 0.1, "0", log))
        if code == 2:
            print(f"perf_pairs: {s.name} side failed to build", file=sys.stderr)
            return 2

    failed = False
    report = {}
    for workload in args.workload:
        values = {name: [] for name in better}
        for i, seed in enumerate(seeds):
            results = run_pair(sides, workload, seed, args.seconds, args.trace,
                               args.mode, flip=i % 2 == 1, log=log)
            (p_code, p_res), (c_code, c_res) = results["parent"], results["change"]
            if p_code != 0 or c_code != 0 or p_res is None or c_res is None:
                print(f"perf_pairs: {workload} seed {seed}: a run failed "
                      f"(parent exit {p_code}, change exit {c_code})",
                      file=sys.stderr)
                failed = True
                continue
            bad = simulated_mismatches(p_res["metrics"], c_res["metrics"])
            if bad:
                print(f"perf_pairs: {workload} seed {seed}: simulated metrics "
                      f"differ: {', '.join(bad)}", file=sys.stderr)
                failed = True
            for name in better:
                p = p_res["metrics"].get(name, {}).get("value")
                c = c_res["metrics"].get(name, {}).get("value")
                if p is not None and c is not None:
                    values[name].append((p, c))
            if values[progress]:
                print(f"perf_pairs: {workload} seed {seed}: {progress} "
                      f"{values[progress][-1][0]:.4g} -> "
                      f"{values[progress][-1][1]:.4g}", file=sys.stderr)
        summaries = {name: summarize(v, better[name])
                     for name, v in values.items() if v}
        report[workload] = summaries
        print_table(workload, summaries, sys.stdout)

    print(json.dumps({"parent": sha, "mode": args.mode, "seeds": seeds,
                      "seconds": args.seconds, "trace": int(args.trace),
                      "identical": not failed, "workloads": report}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
