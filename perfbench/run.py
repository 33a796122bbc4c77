"""The ballorbits benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

One client runs one operation at a time with no think time, repeating the
workload's seeded round of operations until --seconds have passed (always
whole rounds, at least two).  Every result is checked against an
independent reference.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Lines before it are
for people: the environment, the latency sample count, failures and the
result digest.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# BLAS threads are pinned before numpy loads: the library's linear algebra
# is tiny, and the machine has two cores.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 2          # fresh processes, besides this one, timing set-up
MIN_ROUNDS = 2            # every op repeats, so its digest can be compared
UNTRACED_SHARE = 1 / 3    # of --seconds in a traced run, to price the trace

# Functions each workload must reach in a traced run.
REACHES = {
    "construct": (
        "cli.main", "cli.parse_mapspec", "catalog.self_map_check",
        "catalog.estimate_dilation", "catalog.ensure_pole_clearance",
        "catalog.classify_dynamics", "catalog.step_point",
        "catalog.adapted_step", "catalog.evaluate", "catalog.jacobian",
        "orbits.construct_backward_orbit", "orbits.stopping_time",
        "orbits.harvest_chain", "orbits.analyze_orbit",
        "orbits.orbit_diagnostics", "orbits.orbit_csv", "geometry.kob_dist",
        "geometry.kob_matrix", "geometry.horofunction",
        "geometry.boundary_adapted_point", "geometry.apply_raw"),
    "regions": (
        "analysis.region_equivalence_check", "analysis.tube_covering_check",
        "analysis.premodel_validate", "sampling.tube_samples",
        "sampling.sample_horodisc", "catalog.evaluate", "geometry.horo_raw",
        "geometry.koranyi_functional", "geometry.dist_to_geodesic",
        "geometry.kob_dist", "geometry.kob_matrix",
        "geometry.boundary_adapted_point", "geometry.apply_raw",
        "orbits.orbit_diagnostics"),
    "battery": tuple(f"acceptance.criterion_{n:02d}" for n in range(1, 10)) + (
        "catalog.step_point", "catalog.evaluate", "catalog.jacobian",
        "orbits.construct_backward_orbit", "orbits.newton_preimage",
        "orbits.backward_orbit_via_preimages", "analysis.shift_recovery",
        "analysis.tube_covering_check", "analysis.premodel_validate",
        "sampling.tube_samples", "sampling.sample_horodisc",
        "geometry.kob_dist", "geometry.dist_to_geodesic",
        "geometry.koranyi_functional", "geometry.horo_raw"),
}


def load_program():
    """Import ballorbits from this checkout's src/ and nothing else."""
    if not (SRC / "ballorbits" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ballorbits package under {SRC}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ballorbits
    if Path(ballorbits.__file__).resolve().parent != SRC / "ballorbits":
        sys.exit(f"perfbench: imported ballorbits from {ballorbits.__file__}")


def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def setup(workload, seed, workdir):
    """Import, input generation and one untimed warm-up op.  Returns the
    round, the warm-up outcome and the seconds since this process began."""
    load_program()
    import workloads
    wl = workloads.WORKLOADS[workload]
    ops = wl.make_round(seed, str(workdir))
    workloads.self_test(ops)
    if wl.prepare is not None:
        wl.prepare(ops)
    warm = wl.run(ops[0])
    return wl, ops, warm, time.perf_counter() - T_START


def probe_setup(workload, seed):
    """Set-up time of a fresh process running this script."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1].split("=")[1])


class Tally:
    """Outcomes of the timed ops and their digests."""

    def __init__(self, ops, warm):
        self.ops = ops
        self.digests = {0: warm.digest}
        self.mismatches = []
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.failures = {}

    def record(self, i, outcome, latency):
        op = self.ops[i]
        self.attempted += 1
        if outcome.passed:
            self.latencies.append(latency)
        else:
            self.failed += 1
            key = (op.family, op.known_defect, outcome.detail)
            self.failures[key] = self.failures.get(key, 0) + 1
        if outcome.wrong:
            self.wrong.append(f"{op.family}: {outcome.detail}")
        first = self.digests.setdefault(i, outcome.digest)
        if first != outcome.digest:
            self.mismatches.append(f"op {i} ({op.family})")

    def round_digest(self):
        h = hashlib.sha256()
        for i in range(len(self.ops)):
            h.update(self.digests.get(i, "-").encode())
        return h.hexdigest()[:16]


def run_rounds(wl, ops, tally, seconds, min_rounds, after_round=None):
    """Whole rounds, ending at the round boundary nearest to `seconds`;
    (rounds, elapsed)."""
    clock = time.perf_counter
    t0 = clock()
    rounds = 0
    while (rounds < min_rounds
           or clock() - t0 + 0.5 * (clock() - t0) / rounds < seconds):
        for i, op in enumerate(ops):
            s = clock()
            outcome = wl.run(op)
            tally.record(i, outcome, clock() - s)
        rounds += 1
        if after_round is not None:
            after_round()
    return rounds, clock() - t0


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(tally, elapsed, setup_samples):
    lat = sorted(tally.latencies)
    passed = len(lat)
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "goodput_ops_per_s": metric(passed / elapsed, "1/s"),
        "op_p50_s": metric(statistics.median(lat) if lat else float("nan"),
                           "s"),
        "passed_frac": metric(passed / tally.attempted, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def per_layer(tracer, rounds, ops_per_round, overhead):
    """Counts and self times per round of the workload, module roll-ups,
    the acceptance criteria's total times and the ratio metrics.  Returns
    (metrics, the base of each ratio)."""
    out = {}
    calls = dict(zip(tracer.names, tracer.calls))
    for mod in list(LAYERS) + ["acceptance"]:
        fids = [f for f, n in enumerate(tracer.names)
                if n.startswith(mod + ".")]
        for f in fids:
            name = tracer.names[f]
            if mod == "acceptance":
                out[f"{name}.total_s"] = metric(tracer.total_s[f] / rounds,
                                                "s")
            else:
                out[f"{name}.calls"] = metric(tracer.calls[f] / rounds,
                                              "count")
                out[f"{name}.self_s"] = metric(tracer.self_s[f] / rounds, "s")
        out[f"{mod}.calls"] = metric(
            sum(tracer.calls[f] for f in fids) / rounds, "count")
        out[f"{mod}.self_s"] = metric(
            sum(tracer.self_s[f] for f in fids) / rounds, "s")

    def result(name):
        return tracer.results[tracer.fid(name)]

    newton = tracer.fid("orbits.newton_preimage")
    ratios = {
        "orbits.points_per_step": (
            result("orbits.construct_backward_orbit"),
            calls["catalog.step_point"]),
        "catalog.adapted_frac": (
            result("catalog.adapted_step"), calls["catalog.adapted_step"]),
        "orbits.jacobians_per_preimage": (
            tracer.calls_under("catalog.jacobian",
                               "orbits.backward_orbit_via_preimages"),
            result("orbits.backward_orbit_via_preimages")),
        "orbits.newton_ok_frac": (
            tracer.calls[newton] - tracer.raised[newton],
            tracer.calls[newton]),
        "geometry.kob_dist_per_op": (
            calls["geometry.kob_dist"], rounds * ops_per_round),
    }
    for name, (num, den) in ratios.items():
        # a ratio whose base is zero on this workload reads 0
        out[name] = metric(num / den if den else 0.0,
                           "count" if name.endswith("_per_op") else "ratio")
    out["trace.overhead_frac"] = metric(overhead, "ratio")
    return out, ratios


def cross_check(tracer):
    """(label, total and self seconds per call, calls, baseline seconds)
    for the figures the ROADMAP baseline quotes."""
    rows = []
    for name, label, baseline in (
            ("orbits.construct_backward_orbit", "construct", 0.236),
            ("orbits.backward_orbit_via_preimages", "41-step march", 0.476),
            ("sampling.tube_samples", "tube_samples per 10,200 points",
             0.468),
            ("geometry.dist_to_geodesic", "dist_to_geodesic", 2.1e-3),
            ("geometry.kob_dist", "kob_dist", 25e-6),
            ("catalog.step_point", "step_point", 33e-6)):
        f = tracer.fid(name)
        per = tracer.calls[f]
        if name == "sampling.tube_samples":
            per = tracer.results[f] / 10_200     # per 10,200 points
        if per:
            rows.append((label, tracer.total_s[f] / per,
                         tracer.self_s[f] / per, tracer.calls[f], baseline))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("construct", "regions", "battery"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    args = p.parse_args(argv)

    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, ops, warm, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(f"setup_s={setup_s!r}")
            return 0
        return measure(args, wl, ops, warm, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def measure(args, wl, ops, warm, setup_s):
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed={args.seed} ops_per_round={len(ops)} "
          f"families={','.join(op.family for op in ops)}")
    tally = Tally(ops, warm)
    problems = []
    if args.trace == 0:
        setup_samples = [setup_s] + [probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
        rounds, elapsed = run_rounds(wl, ops, tally, args.seconds, MIN_ROUNDS)
        metrics = end_to_end(tally, elapsed, setup_samples)
        print(f"setup_s samples {[round(s, 4) for s in setup_samples]}")
    else:
        # untraced rounds first: they price the trace, and their digests are
        # what the traced rounds must reproduce
        untraced = tally
        untraced_rounds, untraced_s = run_rounds(
            wl, ops, untraced, args.seconds * UNTRACED_SHARE, 1)
        problems += [f"wrong result: {w}" for w in untraced.wrong]
        problems += [f"digest changed between untraced repeats: {m}"
                     for m in untraced.mismatches]
        tally = Tally(ops, warm)
        tally.digests = dict(untraced.digests)
        tracer = Tracer()
        snapshots = [[0] * len(tracer.names)]
        tracer.install()
        try:
            rounds, elapsed = run_rounds(
                wl, ops, tally, args.seconds * (1 - UNTRACED_SHARE),
                MIN_ROUNDS,
                after_round=lambda: snapshots.append(list(tracer.calls)))
        finally:
            tracer.uninstall()
        overhead = (elapsed / rounds) / (untraced_s / untraced_rounds) - 1.0
        metrics, ratios = per_layer(tracer, rounds, len(ops), overhead)
        for name, (num, den) in ratios.items():
            print(f"ratio {name} = {num} / {den}")
        counts = [[b - a for a, b in zip(prev, cur)]
                  for prev, cur in zip(snapshots, snapshots[1:])]
        if any(c != counts[0] for c in counts):
            problems.append("span counts differ between traced rounds")
        for name in REACHES[args.workload]:
            if tracer.calls[tracer.fid(name)] == 0:
                problems.append(f"{name} was never reached")
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.write_spans(spans)
        for label, total, self_, n, base in cross_check(tracer):
            print(f"cross-check {label}: traced {total:.4g} s per call, "
                  f"{self_:.4g} s self, over {n} calls (baseline {base:.3g} "
                  f"s, ratio {total / base:.2f})")
        print(f"spans {len(tracer.span_id)} written to "
              f"{spans.relative_to(ROOT)}")
        print(f"untraced rounds={untraced_rounds} {untraced_s:.3f} s; "
              f"traced digests match untraced: {not tally.mismatches}")

    lat = sorted(tally.latencies)
    print(f"rounds={rounds} elapsed={elapsed:.3f} s attempted={tally.attempted} "
          f"failed={tally.failed} latency samples={len(lat)}")
    if len(lat) >= 100:
        print(f"op_p90_s={lat[int(0.9 * len(lat))]!r} over {len(lat)} samples")
    else:
        print(f"op_p90_s not reported: {len(lat)} samples leave fewer than "
              "ten beyond the 90th percentile")
    for (family, defect, detail), n in sorted(tally.failures.items(),
                                              key=lambda kv: kv[0][0]):
        kind = f"known defect: {defect}" if defect else "UNEXPECTED"
        print(f"failed x{n} {family} [{kind}] {detail}")
    problems += [f"wrong result: {w}" for w in tally.wrong]
    problems += [f"digest differs from the first run of the op: {m}"
                 for m in tally.mismatches]
    for msg in problems:
        print(f"problem: {msg}")
    print(f"round digest {tally.round_digest()}")
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
