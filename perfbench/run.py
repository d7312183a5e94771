"""inropt benchmark: one seeded workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload small-dense --seed 1 --seconds 10 --trace 0

Runs whole passes over the workload's fixed operation list, one operation
after another in this process, until ``--seconds`` have gone by (at least
one pass).  Every output is checked against the oracle in ``oracle.py``, the
published reference values and certificates recomputed with numpy/scipy,
outside the timed region.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A readable report and the provenance go to standard error.

``--smoke`` runs each workload once at reduced size with every check on.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# Set-up is timed in this process and in this many more fresh processes.
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "solve_p50_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass at reduced size, every check on")
    ap.add_argument("--role", choices=("run", "setup"), default="run",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def set_up(args):
    """Imports, input generation and one warm-up solve."""
    import workloads
    workdir = os.path.join(HERE, "_work", f"{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.smoke,
                         os.path.relpath(workdir, os.getcwd()))
    workloads.warm_up()
    return wl, workdir, time.perf_counter() - T0


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.records = []  # (op, latency_s, digest or None, error or None)
        self.layer = None

    @property
    def wall(self):
        return sum(r[1] for r in self.records)


def run_pass(wl, lanczos, tracer=None):
    p = Pass(tracer is not None)
    lanczos.reset()
    if tracer is not None:
        tracer.reset()
    for op in wl.ops:
        if tracer is not None:
            tracer.enabled = True
        t = time.perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        if tracer is not None:
            tracer.enabled = False
        digest = None
        if err is None:
            try:
                digest = op.digest(out)
            except Exception as exc:  # an unreadable output fails the operation
                err = f"output: {type(exc).__name__}: {exc}"
        del out
        p.records.append((op, latency, digest, err))
    if tracer is not None:
        p.layer = tracer.layer_metrics()
    return p


def run_passes(wl, args, lanczos, tracer):
    """Whole passes until the time is up; traced runs alternate untraced and
    traced passes so the tracing overhead is measured in the same process."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, lanczos, tracer if traced else None))
        have_traced = tracer is None or any(p.traced for p in passes)
        if have_traced and (args.smoke or time.perf_counter() - start >= args.seconds):
            return passes


def pass_time(passes):
    """Wall time of one pass: each operation's median latency over the
    passes, summed, so a stall during one pass moves only that sample."""
    per_op = zip(*[[r[1] for r in p.records] for p in passes])
    return sum(statistics.median(latencies) for latencies in per_op)


def setup_samples(args, first):
    samples = [first]
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--role", "setup"]
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def evaluate(wl, passes):
    import checks
    refs = checks.Refs(wl.cases)
    attempted = failed = wrong = 0
    messages = []
    for p in passes:
        for op, _, digest, err in p.records:
            attempted += 1
            fails = [err] if err is not None else checks.check(op, digest, refs)
            if fails:
                failed += 1
                wrong += err is None
                messages.append(f"{op.name}: {'; '.join(fails)}")
    return attempted, failed, wrong == 0, messages


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "inropt")):
        print(f"error: no inropt sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    wl, workdir, setup_s = set_up(args)
    try:
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def measure(args, wl, setup_s):
    import provenance
    from tracing import LAYER_METRICS, SeededLanczos, Tracer
    lanczos = SeededLanczos(args.seed)
    lanczos.install()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        passes = run_passes(wl, args, lanczos, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        lanczos.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [p for p in passes if not p.traced]
    metrics = {}
    if args.trace:
        traced = [p for p in passes if p.traced]
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = pass_time(traced) - pass_time(plain)
            else:
                value = statistics.median(p.layer[name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        setups = [setup_s] if args.smoke else setup_samples(args, setup_s)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": pass_time(plain),
            "solve_p50_s": statistics.median(r[1] for p in plain for r in p.records),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    t_check = time.perf_counter()
    attempted, failed, correct, messages = evaluate(wl, passes)
    report = {
        "check_s": time.perf_counter() - t_check,
        "workload": args.workload, "seed": args.seed,
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "traced_passes": sum(p.traced for p in passes),
        "ops_per_pass": len(wl.ops), "lanczos_seeded": lanczos.supported,
        "provenance": provenance.provenance(ROOT),
    }
    print(json.dumps(report, indent=1), file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(f"attempted {attempted}  failed {failed}  correct {correct}", file=sys.stderr)
    for line in messages[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
