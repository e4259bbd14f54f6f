"""Closed-loop benchmark of `linminmax check` on seeded instance corpora.

Usage, from the root of a source checkout:

    python3 certbench/run.py --workload bipartite --seed 1 --seconds 30 --trace 0

One client runs the workload's corpus through the public front end,
`linminmax.cli.main(["check", ...])`, in this process with stdout
captured, one check after the other.  The corpus is run in whole passes
until the time is up (at least three), every report is re-verified by
`checks.py`, and every check interval is calibrated (see calib.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass
and then traced passes, and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calib
import checks
import corpus
import spans

MIN_PASSES = 3
SETUP_STARTS = 11


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(root, src, cal) -> float:
    """Median calibrated wall time of a fresh interpreter importing linminmax.cli."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", "import linminmax.cli"]

    def start():
        subprocess.run(cmd, cwd=root, env=env, check=True)

    start()  # compiles the bytecode cache once, like any installed copy
    cal.last = cal.sample()
    return statistics.median(cal.timed(start)[2] for _ in range(SETUP_STARTS))


class Client:
    """Runs checks through the in-process CLI and verifies their reports."""

    def __init__(self, cli, insts, workdir):
        self.cli = cli
        self.insts = insts
        self.paths = []
        for inst in insts:
            path = os.path.join(workdir, f"{inst.ident}.json")
            with open(path, "w") as fh:
                json.dump(inst.data, fh)
            self.paths.append(path)
        self.verified: dict[str, str] = {}
        self.samples: dict[str, tuple] = {}
        self.truth: dict[str, int] = {}
        self.failed = 0
        self.attempted = 0
        self.errors: list[str] = []

    def call(self, i):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(self.insts[i].argv(self.paths[i]))
        except SystemExit as ex:
            code = ex.code if isinstance(ex.code, int) else 1
        except Exception:  # a traceback is exit 1 for a command-line user
            code = 1
            buf.write(traceback.format_exc())
        return code, buf.getvalue()

    def run_pass(self, cal, on_check=None):
        """One pass over the corpus; returns raw and calibrated seconds per check."""
        gc.collect()
        raw, cooked = [], []
        for i in range(len(self.insts)):
            if on_check is not None:
                on_check(i)
            (code, out), r, c = cal.timed(lambda: self.call(i))
            raw.append(r)
            cooked.append(c)
            self.record(i, code, out)
        return raw, cooked

    def record(self, i, code, out):
        inst = self.insts[i]
        self.attempted += 1
        if code != 0:
            self.failed += 1
        if inst.ident in self.verified and self.verified[inst.ident] == out:
            return
        try:
            if inst.fault is not None and code == 2:
                if inst.ident not in self.truth:
                    self.truth[inst.ident] = checks.fault_truth(inst)
                checks.verify_fault(inst, json.loads(out), self.truth[inst.ident])
            elif code == 0:
                report = json.loads(out)
                checks.verify(inst, report)
                self.samples.setdefault(inst.theorem, (inst, report))
            else:
                print(f"{inst.ident}: exit {code}: {out.strip()[-300:]}", file=sys.stderr)
        except (checks.CheckFailed, KeyError, IndexError, TypeError, ValueError) as ex:
            self.errors.append(f"{inst.ident}: {type(ex).__name__}: {ex}")
            return
        self.verified[inst.ident] = out


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(client, cal, seconds):
    t0 = time.perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 + statistics.mean(p[0] for p in passes) <= seconds:
        raw, cooked = client.run_pass(cal)
        passes.append((sum(raw), cooked))
    per_check = [statistics.median(p[1][i] for p in passes) for i in range(len(client.insts))]
    total = sum(sum(p[1]) for p in passes)
    n = len(per_check)
    p90 = percentile(per_check, 0.9)
    print(f"passes: {len(passes)} over {n} instances; p90 from per-instance medians, "
          f"{sum(1 for x in per_check if x > p90)} instances beyond it")
    return {
        "certs_per_s": (len(passes) * n / total, "1/s"),
        "check_p50_ms": (statistics.median(per_check) * 1e3, "ms"),
        "check_p90_ms": (p90 * 1e3, "ms"),
    }


def traced_run(client, cal, seconds, cli, out_path, workload, seed):
    t0 = time.perf_counter()
    _, base = client.run_pass(cal)
    tracer = spans.Tracer()
    tracer.install(cli)
    traced = []

    def on_check(i):
        tracer.check_id = i

    while not traced or time.perf_counter() - t0 + statistics.mean(traced) <= seconds:
        tracer.reset()
        scale = {-1: 1.0}
        raw, cooked = client.run_pass(cal, on_check)
        for i, (r, c) in enumerate(zip(raw, cooked)):
            scale[i] = c / r if r > 0 else 1.0
        traced.append(sum(cooked))
        totals = tracer.totals(scale)
        if len(traced) == 1:
            first = totals
    # Calls repeat exactly from pass to pass; times are taken from the last pass.
    metrics = {}
    for name in spans.LAYER_METRICS:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        if calls != first.get(name, (0,))[0]:
            client.errors.append(f"{name}: call count changed between traced passes")
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1e3, "ms")
    for theorem in spans.THEOREMS:
        metrics[f"cli.check.{theorem}.ms"] = (totals.get(f"cli.check.{theorem}", (0, 0.0, 0.0))[2] * 1e3, "ms")
    metrics["cli.parse.ms"] = (totals.get("cli.parse", (0, 0.0, 0.0))[2] * 1e3, "ms")
    grew = tracer.add_grew / tracer.add_calls if tracer.add_calls else 0.0
    metrics["exact_linalg.IntEchelon.add.grew_frac"] = (grew, "fraction")
    pools = tracer.pool_sizes
    metrics["ncrank._candidate_subspaces.pool_size"] = (statistics.mean(pools) if pools else 0.0, "count")
    overhead = 100.0 * (traced[-1] / sum(base) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"traced passes: {len(traced)}; untraced pass {sum(base):.3f} s, traced pass {traced[-1]:.3f} s "
          f"(calibrated); tracing overhead {overhead:.1f}%; {len(tracer.name_idx)} spans per pass")
    metrics = {name: metrics[name] for name, _ in spans.metric_units()}
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tracer.write(out_path, {"workload": workload, "seed": seed, "checks": [inst.ident for inst in client.insts]})
    print(f"spans written to {os.path.relpath(out_path)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "linminmax", "cli.py")):
        print(f"no linminmax sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from linminmax import cli

    workdir = os.path.join(root, ".certbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        cal = calib.Calibrator()
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = (measure_setup(root, src, cal), "s")
        insts = corpus.WORKLOADS[args.workload](args.seed)
        client = Client(cli, insts, workdir)
        if args.trace:
            out_path = os.path.join(root, ".certbench_out", f"spans-{args.workload}.jsonl.gz")
            metrics.update(traced_run(client, cal, args.seconds, cli, out_path, args.workload, args.seed))
        else:
            metrics.update(timed_run(client, cal, args.seconds))
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        rejected = checks.self_test(client.samples)
    except checks.CheckFailed as ex:
        client.errors.append(f"self-test: {ex}")
        rejected = 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    for err in client.errors:
        print(f"WRONG: {err}", file=sys.stderr)
    print(f"attempted {client.attempted} checks, {client.failed} failed (exit code not 0); "
          f"{len(client.errors)} wrong reports; self-test rejected {rejected} mutated certificates")
    print(f"reference loop: median {cal.raw_loop_s() * 1e3:.4f} ms raw, nominal {calib.NOMINAL_S * 1e3:.4f} ms")
    correct = not client.errors
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
