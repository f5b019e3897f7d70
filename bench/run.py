"""opfield benchmark: seeded call-mix workloads, end-to-end and per layer.

    python3 bench/run.py --workload jets_q --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --out results.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl

A run is a single-threaded closed loop: one caller makes each call only after
the previous one returns. A call is one in-process opfield.cli.main(argv) with
stdout captured, except extend_separable, which has no CLI and is called as a
library function. The workload's batch of calls is repeated for about
--seconds, each batch in a fresh worker process. The host's speed drifts, so
every timed call and interpreter start is scaled to a fixed host speed by a
reference kernel timed just before and after it (refspeed.py).
wall_scaled_s is the median scaled batch time, the scaled call percentiles
pool every untraced call of the run and peak_rss_mb is the median peak of the
workers. setup_s is the median scaled time for a fresh interpreter to import
opfield.cli. Each worker checks its outputs after its timed batch. With
--trace 1 the run alternates untraced batches with batches under the layer
tracer and reports the per-layer metrics instead.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracles
import refspeed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SPAWNS = 9  # fresh interpreters timed per run, after one warm-up


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Median scaled wall time of a fresh interpreter importing opfield.cli."""
    argv = [sys.executable, "-c", "import opfield.cli"]
    subprocess.run(argv, cwd=ROOT, env=_env(), check=True)  # writes the bytecode cache
    times = []
    before = refspeed.sample()
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=_env(), check=True)
        elapsed = perf_counter() - start
        after = refspeed.sample()
        times.append(refspeed.scaled(elapsed, before, after))
        before = after
    return statistics.median(times)


def prepare(calls) -> dict:
    """Fresh library-call arguments for one batch, built outside its timing."""
    from opfield.polynomials import parse_frac
    from opfield.specs import load_dfield

    prepared = {}
    for call in calls:
        if call.library:
            lib = call.library
            field = load_dfield(lib["field"])
            aring = field.adjunction_ring(lib["name"])
            a = aring.var(0)
            f = aring.zero
            for degree, text in lib["coeffs"].items():
                f = f + aring.const(parse_frac(field.ring, text)) * a**degree
            prepared[call.label] = (field, f)
    return prepared


def invoke(call, prepared: dict):
    """(exit code or exception text, stdout or returned values) of one call."""
    from opfield import cli, dfields

    if call.library:
        field, f = prepared[call.label]
        try:
            return 0, dfields.extend_separable(field, call.library["name"], f)
        except Exception as e:  # a raising call is a failed call, not a crash
            return f"raised {type(e).__name__}: {e}", None
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(call.argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a traceback for the user; counted as a failure
        code = f"raised {type(e).__name__}: {e}"
    return code, out.getvalue()


def run_batch(calls, tracer: Tracer | None = None):
    prepared = prepare(calls)
    if tracer is not None:
        tracer.install()
    latencies, results, refs = [], [], [refspeed.sample()]
    try:
        for k, call in enumerate(calls):
            t0 = perf_counter()
            if tracer is None:
                results.append(invoke(call, prepared))
            else:
                tracer.call = k
                idx = tracer.open("cli.main")
                try:
                    results.append(invoke(call, prepared))
                finally:
                    tracer.close(idx)
            latencies.append(perf_counter() - t0)
            refs.append(refspeed.sample())
    finally:
        if tracer is not None:
            tracer.remove()
    scaled = [refspeed.scaled(t, refs[k], refs[k + 1]) for k, t in enumerate(latencies)]
    return latencies, scaled, refs, results, prepared


def check_outputs(calls, results, prepared) -> list[str]:
    """Oracle verdicts on one batch's outputs, one line per wrong call."""
    failures = []
    for call, (code, out) in zip(calls, results):
        if call.library:
            reason = f"exit {code}" if code != 0 else oracles.check_extend(prepared[call.label], out)
        else:
            reason = oracles.check_cli(call, code, out)
        if reason is not None:
            failures.append(f"{call.label}: {reason}")
    return failures


def run_worker(args) -> int:
    """One batch in this fresh process; the measurements go to --result."""
    sys.path.insert(0, str(SRC))
    with open(args.worker, "rb") as fh:
        calls = pickle.load(fh)  # written by the parent run of this benchmark
    tracer = Tracer() if args.trace else None
    latencies, scaled, refs, results, prepared = run_batch(calls, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "wall": sum(latencies), "latencies": latencies,
        "wall_scaled": sum(scaled), "scaled": scaled,
        "slowdown": statistics.median(refs) / refspeed.NOMINAL_S, "peak_rss_mb": peak_rss_mb,
        "failures": check_outputs(calls, results, prepared),
        "digest": hashlib.sha256(repr([(code, str(out)) for code, out in results]).encode()).hexdigest(),
        "layers": tracer.metrics() if tracer else None,
    }
    if tracer:
        tracer.write(Path(args.worker).parent / "spans.jsonl")
    Path(args.result).write_text(json.dumps(result))
    return 0


def spawn_batch(calls_file: Path, trace: int) -> dict:
    result = calls_file.parent / "batch.json"
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", str(calls_file),
                    "--trace", str(trace), "--result", str(result)], cwd=ROOT, check=True)
    return json.loads(result.read_text())


def run_bad_inputs(workdir: Path) -> tuple[int, list[str]]:
    """Malformed inputs whose documented outcome is exit 2 (PARSE_ERROR)."""
    failures = []
    probes = workloads.bad_inputs(workdir)
    for label, argv, env in probes:
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        try:
            code, _ = invoke(workloads.Call(label, argv), {})
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        if code != 2:
            failures.append(f"{label}: exit {code!r}, want 2")
    return len(probes), failures


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def shares(calls) -> dict:
    n = len(calls)
    return {flag: sum(getattr(c, flag) for c in calls) / n for flag in ("gens", "groebner", "hs")}


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import opfield

    if Path(opfield.__file__).resolve().parent != SRC / "opfield":
        print(f"opfield imported from {opfield.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    calls = workloads.WORKLOADS[args.workload](workdir, args.seed)
    calls_file = workdir / "calls.pickle"
    with open(calls_file, "wb") as fh:
        pickle.dump(calls, fh)
    setup_s = measure_setup()

    # Each batch runs in a fresh process: on a shared host a process tends to
    # keep the speed it starts with, and one process per run would carry it
    # into every batch. Whole batches run until the next one would end more
    # than half a batch past --seconds. A traced run alternates untraced and
    # traced batches, so both see the same machine conditions.
    untraced, traced = [], []
    start = perf_counter()
    while True:
        untraced.append(spawn_batch(calls_file, 0))
        if args.trace:
            traced.append(spawn_batch(calls_file, 1))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(untraced) / 2 >= args.seconds:
            break

    batches = untraced + traced
    failures = sorted({line for b in batches for line in b["failures"]})
    failed = sum(len(b["failures"]) for b in batches)
    if len({b["digest"] for b in batches}) > 1:
        failures.append("outputs differ between batches")
        failed += 1
    attempted = len(calls) * len(batches)
    bad_total, bad_failures = run_bad_inputs(workdir)
    latencies = [x for b in untraced for x in b["latencies"]]
    scaled = [x for b in untraced for x in b["scaled"]]
    wall_scaled_s = statistics.median(b["wall_scaled"] for b in untraced)
    metrics = {
        "wall_scaled_s": (wall_scaled_s, "s"),
        "call_p50_scaled_ms": (percentile(scaled, 50) * 1000, "ms"),
        "call_p90_scaled_ms": (percentile(scaled, 90) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in untraced), "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw = {
        "wall_s": statistics.median(b["wall"] for b in untraced),
        "call_p50_ms": percentile(latencies, 50) * 1000,
        "call_p90_ms": percentile(latencies, 90) * 1000,
        "host_slowdown": statistics.median(b["slowdown"] for b in untraced),
    }
    if args.trace:
        metrics = layer_metrics(traced, wall_scaled_s, len(bad_failures))

    by_label: dict = {}
    for b in untraced:
        for call, t in zip(calls, b["latencies"]):
            by_label.setdefault(call.label, []).append(t * 1000)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "batches": len(untraced), "traced_batches": len(traced), "calls_per_batch": len(calls),
        "batch_s": [b["wall"] for b in untraced], "traced_batch_s": [b["wall"] for b in traced],
        "batch_scaled_s": [b["wall_scaled"] for b in untraced],
        "metrics": {k: v for k, (v, _) in metrics.items()}, "raw": raw,
        "fail_ratio": failed / attempted, "failures": failures,
        "bad_input_fail_ratio": len(bad_failures) / bad_total, "bad_input_failures": bad_failures,
        "shares": shares(calls),
        "label_ms": {k: statistics.median(v) for k, v in by_label.items()},
    }
    print_summary(record, metrics, len(latencies))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(traced, untraced_wall: float, bad_failed: int) -> dict:
    """Per-layer metrics; times are scaled by their batch's host slowdown."""
    per_batch = [b["layers"] for b in traced]
    out = {}
    for name, (value, unit) in per_batch[0].items():
        values = [m[name][0] for m in per_batch]
        if unit == "s":
            value = statistics.median(m[name][0] * b["wall_scaled"] / b["wall"]
                                      for m, b in zip(per_batch, traced))
        elif any(v != value for v in values):
            print(f"warning: {name} differs between traced batches: {values}", file=sys.stderr)
        out[name] = (value, unit)
    traced_wall = statistics.median(b["wall_scaled"] for b in traced)
    out["cli.bad_input_failed"] = (bad_failed, "count")
    out["trace.wall_scaled_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def print_summary(record: dict, metrics: dict, n_calls: int) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  closed loop, 1 caller, "
          f"{record['batches']} untraced + {record['traced_batches']} traced batches "
          f"of {record['calls_per_batch']} calls")
    for name, (value, unit) in metrics.items():
        note = {"wall_scaled_s": "median batch", "call_p50_scaled_ms": f"n={n_calls}",
                "call_p90_scaled_ms": f"n={n_calls}",
                "setup_s": f"median of {SETUP_SPAWNS} fresh interpreters"}.get(name, "")
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    raw = record["raw"]
    print(f"  unscaled: wall_s {raw['wall_s']:.6g} s, call_p50_ms {raw['call_p50_ms']:.6g} ms, "
          f"call_p90_ms {raw['call_p90_ms']:.6g} ms; host ran {raw['host_slowdown']:.3g}x "
          "slower than the reference speed")
    print(f"  {'fail_ratio':34s} {record['fail_ratio']:14.6g} ratio  valid calls, outputs checked")
    print(f"  {'bad_input_fail_ratio':34s} {record['bad_input_fail_ratio']:14.6g} ratio  "
          "malformed inputs not answered with exit 2")
    s = record["shares"]
    print(f"  shares of calls: base-field generators {s['gens']:.2f}, Groebner {s['groebner']:.2f}, "
          f"HS / char p {s['hs']:.2f}")
    fixtures = {k: v for k, v in record["label_ms"].items() if k.startswith("fixture")}
    for label, ms in sorted(fixtures.items()):
        print(f"  {label:52s} {ms:10.1f} ms")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    for line in record["bad_input_failures"]:
        print(f"  bad input not answered with exit 2: {line}")


# ---------------------------------------------------------------------------
# all workloads in one command, and comparing two result sets
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    rows = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[name] = dict(result["metrics"], fail_ratio={"value": result["failed"] / result["attempted"],
                                                         "unit": "ratio"})
    names = list(next(iter(rows.values())))
    print(f"\n{'metric':34s}" + "".join(f"{w:>14s}" for w in rows) + "  unit")
    for metric in names:
        print(f"{metric:34s}" + "".join(f"{rows[w][metric]['value']:14.6g}" for w in rows)
              + f"  {rows[next(iter(rows))][metric]['unit']}")
    return 0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = []
    for path in (path_a, path_b):
        groups: dict = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
        sides.append(groups)
    a, b = sides
    print(f"A = {path_a}\nB = {path_b}")
    for (workload, trace) in sorted(set(a) & set(b)):
        ra, rb = a[(workload, trace)], b[(workload, trace)]
        print(f"\n{workload} ({'traced' if trace else 'untraced'}): {len(ra)} runs in A, {len(rb)} in B")
        for metric in ra[0]["metrics"]:
            va = [r["metrics"][metric] for r in ra]
            vb = [r["metrics"][metric] for r in rb]
            qa, qb = _quartiles(va), _quartiles(vb)
            line = (f"  {metric:34s} A {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                    f"  B {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]")
            if metric in bounds and not trace:
                bound = bounds[metric]["bound"]
                sign = 1 if bounds[metric]["better"] == "lower" else -1
                worse = sign * (qb[1] - qa[1]) / qa[1]
                spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
                if worse > bound:
                    verdict = "REGRESSION"
                elif spread <= bound:
                    verdict = "within bound"
                elif all(sign * (x - y) < 0 for x in vb for y in va):
                    verdict = "better in every run"
                else:
                    verdict = "unresolved"
                line += f"  {worse:+.1%} vs bound {bound:.0%}: {verdict}"
            else:
                line += f"  delta {qb[1] - qa[1]:+.6g}"
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    parser.add_argument("--worker", help=argparse.SUPPRESS)  # run one batch of this pickled call list
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.worker:
        return run_worker(args)
    if not (SRC / "opfield" / "cli.py").is_file():
        print(f"no opfield sources under {SRC}", file=sys.stderr)
        return 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.out:
        args.out = str(Path(args.out).resolve())
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
