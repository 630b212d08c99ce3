#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of twistor4.

    python3 perfbench/run.py --workload grid-export --seed 1 --seconds 40 --trace 0

Runs one workload in this process, on one thread, for about --seconds
seconds of whole rounds, checks every operation's output, and prints one
JSON object as the last line of standard output.  With --trace 0 it holds
the end-to-end metrics; with --trace 1 rounds alternate untraced and traced,
and it holds the per-layer metrics plus the tracing overhead.  See
perfbench/README.md.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy can be imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("grid-export", "classify", "analyze-points")
GRID_N = 31
CLASSIFY_N = 31
POINTS_PER_SURFACE = 16
# Fixed per workload so that it names the same rank of every run's sorted
# operations; each has at least ten operations beyond it in a run.
TAIL_PERCENTILE = {"grid-export": 85, "classify": 60, "analyze-points": 95}
SETUP_REPEATS = 7
SETUP_REF_UNITS = 25
REF_SHARE = 0.1         # reference time per chunk, as a share of the chunk
MIN_REF_UNITS = 3
MIN_WINDOW_UNITS = 24   # reference units that calibrate one operation
MODULES = ("twistor4", "twistor4.cli", "twistor4.geometry", "twistor4.twistor")


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import twistor4 from this checkout's src/, never from elsewhere."""
    init = SRC / "twistor4" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"{init} not found; run from a twistor4 checkout")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(name) for name in MODULES}
    if Path(mods["twistor4"].__file__).resolve() != init.resolve():
        raise ProgramMissing(f"twistor4 imported from {mods['twistor4'].__file__}")
    return mods


# --- workloads ------------------------------------------------------------------

class Workload:
    """A round of chunks of operations; a reference sample follows each chunk."""

    def __init__(self, name, seed, mods, tmp):
        self.name, self.tw = name, mods["twistor4"]
        self.cli = mods["twistor4.cli"]
        self.tmp = tmp
        import surfaces
        tw = self.tw
        if name == "classify":
            cases = surfaces.classify_cases(seed)
        else:
            cases = surfaces.export_cases(seed)
        parsed = [tw.get_surface(c.catalog) if c.catalog else
                  tw.parse_surface(c.text, name=c.label, domain=c.domain)
                  for c in cases]
        if name == "grid-export":
            self.round = [[(c, fmt)] for c in cases for fmt in ("json", "csv")]
        elif name == "classify":
            self.round = [[c] for c in cases]
        else:
            self.round = [
                [(c, s, u, v) for u, v in surfaces.random_points(
                    seed, i, c.domain, POINTS_PER_SURFACE)]
                for i, (c, s) in enumerate(zip(cases, parsed))]
        self.labels = list(dict.fromkeys(
            self.label(op) for chunk in self.round for op in chunk))
        # grid points built, or points analysed, per operation
        self.points = {"grid-export": GRID_N ** 2,
                       "classify": 2 * CLASSIFY_N ** 2 + (2 * CLASSIFY_N - 1) ** 2,
                       "analyze-points": 1}[name]

    def _cli(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:      # argparse refusing the arguments
            return exc.code if isinstance(exc.code, int) else 2

    def execute(self, op):
        """The timed part: returns (exit code, output handle)."""
        if self.name == "grid-export":
            case, fmt = op
            path = self.tmp / f"grid.{fmt}"
            rc = self._cli(["grid", *case.cli_args(), "--n", str(GRID_N),
                            "--format", fmt, "--out", str(path)])
            return rc, (path,)
        if self.name == "classify":
            n = str(CLASSIFY_N)
            iso, res = self.tmp / "isotropy.json", self.tmp / "residuals.json"
            rc = self._cli(["isotropy", *op.cli_args(), "--n", n, "--json",
                            "--out", str(iso)])
            if rc == 0:
                rc = self._cli(["residuals", *op.cli_args(), "--n", n,
                                "--json", "--out", str(res)])
            return rc, (iso, res)
        case, surface, u, v = op
        tw = self.tw
        pd = tw.surface_point_data(surface, u, v)
        lp = tw.gauss_map(pd)
        s1, s2 = tw.gauss_weingarten_matrices(pd)
        return 0, (pd, lp, s1, s2)

    def label(self, op):
        if self.name == "grid-export":
            return f"{op[0].label}.{op[1]}"
        return op.label if self.name == "classify" else op[0].label

    def check(self, op, output):
        """Untimed: raises checks.CheckFailed; returns bytes written."""
        import checks
        if self.name == "grid-export":
            case, fmt = op
            (path,) = output
            text = path.read_text(encoding="utf-8")
            if fmt == "json":
                checks.check_grid_json(case, GRID_N, text)
            else:
                checks.check_grid_csv(case, GRID_N, text)
            return len(text.encode())
        if self.name == "classify":
            iso, res = (p.read_text(encoding="utf-8") for p in output)
            checks.check_isotropy_json(op, CLASSIFY_N, iso)
            checks.check_residuals_json(op, CLASSIFY_N, res)
            return len(iso.encode()) + len(res.encode())
        checks.check_point(op[0], checks.point_output(*output))
        return 0


# --- measurement ----------------------------------------------------------------

class Ops:
    """Per-operation columns in flat arrays.  Bookkeeping then adds about 40
    bytes per operation, so peak RSS hardly depends on how many operations
    fit in a run."""

    def __init__(self):
        self.round, self.ref, self.label = array("H"), array("I"), array("H")
        self.raw_s, self.cal_s, self.bytes = array("d"), array("d"), array("Q")
        self.traced, self.failed, self.wrong = bytearray(), bytearray(), bytearray()

    def __len__(self):
        return len(self.raw_s)

    def where(self, traced=False):
        """Indices of the operations that did not fail, traced or untraced."""
        return [i for i in range(len(self))
                if not self.failed[i] and self.traced[i] == traced]


def measure(work, seconds, tracer=None):
    """Whole rounds until the next one would end after `seconds`.  With a
    tracer, odd rounds are traced (and at least two rounds are made).

    A reference sample follows every chunk, REF_SHARE as long as the chunk
    (at least MIN_REF_UNITS units); refs holds [units, seconds per part] per
    sample, flattened.
    """
    from reference import PARTS, time_reference
    width = 1 + len(PARTS)

    def sample(units):
        refs.extend([units, *time_reference(units)])

    ops, refs, errors = Ops(), array("d"), []
    sample(MIN_REF_UNITS)
    start = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for chunk in work.round:
            c0 = time.perf_counter()
            for op in chunk:
                op_id = len(ops)
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracer.operation(op_id):
                            rc, output = work.execute(op)
                    else:
                        rc, output = work.execute(op)
                except Exception as exc:  # noqa: BLE001 -- counted as failed
                    rc, output = repr(exc), None
                ops.raw_s.append(time.perf_counter() - t0)
                ops.round.append(rounds)
                ops.ref.append(len(refs) // width - 1)
                ops.label.append(work.labels.index(work.label(op)))
                ops.traced.append(traced)
                ops.failed.append(rc != 0)
                written, wrong = 0, False
                if rc != 0:
                    errors.append(f"op {op_id}: exit {rc}")
                else:
                    try:
                        written = work.check(op, output)
                    except Exception as exc:  # noqa: BLE001 -- a wrong output
                        wrong = True
                        errors.append(f"op {op_id}: {exc}")
                ops.bytes.append(written)
                ops.wrong.append(wrong)
            last = refs[-width:]
            unit_s = sum(last[1:]) / last[0]
            chunk_s = time.perf_counter() - c0
            sample(max(MIN_REF_UNITS, round(REF_SHARE * chunk_s / unit_s)))
        if traced:
            tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - r0
        if elapsed + last > seconds and (tracer is None or rounds >= 2):
            break
    samples = [refs[k:k + width].tolist() for k in range(0, len(refs), width)]
    return ops, samples, errors


def calibrate(ops, refs):
    """Set each operation's calibrated time: its raw time times the nominal
    unit time over the unit time measured by the reference samples just
    before and after its chunk, widened to at least MIN_WINDOW_UNITS units."""
    from reference import NOMINAL_UNIT_MS
    factors = {}
    for i, j in enumerate(ops.ref):
        if j not in factors:
            lo, hi = j, j + 1
            while (sum(r[0] for r in refs[lo:hi + 1]) < MIN_WINDOW_UNITS
                   and (lo > 0 or hi < len(refs) - 1)):
                lo, hi = max(0, lo - 1), min(len(refs) - 1, hi + 1)
            window = refs[lo:hi + 1]
            units = sum(r[0] for r in window)
            factors[j] = NOMINAL_UNIT_MS * 1e-3 * units / sum(
                sum(r[1:]) for r in window)
        ops.cal_s.append(ops.raw_s[i] * factors[j])


def _rank_value(values, pct):
    """Nearest-rank percentile of values."""
    xs = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[k - 1], len(xs) - k


def end_to_end(times_s, points_per_op, workload):
    ms = [t * 1e3 for t in times_s]
    tail, beyond = _rank_value(ms, TAIL_PERCENTILE[workload])
    return {
        "points_per_s": len(ms) * points_per_op / (sum(ms) / 1e3),
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": tail,
    }, beyond


PER_LAYER_SPANS = {
    "geometry.FieldGrid_ms": "geometry.FieldGrid",
    "geometry.structure_residuals_ms": "geometry.structure_residuals",
    "geometry.surface_point_data_ms": "geometry.surface_point_data",
    "geometry.normal_connection_ms": "geometry.normal_connection",
    "geometry.gauss_weingarten_matrices_ms": "geometry.gauss_weingarten_matrices",
    "surface_expr.parse_surface_op_ms": "surface_expr.parse_surface",
    "surface_expr.eval_surface_jet_ms": "surface_expr.eval_surface_jet",
    "twistor.isotropy_report_ms": "twistor.isotropy_report",
    "twistor.chart_residuals_ms": "twistor.chart_residuals",
    "twistor.lift_agreement_residual_ms": "twistor.lift_agreement_residual",
    "twistor.lift_gradient_sups_ms": "twistor.lift_gradient_sups",
    "twistor.gauss_map_ms": "twistor.gauss_map",
    "complex_structures.classify_ocs_ms": "complex_structures.classify_ocs",
}


def per_layer(work, ops, tracer, setup_parse_s):
    from tracing import ROOT
    traced = ops.where(traced=True)
    n = len(traced)
    # Layer times are calibrated like the operation that contains them.
    total, calls = tracer.self_times(
        {i: ops.cal_s[i] / ops.raw_s[i] for i in traced})
    is_cli = work.name != "analyze-points"
    out = {name: 1e3 * total[span] / n for name, span in PER_LAYER_SPANS.items()}
    out.update({
        "cli.self_ms": 1e3 * total[ROOT] / n if is_cli else 0.0,
        "cli.bytes_written": sum(ops.bytes[i] for i in traced) / n,
        "geometry.FieldGrid_calls": calls["geometry.FieldGrid"] / n,
        "surface_expr.parse_surface_ms": 1e3 * setup_parse_s,
        "surface_expr.jets_per_point":
            calls["surface_expr.eval_surface_jet"] / (n * work.points),
        "twistor.lift_sphere_fields_calls":
            calls["twistor.lift_sphere_fields"] / n,
        "twistor.chart_calls": tracer.counts["twistor.chart"] / n,
    })
    on = statistics.fmean(ops.cal_s[i] for i in traced)
    off = statistics.fmean(ops.cal_s[i] for i in ops.where(traced=False))
    out["trace.overhead_ms"] = 1e3 * (on - off)
    out["trace.overhead_pct"] = 100.0 * (on - off) / off
    return out


def peak_anon_mb():
    """Peak resident size less the file-backed part (shared libraries), and
    ru_maxrss.  Library pages are resident or not depending on the machine's
    page cache, which moved ru_maxrss by up to 10 MB between identical runs."""
    status = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            status[key] = value.split()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "VmHWM" not in status or "RssFile" not in status:
        return maxrss, maxrss
    return (int(status["VmHWM"][0]) - int(status["RssFile"][0])) / 1024.0, maxrss


def _by_label(work, ops, indices):
    by = {}
    for i in indices:
        by.setdefault(work.labels[ops.label[i]], []).append(1e3 * ops.cal_s[i])
    return {k: statistics.median(v) for k, v in by.items()}


UNITS = {"points_per_s": "points/s", "latency_p50_ms": "ms",
         "latency_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name == "cli.bytes_written":
        return "B"
    return "count"


# --- set-up -----------------------------------------------------------------------

def setup_probe(workload, seed):
    """Time importing twistor4 and building the inputs in a fresh process."""
    t0 = time.perf_counter()
    mods = import_program()
    sys.path.insert(0, str(HERE))
    Workload(workload, seed, mods, OUT)
    print(time.perf_counter() - t0)


def setup_seconds(workload, seed):
    """Median calibrated set-up time of SETUP_REPEATS fresh processes, each
    between two reference samples; also the raw times."""
    from reference import NOMINAL_UNIT_MS, time_reference
    raw, cal = [], []
    for _ in range(SETUP_REPEATS):
        before = sum(time_reference(SETUP_REF_UNITS))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        after = sum(time_reference(SETUP_REF_UNITS))
        t = float(proc.stdout.strip().splitlines()[-1])
        raw.append(t)
        cal.append(t * NOMINAL_UNIT_MS * 1e-3 * 2 * SETUP_REF_UNITS
                   / (before + after))
    return statistics.median(cal), statistics.median(raw), raw


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        mods = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    setup_s, setup_raw, setup_all = setup_seconds(args.workload, args.seed)
    from tracing import Tracer
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(mods) if args.trace else None
    setup_parse_s = 0.0
    if tracer:
        tracer.install()
        with tracer.operation("setup"):
            work = Workload(args.workload, args.seed, mods, tmp)
        tracer.uninstall()
        setup_parse_s = tracer.self_times({"setup": 1.0})[0]["surface_expr.parse_surface"]
    else:
        work = Workload(args.workload, args.seed, mods, tmp)

    ops, refs, errors = measure(work, args.seconds, tracer)
    for path in tmp.iterdir():
        path.unlink()
    tmp.rmdir()
    calibrate(ops, refs)
    failed = sum(ops.failed)
    correct = not any(ops.wrong)
    ok = ops.where(traced=False)
    raw, beyond = end_to_end([ops.raw_s[i] for i in ok], work.points,
                             args.workload)
    cal, _ = end_to_end([ops.cal_s[i] for i in ok], work.points, args.workload)
    peak, maxrss = peak_anon_mb()
    if args.trace:
        metrics = per_layer(work, ops, tracer, setup_parse_s)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = dict(cal, peak_rss_mb=peak, setup_s=setup_s)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": 1 + max(ops.round),
        "operations": len(ops),
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "operations_beyond_tail": beyond,
        "raw": dict(raw, peak_rss_mb=peak, setup_s=setup_raw),
        "setup_samples_s": setup_all,
        "ru_maxrss_mb": maxrss,
        "reference_unit_ms": 1e3 * statistics.median(
            sum(r[1:]) / r[0] for r in refs),
        "p50_ms_by_input": _by_label(work, ops, ok),
        "errors": errors[:20],
    }
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    detail = dict(info, refs=refs, labels=work.labels,
                  ops=[list(x) for x in zip(ops.ref, ops.raw_s, ops.label,
                                             ops.traced)])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(result, info=detail)) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
