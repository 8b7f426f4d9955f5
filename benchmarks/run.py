"""End-to-end and per-layer benchmark of the involution-forge CLI.

    python3 benchmarks/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client runs ops one at a time in a
closed loop; every op is a fresh interpreter calling
``involution_forge.cli.main`` on one spec (see op.py), because that is what a
CLI user pays: interpreter start, ``import involution_forge`` (which pulls in
jsonschema) and ``parse_spec`` on every call, and no cache kept across calls.

Every op is checked: exit code and verdict lines against references known
independently of the program, and, for the bundled specs, stdout byte for
byte against golden.json (a regression reference captured from the engine,
not ground truth).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
bounded timings are in units of reference.py's run time (see end_to_end).
A full
record, with machine facts and, when traced, every span, is written to
``.bench_out/``.
"""

from __future__ import annotations

from time import perf_counter

DRIVER_START = perf_counter()

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
DATA = SRC / "involution_forge" / "data"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden.json"

WORKLOADS = ("cli-cold", "reject-sigma", "certify-scaled")
BUNDLED = ("lagrange_top", "toda_first", "toda_second")
COMMANDS = ("check", "pencil", "bracket", "solve-ansatz", "report")
BRACKET_PAIRS = {
    "lagrange_top": "f1,f3",
    "toda_first": "f0,f2",
    "toda_second": "f1,f2",
}

# The CLI seed is the workload seed folded onto the seeds golden.json holds.
GOLDEN_SEEDS = 8
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
# No op may take longer; a run stops issuing ops once HARD_LIMIT_S is near.
OP_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0
# Reference time between two timed ops, as a share of the op before.
REFERENCE_SHARE = 0.1

# Verdict labels each certificate must carry, all PASS.  They follow from
# the partition of each spec: one casimir[F^i] per Casimir polynomial and one
# link per consecutive pair within a chain.
REPORT_LABELS = {
    "lagrange_top": (
        "jacobi[Pi0]", "jacobi[Pi1]", "jacobi[pencil]", "casimir[F^1]",
        "casimir[F^2]", "involution[family]", "compatibility[Pi0,Pi1]",
        "chain[1].link[1]", "chain[2].link[1]", "rank[sampled]=2r",
        "rank[bound]<=2r", "det[F^2]", "closed-form[coordinates]",
    ),
    "toda_first": (
        "jacobi[Pi0]", "jacobi[Pi1]", "jacobi[pencil]", "casimir[F^1]",
        "involution[family]", "compatibility[Pi0,Pi1]", "chain[1].link[1]",
        "chain[1].link[2]", "rank[sampled]=2r", "rank[bound]<=2r",
        "det[F^2]", "closed-form[coordinates]",
    ),
}
REPORT_LABELS["toda_second"] = REPORT_LABELS["toda_first"]

# the bundled fixture each generated spec was made from (make_specs.py)
DERIVED_FROM = {"reject_sigma": "lagrange_top", "certify_scaled": "toda_first"}

# sigma1 = ansatz at l3=1, m3=2, k34=0 satisfies the recursion relations but
# not the quadratic sigma condition (tests/test_pencil.py:
# test_free_unknown_scope), so assembly must stop there.
REJECT_STDOUT = (
    "error: ConditionFailed: sigma conditions: delta(sigma1^sigma1) = "
    "2 sigma1^delta(sigma1) does not hold\n"
)

# per-layer metric -> the span names whose self time it sums
SELF_TIME_METRICS = {
    "cli.load_payload_s": ("cli.load_payload",),
    "cli.parse_spec_s": ("cli.parse_spec",),
    "cli.elaborate_s": ("cli.elaborate", "cli.elaborate_ansatz"),
    "anchor.build_s": ("cli.build_anchor",),
    "cli.render_s": ("cli.run",),
    "pencil.assemble_pencil_s": ("pencil.assemble_pencil",),
    "pencil.sigma_pair_invariants_s": ("pencil.sigma_pair_invariants",),
    "pencil.check_sigma_conditions_s": ("pencil.check_sigma_conditions",),
    "anchor.codifferential_s": ("anchor.codifferential",),
    "pencil.check_recursion_s": ("pencil.check_recursion",),
    "pencil.compute_F_lambda_s": ("pencil.compute_F_lambda",),
    "pencil.solve_recursion_ansatz_s": ("pencil.solve_recursion_ansatz",),
    "linalg.solve_linear_s": ("linalg.solve_linear",),
    "verify.jacobi_check_s": ("verify.jacobi_check",),
    "verify.compatibility_check_s": ("verify.compatibility_check",),
    "verify.casimir_check_s": ("verify.casimir_check",),
    "verify.involution_table_s": ("verify.involution_table",),
    "verify.lenard_magri_check_s": ("verify.lenard_magri_check",),
    "verify.rank_at_sample_s": ("verify.rank_at_sample",),
    "verify.certify_self_s": ("verify.certify",),
    "exterior.schouten_s": ("exterior.schouten",),
    "linalg.det_s": ("linalg.det",),
}


@dataclass(frozen=True)
class Op:
    command: str
    spec: str
    path: Path

    def argv(self, cli_seed: int) -> list:
        args = [self.command, str(self.path), "--seed", str(cli_seed)]
        if self.command == "bracket":
            args += ["--pair", BRACKET_PAIRS[self.spec]]
        return args

    @property
    def key(self) -> str:
        return f"{self.command} {self.spec}"


def workload_ops(workload: str, seed: int) -> list:
    """One round of the workload, in the order the seed gives."""
    if workload == "cli-cold":
        ops = [Op(command, spec, DATA / f"{spec}.json")
               for spec in BUNDLED for command in COMMANDS]
        Random(seed).shuffle(ops)
        return ops
    if workload == "reject-sigma":
        return [Op("report", "reject_sigma",
                   BENCH_DIR / "specs" / "reject_sigma.json")]
    return [Op("report", "certify_scaled",
               BENCH_DIR / "specs" / "certify_scaled.json")]


# --- the correctness gate ------------------------------------------------------


def load_references(workload: str) -> dict:
    """Frozen fixture facts, and the golden transcript for bundled ops."""
    refs = {"fixtures": {}}
    for spec in BUNDLED:
        payload = json.loads((DATA / f"{spec}.json").read_text("utf-8"))
        refs["fixtures"][spec] = payload
    if workload == "cli-cold":
        refs["golden"] = json.loads(GOLDEN.read_text("utf-8"))["stdout"]
    return refs


def _report_problems(stdout: str, labels, rank: int) -> list:
    lines = stdout.splitlines()
    problems = []
    if "  status = PASS" not in lines:
        problems.append("status is not PASS")
    verdicts = [line.strip() for line in lines
                if line.startswith("    PASS  ") or line.startswith("    FAIL  ")]
    if verdicts != [f"PASS  {label}" for label in labels]:
        problems.append(f"verdicts {verdicts}")
    for name in ("rank[Pi0]", "rank[Pi1]", "rank[pencil]", "expected"):
        if f"    {name} = {rank}" not in lines:
            problems.append(f"{name} is not {rank}")
    return problems


def check_op(op: Op, cli_seed: int, code, stdout: str, refs: dict) -> list:
    """Reasons the op is wrong; empty when it is right."""
    if code is None:
        return ["timed out"]
    if op.key == "report reject_sigma":
        if code != 1 or stdout != REJECT_STDOUT:
            return [f"exit {code}, stdout {stdout[:200]!r}"]
        return []
    # the sheared Toda spec must keep the fixture's verdicts and ranks
    fixture = DERIVED_FROM.get(op.spec, op.spec)
    payload = refs["fixtures"][fixture]
    rank = payload["expected"]["rank"]
    lines = stdout.splitlines()
    problems = []
    expected_code = 0
    if op.command == "solve-ansatz" and "ansatz" not in payload["sigma1"]:
        expected_code = 2
        if lines != ["error: sigma1: sigma1 declares no ansatz"]:
            problems.append("missing the no-ansatz message")
    if code != expected_code:
        problems.append(f"exit {code}, expected {expected_code}")
    if op.command == "check" and lines[-1:] != ["  schema = ok"]:
        problems.append("schema not ok")
    if op.command == "pencil":
        for line in (f"  r = {rank // 2}", f"  k = {len(payload['partition'])}"):
            if line not in lines:
                problems.append(f"missing {line.strip()!r}")
    if op.command == "bracket" and lines[-1:] != ["  status = PASS"]:
        problems.append("bracket status is not PASS")
    if op.command == "report":
        problems += _report_problems(stdout, REPORT_LABELS[fixture], rank)
    if op.spec in BUNDLED and "golden" in refs:
        golden = refs["golden"].get(f"{op.key} {cli_seed}")
        if stdout != golden:
            problems.append("stdout differs from golden.json")
    return problems


# --- running ops ---------------------------------------------------------------


def op_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # a fixed hash seed makes set iteration, and with it the kernel
    # counters, repeat between two runs with one workload seed
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def op_command(op: Op, cli_seed: int, trace_out=None) -> list:
    cmd = [sys.executable, str(BENCH_DIR / "op.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    return cmd + op.argv(cli_seed)


class Runner:
    """Spawns ops, times them and applies the gate; counts every op."""

    def __init__(self, seed: int):
        self.cli_seed = seed % GOLDEN_SEEDS
        self.env = op_env(seed)
        self.refs = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def time_left(self) -> float:
        return HARD_LIMIT_S - (perf_counter() - DRIVER_START)

    def fail(self, op: Op, problems: list) -> None:
        self.failed += 1
        self.failures.append({"op": op.key, "problems": problems})

    def run(self, op: Op, trace_out=None) -> float:
        """Wall seconds from spawn until exit with all stdout read."""
        cmd = op_command(op, self.cli_seed, trace_out)
        timeout = min(OP_TIMEOUT_S, max(self.time_left(), 1.0))
        self.attempted += 1
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  timeout=timeout)
            code, stdout = proc.returncode, proc.stdout.decode("utf-8")
        except subprocess.TimeoutExpired:
            code, stdout = None, ""
        elapsed = perf_counter() - start
        problems = check_op(op, self.cli_seed, code, stdout, self.refs)
        if problems:
            self.fail(op, problems)
        return elapsed


def set_up(workload: str, seed: int, ops: list):
    """Load inputs and references, then one untimed warm-up op; repeated,
    and the median taken.  The first set-up is timed from driver start.

    The warm-up is ``check`` on the first op's spec: it starts the
    interpreter, imports the package (compiling bytecode on a first run) and
    reads and parses the spec, which is all an op can leave warm behind it;
    the op itself would only add the kernel work the timed loop measures."""
    runner = Runner(seed)
    warm_up = Op("check", ops[0].spec, ops[0].path)
    times = []
    start = DRIVER_START
    for _ in range(SETUP_REPEATS):
        runner.refs = load_references(workload)
        runner.run(warm_up)
        times.append(perf_counter() - start)
        start = perf_counter()
    return runner, statistics.median(times)


def timed_rounds(runner: Runner, ops: list, seconds: float, each) -> int:
    """Whole rounds of ``ops`` until ``seconds`` have passed (at least one
    round), so every run covers the same mix; returns the round count."""
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        if runner.time_left() < OP_TIMEOUT_S:
            break
        for op in ops:
            each(op)
        rounds += 1
    return rounds


# --- metrics -------------------------------------------------------------------


def reference_run(runner: Runner) -> float:
    """Wall seconds of one run of reference.py, spawned like an op."""
    start = perf_counter()
    # capture_output: the pipe closing marks the exit; a bare wait with a
    # timeout polls in steps of up to 50 ms, too coarse for a 0.3 s run
    subprocess.run([sys.executable, str(BENCH_DIR / "reference.py")],
                   check=True, capture_output=True,
                   timeout=max(runner.time_left(), 1.0))
    return perf_counter() - start


def reference_gap(runner: Runner, last_op_s: float) -> list:
    """Reference runs between two ops: at least one, and enough to add up
    to REFERENCE_SHARE of the op before, so a long op's speed estimate is
    not one short, noisy sample."""
    times = [reference_run(runner)]
    while sum(times) < REFERENCE_SHARE * last_op_s:
        times.append(reference_run(runner))
    return times


def end_to_end(runner: Runner, ops: list, seconds: float, setup_s: float):
    """Reference runs bracket every timed op; the bounded timings are op
    wall time over the mean reference time of the gaps on both sides (unit
    ``ref``), because the host's speed drifts too much between runs for raw
    seconds to compare.  Raw seconds go to the record and summary lines."""
    durations, gaps = [], []

    def each(op):
        gaps.append(reference_gap(runner, durations[-1] if durations else 0))
        durations.append(runner.run(op))

    timed_rounds(runner, ops, seconds, each)
    gaps.append(reference_gap(runner, durations[-1]))
    ratios = [duration / statistics.mean(before + after)
              for duration, before, after in zip(durations, gaps, gaps[1:])]
    references = [t for gap in gaps for t in gap]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_ref": (len(ratios) / sum(ratios), "1/ref"),
        "op_ref.p50": (statistics.median(ratios), "ref"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    detail = {
        "op_samples": len(durations),
        "wall": {"ops_per_s": len(durations) / sum(durations),
                 "op_s.p50": statistics.median(durations),
                 "reference_s.p50": statistics.median(references)},
        "op_s": durations,
        "reference_s": gaps,
    }
    return metrics, detail


def self_times(spans: list) -> dict:
    """Per span name: (total self seconds, total inclusive seconds, calls)."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for pos, (name, _, start, end) in enumerate(spans):
        own, total, calls = out.get(name, (0.0, 0.0, 0))
        out[name] = (own + end - start - child[pos], total + end - start,
                     calls + 1)
    return out


def per_layer(runner: Runner, ops: list, seconds: float):
    """Each op runs untraced, then traced; layer figures are means per op."""
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"op-trace-{os.getpid()}.json"
    plain, traced, records = [], [], []

    def each(op):
        plain.append(runner.run(op))
        traced.append(runner.run(op, trace_out=trace_file))
        try:
            record = json.loads(trace_file.read_text("utf-8"))
        except (OSError, ValueError):
            runner.fail(op, ["no trace written"])
            return
        record["op"] = op.key
        records.append(record)
        trace_file.unlink()

    timed_rounds(runner, ops, seconds, each)
    n = max(len(records), 1)
    totals = {}
    for record in records:
        for name, value in self_times(record["spans"]).items():
            own, total, calls = totals.get(name, (0.0, 0.0, 0))
            totals[name] = (own + value[0], total + value[1], calls + value[2])
    counters = {key: sum(r["counters"][key] for r in records)
                for key in ("rf_constructions", "poly_gcd_calls",
                            "poly_gcd_useful", "poly_gcd_s")}
    max_terms = max((r["counters"]["max_terms"] for r in records), default=0)
    metrics = {
        "import_s": (sum(r["import_s"] for r in records) / n, "s"),
    }
    for metric, names in SELF_TIME_METRICS.items():
        own = sum(totals.get(name, (0.0, 0.0, 0))[0] for name in names)
        metrics[metric] = (own / n, "s")
    metrics["verify.certify_s"] = (
        totals.get("verify.certify", (0.0, 0.0, 0))[1] / n, "s")
    metrics["exterior.schouten.calls"] = (
        totals.get("exterior.schouten", (0.0, 0.0, 0))[2] / n, "count")
    calls = counters["poly_gcd_calls"]
    metrics["symexpr.rf_constructions"] = (
        counters["rf_constructions"] / n, "count")
    metrics["symexpr.poly_gcd.calls"] = (calls / n, "count")
    metrics["symexpr.poly_gcd.useful_ratio"] = (
        counters["poly_gcd_useful"] / calls if calls else 0.0, "ratio")
    metrics["symexpr.poly_gcd_s"] = (counters["poly_gcd_s"] / n, "s")
    metrics["symexpr.max_terms"] = (max_terms, "count")
    metrics["trace.op_s.p50"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    detail = {"traced_ops": len(records), "untraced_ops": len(plain),
              "traces": records}
    return metrics, detail


# --- the generated specs -------------------------------------------------------


def specs_are_current(runner: Runner) -> bool:
    """make_specs.py --check: regenerate both specs, compare byte for byte."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "make_specs.py"), "--check"],
        env=runner.env, capture_output=True,
        timeout=max(runner.time_left(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    return proc.returncode == 0


def machine_facts() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "jsonschema": version("jsonschema"),
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "flint_present": importlib.util.find_spec("flint") is not None,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "involution_forge" / "cli.py").is_file():
        print(f"no involution_forge sources under {SRC}", file=sys.stderr)
        return 2

    ops = workload_ops(args.workload, args.seed)
    runner, setup_s = set_up(args.workload, args.seed, ops)
    if args.trace:
        metrics, detail = per_layer(runner, ops, args.seconds)
    else:
        metrics, detail = end_to_end(runner, ops, args.seconds, setup_s)
    current = args.workload == "cli-cold" or specs_are_current(runner)
    failed = runner.failed
    result = {
        "correct": current and failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    facts = machine_facts()
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  cli_seed=runner.cli_seed, seconds=args.seconds,
                  trace=args.trace, specs_current=current, machine=facts,
                  failures=runner.failures,
                  **detail)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"samples: attempted {runner.attempted}, failed {failed}, "
          f"failed_ratio {failed / runner.attempted:.4f}, "
          + ", ".join(f"{k} {v}" for k, v in detail.items()
                      if isinstance(v, int)))
    if "wall" in detail:
        print(f"wall: {json.dumps(detail['wall'])}")
    for failure in runner.failures[:10]:
        print(f"failure: {failure['op']}: {'; '.join(failure['problems'])}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
