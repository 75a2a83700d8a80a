"""Cold-process CLI benchmark for dynlab.

    python3 perfbench/run.py --workload {grid,cyclo,dynatomic,relation}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is run from ``src/``).
Every job is a fresh ``dynlab`` process, run one at a time (a closed loop with
one client); each output is checked by an oracle in ``oracles.py``.

``--trace 0`` runs the workload's job list in passes, at least MIN_PASSES
and more while they fit in ``--seconds``, and prints the end-to-end metrics.
``--trace 1`` runs the list once plain and once with every dynlab layer
wrapped from outside (``tracing.py``) and prints the per-layer metrics and
the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import jobs as J
import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
STATE = HERE / ".state"

# Longest a job may run.  When this benchmark was added, every job of the
# lists took at most about 1.2 s on 2 vCPUs, and the oversize inputs needed
# 30 s to 150 s; they are stopped here.  In the traced pass the other jobs get
# twice as long for the wrappers' cost, while oversize jobs keep the same
# limit as in a plain pass.
JOB_LIMIT_S = 3.0
TRACED_LIMIT_S = 2 * JOB_LIMIT_S
# A plain run makes at least this many passes over the job list, and more
# while they fit in --seconds.
MIN_PASSES = 2
# In a plain pass, the setup command runs before every SETUP_EVERY-th job, so
# that setup_s samples the whole run and not one moment of it.
SETUP_EVERY = 4
SETUP_CMD = ["-m", "dynlab.cli", "necklace", "--d", "1"]
TAIL_BEYOND = 10

E2E_UNITS = {"wall_s": "s", "work_per_s": "unit/s", "job_p50_s": "s",
             "job_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "failed_ratio": "ratio"}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for fn in ("factorize", "squarefree_divisors", "euler_phi", "divisors",
               "is_prime"):
        units[f"numtheory.{fn}.calls"] = "count"
        units[f"numtheory.{fn}.self_s"] = "s"
    units["numtheory.factorize.cache_hit_ratio"] = "ratio"
    for op in ("mul", "divmod", "div_exact", "compose"):
        for ring in tracing.RINGS:
            units[f"polycore.{op}.{ring}.calls"] = "count"
            units[f"polycore.{op}.{ring}.self_s"] = "s"
    units.update({
        "polycore.to_text.calls": "count", "polycore.to_text.self_s": "s",
        "polycore.to_text.out_bytes": "B",
        "polycore.parse_polynomial.calls": "count",
        "polycore.parse_polynomial.self_s": "s",
        "polycore.resultant.calls": "count", "polycore.resultant.self_s": "s",
        "polycore.mul.max_degree": "degree",
        "polycore.mul.max_coeff_bits": "bits",
        "polycore.divmod.zero_rem_ratio": "ratio"})
    for fn in ("fast_xn1_divides", "necklace_poly", "dynamical_necklace"):
        units[f"necklace.{fn}.calls"] = "count"
        units[f"necklace.{fn}.self_s"] = "s"
    extra = {
        "cyclotomic.cyclotomic_poly": {"cache_hit_ratio": "ratio"},
        "cyclotomic.cyclotomic_candidates": {"candidates": "count"},
        "cyclotomic.cyclo_factor_scan": {"trial_divisions": "count",
                                         "factor_hit_ratio": "ratio"},
        "characters.unit_group": {"cache_hit_ratio": "ratio"},
        "characters.covers": {"characters_checked": "count"},
        "characters.equivalence_sweep": {},
        "dynatomic.dynatomic_poly": {"max_degree": "degree"},
        "dynatomic.generalized_dynatomic": {},
        "dynatomic.verify_relation": {"divides_ratio": "ratio"},
        "dynatomic.relation_conditions": {},
        "dynatomic.build_relation_certificate": {},
    }
    for prefix, stats in extra.items():
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        units.update({f"{prefix}.{k}": u for k, u in stats.items()})
    units.update({"cli.main.self_s": "s", "cli.stdout_bytes": "B",
                  "process.import_s": "s", "trace.wall_s": "s",
                  "trace.untraced_wall_s": "s", "trace.overhead_ratio": "ratio"})
    return units


PER_LAYER_UNITS = _per_layer_units()


@dataclass
class Outcome:
    latency: float
    rss_kb: int
    status: str          # ok | stopped (expected, oversize) | failed
    reason: str
    digest: str | None
    work: int


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DYNLAB_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _command(job: J.Job, spans: Path | None, index: int) -> list[str]:
    if spans is None and job.kind != "sweep":
        return [sys.executable, "-m", "dynlab.cli", *job.argv]
    cmd = [sys.executable, str(HERE / "worker.py")]
    if spans is not None:
        cmd += ["--spans", str(spans), "--job", str(index)]
    return cmd + (["sweep", *job.argv] if job.kind == "sweep" else
                  ["cli", *job.argv])


class Spawned(NamedTuple):
    latency: float
    code: int
    rss_kb: int          # ru_maxrss of the process, from wait4
    timed_out: bool
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]


class Launcher:
    """The small process that starts every job (see ``launcher.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("the job launcher ended unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


_launcher: Launcher | None = None


def launcher() -> Launcher:
    global _launcher
    if _launcher is None:
        _launcher = Launcher()
        atexit.register(_launcher.close)
    return _launcher


def _spawn(cmd: list[str], limit: float, traced: bool) -> Spawned:
    """Run one process in a clean work directory, stopping it at limit."""
    cwd = WORK / "job"
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    r = launcher().run({"cmd": cmd, "cwd": str(cwd), "stdout": str(out_path),
                        "stderr": str(err_path), "limit": limit,
                        "traced": traced})
    files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    return Spawned(r["latency"], r["code"], r["rss_kb"], r["timed_out"],
                   out_path.read_bytes(), err_path.read_bytes(), files)


def _digest(stdout: bytes, files: dict[str, bytes]) -> str:
    h = hashlib.sha256(stdout)
    for name, data in files.items():
        h.update(b"\0" + name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def run_job(job: J.Job, index: int, spans: Path | None) -> Outcome:
    limit = JOB_LIMIT_S if spans is None or job.oversize else TRACED_LIMIT_S
    run = _spawn(_command(job, spans, index), limit, spans is not None)
    refused = run.code == 1 and not run.stdout and run.stderr.startswith(b"error:")
    if run.timed_out or refused:
        what = "stopped at the job limit" if run.timed_out else "refused"
        status = "stopped" if job.oversize else "failed"
        return Outcome(run.latency, run.rss_kb, status, what, None, 0)
    try:
        oracles.check(job, oracles.Result(run.code, run.stdout, run.stderr,
                                          run.files))
    except oracles.OracleError as exc:
        seen = {"stdout": run.stdout, "stderr": run.stderr, **run.files}
        shown = "; ".join(f"{name} {len(data)} B: {data[:120]!r}"
                          for name, data in seen.items())
        return Outcome(run.latency, run.rss_kb, "failed",
                       f"{exc} (exit {run.code}, {shown})", None, 0)
    return Outcome(run.latency, run.rss_kb, "ok", "",
                   _digest(run.stdout, run.files), job.work)


@dataclass
class Pass:
    outcomes: list[Outcome]

    @property
    def wall(self) -> float:
        return sum(o.latency for o in self.outcomes)

    def answered(self) -> list[float]:
        return sorted(o.latency for o in self.outcomes if o.status == "ok")


def run_pass(job_list: list[J.Job], spans_dir: Path | None = None,
             layers: Layers | None = None,
             setup: list[float] | None = None) -> Pass:
    """Run every job once; with ``setup``, also time the setup command before
    every SETUP_EVERY-th job and append the times to it."""
    outcomes = []
    for i, job in enumerate(job_list):
        if setup is not None and i % SETUP_EVERY == 0:
            setup.append(setup_time())
        spans = None if spans_dir is None else spans_dir / f"spans-{i}.bin"
        outcome = run_job(job, i, spans)
        outcomes.append(outcome)
        if outcome.status == "failed":
            print(f"FAILED job {i} ({' '.join(job.argv)[:80]}): "
                  f"{outcome.reason}", file=sys.stderr)
        if spans is not None:
            if spans.exists():
                layers.add(*tracing.load_job(str(spans)))
                spans.unlink()
            else:
                layers.missing += 1
    return Pass(outcomes)


def setup_time() -> float:
    """Spawn-to-exit of the trivial command."""
    run = _spawn([sys.executable, *SETUP_CMD], JOB_LIMIT_S, False)
    if run.timed_out or run.code != 0 or run.stdout != b"M_1 = x\n":
        raise SystemExit("setup command failed: dynlab necklace --d 1")
    return run.latency


# -- metrics ------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    return latencies[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    outcomes = [o for p in passes for o in p.outcomes]
    walls = [p.wall for p in passes]
    answered = sorted(t for p in passes for t in p.answered())
    tail_at = tail(answered)
    work = [sum(o.work for o in p.outcomes) / p.wall for p in passes]
    ok = [o for o in outcomes if o.status == "ok"]
    return {
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(work),
        "job_p50_s": statistics.median(answered) if answered else 0.0,
        "job_tail_s": tail_at[0] if tail_at else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max((o.rss_kb for o in ok), default=0) / 1024,
        "failed_ratio": sum(o.status != "ok" for o in outcomes) / len(outcomes),
    }


# Ratio metrics: (numerator, denominator) among the summed totals.
RATIOS = {
    "numtheory.factorize.cache_hit_ratio": (
        "numtheory.factorize.cache_hits", "numtheory.factorize.cache_lookups"),
    "polycore.divmod.zero_rem_ratio": (
        "polycore.divmod.zero_rem", "polycore.divmod.calls"),
    "cyclotomic.cyclotomic_poly.cache_hit_ratio": (
        "cyclotomic.cyclotomic_poly.hits", "cyclotomic.cyclotomic_poly.calls"),
    "cyclotomic.cyclo_factor_scan.factor_hit_ratio": (
        "cyclotomic.cyclo_factor_scan.factor_hits",
        "cyclotomic.cyclo_factor_scan.trial_divisions"),
    "characters.unit_group.cache_hit_ratio": (
        "characters.unit_group.cache_hits", "characters.unit_group.cache_lookups"),
    "dynatomic.verify_relation.divides_ratio": (
        "dynatomic.verify_relation.divides", "dynatomic.verify_relation.calls"),
}


class Layers:
    """Per-layer totals and maxima summed over the jobs of a traced pass."""

    def __init__(self):
        self.totals: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.missing = 0

    def add(self, totals: dict[str, float], maxima: dict[str, int]) -> None:
        for name, value in totals.items():
            self.totals[name] = self.totals.get(name, 0) + value
        for name, value in maxima.items():
            self.maxima[name] = max(self.maxima.get(name, 0), value)

    def metrics(self) -> dict[str, float]:
        out = {name: self.totals.get(name, self.maxima.get(name, 0))
               for name in PER_LAYER_UNITS}
        for name, (num, den) in RATIOS.items():
            den_value = self.totals.get(den, 0)
            out[name] = self.totals.get(num, 0) / den_value if den_value else 0.0
        return out


# -- determinism --------------------------------------------------------------

def _compare(reference: list[str | None], other: Pass, what: str) -> int:
    """Count jobs answered both times whose output digests differ."""
    bad = 0
    for i, (a, b) in enumerate(zip(reference, (o.digest for o in other.outcomes))):
        if a and b and a != b:
            print(f"FAILED job {i}: output bytes differ ({what})", file=sys.stderr)
            bad += 1
    return bad


def _state_check(workload: str, seed: int, job_list: list[J.Job],
                 first: Pass) -> int:
    """Compare digests with an earlier run of the same seed and job list."""
    key = hashlib.sha256(json.dumps([j.argv for j in job_list]).encode()).hexdigest()
    path = STATE / f"{workload}-{seed}.json"
    digests = [o.digest for o in first.outcomes]
    if path.exists():
        saved = json.loads(path.read_text())
        if saved["jobs"] == key:
            return _compare(saved["digests"], first,
                            "against an earlier run of this seed")
    STATE.mkdir(exist_ok=True)
    path.write_text(json.dumps({"jobs": key, "digests": digests}))
    return 0


# -- main ---------------------------------------------------------------------

def _fmt_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=J.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dynlab" / "cli.py").is_file():
        print(f"no dynlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    job_list = J.make_jobs(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    setup_time()   # unmeasured warm-up: leaves the bytecode cache in place
    setup: list[float] = []
    started = time.perf_counter()
    first = run_pass(job_list, setup=setup)
    per_pass = time.perf_counter() - started
    bad = _state_check(args.workload, args.seed, job_list, first)
    passes = [first]
    layers = Layers()
    digests = [o.digest for o in first.outcomes]
    if args.trace:
        passes.append(run_pass(job_list, WORK, layers))
        bad += _compare(digests, passes[1], "traced against untraced")
    else:
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - started + per_pass <= args.seconds):
            passes.append(run_pass(job_list, setup=setup))
            bad += _compare(digests, passes[-1], "between passes")
    shutil.rmtree(WORK / "job", ignore_errors=True)

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(o.status == "failed" for o in outcomes) + bad
    for i, p in enumerate(passes):
        kind = "traced" if args.trace and i == 1 else "plain"
        print(f"pass {i} ({kind}): {len(p.outcomes)} jobs, wall {p.wall:.3f} s, "
              f"{sum(o.status == 'stopped' for o in p.outcomes)} stopped as "
              f"expected (oversize)")
    plain = [p for i, p in enumerate(passes) if not (args.trace and i == 1)]
    t = tail(sorted(x for p in plain for x in p.answered()))
    print("job_tail_s: " + (f"p{t[1]:.1f} of {t[2]} answered jobs = {t[0]:.4f} s"
                            if t else "fewer than 11 answered jobs"))
    print(f"setup_s repeats: {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"elapsed {time.perf_counter() - started:.1f} s")
    if args.trace:
        values = layers.metrics()
        values["trace.wall_s"] = passes[1].wall
        values["trace.untraced_wall_s"] = first.wall
        values["trace.overhead_ratio"] = passes[1].wall / first.wall - 1
        if layers.missing:
            print(f"{layers.missing} traced jobs left no spans")
        metrics = _fmt_metrics(values, PER_LAYER_UNITS)
    else:
        metrics = _fmt_metrics(end_to_end(passes, setup), E2E_UNITS)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
