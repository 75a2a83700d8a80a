"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import exactref as X  # noqa: E402
import jobs as J  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# -- job lists ----------------------------------------------------------------

@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_job_lists_follow_the_seed(workload):
    def argvs(seed):
        return [job.argv for job in J.make_jobs(workload, seed)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)
    assert sum(job.oversize for job in J.make_jobs(workload, 7)) == 1


# -- oracles ------------------------------------------------------------------

def _job(kind, argv, work=1, files=(), **spec):
    return J.Job(kind, argv, work, tuple(files), spec=spec)


def _dynatomic(ring, f, index, p=None, fmt=()):
    text = X.format_poly(f, "Qa" if ring == "Qa" else "Q")
    argv = ["dynatomic", "--f", text] + (["--p", str(p)] if p else [])
    if isinstance(index, tuple):
        argv += ["--m", str(index[0]), "--n", str(index[1])]
        m, n = index
    else:
        argv += ["--d", str(index)]
        m, n = 0, index
    return _job("dynatomic", argv + list(fmt), ring=ring, f=f, p=p, m=m, n=n,
                d_form=not isinstance(index, tuple))


def _relation(t, extra=(), trials=3, seed=5, family="x^2+a", specialize=None,
              force=False, out=False):
    argv = ["relation", "--m", str(t[0]), "--n", str(t[1]), "--c", str(t[2]),
            "--d", str(t[3]), "--trials", str(trials), "--seed", str(seed)]
    argv += list(extra) + (["--out", "relation.json"] if out else [])
    return _job("relation", argv, files=("relation.json",) if out else (),
                tuple=t, trials=trials, seed=seed, family=family,
                specialize=specialize, force=force)


def _planted():
    coeffs = [0] + X.pmul(X.pmul([3, -1, 0, 2], X.cyclotomic(12)),
                          X.pmul(X.cyclotomic(5), X.cyclotomic(5)))
    return _job("cyclo", ["cyclo-factors", "--poly", X.format_poly(coeffs, "Q"),
                          "--format", "json"],
                flag="--poly", value=X.format_poly(coeffs, "Q"), coeffs=coeffs,
                planted={12: 1, 5: 2}, x_multiplicity=1)


SMALL_JOBS = [
    _job("scan", ["scan", "--d-max", "60", "--n-max", "40", "--out", "grid.csv",
                  "--svg", "grid.svg"], files=("grid.csv", "grid.svg"),
         d_max=60, n_max=40),
    _job("cover", ["cover", "--d", "440512358437", "--n", "65",
                   "--certificate", "cover.json"], files=("cover.json",),
         d=440512358437, n=65),
    _job("cover", ["cover", "--d", "210210", "--n", "221", "--certificate",
                   "cover.json", "--format", "json"], files=("cover.json",),
         d=210210, n=221),
    _job("cover", ["cover", "--d", "3003", "--n", "91", "--certificate",
                   "cover.json"], files=("cover.json",), d=3003, n=91),
    _job("sweep", ["12", "10"]),
    _job("cyclo", ["cyclo-factors", "--both", "30", "--format", "json"],
         flag="--both", value=30),
    _job("cyclo", ["cyclo-factors", "--necklace", "24"], flag="--necklace",
         value=24),
    _job("cyclo", ["cyclo-factors", "--shifted", "36"], flag="--shifted",
         value=36),
    _planted(),
    _dynatomic("Q", [1, -1, 1], 4),
    _dynatomic("Q", [2, 0, 0, 1], (1, 2), fmt=("--format", "json")),
    _dynatomic("Fp", [3, 1, 1], 5, p=101, fmt=("--format", "json")),
    _dynatomic("Qa", [[1, 1], [], [1]], 3),
    _relation((1, 2, 1, 3)),
    _relation((0, 2, 0, 3), ("--format", "json"), out=True),
    _relation((0, 1, 1, 2), ("--specialize", "a=-3/4"), out=True,
              specialize="a=-3/4"),
    _relation((0, 2, 1, 4), ("--family", "x^2 + 3", "--force"),
              family="x^2 + 3", force=True),
]


def _corruptions(data: bytes, rng: random.Random, count: int):
    """Copies of data, each with one byte replaced by another printable one."""
    positions = {0, len(data) - 1} | {rng.randrange(len(data))
                                      for _ in range(count)}
    for pos in sorted(positions):
        old = chr(data[pos])
        pool = "0123456789" if old.isdigit() else "0123456789ax+-,: ()[]{}\"\n"
        new = rng.choice([c for c in pool if c != old])
        yield pos, data[:pos] + new.encode() + data[pos + 1:]


@pytest.fixture(scope="module")
def small_results():
    run.WORK.mkdir(exist_ok=True)
    results = []
    for job in SMALL_JOBS:
        done = run._spawn(run._command(job, None, 0), 60.0, False)
        assert not done.timed_out, job.argv
        results.append(oracles.Result(done.code, done.stdout, done.stderr,
                                      done.files))
    return results


@pytest.mark.parametrize("index", range(len(SMALL_JOBS)),
                         ids=[" ".join(j.argv[:3]) for j in SMALL_JOBS])
def test_oracle_accepts_output_and_rejects_any_corrupted_byte(small_results, index):
    job, res = SMALL_JOBS[index], small_results[index]
    oracles.check(job, res)
    rng = random.Random(index)
    outputs = [("stdout", res.stdout)] + sorted(res.files.items())
    for name, data in outputs:
        for pos, bad in _corruptions(data, rng, 30):
            if name == "stdout":
                corrupted = oracles.Result(res.code, bad, res.stderr, res.files)
            else:
                corrupted = oracles.Result(res.code, res.stdout, res.stderr,
                                           {**res.files, name: bad})
            with pytest.raises(oracles.OracleError):
                oracles.check(job, corrupted)
                pytest.fail(f"{name} byte {pos} corrupted was accepted")


def test_oracles_reject_a_wrong_exit_code(small_results):
    for job, res in zip(SMALL_JOBS, small_results):
        wrong = oracles.Result(4 if res.code != 4 else 0, res.stdout,
                               res.stderr, res.files)
        with pytest.raises(oracles.OracleError):
            oracles.check(job, wrong)


# -- tracing ------------------------------------------------------------------

def _bindings():
    import dynlab
    import dynlab.cli  # noqa: F401

    mods = {n: m for n, m in sys.modules.items()
            if n == "dynlab" or n.startswith("dynlab.")}
    return {(n, attr): value for n, m in mods.items()
            for attr, value in vars(m).items() if callable(value)}


def test_wrappers_replace_and_restore_every_binding():
    from dynlab.polycore import Polynomial

    before = _bindings()
    methods = dict(vars(Polynomial))
    rec = tracing.SpanRecorder(0)
    inst = tracing.Installation(rec).install()
    try:
        originals = {id(orig) for _, _, orig in inst.replaced}
        during = _bindings()
        assert not [key for key, value in during.items() if id(value) in originals]
        # copies imported elsewhere are replaced too
        assert any(owner.__name__ == "dynlab.characters" and attr == "cyclotomic_poly"
                   for owner, attr, _ in inst.replaced if hasattr(owner, "__name__"))
        with contextlib.redirect_stdout(io.StringIO()):
            import dynlab.cli
            assert dynlab.cli.main(["dynatomic", "--f", "x^2+a", "--d", "3"]) == 0
        names = {rec.names[i] for i in rec.name}
        assert {"cli.main", "dynatomic.dynatomic_poly", "polycore.mul.Qa",
                "polycore.div_exact.Qa", "polycore.compose.Qa"} <= names
    finally:
        inst.uninstall()
    assert _bindings() == before
    assert dict(vars(Polynomial)) == methods


def test_self_time_subtracts_direct_children(tmp_path):
    rec = tracing.SpanRecorder(3)
    a, b = rec.name_id("outer"), rec.name_id("inner")
    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; inner [4, 8] holds
    # outer [5, 6] (recursion through another layer).
    for nid, parent, start, end in ((a, -1, 0, 10), (b, 0, 1, 3),
                                    (b, 0, 4, 8), (a, 2, 5, 6)):
        rec.name.append(nid)
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    rec.count("outer.hits", 3)
    path = tmp_path / "spans.bin"
    rec.dump(str(path))
    totals, _ = tracing.load_job(str(path))
    assert totals == {"outer.calls": 2, "inner.calls": 2, "outer.self_s": 4 + 1,
                      "inner.self_s": 2 + 3, "outer.hits": 3}


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail([float(i) for i in range(10)]) is None
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(J.WORKLOADS)


def test_job_peak_rss_does_not_include_the_driver_memory():
    run.WORK.mkdir(exist_ok=True)
    tiny = [sys.executable, "-c", "pass"]
    before = run._spawn(tiny, 60.0, False).rss_kb
    ballast = bytearray(100 * 2**20)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    after = run._spawn(tiny, 60.0, False).rss_kb
    assert after < before + 10 * 1024 < 100 * 1024
