"""Cold single-process costs of the dynlab CLI: import peak, job peaks, wall.

Every run is a fresh ``python`` process on a copy of ``src`` without
bytecode, which it does not write, so each one compiles the dynlab modules
it imports.  The import alone is measured once more after
``python -m compileall -q src`` on that copy, which shows the share of the
peak that compiling dynlab takes.  The file name does not start with
``test_``, so pytest does not collect it; run it from anywhere:

    python tests/cold_runs.py

It prints one line per run and exits 1 if a run ends with another exit
code than its row expects.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (label, CLI arguments, "peak KB" or "wall s", expected exit code)
RUNS = [
    ("dynatomic --d 11 --format json",
     ["dynatomic", "--f", "x^2+2*x-1", "--d", "11", "--format", "json"],
     "peak KB", 0),
    ("dynatomic --f x^2+1 --d 22",
     ["dynatomic", "--f", "x^2+1", "--d", "22"], "wall s", 1),
    ("cover --n 3811 --certificate",
     ["cover", "--d", "133063438889", "--n", "3811",
      "--certificate", "cover.json", "--format", "json"], "peak KB", 0),
    ("relation --m 0 --n 2 --c 0 --d 6 --force",
     ["relation", "--m", "0", "--n", "2", "--c", "0", "--d", "6", "--force"],
     "wall s", 2),
    ("cyclo-factors --necklace 1100",
     ["cyclo-factors", "--necklace", "1100"], "wall s", 0),
    ("relation --specialize a=1e30000000",
     ["relation", "--m", "1", "--n", "2", "--c", "1", "--d", "3",
      "--trials", "0", "--specialize", "a=1e30000000"], "wall s", 1),
    ("relation --d 10000000 --family x^3+a",
     ["relation", "--m", "0", "--n", "1", "--c", "1", "--d", "10000000",
      "--trials", "0", "--family", "x^3+a"], "wall s", 1),
    ("relation --m 2 --n 1 --c 1 --d 20000 --force --family x^3+a",
     ["relation", "--m", "2", "--n", "1", "--c", "1", "--d", "20000",
      "--force", "--trials", "0", "--family", "x^3+a"], "wall s", 1),
]


def run(args: list[str], env: dict, cwd: str,
        stderr=subprocess.DEVNULL) -> tuple[float, int, int]:
    """Wall seconds, exit code and peak RSS in KB of one python process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    # wait4 gives this child's own peak, where RUSAGE_CHILDREN would give
    # the largest of all children waited for so far
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def main() -> int:
    wrong = []

    def check(label: str, code: int, expected: int = 0) -> None:
        if code != expected:
            print(f"  {label}: exit {code}, expected {expected}")
            wrong.append(label)

    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, path)))}
        log = os.path.join(tmp, "importtime")
        with open(log, "w") as handle:
            _, code, kb = run(["-X", "importtime", "-c", "import dynlab.cli"],
                              env, tmp, handle)
        with open(log) as handle:
            print(handle.read().splitlines()[-1])
        print("import peak KB", kb)
        check("import", code)
        check("compileall", run(["-m", "compileall", "-q", src], env, tmp)[1])
        _, code, kb = run(["-c", "import dynlab.cli"], env, tmp)
        print("import peak KB after compileall", kb)
        check("import after compileall", code)
        for label, argv, measure, expected in RUNS:
            wall, code, kb = run(["-m", "dynlab.cli", *argv], env, tmp)
            if measure == "peak KB":
                print(label, "peak KB", kb)
            else:
                print(label, "wall s", round(wall, 3), "exit", code)
            check(label, code, expected)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
