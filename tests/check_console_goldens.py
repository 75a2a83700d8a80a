"""Run the installed ``dynlab`` console script on every golden CLI case.

Each case of ``tests/test_golden_cli.py`` runs in a fresh temporary
directory, and its exit code, stdout and every written file must equal the
bytes in ``tests/golden/<case>/``.  The file name does not start with
``test_``, so pytest does not collect it; run it after installing the
package:

    python tests/check_console_goldens.py

It prints one line per case and exits 1 if any case differs.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from test_golden_cli import CASES, GOLDEN  # noqa: E402


def check_case(exe: str, argv: list[str], exit_code: int,
               files: list[str], expected: Path) -> list[str]:
    """The differences of one case from its golden directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        done = subprocess.run([exe, *argv], cwd=work, capture_output=True)
        problems = []
        if done.returncode != exit_code:
            problems.append(f"exit {done.returncode}, expected {exit_code}")
        if done.stdout != (expected / "stdout").read_bytes():
            problems.append("stdout differs")
        written = sorted(p.name for p in work.iterdir())
        if written != sorted(files):
            problems.append(f"wrote {written}, expected {sorted(files)}")
        problems += [f"{name} differs" for name in files
                     if (work / name).is_file()
                     and (work / name).read_bytes()
                     != (expected / name).read_bytes()]
    return problems


def main() -> int:
    exe = shutil.which("dynlab")
    if exe is None:
        print("no dynlab console script on PATH")
        return 1
    failed = 0
    for name, argv, exit_code, files in CASES:
        problems = check_case(exe, argv, exit_code, files, GOLDEN / name)
        print(f"{name}: {'; '.join(problems) or 'ok'}")
        failed += bool(problems)
    print(f"{len(CASES) - failed} of {len(CASES)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
