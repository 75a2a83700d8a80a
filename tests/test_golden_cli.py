"""Golden CLI bytes: exit code, stdout and every written file, byte for byte.

Each case runs ``dynlab.cli.main`` in-process with the working directory set
to a fresh temporary directory, so output files land there and relative
paths echoed on stdout stay stable.  The expected bytes live in
``tests/golden/<case>/``: ``stdout`` plus one file per output file name.

Regenerate the data (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from dynlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (case name, argv, expected exit code, names of the files the case writes)
CASES = [
    ("necklace_d6", ["necklace", "--d", "6"], 0, []),
    # pins "f": null
    ("necklace_d6_json", ["necklace", "--d", "6", "--format", "json"], 0, []),
    ("necklace_d2_f_x2", ["necklace", "--d", "2", "--f", "x^2"], 0, []),
    ("necklace_d4_f_x2a", ["necklace", "--d", "4", "--f", "x^2+a"], 0, []),
    ("cyclo_both_105", ["cyclo-factors", "--both", "105"], 0, []),
    ("cyclo_both_105_json",
     ["cyclo-factors", "--both", "105", "--format", "json"], 0, []),
    # generated once by the trial-division scan, which took 3m43s on it
    ("cyclo_necklace_1100", ["cyclo-factors", "--necklace", "1100"], 0, []),
    # pins the degree-950 cofactor of the same scan
    ("cyclo_necklace_1100_json",
     ["cyclo-factors", "--necklace", "1100", "--format", "json"], 0, []),
    ("cyclo_poly_json",
     ["cyclo-factors", "--poly", "x^3 - x", "--format", "json"], 0, []),
    # phi(221) = 192, a size the cyclo benchmark draws
    ("cyclo_shifted_221_json",
     ["cyclo-factors", "--shifted", "221", "--format", "json"], 0, []),
    ("dynatomic_x2a_d2", ["dynatomic", "--f", "x^2+a", "--d", "2"], 0, []),
    ("dynatomic_x3p1_m1_n1",
     ["dynatomic", "--f", "x^3+1", "--m", "1", "--n", "1"], 0, []),
    ("dynatomic_f5_d4",
     ["dynatomic", "--f", "x^5+2*x", "--p", "5", "--d", "4"], 0, []),
    # pins the "p" key of a polynomial over F_p
    ("dynatomic_f7_d3_json",
     ["dynatomic", "--f", "x^2+x+1", "--p", "7", "--d", "3", "--format",
      "json"], 0, []),
    ("dynatomic_x2a_d6_json",
     ["dynatomic", "--f", "x^2+a", "--d", "6", "--format", "json"], 0, []),
    # f^7 is a dense degree-128 Q iterate, so its squares pack (_convolve)
    ("dynatomic_x2mxm1_d7", ["dynatomic", "--f", "x^2-x-1", "--d", "7"], 0,
     []),
    ("dynatomic_qa_m2_n3",
     ["dynatomic", "--f", "x^2+3*x+(a+1)", "--m", "2", "--n", "3"], 0, []),
    ("relation_1213_out",
     ["relation", "--m", "1", "--n", "2", "--c", "1", "--d", "3",
      "--out", "cert.json"], 0, ["cert.json"]),
    ("relation_0206_force",
     ["relation", "--m", "0", "--n", "2", "--c", "0", "--d", "6", "--force",
      "--trials", "0"], 2, []),
    ("relation_0206_force_specialize",
     ["relation", "--m", "0", "--n", "2", "--c", "0", "--d", "6", "--force",
      "--specialize", "a=-1", "--trials", "0"], 2, []),
    ("relation_2114_family",
     ["relation", "--m", "2", "--n", "1", "--c", "1", "--d", "4",
      "--family", "x^2+3*x+1", "--trials", "4"], 0, []),
    ("relation_0123_specialize_json",
     ["relation", "--m", "0", "--n", "1", "--c", "2", "--d", "3",
      "--specialize", "a=1", "--trials", "5", "--format", "json"], 0, []),
    ("relation_2131_force",
     ["relation", "--m", "2", "--n", "1", "--c", "3", "--d", "1", "--force",
      "--trials", "4"], 2, []),
    # a usage error: exit 1 (not argparse's 2) and nothing on stdout
    ("usage_relation_missing_d",
     ["relation", "--m", "1", "--n", "2", "--c", "1"], 1, []),
    ("scan_300",
     ["scan", "--d-max", "300", "--n-max", "300", "--out", "grid.csv",
      "--svg", "grid.svg"], 0, ["grid.csv", "grid.svg"]),
    ("cover_big_d",
     ["cover", "--d", "440512358437", "--n", "65",
      "--certificate", "cover.json"], 0, ["cover.json"]),
    # not covered: a failing character and 108 witnesses
    ("cover_66356058851_266_json",
     ["cover", "--d", "66356058851", "--n", "266",
      "--certificate", "cover.json", "--format", "json"], 3, ["cover.json"]),
    # covered with 10 of 16 characters witness-less: 9 factor through no
    # stratum modulus, and the entangled prime 5 kills the other one
    ("cover_525_40_json",
     ["cover", "--d", "525", "--n", "40",
      "--certificate", "cover.json", "--format", "json"], 0, ["cover.json"]),
]


def run_case(argv: list[str], workdir: Path) -> tuple[int, bytes]:
    """Run the CLI in ``workdir``; return (exit code, stdout bytes)."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv,exit_code,files", CASES,
                         ids=[case[0] for case in CASES])
def test_golden_cli(name, argv, exit_code, files, tmp_path):
    code, stdout = run_case(argv, tmp_path)
    assert code == exit_code
    assert stdout == (GOLDEN / name / "stdout").read_bytes()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(files)
    for fname in files:
        assert ((tmp_path / fname).read_bytes()
                == (GOLDEN / name / fname).read_bytes()), fname


def _regenerate() -> None:
    import tempfile

    for name, argv, exit_code, files in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout = run_case(argv, Path(tmp))
            if code != exit_code:
                raise SystemExit(f"{name}: exit {code}, expected {exit_code}")
            target = GOLDEN / name
            target.mkdir(parents=True, exist_ok=True)
            (target / "stdout").write_bytes(stdout)
            for fname in files:
                (target / fname).write_bytes((Path(tmp) / fname).read_bytes())
        sys.stderr.write(f"wrote {target}\n")


if __name__ == "__main__":
    _regenerate()
