import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dynlab
from dynlab import dynatomic
from conftest import dense_fold_divisible, dense_necklace_int_coeffs
from dynlab.characters import Character, covers, unit_group
from dynlab.cli import (_SLICE, _write_file, _write_pieces, main, scan_csv,
                        scan_rows, scan_svg)
from dynlab.cyclotomic import cyclo_factor_scan
from dynlab.dynatomic import (DivisibilityEvidence, RelationCertificate,
                              RelationTuple, relation_conditions)
from dynlab.errors import DomainError
from dynlab.necklace import fast_xn1_divides
from dynlab.numtheory import Factorization, factorize
from dynlab.polycore import QQ, parse_polynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestNecklaceCommand:
    def test_text(self, capsys):
        code, out = run_cli(capsys, "necklace", "--d", "6")
        assert code == 0
        assert out == "M_6 = 1/6*x^6 - 1/6*x^3 - 1/6*x^2 + 1/6*x\n"

    def test_json(self, capsys):
        code, out = run_cli(capsys, "necklace", "--d", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["json"]["coeffs"] == ["0", "1"]

    def test_dynamical(self, capsys):
        code, out = run_cli(capsys, "necklace", "--d", "2", "--f", "x^2")
        assert code == 0
        assert "1/2*x^4 - 1/2*x^2" in out


class TestCycloFactorsCommand:
    def test_poly_text(self, capsys):
        code, out = run_cli(capsys, "cyclo-factors", "--poly", "x^3 - x")
        assert code == 0
        assert "x^1 * Phi_1 Phi_2 * cofactor of degree 0" in out

    def test_both_json(self, capsys):
        code, out = run_cli(capsys, "cyclo-factors", "--both", "105",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        indices = [e["n"] for e in data["necklace"]["cyclotomic"]]
        assert indices == [1, 2, 3, 4, 6, 8]
        assert data["necklace"]["cofactor_degree"] == 92
        assert data["shifted_cyclotomic"]["cofactor_degree"] == 35

    def test_requires_exactly_one_input(self, capsys):
        for argv in ((), ("--poly", "x", "--both", "6")):
            code = main(["cyclo-factors", *argv])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.splitlines()[-1].startswith("error: ")


class TestDynatomicCommand:
    def test_plain(self, capsys):
        code, out = run_cli(capsys, "dynatomic", "--f", "x^2", "--d", "2")
        assert code == 0
        assert "x^2 + x + 1" in out

    def test_generalized(self, capsys):
        code, out = run_cli(capsys, "dynatomic", "--f", "x^3+1",
                            "--m", "1", "--n", "1")
        assert code == 0
        assert "x^6 + x^4 + 2*x^3 + x^2 + x + 1" in out

    def test_prime_field(self, capsys):
        code, out = run_cli(capsys, "dynatomic", "--f", "x^5+2*x", "--p", "5",
                            "--d", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["json"]["p"] == 5

    @pytest.mark.parametrize("argv,message", [
        (("--m", "1"), "error: --m and --n go together\n"),
        ((), "error: need --d or --m/--n\n"),
        (("--d", "3", "--m", "1", "--n", "2"),
         "error: --d does not go with --m/--n\n"),
    ], ids=["m_without_n", "no_index", "d_with_m_and_n"])
    def test_missing_index_exit_one(self, capsys, argv, message):
        code = main(["dynatomic", "--f", "x^2+1", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == message


class TestRelationCommand:
    def test_admissible_verified_exit_zero(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out = run_cli(capsys, "relation", "--m", "1", "--n", "2",
                            "--c", "1", "--d", "3", "--trials", "3",
                            "--out", str(out_path))
        assert code == 0
        assert "admissible: True" in out
        data = json.loads(out_path.read_text())
        assert data["conditions"]["admissible"] is True
        assert all(ev["divides"] for ev in data["evidence"])

    def test_not_admissible_exit_two(self, capsys):
        code, out = run_cli(capsys, "relation", "--m", "0", "--n", "2",
                            "--c", "0", "--d", "6", "--trials", "0")
        assert code == 2
        assert "admissible: False" in out

    def test_force_shows_nonzero_remainder(self, capsys):
        code, out = run_cli(capsys, "relation", "--m", "0", "--n", "2",
                            "--c", "0", "--d", "6", "--trials", "0", "--force")
        assert code == 2
        assert "remainder of degree" in out

    def test_specialized_family_divides(self, capsys):
        for value in ("a=-1", "a=-5/4"):
            code, out = run_cli(capsys, "relation", "--m", "0", "--n", "2",
                                "--c", "0", "--d", "6", "--trials", "0",
                                "--force", "--specialize", value)
            assert code == 2  # tuple stays non-admissible
            assert "divides" in out

    def test_falsified_admissible_tuple_exit_four(self, capsys, monkeypatch):
        # no admissible tuple is known to fail, so the family leg is made
        # to fail while the three random legs keep their evidence
        real = dynatomic.verify_relation

        def falsify_family_leg(t, f, **kwargs):
            evidence = real(t, f, **kwargs)
            if kwargs.get("seed") is not None:
                return evidence
            return evidence._replace(divides=False, cofactor_degree=None,
                                     remainder_degree=0)

        monkeypatch.setattr(dynatomic, "verify_relation", falsify_family_leg)
        code, out = run_cli(capsys, "relation", "--m", "1", "--n", "2",
                            "--c", "1", "--d", "3", "--trials", "3")
        assert code == 4
        assert "admissible: True" in out
        assert "x^2+a: remainder of degree 0" in out
        assert out.endswith("  evidence: 3/4 divide\n")

    def test_json_output_deterministic(self, capsys):
        argv = ("relation", "--m", "1", "--n", "1", "--c", "0", "--d", "2",
                "--trials", "4", "--format", "json")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestScanCommand:
    def test_small_grid_contents(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _ = run_cli(capsys, "scan", "--d-max", "10", "--n-max", "10",
                          "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        lines = text.splitlines()
        assert lines[0] == "d,n"
        rows = {tuple(map(int, line.split(","))) for line in lines[1:]}
        assert (6, 2) in rows
        assert all((d, 1) in rows for d in range(2, 11))
        oracle = {(d, n)
                  for d in range(1, 11)
                  for n in range(1, 11)
                  if dense_fold_divisible(dense_necklace_int_coeffs(d), n)}
        assert rows == oracle

    def test_header_only_for_unit_grid(self, capsys, tmp_path):
        out_path = tmp_path / "unit.csv"
        code, _ = run_cli(capsys, "scan", "--d-max", "1", "--n-max", "1",
                          "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == "d,n\n"

    def test_byte_determinism_and_ordering(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "scan", "--d-max", "40", "--n-max", "20",
                    "--out", str(path))
        assert a.read_bytes() == b.read_bytes()
        rows = [tuple(map(int, line.split(",")))
                for line in a.read_text().splitlines()[1:]]
        assert rows == sorted(rows)
        assert b"\r" not in a.read_bytes()

    def test_svg_shape(self, capsys, tmp_path):
        csv_path, svg_path = tmp_path / "g.csv", tmp_path / "g.svg"
        run_cli(capsys, "scan", "--d-max", "10", "--n-max", "10",
                "--out", str(csv_path), "--svg", str(svg_path))
        svg = svg_path.read_text()
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                              'viewBox="0 0 1000 1000">')
        hits = len(csv_path.read_text().splitlines()) - 1
        assert svg.count('width="2" height="2"') == hits

    def test_unwritable_path_fails_nonzero(self, capsys):
        code, _ = run_cli(capsys, "scan", "--d-max", "2", "--n-max", "2",
                          "--out", "/nonexistent-dir/x.csv")
        assert code == 1

    @pytest.mark.parametrize("bounds", [("0", "5"), ("-3", "5"), ("5", "0")],
                             ids=["d-max-0", "d-max-negative", "n-max-0"])
    def test_empty_bounds_refused(self, capsys, tmp_path, bounds):
        csv_path, svg_path = tmp_path / "g.csv", tmp_path / "g.svg"
        code = main(["scan", "--d-max", bounds[0], "--n-max", bounds[1],
                     "--out", str(csv_path), "--svg", str(svg_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: scan bounds must be >= 1\n"
        assert not csv_path.exists() and not svg_path.exists()


def plain_scan(d_max, n_max):
    """The plain double loop over every grid pair: the scan's reference."""
    return [(d, n)
            for d in range(1, d_max + 1)
            for n in range(1, n_max + 1)
            if fast_xn1_divides(d, n)]


class TestScanCandidates:
    def assert_matches_plain_loop(self, d_max, n_max):
        rows = scan_rows(d_max, n_max)
        assert rows == plain_scan(d_max, n_max)
        assert all(n < d for d, n in rows)
        hits = set(rows)
        assert all((d, 1) in hits for d in range(2, d_max + 1))

    def test_full_300_grid(self):
        self.assert_matches_plain_loop(300, 300)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_boxes(self, seed):
        # The plain loop costs about 5-10 us a cell, so a box stays near
        # 150k cells; the sides reach 1200 x 400.
        rng = random.Random(seed)
        d_max = rng.randint(300, 1200)
        n_max = rng.randint(10, min(400, 150_000 // d_max))
        self.assert_matches_plain_loop(d_max, n_max)


class TestCoverCommand:
    def test_covered_exit_zero(self, capsys, tmp_path):
        cert_path = tmp_path / "cover.json"
        code, out = run_cli(capsys, "cover", "--d", "440512358437",
                            "--n", "65", "--certificate", str(cert_path))
        assert code == 0
        assert "covered" in out and "cocore(d) = 47" in out
        assert "0 <= m <= 47" in out
        data = json.loads(cert_path.read_text())
        assert data["d"] == "440512358437"
        assert data["covered"] is True
        assert data["usable_primes"] == [47, 73, 79, 151, 229]

    def test_not_covered_exit_three(self, capsys):
        code, out = run_cli(capsys, "cover", "--d", "2", "--n", "5")
        assert code == 3
        assert "not covered" in out

    def test_m_range_starts_at_one_when_n_divides_d(self, capsys):
        code, out = run_cli(capsys, "cover", "--d", "6", "--n", "2")
        assert code == 0
        assert "1 <= m <= 1" in out

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "cover", "--d", "3", "--n", "2",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["witnesses"] == [{"chi": [], "p": 3}]

    def test_certificate_bytes_are_json_dumps_over_a_box(self, capsys,
                                                         tmp_path):
        # cyclic (1, 2, 5, 9, 25) and non-cyclic (8, 12, 40, 65, 266) groups
        path = tmp_path / "cover.json"
        seen = set()
        for d in (1, 6, 30, 105, 525, 2310, 66356058851):
            for n in (1, 2, 5, 8, 9, 12, 25, 40, 65, 266):
                code, out = run_cli(capsys, "cover", "--d", str(d), "--n",
                                    str(n), "--certificate", str(path),
                                    "--format", "json")
                cert = covers(d, n)
                text = json.dumps({
                    "d": str(d), "n": n, "usable_primes": cert.usable_primes,
                    "covered": cert.covered,
                    "witnesses": [{"chi": chi, "p": p}
                                  for chi, p in cert.witnesses],
                    "failing_character": cert.failing_character},
                    indent=2) + "\n"
                assert code == (0 if cert.covered else 3)
                assert out == text, (d, n)
                assert path.read_bytes() == text.encode("utf-8"), (d, n)
                group = unit_group(n)
                seen.add((group.exponent == group.order, cert.covered))
        assert seen == {(False, False), (False, True), (True, False),
                        (True, True)}


class TestErrorHandling:
    @pytest.mark.parametrize("argv", [
        ["relation", "--m", "1", "--n", "2", "--c", "1"],
        ["relation", "--m", "x", "--n", "2", "--c", "1", "--d", "3"],
        ["necklace", "--d", "6", "--format", "xml"],
        [],
        ["necklace", "--d", "\u0663"],
        ["necklace", "--d", "1_0"],
    ], ids=["missing_flag", "non_int", "bad_format", "no_subcommand",
            "non_ascii_int", "underscore_int"])
    def test_usage_error_exit_one(self, capsys, argv):
        # argparse's own exit code 2 would read as relation's "not admissible"
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: ")
        assert captured.err.count("error: ") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["relation", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dynlab relation")

    def test_domain_error_exit_one(self, capsys):
        code, _ = run_cli(capsys, "necklace", "--d", "0")
        assert code == 1

    def test_bad_polynomial_exit_one(self, capsys):
        code, _ = run_cli(capsys, "dynatomic", "--f", "x^^2", "--d", "2")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("scan", "--d-max", "2", "--n-max", "2", "--out", "{}"),
        ("cover", "--d", "6", "--n", "2", "--certificate", "{}"),
        ("relation", "--m", "1", "--n", "1", "--c", "0", "--d", "2",
         "--trials", "0", "--out", "{}"),
    ], ids=["scan", "cover", "relation"])
    def test_write_into_missing_directory(self, capsys, tmp_path, argv):
        target = str(tmp_path / "missing" / "out.txt")
        code = main([arg.format(target) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_specialize_refused_without_parameter(self, capsys):
        code = main(["relation", "--m", "1", "--n", "2", "--c", "1", "--d", "3",
                     "--family", "x^2+1", "--specialize", "a=5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--specialize" in captured.err

    def test_specialize_needs_the_parameter_a(self, capsys):
        code = main(["relation", "--m", "1", "--n", "2", "--c", "1", "--d", "3",
                     "--specialize", "b=1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: --specialize expects a=<rational>, "
                                "e.g. a=-5/4\n")

    @pytest.mark.parametrize("text,code", [
        (" a = -5/4\t", 0), ("a=\u2003-5/4", 1), ("a\u00a0=-5/4", 1)],
        ids=["ascii", "em_space", "no_break_space"])
    def test_specialize_ignores_ascii_whitespace_only(self, capsys, text,
                                                       code):
        assert main(["relation", "--m", "1", "--n", "2", "--c", "1",
                     "--d", "3", "--trials", "0",
                     "--specialize", text]) == code
        assert capsys.readouterr().err.count("error: ") == code

    def test_zero_denominator_is_one_line_error(self, capsys):
        code = main(["relation", "--m", "1", "--n", "2", "--c", "1", "--d", "3",
                     "--specialize", "a=1/0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_exponent_in_specialize_is_refused_unread(self, capsys):
        # Fraction("1e30000000") would build a 30-million-digit int first
        code = main(["relation", "--m", "1", "--n", "2", "--c", "1", "--d", "3",
                     "--trials", "0", "--specialize", "a=1e30000000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: cannot interpret '1e30000000' as a "
                                "rational\n")

    def test_deeply_nested_polynomial_is_one_line_error(self, capsys):
        nested = "(" * 1200 + "x^2" + ")" * 1200
        code = main(["necklace", "--d", "2", "--f", nested])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: parentheses nested deeper than 100\n"

    def test_prime_zero_refused(self, capsys):
        code = main(["dynatomic", "--f", "x^2+1", "--d", "2", "--p", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: 0 is not prime\n"

    def test_negative_trials_refused(self, capsys):
        code = main(["relation", "--m", "1", "--n", "1", "--c", "0", "--d", "2",
                     "--trials", "-3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: trials must be >= 0, got -3\n"

    def test_negative_degree_max_refused(self, capsys):
        code = main(["relation", "--m", "1", "--n", "1", "--c", "0", "--d", "2",
                     "--trials", "0", "--degree-max", "-3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --degree-max must be >= 0, got -3\n"

    def test_negative_degree_cap_env_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("DYNLAB_DEGREE_CAP", "-3")
        code = main(["relation", "--m", "1", "--n", "1", "--c", "0", "--d", "2",
                     "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: DYNLAB_DEGREE_CAP must be >= 0, got -3\n"

    def test_dynamical_necklace_over_the_cap_is_refused(self, capsys):
        # degree 2**30: refused from the predicted degree, nothing is built
        code = main(["necklace", "--d", "30", "--f", "x^2+1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_degree_cap_covers_divisor_leg(self, capsys):
        code = main(["relation", "--m", "6", "--n", "3", "--c", "0", "--d", "1",
                     "--force", "--degree-max", "100"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("error: degree 192 of the (6, 3) dynatomic "
                                "exceeds the cap 100\n")

    def test_degree_past_the_int_to_str_limit_is_refused(self, capsys):
        # deg Phi_{1,20000} has about 6000 digits: the refusal names the
        # power of two below it that decided it
        code = main(["relation", "--m", "0", "--n", "1", "--c", "1",
                     "--d", "20000", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: degree 2**19999 of the (1, 20000) "
                                "dynatomic exceeds the cap 5000\n")

    def test_quotient_route_answers_past_the_cap(self, capsys):
        # Phi_{0,24} of the quartic legs has degree about 2.8e14; only the
        # (1, 1) divisor is built
        code = main(["relation", "--m", "1", "--n", "1", "--c", "0",
                     "--d", "24", "--trials", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.endswith("  evidence: 4/4 divide\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit in this Python")
    def test_unprintable_cofactor_degree_is_one_line_error(self, capsys):
        # the cofactor degree of (1, 1, 0, 20000) has about 6000 digits
        code = main(["relation", "--m", "1", "--n", "1", "--c", "0",
                     "--d", "20000", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit in this Python")
    def test_unprintable_cofactor_degree_names_the_leg(self, capsys,
                                                       tmp_path):
        # the pass decides the leg without building Phi_{1,20000}, whose
        # degree has about 9500 digits
        path = tmp_path / "cert.json"
        code = main(["relation", "--m", "2", "--n", "1", "--c", "1",
                     "--d", "20000", "--force", "--trials", "0",
                     "--family", "x^3+a", "--out", str(path)])
        captured = capsys.readouterr()
        digits = sys.get_int_max_str_digits()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: cofactor degree of the (1, 20000) leg has more than "
            f"{digits} digits, past Python's int-to-str limit\n")
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["necklace", "--d", "1000000000000"],
        ["cyclo-factors", "--necklace", "1000000000000"],
    ])
    def test_out_of_memory_is_one_line_error(self, capsys, monkeypatch, argv):
        def exhausted(d):
            raise MemoryError
        monkeypatch.setattr(dynlab.cli, "necklace_poly", exhausted)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"


def test_scan_helpers_consistent():
    rows = scan_rows(20, 10)
    csv = "".join(scan_csv(rows))
    assert csv.count("\n") == len(rows) + 1
    svg = "".join(scan_svg(rows, 20, 10))
    assert svg.count("height=\"2\"") == len(rows)


class TestWritePieces:
    """Long pieces go out in slices; the bytes are those of the join."""

    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    @staticmethod
    def pieces(size):
        return ["head\n", "a" * size, "\u00e9" * size,
                ("x\u20ac\U0001F600" * size)[:size], "short", "\n" * size,
                "\U0001F600" * size, "tail"]

    @pytest.mark.parametrize("size", [_SLICE - 1, _SLICE, _SLICE + 1])
    def test_file_holds_exactly_the_joined_pieces(self, tmp_path, size):
        pieces = self.pieces(size)
        path = tmp_path / "out.txt"
        _write_file(str(path), pieces)
        assert path.read_bytes() == ("".join(pieces) + "\n").encode("utf-8")
        _write_file(str(path), pieces + ["\n"])
        assert path.read_bytes() == ("".join(pieces) + "\n").encode("utf-8")

    @pytest.mark.parametrize("size", [_SLICE - 1, _SLICE, _SLICE + 1])
    def test_a_generator_of_pieces_writes_the_same(self, size):
        pieces = self.pieces(size)
        listed, streamed = self.Recorder(), self.Recorder()
        _write_pieces(listed, pieces)
        _write_pieces(streamed, iter(pieces))
        assert streamed.writes == listed.writes
        empty = self.Recorder()
        _write_pieces(empty, iter(()))
        assert empty.writes == ["\n"]

    @pytest.mark.parametrize("size", [_SLICE - 1, _SLICE, _SLICE + 1])
    def test_no_write_is_longer_than_a_slice(self, size):
        pieces = self.pieces(size)
        handle = self.Recorder()
        _write_pieces(handle, pieces)
        assert "".join(handle.writes) == "".join(pieces) + "\n"
        assert max(map(len, handle.writes)) == min(size, _SLICE)
        short = [p for p in pieces if len(p) <= _SLICE]
        assert all(any(w is p for w in handle.writes) for p in short)


class TestCommandJsonEncodedOnce:
    """One encoding serves both the written file and ``--format json``."""

    def test_cover_stdout_equals_certificate(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        code, out = run_cli(capsys, "cover", "--d", "66356058851", "--n",
                            "266", "--certificate", str(path),
                            "--format", "json")
        assert code == 3
        assert out.encode("utf-8") == path.read_bytes()

    def test_relation_stdout_equals_out_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out = run_cli(capsys, "relation", "--m", "1", "--n", "2",
                            "--c", "1", "--d", "3", "--trials", "3",
                            "--out", str(path), "--format", "json")
        assert code == 0
        assert out.encode("utf-8") == path.read_bytes()


class TestJsonAllOrNothing:
    """The whole JSON document is rendered before the first byte is written."""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit in this Python")
    def test_unprintable_certificate_writes_nothing(self, capsys, tmp_path):
        # the cofactor degree of (1, 1, 0, 20000) has about 6000 digits
        path = tmp_path / "cert.json"
        code = main(["relation", "--m", "1", "--n", "1", "--c", "0",
                     "--d", "20000", "--trials", "0", "--format", "json",
                     "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not path.exists()

    def test_unwritable_certificate_prints_nothing(self, capsys, tmp_path):
        code = main(["cover", "--d", "525", "--n", "40", "--certificate",
                     str(tmp_path / "missing" / "c.json"), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


def test_import_loads_every_layer_but_not_dataclasses_or_json():
    # a fresh interpreter: only the modules that importing dynlab.cli adds
    src = Path(dynlab.__file__).resolve().parent.parent
    probe = ("import sys; before = set(sys.modules); import dynlab.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    added = set(subprocess.run([sys.executable, "-c", probe], env=env,
                               check=True, capture_output=True,
                               text=True).stdout.split())
    layers = {f"dynlab.{name}" for name in (
        "numtheory", "polycore", "necklace", "cyclotomic", "characters",
        "dynatomic")}
    assert layers <= added
    assert not {"dataclasses", "json"} & added


_TUPLE = RelationTuple(m=1, n=2, c=1, d=3)

# (record, its repr, a field to assign to)
RECORDS = [
    (factorize(12), "Factorization(value=12, factors=((2, 2), (3, 1)))",
     "value"),
    (cyclo_factor_scan(parse_polynomial("x^3 - x", QQ)),
     "CycloFactorReport(input_degree=3, x_multiplicity=1, "
     "cyclo_indices=((1, 1), (2, 1)), cofactor_degree=0, "
     "cofactor=<1 over QQ>)", "cofactor"),
    (unit_group(5), "UnitGroup(modulus=5, generators=((2, 4),), "
     "dlog={1: (0,), 2: (1,), 4: (2,), 3: (3,)}, exponent=4)", "exponent"),
    (Character(group=unit_group(5), exponents=(1,)),
     "Character(group=UnitGroup(modulus=5, generators=((2, 4),), "
     "dlog={1: (0,), 2: (1,), 4: (2,), 3: (3,)}, exponent=4), "
     "exponents=(1,))", "exponents"),
    (covers(2, 5), "CoverCertificate(d=2, n=5, usable_primes=(2,), "
     "covered=False, witnesses=(((0,), 2), ((1,), None), ((2,), None), "
     "((3,), None)), failing_character=(1,))", "covered"),
    (_TUPLE, "RelationTuple(m=1, n=2, c=1, d=3)", "d"),
    (relation_conditions(_TUPLE),
     "ConditionReport(cond1=True, cond2=True, cond3=True, alt=False)", "alt"),
    (DivisibilityEvidence(family="x^2+a", ring="Q[a]", seed=None,
                          divides=True, cofactor_degree=2,
                          remainder_degree=None),
     "DivisibilityEvidence(family='x^2+a', ring='Q[a]', seed=None, "
     "divides=True, cofactor_degree=2, remainder_degree=None)", "divides"),
    (RelationCertificate(indices=_TUPLE,
                         conditions=relation_conditions(_TUPLE),
                         evidence=()),
     "RelationCertificate(indices=RelationTuple(m=1, n=2, c=1, d=3), "
     "conditions=ConditionReport(cond1=True, cond2=True, cond3=True, "
     "alt=False), evidence=())", "evidence"),
]


class TestRecords:
    @pytest.mark.parametrize("record,text,field", RECORDS,
                             ids=[type(r[0]).__name__ for r in RECORDS])
    def test_repr_keywords_and_frozen(self, record, text, field):
        assert repr(record) == text
        assert type(record)(**record._asdict()) == record
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    @pytest.mark.parametrize("build", [
        lambda: Factorization(value=12, factors=((2, 1), (3, 1))),
        lambda: Factorization(value=4, factors=((4, 1),)),
        lambda: Factorization(value=6, factors=((3, 1), (2, 1))),
        lambda: Factorization(value=1, factors=((2, 0),)),
        lambda: Character(group=unit_group(5), exponents=(4,)),
        lambda: Character(group=unit_group(5), exponents=(1, 0)),
        lambda: RelationTuple(m=0, n=0, c=0, d=1),
        lambda: RelationTuple(m=0, n=1, c=-1, d=1),
    ])
    def test_validated_records_refuse(self, build):
        with pytest.raises(DomainError):
            build()
