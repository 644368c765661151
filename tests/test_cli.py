import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from lpow.cli import build_parser, main
from lpow.sweeps import read_csv


def run_cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "lpow", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def reported_value(line: str) -> float:
    return float(line.split("=", 1)[1].split()[0])


class TestReport:
    def test_singlet_quantities(self):
        proc = run_cli(
            "report", "--state", "singlet", "--quantities", "s_chsh,horodecki_m"
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("s_chsh = ")
        assert abs(reported_value(lines[0]) - 2.0 * math.sqrt(2.0)) < 1e-12
        assert "lhv=2.0" in lines[0]
        assert lines[1].startswith("horodecki_m = ")
        assert abs(reported_value(lines[1]) - math.sqrt(2.0)) < 1e-12

    def test_state_parameters_parsed(self):
        proc = run_cli(
            "report", "--state", "werner:p=0.5", "--quantities", "s_chsh"
        )
        assert proc.returncode == 0
        assert abs(reported_value(proc.stdout) - math.sqrt(2.0)) < 1e-12

    def test_converged_column_present(self):
        proc = run_cli(
            "report",
            "--state",
            "pure_product:theta_a=0,theta_b=0",
            "--quantities",
            "s_chsh_lpo",
            "--restarts",
            "16",
            "--seed",
            "0",
        )
        assert proc.returncode == 0
        assert "converged: yes" in proc.stdout
        assert "geometry_free=4.0" in proc.stdout

    def test_unknown_quantity_is_usage_error(self):
        proc = run_cli("report", "--state", "singlet", "--quantities", "bogus")
        assert proc.returncode == 2
        assert "unknown quantity" in proc.stderr

    def test_unknown_family_is_usage_error(self):
        proc = run_cli("report", "--state", "nope", "--quantities", "s_chsh")
        assert proc.returncode == 2

    def test_malformed_state_parameter(self):
        proc = run_cli("report", "--state", "werner:p", "--quantities", "s_chsh")
        assert proc.returncode == 2
        assert "key=value" in proc.stderr

    def test_non_numeric_state_parameter(self):
        proc = run_cli("report", "--state", "werner:p=x", "--quantities", "s_chsh")
        assert proc.returncode == 2

    def test_repeated_state_parameter_is_usage_error(self):
        proc = run_cli(
            "report", "--state", "werner:p=0.1,p=0.9", "--quantities", "horodecki_m"
        )
        assert proc.returncode == 2
        assert "'p' given more than once" in proc.stderr
        assert proc.stdout == ""

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["report", "--state", "singlet", "--quantities", "s_chsh", "--seed", "-1"]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err

    def test_cg_without_theta_is_usage_error(self):
        proc = run_cli("report", "--state", "cg", "--quantities", "s_chsh")
        assert proc.returncode == 2
        assert "missing parameter(s) ['theta'] for family 'cg'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cg_near_the_domain_ends_is_solved(self):
        for theta in ("1e-9", "1.5707963257948965"):
            proc = run_cli("report", "--state", f"cg:theta={theta}", "--quantities", "s_chsh")
            assert proc.returncode == 0, proc.stderr
            assert abs(reported_value(proc.stdout) - 2.0) <= 1e-14

    def test_non_finite_state_parameter_is_named(self):
        proc = run_cli(
            "report", "--state", "classical:theta=nan,beta=0", "--quantities", "s_chsh"
        )
        assert proc.returncode != 0
        assert "theta" in proc.stderr


class TestSweep:
    def test_inline_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "w.csv"
        proc = run_cli(
            "sweep",
            "--state", "werner",
            "--param", "p",
            "--grid", "0:1:5",
            "--quantities", "s_chsh,bloch_norm_a",
            "--seed", "0",
            "--restarts", "8",
            "--out", str(out),
        )
        assert proc.returncode == 0
        header, columns = read_csv(out)
        assert header == ["param", "s_chsh", "bloch_norm_a"]
        assert len(columns["param"]) == 5

    def test_creates_missing_output_directory(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "w.csv"
        proc = run_cli(
            "sweep",
            "--state", "werner",
            "--param", "p",
            "--grid", "0:1:3",
            "--quantities", "horodecki_m",
            "--out", str(out),
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_config_file_drives_multiple_sweeps(self, tmp_path):
        cfg = tmp_path / "sweeps.ini"
        cfg.write_text(
            f"""
[werner]
family = werner
param = p
grid = 0:1:3
quantities = s_chsh
out = {tmp_path / 'a.csv'}
restarts = 8
seed = 1

[classical]
family = classical
param = theta
grid = 0:1.5:3
quantities = i2222_lpo_tilde
fixed = beta=0.0
out = {tmp_path / 'b.csv'}
"""
        )
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 0
        assert (tmp_path / "a.csv").exists()
        assert (tmp_path / "b.csv").exists()
        header, _ = read_csv(tmp_path / "b.csv")
        assert header == ["param", "i2222_lpo_tilde"]

    def test_config_sections_write_the_inline_bytes(self, tmp_path):
        # One section sets fixed, restarts and seed; the other takes the defaults.
        quantities = "i3322_tilde,s_chsh_lpo"
        cfg = tmp_path / "pair.ini"
        cfg.write_text(
            f"[tuned]\nfamily = classical\nparam = theta\ngrid = 0.1:1.5:3\nquantities = {quantities}\n"
            f"fixed = beta=0.3\nrestarts = 8\nseed = 5\nout = {tmp_path / 'cfg-tuned.csv'}\n"
            f"[plain]\nfamily = transition\nparam = p\ngrid = 0.1:0.9:3\nquantities = {quantities}\n"
            f"out = {tmp_path / 'cfg-plain.csv'}\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        tuned = ["--state", "classical:beta=0.3", "--param", "theta", "--grid", "0.1:1.5:3",
                 "--restarts", "8", "--seed", "5"]
        plain = ["--state", "transition", "--param", "p", "--grid", "0.1:0.9:3"]
        for name, args in (("tuned", tuned), ("plain", plain)):
            out = tmp_path / f"{name}.csv"
            assert main(["sweep", *args, "--quantities", quantities, "--out", str(out)]) == 0
            assert (tmp_path / f"cfg-{name}.csv").read_bytes() == out.read_bytes()

    def test_config_missing_keys_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[s]\nfamily = werner\n")
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 2
        assert "missing" in proc.stderr

    def test_config_repeated_fixed_parameter_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "twice.ini"
        cfg.write_text(
            "[c]\nfamily = classical\nparam = theta\ngrid = 0:1:2\n"
            f"quantities = s_chsh\nfixed = beta=0.0, beta=0.5\nout = {tmp_path / 'c.csv'}\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "'beta' given more than once" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_empty_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("")
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        proc = run_cli("sweep", "--config", str(tmp_path / "absent.ini"))
        assert proc.returncode == 3

    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        out = blocker / "sub" / "w.csv"
        proc = run_cli(
            "sweep",
            "--state", "werner",
            "--param", "p",
            "--grid", "0:1:3",
            "--quantities", "horodecki_m",
            "--out", str(out),
        )
        assert proc.returncode == 3

    def test_inline_requires_all_flags(self):
        proc = run_cli("sweep", "--state", "werner", "--param", "p")
        assert proc.returncode == 2
        assert "--grid" in proc.stderr or "sweep needs" in proc.stderr

    def test_malformed_grid(self, tmp_path):
        proc = run_cli(
            "sweep",
            "--state", "werner",
            "--param", "p",
            "--grid", "0-1-5",
            "--quantities", "s_chsh",
            "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        args = ["--param", "p", "--grid", "0:1:2", "--quantities", "horodecki_m"]
        code = main(["sweep", "--state", "werner", *args, "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_warnings_on_stderr_with_success_exit(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = run_cli(
            "sweep",
            "--state", "werner",
            "--param", "p",
            "--grid", "0:1:3",
            "--quantities", "mermin",
            "--out", str(out),
        )
        assert proc.returncode == 0
        assert "warning:" in proc.stderr
        _, columns = read_csv(out)
        assert all(c != c for c in columns["mermin"])  # all NaN


class TestPlot:
    @pytest.fixture
    def csv(self, tmp_path):
        out = tmp_path / "w.csv"
        proc = run_cli(
            "sweep",
            "--state", "werner",
            "--param", "p",
            "--grid", "0:1:5",
            "--quantities", "s_chsh,horodecki_m",
            "--out", str(out),
        )
        assert proc.returncode == 0
        return out

    def test_all_columns_by_default(self, csv, tmp_path):
        svg = tmp_path / "w.svg"
        proc = run_cli("plot", str(csv), "--out", str(svg))
        assert proc.returncode == 0
        text = svg.read_text()
        assert text.count('<polyline class="series"') == 2

    def test_selected_columns_and_bounds(self, csv, tmp_path):
        svg = tmp_path / "sel.svg"
        proc = run_cli(
            "plot", str(csv), "--quantities", "s_chsh", "--bounds", "2.0", "--out", str(svg)
        )
        assert proc.returncode == 0
        text = svg.read_text()
        assert text.count('<polyline class="series"') == 1
        assert 'data-bound="2"' in text

    def test_missing_column_is_usage_error(self, csv, tmp_path):
        proc = run_cli(
            "plot", str(csv), "--quantities", "bogus", "--out", str(tmp_path / "x.svg")
        )
        assert proc.returncode == 2
        assert "column" in proc.stderr

    def test_missing_csv_is_io_error(self, tmp_path):
        proc = run_cli(
            "plot", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x.svg")
        )
        assert proc.returncode == 3

    def test_missing_out_flag_is_usage_error(self, csv):
        proc = run_cli("plot", str(csv))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty file"), ("param,a\n", "no data rows"), ("param,a\n0,1\n\n1\n", "line 4")],
    )
    def test_malformed_csv_is_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        svg = tmp_path / "bad.svg"
        assert main(["plot", str(path), "--out", str(svg)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not svg.exists()

    def test_non_numeric_cell_names_file_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "nn.csv"
        path.write_text("param,a\n0,abc\n")
        svg = tmp_path / "nn.svg"
        assert main(["plot", str(path), "--out", str(svg)]) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 2, column 'a': not a number: 'abc'" in err
        assert not svg.exists()

    @pytest.mark.parametrize(
        "text, bounds, message",
        [
            ("param,a\n0,1\n1,2\n", "inf", "bounds must be finite"),
            ("param,a\n0,1\n1,2\n", "1.0,nan", "bounds must be finite"),
            ("param,a\n0,1\nnan,2\n", "1.0", "x values must all be finite"),
        ],
        ids=["inf-bound", "nan-bound", "nan-param"],
    )
    def test_non_finite_bound_or_param_is_usage_error(self, tmp_path, capsys, text, bounds, message):
        path = tmp_path / "ok.csv"
        path.write_text(text)
        svg = tmp_path / "b.svg"
        assert main(["plot", str(path), "--bounds", bounds, "--out", str(svg)]) == 2
        assert message in capsys.readouterr().err
        assert not svg.exists()

    def test_svg_text_is_escaped(self, tmp_path):
        path = tmp_path / "r&d.csv"
        path.write_text('t&x,a<b "q"\n0,1\n1,2\n')
        svg = tmp_path / "r.svg"
        assert main(["plot", str(path), "--out", str(svg)]) == 0
        root = ET.parse(svg).getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert {"r&d", "t&x", 'a<b "q"'} <= set(texts)
        names = [p.get("data-name") for p in root.iter("{http://www.w3.org/2000/svg}polyline")]
        assert names == ['a<b "q"']


class TestEntryPoints:
    def test_main_callable_directly(self, capsys):
        code = main(["report", "--state", "singlet", "--quantities", "s_chsh"])
        assert code == 0
        assert "s_chsh" in capsys.readouterr().out

    def test_usage_error_exit_code_from_main(self, capsys):
        assert main(["report", "--state", "singlet", "--quantities", "zzz"]) == 2

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_shared_parser_keeps_no_state_between_parses(self):
        parser = build_parser()
        argv = ["report", "--state", "singlet", "--quantities", "s_chsh"]
        assert parser.parse_args([*argv, "--seed", "5"]).seed == 5
        assert parser.parse_args(argv).seed is None

    def test_one_qubit_bloch_norm_line(self, capsys):
        code = main(["report", "--state", "pure_product:theta_a=0.7", "--quantities", "bloch_norm_a"])
        assert code == 0
        assert capsys.readouterr().out == (
            "bloch_norm_a = 0.9999999999999999  bounds: unit=1.0  converged: yes\n"
        )


def test_import_does_not_load_scipy():
    # lpow depends on numpy alone; importing scipy would add about half a
    # second to every command.
    code = "import sys, lpow; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
