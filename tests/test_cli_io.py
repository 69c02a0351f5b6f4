"""File formats, determinism, CLI subcommands and exit codes."""

import ast
import collections
import errno
import importlib
import importlib.metadata
import importlib.util
import math
import os
import re
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubegap
from tubegap.cli import main
from tubegap.config import RunConfig
from tubegap.datafiles import (
    RESULT_COLUMNS,
    file_name,
    read_results_csv,
    read_tr_csv,
    write_field_csv,
    write_results_csv,
    write_tr_csv,
)
from tubegap.errors import ConfigError
from tubegap.retrieval import RetrievedProperties
from tubegap.types import GapProperties, MaterialSpec, ScatteringData
from test_acceptance import MEDIUM, SAMPLE1, SAMPLE2

SAMPLE1_CFG = """\
geometry.r1 = 0.040
geometry.r2 = 0.070
geometry.t  = 0.0052
material.n1_re = 5
material.z1_over_z2 = 15
sweep.start = 400
sweep.stop = 1600
sweep.count = 4
"""
SAMPLE1_Z2 = GapProperties.from_geometry(SAMPLE1, MEDIUM).z2


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE1_CFG)
    return path


class TestConfig:
    def test_defaults_and_file(self, cfg_path):
        config = RunConfig.from_file(cfg_path)
        assert config.geometry().r1 == 0.040
        assert config.values["medium.c0"] == 343.0
        assert config.material().n1 == 5.0
        assert len(config.sweep_frequencies()) == 4

    def test_overrides_win(self, cfg_path):
        config = RunConfig.from_file(cfg_path, overrides={"sweep.count": "2",
                                                          "retrieve.allow_above_cutoff": "Off"})
        assert len(config.sweep_frequencies()) == 2
        assert config.retrieval().allow_above_cutoff is False

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("geometry.radius = 0.04\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(bad)

    def test_bad_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sweep.count = many\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(bad)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_float_rejected(self, cfg_path, tmp_path, raw):
        with pytest.raises(ConfigError, match="finite"):
            RunConfig.from_file(cfg_path, overrides={"roundtrip.tolerance": raw})
        path = tmp_path / "nan.cfg"
        path.write_text(f"oracle.cells_per_wavelength = {raw}\n")
        with pytest.raises(ConfigError, match="finite"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("key", ["oracle.max_cells", "solver.max_condition", "modal.tolerance"])
    def test_retired_keys_unknown(self, tmp_path, key):
        path = tmp_path / "old.cfg"
        path.write_text(f"{key} = 1000\n")
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("text, message", [
        ("geometry.r1 0.04\n", "bad.cfg:1: expected 'key = value', got 'geometry.r1 0.04'"),
        ("geometry.r2 = 0.07\ngeometry.t = 0.005\n", "missing required config key 'geometry.r1'"),
    ])
    def test_malformed_or_incomplete_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig.from_file(path).geometry()

    def test_shipped_configs(self):
        """configs/sample1.cfg and sample2.cfg are the acceptance samples
        (n1 = 5, z1/z2 = 15 and n1 = 7, z1/z2 = 10), and configs/air.cfg's
        material is MaterialSpec.air to 1e-15."""
        configs = Path(__file__).resolve().parents[1] / "configs"
        for name, geometry, n1, z_ratio in (("sample1", SAMPLE1, 5.0, 15.0),
                                            ("sample2", SAMPLE2, 7.0, 10.0)):
            config = RunConfig.from_file(configs / f"{name}.cfg")
            z2 = GapProperties.from_geometry(geometry, MEDIUM).z2
            assert (config.geometry(), config.medium()) == (geometry, MEDIUM)
            assert config.material() == MaterialSpec(n1=n1, z1=z_ratio * z2)
        config = RunConfig.from_file(configs / "air.cfg")
        air, material = MaterialSpec.air(config.geometry(), config.medium()), config.material()
        assert material.n1 == air.n1
        assert abs(material.z1 - air.z1) <= 1e-15 * abs(air.z1)

    def test_material_needs_impedance(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("geometry.r1=0.04\ngeometry.r2=0.07\ngeometry.t=0.005\nmaterial.n1_re=2\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path).material()


class TestDataFiles:
    def test_tr_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        data = [
            ScatteringData(
                f=float(f),
                transmission=complex(rng.normal(), rng.normal()),
                reflection=complex(rng.normal(), rng.normal()),
            )
            for f in np.linspace(300.0, 2000.0, 7)
        ]
        path = tmp_path / "tr.csv"
        write_tr_csv(path, data, comments=["test sweep"])
        back = read_tr_csv(path)
        for orig, re_read in zip(data, back):
            assert re_read.f == orig.f
            assert re_read.transmission == orig.transmission
            assert re_read.reflection == orig.reflection

    def test_results_round_trip_bitwise(self, tmp_path):
        results = [
            RetrievedProperties(
                f=500.0, n1=5.000000000123 - 1e-13j, z1=431234.56789 + 12.3j,
                branch_m=1, sign_choice=-1, condition_number=1.23e7, residual=1e-16,
                flags=("above_cutoff",),
            )
        ]
        path = tmp_path / "out.csv"
        write_results_csv(path, results, z2=2e5 + 0j)
        row = read_results_csv(path)[0]
        assert row["n1"] == results[0].n1
        assert row["z1"] == results[0].z1
        assert row["branch_m"] == 1 and row["sign"] == -1
        assert row["flags"] == ("above_cutoff",)

    def test_malformed_lines_report_position(self, tmp_path):
        """A non-numeric cell, a wrong header and a wrong column count name
        their line; a file of comments only has no header row."""
        path = tmp_path / "broken.csv"
        for text, message in [
            ("f_hz,re_t,im_t,re_r,im_r\n100,0.5,0.1,abc,0\n", "broken.csv:2: non-numeric value"),
            ("# sweep\nf,re_t,im_t,re_r,im_r\n100,0.5,0.1,0.2,0\n",
             "broken.csv:2: expected header 'f_hz,re_t,im_t,re_r,im_r', got 'f,re_t"),
            ("f_hz,re_t,im_t,re_r,im_r\n100,0.5,0.1,0.2\n", "broken.csv:2: expected 5 columns, got 4"),
            ("# only comments\n# here\n", "broken.csv: no header row found"),
        ]:
            path.write_text(text)
            with pytest.raises(ConfigError, match=re.escape(message)):
                read_tr_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f_hz,re_t,im_t,re_r,im_r\n")
        with pytest.raises(ConfigError, match="no data rows"):
            read_tr_csv(path)

    def test_invalid_row_keeps_reason_and_line(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("# sweep\nf_hz,re_t,im_t,re_r,im_r\n-5,0.5,0.1,0.2,0\n")
        with pytest.raises(ConfigError,
                           match=re.escape("neg.csv:3: frequency must be positive, got -5.0")):
            read_tr_csv(path)

    def test_results_reader_checks_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        header = ",".join(RESULT_COLUMNS)
        path.write_text(f"{header}\n500,5,0,1e5,0,15,0,1,abc,\n")
        with pytest.raises(ConfigError, match="out.csv:2: non-numeric value"):
            read_results_csv(path)
        path.write_text(f"# nothing retrieved\n{header}\n")
        with pytest.raises(ConfigError, match="no data rows"):
            read_results_csv(path)


class TestCli:
    def run(self, *argv):
        try:
            return main(list(argv))
        except SystemExit as exc:
            return exc.code

    def test_forward_then_retrieve(self, tmp_path):
        """A forward then retrieve recovers n1 and z1, set as z1/z2 or as a
        complex z1 by material.z1_re and material.z1_im, and writes a sidecar."""
        for name, material, z1 in (
                ("ratio", "material.z1_over_z2 = 15\n", 15.0 * SAMPLE1_Z2),
                ("complex", "material.z1_re = 600000.0\nmaterial.z1_im = -40000.0\n",
                 complex(6.0e5, -4.0e4))):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(SAMPLE1_CFG.replace("material.z1_over_z2 = 15\n", material))
            assert RunConfig.from_file(cfg).material().z1 == z1
            tr = tmp_path / f"{name}_tr.csv"
            out = tmp_path / f"{name}_props.csv"
            assert self.run("forward", "--config", str(cfg), "--method", "averaged",
                            "--output", str(tr)) == 0
            assert self.run("retrieve", "--config", str(cfg), "--input", str(tr),
                            "--output", str(out)) == 0
            rows = read_results_csv(out)
            assert len(rows) == 4, name
            for row in rows:
                assert row["n1"].real == pytest.approx(5.0, rel=1e-6)
                assert row["z1_over_z2_mag"] == pytest.approx(abs(z1 / SAMPLE1_Z2), rel=1e-6)
                assert abs(row["z1"] - z1) / abs(z1) < 1e-8, name
            # the sidecar is timestamp-free deterministic text: tool, command, configuration
            assert (tmp_path / f"{name}_props.csv.meta").read_text().startswith(
                f"# run metadata\ntool = tubegap {tubegap.__version__}\ncommand = retrieve\n"
                "# resolved configuration\n")

    def test_byte_identical_reruns(self, cfg_path, tmp_path):
        tr1, tr2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run("forward", "--config", str(cfg_path), "--output", str(tr1)) == 0
        assert self.run("forward", "--config", str(cfg_path), "--output", str(tr2)) == 0
        assert tr1.read_bytes() == tr2.read_bytes()
        assert (tmp_path / "a.csv.meta").read_bytes() == (tmp_path / "b.csv.meta").read_bytes()

    def test_roundtrip_command_averaged(self, cfg_path, capsys):
        """The same round trip passes at 1e-6 and fails with exit 2 at 1e-30."""
        for tolerance, code, verdict in (("1e-6", 0, "PASS"), ("1e-30", 2, "FAIL")):
            assert self.run("roundtrip", "--config", str(cfg_path), "--method", "averaged",
                            "--tolerance", tolerance) == code
            out = capsys.readouterr().out
            assert verdict in out
            # each printed median is the median of the four printed per-point errors
            rows = [line.split() for line in out.splitlines()[2:6]]
            for column, name in ((3, "n1"), (4, "z1/z2")):
                median = re.search(rf"{re.escape(name)}: median (\S+),", out).group(1)
                errors = [float(row[column]) for row in rows]
                assert float(median) == pytest.approx(statistics.median(errors), rel=1e-2, abs=0)

    @pytest.mark.parametrize("argv", [
        ("forward", "--method", "fdfd", "--set", "oracle.cells_per_wavelength=nan"),
        ("forward", "--method", "fdfd", "--set", "oracle.cells_per_wavelength=inf"),
        ("forward", "--method", "fdfd", "--set", "oracle.cells_per_wavelength=-5"),
        ("roundtrip", "--method", "averaged", "--tolerance", "nan"),
        ("roundtrip", "--method", "averaged", "--set", "medium.c0=nan"),
        ("roundtrip", "--method", "averaged", "--tolerance", "abc"),
        ("forward", "--method", "averaged", "--modes", "x"),
        ("modes", "--freq", "x"),
        ("forward", "--method", "averaged", "--set", "material.z1_over_z2=0"),
        ("forward", "--method", "fdfd", "--set", "material.z1_over_z2=0"),
        ("forward", "--method", "averaged", "--set", "material.n1_re=0"),
        ("forward", "--method", "fdfd", "--set", "material.n1_re=0"),
        ("forward", "--method", "averaged", "--set", "material.z1_im=-5e5"),
        ("forward", "--method", "averaged", "--set", "material.z1_re=1000"),
        ("roundtrip", "--method", "averaged", "--tolerance", "-1"),
        ("roundtrip", "--method", "both", "--set", "roundtrip.tolerance=-1e-9"),
        ("modes", "--freq", "0"),
        ("modes", "--freq", "-5"),
        ("forward", "--method", "averaged", "--set", "sweep.count"),
        ("forward", "--method", "averaged", "--set", "sweep.cnt=3"),
        ("forward", "--method", "averaged", "--set", "retrieve.allow_above_cutoff=maybe"),
        ("forward", "--method", "averaged", "--set", "sweep.count=0"),
        ("forward", "--method", "averaged", "--set", "sweep.start=1600"),
        ("forward", "--method", "averaged", "--set", "medium.c0=-1"),
    ])
    def test_bad_numbers_are_validation_errors(self, cfg_path, tmp_path, capsys, argv):
        """Non-finite or malformed values, a zero sample index or impedance,
        a resolution below the minimum, a material key that would be
        ignored (z1_im without z1_re, or z1_re beside z1_over_z2), a
        negative round-trip tolerance, a mode-table frequency that is not
        positive, an override without '=' or of an unknown key, a boolean
        that is neither true nor false, an empty or backward sweep and a
        negative sound speed end in exit 1 and one error line, not a
        traceback, a usage error (exit 2), a silent PASS or a written file."""
        extra = ["--output", str(tmp_path / "x.csv")] if argv[0] == "forward" else []
        code = self.run(*argv, "--config", str(cfg_path), *extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert captured.out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_modes_table(self, cfg_path, capsys):
        assert self.run("modes", "--config", str(cfg_path), "--modes", "3",
                        "--freq", "5000") == 0
        out = capsys.readouterr().out
        assert "2988" in out          # first cutoff
        # 5000 Hz lies between the cutoffs of modes 1 (2988 Hz) and 2 (5471 Hz)
        states = [line.split()[-1] for line in out.splitlines()[2:5]]
        assert states == ["propagating", "propagating", "evanescent"]

    # each case's command line, run with --config run.cfg unless it names a
    # config, and the one error line it must end in
    NOT_TEXT = ("binary.csv: not a text file ('utf-8' codec can't decode byte 0xff in "
                "position 0: invalid start byte)")
    EMPTY = "cannot write to an empty path"
    REFUSALS = {
        "input_folder": ("retrieve --input folder --output out.csv",
                         "[Errno 21] Is a directory: 'folder'"),
        "input_binary": ("retrieve --input binary.csv --output out.csv", NOT_TEXT),
        "input_missing": ("retrieve --input nope.csv --output out.csv",
                          "[Errno 2] No such file or directory: 'nope.csv'"),
        "input_empty": ("retrieve --input empty.csv --output out.csv", "empty.csv: no data rows"),
        "input_out_of_order": ("retrieve --input twice.csv --output out.csv",
                               "sweep frequencies must be strictly increasing: point 1 "
                               "(counting from 0) is 500.0 Hz, after 500.0 Hz"),
        "config_folder": ("forward --config folder --output out.csv",
                          "[Errno 21] Is a directory: 'folder'"),
        "config_binary": ("forward --config binary.csv --output out.csv", NOT_TEXT),
        "output_folder": ("forward --output folder", "cannot write folder: it is a folder"),
        "output_missing_parent": ("forward --output nowhere/out.csv",
                                  "cannot write nowhere/out.csv: its folder does not exist"),
        "output_empty": ("forward --output=", EMPTY),
        # the unreadable input shows that the output is checked first
        "retrieve_output_empty": ("retrieve --input binary.csv --output ''", EMPTY),
        "dump_empty": ("forward --method fdfd --output out.csv --dump-field=", EMPTY),
        "dump_needs_fdfd": ("forward --method averaged --output out.csv --dump-field field.csv",
                            "--dump-field needs --method fdfd, got --method averaged"),
        "dump_folder": ("forward --method fdfd --output out.csv --dump-field folder",
                        "cannot write folder: it is a folder"),
        "dump_is_output": ("forward --method fdfd --output out.csv --dump-field out.csv",
                           "cannot write out.csv: another output of this command goes there"),
        "dump_is_sidecar": ("forward --method fdfd --output out.csv --dump-field out.csv.meta",
                            "cannot write out.csv.meta: another output of this command goes there"),
        "sidecar_folder": ("forward --output held.csv", "cannot write held.csv.meta: it is a folder"),
        "retrieve_sidecar_folder": ("retrieve --input tr.csv --output held.csv",
                                    "cannot write held.csv.meta: it is a folder"),
        "retrieve_output_folder": ("retrieve --input tr.csv --output folder",
                                   "cannot write folder: it is a folder"),
        "output_is_input": ("retrieve --input tr.csv --output tr.csv",
                            "cannot write tr.csv: it is an input of this command"),
        "output_is_config": ("forward --output run.cfg",
                             "cannot write run.cfg: it is an input of this command"),
        "sidecar_is_config": ("forward --config sweep.csv.meta --output sweep.csv",
                              "cannot write sweep.csv.meta: it is an input of this command"),
        "dump_is_config": ("forward --method fdfd --output out.csv --dump-field run.cfg",
                           "cannot write run.cfg: it is an input of this command"),
        "output_symlinks_input": ("retrieve --input tr.csv --output link.csv",
                                  "cannot write link.csv: it is an input of this command"),
        "output_hard_links_input": ("retrieve --input tr.csv --output hard.csv",
                                    "cannot write hard.csv: it is an input of this command"),
        "dump_symlinks_config": ("forward --method fdfd --output out.csv --dump-field cfg.lnk",
                                 "cannot write cfg.lnk: it is an input of this command"),
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_unreadable_paths_are_validation_errors(self, cfg_path, tmp_path, capsys, case,
                                                    monkeypatch):
        """A folder, a binary or a missing file, or a sweep with no rows or
        out of order, where an input belongs; an output that is empty, is a
        folder, whose folder does not exist, that another output takes or
        that is an input, by name or through a link; or a field dump
        without the simulator: each ends in exit 1 and one error line naming
        it, not a traceback, before any sweep runs, and leaves every file as
        it was."""
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the paths were checked")

        monkeypatch.setattr("tubegap.retrieval.upstream_coupling", no_sweep)
        monkeypatch.setattr("tubegap.cli.build_scene", no_sweep)
        monkeypatch.chdir(tmp_path)
        point = ScatteringData(f=500.0, transmission=0.9 + 0j, reflection=0.1 + 0j)
        write_tr_csv("tr.csv", [point])
        write_tr_csv("twice.csv", [point, point])
        Path("empty.csv").write_text("f_hz,re_t,im_t,re_r,im_r\n")
        Path("binary.csv").write_bytes(b"\xff\xfe\x00\x80" * 8)
        Path("sweep.csv.meta").write_text(SAMPLE1_CFG)
        Path("folder").mkdir()
        Path("held.csv.meta").mkdir()
        os.symlink("tr.csv", "link.csv")
        os.link("tr.csv", "hard.csv")
        os.symlink("run.cfg", "cfg.lnk")
        files = lambda: {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        before = files()
        command, message = self.REFUSALS[case]
        argv = shlex.split(command)
        if "--config" not in argv:
            argv[1:1] = ["--config", "run.cfg"]
        code = self.run(*argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert files() == before

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("argv", [("--help",), ("modes", "--modes", "3")])
    def test_closed_stdout_ends_quietly(self, cfg_path, buffered, argv):
        """A reader that closes before the output arrives (``tubegap --help |
        head -1`` when head wins the race) ends the command with exit 1 and
        nothing on stderr: no error line and no message at shutdown, whether
        stdout is written as the command runs or flushed at its end."""
        if argv[0] == "modes":
            argv += ("--config", str(cfg_path))
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(tubegap.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            done = subprocess.run([sys.executable, "-m", "tubegap.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")

    def test_files_named_as_pathlib_names_them(self, cfg_path, tmp_path, capsys):
        """``datafiles.file_name`` gives ``str(pathlib.Path(name))``, and
        names with repeated slashes or ``.`` components write, refuse and
        report the files that pathlib names them, as when the CLI opened
        files through pathlib."""
        for name in ("", ".", "/", "//", "///", "a//b/./c/", "//a/../b", "./x", "a/.", "..",
                     "x\\y/ z", "/./", str(tmp_path) + "/"):
            assert file_name(name) == str(Path(name)), name
        assert file_name(tmp_path) == str(tmp_path)
        run = ("forward", "--config", str(cfg_path), "--set", "sweep.count=2")
        assert self.run(*run, "--output", f"{tmp_path}//./tr.csv") == 0
        assert read_tr_csv(tmp_path / "tr.csv") and (tmp_path / "tr.csv.meta").is_file()
        assert self.run(*run, "--output", f"{tmp_path}/./missing//tr.csv") == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path}/missing/tr.csv: its folder does not exist\n")
        assert self.run("retrieve", "--config", f"{tmp_path}//none.cfg", "--input", "x.csv",
                        "--output", str(tmp_path / "out.csv")) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{tmp_path}/none.cfg'\n")
        # a folder name too long to look up is an error, not a missing folder
        long = f"{tmp_path}/{'a' * 300}/tr.csv"
        assert self.run(*run, "--output", long) == 1
        assert capsys.readouterr().err == (f"error: [Errno {errno.ENAMETOOLONG}] "
                                           f"{os.strerror(errno.ENAMETOOLONG)}: '{long}'\n")
        data = [ScatteringData(f=500.0, transmission=0.9 + 0j, reflection=0.1 + 0j)]
        write_tr_csv(f"{tmp_path}/t.csv/", data)
        assert read_tr_csv(f"{tmp_path}/./t.csv/") == read_tr_csv(tmp_path / "t.csv") == data

    @pytest.mark.parametrize("case", ["forward_phase", "forward_thickness",
                                      "retrieve_overflowing_sum", "retrieve_huge_tr",
                                      "retrieve_thickness"])
    def test_overflows_are_numerical_errors(self, cfg_path, tmp_path, capsys, case):
        """Numbers that overflow or swamp the half systems (a sample phase
        whose cosine overflows, a thickness of 1e308 whose sample or gap
        phase overflows, a half reflection R + T that overflows to inf, one
        of 2e300 beside one of 0) end in exit 2 and one numerical-error line
        naming the frequency, not a traceback or a written file."""
        tr, out = tmp_path / "tr.csv", tmp_path / "out.csv"
        if case.startswith("forward"):
            setting = {"forward_phase": "material.n1_im=-1e5",
                       "forward_thickness": "geometry.t=1e308"}[case]
            argv, f = ("forward", "--set", setting), 400.0
        else:
            row = {"retrieve_overflowing_sum": "1000,1e308,0,1e308,0",
                   "retrieve_huge_tr": "1000,1e300,0,1e300,0",
                   "retrieve_thickness": "1000,0.5,0,0.5,0"}[case]
            tr.write_text(f"f_hz,re_t,im_t,re_r,im_r\n{row}\n")
            argv, f = ("retrieve", "--input", str(tr)), 1000.0
            if case == "retrieve_thickness":
                argv += ("--set", "geometry.t=1e308")
        code = self.run(*argv, "--config", str(cfg_path), "--output", str(out))
        err = capsys.readouterr().err
        assert code == 2
        errors = [line for line in err.splitlines() if line.startswith("numerical error:")]
        assert len(errors) == 1 and errors[0].endswith(f" at {f} Hz")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("forward", "--method", "fdfd", "--set", "geometry.t=1e308"),
        ("forward", "--method", "fdfd", "--set", "material.n1_re=1e308"),
        ("roundtrip", "--set", "geometry.t=1e308")], ids=["fdfd_thickness", "fdfd_index",
                                                          "roundtrip_thickness"])
    def test_overflowing_set_up_is_a_numerical_error(self, cfg_path, tmp_path, capsys, argv):
        """Finite settings whose first-point phase or scene sizing overflows
        (a thickness of 1e308 m; an index of 1e308, whose wavelength is 0)
        end in exit 2 and one numerical-error line, not a traceback or a
        written file."""
        out = ("--output", str(tmp_path / "out.csv")) if argv[0] == "forward" else ()
        code = self.run(*argv, "--config", str(cfg_path), *out)
        err = capsys.readouterr().err
        assert code == 2
        assert len([line for line in err.splitlines() if line.startswith("numerical error:")]) == 1
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_single_frequency_warns_about_branch(self, cfg_path, tmp_path, capsys):
        tr = tmp_path / "one.csv"
        k0t = 2 * math.pi * 500.0 / 343.0 * 0.0052
        write_tr_csv(tr, [ScatteringData(f=500.0,
                                         transmission=complex(math.cos(k0t), -math.sin(k0t)),
                                         reflection=0.0)])
        code = self.run("retrieve", "--config", str(cfg_path), "--input", str(tr),
                        "--output", str(tmp_path / "out.csv"))
        assert code == 0
        assert "unwrapping is undetermined" in capsys.readouterr().err

    def test_forward_warns_past_branch_zero(self, cfg_path, tmp_path, capsys):
        """n1 = 200 on sample 1 puts 400 Hz at k0 |Re(n1)| t = 7.62 > pi; the
        sweep is still written as before, with a warning on stderr that
        names the seed, round(k0 Re(n1) t / 2 pi) = 1, in both its forms, and
        roundtrip warns the same way.  n1 = -200 is as far past branch 0,
        on the seed -1."""
        tr, plain = tmp_path / "tr.csv", tmp_path / "plain.csv"
        assert self.run("forward", "--config", str(cfg_path), "--output", str(plain)) == 0
        assert "warning" not in capsys.readouterr().err
        code = self.run("forward", "--config", str(cfg_path), "--set", "material.n1_re=200",
                        "--output", str(tr))
        assert code == 0
        err = capsys.readouterr().err
        warning = "warning: k0*|Re(n1)|*t = 7.62 > pi at the first sweep point, 400.0 Hz"
        assert err.startswith(warning)
        assert "--branch-seed 1 (--set branch.seed=1)" in err
        assert len(read_tr_csv(tr)) == 4
        self.run("roundtrip", "--config", str(cfg_path), "--set", "material.n1_re=200")
        assert capsys.readouterr().err.startswith(warning)
        code = self.run("forward", "--config", str(cfg_path), "--set", "material.n1_re=-200",
                        "--output", str(tr))
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith(warning)
        assert "--branch-seed -1 (--set branch.seed=-1)" in err

    def test_retrieve_above_cutoff_refuses_like_forward(self, cfg_path, tmp_path, capsys):
        tr, out = tmp_path / "tr.csv", tmp_path / "props.csv"
        above = ("--config", str(cfg_path), "--set", "sweep.stop=3400")
        assert self.run("forward", *above, "--output", str(tmp_path / "x.csv")) == 1
        forward_err = capsys.readouterr().err
        # the sweep 400, 1400, 2400, 3400 Hz crosses the 2988 Hz cutoff
        assert forward_err.startswith("error: sweep reaches 3400.0 Hz, above the first duct cutoff")
        assert "--allow-above-cutoff" in forward_err
        assert not (tmp_path / "x.csv").exists()
        assert self.run("forward", *above, "--output", str(tr), "--allow-above-cutoff") == 0
        capsys.readouterr()
        assert self.run("retrieve", "--config", str(cfg_path), "--input", str(tr),
                        "--output", str(out)) == 1
        assert capsys.readouterr().err == forward_err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["forward", "roundtrip"])
    def test_fdfd_refuses_the_scenes_cutoff_like_the_continuums(self, tmp_path, capsys,
                                                                command):
        """The 7-ring scene of configs/air.cfg lets mode 1 propagate from
        2951 Hz, below the continuum's 2988.2 Hz: a sweep from 2960 Hz is
        refused before any solve, naming that frequency and the flag, and
        with the flag each simulator warning is one warning line."""
        cfg = Path(__file__).resolve().parents[1] / "configs" / "air.cfg"
        tr = tmp_path / "tr.csv"
        argv = [command, "--config", str(cfg), "--method", "fdfd", "--set", "sweep.start=2960",
                "--set", "sweep.stop=2980", "--set", "sweep.count=3"]
        argv += ["--output", str(tr)] if command == "forward" else []
        assert self.run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not tr.exists()
        assert captured.err.startswith(
            "error: on the simulator's grid, 2960.0 Hz is above the first duct cutoff")
        assert captured.err.count("\n") == 1 and "--allow-above-cutoff" in captured.err
        assert self.run(*argv, "--allow-above-cutoff") == 0
        warned = capsys.readouterr().err.splitlines()
        assert [line.split(" Hz is above")[0] for line in warned] == [
            "warning: 2960.0", "warning: 2970.0", "warning: 2980.0"]

    def test_roundtrip_both_refuses_before_it_prints(self, capsys):
        """``roundtrip --method both`` runs the fdfd half's refusal (the air
        sample's scene cutoff at 2951 Hz) before the averaged half prints its
        table: one error line and nothing on stdout."""
        cfg = Path(__file__).resolve().parents[1] / "configs" / "air.cfg"
        code = self.run("roundtrip", "--method", "both", "--config", str(cfg),
                        "--set", "sweep.start=2960", "--set", "sweep.stop=2980",
                        "--set", "sweep.count=3")
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            captured.err.rstrip("\n")]

    def test_branch_seed_flag(self, cfg_path, tmp_path, capsys):
        """A one-point sweep is retrieved on the seed given, and the warning
        names that seed; a negative seed is a value, not an option."""
        tr = tmp_path / "tr.csv"
        out = tmp_path / "props.csv"
        assert self.run("forward", "--config", str(cfg_path), "--set", "sweep.count=1",
                        "--output", str(tr)) == 0
        for seed in (1, -1):
            capsys.readouterr()
            assert self.run("retrieve", "--config", str(cfg_path), "--input", str(tr),
                            "--output", str(out), "--branch-seed", str(seed)) == 0
            row = read_results_csv(out)[0]
            assert row["branch_m"] == seed
            assert f"using seed m={seed}" in capsys.readouterr().err

    def test_fdfd_forward_with_field_dump(self, cfg_path, tmp_path):
        tr = tmp_path / "tr_sim.csv"
        dump = tmp_path / "field.csv"
        code = self.run(
            "forward", "--config", str(cfg_path), "--method", "fdfd",
            "--set", "sweep.count=1", "--set", "sweep.start=800",
            "--set", "oracle.cells_per_wavelength=20", "--set", "oracle.f_min=800",
            "--output", str(tr), "--dump-field", str(dump),
        )
        assert code == 0
        header = dump.read_text().splitlines()[0]
        assert header == "x_m,r_m,re_p,im_p"
        assert len(read_tr_csv(tr)) == 1
        # the nt + 2 solved columns (the sample's nt and one air column on
        # each side) times the nr rings, column by column
        x, r = np.loadtxt(dump, delimiter=",", skiprows=1, usecols=(0, 1), unpack=True)
        t, r2 = 0.0052, 0.070
        columns, rings = np.unique(x), np.unique(r)
        nt = int(np.count_nonzero((columns > 0) & (columns < t)))
        assert len(x) == (nt + 2) * len(rings)
        assert np.array_equal(x, np.repeat(columns, len(rings)))
        assert np.array_equal(r, np.tile(rings, nt + 2))
        dx, dr = t / nt, 2 * rings[0]
        assert columns[0] < 0 and columns[-1] > t
        assert np.allclose(columns, (np.arange(nt + 2) - 0.5) * dx, rtol=0, atol=1e-15)
        assert np.allclose(columns + columns[::-1], t, rtol=0, atol=1e-15)
        assert np.allclose(rings, (np.arange(len(rings)) + 0.5) * dr, rtol=0, atol=1e-15)
        assert len(rings) * dr == pytest.approx(r2, rel=5e-3)

    def test_field_dump_reuses_the_sweeps_solve(self, cfg_path, tmp_path, monkeypatch):
        """--dump-field takes the last frequency's field from the sweep's own
        solve: one _solve_fields call for the 4-point sweep, and the dump is
        byte for byte that of the field solved alone."""
        import tubegap.cli as cli_module
        import tubegap.fdfd as fdfd_module

        calls, scenes = [], []
        solve, build_scene = fdfd_module._solve_fields, cli_module.build_scene

        def counted(scene, freqs):
            calls.append(list(freqs))
            return solve(scene, freqs)

        def recorded(*args, **kwargs):
            scenes.append(build_scene(*args, **kwargs))
            return scenes[-1]

        monkeypatch.setattr(fdfd_module, "_solve_fields", counted)
        monkeypatch.setattr(cli_module, "build_scene", recorded)
        dump, alone = tmp_path / "field.csv", tmp_path / "alone.csv"
        assert self.run("forward", "--config", str(cfg_path), "--method", "fdfd",
                        "--set", "oracle.cells_per_wavelength=20",
                        "--output", str(tmp_path / "tr.csv"), "--dump-field", str(dump)) == 0
        assert calls == [[400.0, 800.0, 1200.0, 1600.0]]
        write_field_csv(alone, *next(fdfd_module.sweep_fields(scenes[0], [1600.0]))[1])
        assert dump.read_bytes() == alone.read_bytes()

    # every command's one-line help and its options' help texts (None where
    # an option's help is not pinned)
    COMMAND_HELP = {
        "retrieve": ("invert a T,R sweep file into n1, z1", {
            "--input": "T,R sweep CSV", "--output": "results CSV to write",
            "--branch-seed": "branch m of the phase k0 n1 t at the first point",
            "--modes": "modal truncation", "--allow-above-cutoff": None}),
        "forward": ("generate a T,R sweep", {
            "--method": None, "--output": None, "--modes": None, "--allow-above-cutoff": None,
            "--dump-field": "also dump the last frequency's pressure field (fdfd)"}),
        "roundtrip": ("forward then retrieve, report errors", {
            "--method": None, "--tolerance": "median relative error bound", "--modes": None,
            "--allow-above-cutoff": None}),
        "modes": ("print the duct mode table", {
            "--modes": "how many modes to list",
            "--freq": "mark propagating/evanescent at this frequency"}),
    }
    COMMON_HELP = {"--config": "configuration file (key = value lines)",
                   "--set": "override a config value (repeatable; wins over the file)"}

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", [None, *COMMAND_HELP])
    def test_help_names_every_command_and_option(self, command, flag, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")   # no wrapped help lines
        code = self.run(flag) if command is None else self.run(command, flag)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.startswith("usage: tubegap")
        text = " ".join(captured.out.split())
        if command is None:
            pinned = {name: about for name, (about, _) in self.COMMAND_HELP.items()}
            pinned["--version"] = None
        else:
            pinned = {**self.COMMON_HELP, **self.COMMAND_HELP[command][1]}
        for name, about in pinned.items():
            assert name in text
            assert about is None or about in text

    def test_version(self, capsys):
        assert self.run("--version") == 0
        assert capsys.readouterr().out == f"tubegap {tubegap.__version__}\n"

    def test_main_returns_usage_and_help_codes(self, capsys):
        """``main`` returns the exit code of a usage error or a help request
        rather than raising ``SystemExit``; the console script exits with it."""
        assert main(["forward"]) == 2
        assert main(["forward", "--help"]) == 0
        assert main(["--version"]) == 0

    def test_equals_and_unique_prefixes(self, cfg_path, tmp_path):
        """``--name=value`` and an unambiguous prefix of a long option parse
        as the full option does."""
        tr1, tr2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run("forward", f"--config={cfg_path}", f"--output={tr1}") == 0
        assert self.run("forward", "--conf", str(cfg_path), "--out", str(tr2),
                        "--meth=averaged", "--allow") == 0
        assert tr1.read_bytes() == tr2.read_bytes()

    def test_repeated_options(self, cfg_path, tmp_path, capsys):
        """``--set`` applies in order, so the later of two equal keys wins;
        a repeated value option keeps its last value."""
        tr = tmp_path / "tr.csv"
        assert self.run("forward", "--config", str(cfg_path), "--set", "sweep.count=2",
                        "--set", "sweep.start=500", "--set", "sweep.count=3",
                        "--output", str(tr)) == 0
        assert [row.f for row in read_tr_csv(tr)] == [500.0, 1050.0, 1600.0]
        capsys.readouterr()
        assert self.run("modes", "--config", str(cfg_path), "--modes", "2",
                        "--modes", "3") == 0
        assert ", 3 modes" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        (),
        ("fit",),
        ("--bogus",),
        ("forward", "--bogus", "1"),
        ("forward", "stray"),
        ("forward", "-x"),
        ("forward", "--output"),
        ("forward", "--output", "--modes", "3"),
        ("forward", "--m", "3"),
        ("forward", "--allow-above-cutoff=yes"),
        ("forward", "--method", "exact"),
        ("roundtrip", "--method", "mixed"),
        ("retrieve", "--input", "tr.csv"),
    ])
    def test_usage_errors(self, cfg_path, tmp_path, capsys, argv):
        """No command or an unknown one, an unknown option or stray token, a
        missing value, an ambiguous prefix, a value on a flag, a bad choice
        and a missing required option exit 2 with a usage line and an error
        line on stderr, before any work."""
        extra = []
        if argv and argv[0] in ("forward", "retrieve"):
            extra = ["--config", str(cfg_path), "--output", str(tmp_path / "x.csv")]
            if argv[0] == "retrieve":
                extra = extra[:2]
        code = self.run(*argv[:1], *extra, *argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert re.search(r"^usage: tubegap", captured.err, re.M)
        assert re.search(r"^tubegap( \w+)?: error: ", captured.err, re.M)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


class TestTracerSites:
    """The names benchmarks/tracing.py wraps, at the sites where it looks
    them up; a site that stops resolving makes its per-layer metrics read 0."""

    # sites whose code is gone on purpose: their metrics read 0 until the
    # benchmark drops them
    RETIRED = {"tubegap.cli.scattering_from_ports", "tubegap.fdfd.spla.splu",
               "tubegap.retrieval.retrieve_point", "tubegap.retrieval.forward_averaged",
               "tubegap.retrieval.coupling_coefficients", "tubegap.cli.solve_harmonic",
               "tubegap.retrieval.assemble_system", "tubegap.retrieval.solve_fields"}

    def test_every_site_resolves(self):
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
        spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        targets = {}
        for module_name, attr, _, _ in tracing.SITES:
            target = importlib.import_module(module_name)
            for part in attr.split("."):
                target = getattr(target, part, None)
            targets[f"{module_name}.{attr}"] = target
        assert self.RETIRED <= targets.keys()
        for name, target in targets.items():
            if name in self.RETIRED:
                assert target is None, f"{name} exists again; take it off RETIRED"
            else:
                assert callable(target), f"{name} no longer resolves"

    def test_fdfd_sites_resolve(self):
        import tubegap.cli as cli_module
        import tubegap.fdfd as fdfd_module

        for name in ("build_scene", "sweep_fields"):
            assert getattr(cli_module, name) is getattr(fdfd_module, name)

    def test_one_factorization_per_point(self, cfg_path, tmp_path, monkeypatch):
        """One scene basis, one sweep call, one end-column solve per point:
        the sample span's radial basis is built once per scene, the CLI
        solves the sweep in one call, and each frequency factors one dense
        system (its even and odd halves in one batched call)."""
        import tubegap.cli as cli_module
        import tubegap.fdfd as fdfd_module

        calls = {"span_basis": 0, "solve": 0, "sweep_fields": 0}
        scenes = []
        build_scene = cli_module.build_scene

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def recorded(*args, **kwargs):
            scenes.append(build_scene(*args, **kwargs))
            return scenes[-1]

        monkeypatch.setattr(fdfd_module, "_span_basis",
                            counted("span_basis", fdfd_module._span_basis))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(cli_module, "sweep_fields",
                            counted("sweep_fields", cli_module.sweep_fields))
        monkeypatch.setattr(cli_module, "build_scene", recorded)
        code = main(["forward", "--config", str(cfg_path), "--method", "fdfd",
                     "--set", "oracle.cells_per_wavelength=20",
                     "--output", str(tmp_path / "tr.csv")])
        assert code == 0
        assert calls == {"span_basis": 1, "solve": 4, "sweep_fields": 1}
        (scene,) = scenes
        assert scene.nx > 0 and scene.nr > 0 and scene.n_pml == 0


def test_fdfd_forward_meets_the_benchmark_gate(tmp_path, monkeypatch):
    """``forward --method fdfd`` on the benchmark's reference scene (lossless
    sample 1, n1 = 5, z1/z2 = 15, 45 points from 300 to 2500 Hz, written
    by the benchmark's own ``fdfd_config``) stays within the benchmark's
    1e-6 of the recorded reference at every point (1.2e-7 measured)."""
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    cfg = workloads.write_config(tmp_path / "ref.cfg", workloads.fdfd_config(300.0, 45))
    tr = tmp_path / "tr.csv"
    assert main(["forward", "--config", str(cfg), "--method", "fdfd", "--output", str(tr)]) == 0
    reference = workloads.read_reference()
    data = read_tr_csv(tr)
    assert [d.f for d in data] == sorted(reference) and len(data) == 45
    for d in data:
        t_ref, r_ref = reference[d.f]
        assert max(abs(d.transmission - t_ref), abs(d.reflection - r_ref)) <= 1e-6, d.f


def test_cli_and_averaged_roundtrip_load_no_slow_modules(cfg_path):
    """Neither importing the CLI nor an averaged round trip to 1e-10, of one
    point at the default truncation or at 200 modes or of sample 1's
    45-point sweep, loads numpy or any scipy module: the averaged path is
    plain Python with its own Bessel functions, and it searches the J1
    roots past the 127-root table itself.  The CLI parses its arguments
    from its own command table, so argparse and gettext stay out too, and
    its medians need no statistics module.  The package's records are
    namedtuples, so dataclasses and inspect stay out as well."""
    src = str(Path(tubegap.__file__).resolve().parents[1])
    probe = ("import contextlib, io, sys, tubegap.cli\n"
             "def slow_modules():\n"
             "    return sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy'))\n"
             "                  or m in ('argparse', 'gettext', 'statistics', 'dataclasses',\n"
             "                           'inspect'))\n"
             "print('import', *slow_modules())\n"
             "for extra in (['sweep.count=1'], ['sweep.count=1', '--modes', '200'],\n"
             "              ['sweep.start=300', '--set', 'sweep.stop=2500',\n"
             "               '--set', 'sweep.count=45']):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = tubegap.cli.main(['roundtrip', '--config', sys.argv[1], "
             "'--method', 'averaged', '--tolerance', '1e-10', '--set', *extra])\n"
             "    print('roundtrip', extra[-1], code, *slow_modules())\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe, str(cfg_path)], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout.splitlines() == ["import", "roundtrip sweep.count=1 0", "roundtrip 200 0",
                                        "roundtrip sweep.count=45 0"]


def test_cli_without_site_loads_no_typing_or_pathlib(cfg_path, tmp_path):
    """Under ``python -S``, where ``site`` preloads nothing, neither importing
    the CLI nor an averaged forward and retrieve, which read the config and
    the sweep and write both files and their sidecars, loads ``typing``,
    ``pathlib`` or ``re``: the modules guard their annotation-only imports
    with a plain ``TYPE_CHECKING = False`` and open files by name."""
    src = str(Path(tubegap.__file__).resolve().parents[1])
    tr, out = tmp_path / "tr.csv", tmp_path / "out.csv"
    probe = ("import contextlib, io, sys, tubegap.cli\n"
             "def loaded():\n"
             "    return sorted(m for m in ('typing', 'pathlib', 're') if m in sys.modules)\n"
             "print('import', *loaded())\n"
             "cfg, tr, out = sys.argv[1:]\n"
             "for argv in (['forward', '--method', 'averaged', '--output', tr],\n"
             "             ['retrieve', '--input', tr, '--output', out]):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = tubegap.cli.main([*argv, '--config', cfg, '--set', 'sweep.count=3'])\n"
             "    print(argv[0], code, *loaded())\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(cfg_path), str(tr), str(out)],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    assert done.stdout.splitlines() == ["import", "forward 0", "retrieve 0"]
    assert len(read_results_csv(out)) == 3 and Path(str(out) + ".meta").is_file()


def test_simulator_loads_numpy_only_to_build_a_scene(cfg_path):
    """``import tubegap.fdfd`` loads no numpy, and ``build_scene`` does."""
    src = str(Path(tubegap.__file__).resolve().parents[1])
    probe = ("import sys, tubegap.fdfd\n"
             "from tubegap.types import DuctGeometry\n"
             "print('import', 'numpy' in sys.modules)\n"
             "tubegap.fdfd.build_scene(None, DuctGeometry(r1=0.04, r2=0.07, t=0.0052), 2500.0)\n"
             "print('build_scene', 'numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.splitlines() == ["import False", "build_scene True"]


def test_sweep_frequencies_are_linspace_bit_for_bit(tmp_path, monkeypatch):
    """``RunConfig.sweep_frequencies`` gives ``numpy.linspace``'s points, bit
    for bit, on the shipped configs, the 300-2500 Hz 45-point grid and every
    6-point grid of the benchmark's simulator workload."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "benchmarks"))
    workloads = importlib.import_module("workloads")
    configs = [RunConfig.from_file(path) for path in sorted((root / "configs").glob("*.cfg"))]
    assert len(configs) == 3
    grids = [(300.0, 2500.0, 45)] + [(start, 2500.0, 6) for start in workloads.fdfd_starts(6)]
    assert len(grids) > 2
    for start, stop, count in grids:
        configs.append(RunConfig.from_file(None, overrides={
            "sweep.start": repr(start), "sweep.stop": repr(stop), "sweep.count": str(count)}))
    for config in configs:
        values = config.values
        expected = np.linspace(values["sweep.start"], values["sweep.stop"],
                               values["sweep.count"])
        assert np.array(config.sweep_frequencies()).tobytes() == expected.tobytes()


def test_top_level_exports_the_sweep_workflow():
    """``tubegap.__all__`` is the README's sweep workflow and every name in it
    resolves; building blocks are imported from their own modules."""
    workflow = {
        "ConfigError", "ConvergenceError", "DegenerateSampleError", "DomainError",
        "IllConditionedSystemError", "ResolutionError", "SingularMeasurementError",
        "TubegapError",
        "DuctGeometry", "GapProperties", "MaterialSpec", "MediumProperties", "ScatteringData",
        "RetrievalConfig", "RetrievedProperties", "forward_averaged_sweep", "retrieve_sweep",
        "SimGrid", "build_scene", "solve_sweep", "sweep_fields",
    }
    assert len(tubegap.__all__) == len(workflow) and set(tubegap.__all__) == workflow
    namespace = {}
    exec("from tubegap import *", namespace)
    assert workflow <= namespace.keys()


def test_every_package_definition_is_used():
    """Each top-level function and class under src/tubegap is referred to
    by other package code, is in ``tubegap.__all__``, or is imported from
    the package by the acceptance suite or the benchmark; each method or
    property of a package class, dunders aside, is referred to by package
    code outside itself or read as an attribute by the acceptance suite or
    the benchmark.  One that only other tests reach is dead code (names
    are read with ast, not strings)."""
    root = Path(__file__).resolve().parents[1]

    def names(node):
        return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr
                                   for n in ast.walk(node)
                                   if isinstance(n, (ast.Name, ast.Attribute)))

    used, read = set(tubegap.__all__), set()
    for path in [root / "tests" / "test_acceptance.py", *(root / "benchmarks").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tubegap"):
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    referred, definitions, members = collections.Counter(), [], []
    for path in sorted((root / "src").rglob("*.py")):
        for statement in ast.parse(path.read_text(), str(path)).body:
            referred.update(names(statement))
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a recursive call is no use from elsewhere
                definitions.append((path.stem, statement.name, names(statement)[statement.name]))
            if isinstance(statement, ast.ClassDef):
                members += [(f"{path.stem}.{statement.name}.{member.name}", member.name,
                             names(member)[member.name]) for member in statement.body
                            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (member.name[:2] == member.name[-2:] == "__")]
    unused = [f"{module}.{name}" for module, name, own in definitions
              if referred[name] == own and name not in used]
    assert not unused, unused
    assert members
    unused = [qualified for qualified, name, own in members
              if referred[name] == own and name not in read]
    assert not unused, unused


def test_every_third_party_import_is_declared():
    """Three rules on pyproject.toml (read as text, as tomllib needs Python
    3.11): each third-party module imported under src/ is a distribution in
    ``dependencies``; each of those is imported under src/; and each
    imported under tests/ is in ``dependencies`` or the test extra.  So
    neither a runtime import of a test-only distribution nor a dependency
    that the package no longer imports passes."""
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()

    def normalized(names):
        return {name.lower().replace("_", "-") for name in names}

    def declared(key):
        block = re.search(rf"^{key} = \[(.*?)\]", pyproject, re.M | re.S).group(1)
        return normalized(re.findall(r'"([\w.-]+)', block))

    local = {"tubegap"} | {path.stem for path in (root / "tests").glob("*.py")}
    distributions = importlib.metadata.packages_distributions()

    def imported(paths):
        """Each third-party module imported by ``paths``, with the
        distributions that provide it and the first file that imports it."""
        found = {}
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for top in {name.split(".")[0] for name in names} - sys.stdlib_module_names - local:
                    found.setdefault(top, (normalized(distributions.get(top, [top])),
                                           path.relative_to(root)))
        return found

    def undeclared(found, allowed):
        return sorted(f"{top} ({path})" for top, (provided, path) in found.items()
                      if not provided & allowed)

    runtime, test_extra = declared("dependencies"), declared("test")
    package = imported(sorted((root / "src").rglob("*.py")))
    assert not undeclared(package, runtime)
    assert not runtime - set().union(*(provided for provided, _ in package.values()))
    assert not undeclared(imported(sorted((root / "tests").glob("*.py"))), runtime | test_extra)
