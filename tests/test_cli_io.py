"""File formats, determinism, CLI subcommands and exit codes."""

import importlib
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tubegap.cli import main
from tubegap.config import RunConfig
from tubegap.datafiles import (
    RESULT_COLUMNS,
    read_results_csv,
    read_tr_csv,
    write_results_csv,
    write_tr_csv,
)
from tubegap.errors import ConfigError
from tubegap.retrieval import RetrievedProperties
from tubegap.types import ScatteringData

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
        config = RunConfig.from_file(cfg_path, overrides={"sweep.count": "2"})
        assert len(config.sweep_frequencies()) == 2

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
                branch_m=1, sign_choice=-1, condition_number=1.23e7,
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
        path = tmp_path / "broken.csv"
        path.write_text("f_hz,re_t,im_t,re_r,im_r\n100,0.5,0.1,abc,0\n")
        with pytest.raises(ConfigError, match="broken.csv:2"):
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
        return main(list(argv))

    def test_forward_then_retrieve(self, cfg_path, tmp_path, capsys):
        tr = tmp_path / "tr.csv"
        out = tmp_path / "props.csv"
        assert self.run("forward", "--config", str(cfg_path), "--method", "averaged",
                        "--output", str(tr)) == 0
        assert self.run("retrieve", "--config", str(cfg_path), "--input", str(tr),
                        "--output", str(out)) == 0
        rows = read_results_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert row["n1"].real == pytest.approx(5.0, rel=1e-6)
            assert row["z1_over_z2_mag"] == pytest.approx(15.0, rel=1e-6)
        # the sidecar exists and is timestamp-free deterministic text
        assert (tmp_path / "props.csv.meta").exists()

    def test_byte_identical_reruns(self, cfg_path, tmp_path):
        tr1, tr2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run("forward", "--config", str(cfg_path), "--output", str(tr1)) == 0
        assert self.run("forward", "--config", str(cfg_path), "--output", str(tr2)) == 0
        assert tr1.read_bytes() == tr2.read_bytes()
        assert (tmp_path / "a.csv.meta").read_bytes() == (tmp_path / "b.csv.meta").read_bytes()

    def test_roundtrip_command_averaged(self, cfg_path, capsys):
        assert self.run("roundtrip", "--config", str(cfg_path), "--method", "averaged",
                        "--tolerance", "1e-6") == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_roundtrip_over_tolerance_fails(self, cfg_path, capsys):
        code = self.run("roundtrip", "--config", str(cfg_path), "--method", "averaged",
                        "--tolerance", "1e-30")
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

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
    ])
    def test_bad_numbers_are_validation_errors(self, cfg_path, tmp_path, capsys, argv):
        """Non-finite or malformed values, a zero sample index or impedance
        and a resolution below the minimum end in exit 1 and one error
        line, not a traceback, argparse's usage error (exit 2), a silent
        PASS or a written file."""
        extra = ["--output", str(tmp_path / "x.csv")] if argv[0] == "forward" else []
        code = self.run(*argv, "--config", str(cfg_path), *extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "PASS" not in captured.out
        assert not (tmp_path / "x.csv").exists()

    def test_modes_table(self, cfg_path, capsys):
        assert self.run("modes", "--config", str(cfg_path), "--modes", "3",
                        "--freq", "5000") == 0
        out = capsys.readouterr().out
        assert "2988" in out          # first cutoff
        assert "propagating" in out   # 5000 Hz is above mode-1 cutoff

    def test_missing_input_is_validation_error(self, cfg_path, tmp_path, capsys):
        code = self.run("retrieve", "--config", str(cfg_path),
                        "--input", str(tmp_path / "nope.csv"),
                        "--output", str(tmp_path / "out.csv"))
        assert code == 1

    def test_empty_input_reports_no_data(self, cfg_path, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("f_hz,re_t,im_t,re_r,im_r\n")
        code = self.run("retrieve", "--config", str(cfg_path), "--input", str(empty),
                        "--output", str(tmp_path / "out.csv"))
        assert code == 1
        assert "no data rows" in capsys.readouterr().err

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

    def test_forward_above_cutoff_refuses(self, cfg_path, tmp_path, capsys):
        """The sweep 400, 1400, 2400, 3400 Hz crosses the 2988 Hz cutoff;
        the refusal names 3400 Hz and the override flag."""
        code = self.run("forward", "--config", str(cfg_path),
                        "--set", "sweep.stop=3400", "--output", str(tmp_path / "x.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep reaches 3400.0 Hz, above the first duct cutoff")
        assert "--allow-above-cutoff" in err
        assert not (tmp_path / "x.csv").exists()

    def test_retrieve_above_cutoff_refuses_like_forward(self, cfg_path, tmp_path, capsys):
        tr, out = tmp_path / "tr.csv", tmp_path / "props.csv"
        above = ("--config", str(cfg_path), "--set", "sweep.stop=3400")
        assert self.run("forward", *above, "--output", str(tmp_path / "x.csv")) == 1
        forward_err = capsys.readouterr().err
        assert self.run("forward", *above, "--output", str(tr), "--allow-above-cutoff") == 0
        capsys.readouterr()
        assert self.run("retrieve", "--config", str(cfg_path), "--input", str(tr),
                        "--output", str(out)) == 1
        assert capsys.readouterr().err == forward_err
        assert not out.exists()

    def test_branch_seed_flag(self, cfg_path, tmp_path):
        tr = tmp_path / "tr.csv"
        out = tmp_path / "props.csv"
        assert self.run("forward", "--config", str(cfg_path), "--set", "sweep.count=1",
                        "--output", str(tr)) == 0
        assert self.run("retrieve", "--config", str(cfg_path), "--input", str(tr),
                        "--output", str(out), "--branch-seed", "1") == 0
        row = read_results_csv(out)[0]
        assert row["branch_m"] == 1

    def test_field_dump_needs_fdfd(self, cfg_path, tmp_path, capsys):
        tr, dump = tmp_path / "tr.csv", tmp_path / "field.csv"
        code = self.run("forward", "--config", str(cfg_path), "--method", "averaged",
                        "--output", str(tr), "--dump-field", str(dump))
        assert code == 1
        assert "--dump-field" in capsys.readouterr().err
        assert not tr.exists() and not dump.exists()

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


class TestTracerSites:
    """The names benchmarks/tracing.py wraps, at the sites where it looks
    them up; a site that stops resolving makes its per-layer metrics read 0."""

    # sites whose code is gone on purpose: their metrics read 0 until the
    # benchmark drops them
    RETIRED = {"tubegap.cli.scattering_from_ports"}

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

        for name in ("build_scene", "solve_harmonic"):
            assert getattr(cli_module, name) is getattr(fdfd_module, name)
        assert callable(fdfd_module.spla.splu)

    def test_one_factorization_per_point(self, cfg_path, tmp_path, monkeypatch):
        import tubegap.cli as cli_module
        import tubegap.fdfd as fdfd_module

        calls = {"splu": 0, "solve_harmonic": 0}
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

        monkeypatch.setattr(fdfd_module.spla, "splu", counted("splu", fdfd_module.spla.splu))
        monkeypatch.setattr(cli_module, "solve_harmonic",
                            counted("solve_harmonic", cli_module.solve_harmonic))
        monkeypatch.setattr(cli_module, "build_scene", recorded)
        code = main(["forward", "--config", str(cfg_path), "--method", "fdfd",
                     "--set", "oracle.cells_per_wavelength=20",
                     "--output", str(tmp_path / "tr.csv")])
        assert code == 0
        assert calls == {"splu": 4, "solve_harmonic": 4}
        (scene,) = scenes
        assert scene.nx > 0 and scene.nr > 0 and scene.n_pml == 0
