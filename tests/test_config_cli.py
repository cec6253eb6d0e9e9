import json
import os
import re
import stat
from pathlib import Path

import pytest

from bessim import cli, errors
from bessim.allocator import PsoParams
from bessim.cli import main
from bessim.config import load_config, parse_config
from bessim.errors import BessimError, ConfigError
from bessim.profiles import load_profile_to_csv, synth_load
from bessim.scheduler import LoadProfile, horizon_metrics, replay_horizon
from bessim.simulate import plan_horizon
from test_analysis import metrics_row_by_fstring
from test_scheduler import days_of


def base_doc(days=1):
    return {
        "plant": {"n_clusters": 4, "dt_s": 300},
        "schedule": {"power_depth_w": 200e3, "rated_energy_wh": 800e3},
        "load": {
            "seed": 3,
            "synth": {
                "base_w": 1.2e6, "valley_depth_w": 0.3e6,
                "valley_sigma_h": 1.5, "morning_peak_w": 0.0,
                "evening_peak_w": 0.3e6, "evening_sigma_h": 0.8,
                "noise_rel": 0.003, "day_jitter": 0.02,
                "dt_s": 300, "days": days,
            },
        },
        "allocator": {"pso": {"particles": 6, "max_iterations": 5}},
    }


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_doc()))
    return str(path)


class TestParseConfig:
    def test_defaults_from_empty_doc(self):
        cfg = parse_config({})
        assert len(cfg.plant.clusters) == 100
        assert cfg.schedule.power_depth_w == 5e6
        assert cfg.allocator.mode == "balanced"
        assert cfg.load.source == "synthetic"

    def test_sha256_stable_under_key_order(self):
        a = parse_config({"schedule": {"power_depth_w": 1e6}, "load": {"seed": 2}})
        b = parse_config({"load": {"seed": 2}, "schedule": {"power_depth_w": 1e6}})
        assert a.sha256() == b.sha256()

    def test_pso_defaults_come_from_pso_params(self):
        assert parse_config({}).allocator.pso == PsoParams()

    def test_bad_method_names_field(self):
        with pytest.raises(ConfigError) as e:
            parse_config({"schedule": {"method": "magic"}})
        assert e.value.field == "schedule.method"

    def test_depth_above_plant_power_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config({"plant": {"n_clusters": 2},
                          "schedule": {"power_depth_w": 200e3}})
        assert e.value.field == "schedule.power_depth_w"

    # the 200 kW depth of base_doc against a transformer's 1.2 overload
    @pytest.mark.parametrize("rated_power_w,ok", [(166_667.0, True),
                                                  (166_666.0, False)])
    def test_depth_above_transformer_overload_rejected(self, rated_power_w,
                                                       ok):
        doc = base_doc()
        doc["plant"]["transformer"] = {"rated_power_w": rated_power_w,
                                       "rated_load_loss_w": 1_000.0}
        if ok:
            parse_config(doc)
            return
        with pytest.raises(ConfigError) as e:
            parse_config(doc)
        assert e.value.field == "schedule.power_depth_w"

    def test_csv_source_requires_existing_path(self):
        with pytest.raises(ConfigError) as e:
            parse_config({"load": {"source": "csv", "csv_path": "/nope.csv"}})
        assert e.value.field == "load.csv_path"

    @pytest.mark.parametrize("section,key,value", [
        ("load", "seed", -1), ("load", "seed", "7"), ("load", "seed", 1.5),
        ("allocator.pso", "particles", 2.9), ("allocator.pso", "particles", "7"),
        ("allocator.pso", "rng_seed", True), ("plant", "n_clusters", "4"),
        ("plant.cluster", "n_series", 200.5), ("load.synth", "days", 1.5),
    ])
    def test_bad_integer_field_rejected_with_its_name(self, section, key,
                                                       value):
        doc = base_doc()
        node = doc
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value
        with pytest.raises(ConfigError) as e:
            parse_config(doc)
        assert e.value.field == f"{section}.{key}"

    @pytest.mark.parametrize("section,key,value", [
        ("plant", "dt_s", "300"), ("schedule", "power_depth_w", float("nan")),
        ("plant", "dt_s", float("inf")),
        ("plant.cluster", "rated_power_w", "5e4"),
        ("allocator.pso", "inertia", "0.5"), ("load.synth", "base_w", True),
        ("plant.transformer", "rated_power_w", -float("inf")),
    ])
    def test_bad_float_field_rejected_with_its_name(self, section, key, value):
        doc = base_doc()
        node = doc
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value
        with pytest.raises(ConfigError, match="must be a finite number") as e:
            parse_config(doc)
        assert e.value.field == f"{section}.{key}"

    def test_bad_coefficient_named_by_index(self):
        doc = base_doc()
        doc["plant"]["cluster"] = {"acdc_coeffs": [0.7868, "0.7955", -2.073,
                                                   2.137, -0.8137]}
        with pytest.raises(ConfigError) as e:
            parse_config(doc)
        assert e.value.field == "plant.cluster.acdc_coeffs[1]"

    def test_integer_accepted_for_float_field(self):
        cfg = parse_config(base_doc())
        assert type(cfg.plant.dt_s) is float and cfg.plant.dt_s == 300.0
        assert cfg.load.synth.dt_s == 300.0

    def test_integral_float_accepted_for_integer_field(self):
        doc = base_doc()
        doc["allocator"]["pso"]["particles"] = 6.0
        doc["load"]["seed"] = 3.0
        cfg = parse_config(doc)
        assert cfg.allocator.pso.particles == 6
        assert type(cfg.load.seed) is int and cfg.load.seed == 3

    @pytest.mark.parametrize("section,key,value,field", [
        ("schedule", "method", 1, "schedule.method"),
        ("allocator", "mode", ["pso"], "allocator.mode"),
        ("load", "source", None, "load.source"),
        ("load", "csv_path", 3, "load.csv_path"),
        ("output", "dir", 5, "output.dir"),
        ("output", "formats", "json", "output.formats"),
        ("output", "formats", ["csv", 1], "output.formats[1]"),
        ("output", "formats", [], "output.formats"),
    ])
    def test_bad_string_field_rejected_with_its_name(self, section, key,
                                                      value, field):
        doc = base_doc()
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match="must be a") as e:
            parse_config(doc)
        assert e.value.field == field

    def test_null_csv_path_is_unset(self):
        cfg = parse_config({"load": {"csv_path": None}})
        assert cfg.load.csv_path == ""
        with pytest.raises(ConfigError, match="required") as e:
            parse_config({"load": {"source": "csv", "csv_path": None}})
        assert e.value.field == "load.csv_path"

    @pytest.mark.parametrize("doc,field", [
        ({"plant": {"n_cluster": 5}}, "plant.n_cluster"),
        ({"shedule": {"method": "original"}}, "shedule"),
        ({"plant": {"clusters": []}}, "plant.clusters"),
        ({"plant": {"transformer": {"rated_power": 1e6}}},
         "plant.transformer.rated_power"),
        ({"plant": {"cluster": {"cell": {"ocv": [2.5, 1, 0, 0]}}}},
         "plant.cluster.cell.ocv"),
        ({"allocator": {"pso": {"particle": 3}}}, "allocator.pso.particle"),
        ({"load": {"synth": {"day": 2}}}, "load.synth.day"),
        ({"output": {"format": ["json"]}}, "output.format"),
        ({"plant": {"cluster": {"dc_bus_voltage_v": 700}}},
         "plant.cluster.dc_bus_voltage_v"),
    ])
    def test_unknown_key_rejected_with_its_name(self, doc, field):
        with pytest.raises(ConfigError, match="unknown key") as e:
            parse_config(doc)
        assert e.value.field == field

    @pytest.mark.parametrize("doc,field", [
        ({"plant": 5}, "plant"),
        ({"schedule": ["improved"]}, "schedule"),
        ({"plant": {"cluster": None}}, "plant.cluster"),
        ({"plant": {"cluster": {"cell": 1.0}}}, "plant.cluster.cell"),
        ({"allocator": {"pso": "fast"}}, "allocator.pso"),
        ({"load": {"synth": []}}, "load.synth"),
    ])
    def test_non_object_section_rejected_with_its_name(self, doc, field):
        with pytest.raises(ConfigError, match="must be a JSON object") as e:
            parse_config(doc)
        assert e.value.field == field

    def test_readme_configuration_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        cfg = parse_config(doc)
        assert len(cfg.plant.clusters) == doc["plant"]["n_clusters"]
        assert cfg.output.formats == tuple(doc["output"]["formats"])
        # the example shows the defaults
        assert cfg == parse_config({})

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestValidateConfigCommand:
    def test_valid_file(self, cfg_path, capsys):
        assert main(["validate-config", "--config", cfg_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True
        assert len(out["config_sha256"]) == 64

    def test_invalid_soc_band_exits_2_with_json_error(self, tmp_path, capsys):
        doc = base_doc()
        doc["plant"]["soc_min"] = 0.8
        doc["plant"]["soc_max"] = 0.2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-config", "--config", path.as_posix()]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "field" in err

    def test_integer_beyond_the_float_range_exits_2_naming_it(self, tmp_path,
                                                               capsys):
        doc = base_doc()
        doc["allocator"]["pso"]["particles"] = 10**400
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-config", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("ConfigError",
                                                "allocator.pso.particles")

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate-config", "--config", "/no/such.json"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "config"


class TestErrorContract:
    # bytes that are not UTF-8, and nesting deeper than the parser goes
    @pytest.mark.parametrize("text", [
        b'{"plant": {"dt_s": 300\xff}}', b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not utf-8", "nested 100000 deep"])
    def test_unparsable_config_exits_2_naming_config(self, tmp_path, capsys,
                                                     text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert main(["validate-config", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == "config"

    def test_string_float_field_exits_2_with_json_error(self, tmp_path,
                                                         capsys):
        doc = base_doc()
        doc["plant"]["cluster"] = {"rated_power_w": "5e4"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["field"] == "plant.cluster.rated_power_w"

    # out-of-range values, checked by the dataclass of each section; the
    # plant's own fields carry the "plant." prefix too
    @pytest.mark.parametrize("section,key,value", [
        ("plant", "dt_s", 0),
        ("plant", "n_clusters", 0),
        ("plant", "initial_soc", 0.99),
        ("plant.cluster", "rated_power_w", -5),
        ("plant.cluster", "n_parallel", 0),
        ("plant.cluster", "acdc_coeffs", [2.0, 0.0, 0.0, 0.0, 0.0]),
        ("plant.cluster.cell", "c_pol", 0),
        ("plant.cluster.cell", "ocv_coeffs", [3.0, -1.0, 0.0, 0.0]),
        ("plant.transformer", "no_load_loss_w", 0),
        ("plant.transformer", "rated_load_loss_w", 7e6),
        ("load.synth", "noise_ar1", 1.0),
        ("load.synth", "days", 0),
    ])
    def test_out_of_range_value_exits_2_naming_its_field(
            self, tmp_path, capsys, section, key, value):
        doc = base_doc()
        d = doc
        for part in section.split("."):
            d = d.setdefault(part, {})
        d[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-config", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == f"{section}.{key}"

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_synth_step_other_than_the_plants_exits_2(self, tmp_path, capsys,
                                                       command):
        doc = base_doc()
        doc["load"]["synth"]["dt_s"] = 60
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main([command, "--config", str(path),
                     "--output", str(outdir)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == "load.synth.dt_s"
        assert not outdir.exists()

    # a 7 s step does not divide one day: it is rejected when the config
    # is read, before any command plans, steps or writes a load
    @pytest.mark.parametrize("section", ["plant", "load.synth"])
    @pytest.mark.parametrize("command", ["validate-config", "simulate",
                                         "gen-load"])
    def test_step_not_dividing_a_day_exits_2_naming_its_field(
            self, tmp_path, capsys, command, section):
        doc = base_doc()
        d = doc
        for part in section.split("."):
            d = d.setdefault(part, {})
        d["dt_s"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main([command, "--config", str(path),
                     "--output", str(outdir)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == f"{section}.dt_s"
        assert not outdir.exists()

    # a step below the 1 s floor is rejected when the config is read; only
    # commands that stop there, or would write a small load, are run
    @pytest.mark.parametrize("section", ["plant", "load.synth"])
    @pytest.mark.parametrize("command,dt_s", [
        ("validate-config", 1e-3), ("validate-config", 0.5),
        ("gen-load", 0.5)])
    def test_step_below_one_second_exits_2_naming_its_field(
            self, tmp_path, capsys, command, dt_s, section):
        doc = base_doc()
        d = doc
        for part in section.split("."):
            d = d.setdefault(part, {})
        d["dt_s"] = dt_s
        with pytest.raises(ConfigError) as e:
            parse_config(doc)
        assert e.value.field == f"{section}.dt_s"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main([command, "--config", str(path),
                     "--output", str(outdir)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == f"{section}.dt_s"
        assert "at least 1 s" in err["message"]
        assert not outdir.exists()

    def test_one_second_step_is_accepted(self):
        doc = base_doc()
        doc["plant"]["dt_s"] = doc["load"]["synth"]["dt_s"] = 1
        cfg = parse_config(doc)
        assert cfg.plant.dt_s == cfg.load.synth.dt_s == 1.0

    @pytest.mark.parametrize("flags", [["--bogus"], ["--threads", "2"],
                                       ["--format", "json"]])
    def test_usage_error_exits_2_with_json_error(self, flags, capsys):
        assert main(["simulate"] + flags) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == "argv"
        assert flags[0] in err["message"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--depths", "abc"], ["sweep", "--depths", "1e6,,2e6"],
        ["sweep", "--depths", "0"], ["sweep", "--depths", "1e6,nan"],
        ["simulate", "--days", "0"], ["simulate", "--days", "x"],
        ["simulate", "--days", "1.5"],
    ])
    def test_bad_flag_value_exits_2_with_json_error(self, argv, capsys):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == "argv"
        assert argv[1] in err["message"] and repr(argv[2]) in err["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["simulate", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert capsys.readouterr().out

    def test_unexpected_exception_exits_1_with_json_error(
            self, cfg_path, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("synthetic failure")
        monkeypatch.setattr("bessim.cli.synth_load", broken)
        assert main(["gen-load", "--config", cfg_path,
                     "--output", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "RuntimeError", "message": "synthetic failure"}

    @pytest.mark.parametrize("command", ["validate-config", "compare"])
    def test_directory_as_csv_path_exits_2_naming_it(self, tmp_path, capsys,
                                                     command):
        doc = base_doc()
        doc["load"].update(source="csv", csv_path=str(tmp_path))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main([command, "--config", str(path),
                     "--output", str(outdir)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == "load.csv_path"
        assert not outdir.exists()

    # an output path that is a file, or lies under one, is refused before
    # the command runs, naming where the path came from
    @pytest.mark.parametrize("under", [False, True],
                             ids=["the file", "a path under it"])
    @pytest.mark.parametrize("source", ["argv", "BESSIM_OUTPUT_DIR",
                                        "output.dir"])
    def test_output_path_through_a_file_exits_2_naming_its_source(
            self, tmp_path, capsys, monkeypatch, source, under):
        def run(*args, **kwargs):
            raise RuntimeError("the simulation ran")
        monkeypatch.setattr("bessim.cli.run_simulation", run)
        monkeypatch.delenv("BESSIM_OUTPUT_DIR", raising=False)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        outdir = str(taken / "out" if under else taken)
        doc = base_doc()
        argv = []
        if source == "argv":
            argv = ["--output", outdir]
        elif source == "output.dir":
            doc["output"] = {"dir": outdir}
        else:
            monkeypatch.setenv(source, outdir)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), *argv]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == source
        assert taken.read_text() == "kept\n"

    def test_readme_lists_every_error_type(self):
        # the paragraph of README's CLI section on the package's errors
        # names exactly the subclasses of BessimError
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("\n## CLI\n")[1].split("\n## ")[0]
        (listing,) = [p for p in section.split("\n\n") if "`BessimError`" in p]
        listed = set(re.findall(r"`(\w+Error)`", listing)) - {"BessimError"}
        types = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, BessimError)
                 and obj is not BessimError}
        assert listed == types


class TestGenLoadCommand:
    def test_writes_csv_and_manifest(self, cfg_path, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        assert main(["gen-load", "--config", cfg_path,
                     "--output", outdir]) == 0
        csv_text = Path(outdir, "load.csv").read_text()
        assert csv_text.startswith("timestamp,load_w\n")
        assert len(csv_text.strip().split("\n")) == 1 + 288
        manifest = json.loads(Path(outdir, "manifest.json").read_text())
        assert manifest["command"] == "gen-load"
        assert manifest["seed"] == 3
        assert "load.csv" in manifest["files"]

    def test_writes_at_the_synth_step(self, tmp_path, capsys):
        # a load step other than the plant's is valid: only the commands
        # that step the plant refuse it, and a CSV source ignores it
        doc = base_doc()
        doc["load"]["synth"]["dt_s"] = 60
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-config", "--config", str(path)]) == 0
        outdir = tmp_path / "out"
        assert main(["gen-load", "--config", str(path),
                     "--output", str(outdir)]) == 0
        csv_text = (outdir / "load.csv").read_text()
        assert len(csv_text.strip().split("\n")) == 1 + 1440

        doc["plant"]["dt_s"] = 60
        doc["load"].update(source="csv", csv_path=str(outdir / "load.csv"))
        doc["load"]["synth"]["dt_s"] = 300
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path),
                     "--output", str(tmp_path / "sim")]) == 0

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_days_beyond_a_csv_load_exits_2(self, command, tmp_path,
                                              capsys):
        # a two-day CSV load: --days 2 runs, --days 3 is rejected
        doc = base_doc(days=2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["gen-load", "--config", str(path),
                     "--output", str(tmp_path)]) == 0
        doc["load"].update(source="csv", csv_path=str(tmp_path / "load.csv"))
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path), "--days", "2",
                     "--output", str(tmp_path / "two")]) == 0
        outdir = tmp_path / "three"
        capsys.readouterr()
        assert main([command, "--config", str(path), "--days", "3",
                     "--output", str(outdir)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == "argv"
        assert "--days 3" in err["message"]
        assert not outdir.exists()

    def test_seed_override_changes_data(self, cfg_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["gen-load", "--config", cfg_path, "--output", out_a])
        main(["gen-load", "--config", cfg_path, "--output", out_b,
              "--seed", "99"])
        a = Path(out_a, "load.csv").read_text()
        b = Path(out_b, "load.csv").read_text()
        assert a != b
        manifest = json.loads(Path(out_b, "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_negative_seed_exits_2_with_json_error(self, tmp_path, capsys):
        doc = base_doc()
        doc["load"]["seed"] = -1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main(["gen-load", "--config", str(path),
                     "--output", str(outdir)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == "load.seed"
        assert not outdir.exists()

    @pytest.mark.parametrize("name", ["", ".", "..", "manifest.json",
                                      "sub/load.csv", "sub/../../esc.csv"])
    def test_name_must_be_a_plain_file_name(self, cfg_path, tmp_path, capsys,
                                            name):
        outdir = tmp_path / "a" / "out"
        assert main(["gen-load", "--config", cfg_path,
                     "--output", str(outdir), "--name", name]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == "argv"
        assert not (tmp_path / "a").exists()

    def test_env_var_output_dir(self, cfg_path, tmp_path, monkeypatch):
        outdir = str(tmp_path / "envout")
        monkeypatch.setenv("BESSIM_OUTPUT_DIR", outdir)
        assert main(["gen-load", "--config", cfg_path]) == 0
        assert os.path.exists(os.path.join(outdir, "load.csv"))


class TestOutputFiles:
    @pytest.mark.parametrize("command", ["simulate", "compare", "optimize",
                                         "sweep", "gen-load"])
    def test_manifest_lists_exactly_the_data_files(self, tmp_path, command):
        doc = base_doc()
        doc["output"] = {"formats": ["csv", "json"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        argv = [command, "--config", str(path), "--output", str(outdir)]
        if command == "sweep":
            argv += ["--depths", "100000"]
        assert main(argv) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["files"] == sorted(
            set(os.listdir(outdir)) - {"manifest.json"})

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_files_take_the_mode_of_a_plain_write(self, cfg_path, tmp_path,
                                                  umask):
        outdir = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert main(["simulate", "--config", cfg_path,
                         "--output", str(outdir)]) == 0
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode)
                 for p in outdir.iterdir()}
        assert len(modes) == 6
        assert set(modes.values()) == {0o666 & ~umask}, modes


class TestSimulateCommand:
    def test_outputs_present(self, cfg_path, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg_path,
                     "--output", outdir]) == 0
        for name in ("metrics.csv", "ledger.csv", "efficiency_charge.csv",
                     "efficiency_discharge.csv", "plant_state.json",
                     "manifest.json"):
            assert os.path.exists(os.path.join(outdir, name)), name
        metrics = Path(outdir, "metrics.csv").read_text().strip()
        assert len(metrics.split("\n")) == 2  # header + one day
        json.loads(Path(outdir, "plant_state.json").read_text())

    def test_no_temp_files_left_behind(self, cfg_path, tmp_path):
        outdir = tmp_path / "out"
        main(["simulate", "--config", cfg_path, "--output", str(outdir)])
        leftovers = [p for p in os.listdir(outdir) if p.startswith(".bessim-")]
        assert leftovers == []


class TestPlantRunsThroughTheModule:
    """Each plant run of a command calls cli.run_simulation, looked up on
    the module at call time, so a caller that swaps that attribute (as the
    benchmark does, to keep each SimulationResult) sees every run."""

    @pytest.mark.parametrize("command,runs", [
        ("simulate", [("balanced", False)]),
        ("optimize", [("balanced", False), ("pso", True)])])
    def test_each_run_calls_the_module_attribute(self, cfg_path, tmp_path,
                                                 monkeypatch, command, runs):
        real, seen = cli.run_simulation, []

        def capture(*args, **kwargs):
            result = real(*args, **kwargs)
            seen.append((kwargs["alloc_mode"],
                         kwargs.get("record_alloc", False), result))
            return result

        monkeypatch.setattr(cli, "run_simulation", capture)
        assert main([command, "--config", cfg_path,
                     "--output", str(tmp_path / "out")]) == 0
        assert [(mode, record) for mode, record, _ in seen] == runs
        # the recorded run is the one whose allocations were kept
        assert [r.alloc_matrix is not None for *_, r in seen] == \
            [record for _, record in runs]


class TestCompareCommand:
    def test_rows_per_day_per_method(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_doc(days=2)))
        outdir = str(tmp_path / "out")
        assert main(["compare", "--config", str(path),
                     "--output", outdir]) == 0
        rows = Path(outdir, "compare.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2 * 2
        summary = json.loads(Path(outdir, "compare_summary.json").read_text())
        assert set(summary) == {"improved", "original"}
        for agg in summary.values():
            assert 0.0 < agg["cur"] <= 1.0 + 1e-9

    def test_rows_rate_the_gated_against_the_ungated_demand(self, tmp_path):
        # a store this small truncates the plans, so the executed (gated)
        # demand falls short of the planned (ungated) one
        doc = base_doc(days=2)
        doc["schedule"]["rated_energy_wh"] = 100e3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        outdir = str(tmp_path / "out")
        assert main(["compare", "--config", str(path),
                     "--output", outdir]) == 0
        cfg = load_config(str(path))
        profile = synth_load(cfg.load.synth, cfg.load.seed)
        rows, utilization = [], []
        for method in ("improved", "original"):
            plans = plan_horizon(profile, 200e3, 100e3, method)
            for d, (plan, day) in enumerate(zip(plans, days_of(profile))):
                metrics, = horizon_metrics(
                    day, [plan],
                    replay_horizon([plan], day, gated=True)["demand_w"],
                    100e3,
                    replay_horizon([plan], day, gated=False)["demand_w"])
                rows.append(metrics_row_by_fstring(d, method, metrics))
                utilization.append(metrics.power_utilization)
        assert min(utilization) < 1.0
        with open(os.path.join(outdir, "compare.csv")) as fh:
            assert fh.read().splitlines()[1:] == rows


    def test_flat_day_exits_1_naming_the_day(self, tmp_path, capsys):
        # day 1 of three cannot bracket the power depth
        doc = base_doc(days=3)
        cfg = parse_config(doc)
        load = synth_load(cfg.load.synth, cfg.load.seed)
        values = load.values_w.copy()
        values[288:576] = 1.2e6
        csv_path = tmp_path / "load.csv"
        csv_path.write_text(load_profile_to_csv(
            LoadProfile(load.start_time, load.dt_s, values)))
        doc["load"].update(source="csv", csv_path=str(csv_path))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        capsys.readouterr()
        assert main(["compare", "--config", str(path),
                     "--output", str(outdir)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DomainError"
        assert err["field"] == "power_depth_w"
        assert err["message"].startswith("day 1: daily load range")
        assert not outdir.exists()

    def test_end_inclusive_csv_names_its_one_sample_day(self, tmp_path,
                                                        capsys):
        # a two-day CSV whose last row is the midnight that closes day 1:
        # that row is day 2, one sample, which cannot be planned; --days 2
        # cuts it
        doc = base_doc(days=2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["gen-load", "--config", str(path),
                     "--output", str(tmp_path)]) == 0
        csv_path = tmp_path / "load.csv"
        with open(csv_path, "a") as fh:
            fh.write("2024-01-03T00:00:00,1200000.000000\n")
        doc["load"].update(source="csv", csv_path=str(csv_path))
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        capsys.readouterr()
        assert main(["compare", "--config", str(path),
                     "--output", str(outdir)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DomainError"
        assert err["field"] == "power_depth_w"
        assert err["message"].startswith("day 2: daily load range")
        assert not outdir.exists()
        assert main(["compare", "--config", str(path), "--days", "2",
                     "--output", str(outdir)]) == 0
        rows = (outdir / "compare.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2

    # more energy than the store holds, or less than none
    @pytest.mark.parametrize("value", [-5e6, -1.0, 800e3 + 1.0])
    def test_initial_plan_energy_outside_the_store_exits_2(
            self, tmp_path, capsys, value):
        doc = base_doc()
        doc["schedule"]["initial_plan_energy_wh"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["field"] == "schedule.initial_plan_energy_wh"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [0.0, 800e3])
    def test_initial_plan_energy_bounds_accepted(self, value):
        doc = base_doc()
        doc["schedule"]["initial_plan_energy_wh"] = value
        assert parse_config(doc).schedule.initial_plan_energy_wh == value


class TestOptimizeCommand:
    def test_ledger_and_allocation_matrix(self, cfg_path, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        assert main(["optimize", "--config", cfg_path,
                     "--output", outdir]) == 0
        text = Path(outdir, "optimize_ledger.csv").read_text()
        assert "delta_loss_wh" in text.split("\n")[0]
        alloc = Path(outdir, "allocation_matrix.csv").read_text()
        header = alloc.split("\n")[0]
        assert header == "time_s,k_0,k_1,k_2,k_3"

    @pytest.mark.parametrize("field,value", [
        ("max_iterations", -1), ("velocity_bound", -1.0),
        ("init_spread", -0.1), ("cognitive", -0.4), ("social", float("nan")),
        ("max_iterations", float("inf")), ("particles", "many"),
    ])
    def test_bad_pso_param_exits_2_with_json_error(self, tmp_path, capsys,
                                                   field, value):
        doc = base_doc()
        doc["allocator"]["pso"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == f"allocator.pso.{field}"
        assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def test_sweep_csv(self, cfg_path, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg_path, "--output", outdir,
                     "--depths", "100000,200000"]) == 0
        rows = Path(outdir, "sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 3
        assert rows[1].startswith("100000,")
        assert rows[2].startswith("200000,")

    def test_depth_the_clusters_cannot_make_exits_2_before_any_run(
            self, cfg_path, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr("bessim.analysis.run_simulation",
                            lambda *args, **kwargs: runs.append(args))
        outdir = tmp_path / "out"
        assert main(["sweep", "--config", cfg_path, "--output", str(outdir),
                     "--depths", "100000,70000"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["field"] == "argv"
        assert "--depths" in err["message"] and "70000 W" in err["message"]
        assert runs == [] and not outdir.exists()

    def test_default_depths_follow_the_plant(self, cfg_path, tmp_path,
                                             capsys):
        # 4 clusters of 50 kW: ceil(j * 4 / 5) clusters for j = 1..5
        outdir = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg_path, "--output", outdir]) == 0
        rows = Path(outdir, "sweep.csv").read_text().strip().split("\n")
        assert [r.split(",")[0] for r in rows[1:]] == [
            "50000", "100000", "150000", "200000"]
