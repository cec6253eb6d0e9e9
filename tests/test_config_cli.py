import json
import os
from pathlib import Path

import pytest

from bessim.allocator import PsoParams
from bessim.cli import main
from bessim.config import load_config, parse_config
from bessim.errors import ConfigError
from bessim.profiles import synth_load
from bessim.scheduler import compute_metrics, replay_plan
from bessim.simulate import plan_horizon


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

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate-config", "--config", "/no/such.json"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "config"


class TestErrorContract:
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


class TestGenLoadCommand:
    def test_writes_csv_and_manifest(self, cfg_path, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        assert main(["gen-load", "--config", cfg_path,
                     "--output", outdir]) == 0
        csv_text = open(os.path.join(outdir, "load.csv")).read()
        assert csv_text.startswith("timestamp,load_w\n")
        assert len(csv_text.strip().split("\n")) == 1 + 288
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
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

    def test_seed_override_changes_data(self, cfg_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["gen-load", "--config", cfg_path, "--output", out_a])
        main(["gen-load", "--config", cfg_path, "--output", out_b,
              "--seed", "99"])
        a = open(os.path.join(out_a, "load.csv")).read()
        b = open(os.path.join(out_b, "load.csv")).read()
        assert a != b
        manifest = json.load(open(os.path.join(out_b, "manifest.json")))
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

    def test_env_var_output_dir(self, cfg_path, tmp_path, monkeypatch):
        outdir = str(tmp_path / "envout")
        monkeypatch.setenv("BESSIM_OUTPUT_DIR", outdir)
        assert main(["gen-load", "--config", cfg_path]) == 0
        assert os.path.exists(os.path.join(outdir, "load.csv"))


class TestSimulateCommand:
    def test_outputs_present(self, cfg_path, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg_path,
                     "--output", outdir]) == 0
        for name in ("metrics.csv", "ledger.csv", "efficiency_charge.csv",
                     "efficiency_discharge.csv", "plant_state.json",
                     "manifest.json"):
            assert os.path.exists(os.path.join(outdir, name)), name
        metrics = open(os.path.join(outdir, "metrics.csv")).read().strip()
        assert len(metrics.split("\n")) == 2  # header + one day
        json.load(open(os.path.join(outdir, "plant_state.json")))

    def test_no_temp_files_left_behind(self, cfg_path, tmp_path):
        outdir = tmp_path / "out"
        main(["simulate", "--config", cfg_path, "--output", str(outdir)])
        leftovers = [p for p in os.listdir(outdir) if p.startswith(".bessim-")]
        assert leftovers == []


class TestCompareCommand:
    def test_rows_per_day_per_method(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_doc(days=2)))
        outdir = str(tmp_path / "out")
        assert main(["compare", "--config", str(path),
                     "--output", outdir]) == 0
        rows = open(os.path.join(outdir, "compare.csv")).read().strip().split("\n")
        assert len(rows) == 1 + 2 * 2
        summary = json.load(open(os.path.join(outdir, "compare_summary.json")))
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
        days = synth_load(cfg.load.synth, cfg.load.seed).split_days()
        rows, utilization = [], []
        for method in ("improved", "original"):
            plans = plan_horizon(days, 200e3, 100e3, method)
            for d, (plan, day) in enumerate(zip(plans, days)):
                metrics = compute_metrics(
                    day, plan, replay_plan(plan, day, gated=True)["demand_w"],
                    100e3, replay_plan(plan, day, gated=False)["demand_w"])
                rows.append(metrics.csv_row(d, method))
                utilization.append(metrics.power_utilization)
        assert min(utilization) < 1.0
        with open(os.path.join(outdir, "compare.csv")) as fh:
            assert fh.read().splitlines()[1:] == rows


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
        text = open(os.path.join(outdir, "optimize_ledger.csv")).read()
        assert "delta_loss_wh" in text.split("\n")[0]
        alloc = open(os.path.join(outdir, "allocation_matrix.csv")).read()
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
        rows = open(os.path.join(outdir, "sweep.csv")).read().strip().split("\n")
        assert len(rows) == 3
        assert rows[1].startswith("100000,")
        assert rows[2].startswith("200000,")

    def test_default_depths_follow_the_plant(self, cfg_path, tmp_path,
                                             capsys):
        # 4 clusters of 50 kW: ceil(j * 4 / 5) clusters for j = 1..5
        outdir = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg_path, "--output", outdir]) == 0
        rows = open(os.path.join(outdir, "sweep.csv")).read().strip().split("\n")
        assert [r.split(",")[0] for r in rows[1:]] == [
            "50000", "100000", "150000", "200000"]
