import json
import os

import pytest

from ballbasis import ConfigError, cli
from ballbasis.cli import emit_report, load_config, main
from ballbasis.verify import CaseRow, Report


def small_cfg(out_dir, **overrides):
    cfg = {
        "basis": {"kind": "dyadic", "size": 4},
        "seed": 0,
        "out": str(out_dir),
        "operators": [
            {"kind": "martingale_transform", "name": "mart", "eps_seed": 1},
        ],
        "corpus": {"generators": ["random_signs"], "size": 3},
        "estimate": {"budget": 4},
        "sparsify": {"alpha": 0.002, "families": 2},
        "dominate": {"cases": 2},
        "verify": {"suites": ["weak_type", "exp_decay"],
                   "thresholds": {}, "weight": {"kind": "unit"}, "p": 2.0},
    }
    cfg.update(overrides)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_unknown_top_key(self, tmp_path):
        path = write_cfg(tmp_path, {"basis": {"kind": "dyadic", "size": 3},
                                    "bogus": 1})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_operator_key(self, tmp_path):
        cfg = small_cfg(tmp_path / "out")
        cfg["operators"][0]["extra"] = True
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, cfg))

    @pytest.mark.parametrize("section", [{"dominate": {"cases": 1, "ball": "full"}},
                                         {"mean_osc": {"enabled": True}}],
                             ids=["dominate_ball", "mean_osc_enabled"])
    def test_retired_keys_rejected(self, tmp_path, section):
        """dominate and mean_osc always run on the full ball."""
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write_cfg(tmp_path, small_cfg(tmp_path / "out", **section)))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_missing_basis(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, {"seed": 0}))

    def test_defaults_filled(self, tmp_path):
        path = write_cfg(tmp_path, {"basis": {"kind": "dyadic", "size": 3}})
        cfg = load_config(path)
        assert "corpus" in cfg
        assert "verify" in cfg


class TestMain:
    def test_check_basis_exit_zero(self, tmp_path):
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out"))
        assert main(["check-basis", "--config", path]) == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_all_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out"))
        assert main(["all", "--config", path, "--out",
                     str(tmp_path / "r1")]) == 0
        assert main(["all", "--config", path, "--out",
                     str(tmp_path / "r2")]) == 0
        for name in sorted(os.listdir(tmp_path / "r1")):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["all", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("basis", [
        {"kind": "dyadic", "size": 99},
        {"kind": "dyadic", "size": "x"},
        {"kind": "dyadic"},
        {"kind": "dyadic", "size": 0},
    ], ids=["out_of_range", "not_integer", "missing", "one_atom"])
    def test_bad_basis_size_exit_two(self, tmp_path, capsys, basis):
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out", basis=basis))
        assert main(["check-basis", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"basis": 5},
        {"estimate": 5},
        {"operators": [5]},
        {"estimate": {"budget": 0}},
        {"sparsify": {"alpha": -1, "families": 1}},
        {"corpus": {"generators": ["random_signs"], "size": "abc"}},
        {"mean_osc": {"beta": 2}},
        {"basis": {"kind": "dyadic", "size": 3},
         "operators": [{"kind": "conditional_expectation", "level": 9}]},
        {"basis": {"kind": "grid", "size": 8},
         "operators": [{"kind": "riesz_potential", "alpha": 2}]},
        {"operators": [{"kind": "sparse", "rho": 0}]},
        {"basis": {"kind": "grid", "size": 8},
         "operators": [{"kind": "square_function"}]},
        {"operators": [{"kind": "riesz_potential"}]},
        {"verify": {"suites": ["nope"]}},
        {"corpus": {"generators": ["random_signs"], "size": 0}},
        {"sparsify": {"alpha": 0.002, "families": 0}},
        {"dominate": {"cases": 0}},
        {"mean_osc": {"beta": 0.75, "cases": 0}},
    ], ids=["basis_not_object", "section_not_object", "operator_not_object",
            "budget_zero", "alpha_negative", "corpus_size_string",
            "beta_above_one", "level_out_of_range",
            "riesz_alpha_two", "sparse_rho_zero", "square_function_on_grid",
            "riesz_on_dyadic", "unknown_suite", "corpus_size_zero",
            "families_zero", "dominate_cases_zero", "mean_osc_cases_zero"])
    def test_bad_value_exit_two(self, tmp_path, capsys, overrides):
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out", **overrides))
        assert main(["all", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"kind": "sparse", "count": 2.5},
        {"kind": "sparse", "count": True},
        {"kind": "sparse", "count": 0},
        {"kind": "martingale_transform", "eps_seed": True},
        {"kind": "conditional_expectation", "level": 1.7},
        {"kind": "identity", "name": 5},
    ], ids=["count_float", "count_bool", "count_zero", "eps_seed_bool",
            "level_float", "name_not_string"])
    def test_bad_operator_value_exit_two(self, tmp_path, capsys, spec):
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out", operators=[spec]))
        assert main(["all", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("thresholds", [{"good_lamda": 64.0},
                                            {"exp_decay": 1.0},
                                            {"bmo": float("nan")}],
                             ids=["misspelled_suite", "unread_suite", "nan"])
    def test_bad_threshold_exit_two(self, tmp_path, capsys, thresholds):
        """A threshold no suite reads would leave its suite ungated, and a
        NaN one fails every row; both are config errors."""
        cfg = small_cfg(tmp_path / "out")
        cfg["verify"]["thresholds"] = thresholds
        path = write_cfg(tmp_path, cfg)  # json writes float("nan") as NaN
        assert main(["all", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["estimate", "all"])
    @pytest.mark.parametrize("section, key, value", [
        ("corpus", "generators", ["random_signs", "nope"]),
        ("verify", "weight", {"kind": "nope"}),
    ], ids=["generator", "weight_kind"])
    def test_unknown_corpus_or_weight_kind_exit_two(self, tmp_path, capsys,
                                                     monkeypatch, command,
                                                     section, key, value):
        """An unknown corpus generator or weight kind is rejected by
        load_config: the run exits 2 before the basis is built, where it
        once ran every other stage first (`estimate` even exited 0), and
        writes no bundle."""
        def refuse(cfg):
            raise AssertionError("build_basis called")

        monkeypatch.setattr(cli, "build_basis", refuse)
        cfg = small_cfg(tmp_path / "out")
        cfg[section][key] = value
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "nope" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_empty_generators_exit_two(self, tmp_path, capsys):
        """An empty corpus once let `all` exit 0, weak_type, good_lambda
        and bmo passing on no case at all."""
        cfg = small_cfg(tmp_path / "out")
        cfg["corpus"]["generators"] = []
        assert main(["all", "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "generators" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weight", [
        {"kind": "unit", "exponent": 0.3, "value": 9.0},
        {"exponent": 0.3},
        {"kind": "half", "exponent": 0.3},
        {"kind": "power", "value": 2.0},
        {"kind": ["unit"]},
    ], ids=["unit_both", "default_unit_exponent", "half_exponent", "power_value",
            "kind_not_a_string"])
    def test_unread_weight_key_exit_two(self, tmp_path, capsys, weight):
        """unit reads no key, half only value and power only exponent: a key
        its kind never reads would be ignored without a word."""
        cfg = small_cfg(tmp_path / "out")
        cfg["verify"]["weight"] = weight
        assert main(["all", "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "weight" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weight", [{}, {"kind": "unit"},
                                        {"kind": "half", "value": 3.0},
                                        {"kind": "power", "exponent": 0.5}])
    def test_read_weight_keys_accepted(self, tmp_path, weight):
        cfg = small_cfg(tmp_path / "out")
        cfg["verify"]["weight"] = weight
        assert load_config(write_cfg(tmp_path, cfg))["verify"]["weight"] == weight

    @pytest.mark.parametrize("operators", [
        [{"kind": "identity", "name": "a"}, {"kind": "zero", "name": "a"}],
        [{"kind": "sparse"}, {"kind": "sparse", "seed": 3}],
        [{"kind": "identity", "name": "a/b"}, {"kind": "zero", "name": "a_b"}],
        [{"kind": "identity", "name": ""}],
        [{"kind": "identity", "name": "maximal_rho1"}],
        [{"kind": "zero", "name": "modulated_vs_sharp"}],
    ], ids=["same_name", "two_unnamed_sparse", "same_tail_file", "empty_name",
            "fixed_weak_type_name", "fixed_exp_decay_name"])
    def test_colliding_report_names_exit_two(self, tmp_path, capsys, operators):
        """Two reports of one name, or two tail files of one name (where the
        second would overwrite the first), exit 2 before any stage runs."""
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out", operators=operators))
        assert main(["all", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["hil,bert", "hil bert", "hil\nbert",
                                      "hil\x00bert"],
                             ids=["comma", "space", "newline", "nul"])
    def test_name_breaking_the_bundle_exit_two(self, tmp_path, capsys, name):
        """A comma would add report.csv fields, whitespace would split
        summary.txt fields, and a NUL cannot name a tail file."""
        ops = [{"kind": "identity", "name": name}]
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out", operators=ops))
        assert main(["all", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_distinct_names_accepted(self, tmp_path):
        ops = [{"kind": "identity", "name": "a"}, {"kind": "zero", "name": "b"},
               {"kind": "sparse"}]
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out", operators=ops))
        assert main(["verify", "--config", path]) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        names = [r["name"] for r in doc["reports"]]
        assert len(set(names)) == len(names)
        assert "exp_decay/sparse_operator" in names

    def test_non_integer_env_seed_exit_two(self, tmp_path, capsys,
                                           monkeypatch):
        cfg = small_cfg(tmp_path / "out")
        del cfg["seed"]
        path = write_cfg(tmp_path, cfg)
        monkeypatch.setenv("BALLBASIS_SEED", "five")
        assert main(["check-basis", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "env", "flag"])
    def test_negative_seed_exit_two(self, tmp_path, capsys, monkeypatch,
                                    source):
        """numpy's generators take no negative seed: one from the config,
        from BALLBASIS_SEED or from --seed is a config error."""
        cfg = small_cfg(tmp_path / "out")
        flags = []
        if source == "config":
            cfg["seed"] = -1
        elif source == "env":
            del cfg["seed"]
            monkeypatch.setenv("BALLBASIS_SEED", "-1")
        else:
            flags = ["--seed", "-1"]
        path = write_cfg(tmp_path, cfg)
        assert main(["all", "--config", path, *flags]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "seed" in err.lower()
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("basis, weight", [
        ({"kind": "dyadic", "size": 4},
         {"kind": "power", "exponent": float("nan")}),
        ({"kind": "dyadic", "size": 4},
         {"kind": "half", "value": float("inf")}),
        ({"kind": "grid", "size": 64}, {"kind": "power", "exponent": 400.0}),
    ], ids=["nan_exponent", "infinite_value", "overflowing_exponent"])
    def test_non_finite_weight_exit_two(self, tmp_path, capsys, basis, weight):
        """A NaN or infinite weight would give an A_p characteristic of nan
        that passes; 64 ** 400 overflows to inf."""
        cfg = small_cfg(tmp_path / "out", basis=basis, operators=[])
        cfg["verify"]["suites"] = ["ap"]
        cfg["verify"]["weight"] = weight
        path = write_cfg(tmp_path, cfg)  # json writes NaN and Infinity
        assert main(["verify", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_failed_checks_exit_one(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path / "out",
                        sparsify={"alpha": 0.5, "families": 1})
        path = write_cfg(tmp_path, cfg)
        assert main(["sparsify", "--config", path]) == 1
        assert "failed checks" in capsys.readouterr().err

    def test_seed_flag_changes_reports(self, tmp_path):
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out"))
        main(["estimate", "--config", path, "--out", str(tmp_path / "s0"),
              "--seed", "0"])
        main(["estimate", "--config", path, "--out", str(tmp_path / "s1"),
              "--seed", "1"])
        a = (tmp_path / "s0" / "report.json").read_text()
        b = (tmp_path / "s1" / "report.json").read_text()
        assert a != b

    def test_env_seed_used_when_config_silent(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path / "out")
        del cfg["seed"]
        path = write_cfg(tmp_path, cfg)
        monkeypatch.setenv("BALLBASIS_SEED", "5")
        main(["estimate", "--config", path, "--out", str(tmp_path / "env")])
        monkeypatch.delenv("BALLBASIS_SEED")
        main(["estimate", "--config", path, "--seed", "5",
              "--out", str(tmp_path / "flag")])
        assert ((tmp_path / "env" / "report.json").read_text()
                == (tmp_path / "flag" / "report.json").read_text())

    def test_env_seed_ignored_when_config_has_seed(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out"))
        monkeypatch.setenv("BALLBASIS_SEED", "99")
        main(["estimate", "--config", path, "--out", str(tmp_path / "a")])
        monkeypatch.delenv("BALLBASIS_SEED")
        main(["estimate", "--config", path, "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "report.json").read_text()
                == (tmp_path / "b" / "report.json").read_text())

    @pytest.mark.parametrize("command", ["check-basis", "estimate", "sparsify",
                                         "dominate"])
    def test_suite_outside_verify_exit_two(self, tmp_path, capsys, command):
        """--suite restricts the verify stage; `estimate --suite bmo` once
        exited 0 and ignored it."""
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out"))
        assert main([command, "--config", path, "--suite", "bmo"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "--suite" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_empty_out_exit_two(self, tmp_path, capsys, monkeypatch, where):
        """An empty output directory, from --out or the config, once ended
        in a FileNotFoundError traceback with exit 1."""
        monkeypatch.chdir(tmp_path)
        cfg = small_cfg("" if where == "config" else tmp_path / "out")
        argv = ["estimate", "--config", write_cfg(tmp_path, cfg)]
        assert main(argv + (["--out", ""] if where == "flag" else [])) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "out" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_out_is_a_file_exit_two(self, tmp_path, capsys):
        """An output path naming a file once ended in a FileExistsError
        traceback with exit 1; the file is left as it was."""
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out"))
        assert main(["check-basis", "--config", path, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "taken" in err and "Traceback" not in err
        assert taken.read_text() == "kept\n"
        assert not (tmp_path / "out").exists()

    def test_verify_suite_filter(self, tmp_path):
        path = write_cfg(tmp_path, small_cfg(tmp_path / "out"))
        assert main(["verify", "--config", path, "--suite", "weak_type",
                     "--out", str(tmp_path / "wt")]) == 0
        doc = json.loads((tmp_path / "wt" / "report.json").read_text())
        assert all(r["name"].startswith("weak_type")
                   for r in doc["reports"])


class TestEmitReport:
    def test_empty_reports(self, tmp_path):
        files = emit_report([], str(tmp_path / "e"))
        doc = json.loads((tmp_path / "e" / "report.json").read_text())
        assert doc == {"reports": [], "passed": True}
        assert (tmp_path / "e" / "summary.txt").read_text() == "PASS\n"
        assert len(files) == 3

    def test_tail_csv_header(self, tmp_path):
        rep = Report("decay", True,
                     {"tail": {"t": [0, 1], "count": [4, 1],
                               "fraction": [1.0, 0.25]}},
                     [CaseRow("t=0", "tail_fraction", 1.0, True)])
        emit_report([rep], str(tmp_path / "t"))
        lines = (tmp_path / "t" / "decay_tail.csv").read_text().splitlines()
        assert lines[0] == "t,count,fraction"
        assert lines[1] == "0,4,1.0"

    def test_shipped_configs_load(self):
        for name in ("dyadic-martingale", "grid-hilbert", "sparsify-alpha-half"):
            cfg = load_config(f"configs/{name}.json")
            assert "basis" in cfg
