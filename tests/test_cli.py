"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.models.formats import save_model


@pytest.fixture
def sd_model_file(cooling_sdft, tmp_path):
    path = tmp_path / "cooling.json"
    save_model(cooling_sdft, path)
    return str(path)


@pytest.fixture
def static_model_file(cooling_tree, tmp_path):
    path = tmp_path / "static.json"
    save_model(cooling_tree, path)
    return str(path)


class TestAnalyze:
    def test_sd_model(self, sd_model_file, capsys):
        assert main(["analyze", sd_model_file]) == 0
        out = capsys.readouterr().out
        assert "failure probability" in out
        assert "top 10 cutsets" in out

    def test_static_model_promoted(self, static_model_file, capsys):
        assert main(["analyze", static_model_file]) == 0
        out = capsys.readouterr().out
        assert "cutsets: 5 total" in out

    def test_horizon_option(self, sd_model_file, capsys):
        assert main(["analyze", sd_model_file, "--horizon", "96"]) == 0
        assert "horizon: 96.0" in capsys.readouterr().out


class TestMcs:
    def test_lists_cutsets(self, static_model_file, capsys):
        assert main(["mcs", static_model_file]) == 0
        out = capsys.readouterr().out
        assert "5 minimal cutsets" in out
        assert "rare-event sum" in out

    def test_sd_model_translated(self, sd_model_file, capsys):
        assert main(["mcs", sd_model_file]) == 0
        assert "minimal cutsets" in capsys.readouterr().out


class TestImportance:
    def test_table(self, static_model_file, capsys):
        assert main(["importance", static_model_file]) == 0
        out = capsys.readouterr().out
        assert "FV" in out and "Birnbaum" in out
        assert "a" in out


class TestClassify:
    def test_trigger_classes_listed(self, sd_model_file, capsys):
        assert main(["classify", sd_model_file]) == 0
        out = capsys.readouterr().out
        assert "pump1" in out
        assert "static-branching" in out
        assert "per-cutset chains stay small" in out

    def test_static_model_has_no_triggers(self, static_model_file, capsys):
        assert main(["classify", static_model_file]) == 0
        assert "no triggering gates" in capsys.readouterr().out


class TestCurve:
    def test_prints_monotone_table(self, sd_model_file, capsys):
        assert main(["curve", sd_model_file, "--horizons", "12,24,48"]) == 0
        out = capsys.readouterr().out
        assert "P(failure <= t)" in out
        values = [
            float(line.split()[1])
            for line in out.splitlines()
            if line.strip() and line.split()[0].replace(".", "").isdigit()
        ]
        assert values == sorted(values)


class TestSimulate:
    def test_estimate(self, sd_model_file, capsys):
        assert main(
            ["simulate", sd_model_file, "--runs", "2000", "--seed", "3"]
        ) == 0
        assert "95% CI" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "lint"])
@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_non_finite_horizon_exits_1(sd_model_file, capsys, command, horizon):
    assert main([command, sd_model_file, "--horizon", horizon]) == 1
    err = capsys.readouterr().err
    assert f"horizon must be finite and >= 0, got {horizon}" in err


class TestDemoBwr:
    def test_save(self, tmp_path, capsys):
        target = tmp_path / "bwr.json"
        assert main(["demo-bwr", "--save", str(target), "--triggers", "none"]) == 0
        data = json.loads(target.read_text())
        assert data["kind"] == "sd-fault-tree"

    def test_trigger_list_parsing(self, tmp_path):
        target = tmp_path / "bwr.json"
        assert (
            main(["demo-bwr", "--save", str(target), "--triggers", "RHR,ECC"]) == 0
        )
        data = json.loads(target.read_text())
        triggered = {e for events in data["triggers"].values() for e in events}
        assert triggered == {"RHR-B-PUMP-FTR", "ECC-B-PUMP-FTR"}


class TestXmlModels:
    def test_analyze_openpsa_file(self, cooling_tree, tmp_path, capsys):
        from repro.models.openpsa import save_openpsa

        path = tmp_path / "model.xml"
        save_openpsa(cooling_tree, path)
        assert main(["analyze", str(path)]) == 0
        assert "cutsets: 5 total" in capsys.readouterr().out

    def test_mcs_openpsa_file(self, cooling_tree, tmp_path, capsys):
        from repro.models.openpsa import save_openpsa

        path = tmp_path / "model.xml"
        save_openpsa(cooling_tree, path)
        assert main(["mcs", str(path)]) == 0
        assert "5 minimal cutsets" in capsys.readouterr().out


class TestAnalyzeFlags:
    def test_degrade_flag(self, sd_model_file, capsys):
        assert main(["analyze", sd_model_file, "--degrade"]) == 0
        assert "failure probability" in capsys.readouterr().out


class TestErrors:
    def test_missing_file_is_clean_error(self, capsys):
        assert main(["analyze", "/nonexistent/model.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_json_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["mcs", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimplify:
    @pytest.fixture
    def fat_model_file(self, tmp_path):
        """A model with verified diet opportunities (wrapper + vacuity)."""
        from repro.ft.builder import FaultTreeBuilder

        b = FaultTreeBuilder("fat")
        b.event("a", 1e-3).event("b", 2e-3).event("c", 3e-3)
        b.and_("both", "a", "b")
        b.or_("wrap", "c")
        b.or_("top", "a", "both", "wrap")
        path = tmp_path / "fat.json"
        save_model(b.build("top"), path)
        return str(path)

    def test_reports_the_diet(self, fat_model_file, capsys):
        assert main(["simplify", fat_model_file]) == 0
        out = capsys.readouterr().out
        assert "gates" in out and "BDD-verified" in out

    def test_check_passes_on_verified_diet(self, fat_model_file):
        assert main(["simplify", fat_model_file, "--check"]) == 0

    def test_check_fails_when_budget_blocks_verification(
        self, fat_model_file, capsys
    ):
        assert (
            main(["simplify", fat_model_file, "--check", "--node-budget", "1"])
            == 1
        )
        assert "check failed" in capsys.readouterr().err

    def test_output_round_trips_and_shrinks(self, fat_model_file, tmp_path, capsys):
        from repro.models.formats import load_model

        def gate_count(model):
            tree = getattr(model, "structure", model)
            return len(tree.gates)

        target = tmp_path / "small.json"
        assert main(["simplify", fat_model_file, "--output", str(target)]) == 0
        assert gate_count(load_model(target)) < gate_count(load_model(fat_model_file))

    def test_json_format(self, fat_model_file, capsys):
        assert main(["simplify", fat_model_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gates_after"] < payload["gates_before"]
        assert payload["budget_hit"] is False

    def test_analyze_simplify_flag_preserves_the_answer(
        self, sd_model_file, capsys
    ):
        assert main(["analyze", sd_model_file, "--no-cache"]) == 0
        plain = capsys.readouterr().out.splitlines()[0]
        assert (
            main(["analyze", sd_model_file, "--no-cache", "--simplify"]) == 0
        )
        simplified = capsys.readouterr().out.splitlines()[0]
        assert plain == simplified


class TestLintCodeValidation:
    def test_unknown_disable_code_exits_two(self, sd_model_file, capsys):
        assert main(["lint", sd_model_file, "--disable", "SD999"]) == 2
        err = capsys.readouterr().err
        assert "SD999" in err and "unknown rule code" in err

    def test_unknown_codes_are_all_listed(self, sd_model_file, capsys):
        assert (
            main(["lint", sd_model_file, "--disable", "SD998,SD101,SD999"]) == 2
        )
        err = capsys.readouterr().err
        assert "SD998" in err and "SD999" in err and "SD101" not in err

    def test_unknown_severity_code_exits_two(self, sd_model_file, capsys):
        assert main(["lint", sd_model_file, "--severity", "SD999=error"]) == 2
        assert "SD999" in capsys.readouterr().err

    def test_known_codes_still_accepted(self, sd_model_file):
        assert (
            main(
                ["lint", sd_model_file, "--disable", "SD103",
                 "--severity", "SD201=info"]
            )
            == 0
        )
