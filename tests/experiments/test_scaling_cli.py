"""Technology-scaling study and the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments.scaling import render_scaling, run_scaling


class TestScaling:
    @pytest.fixture(scope="class")
    def points(self):
        return run_scaling()

    def test_four_default_nodes(self, points):
        assert [round(p.node * 1e9) for p in points] == [65, 45, 28, 16]

    def test_energy_falls_with_node(self, points):
        energies = [p.energy_per_mvm for p in points]
        assert energies == sorted(energies, reverse=True)

    def test_superlinear_energy_reduction(self, points):
        """Smaller MIM caps + lower supply + shorter slices compound —
        the paper's closing-remark prediction."""
        node_ratio = points[0].node / points[-1].node
        energy_ratio = points[0].energy_per_mvm / points[-1].energy_per_mvm
        assert energy_ratio > node_ratio

    def test_cog_still_dominates_at_all_nodes(self, points):
        for p in points:
            assert p.cog_share > 0.9

    def test_supply_scales_down(self, points):
        supplies = [p.params.v_s for p in points]
        assert supplies == sorted(supplies, reverse=True)

    def test_render(self, points):
        text = render_scaling(points)
        assert "65 nm" in text
        assert "16 nm" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_scaling(nodes=())
        with pytest.raises(ConfigurationError):
            run_scaling(nodes=(-1.0,))


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["fig5", "--samples", "42"])
        assert args.command == "fig5"
        assert args.samples == 42

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "operating point" in out
        assert "component library" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "This work" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "ReSiPE" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "output spike" in capsys.readouterr().out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--samples", "20"]) == 0
        assert "Curve 1" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["fig6", "--budgets", "0.05", "0.5"]) == 0
        assert "winner" in capsys.readouterr().out

    def test_fig7_tiny(self, capsys):
        code = main([
            "fig7", "--networks", "mlp-1", "--sigmas", "0", "0.2",
            "--trials", "1", "--samples", "300", "--eval-samples", "50",
        ])
        assert code == 0
        assert "MLP-1" in capsys.readouterr().out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        assert "signal relation" in capsys.readouterr().out

    def test_scaling(self, capsys):
        assert main(["scaling", "--nodes", "65", "28"]) == 0
        out = capsys.readouterr().out
        assert "65 nm" in out
        assert "28 nm" in out

    def test_deploy(self, capsys):
        code = main(["deploy", "--network", "mlp-1", "--samples", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Deployment" in out
        assert "latency / inference" in out

    def test_deploy_has_no_simulate_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["deploy", "--network", "mlp-1", "--simulate", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --simulate" in capsys.readouterr().err


class TestCacheCLI:
    def test_list_empty(self, tmp_path, capsys):
        assert main(["cache", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "artifact store" in out
        assert "store is empty" in out

    def test_verify_quarantines_corrupt_entry(self, tmp_path, capsys):
        bad = tmp_path / "model.npz"
        bad.write_bytes(b"definitely not a zip")
        assert main(["cache", "--root", str(tmp_path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "quarantined 1 corrupt entry" in out
        assert (tmp_path / "model.npz.corrupt").exists()

    def test_clear(self, tmp_path, capsys):
        (tmp_path / "model.npz").write_bytes(b"junk")
        assert main(["cache", "--root", str(tmp_path), "--clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert not (tmp_path / "model.npz").exists()

    def test_respects_repro_cache_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert main(["cache"]) == 0
        assert str(tmp_path) in capsys.readouterr().out

    def test_deploy_save_report(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        report_path = tmp_path / "report.json"
        code = main([
            "deploy", "--network", "mlp-1", "--samples", "300",
            "--save-report", str(report_path),
        ])
        assert code == 0
        with open(report_path) as fh:
            payload = json.load(fh)
        assert payload["network_name"] == "MLP-1"
        assert payload["total_tiles"] >= 1
