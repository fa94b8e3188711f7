"""Command-line interface: parsing, config merging, output formats, errors."""

import json
import logging

import pytest

from qreading import (
    DiffractionGeometry,
    MarginalCell,
    TransmitterSpec,
    rate_bounds,
    rates,
    tau_extrema,
)
from qreading.cli import main, parse_grid
from qreading.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestGridParsing:
    def test_linspace_syntax(self):
        assert parse_grid("0:1:5") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_grid("2:2:1") == [2.0]

    def test_list_syntax(self):
        assert parse_grid("0.1, 0.5,2") == [0.1, 0.5, 2.0]

    def test_bad_grid_rejected(self):
        for text in ("0:1:0", "a,b", "1:2", ""):
            with pytest.raises(ConfigError):
                parse_grid(text)


class TestRateCommand:
    def test_noiseless_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "rate", "--n", "1", "--nth", "0",
                           "--transmitter", "coherent", "--dim", "40")
        assert code == 0
        rows = parse_csv(out)
        methods = {r["method"]: r for r in rows}
        assert set(methods) == {"fock_numeric", "analytic_noiseless"}
        assert methods["analytic_noiseless"]["rate_bits"] == "0.715349166711"
        num = float(methods["fock_numeric"]["rate_bits"])
        assert abs(num - 0.7153491667107217) < 1e-7

    def test_epr_phase_analytic_row(self, capsys):
        code, out, _ = run(capsys, "rate", "--n", "1", "--nth", "0",
                           "--transmitter", "epr", "--dim", "30",
                           "--z0-phase-deg", "180", "--z0-mod", "1")
        assert code == 0
        rows = parse_csv(out)
        analytic = [r for r in rows if r["method"] == "analytic_noiseless"]
        assert len(analytic) == 1
        assert abs(float(analytic[0]["rate_bits"]) - 0.9182958340544896) < 1e-9

    def test_degenerate_cell_zero_rate(self, capsys):
        code, out, _ = run(capsys, "rate", "--n", "0.5", "--z0-mod", "1",
                           "--transmitter", "coherent", "--dim", "20")
        assert code == 0
        rows = parse_csv(out)
        assert all(float(r["rate_bits"]) < 1e-9 for r in rows)

    def test_missing_required_field(self, capsys):
        code, out, err = run(capsys, "rate", "--transmitter", "coherent")
        assert code == 2
        assert out == ""
        assert "missing required field 'n'" in err

    def test_deterministic_output(self, capsys):
        args = ("rate", "--n", "0.3", "--nth", "0.2", "--dim", "16",
                "--quad-order", "10", "--threads", "2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "rate", "--n", "0.5", "--format", "json",
                           "--transmitter", "coherent", "--dim", "20")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["transmitter"] == "coherent"
        assert {"rate_bits", "method", "dim", "n", "n_th"} <= set(rows[0])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rates.csv"
        code, out, _ = run(capsys, "rate", "--n", "0.5", "--dim", "20",
                           "--transmitter", "coherent", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8").startswith("p0,")

    def test_no_partial_output_on_error(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        code, _, _ = run(capsys, "rate", "--out", str(path))
        assert code == 2
        assert not path.exists()


class TestConfigFile:
    def test_values_read_and_overridden(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[rate]\nn = 1\nnth = 0\ntransmitter = coherent\ndim = 40\n",
                       encoding="utf-8")
        code, out, _ = run(capsys, "rate", "--config", str(cfg))
        assert code == 0
        assert "0.715349166711" in out
        # flag overrides the config value
        code, out2, _ = run(capsys, "rate", "--config", str(cfg), "--n", "0")
        assert code == 0
        assert all(float(r["rate_bits"]) < 1e-9 for r in parse_csv(out2))

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[rate]\nn = 1\nbogus = 3\n", encoding="utf-8")
        code, _, err = run(capsys, "rate", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_missing_file_rejected(self, capsys):
        code, _, err = run(capsys, "rate", "--config", "/nonexistent.ini")
        assert code == 2
        assert "cannot read" in err


class TestGainMapCommand:
    def test_signs_and_null_relative(self, capsys):
        code, out, _ = run(capsys, "gain-map", "--n-grid", "0.1",
                           "--nth-grid", "1", "--z0-grid", "0",
                           "--z1-grid", "1", "--dim", "20",
                           "--quad-order", "12", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["gain_absolute"] > 0.0
        assert row["gain_relative"] > 0.0
        # degenerate cell: relative gain is null
        code, out, _ = run(capsys, "gain-map", "--n-grid", "0.1",
                           "--nth-grid", "0", "--z0-grid", "1",
                           "--z1-grid", "1", "--dim", "12", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["gain_relative"] is None

    def test_grid_cartesian_product(self, capsys):
        code, out, _ = run(capsys, "gain-map", "--n-grid", "0.05,0.1",
                           "--nth-grid", "0,0.2", "--z0-grid", "0",
                           "--z1-grid", "1", "--dim", "14",
                           "--quad-order", "10", "--threads", "2")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert [(r["n"], r["n_th"]) for r in rows] == \
            [("0.05", "0"), ("0.05", "0.2"), ("0.1", "0"), ("0.1", "0.2")]

    def test_decreasing_grid_rejected(self, capsys):
        code, _, err = run(capsys, "gain-map", "--n-grid", "0.2,0.1",
                           "--nth-grid", "0")
        assert code == 2
        assert "strictly increasing" in err


class TestDiffractionCommand:
    def test_sweep_structure(self, capsys):
        code, out, _ = run(capsys, "diffraction", "--lxr-grid", "0.5,1.0",
                           "--n", "0.1", "--nth", "0.5", "--dim", "14",
                           "--quad-order", "10")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row["coherent_lower"]) <= float(row["coherent_upper"]) + 1e-9
            assert float(row["epr_lower"]) <= float(row["epr_upper"]) + 1e-9
        assert abs(float(rows[0]["tau_min"]) - 2.0 / 3.141592653589793) < 1e-6
        assert float(rows[0]["tau_min"]) <= float(rows[1]["tau_min"])

    def test_missing_grid(self, capsys):
        code, _, err = run(capsys, "diffraction")
        assert code == 2
        assert "lxr-grid" in err


class TestThinShell:
    """The diffraction command is a serial loop over the library's rate_bounds."""

    ARGS = ("diffraction", "--lxr-grid", "0.6:1.6:3", "--n", "0.1", "--nth", "0.5",
            "--dim", "8", "--quad-order", "8", "--grid-size", "1024")

    @pytest.mark.parametrize("extra", [(), ("--d-over-ell", "0.6"), ("--both-sides",)])
    def test_rows_equal_rate_bounds(self, capsys, extra):
        code, out, _ = run(capsys, *self.ARGS, *extra)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        # recompute from cold caches, so equality does not come from a cache hit
        rates.rate_after_attenuation.cache_clear()
        tau_extrema.cache_clear()
        cell = MarginalCell.binary(0.5, 0.0, 1.0)
        for row in rows:
            geom = DiffractionGeometry.from_ratios(float(row["ell_over_xr"]),
                                                   float(row["d_over_ell"]))
            for kind, tx in (("coherent", TransmitterSpec.coherent(0.1)),
                             ("epr", TransmitterSpec.epr(0.1))):
                bounds = rate_bounds(cell, tx, geom, 0.5, dim=8, quad_order=8,
                                     grid_size=1024,
                                     attenuate_idler="--both-sides" in extra)
                assert row["tau_min"] == f"{bounds.tau_min:.12g}"
                assert row["tau_max"] == f"{bounds.tau_max:.12g}"
                assert row[f"{kind}_lower"] == f"{bounds.lower_bits:.12g}"
                assert row[f"{kind}_upper"] == f"{bounds.upper_bits:.12g}"

    def test_one_rate_per_distinct_tau(self, capsys, monkeypatch):
        calls = []
        real = rates.holevo_rate

        def counted(cell, tx, *args, **kwargs):
            calls.append(tx.kind)
            return real(cell, tx, *args, **kwargs)

        monkeypatch.setattr(rates, "holevo_rate", counted)
        rates.rate_after_attenuation.cache_clear()
        tau_extrema.cache_clear()
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        rows = parse_csv(out)
        taus = {(kind, row[col]) for row in rows for kind in ("coherent", "epr")
                for col in ("tau_min", "tau_max")}
        # tau_max = 1 at every ratio when d = ell, so rates repeat across rows
        assert len(calls) == len(taus) < 4 * len(rows)
        assert tau_extrema.cache_info().misses == len(rows)


class TestThreadsDeprecated:
    def test_any_value_accepted_and_warned(self, capsys, caplog):
        with caplog.at_level(logging.WARNING, logger="qreading"):
            code, out, _ = run(capsys, "gain-map", "--n-grid", "0.1,0.2",
                               "--nth-grid", "0", "--dim", "12", "--threads", "-3")
        assert code == 0
        assert len(parse_csv(out)) == 2
        warned = [r for r in caplog.records if "deprecated" in r.getMessage()]
        assert len(warned) == 1 and warned[0].name == "qreading"


class TestBoundaryExits:
    @pytest.mark.parametrize("argv", [
        ("diffraction", "--lxr-grid", "0"),
        ("diffraction", "--lxr-grid", "1", "--grid-size", "10"),
        ("rate", "--n", "0.1", "--nth", "-1"),
        ("rate", "--n", "0.1", "--p0", "1.5"),
        ("rate", "--n", "0.1", "--dim", "1"),
        ("rate", "--n", "nan"),
        ("rate", "--n", "0.1", "--nth", "inf"),
        ("gain-map", "--n-grid", "nan", "--nth-grid", "0"),
        ("gain-map", "--n-grid", "0.1", "--nth-grid", "0,inf"),
        ("diffraction", "--lxr-grid", "0.5,inf"),
    ])
    def test_out_of_domain_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_finite_config_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[rate]\nn = nan\n", encoding="utf-8")
        code, _, err = run(capsys, "rate", "--config", str(cfg))
        assert code == 2
        assert "finite" in err
