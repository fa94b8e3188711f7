"""Command-line interface: parsing, config merging, output formats, errors."""

import cmath
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qreading
from qreading import (
    DiffractionGeometry,
    MarginalCell,
    RateBounds,
    RateRow,
    TransmitterSpec,
    bounding_rates,
    concavity_scan,
    diffraction,
    gains,
    holevo_rate,
    rate_bounds,
    rate_rows,
    rates,
    tau_extrema,
)
from qreading.channels import coherent_cell_output, epr_amplitudes
from qreading import cli
from qreading.cli import main, parse_grid
from qreading.errors import ConfigError

from oracles import (
    REFERENCE_GRID_SIZE,
    FockDensityMatrix,
    apply_cell_channel,
    apply_classical_noise,
    check_positive,
    pure_state_cell_output,
    thermal_state,
    transfer_matrix,
)


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

    def test_count_above_the_cap_refused(self, capsys):
        # refused before the list is built: a billion points took 32 GB
        assert cli._MAX_GRID_COUNT == 10 ** 6
        text = f"0.5:3:{10 ** 6 + 1}"
        with pytest.raises(ConfigError, match=r"count is above 1000000$"):
            parse_grid(text)
        code, out, err = run(capsys, "diffraction", "--lxr-grid", text, "--dim", "4")
        assert (code, out) == (2, "")
        assert err == f"error: grid '{text}': count is above 1000000\n"

    def test_count_at_the_cap_accepted(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_COUNT", 5)
        assert parse_grid("0:1:5") == [0.0, 0.25, 0.5, 0.75, 1.0]
        with pytest.raises(ConfigError):
            parse_grid("0:1:6")


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

    def test_large_coherent_probe_runs(self, capsys):
        # the output is built from its centred displacement: no probe is truncated
        code, out, err = run(capsys, "rate", "--n", "100", "--transmitter", "coherent")
        assert code == 0, err
        methods = {r["method"]: float(r["rate_bits"]) for r in parse_csv(out)}
        assert abs(methods["fock_numeric"] - methods["analytic_noiseless"]) <= 1e-8

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

    @pytest.mark.parametrize("transmitter", ["both", "coherent", "epr"])
    @pytest.mark.parametrize("nth", ["0", "0.3"])
    @pytest.mark.parametrize("z0_mod,z0_phase", [("1", "180"), ("0", "0")], ids=["phase", "amp"])
    def test_rows_are_the_library_rows(self, capsys, transmitter, nth, z0_mod, z0_phase):
        code, out, err = run(capsys, "rate", "--n", "0.2", "--nth", nth, "--dim", "12",
                             "--z0-mod", z0_mod, "--z0-phase-deg", z0_phase,
                             "--transmitter", transmitter, "--format", "json")
        assert code == 0, err
        echo = {"p0": 0.5, "z0_mod": float(z0_mod), "z0_phase_deg": float(z0_phase),
                "z1_mod": 1.0, "z1_phase_deg": 0.0, "n": 0.2, "n_th": float(nth)}
        cell = MarginalCell.binary(0.5, cmath.rect(float(z0_mod), math.radians(float(z0_phase))),
                                   1.0)
        kinds = ("coherent", "epr") if transmitter == "both" else (transmitter,)
        rows = [dict(echo, **vars(r)) for r in rate_rows(cell, 0.2, float(nth), 12, kinds)]
        assert json.loads(out) == [{k: cli._fmt(v) for k, v in row.items()} for row in rows]

    def test_missing_required_field(self, capsys):
        code, out, err = run(capsys, "rate", "--transmitter", "coherent")
        assert code == 2
        assert out == ""
        assert "missing required field 'n'" in err

    def test_deterministic_output(self, capsys):
        args = ("rate", "--n", "0.3", "--nth", "0.2", "--dim", "16")
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

    @pytest.mark.parametrize("section,line,argv", [
        ("rate", "transmitter = cohrent", ("--n", "0.1", "--dim", "8")),
        ("rate", "format = xml", ("--n", "0.1", "--dim", "8", "--transmitter", "coherent")),
        ("diffraction", "both-sides = ture", ("--lxr-grid", "1", "--dim", "8")),
    ])
    def test_values_checked_like_flags(self, capsys, tmp_path, section, line, argv):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, section, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert line.split(" = ")[0] in err

    # files configparser itself rejects, some with a message of several lines
    @pytest.mark.parametrize("text", [
        b"n = 0.1\n", b"[rate]\nn = 0.1\nout = 5%.csv\n", b"[rate]\nn = 0.1\nn = 0.2\n",
        b"[rate]\nn = 0.1\xff\xfe",
    ], ids=["no-section", "interpolation", "duplicate-key", "not-utf-8"])
    def test_unparsable_file_is_one_error_line(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(text)
        code, out, err = run(capsys, "rate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot parse config file {cfg}: ")
        assert err.count("\n") == 1

    def test_boolean_words_accepted(self, capsys, tmp_path):
        argv = ("diffraction", "--lxr-grid", "1", "--dim", "8")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[diffraction]\nboth-sides = yes\n", encoding="utf-8")
        code, from_file, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == 0
        _, from_flag, _ = run(capsys, *argv, "--both-sides")
        _, plain, _ = run(capsys, *argv)
        assert from_file == from_flag != plain


class TestGainMapCommand:
    def test_signs_and_null_relative(self, capsys):
        code, out, _ = run(capsys, "gain-map", "--n-grid", "0.1",
                           "--nth-grid", "1", "--z0-grid", "0",
                           "--z1-grid", "1", "--dim", "20",
                           "--format", "json")
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
                           "--z1-grid", "1", "--dim", "14")
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
                           "--n", "0.1", "--nth", "0.5", "--dim", "14")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row["coherent_lower"]) <= float(row["coherent_upper"]) + 1e-9
            assert float(row["epr_lower"]) <= float(row["epr_upper"]) + 1e-9
        assert abs(float(rows[0]["tau_min"]) - 2.0 / 3.141592653589793) < 1e-6
        assert float(rows[0]["tau_min"]) <= float(rows[1]["tau_min"])

    def test_rows_computed_at_the_given_ratios(self, capsys):
        # both ratios came back one ulp off through the old length round
        # trip; the rows print them rounded, so compare with the exact input
        ratios = (0.5275275275275275, 0.53003003003003)
        code, out, _ = run(capsys, "diffraction", "--lxr-grid", ",".join(map(repr, ratios)),
                           "--dim", "6", "--n", "0.01")
        assert code == 0
        for row, ratio in zip(parse_csv(out), ratios, strict=True):
            taus = tau_extrema(DiffractionGeometry(ratio))
            assert (row["tau_min"], row["tau_max"]) == tuple(f"{t:.12g}" for t in taus)

    def test_missing_grid(self, capsys):
        code, _, err = run(capsys, "diffraction")
        assert code == 2
        assert "lxr-grid" in err


def _fresh_process(*args: str, preexec_fn=None,
                   **variables: str) -> subprocess.CompletedProcess:
    """A new interpreter run with ``args`` and extra environment ``variables``
    on this checkout's src/, after ``preexec_fn`` in the child if given."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, preexec_fn=preexec_fn,
                          capture_output=True, text=True, timeout=120)


def _fresh_interpreter(code: str) -> list[str]:
    """Stdout lines of ``code`` run in a new interpreter on this checkout's src/."""
    proc = _fresh_process("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


# scipy is a test-only dependency: these runs of the CLI and the library, in
# a fresh interpreter, must leave it unloaded
_SCIPY_LOADED = "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"


class TestStartup:
    def test_rate_never_imports_scipy(self):
        # scipy serves only the test oracles, so the rate command runs on
        # numpy alone; at --dim 12 the EPR row exits 1 on its truncation
        # check, so the default dims run as well
        code = ("import sys, qreading.cli as c; "
                "codes = [c.main(['rate', '--n', '0.5', '--nth', '0.5', '--dim', '12']), "
                "c.main(['rate', '--n', '0.5', '--nth', '0.5'])]; "
                "print(codes); " + _SCIPY_LOADED)
        codes, loaded = _fresh_interpreter(code)[-2:]
        assert codes in ("[0, 0]", "[1, 0]")
        assert loaded == "[]"

    def test_symbol_grid_never_imports_scipy(self):
        # the d = ell branch sums its tails with a numpy trigamma
        code = ("import sys, numpy as np; from qreading import diffraction as D; "
                f"z = np.linspace(0.0, 2.0 * np.pi, {REFERENCE_GRID_SIZE}); "
                "[D.toeplitz_symbol(D.DiffractionGeometry(1.3, dl), z) "
                "for dl in (1.0, 0.7)]; " + _SCIPY_LOADED)
        assert _fresh_interpreter(code)[-1] == "[]"

    def test_diffraction_at_symmetry_points_never_imports_scipy(self):
        # the tau search evaluates the symbol on numpy arrays alone
        code = ("import sys, qreading.cli as c; "
                "print(c.main(['diffraction', '--lxr-grid', '0.9,1.2', '--n', '0.01', "
                "'--nth', '0.1', '--dim', '12'])); " + _SCIPY_LOADED)
        assert _fresh_interpreter(code)[-2:] == ["0", "[]"]

    def test_diffraction_and_gain_map_never_import_scipy(self):
        # at d/ell = 0.7 the extrema sit off the symmetry points and take the
        # numpy zoom polish; gain-map runs on the same numpy core
        code = ("import sys, qreading.cli as c; "
                "print([c.main(['diffraction', '--lxr-grid', '0.6:2.7:8', '--n', '0.01', "
                "'--nth', '0.1', '--dim', '12', '--d-over-ell', '0.7', '--both-sides']), "
                "c.main(['gain-map', '--n-grid', '0.05,0.5', '--nth-grid', '0,0.2', "
                "'--dim', '24'])]); " + _SCIPY_LOADED)
        assert _fresh_interpreter(code)[-2:] == ["[0, 0]", "[]"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_warm_gain_map_reuses_freed_heap(self):
        # each op allocates and frees EPR batches of a few hundred KB; with
        # glibc's default thresholds every op faulted about 3000 pages back in
        code = ("import io, contextlib, resource, qreading.cli as c; "
                "argv = ['gain-map', '--n-grid', '0.05,0.5', '--nth-grid', '0,0.2', "
                "'--dim', '24']; "
                "ops = lambda k: [c.main(argv) for _ in range(k)]; "
                "out = contextlib.redirect_stdout(io.StringIO()); out.__enter__(); "
                "ops(2); f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
                "codes = ops(5); "
                "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0; "
                "out.__exit__(None, None, None); print(codes, faults / 5)")
        codes, per_op = _fresh_interpreter(code)[-1].rsplit(" ", 1)
        assert codes == "[0, 0, 0, 0, 0]"
        assert float(per_op) < 100


class TestProgram:
    """The CLI run as ``python -m qreading.cli`` in a fresh interpreter."""

    def test_malformed_flag_exits_2(self):
        proc = _fresh_process("-m", "qreading.cli", "rate", "--n", "abc")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: argument --n: invalid float value: 'abc'\n"

    def test_config_without_section_exits_2(self, tmp_path):
        cfg = tmp_path / "flat.ini"
        cfg.write_text("n = 0.1\n", encoding="utf-8")
        proc = _fresh_process("-m", "qreading.cli", "rate", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error: cannot parse config file {cfg}: "
                               "File contains no section headers.\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS caps the address space on Linux")
    def test_out_of_memory_exits_1(self):
        # --dim 100000 asks for one 74.5 GiB array, which a 4 GB address space refuses
        import resource
        cap = 4 << 30
        proc = _fresh_process("-m", "qreading.cli", "rate", "--n", "0.1", "--dim", "100000",
                              "--transmitter", "coherent", OPENBLAS_NUM_THREADS="1",
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                    (cap, cap)))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: out of memory: Unable to allocate 74.5 GiB")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS caps the address space on Linux")
    def test_huge_grid_count_exits_2(self):
        # without the count cap, a billion-point grid filled the 1 GiB address
        # space while building its list and exited 1 out of memory
        import resource
        cap = 1 << 30
        proc = _fresh_process("-m", "qreading.cli", "diffraction", "--lxr-grid",
                              "0.5:3:1000000000", "--dim", "4", OPENBLAS_NUM_THREADS="1",
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                    (cap, cap)))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: grid '0.5:3:1000000000': count is above 1000000\n"

    def test_parser_built_once_per_process(self):
        # argparse keeps no state between parse_args calls, so main reuses
        # the parser built at import
        code = ("import argparse, io, contextlib, qreading.cli as c; built = []; "
                "init = argparse.ArgumentParser.__init__; "
                "argparse.ArgumentParser.__init__ = "
                "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
                "argv = ['rate', '--n', '0.1', '--dim', '8', '--transmitter', 'coherent']; "
                "out = contextlib.redirect_stdout(io.StringIO()); out.__enter__(); "
                "codes = [c.main(argv), c.main(argv)]; out.__exit__(None, None, None); "
                "print(codes, len(built))")
        assert _fresh_interpreter(code)[-1] == "[0, 0] 0"

    # a fresh interpreter, because under pytest the root logger already has
    # handlers and logging.basicConfig does nothing
    @pytest.mark.parametrize("level,logged", [("basic_format", []), ("warn", []),
                                              ("info", ["INFO qreading: running rate with {"])],
                             ids=["basic_format", "warn", "info"])
    def test_log_levels(self, level, logged):
        proc = _fresh_process("-m", "qreading.cli", "rate", "--n", "0.1", "--dim", "8",
                              "--transmitter", "coherent", QREADING_LOG=level)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("p0,")
        lines = proc.stderr.splitlines()
        assert len(lines) == len(logged)
        assert all(line.startswith(start) for line, start in zip(lines, logged))


class TestHelp:
    @pytest.mark.parametrize("argv,choices", [
        ((), ["{rate,gain-map,diffraction}"]),
        (("rate",), ["{csv,json}", "{coherent,epr,both}"]),
        (("gain-map",), ["{csv,json}"]),
        (("diffraction",), ["{csv,json}"]),
    ], ids=["top", "rate", "gain-map", "diffraction"])
    def test_help_exits_0(self, capsys, argv, choices):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(" ".join(["usage: qreading", *argv]))
        assert err == ""
        for listed in choices:
            assert listed in out


class TestThinShell:
    """The diffraction command is one call of the library's rate_bounds."""

    ARGS = ("diffraction", "--lxr-grid", "0.6:1.6:3", "--n", "0.1", "--nth", "0.5",
            "--dim", "8")

    @pytest.mark.parametrize("extra", [(), ("--d-over-ell", "0.6"), ("--both-sides",)])
    def test_rows_equal_rate_bounds(self, capsys, extra):
        code, out, _ = run(capsys, *self.ARGS, *extra)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        cell = MarginalCell.binary(0.5, 0.0, 1.0)
        geoms = [DiffractionGeometry(float(row["ell_over_xr"]), float(row["d_over_ell"]))
                 for row in rows]
        sweep = rate_bounds(cell, 0.1, geoms, 0.5, dim=8,
                            attenuate_idler="--both-sides" in extra)
        for row, bounds in zip(rows, sweep, strict=True):
            assert list(row)[-len(vars(bounds)):] == list(vars(bounds))
            for key, value in vars(bounds).items():
                assert row[key] == f"{value:.12g}"

    def test_one_rate_per_distinct_tau(self, capsys, monkeypatch):
        searches, calls = [], []
        real_search, real_rates = diffraction._sweep_extrema, diffraction.bounding_rates

        def counted(cell, tx, n_th, taus, *args, **kwargs):
            calls.append((tx.kind, len(taus)))
            return real_rates(cell, tx, n_th, taus, *args, **kwargs)

        monkeypatch.setattr(diffraction, "_sweep_extrema",
                            lambda geoms: searches.append(geoms) or real_search(geoms))
        monkeypatch.setattr(diffraction, "bounding_rates", counted)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        rows = parse_csv(out)
        taus = {row[col] for row in rows for col in ("tau_min", "tau_max")}
        # tau_max = 1 at every ratio when d = ell, so taus repeat across rows;
        # each transmitter takes every distinct tau in one call, and both
        # transmitters share one tau search of the whole sweep
        assert len(taus) < 2 * len(rows)
        assert calls == [("coherent", len(taus)), ("epr", len(taus))]
        assert len(searches) == 1
        assert [geom.ell_over_xr for geom in searches[0]] == [
            float(row["ell_over_xr"]) for row in rows]

    def test_one_eigensolve_per_transmitter(self, capsys, monkeypatch):
        # an 8-ratio sweep: every bounding rate of a transmitter shares one
        # block_entropies call (one per distinct tau before the batch)
        calls = []
        real = rates.block_entropies
        monkeypatch.setattr(rates, "block_entropies",
                            lambda blocks: calls.append(blocks.shape) or real(blocks))
        code, out, _ = run(capsys, "diffraction", "--lxr-grid", "0.6:2.7:8", "--n", "0.01",
                           "--nth", "0.1", "--dim", "12", "--d-over-ell", "0.7")
        assert code == 0
        assert len(parse_csv(out)) == 8
        assert len(calls) == 2
        assert calls[0][1:] == (1, 12, 12) and calls[1][1:] == (12, 12, 12)


class TestRemovedKnobs:
    """The quadrature order and thread count did nothing, and are gone; the
    symbol grid size, the idler count and the state-level truncation bound
    had one value in use, and are constants or derived values now. No
    production code set holevo_rate's idler attenuation or convergence
    check, and both are gone with the channel-setting wrappers."""

    @pytest.mark.parametrize("flag", ["--quad-order", "--threads", "--grid-size"])
    @pytest.mark.parametrize("command", ["rate", "gain-map", "diffraction"])
    def test_flag_rejected(self, capsys, command, flag):
        code, out, err = run(capsys, command, flag, "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize("key", ["quad-order", "threads"])
    def test_config_key_rejected(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[rate]\nn = 0.1\n{key} = 2\n", encoding="utf-8")
        code, out, err = run(capsys, "rate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"unknown config key {key!r}" in err

    def test_grid_size_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[diffraction]\nlxr-grid = 1\ngrid-size = 4096\n", encoding="utf-8")
        code, out, err = run(capsys, "diffraction", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown config key 'grid-size'" in err

    @pytest.mark.parametrize("call,keyword", [
        (lambda: tau_extrema(DiffractionGeometry(1.0), grid_size=4096), "grid_size"),
        (lambda: rate_bounds(None, 0.1, None, 0.1, grid_size=4096), "grid_size"),
        (lambda: TransmitterSpec("epr", 1.0, r=1), "'r'"),
        (lambda: TransmitterSpec("epr", 0.1, s=2), "'s'"),
        (lambda: epr_amplitudes(0.1, 8, eps_trunc=1e-2), "eps_trunc"),
        (lambda: FockDensityMatrix((2,), np.eye(2) / 2, eps_trunc=0.1), "eps_trunc"),
        (lambda: FockDensityMatrix.from_pure(np.ones(1), (1,), eps_trunc=0.1), "eps_trunc"),
        (lambda: thermal_state(0.5, 4, eps_trunc=0.1), "eps_trunc"),
        (lambda: pure_state_cell_output(np.ones(1), [[1.0]], [0.0], mode=0), "mode"),
        (lambda: coherent_cell_output(0.0, [[1.0, -1.0]], [0.0], 2, mode=0), "mode"),
        (lambda: transfer_matrix(DiffractionGeometry(1.0), [0], [0], cells=40, quad_tol=1e-8),
         "quad_tol"),
        (lambda: check_positive(thermal_state(0.5, 4), floor=1e-10), "floor"),
        (lambda: holevo_rate(MarginalCell.binary(0.5, 0.0, 1.0), TransmitterSpec.epr(0.1),
                             0.1, 8, idler_attenuation=0.5), "idler_attenuation"),
        (lambda: holevo_rate(MarginalCell.binary(0.5, 0.0, 1.0), TransmitterSpec.epr(0.1),
                             0.1, 8, check_convergence=True), "check_convergence"),
    ], ids=["tau_extrema", "rate_bounds", "TransmitterSpec.r", "TransmitterSpec.s",
            "amplitudes.eps_trunc", "FockDensityMatrix", "from_pure", "thermal_state",
            "pure_state_cell_output", "coherent_cell_output", "transfer_matrix",
            "check_positive", "holevo_rate.idler_attenuation", "holevo_rate.check_convergence"])
    def test_single_value_settings_rejected(self, call, keyword):
        with pytest.raises(TypeError, match=keyword):
            call()

    def test_channel_wrappers_removed(self):
        # bounding_rates is the one place a tau-attenuator is composed
        names = ("ChannelParams", "compose_with_attenuator")
        assert [n for n in names if hasattr(qreading, n) or hasattr(qreading.channels, n)] == []
        assert not hasattr(qreading.rates, "_fock_rates")

    def test_dense_probe_builders_removed(self):
        # a probe is its d real amplitudes; the dense and complex builders are oracles
        assert [n for n in ("coherent_state", "epr_state")
                if hasattr(qreading, n) or n in qreading.__all__] == []
        assert not hasattr(TransmitterSpec, "fock_vector")
        source = "".join(path.read_text(encoding="utf-8")
                         for path in sorted(Path(qreading.__file__).parent.glob("*.py")))
        for word in ("kron", "fock_vector", "eps_trunc", "def coherent_state", "def epr_state",
                     "pure_state_cell_output"):
            assert word not in source

    def test_no_memo_in_the_package(self):
        # a sweep makes one tau search per geometry; nothing is memoised per process
        modules = [importlib.import_module(f"qreading.{info.name}")
                   for info in pkgutil.iter_modules(qreading.__path__)]
        assert [f"{m.__name__}.{name}" for m in (qreading, *modules)
                for name, value in vars(m).items() if hasattr(value, "cache_clear")] == []
        source = "".join(path.read_text(encoding="utf-8")
                         for path in sorted(Path(qreading.__file__).parent.glob("*.py")))
        assert [w for w in ("lru_cache", "functools", "cache_clear") if w in source] == []

    def test_rate_row_fields_are_the_rate_columns(self, capsys):
        # the columns that follow the seven input columns, in order
        names = [f.name for f in dataclasses.fields(RateRow)]
        assert names == ["transmitter", "method", "dim", "rate_bits", "trace_deficit",
                         "cross_check_bits"]
        code, out, _ = run(capsys, "rate", "--n", "0.1", "--dim", "8")
        assert code == 0
        assert out.split("\n")[0].split(",")[7:] == names

    def test_states_module_folded_away(self):
        # each piece of the old states module lives next to its one reader, and
        # the rate command makes one library call: it names no rate or closed form
        assert importlib.util.find_spec("qreading.states") is None
        assert not hasattr(TransmitterSpec, "amplitudes")
        source = Path(cli.__file__).read_text(encoding="utf-8")
        assert [w for w in ("holevo_rate", "coherent_capacity_noiseless",
                            "epr_rate_noiseless_phase", "TransmitterSpec") if w in source] == []

    def test_rate_bounds_fields_are_the_diffraction_columns(self):
        # one flat record per geometry, in the CLI's column order; the
        # per-transmitter RateResult pair and its accessors are gone
        assert [f.name for f in dataclasses.fields(RateBounds)] == [
            "tau_min", "tau_max", "coherent_lower", "coherent_upper", "epr_lower",
            "epr_upper", "trace_deficit", "cross_check_bits"]
        assert [n for n in ("lower", "upper", "lower_bits", "upper_bits")
                if hasattr(RateBounds, n)] == []

    @pytest.mark.parametrize("call", [
        lambda: apply_classical_noise(None, 0.1, quad_order=14),
        lambda: apply_cell_channel(None, 1.0, 0.1, quad_order=14),
        lambda: pure_state_cell_output(None, None, quad_order=14),
        lambda: coherent_cell_output(None, None, None, quad_order=14),
        lambda: holevo_rate(None, None, 0.1, quad_order=14),
        lambda: gains(None, 0.1, 0.1, quad_order=14),
        lambda: concavity_scan(None, [0.1, 0.2, 0.3], 0.1, quad_order=14),
        lambda: bounding_rates(None, None, 0.1, [1.0], quad_order=14),
        lambda: rate_bounds(None, 0.1, [], 0.1, quad_order=14),
    ], ids=["apply_classical_noise", "apply_cell_channel", "pure_state_cell_output",
            "coherent_cell_output", "holevo_rate", "gains", "concavity_scan", "bounding_rates",
            "rate_bounds"])
    def test_library_rejects_quad_order(self, call):
        with pytest.raises(TypeError, match="quad_order"):
            call()


class TestBenchCallPath:
    """The bench reads its cross-check metric off calls through rates.holevo_rate,
    rebound at every module global bound to it; pin how many each workload makes."""

    @pytest.mark.parametrize("argv,calls", [
        (("rate", "--n", "1", "--nth", "1"), 2),
        (("gain-map", "--n-grid", "0.01,0.5", "--nth-grid", "0,0.05,1", "--dim", "24"), 12),
    ], ids=["point-rate", "gain-map"])
    def test_holevo_rate_calls(self, capsys, monkeypatch, argv, calls):
        original, seen = rates.holevo_rate, []

        def counted(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        for module in (qreading, qreading.rates, qreading.cli):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(seen) == calls


class TestBoundaryExits:
    @pytest.mark.parametrize("argv", [
        ("diffraction", "--lxr-grid", "0"),
        ("rate", "--n", "0.1", "--nth", "-1"),
        ("rate", "--n", "0.1", "--p0", "1.5"),
        ("rate", "--n", "0.1", "--dim", "1"),
        ("rate", "--n", "nan"),
        ("rate", "--n", "0.1", "--nth", "inf"),
        ("gain-map", "--n-grid", "nan", "--nth-grid", "0"),
        ("gain-map", "--n-grid", "0.1", "--nth-grid", "0,inf"),
        ("diffraction", "--lxr-grid", "0.5,inf"),
        ("rate", "--n", "0.1", "--dim", "1", "--transmitter", "epr"),
        ("diffraction", "--lxr-grid", "0.5,1", "--nth", "-1"),
        ("diffraction", "--lxr-grid", "0.5,1", "--z1-mod", "1.5"),
        ("diffraction", "--lxr-grid", "0.5,1", "--p0", "1.5"),
        ("diffraction", "--lxr-grid", "0.5,1", "--n", "-1"),
        ("diffraction", "--lxr-grid", "0.5,1", "--dim", "1"),
        ("diffraction", "--lxr-grid", "0.5,1", "--d-over-ell", "0"),
        ("rate", "--n", "0.1", "--dim", "0"),
        ("gain-map", "--n-grid", "0.1", "--nth-grid", "0", "--dim", "0"),
    ])
    def test_out_of_domain_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 149. GiB for an array", "out of memory: Unable to allocate 149. "
                                                     "GiB for an array"),
        ("", "out of memory")], ids=["numpy", "python"])
    def test_out_of_memory_exits_1(self, capsys, monkeypatch, message, line):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(qreading.cli, "rate_rows", exhausted)
        code, out, err = run(capsys, "rate", "--n", "0.1", "--dim", "8")
        assert code == 1
        assert out == ""
        assert err == f"error: {line}\n"

    def test_truncated_epr_probe_exits_1(self, capsys):
        # n = 3 puts more than the truncation bound of the EPR probe past dim 30
        code, out, err = run(capsys, "diffraction", "--lxr-grid", "0.5:3:3", "--n", "3",
                             "--nth", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: EPR-state norm deficit") and err.count("\n") == 1

    def test_noise_past_the_float_range_exits_1(self, capsys):
        # 2 n_th overflows the closed form's eigenvalue product: a NaN cross-check, not a row
        code, out, err = run(capsys, "rate", "--n", "0.1", "--nth", "1.7e308",
                             "--transmitter", "epr")
        assert code == 1
        assert out == ""
        assert err.startswith("error: non-finite result") and err.count("\n") == 1

    def test_huge_noise_json_is_valid(self, capsys):
        def refuse(constant):
            raise ValueError(constant)

        code, out, _ = run(capsys, "rate", "--n", "0.1", "--nth", "1e154",
                           "--transmitter", "epr", "--format", "json")
        assert code == 0
        [row] = json.loads(out, parse_constant=refuse)
        assert math.isfinite(row["cross_check_bits"])

    @pytest.mark.parametrize("ratio", ["1e300", "1.7976931348623157e308"])
    def test_huge_ratio_is_clean(self, capsys, ratio):
        # the d = ell symbol reads 1.0 there, with no overflow warning on the way
        code, out, err = run(capsys, "diffraction", "--lxr-grid", ratio, "--dim", "4",
                             "--n", "0.01")
        assert code == 0
        assert err == ""
        [row] = parse_csv(out)
        assert row["tau_min"] == row["tau_max"] == "1"

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "rate", "--n", "0.1", "--dim", "8",
                             "--transmitter", "coherent", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1
        assert not path.exists()

    def test_non_finite_config_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[rate]\nn = nan\n", encoding="utf-8")
        code, _, err = run(capsys, "rate", "--config", str(cfg))
        assert code == 2
        assert "finite" in err


class TestNoNegativeZero:
    @pytest.mark.parametrize("argv", [
        ("rate", "--n", "0", "--nth", "0"),
        ("gain-map", "--n-grid", "0", "--nth-grid", "0"),
    ], ids=["rate", "gain-map"])
    def test_no_cell_reads_negative_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        cells = [v for row in parse_csv(out) for v in row.values()]
        assert "0" in cells and not any(v in ("-0", "-0.0") for v in cells)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        values = [v for row in json.loads(out) for v in row.values() if isinstance(v, float)]
        assert all(math.copysign(1.0, v) == 1.0 for v in values if v == 0.0)


class TestTrustColumns:
    """Rows carry the library's trace deficit and Fock-vs-Gaussian cross-check."""

    @staticmethod
    def assert_cells(row, deficit, cross):
        for key, value in (("trace_deficit", deficit), ("cross_check_bits", cross)):
            assert math.isfinite(float(row[key]))
            assert row[key] == f"{value:.12g}"

    def test_rate_rows(self, capsys):
        code, out, _ = run(capsys, "rate", "--n", "0.3", "--nth", "0.2", "--dim", "16")
        assert code == 0
        cell = MarginalCell.binary(0.5, 0.0, 1.0)
        for row in parse_csv(out):
            tx = TransmitterSpec.coherent(0.3) if row["transmitter"] == "coherent" \
                else TransmitterSpec.epr(0.3)
            res = holevo_rate(cell, tx, 0.2, 16)
            self.assert_cells(row, res.trace_deficit, res.cross_check_error)

    def test_cross_check_sees_a_state_truncated_away(self, capsys):
        # at n_th = 1e300 the Fock-basis state is truncated away entirely; the
        # Gaussian entropy, about 998 bits, must show it rather than cancel to 0
        code, out, _ = run(capsys, "rate", "--n", "0.1", "--nth", "1e300")
        assert code == 0
        (row,) = [r for r in parse_csv(out) if r["transmitter"] == "coherent"]
        assert float(row["trace_deficit"]) == 1.0
        assert float(row["cross_check_bits"]) > 900

    def test_analytic_rows_read_zero(self, capsys):
        code, out, _ = run(capsys, "rate", "--n", "0.5", "--transmitter", "coherent",
                           "--dim", "20")
        assert code == 0
        rows = [r for r in parse_csv(out) if r["method"] == "analytic_noiseless"]
        assert len(rows) == 1
        self.assert_cells(rows[0], 0.0, 0.0)

    def test_gain_map_rows(self, capsys):
        code, out, _ = run(capsys, "gain-map", "--n-grid", "0.1", "--nth-grid", "0,0.5",
                           "--dim", "12")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        cell = MarginalCell.binary(0.5, 0.0, 1.0)
        for row in rows:
            nth = float(row["n_th"])
            res = gains(cell, 0.1, nth, 12)
            coh = holevo_rate(cell, TransmitterSpec.coherent(0.1), nth, 12)
            epr = holevo_rate(cell, TransmitterSpec.epr(0.1), nth, 12)
            assert res.trace_deficit == max(coh.trace_deficit, epr.trace_deficit)
            assert res.cross_check_bits == max(coh.cross_check_error,
                                               epr.cross_check_error)
            self.assert_cells(row, res.trace_deficit, res.cross_check_bits)

    def test_diffraction_rows(self, capsys):
        code, out, _ = run(capsys, "diffraction", "--lxr-grid", "0.6,1.2", "--n", "0.1",
                           "--nth", "0.5", "--dim", "8")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        assert list(rows[0])[-3:] == ["epr_upper", "trace_deficit", "cross_check_bits"]
        cell = MarginalCell.binary(0.5, 0.0, 1.0)
        for row in rows:
            taus = tau_extrema(DiffractionGeometry(float(row["ell_over_xr"])))
            # the four bound rates and the worst of their trust numbers, from
            # the rate core itself
            results = [r for tx in (TransmitterSpec.coherent(0.1), TransmitterSpec.epr(0.1))
                       for r in bounding_rates(cell, tx, 0.5, taus, 8)]
            assert [row[key] for key in ("coherent_lower", "coherent_upper", "epr_lower",
                                         "epr_upper")] == [f"{r.rate_bits:.12g}" for r in results]
            self.assert_cells(row, max(r.trace_deficit for r in results),
                              max(r.cross_check_error for r in results))
