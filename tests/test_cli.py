"""CLI front end: config round trips, artifact schema, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debye_screen import cli, maxwell
from debye_screen.cli import (
    ConfigError,
    KernelRequest,
    RunConfig,
    SUBCOMMANDS,
    default_config,
    emit_manifest,
    parse_config,
)
from debye_screen.errors import DebyeScreenError
from debye_screen.specfun import ThermalParams


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestManifestRoundTrip:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_emit_parse_emit_is_identity(self, name):
        cfg = default_config(name)
        text = emit_manifest(cfg)
        cfg2 = parse_config(text)
        assert cfg2 == cfg
        assert emit_manifest(cfg2) == text

    def test_manifest_starts_with_subcommand_and_seed(self):
        lines = emit_manifest(default_config("debye")).splitlines()
        assert lines[0] == "subcommand=debye"
        assert lines[1] == "seed=42"

    def test_infinite_beta_round_trips_as_inf(self):
        cfg = replace(default_config("debye"),
                      params=ThermalParams(beta=math.inf, mass=1.0))
        text = emit_manifest(cfg)
        assert "params.beta=inf" in text.splitlines()
        back = parse_config(text)
        assert math.isinf(back.params.beta)

    def test_non_default_values_survive(self):
        cfg = replace(
            default_config("screening"),
            seed=7,
            kernel=KernelRequest(mode="full_kernel"),
            output=replace(default_config("screening").output, precision=9))
        back = parse_config(emit_manifest(cfg))
        assert back == cfg
        assert back.kernel.mode == "full_kernel"
        assert back.output.precision == 9

    def test_non_default_decay_weight_survives(self):
        # no subcommand reads both kernel.mode and kernel.weight
        cfg = replace(default_config("decay"), kernel=KernelRequest(weight="kms"))
        back = parse_config(emit_manifest(cfg))
        assert back == cfg
        assert back.kernel.weight == "kms"

    def test_floats_keep_shortest_repr(self):
        # repr round-trips doubles exactly, so the hash is stable
        cfg = replace(default_config("debye"),
                      params=ThermalParams(beta=0.1, mass=1 / 3))
        back = parse_config(emit_manifest(cfg))
        assert back.params.beta == 0.1
        assert back.params.mass == 1 / 3


def _readme_key_table():
    """The README's key table as (key, cells), one cell per subcommand."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = next(line for line in lines if line.startswith("| key |"))
    assert [c.strip() for c in header.split("|")[1:-1]] == ["key", *SUBCOMMANDS]
    rows = [[c.strip() for c in line.split("|")[1:-1]] for line in lines
            if line.startswith("| `")]
    return [(row[0].strip("`"), row[1:]) for row in rows]


# seed is in every manifest, as the README states, though only decay reads it
UNREAD = [(name, key) for key, cells in _readme_key_table()
          for name, cell in zip(SUBCOMMANDS, cells) if not cell and key != "seed"]


class TestReadmeKeyTable:
    def test_table_lists_exactly_the_manifest_keys(self):
        # a subcommand's marked keys, conditional marks included, are its
        # manifest keys in manifest order
        table = _readme_key_table()
        for j, name in enumerate(SUBCOMMANDS):
            manifest = emit_manifest(default_config(name)).splitlines()
            marked = [key for key, cells in table if cells[j] or key == "seed"]
            assert marked == [line.partition("=")[0] for line in manifest]

    @pytest.mark.parametrize("name,key", UNREAD)
    def test_unread_key_is_rejected(self, name, key):
        # a value another subcommand accepts, so only the key can fail
        lines = {line.partition("=")[0]: line for s in SUBCOMMANDS
                 for line in emit_manifest(default_config(s)).splitlines()}
        with pytest.raises(ConfigError, match="unknown key") as exc:
            parse_config(f"subcommand={name}\n{lines[key]}\n")
        assert exc.value.line == 2 and exc.value.key == key
        assert repr(name) in str(exc.value)


class TestParseErrors:
    def test_missing_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            parse_config("params.beta=1.0\n")

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            parse_config("subcommand=frobnicate\n")

    def test_unknown_key_reports_line_and_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("subcommand=debye\nnope.key=1\n")
        assert exc.value.line == 2
        assert exc.value.key == "nope.key"
        assert "line 2" in str(exc.value)

    def test_duplicate_key(self):
        text = "subcommand=debye\nparams.beta=1.0\nparams.beta=2.0\n"
        with pytest.raises(ConfigError, match="duplicate") as exc:
            parse_config(text)
        assert exc.value.line == 3

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config("subcommand=debye\nparams.beta=warm\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config("subcommand=debye\nseed=1.5\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="key=value") as exc:
            parse_config("subcommand=debye\nhello there\n")
        assert exc.value.line == 2

    def test_comments_and_blanks_are_skipped(self):
        text = "# a comment\n\nsubcommand=debye\n  # indented comment\n"
        assert parse_config(text).subcommand == "debye"

    @pytest.mark.parametrize("line,frag", [
        ("grids.r_count=4", "r_count"),
        ("output.precision=30", "precision"),
        ("seed=-1", "seed"),
        ("tolerances.quadrature=0.0", "tolerances"),
        ("tolerances.fit_r_lo=20.0", "fit"),
        ("grids.r_min=0.0", "r_min"),
    ])
    def test_validation_failures(self, line, frag):
        # each key is set in a subcommand that reads it, so the failure is
        # the value's, not an unknown key's
        name = {"grids.r_count": "screening", "grids.r_min": "screening",
                "tolerances.fit_r_lo": "decay"}.get(line.partition("=")[0], "debye")
        with pytest.raises(ConfigError, match=frag) as exc:
            parse_config(f"subcommand={name}\n{line}\n")
        assert "unknown key" not in str(exc.value)

    def test_bad_subcommand_in_constructor(self):
        with pytest.raises(ConfigError):
            RunConfig(subcommand="bogus")


class TestDefaults:
    def test_screening_and_limits_default_massless(self):
        assert default_config("screening").params.mass == 0.0
        assert default_config("limits").params.mass == 0.0
        assert default_config("debye").params.mass == 1.0

    def test_decay_trims_schedule(self):
        assert default_config("decay").grids.r_count == 10

    def test_partial_config_inherits_subcommand_defaults(self):
        cfg = parse_config("subcommand=screening\ngrids.r_count=16\n")
        assert cfg.grids.r_count == 16
        assert cfg.params.mass == 0.0       # from the screening defaults
        assert cfg.params.beta == 1.0


class TestCheckSemantics:
    def test_float_check_scales_by_reference(self):
        c = cli._check("x", 1.0005, 1.0, 1e-3)
        assert c["pass"] is True
        assert cli._check("x", 1.002, 1.0, 1e-3)["pass"] is False

    def test_small_reference_uses_absolute_floor(self):
        # reference below 1 switches the comparison to absolute
        assert cli._check("x", 5e-4, 0.0, 1e-3)["pass"] is True
        assert cli._check("x", 2e-3, 0.0, 1e-3)["pass"] is False

    def test_non_float_compares_exactly(self):
        assert cli._check("x", True, True, 0.0)["pass"] is True
        assert cli._check("x", False, True, 0.0)["pass"] is False


def _fake_artifacts(ok=True):
    art = cli.Artifacts()
    art.results = {"x": 1.0}
    art.checks = [cli._check("probe", 1.0, 1.0 if ok else 2.0, 1e-6)]
    art.csv_header = ("a",)
    art.csv_units = "-"
    art.csv_rows = [(1.0,)]
    return art


class TestMainInProcess:
    def test_failed_check_returns_1(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._RUNNERS, "debye", lambda cfg: _fake_artifacts(False))
        assert cli.main(["debye", "--quiet"]) == 1
        assert "1 check(s) failed" in capsys.readouterr().err

    def test_summary_lists_each_check(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._RUNNERS, "debye", lambda cfg: _fake_artifacts(True))
        assert cli.main(["debye"]) == 0
        out = capsys.readouterr().out
        assert "1/1 checks passed" in out
        assert "[PASS] probe:" in out

    def test_quiet_suppresses_summary(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._RUNNERS, "debye", lambda cfg: _fake_artifacts(True))
        assert cli.main(["debye", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_computation_error_returns_1(self, monkeypatch, capsys):
        def boom(cfg):
            raise DebyeScreenError("no convergence")
        monkeypatch.setitem(cli._RUNNERS, "debye", boom)
        assert cli.main(["debye", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "computation failed [debye]" in err
        assert "no convergence" in err

    def test_flag_overrides_reach_config(self, monkeypatch, tmp_path):
        seen = {}

        def spy(cfg):
            seen["config"] = cfg
            return _fake_artifacts(True)

        monkeypatch.setitem(cli._RUNNERS, "debye", spy)
        jp = str(tmp_path / "o.json")
        cp = str(tmp_path / "o.csv")
        rc = cli.main(["debye", "--seed", "99", "--precision", "8",
                       "--out-json", jp, "--out-csv", cp, "--quiet"])
        assert rc == 0
        cfg = seen["config"]
        assert cfg.seed == 99
        assert cfg.output.precision == 8
        assert cfg.output.json_path == jp
        assert os.path.exists(jp) and os.path.exists(cp)

    def test_precision_flag_out_of_range_is_config_error(self, capsys):
        assert cli.main(["debye", "--precision", "30", "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_subcommand_mismatch(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("subcommand=debye\n")
        assert cli.main(["screening", "--config", str(p), "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_cold_polarization_passes_static_identity(self, tmp_path):
        # at beta = 20 the kernel is ~6e-11, below the absolute tolerance
        p = tmp_path / "cold.cfg"
        p.write_text("subcommand=polarization\nparams.beta=20.0\n")
        assert cli.main(["polarization", "--config", str(p), "--quiet"]) == 0

    def test_massless_static_identity_is_tight(self):
        # the massless kernel has a p^2 ln p term, which a two-point
        # Richardson step in p^2 leaves at a gap of 7.8e-5
        cfg = parse_config("subcommand=polarization\nparams.mass=0.0\n")
        art = cli.run_polarization(cfg)
        assert art.results["static_identity_gap"] <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.1, 20.0),
           mass=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)))
    def test_static_limit_identity_holds_across_beta_and_mass(self, beta, mass):
        cfg = replace(default_config("polarization"),
                      params=ThermalParams(beta=beta, mass=mass))
        checks = {c["name"]: c for c in cli.run_polarization(cfg).checks}
        assert checks["static_limit_identity"]["pass"], checks

    def test_lemma2_check_fails_on_a_wrong_integrand(self, monkeypatch):
        # the estimate meets the nested-quadrature value at 0.1 of its
        # tolerance; with every length 10% long it falls to 0.99, 3.5
        # tolerances off, where two runs of one estimator would still agree
        from debye_screen import decay
        cfg = default_config("decay")
        check = cli.run_decay(cfg).checks[-1]
        assert check["name"] == "lemma2_vs_reference" and check["pass"]
        norms = decay._norms
        monkeypatch.setattr(decay, "_norms", lambda a: 1.1 * norms(a))
        check = cli.run_decay(cfg).checks[-1]
        assert check["name"] == "lemma2_vs_reference" and not check["pass"]

    @pytest.mark.parametrize("key", ["units.hbar", "tolerances.series", "kernel.ladder",
                                     "kernel.regime", "source.channel"])
    def test_unread_keys_are_unknown(self, key, tmp_path, capsys):
        # these keys changed the config hash but no result, or had one working value
        p = tmp_path / "c.cfg"
        p.write_text(f"subcommand=debye\n{key}=2.0\n")
        assert cli.main(["debye", "--config", str(p), "--quiet"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_key_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys):
        # kernel.mode is read by screening alone; in a limits config it
        # would change the hash and no result
        p = tmp_path / "c.cfg"
        p.write_text("subcommand=limits\nkernel.mode=full_kernel\n")
        assert cli.main(["limits", "--config", str(p), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'kernel.mode'" in err and "'limits'" in err

    @pytest.mark.parametrize("name, key", [("debye", "grids.scan_count"),
                                           ("polarization", "grids.p_count")])
    def test_grid_count_error_names_its_own_key(self, name, key, tmp_path, capsys):
        # each subcommand reads one of the two counts; the error must name
        # the key the config set, not the other
        p = tmp_path / "c.cfg"
        p.write_text(f"subcommand={name}\n{key}=1\n")
        assert cli.main([name, "--config", str(p), "--quiet"]) == 2
        assert f"key '{key}'" in capsys.readouterr().err

    def test_ground_state_decay_derives_its_regime(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("subcommand=decay\nparams.beta=inf\nkernel.mc_samples=100000\n")
        assert cli.main(["decay", "--config", str(p), "--quiet"]) == 0

    def test_unknown_polarization_channel_is_not_replaced(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("subcommand=polarization\nkernel.channel=spatial_p\n")
        assert cli.main(["polarization", "--config", str(p), "--quiet"]) == 1
        assert "'spatial_p'" in capsys.readouterr().err

    def test_zero_charge_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("subcommand=screening\nsource.charge_q=0.0\n")
        assert cli.main(["screening", "--config", str(p), "--quiet"]) == 2
        assert "source.charge_q" in capsys.readouterr().err

    def test_massless_scalar_decay_is_config_error(self, tmp_path, capsys):
        # the scalar_m integrand is m times the kernel, 0 everywhere at m = 0,
        # which left no usable ratio sample; the other channels run
        text = "subcommand=decay\nparams.mass=0.0\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.key == "kernel.channel"
        p = tmp_path / "c.cfg"
        p.write_text(text)
        assert cli.main(["decay", "--config", str(p), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "temporal_omega" in err and "spatial_p" in err
        p.write_text(text + "kernel.channel=spatial_p\n")
        assert cli.main(["decay", "--config", str(p), "--quiet"]) == 0

    def test_gaussian_source_family_is_config_error(self, tmp_path, capsys):
        # a gaussian source was the smoothed point under a second name
        p = tmp_path / "c.cfg"
        p.write_text("subcommand=screening\nsource.family=gaussian\n")
        assert cli.main(["screening", "--config", str(p), "--quiet"]) == 2
        assert "'gaussian'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["debye", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_screening_profile_check_sees_a_wrong_amplitude(self, monkeypatch):
        # a 1% amplitude error in every transform leaves the rate fit as it
        # was; the pointwise closed-form check must fail on it
        config = cli.default_config("screening")
        checks = {c["name"]: c for c in cli.run_screening(config).checks}
        assert checks["profile_vs_smeared_yukawa"]["pass"]
        assert checks["profile_vs_smeared_yukawa"]["value"] <= 1e-12
        transform = maxwell.sine_transform_radial
        monkeypatch.setattr(maxwell, "sine_transform_radial",
                            lambda *args: [1.01 * v for v in transform(*args)])
        checks = {c["name"]: c for c in cli.run_screening(config).checks}
        assert checks["screening_rate"]["pass"]
        assert not checks["profile_vs_smeared_yukawa"]["pass"]
        assert checks["profile_vs_smeared_yukawa"]["value"] == pytest.approx(0.01, rel=1e-6)

    @pytest.mark.parametrize("flag", ["--out-json", "--out-csv"])
    def test_unwritable_artifact_exits_2(self, monkeypatch, tmp_path, capsys, flag):
        # the run completes, then its artifact has nowhere to go
        monkeypatch.setitem(cli._RUNNERS, "debye", lambda cfg: _fake_artifacts(True))
        path = tmp_path / "missing" / "out"
        assert cli.main(["debye", flag, str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and str(path) in err


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "debye_screen.cli", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class TestEndToEnd:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_default_run_emits_valid_artifacts(self, name, tmp_path):
        jp, cp = "out.json", "out.csv"
        proc = run_cli([name, "--out-json", jp, "--out-csv", cp, "--quiet"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

        doc = json.loads((tmp_path / jp).read_text())
        assert set(doc) == {"manifest", "results", "checks"}
        man = doc["manifest"]
        assert man["config_sha256"] == sha(man["config"])
        assert parse_config(man["config"]).subcommand == name
        assert man["seed"] == 42
        # the tolerances the subcommand reads, the same keys as its config
        assert set(man["tolerances"]) == {
            line.partition("=")[0].removeprefix("tolerances.")
            for line in man["config"].splitlines() if line.startswith("tolerances.")}
        assert doc["checks"], "every subcommand reports at least one check"
        for c in doc["checks"]:
            assert set(c) == {"name", "value", "reference", "tolerance", "pass"}
            assert c["pass"] is True

        lines = (tmp_path / cp).read_text().splitlines()
        assert lines[0] == f"# {name} results"
        assert lines[1] == f"# config_sha256={man['config_sha256']}"
        assert lines[2].startswith("# tolerance.quadrature=")
        assert lines[3].startswith("# units: ")
        header = lines[4].split(",")
        assert len(header) >= 3
        body = lines[5:]
        assert body
        assert all(len(row.split(",")) == len(header) for row in body)

    def test_bad_config_file_exits_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("subcommand=debye\nparams.beta=warm\n")
        proc = run_cli(["debye", "--config", str(p)], cwd=tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_unknown_subcommand_exits_2(self, tmp_path):
        proc = run_cli(["explode"], cwd=tmp_path)
        assert proc.returncode == 2

    def test_infrared_divergence_exits_1(self, tmp_path):
        p = tmp_path / "ir.cfg"
        p.write_text("subcommand=polarization\n"
                     "kernel.channel=spatial\n"
                     "params.mass=0.0\n")
        proc = run_cli(["polarization", "--config", str(p)], cwd=tmp_path)
        assert proc.returncode == 1
        assert "computation failed [polarization]" in proc.stderr

    def test_identical_runs_are_byte_identical(self, tmp_path):
        # output paths are manifest content, so both runs must use the
        # same relative strings; only the working directory differs
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        args = ["debye", "--out-json", "out.json", "--out-csv", "out.csv",
                "--quiet"]
        assert run_cli(args, cwd=a).returncode == 0
        assert run_cli(args, cwd=b).returncode == 0
        assert (a / "out.json").read_bytes() == (b / "out.json").read_bytes()
        assert (a / "out.csv").read_bytes() == (b / "out.csv").read_bytes()

    def test_seed_changes_monte_carlo_artifacts(self, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        a.mkdir(), b.mkdir()
        base = ["decay", "--out-json", "out.json", "--quiet"]
        assert run_cli([*base, "--seed", "1"], cwd=a).returncode == 0
        assert run_cli([*base, "--seed", "2"], cwd=b).returncode == 0
        da = json.loads((a / "out.json").read_text())
        db = json.loads((b / "out.json").read_text())
        assert da["manifest"]["seed"] == 1
        assert (da["results"]["lemma2"]["estimate"]
                != db["results"]["lemma2"]["estimate"])

    def test_cli_import_loads_no_scipy(self, tmp_path):
        # every CLI start pays for what the import pulls in; scipy alone
        # cost about 0.75 s per start, so it stays out of the runtime
        code = ("import sys, debye_screen.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=dict(os.environ), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
