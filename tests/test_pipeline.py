"""Stage orchestration: caching, digests, artifacts, CLI behavior."""

import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypres
from hypres import radial
from hypres.adiabatic import ClusterSpec
from hypres.cli import _print_summary, main
from hypres.errors import CacheError, ConfigError, StageError, ValidationError
from hypres.models import TwoChannelToy
from hypres.pipeline import (
    RunConfig,
    run_pipeline,
    stage_couplings,
    stage_sample,
    stage_scan,
    stage_terms,
)
from hypres.stages import _fit, _xsec
from hypres.tableio import (
    read_header,
    read_keyvalues,
    read_table,
    write_keyvalues,
)
from test_three_body_pipeline import INI as THREE_BODY_INI

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TOY_INI = """
[system]
kind = toy

[scan]
alpha_min = 8.0
alpha_max = 17.0
alpha_step = 0.5
n_levels = 12
halfwidth = 6.0

[radial]
h_max = 0.02

[fit]
model = general
weighting = relative

[output]
directory = {out}
"""


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("toyrun")
    ini = base / "toy.ini"
    out = base / "out"
    ini.write_text(TOY_INI.format(out=out))
    config = RunConfig.from_file(ini)
    run_pipeline(config)
    return dict(ini=ini, out=out, config=config, report=out / "fit_0.txt")


class TestStages:
    def test_artifacts_exist(self, toy_run):
        names = [
            "terms.dat", "couplings.dat", "branches.dat", "windows.dat",
            "ksamples_0.dat", "fit_0.txt", "profiles_k_0.dat",
            "profiles_invk_0.dat", "profiles_xsec_0.dat",
        ]
        for name in names:
            assert (toy_run["out"] / name).exists(), name

    def test_fit_report_contents(self, toy_run):
        pairs, meta = read_keyvalues(toy_run["report"])
        for key in ("E0", "Gamma", "Gamma1", "Gamma2", "Gamma2_over_Gamma",
                    "E1", "a1", "a2", "a", "b1", "b2", "b", "residual",
                    "minus_E0", "E0_below_upper_threshold"):
            assert key in pairs, key
        assert pairs["Gamma"] > 0
        assert "config-digest" in meta

    def test_rerun_is_noop_bytewise(self, toy_run):
        before = {
            p.name: p.read_bytes() for p in toy_run["out"].iterdir()
        }
        run_pipeline(toy_run["config"])
        after = {p.name: p.read_bytes() for p in toy_run["out"].iterdir()}
        assert before == after

    def test_headers_carry_digest(self, toy_run):
        _, meta = read_table(toy_run["out"] / "couplings.dat")
        assert "config-digest" in meta

    def test_header_read_skips_body(self, tmp_path):
        path = tmp_path / "table.dat"
        path.write_text("# config-digest: abc\n# columns: x\nnot a number\n")
        assert read_header(path) == {"config-digest": "abc", "columns": "x"}
        with pytest.raises(ValueError):
            read_table(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        # the cache trusts a header alone, so a write that fails midway must
        # leave the previous file whole and no partial file behind
        class Unprintable:
            def __format__(self, spec):
                raise RuntimeError("unprintable")

        path = tmp_path / "fit_0.txt"
        write_keyvalues(path, {"a": 1.0}, header={"config-digest": "old"})
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            write_keyvalues(path, {"a": 2.0, "b": Unprintable()},
                            header={"config-digest": "new"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["fit_0.txt"]

    def test_stale_cache_refused(self, toy_run, tmp_path):
        # a changed scan section must invalidate the window cache for the
        # sample stage without silently reusing it
        text = (toy_run["ini"].read_text()
                .replace("alpha_step = 0.5", "alpha_step = 0.4"))
        ini2 = tmp_path / "changed.ini"
        ini2.write_text(text)
        config2 = RunConfig.from_file(ini2)
        with pytest.raises(CacheError) as err:
            stage_sample(config2, resonance=0)
        assert "scan" in str(err.value)

    def test_missing_dependency_names_stage(self, tmp_path):
        ini = tmp_path / "fresh.ini"
        ini.write_text(TOY_INI.format(out=tmp_path / "void"))
        config = RunConfig.from_file(ini)
        with pytest.raises(CacheError) as err:
            stage_scan(config)
        assert "couplings" in str(err.value)
        with pytest.raises(CacheError) as err:
            stage_couplings(config)
        assert "terms" in str(err.value)

    def test_fit_change_keeps_earlier_stages(self, toy_run, tmp_path):
        # a changed [fit] section reruns only fit (and xsec after it): the
        # earlier artifacts keep their bytes and are not even rewritten
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)
        ini = tmp_path / "refit.ini"
        ini.write_text(TOY_INI.format(out=out)
                       .replace("weighting = relative", "weighting = uniform"))
        kept = ["terms.dat", "couplings.dat", "branches.dat", "windows.dat",
                "ksamples_0.dat"]
        before = {name: ((out / name).read_bytes(),
                         (out / name).stat().st_mtime_ns)
                  for name in kept + ["fit_0.txt"]}
        run_pipeline(RunConfig.from_file(ini))
        for name in kept:
            assert (out / name).read_bytes() == before[name][0], name
            assert (out / name).stat().st_mtime_ns == before[name][1], name
        assert (out / "fit_0.txt").read_bytes() != before["fit_0.txt"][0]
        assert (out / "fit_0.txt").stat().st_mtime_ns != before["fit_0.txt"][1]

    def test_bad_resonance_index(self, toy_run):
        with pytest.raises(StageError):
            stage_sample(toy_run["config"], resonance=99)

    def test_inverse_profile_collinear(self, toy_run):
        # the inverse of a simple pole is linear in E; exact where the pole
        # dominates (small 1/(K-a)), so test the pole-near half of the rows
        rows, _ = read_table(toy_run["out"] / "profiles_invk_0.dat")
        e = rows[:, 0]
        for col in range(1, 4):
            y = rows[:, col]
            keep = np.abs(y) <= 3.0 * np.median(np.abs(y))
            assert keep.sum() >= 6
            coef = np.polyfit(e[keep], y[keep], 1)
            resid = y[keep] - np.polyval(coef, e[keep])
            assert np.abs(resid).max() < 2e-2 * np.ptp(y[keep])

    def test_xsec_profile_positive(self, toy_run):
        rows, _ = read_table(toy_run["out"] / "profiles_xsec_0.dat")
        assert rows.shape[1] == 4
        assert np.all(rows[:, 1:] >= 0.0)

    def test_model_both_writes_comparison(self, toy_run):
        from hypres.pipeline import stage_fit

        path = stage_fit(toy_run["config"], model="both", force=True)
        pairs, _ = read_keyvalues(path)
        assert "residual_ratio" in pairs and "branching_shift" in pairs
        assert pairs["residual_ratio"] >= 1.0
        # restore the cached single-model report for other tests
        stage_fit(toy_run["config"], force=True)

    def test_empty_xsec_range_names_its_bounds(self, toy_run, tmp_path):
        # a zero-width pole leaves no energies between E0 -+ 8 Gamma
        for name in ("couplings.dat", "ksamples_0.dat"):
            shutil.copy(toy_run["out"] / name, tmp_path)
        pairs, _ = read_keyvalues(toy_run["report"])
        write_keyvalues(tmp_path / "fit_0.txt", dict(pairs, Gamma=0.0))
        outputs = [tmp_path / f"profiles_{p}_0.dat" for p in ("k", "invk", "xsec")]
        with pytest.raises(StageError) as err:
            _xsec(toy_run["config"], {}, *outputs, 0)
        message = str(err.value)
        assert f"E0 = {pairs['E0']!r}" in message
        assert "Gamma = 0.0" in message and "upper threshold 0.5" in message

    def test_model_both_without_diagonal_fit(self, toy_run, tmp_path, capsys):
        # samples on which the diagonal model has no admissible start: the
        # report keeps the general fit and says so in place of the ratio
        shutil.copy(toy_run["out"] / "couplings.dat", tmp_path)
        shutil.copy(DATA / "threebody_coarse_ksamples_discrete.dat",
                    tmp_path / "ksamples_0.dat")
        report = tmp_path / "fit_0.txt"
        _fit(toy_run["config"], {}, report, 0, "both")
        pairs, _ = read_keyvalues(report)
        assert pairs["diagonal_status"] == "no admissible start"
        assert [k for k in pairs if k.startswith("diagonal_")] == ["diagonal_status"]
        assert "residual_ratio" not in pairs and "branching_shift" not in pairs
        assert "E1" in pairs and "Gamma" in pairs
        _print_summary(report)
        out = capsys.readouterr().out
        assert "diagonal model: no admissible fit" in out
        assert "residual ratio" not in out


class TestNoWindow:
    # the toy's one resonance sits at E = 3.02, above this e_max
    INI = """
[system]
kind = toy

[scan]
alpha_min = 10.0
alpha_max = 24.0
alpha_step = 0.5
n_levels = 6
e_max = 2.0

[radial]
h_max = 0.04

[output]
directory = {out}
"""

    def test_no_resonance_detected(self, tmp_path):
        ini = tmp_path / "toy.ini"
        ini.write_text(self.INI.format(out=tmp_path / "out"))
        config = RunConfig.from_file(ini)
        stage_terms(config)
        stage_couplings(config)
        stage_scan(config)
        rows, meta = read_table(tmp_path / "out" / "windows.dat")
        assert int(meta["n_windows"]) == 0
        with pytest.raises(StageError):
            stage_sample(config, resonance=0)


class TestScanRange:
    # the toy's grid ends at rho_match = 28: boxes beyond it have no pencil
    def test_alpha_max_past_rho_match_rejected(self, tmp_path, monkeypatch):
        text = (Path(__file__).resolve().parents[1] / "configs" / "toy.ini").read_text()
        ini = tmp_path / "toy.ini"
        ini.write_text(text.replace("alpha_max = 24.0", "alpha_max = 30.0")
                       .replace("directory = out-toy", f"directory = {tmp_path / 'out'}"))
        config = RunConfig.from_file(ini)
        assert config.get("scan", "alpha_max") == 30.0
        assert config.out_dir() == tmp_path / "out"
        stage_terms(config)
        stage_couplings(config)
        solve = radial.stabilization_eigenvalues
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        # refused before the first box, not after solving those below the end
        monkeypatch.setattr(radial, "stabilization_eigenvalues", counted)
        with pytest.raises(ValidationError) as err:
            stage_scan(config)
        assert err.value.stage == "scan"
        assert calls == []


class TestConfigDigest:
    def test_key_order_irrelevant(self):
        a = RunConfig.from_text("[scan]\nalpha_min = 1\nalpha_max = 2\n")
        b = RunConfig.from_text("[scan]\nalpha_max = 2\nalpha_min = 1\n")
        assert a.digest(["scan"]) == b.digest(["scan"])

    def test_digest_sensitive_to_values(self):
        a = RunConfig.from_text("[scan]\nalpha_min = 1\n")
        b = RunConfig.from_text("[scan]\nalpha_min = 1.5\n")
        assert a.digest(["scan"]) != b.digest(["scan"])


class TestConfigChecks:
    # a misspelled key would otherwise run on its default, unreported
    @pytest.mark.parametrize("text, named", [
        ("[scan]\nalpha_stpe = 0.5\n", "[scan] alpha_stpe"),
        ("[basis]\nn_workers = 1\n", "[basis] n_workers"),
        ("[sacn]\nalpha_step = 0.5\n", "[sacn]"),
        ("[radial]\ninclude_rho_term = true\n", "[radial] include_rho_term"),
        ("[xsec]\nn_points = 101\n", "[xsec]"),
        ("[DEFAULT]\nn_levels = 8\n", "[DEFAULT]"),
        # the toy's parameters are constants, for either kind
        ("[system]\nkind = toy\n[toy]\nbarrier_hight = 9\n", "[toy]"),
        ("[system]\nkind = three-body\n[toy]\nbarrier_height = 9\n", "[toy]"),
    ])
    def test_unknown_keys_refused(self, text, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            RunConfig.from_text(text)

    def test_model_parameters_take_no_arguments(self):
        assert TwoChannelToy().coupling == TwoChannelToy.coupling == 0.10
        assert ClusterSpec().width_cap == ClusterSpec.width_cap == 1.2
        with pytest.raises(TypeError):
            TwoChannelToy(coupling=0.2)
        with pytest.raises(TypeError):
            ClusterSpec(width_cap=2.0)

    def test_shipped_configs_load(self):
        configs = sorted(CONFIGS.glob("*.ini"))
        assert {path.name for path in configs} >= {"dtmu.ini", "toy.ini"}
        loaded = {path.name: RunConfig.from_file(path) for path in configs}
        # dtmu.ini reproduces the production setup: the physics of the INI
        # that criterion 6 (test_acceptance.py) runs
        criterion6 = RunConfig.from_text(
            "[system]\nkind = three-body\n[scan]\nsigma = -0.16\nn_levels = 16\n")
        physics = ["system", "basis", "radial", "scan"]
        assert loaded["dtmu.ini"].digest(physics) == criterion6.digest(physics)

    # refused when the text is read, before any stage reads the value
    @pytest.mark.parametrize("text, named", [
        ("[scan]\nn_levels = ten\n", "'ten' is not a valid int"),
        ("[scan]\nalpha_step = 1,0\n", "'1,0' is not a valid float"),
        ("[scan]\nsigma = low\n", "'low' is not a valid float"),
        ("[system]\nkind = tyo\n", "'tyo' is not one of three-body, toy"),
        ("[fit]\nmodel = bogus\n", "'bogus' is not one of general, diagonal, both"),
        ("[fit]\nweighting = Relative\n", "'Relative' is not one of uniform, relative"),
    ])
    def test_malformed_values_refused(self, text, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            RunConfig.from_text(text)

    def test_values_typed_at_load(self):
        config = RunConfig.from_text(
            "[scan]\nn_levels = 10\nsigma = -0.157\n")
        assert config.get("scan", "n_levels") == 10
        assert type(config.get("scan", "n_levels")) is int
        assert config.get("scan", "sigma") == -0.157
        assert config.get("scan", "e_max") is None
        assert config.get("system", "z_light") == -1
        # digests hash the text as written
        assert "n_levels = 10\n" in config.canonical(["scan"])
        assert "sigma = \n" in RunConfig.from_text("").canonical(["scan"])

    def test_cli_exit_codes(self, tmp_path, capsys):
        ini = tmp_path / "toy.ini"
        for old, new in (("n_levels = 12", "alpha_stpe = 0.5"),
                         ("n_levels = 12", "n_levels = ten"),
                         ("model = general", "model = bogus"),
                         ("weighting = relative", "weighting = bogus"),
                         ("kind = toy", "kind = tyo")):
            ini.write_text(TOY_INI.replace(old, new).format(out=tmp_path / "out"))
            assert main(["pipeline", "--config", str(ini)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("[config] error:"), err
            # refused when the file is read: no stage ran, nothing was written
            assert not (tmp_path / "out").exists(), new

    def test_cli_refuses_toy_section_in_three_body_ini(self, tmp_path, capsys):
        ini = tmp_path / "three-body.ini"
        ini.write_text(THREE_BODY_INI.format(out=tmp_path / "out")
                       + "\n[toy]\nbarrier_height = 9\n")
        assert main(["fit", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[config] error: unknown section [toy]"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, named", [
        ("[scan]\nn_levels = 6\nn_levels = 8\n", "already exists"),
        ("n_levels = 6\n", "no section headers"),
        ("[scan]\n[scan]\n", "already exists"),
    ])
    def test_malformed_file_exit_code(self, tmp_path, capsys, text, named):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        with pytest.raises(ConfigError, match=named):
            RunConfig.from_file(ini)
        assert main(["scan", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[config] error: malformed config"), err
        assert str(ini) in err


class TestCli:
    def test_exit_codes(self, toy_run, capsys):
        assert main(["fit", "--config", str(toy_run["ini"])]) == 0
        out = capsys.readouterr().out
        assert "Gamma" in out or "resonance report" in out
        assert main(["fit", "--config", "/nonexistent.ini"]) == 2
        assert main(
            ["sample", "--config", str(toy_run["ini"]), "--resonance", "99"]
        ) == 1
        err = capsys.readouterr().err
        assert "[stage:sample]" in err

    def test_stage_flag_stops_early(self, toy_run, capsys):
        # with warm caches this is a fast pass through the stage graph
        assert main(
            ["pipeline", "--config", str(toy_run["ini"]), "--stage", "scan"]
        ) == 0
        out = capsys.readouterr().out
        assert "windows" in out or "wrote" in out

    def test_pipeline_error_names_failing_stage(self, toy_run, capsys):
        assert main(
            ["pipeline", "--config", str(toy_run["ini"]), "--resonance", "99"]
        ) == 1
        assert "[stage:sample]" in capsys.readouterr().err

    def test_out_that_cannot_be_created(self, toy_run, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        assert main(["terms", "--config", str(toy_run["ini"]),
                     "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"[config] error: cannot create output directory {taken}"), err

    def test_out_overrides_output_directory(self, toy_run, tmp_path, capsys):
        # [output] is not digested: artifacts copied to another directory are
        # cache hits there, and the fit they lack is written there alone
        out = tmp_path / "moved"
        out.mkdir()
        kept = ["terms.dat", "couplings.dat", "branches.dat", "windows.dat",
                "ksamples_0.dat"]
        for name in kept:
            shutil.copy2(toy_run["out"] / name, out)

        def snapshot(d):
            return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                    for p in d.iterdir()}

        original, copied = snapshot(toy_run["out"]), snapshot(out)
        assert main(["fit", "--config", str(toy_run["ini"]), "--out", str(out),
                     "--model", "general"]) == 0
        assert f"wrote {out / 'fit_0.txt'}" in capsys.readouterr().out
        moved = snapshot(out)
        assert moved.pop("fit_0.txt")[0] == original["fit_0.txt"][0]
        assert moved == copied
        assert snapshot(toy_run["out"]) == original


# The solver layers; a process that parses, dispatches or finds its stage
# cached loads none of them.
SOLVER_LAYERS = ("hypres.adiabatic", "hypres.fem", "hypres.radial", "hypres.scan")
# The toy's terms and couplings stages write analytic tables and load none
# of these.
_TABLE_LAYERS = ("hypres.adiabatic", "hypres.fem", "hypres.channels",
                 "hypres.radial", "scipy.sparse")


def _printed_by(code: str) -> list:
    """The words of the last line a fresh interpreter prints running code."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(hypres.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1].split()


def _loaded_after(code: str, names) -> list:
    """Those of names that a fresh interpreter has imported after code."""
    return _printed_by(f"{code}\nimport sys\n"
                       f"print(*[n for n in {tuple(names)!r} if n in sys.modules])")


class TestImportSurface:
    def test_package_import_loads_no_module(self):
        names = tuple(f"hypres.{m.name}" for m in pkgutil.iter_modules(hypres.__path__))
        assert "hypres.pipeline" in names
        assert _loaded_after("import hypres", names) == []

    def test_pipeline_loads_no_algebra_or_channels(self):
        names = ("hypres.algebra", "hypres.breit_wigner", "hypres.channels",
                 "hypres.radial")
        assert _loaded_after("import hypres.pipeline", names) == []

    def test_models_load_no_pole_form_or_channels(self):
        names = ("hypres.breit_wigner", "hypres.channels", "hypres.radial",
                 "hypres.algebra", "scipy.interpolate", "scipy.sparse.linalg")
        assert _loaded_after("import hypres.models", names) == []

    def test_import_path_records_are_not_dataclasses(self):
        # @dataclass generates and compiles its methods at every import
        code = ("import dataclasses, inspect, hypres.pipeline, hypres.models\n"
                "print(*[f'{name}:{dataclasses.is_dataclass(obj)}'\n"
                "        for m in (hypres.pipeline, hypres.models)\n"
                "        for name, obj in vars(m).items()\n"
                "        if inspect.isclass(obj) and obj.__module__ == m.__name__])")
        words = _printed_by(code)
        assert {"RunConfig", "Stage", "TwoChannelToy", "BoxMode"} <= {
            word.split(":")[0] for word in words}
        assert [word for word in words if word.endswith(":True")] == []

    def test_import_loads_no_layer(self):
        names = SOLVER_LAYERS + (
            "hypres.stages", "hypres.models", "hypres.samples", "hypres.fitting",
            "scipy.sparse.linalg", "scipy.interpolate", "scipy.optimize",
        )
        assert _loaded_after("import hypres.pipeline, hypres.cli", names) == []

    def test_adiabatic_loads_no_process_pool(self):
        # the adiabatic sweep runs in this process, one point at a time
        assert _loaded_after("import hypres.adiabatic", ("multiprocessing",)) == []

    def test_cached_fit_loads_no_solver_layer(self, toy_run, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)
        stamp = (out / "fit_0.txt").stat().st_mtime_ns
        argv = ["fit", "--config", str(toy_run["ini"]), "--out", str(out)]
        code = f"from hypres.cli import main\nassert main({argv!r}) == 0"
        assert _loaded_after(code, SOLVER_LAYERS) == []
        assert (out / "fit_0.txt").stat().st_mtime_ns == stamp

    def test_cached_pipeline_loads_no_stage_body(self, toy_run, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)

        def stamps():
            return {p.name: p.stat().st_mtime_ns for p in out.iterdir()}

        before = stamps()
        argv = ["pipeline", "--config", str(toy_run["ini"]), "--out", str(out)]
        code = f"from hypres.cli import main\nassert main({argv!r}) == 0"
        assert _loaded_after(code, ("hypres.stages",) + SOLVER_LAYERS) == []
        assert stamps() == before

    @pytest.mark.parametrize("argv, names", [
        (["terms"], _TABLE_LAYERS),
        (["couplings"], _TABLE_LAYERS),
        (["xsec", "--resonance", "0"],
         ("hypres.radial", "hypres.scan", "scipy.interpolate",
          "scipy.sparse.linalg")),
    ], ids=["terms", "couplings", "xsec"])
    def test_forced_toy_stage_loads_only_its_layer(self, toy_run, tmp_path,
                                                   argv, names):
        # each stage as its own process: none may lean on a layer that an
        # earlier stage of the same process happened to load
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)
        argv = argv + ["--config", str(toy_run["ini"]), "--out", str(out),
                       "--force"]
        code = f"from hypres.cli import main\nassert main({argv!r}) == 0"
        assert _loaded_after(code, names) == []

    def test_tracer_leaves_no_wrapper_in_a_layer_it_loads(self, tmp_path):
        # perfbench/run.py imports these two before tracing; hypres.scan is
        # then first imported by instrument() itself, after radial's solvers
        # were wrapped, and hypres.stages by the first stage that runs inside
        # the block, while tableio's functions are wrapped: neither may keep
        # a wrapper after the block
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        code = (
            f"import sys\nsys.path.insert(0, {str(bench)!r})\n"
            "import hypres.pipeline, hypres.models\n"
            "import tracer\n"
            "config = hypres.pipeline.RunConfig.from_text(\n"
            f"    '[system]\\nkind = toy\\n', directory={str(tmp_path)!r})\n"
            "with tracer.instrument(tracer.Tracer()):\n"
            "    hypres.pipeline.run_pipeline(config, upto='couplings')\n"
            "left = [f'{name}.{key}' for name, mod in list(sys.modules.items())\n"
            "        if name.startswith('hypres')\n"
            "        for key, value in vars(mod).items()\n"
            "        if getattr(getattr(value, '__code__', None), 'co_filename',\n"
            "                   None) == tracer.__file__]\n"
            "print('hypres.scan' in sys.modules, 'hypres.stages' in sys.modules,\n"
            "      *left)"
        )
        assert _printed_by(code) == ["True", "True"]
        assert (tmp_path / "couplings.dat").exists()
