"""Stage orchestration: caching, digests, artifacts, CLI behavior."""

import importlib.util
import inspect
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tracemalloc
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
    STAGE_TABLE,
    STAGES,
    RunConfig,
    run_pipeline,
    run_stage,
    stage_couplings,
    stage_sample,
    stage_scan,
    stage_terms,
)
from hypres.scan import ScanConfig, detect_resonances, scan_branches
from hypres.stages import _fit, _radial_setup, _xsec, load_windows
from hypres.samples import read_samples
from hypres.tableio import (
    digest_file,
    load_couplings,
    load_terms,
    read_header,
    read_keyvalues,
    read_table,
    save_couplings,
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
                    "minus_E0", "start"):
            assert key in pairs, key
        assert pairs["Gamma"] > 0
        # the weighting is reported by its [fit] word
        assert pairs["weighting"] == "relative"
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
        with pytest.raises(ValidationError, match=re.escape(f"{path}, line 3")):
            read_table(path)

    def test_bad_field_in_fresh_table_names_its_line(self, tmp_path, capsys):
        # a couplings.dat whose header is fresh but one of whose numbers is
        # not a number: the scan stage reads it and names the line
        ini, path = _fresh_couplings(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        n = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        fields = lines[n].split()
        fields[1] = fields[1].replace("e", "x")
        lines[n] = " ".join(fields) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["scan", "--config", str(ini)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[stage:scan] error:"), err
        assert f"{path}, line {n + 1}:" in err

    def test_non_utf8_byte_in_fresh_table_refused(self, tmp_path, capsys):
        # the header read stops at the first body line; the scan stage's
        # read of the body refuses the bad byte
        ini, path = _fresh_couplings(tmp_path)
        data = bytearray(path.read_bytes())
        assert len(data) > 8192 + 100
        data[-10] = 0xFF  # a digit of the last row
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["scan", "--config", str(ini)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[stage:scan] error:"), err
        assert f"{path}: not UTF-8 text" in err

    @pytest.mark.parametrize("header", ["# n_terms: two\n", ""],
                             ids=["not-an-integer", "missing"])
    def test_couplings_header_needs_n_terms(self, tmp_path, header):
        path = tmp_path / "couplings.dat"
        path.write_text(f"{header}# columns: rho eps_1 H_11 Q_11\n"
                        "1.0 -0.5 0.0 0.0\n")
        named = f"{re.escape(str(path))}: header n_terms"
        with pytest.raises(ValidationError, match=named):
            load_couplings(path)

    @pytest.mark.parametrize("body, named", [
        ("", "expected 3 columns for n_terms=2, got 0"),
        ("1.0\n2.0\n", "expected 3 columns for n_terms=2, got 1"),
    ], ids=["no-rows", "one-column"])
    def test_terms_table_checked_as_couplings_are(self, tmp_path, body, named):
        path = tmp_path / "terms.dat"
        path.write_text(f"# n_terms: 2\n# columns: rho eps_1..eps_N\n{body}")
        with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: {named}"):
            load_terms(path)

    def test_table_reads_into_one_float_array(self, tmp_path):
        # a couplings.dat of criterion 6's size (503 rows of 6 terms, 79
        # columns), extremes included, reads back as float() of each field;
        # no Python float per value is held, so the read peaks near the
        # returned bytes (a list of floats per row peaked at 5.3 times them)
        rng = np.random.default_rng(7)
        n_rho, n = 503, 6
        eps = rng.standard_normal((n_rho, n)) * 10.0 ** rng.integers(-300, 300, (n_rho, n))
        eps[0] = [0.0, -0.0, 5e-324, -1.7976931348623157e308, 2.2250738585072014e-308, 1e-7]
        path = tmp_path / "couplings.dat"
        save_couplings(path, np.linspace(0.05, 320.0, n_rho), eps,
                       rng.standard_normal((n_rho, n, n)),
                       rng.standard_normal((n_rho, n, n)), {"config-digest": "x"})
        want = np.array([[float(x) for x in line.split()]
                         for line in path.read_text().splitlines()
                         if not line.startswith("#")])
        tracemalloc.start()
        try:
            rows, _ = read_table(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == want.shape == (n_rho, 1 + n + 2 * n * n)
        assert rows.tobytes() == want.tobytes()
        assert peak <= 2.5 * rows.nbytes, (peak, rows.nbytes)

    def test_table_read_sizes_its_array_once(self, tmp_path):
        # the toy's 1,200 x 11 couplings.dat: the array is sized from the
        # file's bytes, so the read peaks at 1.11 times the returned bytes
        # (doubling from 64 rows peaked at 2.0 times them, on 2,048 rows)
        rho, eps, h, q = TwoChannelToy().tables()
        path = tmp_path / "couplings.dat"
        save_couplings(path, rho, eps, h, q, {"kind": "toy"})
        tracemalloc.start()
        try:
            rows, _ = read_table(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (1200, 11)
        assert rows.tobytes() == np.loadtxt(path).tobytes()
        assert peak <= 1.3 * rows.nbytes, (peak, rows.nbytes)

    @pytest.mark.parametrize("row", ["5.0", "5.0 6.0 7.0"], ids=["short", "long"])
    def test_row_with_another_field_count_names_its_line(self, tmp_path, row):
        path = tmp_path / "table.dat"
        path.write_text(f"# columns: x y\n1.0 2.0\n\n3.0 4.0\n{row}\n7.0 8.0\n")
        fields = len(row.split())
        named = re.escape(f"{path}, line 5: {fields} fields, expected 2")
        with pytest.raises(ValidationError, match=named):
            read_table(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda text: text.replace("# n_windows: 1\n", "# n_windows: 2\n"),
         "no rows of window 1 of 2"),
        (lambda text: re.sub(r"(?m)^([^#].*) \S+$", r"\1", text),
         "expected 8 columns, got 7"),
    ], ids=["count-past-window-ids", "row-without-branch"])
    def test_windows_without_rows_refused(self, toy_run, tmp_path, edit, named):
        # the toy scan finds one window
        path = tmp_path / "windows.dat"
        text = (toy_run["out"] / "windows.dat").read_text()
        assert "# n_windows: 1\n" in text
        path.write_text(edit(text))
        with pytest.raises(ValidationError, match=named):
            load_windows(path)

    def test_windows_round_trip(self, toy_run):
        # windows.dat gives back the scan's windows bit for bit, branch
        # values included
        config = toy_run["config"]
        cfg = ScanConfig(**config.values["scan"])
        problem, grid = _radial_setup(config, toy_run["out"] / "couplings.dat")
        spectrum = scan_branches(problem, cfg, grid=grid)
        found = detect_resonances(spectrum, cfg, problem.thresholds)
        loaded, _ = load_windows(toy_run["out"] / "windows.dat")
        assert len(loaded) == len(found) >= 1
        for got, want in zip(loaded, found):
            fields = ("e_center", "gamma_est", "slope", "alpha_at")
            assert [getattr(got, f) for f in fields] == [
                getattr(want, f) for f in fields]
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.rows[:, 2], np.round(got.rows[:, 2]))

    @pytest.mark.parametrize("key, edit, named", [
        ("E1", lambda line: line.replace(" =", "", 1), "{path}, line {n}: no '='"),
        ("Gamma", lambda line: "", "{path}: no number for Gamma"),
    ], ids=["line-without-equals", "key-missing"])
    def test_bad_fit_report_refused_by_xsec(self, toy_run, tmp_path, capsys,
                                            key, edit, named):
        # an edited report changes xsec's input digest, so xsec rereads it
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)
        path = out / "fit_0.txt"
        lines = path.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
        lines[i] = edit(lines[i])
        path.write_text("".join(lines))
        capsys.readouterr()
        argv = ["xsec", "--config", str(toy_run["ini"]), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("[stage:xsec] error:"), err
        assert named.format(path=path, n=i + 1) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, key", [
        ("fit", "E0"), ("pipeline", "Gamma2_over_Gamma"),
    ])
    def test_summary_refuses_report_without_number(self, toy_run, tmp_path,
                                                   capsys, command, key):
        # the report's header is fresh, so fit keeps it (xsec, which reruns
        # under pipeline, needs no Gamma2_over_Gamma); the CLI's
        # summary reads the body and names what it lacks
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)
        path = out / "fit_0.txt"
        text = path.read_text()
        path.write_text(re.sub(rf"(?m)^{key} = .*\n", "", text))
        assert path.read_text() != text
        capsys.readouterr()
        assert main([command, "--config", str(toy_run["ini"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"[stage:fit] error: {path}: no number for {key}"), err
        assert "Traceback" not in err

    def test_fit_reads_rows_of_samples_alone(self, toy_run, tmp_path):
        # a samples header of its cache keys and columns alone: the sample
        # stage's cache holds, and the edit changes the fit's input digest,
        # so the fit reruns from the rows to the same report body
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)
        path = out / "ksamples_0.dat"
        keep = ("config-digest", "input-digest", "resonance", "columns")
        path.write_text("".join(
            line for line in path.read_text().splitlines(keepends=True)
            if not line.startswith("#") or line[2:].split(":")[0] in keep))
        assert sorted(read_samples(path)[1]) == sorted(keep)
        before = path.stat().st_mtime_ns
        run_pipeline(RunConfig.from_file(toy_run["ini"], directory=out))
        assert path.stat().st_mtime_ns == before
        pairs, meta = read_keyvalues(out / "fit_0.txt")
        assert meta["input-digest"] == digest_file(path)
        assert pairs == read_keyvalues(toy_run["report"])[0]

    @pytest.mark.parametrize("line", [
        "", "# upper_threshold: abc\n", "# upper_threshold: nan\n",
    ], ids=["deleted", "not-a-number", "not-finite"])
    def test_fit_needs_upper_threshold_of_samples(self, toy_run, tmp_path, line):
        # samples written before the fit read rows alone carry an
        # upper_threshold header line; absent, not a number or not finite,
        # it no longer stops the fit or changes its report body
        path = tmp_path / "ksamples_0.dat"
        text = (toy_run["out"] / "ksamples_0.dat").read_text()
        path.write_text(text.replace("# columns:", line + "# columns:", 1))
        assert line in path.read_text()
        report = tmp_path / "fit_0.txt"
        _fit(toy_run["config"], {}, path, report, "general")
        assert read_keyvalues(report)[0] == read_keyvalues(toy_run["report"])[0]

    def test_refit_parses_no_coupling_table(self, toy_run, tmp_path, monkeypatch):
        # a changed [fit] section reruns fit and xsec, which read the samples
        # and the report alone
        from hypres import tableio

        calls = []
        def counted(path, _load=tableio.load_couplings):
            calls.append(path)
            return _load(path)
        monkeypatch.setattr(tableio, "load_couplings", counted)
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)
        ini = tmp_path / "refit.ini"
        ini.write_text(TOY_INI.format(out=out)
                       .replace("weighting = relative", "weighting = uniform"))
        before = (out / "fit_0.txt").read_bytes()
        run_pipeline(RunConfig.from_file(ini))
        assert (out / "fit_0.txt").read_bytes() != before
        assert calls == []

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

    def test_one_header_chain_per_run(self, toy_run, tmp_path, monkeypatch):
        # each stage's header is built once and each digested file (couplings,
        # ksamples, fit report) hashed once, whether the stages run or not
        from hypres import tableio

        calls = []
        for name in ("digest_file", "digest_text"):
            def counted(arg, _name=name, _digest=getattr(tableio, name)):
                calls.append(_name)
                return _digest(arg)
            monkeypatch.setattr(tableio, name, counted)
        config = RunConfig.from_file(toy_run["ini"], directory=tmp_path / "out")
        for force in (False, False, True):  # cold, warm, forced
            calls.clear()
            run_pipeline(config, force=force)
            assert (calls.count("digest_file"), calls.count("digest_text")) == (3, 6)

    def test_edited_input_names_differing_key(self, toy_run, tmp_path):
        # a couplings row edited under its old header: the scan's outputs
        # recorded the old file digest, so the scan and all after it rerun
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)
        lines = (out / "couplings.dat").read_text().splitlines(keepends=True)
        lines[-1] = lines[-1].replace("e", "1e", 1)  # one more mantissa digit
        (out / "couplings.dat").write_text("".join(lines))
        config = RunConfig.from_file(toy_run["ini"], directory=out)
        with pytest.raises(CacheError) as err:
            stage_sample(config)
        assert "'scan'" in str(err.value) and "input-digest" in str(err.value)
        before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        run_pipeline(config)
        rewritten = {p.name for p in out.iterdir()
                     if p.stat().st_mtime_ns != before[p.name]}
        assert rewritten == set(before) - {"terms.dat", "couplings.dat"}

    @pytest.mark.parametrize("command", ["fit", "xsec"])
    def test_changed_couplings_make_samples_stale(self, toy_run, tmp_path,
                                                  capsys, command):
        # both stages read ksamples_0.dat, so both vouch for it through the
        # sample stage's header before keeping or rewriting their outputs
        out = tmp_path / "out"
        shutil.copytree(toy_run["out"], out)
        with open(out / "couplings.dat", "a") as f:
            f.write("\n")
        capsys.readouterr()
        argv = [command, "--config", str(toy_run["ini"]), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"[stage:{command}] error: stale cache ksamples_0.dat "
            "(input-digest differs); rerun 'sample'\n")

    def test_stage_bodies_take_their_rows_files_and_header(self):
        # _<name>(config, expect, *inputs, *outputs, **header params): a body
        # reads only the files its row declares and depends only on the
        # parameters its header records
        from hypres import stages
        for stage in STAGE_TABLE:
            params = list(inspect.signature(
                getattr(stages, f"_{stage.name}")).parameters.values())
            n_files = len(stage.inputs) + len(stage.outputs)
            assert [p.name for p in params[:2]] == ["config", "expect"], stage.name
            assert len(params) == 2 + n_files + len(stage.header), stage.name
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                       for p in params), stage.name
            assert tuple(p.name for p in params[2 + n_files:]) == stage.header

    def test_one_stage_function_per_row(self, tmp_path, monkeypatch):
        # stage_<name> is made from each row and hands that row's name to
        # _run; run_stage finds it through the module attribute at call time
        from hypres import pipeline
        names = [key for key in vars(pipeline) if key.startswith("stage_")]
        assert sorted(names) == sorted(f"stage_{name}" for name in STAGES)
        calls = []
        monkeypatch.setattr(pipeline, "_run",
                            lambda name, *args, **kwargs: calls.append(name))
        config = RunConfig.from_text("[system]\nkind = toy\n", directory=tmp_path)
        for name in STAGES:
            getattr(pipeline, f"stage_{name}")(config)
        assert calls == list(STAGES)
        monkeypatch.setattr(pipeline, "stage_fit",
                            lambda config, **kwargs: calls.append(kwargs))
        run_stage("fit", config, resonance=1, model="diagonal")
        assert calls[-1] == {"force": False, "resonance": 1, "model": "diagonal"}

    def test_tracer_wraps_every_stage_function(self):
        # perfbench's tracer times each stage by wrapping stage_<name>: its
        # targets in hypres.pipeline name exactly the table's stages
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        wrapped = [attr for module, attr, _ in tracer.TARGETS
                   if module == "hypres.pipeline" and attr.startswith("stage_")]
        assert wrapped == [f"stage_{name}" for name in STAGES]

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
            _xsec(toy_run["config"], {}, tmp_path / "fit_0.txt",
                  tmp_path / "ksamples_0.dat", *outputs)
        message = str(err.value)
        assert f"E0 = {pairs['E0']!r}" in message
        assert "Gamma = 0.0" in message and "upper threshold 0.5" in message

    def test_model_both_without_diagonal_fit(self, toy_run, tmp_path, capsys):
        # samples on which the diagonal model has no admissible start: the
        # report keeps the general fit and says so in place of the ratio
        report = tmp_path / "fit_0.txt"
        _fit(toy_run["config"], {}, DATA / "threebody_coarse_ksamples_discrete.dat",
             report, "both")
        pairs, _ = read_keyvalues(report)
        assert pairs["diagonal_status"] == "no admissible start"
        assert [k for k in pairs if k.startswith("diagonal_")] == ["diagonal_status"]
        assert "residual_ratio" not in pairs and "branching_shift" not in pairs
        assert "E1" in pairs and "Gamma" in pairs
        _print_summary(report)
        out = capsys.readouterr().out
        assert "diagonal model: no admissible fit" in out
        assert "residual ratio" not in out

    def test_model_both_summary_prints_comparison(self, toy_run, tmp_path,
                                                  capsys):
        # the toy's samples fit both models: the summary ends with the
        # comparison line
        report = tmp_path / "fit_0.txt"
        _fit(toy_run["config"], {}, toy_run["out"] / "ksamples_0.dat", report,
             "both")
        pairs, _ = read_keyvalues(report)
        _print_summary(report)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == (
            f"# model comparison: residual ratio {pairs['residual_ratio']:.3e}, "
            f"branching shift {pairs['branching_shift']:.4f}")


def _fresh_couplings(tmp_path):
    """A toy INI run up to its couplings stage, and its couplings.dat."""
    ini = tmp_path / "toy.ini"
    ini.write_text(TOY_INI.format(out=tmp_path / "out"))
    assert main(["pipeline", "--config", str(ini), "--stage", "couplings"]) == 0
    return ini, tmp_path / "out" / "couplings.dat"


class TestNoWindow:
    # all six levels stay below the toy's one resonance (E = 3.02)
    INI = """
[system]
kind = toy

[scan]
alpha_min = 10.0
alpha_max = 24.0
alpha_step = 0.5
n_levels = 6

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
    @staticmethod
    def refused_before_first_box(tmp_path, monkeypatch, old, new):
        """The toy INI with one line replaced: its scan stage must raise a
        scan-tagged ValidationError without solving a box."""
        text = (Path(__file__).resolve().parents[1] / "configs" / "toy.ini").read_text()
        assert old in text
        ini = tmp_path / "toy.ini"
        ini.write_text(text.replace(old, new)
                       .replace("directory = out-toy", f"directory = {tmp_path / 'out'}"))
        config = RunConfig.from_file(ini)
        assert config.out_dir() == tmp_path / "out"
        stage_terms(config)
        stage_couplings(config)
        solve = radial.stabilization_eigenvalues
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(radial, "stabilization_eigenvalues", counted)
        with pytest.raises(ValidationError) as err:
            stage_scan(config)
        assert err.value.stage == "scan"
        assert calls == []
        return config

    # the toy's grid ends at rho_match = 28: boxes beyond it have no pencil
    def test_alpha_max_past_rho_match_rejected(self, tmp_path, monkeypatch):
        # refused before the first box, not after solving those below the end
        config = self.refused_before_first_box(
            tmp_path, monkeypatch, "alpha_max = 24.0", "alpha_max = 30.0")
        assert config.get("scan", "alpha_max") == 30.0

    @pytest.mark.parametrize("old, new", [
        ("n_levels = 14", "n_levels = 0"),
        ("n_levels = 14", "n_levels = 1"),
        ("n_levels = 14", "n_levels = -2"),
        ("halfwidth = 8.0", "halfwidth = 0"),
        ("halfwidth = 8.0", "halfwidth = -1"),
    ])
    def test_unusable_scan_settings_rejected(self, tmp_path, monkeypatch,
                                             capsys, old, new):
        # too few levels to pool, or an empty sampling window; from the
        # command line a stage-tagged error with exit code 1
        self.refused_before_first_box(tmp_path, monkeypatch, old, new)
        capsys.readouterr()
        argv = ["pipeline", "--config", str(tmp_path / "toy.ini"), "--stage", "scan"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("[stage:scan] error:"), err
        assert "Traceback" not in err


class TestConfigDigest:
    def test_key_order_irrelevant(self):
        a = RunConfig.from_text("[scan]\nalpha_min = 1\nalpha_max = 2\n")
        b = RunConfig.from_text("[scan]\nalpha_max = 2\nalpha_min = 1\n")
        assert a.digest(["scan"]) == b.digest(["scan"])

    def test_digest_sensitive_to_values(self):
        a = RunConfig.from_text("[scan]\nalpha_min = 1\n")
        b = RunConfig.from_text("[scan]\nalpha_min = 1.5\n")
        assert a.digest(["scan"]) != b.digest(["scan"])

    # digests hash typed values: equal values written two ways share a cache
    @pytest.mark.parametrize("text", [
        "[scan]\nalpha_step = 1\n", "[scan]\nsigma =\n",
    ], ids=["int-for-float", "empty-optional"])
    def test_default_value_digests_like_default(self, text):
        assert (RunConfig.from_text(text).digest(["scan"])
                == RunConfig.from_text("").digest(["scan"]))


class TestConfigChecks:
    # a misspelled key would otherwise run on its default, unreported
    @pytest.mark.parametrize("text, named", [
        ("[scan]\nalpha_stpe = 0.5\n", "[scan] alpha_stpe"),
        ("[basis]\nn_workers = 1\n", "[basis] n_workers"),
        ("[system]\nkind = toy\n[basis]\nn_workers = 1\n",
         "unknown key [basis] n_workers"),
        ("[sacn]\nalpha_step = 0.5\n", "[sacn]"),
        ("[radial]\ninclude_rho_term = true\n", "[radial] include_rho_term"),
        ("[xsec]\nn_points = 101\n", "[xsec]"),
        ("[DEFAULT]\nn_levels = 8\n", "[DEFAULT]"),
        # the toy's parameters are constants, for either kind
        ("[system]\nkind = toy\n[toy]\nbarrier_hight = 9\n", "[toy]"),
        ("[system]\nkind = three-body\n[toy]\nbarrier_height = 9\n", "[toy]"),
        # the (t, d, mu) masses and charges are constants, and every level
        # above the detection floor is pooled
        ("[system]\nm1 = 26.584935828866946\n", "[system] m1"),
        ("[scan]\ne_max = 2.0\n", "[scan] e_max"),
    ])
    def test_unknown_keys_refused(self, text, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            RunConfig.from_text(text)

    # the toy's tables and rho range are constants: a toy INI that set these
    # would load, be ignored, and (for [radial]) still change the digests
    @pytest.mark.parametrize("text, named", [
        ("[basis]\nn_rho = 100\n", "[basis] n_rho"),
        ("[basis]\nn_chi = 4\n", "[basis] n_chi"),
        ("[radial]\nrho_start = 0.1\nh_max = 0.02\n", "[radial] rho_start"),
        ("[radial]\nrho_match = 5\n", "[radial] rho_match"),
    ])
    def test_three_body_keys_refused_in_toy_ini(self, text, named):
        refusal = re.escape(f"{named}: not read by kind = toy")
        with pytest.raises(ConfigError, match=refusal):
            RunConfig.from_text("[system]\nkind = toy\n" + text)
        RunConfig.from_text(text)  # a three-body INI takes them

    # the couplings table spans exactly [rho_min, rho_max]: a radial range
    # past it is refused when the INI is read, before terms and couplings
    @pytest.mark.parametrize("old, new", [
        ("rho_start = 0.5", "rho_start = 0.4"),
        ("rho_match = 100.0", "rho_match = 105.0"),
    ])
    def test_radial_range_past_basis_range_refused(self, tmp_path, capsys,
                                                   old, new):
        assert old in THREE_BODY_INI
        text = THREE_BODY_INI.replace(old, new).format(out=tmp_path / "out")
        value = re.escape(new.split(" = ")[1])
        with pytest.raises(ConfigError, match=(
                rf"^\[radial\] range \[.*{value}.*\] on \[basis\] \[0\.5, 100\.0\], "
                r"n_rho = 70: need 0 < rho_min <= rho_start < rho_match <= "
                r"rho_max and n_rho >= 2$")):
            RunConfig.from_text(text)
        # from the command line: exit code 2, and no output directory made
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        assert main(["pipeline", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[config] error: [radial] range"), err
        assert not (tmp_path / "out").exists()
        RunConfig.from_text(THREE_BODY_INI.format(out=tmp_path / "out"))

    # the basis grid and the radial range are checked when the INI is read,
    # before terms and couplings run
    @pytest.mark.parametrize("old, new", [
        ("rho_start = 0.5", "rho_start = 100.0"),
        ("rho_min = 0.5", "rho_min = 0"),
        ("n_rho = 70", "n_rho = 0"),
    ])
    def test_unusable_three_body_range_refused(self, tmp_path, capsys, old,
                                               new):
        ini = tmp_path / "three-body.ini"
        assert old in THREE_BODY_INI
        ini.write_text(THREE_BODY_INI.replace(old, new)
                       .format(out=tmp_path / "out"))
        assert main(["terms", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[config] error: [radial] range"), err
        assert "need 0 < rho_min <= rho_start < rho_match <= rho_max" in err
        assert not (tmp_path / "out").exists()

    # refused as a configuration error, never a bare KeyError
    @pytest.mark.parametrize("run", [
        lambda config: run_stage("bogus", config),
        lambda config: run_pipeline(config, upto="bogus"),
    ], ids=["run_stage", "run_pipeline"])
    def test_unknown_stage_refused(self, tmp_path, run):
        config = RunConfig.from_text("[system]\nkind = toy\n",
                                     directory=tmp_path / "out")
        with pytest.raises(ConfigError, match="^unknown stage 'bogus'$"):
            run(config)
        assert not (tmp_path / "out").exists()

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
        ("[scan]\nalpha_step = nan\n", "alpha_step = 'nan' is not finite"),
        ("[scan]\nalpha_max = inf\n", "alpha_max = 'inf' is not finite"),
        ("[scan]\nsigma = nan\n", "sigma = 'nan' is not finite"),
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
        # digests hash each typed value's str, '' for None
        assert "n_levels = 10\n" in config.canonical(["scan"])
        assert "sigma = \n" in RunConfig.from_text("").canonical(["scan"])

    def test_cli_exit_codes(self, tmp_path, capsys):
        ini = tmp_path / "toy.ini"
        for old, new in (("n_levels = 12", "alpha_stpe = 0.5"),
                         ("n_levels = 12", "n_levels = ten"),
                         ("model = general", "model = bogus"),
                         ("weighting = relative", "weighting = bogus"),
                         ("kind = toy", "kind = tyo"),
                         ("h_max = 0.02", "h_max = 0.02\nrho_match = 5"),
                         ("[fit]", "[basis]\nn_rho = 100\n\n[fit]")):
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

    @pytest.mark.parametrize("n_terms", [0, 600])
    def test_impossible_term_count_is_stage_error(self, tmp_path, capsys, n_terms):
        # a 21 x 21 grid has 441 basis functions
        ini = tmp_path / "three-body.ini"
        ini.write_text(THREE_BODY_INI.replace("n_chi = 61", "n_chi = 21")
                       .replace("n_theta = 31", "n_theta = 21")
                       .replace("n_terms = 4", f"n_terms = {n_terms}")
                       .format(out=tmp_path / "out"))
        assert main(["terms", "--config", str(ini)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[stage:terms] error: n_terms"), err
        assert "Traceback" not in err

    def test_first_box_with_too_few_rows_is_stage_error(self, tmp_path, capsys):
        # at h_max = 0.05 the box at alpha 0.26 has 8 pencil rows, too few
        # for 12 levels
        ini = tmp_path / "toy.ini"
        ini.write_text(TOY_INI.replace("alpha_min = 8.0", "alpha_min = 0.26")
                       .replace("alpha_max = 17.0", "alpha_max = 1.5")
                       .replace("h_max = 0.02", "h_max = 0.05")
                       .format(out=tmp_path / "out"))
        assert main(["pipeline", "--config", str(ini), "--stage", "scan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "[stage:scan] error: alpha_min=0.26 gives a box of 8 pencil rows; "
            "n_levels=12 needs more than 12"), err
        assert "Traceback" not in err

    def test_grid_past_the_point_bound_is_stage_error(self, tmp_path, capsys):
        # h_max = 1e-9 asks for ~2.8e10 radial points: refused before the
        # grid is allocated
        ini = tmp_path / "toy.ini"
        ini.write_text(TOY_INI.replace("h_max = 0.02", "h_max = 1e-9")
                       .format(out=tmp_path / "out"))
        assert main(["pipeline", "--config", str(ini), "--stage", "scan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "[stage:scan] error: h_max=1e-09 gives more than 1000000 grid "
            "points"), err
        assert "Traceback" not in err

    def test_out_that_cannot_be_created(self, toy_run, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        assert main(["terms", "--config", str(toy_run["ini"]),
                     "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"[config] error: cannot create output directory {taken}"), err

    def test_stage_processes_write_the_pipeline_bytes(self, tmp_path):
        # every stage of the table, in table order, as its own process into
        # one directory, then the fit once more: a stage that only works
        # because an earlier stage of the same process loaded its layer
        # fails here, and a fresh header chain per stage process must write
        # the bytes of one chain in one pipeline process
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(hypres.__file__).resolve().parents[1]))

        def run(argv, out):
            res = subprocess.run(
                [sys.executable, "-m", "hypres.cli", *argv,
                 "--config", str(CONFIGS / "toy.ini"), "--out", str(out)],
                env=env, cwd=tmp_path, capture_output=True, text=True,
                timeout=300)
            assert res.returncode == 0, (argv, res.stderr)

        params = {"resonance": ["--resonance", "0"], "model": ["--model", "both"]}
        for stage in STAGE_TABLE:
            run([stage.name, *(arg for p in stage.params for arg in params[p])],
                tmp_path / "stages")
        run(["fit", *params["resonance"], *params["model"]], tmp_path / "stages")
        run(["pipeline"], tmp_path / "pipeline")

        def snapshot(out):
            return {p.name: p.read_bytes() for p in out.iterdir()}

        assert snapshot(tmp_path / "stages") == snapshot(tmp_path / "pipeline")

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
    def test_readme_library_block_runs(self):
        # every name the README documents as a library entry point exists
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library entry points\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})

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
        # @dataclass and typing.NamedTuple (a class with _fields) generate
        # and compile their methods at every import
        code = ("import dataclasses, inspect, hypres.pipeline, hypres.models\n"
                "print(*[f'{name}:{dataclasses.is_dataclass(obj)"
                " or hasattr(obj, \"_fields\")}'\n"
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
            "hypres.tableio", "scipy.sparse.linalg", "scipy.interpolate",
            "scipy.optimize",
        )
        assert _loaded_after("import hypres.pipeline, hypres.cli", names) == []

    def test_k_extraction_loads_no_table_code(self):
        # the kprofile path: K(E) of an analytic problem reads and writes no
        # table, digest or header
        code = ("import hypres.pipeline\n"
                "from hypres import radial\n"
                "from hypres.models import TwoChannelToy\n"
                "problem = TwoChannelToy().problem()\n"
                "grid = radial.build_grid(problem, h_max=0.05)\n"
                "ks, _ = radial.extract_k(problem, [2.5, 3.0], grid=grid)\n"
                "assert len(ks) == 2")
        assert _loaded_after(code, ("hypres.radial", "hypres.tableio")) == [
            "hypres.radial"]

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
