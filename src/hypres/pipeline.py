"""Batch pipeline: configuration, cached stages, and artifact files.

Stages run in dependency order (terms -> couplings -> scan -> sample ->
fit -> xsec), as listed in `STAGE_TABLE`, which the CLI reads too.  Each
stage writes one or more text artifacts whose headers record the digest of
the configuration sections (and of the input file) that produced them.
One runner serves every stage: it refuses missing or stale inputs with a
CacheError naming the stage that produces them, keeps outputs whose headers
match, and otherwise runs the stage.

Module level imports only what the configuration, the stage table and the
runner use (errors, tableio).  The stage bodies live in `hypres.stages`,
which the runner imports only when a stage must run, so importing this
module, `hypres --help` and a fully cached run compile no stage code (a
process that runs a stage compiles it then, so it saves nothing).  Each
body, and each helper that builds a layer object (the channel set and
masses too), imports its layer when it runs, so a process whose stage is
cached loads no FEM, scan or fit code, and importing this module loads no
channel or pole-form algebra.  The toy's terms and couplings stages write
the analytic model's tables directly, so they load neither the FEM layer
nor the radial solver.

The configuration is one INI-style file with a section per stage; the
defaults reproduce the full three-body run (131x61 basis grid, 6 retained
channels, rho in [0.05, 500]) so a config that only names the system is
complete.  It is read once, each value cast to the type of its default, so
a bad key or value is a ConfigError before any stage runs.  The config and
the stage rows are NamedTuples, not dataclasses, so that no method is
generated and compiled at import.
"""

from __future__ import annotations

import configparser
import io
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import CacheError, ConfigError, HypresError
from .tableio import digest_file, digest_text, read_header

if TYPE_CHECKING:
    from .channels import ThreeBodyMasses

# Each key's type is the type of its default; None marks an optional float,
# whose empty value reads as None.
DEFAULTS = {
    "system": {
        "kind": "three-body",
        "m1": 26.584935828866946,
        "m2": 17.75167309872182,
        "z1": 1,
        "z2": 1,
        "z_light": -1,
    },
    "basis": {
        "n_chi": 131,
        "n_theta": 61,
        "n_terms": 6,
        "rho_min": 0.05,
        "rho_max": 500.0,
        "n_rho": 400,
        "n_refine": 80,
    },
    "radial": {"rho_start": 0.05, "rho_match": 500.0, "h_max": 0.05},
    "scan": {
        "alpha_min": 50.0,
        "alpha_max": 400.0,
        "alpha_step": 1.0,
        "n_levels": 12,
        "sigma": None,
        "e_max": None,
        "halfwidth": 8.0,
    },
    "fit": {"model": "general", "weighting": "relative"},
    "output": {"directory": "out"},
}

# the words an enumerated key may take
WORDS = {
    ("system", "kind"): ("three-body", "toy"),
    ("fit", "model"): ("general", "diagonal", "both"),
    ("fit", "weighting"): ("uniform", "relative"),
}


class RunConfig(NamedTuple):
    """Typed values of every configuration key, and the text of each key
    the file gave; the digests hash that text (a default as its str)."""

    values: dict
    text: dict

    @classmethod
    def from_file(cls, path, directory=None) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}") from exc
        return cls.from_text(text, source=str(path), directory=directory)

    @classmethod
    def from_text(cls, text: str, source: str = "<text>",
                  directory=None) -> "RunConfig":
        """Config from INI text, each value cast once; directory, when given,
        replaces [output] directory.  Malformed INI (a key given twice, a
        line outside any section), an unknown section or key, a malformed
        value and a word outside its WORDS are each a ConfigError."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if parser.defaults():
            raise ConfigError(f"unknown section [{parser.default_section}]")
        values = {section: dict(keys) for section, keys in DEFAULTS.items()}
        texts = {section: {} for section in DEFAULTS}
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"unknown key [{section}] {key}")
                values[section][key] = _typed(section, key, raw)
                texts[section][key] = raw
        if directory is not None:
            values["output"]["directory"] = texts["output"]["directory"] = str(directory)
        return cls(values=values, text=texts)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def canonical(self, sections) -> str:
        """Normalized text of the given sections (for digests)."""
        buf = io.StringIO()
        for sec in sections:
            buf.write(f"[{sec}]\n")
            for key in sorted(self.values[sec]):
                value = self.text[sec].get(key, self.values[sec][key])
                buf.write(f"{key} = {'' if value is None else value}\n")
        return buf.getvalue()

    def digest(self, sections) -> str:
        return digest_text(self.canonical(sections))

    @property
    def kind(self) -> str:
        return self.get("system", "kind")

    def out_dir(self) -> Path:
        d = Path(self.get("output", "directory"))
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {d}: {exc}") from exc
        return d

    def masses(self) -> ThreeBodyMasses:
        from .channels import ThreeBodyMasses
        keys = ("m1", "m2", "z1", "z2", "z_light")
        return ThreeBodyMasses(**{key: self.get("system", key) for key in keys})


def _typed(section: str, key: str, raw: str):
    """raw read as the type of the key's default."""
    default = DEFAULTS[section][key]
    words = WORDS.get((section, key))
    if words is not None and raw not in words:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not one of {', '.join(words)}")
    if isinstance(default, str):
        return raw
    if default is None and not raw:
        return None
    cast = int if isinstance(default, int) else float
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}") from exc


# --------------------------------------------------------------------------
# stage plumbing


class Stage(NamedTuple):
    """One row of the stage table.

    sections are the config sections whose digest the header records
    ([basis] only in three-body runs: the toy's tables are constants);
    outputs are the files the stage writes, the last one being its result;
    inputs are the files that must be fresh before it runs; digested is the
    input whose file digest the header records; header names the parameters
    the header records; params are the parameters the stage takes besides
    the configuration.  File names may use {resonance}.  The stage's body
    is `hypres.stages._<name>`.
    """

    name: str
    help: str
    sections: tuple
    outputs: tuple
    inputs: tuple = ()
    digested: str | None = None
    header: tuple = ()
    params: tuple = ()


def _check_cache(path: Path, expect: dict) -> bool:
    """True when path exists and its header matches every expected value.

    Only the header is read: artifacts are replaced whole once written, so
    a file with a matching header is complete.
    """
    try:
        meta = read_header(path)
    except (CacheError, UnicodeDecodeError):
        return False
    return all(meta.get(k) == v for k, v in expect.items())


def _expect(stage: Stage, config: RunConfig, params: dict) -> dict:
    """Header of a fresh output of stage under config and params; header
    parameters absent from params are not checked."""
    sections = [s for s in stage.sections
                if s != "basis" or config.kind == "three-body"]
    expect = {"config-digest": config.digest(sections)}
    if stage.digested is not None:
        path = config.out_dir() / stage.digested.format(**params)
        expect["input-digest"] = digest_file(path) if path.exists() else "missing"
    expect.update((key, str(params[key])) for key in stage.header if key in params)
    return expect


def _run(name: str, config: RunConfig, force: bool, **params) -> Path:
    """Run one stage through its cache; returns its last output file.

    Missing or stale inputs raise CacheError naming the stage that produces
    them; outputs whose headers match are kept unless force is set.  A
    HypresError leaves with its `stage` set to this stage's name.
    """
    stage = _STAGE[name]
    out_dir = config.out_dir()
    try:
        for pattern in stage.inputs:
            producer = _PRODUCER[pattern]
            path = out_dir / pattern.format(**params)
            if not path.exists():
                raise CacheError(
                    f"missing {path.name}; run the '{producer}' stage first"
                )
            if not _check_cache(path, _expect(_STAGE[producer], config, params)):
                raise CacheError(
                    f"stale cache {path.name} (config changed); rerun '{producer}'"
                )
        expect = _expect(stage, config, params)
        outputs = [out_dir / p.format(**params) for p in stage.outputs]
        if force or not all(_check_cache(p, expect) for p in outputs):
            from . import stages
            getattr(stages, f"_{name}")(config, expect, *outputs, **params)
        return outputs[-1]
    except HypresError as exc:
        exc.stage = name
        raise


_PHYSICS = ("system", "basis", "radial", "scan")

# The stage list, in dependency order; the CLI builds its subcommands from it.
STAGE_TABLE = (
    Stage("terms", "adiabatic terms table", _PHYSICS[:2], ("terms.dat",)),
    Stage("couplings", "terms plus nonadiabatic coupling tables", _PHYSICS[:2],
          ("couplings.dat",), inputs=("terms.dat",)),
    Stage("scan", "stabilization scan and resonance windows", _PHYSICS,
          ("branches.dat", "windows.dat"),
          inputs=("couplings.dat",), digested="couplings.dat"),
    Stage("sample", "K(E) samples inside one window", _PHYSICS,
          ("ksamples_{resonance}.dat",),
          inputs=("couplings.dat", "windows.dat"), digested="couplings.dat",
          header=("resonance",), params=("resonance",)),
    Stage("fit", "pole-form fit and resonance report", ("fit",),
          ("fit_{resonance}.txt",),
          inputs=("couplings.dat", "ksamples_{resonance}.dat"),
          digested="ksamples_{resonance}.dat",
          header=("model",), params=("resonance", "model")),
    Stage("xsec", "profile files: K entries, inverse parts, cross sections",
          (),
          ("profiles_k_{resonance}.dat", "profiles_invk_{resonance}.dat",
           "profiles_xsec_{resonance}.dat"),
          inputs=("fit_{resonance}.txt",), digested="fit_{resonance}.txt",
          params=("resonance",)),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
_STAGE = {stage.name: stage for stage in STAGE_TABLE}
_PRODUCER = {name: stage.name for stage in STAGE_TABLE for name in stage.outputs}


# One public function per stage.  The pipeline and the CLI look them up by
# name at call time, so a wrapper set on the module attribute (a profiler's,
# say) sees every call.


def stage_terms(config: RunConfig, force: bool = False) -> Path:
    """Adiabatic terms table (Fig.-1-style data)."""
    return _run("terms", config, force)


def stage_couplings(config: RunConfig, force: bool = False) -> Path:
    """Terms plus H/Q coupling tables (the radial-stage input contract)."""
    return _run("couplings", config, force)


def stage_scan(config: RunConfig, force: bool = False) -> Path:
    """Box-size scan: branch table plus detected resonance windows."""
    return _run("scan", config, force)


def stage_sample(config: RunConfig, resonance: int = 0, force: bool = False) -> Path:
    """K(E) samples at the stabilization energies of one detected window."""
    return _run("sample", config, force, resonance=resonance)


def stage_fit(config: RunConfig, resonance: int = 0, model: str | None = None,
              force: bool = False) -> Path:
    """Pole-form fit of the sampled K(E); writes the resonance report."""
    return _run("fit", config, force, resonance=resonance,
                model=model or config.get("fit", "model"))


def stage_xsec(config: RunConfig, resonance: int = 0, force: bool = False) -> Path:
    """Profile files: sampled K entries, inverse resonant parts, and the
    model cross sections on a uniform grid across the window."""
    return _run("xsec", config, force, resonance=resonance)


def run_stage(name: str, config: RunConfig, force: bool = False, **params) -> Path:
    """The stage called name, with the params it takes from the given ones."""
    stage = _STAGE[name]
    kwargs = {key: params[key] for key in stage.params if key in params}
    return globals()[f"stage_{name}"](config, force=force, **kwargs)


def run_pipeline(config: RunConfig, resonance: int = 0, model: str | None = None,
                 force: bool = False, upto: str | None = None):
    """Stages in dependency order, optionally stopping after `upto`.

    Returns the path of the last artifact written.
    """
    if upto is not None and upto not in STAGES:
        raise ConfigError(f"unknown stage {upto!r}")
    last = STAGES.index(upto) if upto else len(STAGES) - 1
    for name in STAGES[: last + 1]:
        path = run_stage(name, config, force=force, resonance=resonance,
                         model=model)
    return path
