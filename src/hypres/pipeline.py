"""Batch pipeline: configuration, cached stages, and artifact files.

Stages run in dependency order (terms -> couplings -> scan -> sample ->
fit -> xsec), as listed in `STAGE_TABLE`, which the CLI reads too.  Each
stage writes one or more text artifacts whose headers record the digest of
the configuration sections (and of the input file) that produced them.
One runner serves every stage: it refuses missing or stale inputs with a
CacheError naming the stage that produces them (and, when stale, the header
key that differs), keeps outputs whose headers match, and otherwise calls
the stage's body with its row's paths (see `Stage`).  It builds each
expected header and hashes each input file once per header chain: one
chain per run_pipeline call, a fresh one for a stage run on its own; in
table order a file is hashed only after its stage ran.

Module level imports only what the configuration and the stage table use
(errors).  The table functions (`hypres.tableio`) are imported where a
digest is taken or a header read, the stage bodies (`hypres.stages`) only
when a stage must run.  So importing this module, `hypres --help` and a
config error compile neither, a fully cached run compiles no stage code,
and a process that checks a cache or runs a stage compiles that code then,
saving nothing.  Each body, and each helper that builds a layer object
(the channel set and masses too), imports its layer when it runs, so a
process whose stage is cached loads no FEM, scan or fit code, and
importing this module loads no channel or pole-form algebra.  The toy's
terms and couplings stages write the analytic model's tables directly, so
they load neither the FEM layer nor the radial solver.

The configuration is one INI-style file with a section per stage; the
defaults reproduce the full (t, d, mu) run (131x61 basis grid, 6 retained
channels, rho in [0.05, 500]) so a config that only names the kind is
complete.  It is read once, each value cast to the type of its default and
a three-body rho range checked, so a bad key, value or range is a
ConfigError before any stage runs; the digests hash the typed values.  The
config and the stage rows are plain slotted classes, neither dataclasses
nor NamedTuples, so that no method is generated and compiled at import.
"""

from __future__ import annotations

import configparser
import contextvars
import io
import math
from pathlib import Path

from .errors import CacheError, ConfigError, HypresError, ValidationError

# Each key's type is the type of its default; None marks an optional float,
# whose empty value reads as None.
DEFAULTS = {
    "system": {"kind": "three-body"},
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


class RunConfig:
    """Typed values of every configuration key; the digests hash their str."""

    __slots__ = ("values",)

    def __init__(self, values: dict):
        self.values = values

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
        value, a word outside its WORDS, a three-body key in a toy run and a
        three-body rho range out of order are each a ConfigError."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if parser.defaults():
            raise ConfigError(f"unknown section [{parser.default_section}]")
        values = {section: dict(keys) for section, keys in DEFAULTS.items()}
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"unknown key [{section}] {key}")
                values[section][key] = _typed(section, key, raw)
        b, r = values["basis"], values["radial"]  # couplings.dat spans b's range
        if values["system"]["kind"] == "toy":
            # the toy reads [radial] h_max alone (its tables and rho range are fixed)
            unread = [f"[{s}] {key}" for s in ("basis", "radial") if s in parser
                      for key in parser[s] if key != "h_max"]
            if unread:
                raise ConfigError(f"{', '.join(unread)}: not read by kind = toy")
        elif not (0.0 < b["rho_min"] <= r["rho_start"] < r["rho_match"]
                  <= b["rho_max"] and b["n_rho"] >= 2):
            raise ConfigError(
                f"[radial] range [{r['rho_start']!r}, {r['rho_match']!r}] on [basis] "
                f"[{b['rho_min']!r}, {b['rho_max']!r}], n_rho = {b['n_rho']!r}: need 0 < "
                "rho_min <= rho_start < rho_match <= rho_max and n_rho >= 2")
        if directory is not None:
            values["output"]["directory"] = str(directory)
        return cls(values)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def canonical(self, sections) -> str:
        """The given sections' values as text, for digests (None as '')."""
        buf = io.StringIO()
        for sec in sections:
            buf.write(f"[{sec}]\n")
            for key, value in sorted(self.values[sec].items()):
                buf.write(f"{key} = {'' if value is None else value}\n")
        return buf.getvalue()

    def digest(self, sections) -> str:
        from .tableio import digest_text
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


def _typed(section: str, key: str, raw: str):
    """raw read as the type of the key's default; a float must be finite."""
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
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


# --------------------------------------------------------------------------
# stage plumbing


class Stage:
    """One row of the stage table.

    sections are the config sections whose digest the header records
    ([basis] only in three-body runs: the toy's tables are constants);
    outputs are the files the stage writes, the last one being its result;
    inputs are the files that must be fresh before it runs; digested is the
    input whose file digest the header records; header names the parameters
    the header records; params are the parameters the stage takes besides
    the configuration.  File names may use {resonance}; the table is the
    one place that names an artifact.  The stage's body is
    `hypres.stages._<name>(config, expect, *inputs, *outputs, **header)`:
    the expected header, the path of each input and output in row order,
    and the header's parameters by name, so it reads only the files its
    row declares and depends only on what its header records.
    """

    __slots__ = ("name", "help", "sections", "outputs", "inputs", "digested",
                 "header", "params")

    def __init__(self, name: str, help: str, sections: tuple, outputs: tuple,
                 inputs: tuple = (), digested: str | None = None,
                 header: tuple = (), params: tuple = ()):
        self.name, self.help = name, help
        self.sections, self.outputs, self.inputs = sections, outputs, inputs
        self.digested, self.header, self.params = digested, header, params


def _check_cache(path: Path, expect: dict) -> str | None:
    """First key of expect that path's header lacks or contradicts, or None.

    Only the header is read: artifacts are replaced whole once written, so
    a file with a matching header is complete.
    """
    from .tableio import read_header
    try:
        meta = read_header(path)
    except (CacheError, ValidationError):
        meta = {}
    return next((k for k, v in expect.items() if meta.get(k) != v), None)


def _expect(stage: Stage, config: RunConfig, params: dict, chain: dict) -> dict:
    """Header of a fresh output of stage under config and params, built once
    per chain; header parameters absent from params are not checked."""
    if stage.name not in chain:
        from .tableio import digest_file
        sections = [s for s in stage.sections
                    if s != "basis" or config.kind == "three-body"]
        expect = {"config-digest": config.digest(sections)}
        if stage.digested is not None:
            path = config.out_dir() / stage.digested.format(**params)
            if path not in chain:
                chain[path] = digest_file(path) if path.exists() else "missing"
            expect["input-digest"] = chain[path]
        expect.update((key, str(params[key])) for key in stage.header if key in params)
        chain[stage.name] = expect
    return chain[stage.name]


def _run(name: str, config: RunConfig, force: bool, **params) -> Path:
    """Run one stage through its cache; returns its last output file.

    Missing or stale inputs raise CacheError naming the stage that produces
    them; outputs whose headers match are kept unless force is set.  A
    HypresError leaves with its `stage` set to this stage's name.
    """
    stage = _STAGE[name]
    out_dir = config.out_dir()
    chain = _CHAIN.get({})
    try:
        inputs = [out_dir / p.format(**params) for p in stage.inputs]
        for pattern, path in zip(stage.inputs, inputs):
            producer = _PRODUCER[pattern]
            if not path.exists():
                raise CacheError(
                    f"missing {path.name}; run the '{producer.name}' stage first")
            if key := _check_cache(path, _expect(producer, config, params, chain)):
                raise CacheError(
                    f"stale cache {path.name} ({key} differs); rerun '{producer.name}'")
        expect = _expect(stage, config, params, chain)
        outputs = [out_dir / p.format(**params) for p in stage.outputs]
        if force or any(_check_cache(p, expect) for p in outputs):
            from . import stages
            getattr(stages, f"_{name}")(config, expect, *inputs, *outputs,
                                        **{k: params[k] for k in stage.header})
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
          inputs=("ksamples_{resonance}.dat",),
          digested="ksamples_{resonance}.dat",
          header=("model",), params=("resonance", "model")),
    Stage("xsec", "profile files: K entries, inverse parts, cross sections",
          (),
          ("profiles_k_{resonance}.dat", "profiles_invk_{resonance}.dat",
           "profiles_xsec_{resonance}.dat"),
          inputs=("fit_{resonance}.txt", "ksamples_{resonance}.dat"),
          digested="fit_{resonance}.txt", params=("resonance",)),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
_STAGE = {stage.name: stage for stage in STAGE_TABLE}
_PRODUCER = {name: stage for stage in STAGE_TABLE for name in stage.outputs}
# the running run_pipeline's chain: stage name -> header, input path -> digest
_CHAIN = contextvars.ContextVar("header_chain")


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
    if name not in _STAGE:
        raise ConfigError(f"unknown stage {name!r}")
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
    token = _CHAIN.set({})
    try:
        for name in STAGES[: STAGES.index(upto) + 1 if upto else None]:
            path = run_stage(name, config, force=force, resonance=resonance,
                             model=model)
    finally:
        _CHAIN.reset(token)
    return path
