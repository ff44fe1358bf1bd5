"""Command-line entry point.

Subcommands run pipeline stages (terms, couplings, scan, sample, fit,
xsec) or the whole chain (pipeline); stage outputs are cached in the
configured output directory and reused when the configuration digest
matches.  Exit code 0 on success, 1 on a stage error (message is tagged
with the stage), 2 on a configuration problem.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .errors import ConfigError, HypresError
from .pipeline import STAGE_TABLE, STAGES, WORDS, RunConfig
from .tableio import read_keyvalues

_PARAMS = ("resonance", "model")  # every stage parameter, as CLI options


def _add_common(sub):
    sub.add_argument("--config", required=True, help="INI run configuration")
    sub.add_argument("--out", help="override [output] directory")
    sub.add_argument("--force", action="store_true",
                     help="recompute even when caches are fresh")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypres",
        description="Multichannel resonance extraction: adiabatic basis, "
        "stabilization scan, generalized pole-form fit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    commands = [(stage.name, stage.help, stage.params) for stage in STAGE_TABLE]
    commands.append(("pipeline", "run every stage in order", _PARAMS))
    for name, help_text, params in commands:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if "resonance" in params:
            sub.add_argument("--resonance", type=int, default=0,
                             help="window index from the scan stage (0 = lowest)")
        if "model" in params:
            sub.add_argument("--model", choices=WORDS["fit", "model"],
                             help="override [fit] model")
        if name == "pipeline":
            sub.add_argument("--stage", choices=list(STAGES),
                             help="stop after this stage (dependencies included)")
    return parser


def _print_summary(path):
    pairs, _ = read_keyvalues(path)
    e0 = pairs["E0"]
    gamma = pairs["Gamma"]
    print(f"# resonance report ({path})")
    print("#    -E0          E0_below_upper    Gamma          Gamma2/Gamma")
    print(
        f"{-e0:.6e}  {pairs['E0_below_upper_threshold']:.6e}    "
        f"{gamma:.6e}  {pairs['Gamma2_over_Gamma']:.4f}"
    )
    if "diagonal_status" in pairs:
        print("# model comparison: diagonal model: no admissible fit")
    elif "branching_shift" in pairs:
        print(
            f"# model comparison: residual ratio {pairs['residual_ratio']:.3e}, "
            f"branching shift {pairs['branching_shift']:.4f}"
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config, directory=args.out)
    except ConfigError as exc:
        print(f"[config] error: {exc}", file=sys.stderr)
        return 2
    params = {key: getattr(args, key) for key in _PARAMS if hasattr(args, key)}
    try:
        if args.command == "pipeline":
            out = pipeline.run_pipeline(config, force=args.force,
                                        upto=args.stage, **params)
        else:
            out = pipeline.run_stage(args.command, config, force=args.force,
                                     **params)
        if args.command == "fit" or (
                args.command == "pipeline" and args.stage in (None, "fit", "xsec")):
            _print_summary(config.out_dir() / f"fit_{args.resonance}.txt")
        print(f"[{args.command}] wrote {out}")
        return 0
    except ConfigError as exc:
        print(f"[config] error: {exc}", file=sys.stderr)
        return 2
    except HypresError as exc:
        print(f"[stage:{exc.stage or args.command}] error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
