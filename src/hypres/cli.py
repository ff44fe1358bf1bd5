"""Command-line entry point.

Subcommands run the pipeline's stages, one per row of its stage table,
or the whole chain (pipeline); stage outputs are cached in the configured
output directory and reused when the configuration digest matches.  A run
that includes the fit prints its report's summary.  Exit code 0 on
success, 1 on a stage error (message is tagged with the stage), 2 on a
configuration problem.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .errors import ConfigError, HypresError
from .pipeline import STAGE_TABLE, STAGES, WORDS, RunConfig

# every stage parameter, as CLI options, in table order
_PARAMS = tuple(dict.fromkeys(key for stage in STAGE_TABLE for key in stage.params))


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
                             help="resonance window index "
                                  "(0 = most pronounced)")
        if "model" in params:
            sub.add_argument("--model", choices=WORDS["fit", "model"],
                             help="override [fit] model")
        if name == "pipeline":
            sub.add_argument("--stage", choices=list(STAGES),
                             help="stop after this stage (dependencies included)")
    return parser


def _print_summary(path):
    from .tableio import check_numbers, read_keyvalues
    try:
        pairs, _ = read_keyvalues(path)
        compared = "branching_shift" in pairs
        check_numbers(path, pairs, ("E0", "Gamma", "Gamma2_over_Gamma")
                      + (("residual_ratio", "branching_shift") if compared else ()))
    except HypresError as exc:
        exc.stage = "fit"  # the fit stage's report, under any command
        raise
    e0 = pairs["E0"]
    gamma = pairs["Gamma"]
    print(f"# resonance report ({path})")
    print("#    -E0          Gamma          Gamma2/Gamma")
    print(f"{-e0:.6e}  {gamma:.6e}  {pairs['Gamma2_over_Gamma']:.4f}")
    if "diagonal_status" in pairs:
        print("# model comparison: diagonal model: no admissible fit")
    elif compared:
        print(
            f"# model comparison: residual ratio {pairs['residual_ratio']:.3e}, "
            f"branching shift {pairs['branching_shift']:.4f}"
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    params = {key: getattr(args, key) for key in _PARAMS if hasattr(args, key)}
    try:
        config = RunConfig.from_file(args.config, directory=args.out)
        if args.command == "pipeline":
            ran = STAGES[: STAGES.index(args.stage) + 1 if args.stage else None]
            out = pipeline.run_pipeline(config, force=args.force,
                                        upto=args.stage, **params)
        else:
            ran = (args.command,)
            out = pipeline.run_stage(args.command, config, force=args.force,
                                     **params)
        if "fit" in ran:
            report = STAGE_TABLE[STAGES.index("fit")].outputs[-1]
            _print_summary(config.out_dir() / report.format(**params))
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
