"""Command-line front end: run experiments, inspect presets, validate
channel files, and exercise the brute-force verification suite."""

import argparse
import json
import sys
from pathlib import Path

from .channel import channel_digest, load_channels
from .exceptions import InvalidInputError, SwiptError
from .experiments import PRESETS, apply_overrides, preset_variants, run_experiment


def _cmd_run(args):
    if args.preset:
        variants = preset_variants(args.preset)
        default_out = Path(args.output or f"runs/{args.preset}")
    else:
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
                raise InvalidInputError(f"config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InvalidInputError(f"config {args.config} must hold a JSON object")
        variants = [("main", doc)]
        default_out = Path(args.output or "runs/custom")
    rc = 0
    for label, d in variants:
        d = apply_overrides(d, args.set or [])
        if d.get("output_dir") is None:
            d["output_dir"] = str(default_out if len(variants) == 1 else default_out / label)
        manifest = run_experiment(d, workers=args.workers)
        rc = max(rc, manifest["exit_code"])
        print(
            f"{label}: {len(manifest['artifacts'])} artifacts in "
            f"{d['output_dir']} ({manifest['seconds_total']}s, exit {manifest['exit_code']})"
        )
    return rc


def _cmd_show_preset(args):
    if not args.name:
        print("\n".join(sorted(PRESETS)))
        return 0
    doc = {
        "preset": args.name,
        "variants": [
            {"label": label, "config": d} for label, d in preset_variants(args.name)
        ],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_validate_channels(args):
    rc = 0
    for path in args.files:
        try:
            cs = load_channels(path)
        except (SwiptError, OSError) as exc:  # OSError: a missing file, a directory
            print(f"ERROR {path}: {exc}", file=sys.stderr)
            rc = 1
            continue
        print(f"OK {channel_digest(cs)} {path}")
    return rc


def _cmd_oracle_suite(args):
    # imported here, so the other commands never load the verification module
    from .oracle import (
        factorization_census,
        game_census,
        harvest_census,
        p3_endpoint_census,
        p3_local_census,
        ratio_beam_census,
        waterfill_census,
    )

    # the first draws of acceptance C1-C5 (at seed 0), with fewer search trials
    s, p = args.seed, 50.0
    rel, excess, frac = harvest_census(4, 1000 + s, 7000 + s, p, args.trials)
    level, trace, neg = waterfill_census(200, 11000 + s)
    own, cross = factorization_census(100, 2000 + s)
    beam_rel, align = ratio_beam_census(100, 4000 + s, p, 0.1)
    wf, cap_q, cap_rate = p3_endpoint_census(20, 5000 + s, p)
    bad = p3_local_census(10, 1000 + s, p)
    g_rate, g_q, parted = game_census(120, 12000 + s, p)
    checks = [
        ("rank-one harvest optimum upper-bounds random search (4)",
         rel <= 1e-9 and excess <= 1e-9, f"rel err {rel:.2e}, max excess {excess:.2e}"),
        ("random search approaches the optimum (4)", frac >= 0.9, f"min fraction {frac:.4f}"),
        ("water-filling KKT census (200)", level <= 1e-8 and trace <= 1e-10 and neg <= 1e-10,
         f"level spread {level:.2e}, trace err {trace:.2e}P, min eig -{neg:.2e}P"),
        ("pair factorization residuals (100)", own < 1e-8 and cross < 1e-8,
         f"own {own:.2e}, cross {cross:.2e}"),
        ("ratio beam matches generalized eigensolver (100)", beam_rel <= 1e-6 and align > 0.999,
         f"max rel {beam_rel:.2e}, min align {align:.6f}"),
        ("energy floor 0 returns plain water-filling (20)", wf <= 1e-9, f"rate rel {wf:.2e}"),
        ("energy cap returns the cross-link beam (20)", cap_q < 1e-4 * p and cap_rate <= 1e-6,
         f"|dQ| {cap_q:.2e}, rate rel {cap_rate:.2e}"),
        ("floored solver local optimality (10)", bad == 0, f"{bad} failures"),
        ("water-filling game matches the per-user game (120)",
         g_rate <= 1e-12 and g_q <= 1e-12 and all(d <= 1e-6 for d in parted),
         f"rate rel {g_rate:.2e}, |dQ| {g_q:.2e}P, {len(parted)} games part at the threshold"),
    ]
    for name, ok, detail in checks:
        print(f"[oracle] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return 0 if all(ok for _, ok, _ in checks) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="swiptifc",
        description="Rate-energy tradeoff experiments for the two-user "
        "interference channel with wireless energy transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment preset or config file")
    group = p_run.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS), help="embedded preset name")
    group.add_argument("--config", help="path to a JSON config file")
    p_run.add_argument("--output", help="output directory (default runs/<name>)")
    p_run.add_argument("--workers", type=int, default=1, help="process pool size")
    p_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field (VALUE parsed as JSON, e.g. --set seeds=[1,2])",
    )
    p_run.set_defaults(func=_cmd_run)

    p_show = sub.add_parser("show-preset", help="print a preset as JSON")
    p_show.add_argument("name", nargs="?", help="preset name (omit to list)")
    p_show.set_defaults(func=_cmd_show_preset)

    p_val = sub.add_parser("validate-channels", help="check channel JSON files")
    p_val.add_argument("files", nargs="+", help="channel files to validate")
    p_val.set_defaults(func=_cmd_validate_channels)

    p_orc = sub.add_parser(
        "oracle-suite", help="run the brute-force verification censuses"
    )
    p_orc.add_argument(
        "--trials", type=int, default=20000, help="search trials per transmitter and draw"
    )
    p_orc.add_argument("--seed", type=int, default=0, help="census seed")
    p_orc.set_defaults(func=_cmd_oracle_suite)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SwiptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
