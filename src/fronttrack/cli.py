"""Command line entry points.

Exit status: 0 when every hard check passes; 1 when a check fails, after
``run`` and ``sweep`` have written their artifacts; 2 on malformed input or
configuration, an event cap hit included, with one ``input error:`` line.
"""

import argparse
import sys
from pathlib import Path

from .diagram import render_front_diagram, render_potential_plot
from .errors import InputError
from .harness import load_json, parse_run_config, parse_sweep_config, run_simulation, sweep
from .report import build_report, events_csv, potential_csv, report_bytes, verify_report

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _out_dir(path: str) -> Path:
    """The --out directory, created if missing."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot use --out {path}: {exc}") from exc
    return out_dir


def _cmd_run(args) -> int:
    data = load_json(args.config)
    # the given flags go into the config's options, so that the report's
    # run_config reproduces the run
    given = {
        "restart_check_points": args.restart_checks,
        "emit_svg": args.svg,
        "decimal": args.decimal,
    }
    given = {k: v for k, v in given.items() if v is not None}
    if given and isinstance(data, dict) and isinstance(data.get("options", {}), dict):
        data["options"] = {**data.get("options", {}), **given}
    cfg = parse_run_config(data)
    out_dir = _out_dir(args.out)
    result = run_simulation(cfg)
    report = build_report(result)
    (out_dir / "report.json").write_bytes(report_bytes(report))
    (out_dir / "events.csv").write_text(events_csv(report, cfg.decimal))
    (out_dir / "potential.csv").write_text(potential_csv(report, cfg.decimal))
    if cfg.emit_svg:
        (out_dir / "fronts.svg").write_text(render_front_diagram(result.timeline))
        (out_dir / "potential.svg").write_text(
            render_potential_plot(result.series, result.timeline)
        )

    failures = result.series.hard_failures
    if failures:
        print(f"verification FAILED: {failures}", file=sys.stderr)
        return EXIT_VERIFICATION
    print(
        f"ok: {len(result.series.events)} events, K={result.series.K}, "
        f"TV0={result.series.tv0}, Q0={result.series.slabs[0].Q} "
        f"-> {out_dir / 'report.json'}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = parse_sweep_config(load_json(args.config))
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    out_dir = _out_dir(args.out)
    rows = sweep(cfg, jobs=args.jobs)
    (out_dir / "sweep.json").write_bytes(report_bytes(rows))
    header = [
        "epsilon", "K", "tv0", "Q0", "upsilon0_paper", "upsilon0_strict",
        "events", "max_delta_sigma_slack",
    ]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if row[h] is None else str(row[h]) for h in header))
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    for row in rows:
        print(
            f"eps={row['epsilon']}: events={row['events']} Q0={row['Q0']} "
            f"upsilon0={row['upsilon0_strict']} l1_to_finest={row['l1_to_finest']}"
        )
    failures = {row["epsilon"]: row["failures"] for row in rows if not row["passed"]}
    if failures:
        print(f"verification FAILED: {failures}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = load_json(args.report)
    failures = verify_report(report)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_VERIFICATION
    print("report verifies: all stored verdicts re-check and hold")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fronttrack",
        description="Exact front tracking with interaction-potential verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one config and emit artifacts")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    # an absent flag is None: the config's own option applies
    p_run.add_argument("--svg", action="store_const", const=True)
    p_run.add_argument("--restart-checks", type=int)
    p_run.add_argument("--decimal", action="store_const", const=True)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a family of epsilons")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="re-check a stored report")
    p_verify.add_argument("report")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


PARSER = build_parser()  # built once: a build costs more than a small verify


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
