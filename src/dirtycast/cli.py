"""Command-line front end: `dirtycast {bounds|figure|simulate|verify}`.

All output is deterministic for fixed flags and seed.  Exit codes: 0 success,
1 failed verify check, 2 invalid flags or a value the library rejects (the
message is the library's, e.g. naming P, Q, Qd or K), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, binary, correlated, figures, gaussian, verify
from .core import db_to_linear
from .simulate import SchemeRun, simulate_scheme

_fmt = figures.format_number  # every number is printed as the figure CSVs print it


def _resolve_db_pair(parser, linear, in_db, name, quantity):
    if linear is not None and in_db is not None:
        parser.error(f"specify only one of --{name} and --{name}-db")
    if linear is None and in_db is None:
        parser.error(f"one of --{name} or --{name}-db is required")
    return linear if linear is not None else db_to_linear(in_db, quantity)


def _cmd_bounds(parser, args) -> int:
    if args.mode == "binary":
        if args.q is None:
            parser.error("--binary requires --q")
        spec = binary.BinaryChannelSpec.iid(args.q, k=args.k, noise_q=args.noise_q)
        if args.k != 2:
            rows = [("joint-xor-converse", "upper", binary.upper_bound_k(spec)),
                    ("block-precancellation", "lower", binary.lower_bound_k(spec))]
        elif spec.noiseless:
            rows = [("xor-capacity", "exact", binary.capacity_two_user(spec))]
        else:
            lower, upper = binary.noisy_two_user_bounds(spec)
            rows = [("noisy-precancellation", "lower", lower), ("noisy-converse", "upper", upper)]
        rows += [("time-sharing", "lower", binary.rate_timeshare(args.k)),
                 ("ignore-side-info", "lower", binary.rate_ignore_side_info(spec))]
        title = f"binary multicast, K={args.k}, q={_fmt(args.q)}" + (
            f", noise_q={_fmt(args.noise_q)}" if args.noise_q is not None else "")
    elif args.mode == "gaussian":
        p = _resolve_db_pair(parser, args.snr, args.snr_db, "snr", "P")
        q = _resolve_db_pair(parser, args.inr, args.inr_db, "inr", "Q")
        rows = [
            ("envelope", "upper", gaussian.upper_envelope(p, q)),
            ("upper-I", "upper", gaussian.upper_i(p, q)),
            ("upper-II", "upper", gaussian.upper_ii(p, q)),
            ("superposition-dpc", "lower", gaussian.lower_bound(p, q)),
            ("time-sharing", "lower", gaussian.rate_timeshare(p)),
            ("interference-as-noise", "lower", gaussian.rate_interference_as_noise(p, q)),
            ("trivial-awgn", "upper", gaussian.awgn_capacity(p)),
        ]
        if args.k != 2:
            rows.append((f"upper-K{args.k}", "upper", gaussian.upper_k(p, q, args.k)))
        title = f"gaussian multicast, K={args.k}, P={_fmt(p)}, Q={_fmt(q)}"
    else:
        p = _resolve_db_pair(parser, args.snr, args.snr_db, "snr", "P")
        if args.qd is None:
            parser.error("--correlated requires --qd")
        q1 = args.q1 if args.q1 is not None else args.qd / 4.0
        q2 = args.q2 if args.q2 is not None else q1
        rows = [
            ("correlated-converse", "upper", correlated.upper_correlated(p, q1, q2, args.qd)),
            ("dithered-superposition", "lower", correlated.lower_beta(p, args.qd)),
            ("time-sharing", "lower", gaussian.rate_timeshare(p)),
        ]
        title = (f"correlated multicast, P={_fmt(p)}, Q1={_fmt(q1)}, Q2={_fmt(q2)}, "
                 f"Qd={_fmt(args.qd)}")
    width = max(len(method) for method, _, _ in rows)
    print("\n".join([title] + [f"{m:<{width}}  {kind:<5}  {_fmt(v)}" for m, kind, v in rows]))
    return 0


def _cmd_figure(_parser, args) -> int:
    out = args.out if args.out is not None else f"{args.name}.csv"
    header, rows = figures.figure_table(args.name)
    figures.write_csv(out, header, rows)
    if args.svg is not None:
        figures.write_svg(args.svg, header, rows, title=args.name)
    print(f"{args.name}: wrote {len(rows)} rows to {out}" +
          (f" and {args.svg}" if args.svg is not None else ""))
    return 0


def _cmd_simulate(_parser, args) -> int:
    spec = binary.BinaryChannelSpec.iid(args.q, noise_q=args.noise_q)
    trials = args.trials if args.trials is not None else (1 if args.mi_only else 1000)
    run = SchemeRun(n=args.n, rate=args.rate, trials=trials, seed=args.seed, codebook=args.codebook)
    report = simulate_scheme(spec, run)

    lines = [
        f"scheme simulation: q={_fmt(args.q)}, n={report.n}, trials={report.trials}, "
        f"seed={args.seed}",
        f"interfered-half crossover: {_fmt(report.empirical_crossover)} "
        f"(expected {_fmt(binary.xor_convolve(spec.xor_probability, spec.noise_q or 0.0))}, "
        f"{report.interfered_samples} samples)",
        f"precancellation rate at the measured crossover: "
        f"{_fmt(report.empirical_mi_per_symbol)} bits/use "
        f"(at the expected crossover {_fmt(report.predicted_mi_per_symbol)})",
    ]
    if report.frame_error_rate is not None:
        lines.insert(1, f"codebook: {report.codewords} codewords ({run.codebook})")
        lines.append(
            f"frame error rate: user1 {_fmt(report.fer_user1)}, user2 {_fmt(report.fer_user2)}, "
            f"union {_fmt(report.frame_error_rate)}"
        )
    print("\n".join(lines))
    if args.csv is not None:
        pairs = [
            ("empirical_crossover", report.empirical_crossover),
            ("interfered_samples", report.interfered_samples),
            ("empirical_mi_per_symbol", report.empirical_mi_per_symbol),
            ("predicted_mi_per_symbol", report.predicted_mi_per_symbol),
        ]
        if report.frame_error_rate is not None:
            pairs += [
                ("fer_user1", report.fer_user1),
                ("fer_user2", report.fer_user2),
                ("fer_union", report.frame_error_rate),
            ]
        with open(args.csv, "w", encoding="ascii", newline="\n") as fh:
            fh.write("metric,value\n")
            for k, v in pairs:
                fh.write(f"{k},{_fmt(v)}\n")
    return 0


def _cmd_verify(_parser, _args) -> int:
    results = verify.run_checks()
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(f"{tag}  {res.name}: {res.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirtycast",
        description="Capacity bounds and scheme simulation for multicast "
        "channels with transmitter-known additive interference.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="print every applicable bound at one operating point")
    mode = b.add_mutually_exclusive_group(required=True)
    for name in ("binary", "gaussian", "correlated"):
        mode.add_argument(f"--{name}", dest="mode", action="store_const", const=name)
    b.add_argument("--q", type=float, help="binary interference probability")
    b.add_argument("--k", type=int, default=2, help="number of receivers")
    b.add_argument("--noise-q", type=float, default=None, help="binary noise crossover")
    b.add_argument("--snr", type=float, default=None, help="SNR, linear")
    b.add_argument("--snr-db", type=float, default=None, help="SNR in dB")
    b.add_argument("--inr", type=float, default=None, help="INR, linear")
    b.add_argument("--inr-db", type=float, default=None, help="INR in dB")
    b.add_argument("--q1", type=float, default=None, help="first interference power")
    b.add_argument("--q2", type=float, default=None, help="second interference power")
    b.add_argument("--qd", type=float, default=None, help="variance of S1 - S2")

    f = sub.add_parser("figure", help="regenerate a figure sweep as CSV (optionally SVG)")
    f.add_argument("name", choices=figures.FIGURES)
    f.add_argument("--out", default=None, help="CSV path (default <name>.csv)")
    f.add_argument("--svg", default=None, help="also write a self-contained SVG plot")

    s = sub.add_parser("simulate", help="Monte Carlo run of the binary precancellation scheme")
    s.add_argument("--q", type=float, required=True, help="iid interference probability")
    s.add_argument("--noise-q", type=float, default=None)
    s.add_argument("--n", type=int, required=True, help="blocklength (even)")
    decode = s.add_mutually_exclusive_group(required=True)
    decode.add_argument("--rate", type=float, default=None, help="code rate in bits/use")
    decode.add_argument("--mi-only", action="store_true",
                        help="skip decoding; measure crossover/MI")
    s.add_argument("--trials", type=int, default=None, help="default 1000 (1 with --mi-only)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--codebook", choices=("iid", "linear"), default="iid")
    s.add_argument("--csv", default=None, help="also write the report metrics as CSV")

    sub.add_parser("verify", help="run the full cross-verification suite")
    for command in sub.choices.values():  # errors print the failing command's usage
        command.set_defaults(command_parser=command)
    return parser


_HANDLERS = {
    "bounds": _cmd_bounds,
    "figure": _cmd_figure,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args.command_parser, args)
    except ValueError as exc:  # every value rule lives in the library
        args.command_parser.error(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
