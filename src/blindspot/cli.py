"""Command line front end.

Exit codes: 0 success, 1 usage problems, 2 unreadable or malformed input
data, 3 internal errors.  Results go to stdout or to ``--out`` files;
everything diagnostic (ingestion summaries, warnings, error messages) goes
to stderr.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

from .abstraction import (
    FACTOR_ICD,
    FACTOR_ORDER,
    abstract_stream,
    # no longer called here; the benchmark's --trace 1 looks them up on this
    # module to time them
    abstract_window,
    fit_edges,
    make_windows,
    preset,
    PRESETS,
)
from .counts import (
    CountTable,
    _check_schema,
    # no longer called here (count_samples_file counts a samples file); the
    # benchmark's --trace 1 looks it up on this module to time it
    build_count_table,
)
from .errors import InputError, InvariantViolation
from .estimators import (
    ESTIMATOR_MODES,
    MODE_PLUGIN,
    blind_spot_curve,
    blindness_decomposition,
    ceiling_curve,
    chance_accuracy,
    wilson_interval,
)
from .ingest import (
    PLACEMENTS,
    _at_line,
    _write_config,
    _write_samples,
    count_samples_file,
    ingest_diagnoses,
    ingest_pamap2,
    ingest_samples_csv,
    read_abstraction_config,
    read_class_accuracies,
    read_counts_file,
    read_risk_weights,
    # as build_count_table above
    read_samples_file,
)
from .report import (
    TOOL_VERSION,
    Table,
    build_report,
    bundle_to_json,
    ceiling_table,
    curve_table,
    decomposition_obj,
    decomposition_table,
    histogram_table,
    render_json,
    support_histogram,
    sweep_table,
    sweep_to_json,
    write_csv,
)
from .simulator import read_sweep_spec, run_sweep

__all__ = ["main", "run", "UsageError"]


# the readers in ingest.py re-raise undecodable text, unparsable CSV and
# corrupt or truncated .gz files as InputError naming the file
_BAD_INPUT = (InputError, OSError)


class UsageError(Exception):
    """Flag combination problems detected after parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # bad input data, so usage problems are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _checked(parse, ok, rule: str, keep: tuple[str, ...] = ()):
    """argparse type: parse the text, then require ``ok(value)``; words in
    ``keep`` pass through unparsed."""
    what = "an integer" if parse is int else "a number"

    def convert(text: str):
        if text in keep:
            return text
        try:
            v = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must {rule}, got {v}")
        return v

    return convert


_positive_int = _checked(int, lambda v: v >= 1, "be >= 1")
_nonnegative_int = _checked(int, lambda v: v >= 0, "be >= 0")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "be finite and > 0")
_unit_float = _checked(float, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
_open_interval_float = _checked(float, lambda v: 0.0 < v < 1.0, "lie strictly between 0 and 1")
_unit_float_or_chance = _checked(float, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]", keep=("chance",))


@contextmanager
def _out_stream(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _check_outputs(args) -> None:
    # "-" is stdout for every output flag; only one output may go there, and
    # two outputs never name one file
    for dest in ("json", "save_config"):
        path = getattr(args, dest, None)
        if path == "-" and args.out in (None, "-"):
            raise UsageError(f"--out and {_flag(dest)} would both write to stdout")
        if (path not in (None, "-") and args.out not in (None, "-")
                and os.path.realpath(path) == os.path.realpath(args.out)):
            raise UsageError(f"--out and {_flag(dest)} name the same file")


def _check_needs(args) -> None:
    # a subcommand's ``needs`` lists (dests, what they need, whether that was
    # given) for flags that act only alongside another flag; each defaults to
    # None, so any other value was given on the command line
    for dests, needed, given in getattr(args, "needs", ()):
        for dest in dests:
            if getattr(args, dest) is not None and not given(args):
                raise UsageError(f"{_flag(dest)} needs {needed}")


def _dedupe_modes(modes) -> tuple[str, ...]:
    seen = []
    for m in modes:
        if m in seen:
            raise UsageError(f"estimator mode {m!r} given more than once")
        seen.append(m)
    return tuple(seen)


def _add_table_source(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--samples", metavar="PATH", help="canonical samples CSV (factor:NAME header)")
    g.add_argument("--counts", metavar="PATH", help="per-state counts CSV with trailing count column")


def _load_table(args) -> CountTable:
    if args.samples is not None:
        return count_samples_file(args.samples)
    return read_counts_file(args.counts)


# ---------------------------------------------------------------------------
# ingest

_TAG_LETTER = {"activity": "a", "tilt": "p", "energy": "e", "rate": "r"}


def _resolve_config(args):
    if args.config is not None:
        base = read_abstraction_config(args.config)
    elif args.preset is not None:
        base = preset(args.preset)
    else:
        base = preset("activity")
    overrides: dict = {}
    if args.factors:
        overrides["factors"] = tuple(args.factors)
        overrides["refinement_tag"] = ",".join(
            _TAG_LETTER[f] for f in FACTOR_ORDER if f in args.factors
        )
    if args.tilt_bins is not None:
        overrides["tilt_bins"] = args.tilt_bins
    if args.energy_bins is not None:
        overrides["energy_bins"] = args.energy_bins
        overrides["energy_edges"] = None
    if args.rate_bins is not None:
        overrides["rate_bins"] = args.rate_bins
        overrides["rate_edges"] = None
    return replace(base, **overrides) if overrides else base


def _cmd_ingest(args) -> int:
    if args.samples_csv is not None:
        if not args.key_columns:
            raise UsageError("--samples-csv needs --key-columns")
        try:
            schema = _check_schema(args.key_columns)
        except InputError as exc:  # a bad flag, not bad data
            raise UsageError(f"--key-columns: {exc}") from None
        samples, summary = ingest_samples_csv(args.samples_csv, schema)
    elif args.diagnoses is not None:
        samples, summary = ingest_diagnoses(args.diagnoses)
        schema = (FACTOR_ICD,)
    else:
        if not args.subjects:
            raise UsageError("--pamap2 needs --subjects")
        if args.config is not None and args.preset is not None:
            raise UsageError("--preset and --config cannot be combined")
        config = _resolve_config(args)  # a bad config fails before any recording is read
        stream, summary = ingest_pamap2(args.pamap2, args.subjects, args.placement)
        config, samples = abstract_stream(stream, config, args.window_s, args.stride_s, args.fit_fraction)
        schema = config.factors
        summary.emitted = len(samples)
        if args.save_config is not None:
            with _out_stream(args.save_config) as fh:
                _write_config(fh, config)
    with _out_stream(args.out) as fh:
        _write_samples(fh, samples, schema)
    for line in summary.lines():
        print(line, file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# analysis commands


def _cmd_curve(args) -> int:
    modes = _dedupe_modes(args.mode or [MODE_PLUGIN])
    table = _load_table(args)
    bundle = build_report(
        table,
        args.tau_max,
        modes=modes,
        blind_accuracy=args.blind_accuracy,
        dataset_id=args.dataset_id,
    )
    with _out_stream(args.out) as fh:
        write_csv(fh, curve_table(bundle.curves))
    if args.json is not None:
        with _out_stream(args.json) as fh:
            fh.write(bundle_to_json(bundle))
    return 0


def _cmd_decompose(args) -> int:
    table = _load_table(args)
    weights = None
    if args.weights is not None:
        weights = read_risk_weights(args.weights, table.schema)
        unmatched = sum(1 for key in weights.weights if key not in table.counts)
        if unmatched:
            print(f"blindspot: warning: {unmatched} weight key(s) match no observed state",
                  file=sys.stderr)
    decomp = blindness_decomposition(table, args.tau, args.top_k, weights)
    with _out_stream(args.out) as fh:
        write_csv(fh, decomposition_table(decomp))
    if args.json is not None:
        with _out_stream(args.json) as fh:
            fh.write(render_json(decomposition_obj(decomp)) + "\n")
    return 0


def _cmd_ceiling(args) -> int:
    a = args.blind_accuracy
    if a == "chance":
        if args.classes is None:
            raise UsageError("--blind-accuracy chance needs --classes")
        a = chance_accuracy(args.classes)
    table = _load_table(args)
    curve = blind_spot_curve(table, args.tau_max, mode=args.mode)
    ceil = ceiling_curve(curve, a)
    with _out_stream(args.out) as fh:
        write_csv(fh, ceiling_table(ceil))
    return 0


def _cmd_histogram(args) -> int:
    table = _load_table(args)
    with _out_stream(args.out) as fh:
        write_csv(fh, histogram_table(support_histogram(table)))
    return 0


def _cmd_wilson(args) -> int:
    rows = []
    for lineno, label, s, t in read_class_accuracies(args.input):
        with _at_line(args.input, lambda: lineno):
            lower, upper = wilson_interval(s, t, args.confidence)
        rows.append((label, s, t, s / t, lower, upper))
    with _out_stream(args.out) as fh:
        write_csv(fh, Table(("class", "successes", "trials", "p_hat", "lower", "upper"), rows))
    return 0


def _cmd_simulate(args) -> int:
    cells, spec_trials, spec_seed = read_sweep_spec(args.spec)
    trials = args.trials if args.trials is not None else (spec_trials if spec_trials is not None else 100)
    seed = args.seed if args.seed is not None else (spec_seed if spec_seed is not None else 0)
    try:
        result = run_sweep(cells, trials, seed)
    except InputError as exc:  # a cell too large for memory
        raise InputError(f"{args.spec}: {exc}") from None
    with _out_stream(args.out) as fh:
        write_csv(fh, sweep_table(result))
    if args.json is not None:
        with _out_stream(args.json) as fh:
            fh.write(sweep_to_json(result))
    return 0


def _cmd_report(args) -> int:
    modes = _dedupe_modes(args.mode or [MODE_PLUGIN])
    table = _load_table(args)
    bundle = build_report(
        table,
        args.tau_max,
        modes=modes,
        decomposition_taus=tuple(args.decompose_tau or ()),
        top_k=args.top_k,
        blind_accuracy=args.blind_accuracy,
        dataset_id=args.dataset_id,
    )
    text = bundle_to_json(bundle)
    with _out_stream(args.out) as fh:
        fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="blindspot",
        description="Coverage-risk estimation over operational state frequencies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("ingest", help="turn raw recordings or labeled tables into a samples file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pamap2", nargs="+", metavar="PATH", help="raw 54-column IMU recording file(s)")
    src.add_argument("--samples-csv", metavar="PATH", help="labeled CSV; states from --key-columns")
    src.add_argument("--diagnoses", metavar="PATH", help="admission diagnoses CSV (hadm_id/seq_num/icd_code)")
    p.add_argument("--subjects", nargs="+", type=int, metavar="ID", help="subject numbers to ingest, in order")
    p.add_argument("--placement", choices=PLACEMENTS, default="chest", help="IMU placement (default chest)")
    p.add_argument("--window-s", type=_positive_float, default=5.0, help="window length in seconds (default 5.0)")
    p.add_argument("--stride-s", type=_positive_float, default=2.5, help="window stride in seconds (default 2.5)")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named abstraction preset")
    p.add_argument("--config", metavar="PATH", help="abstraction config file")
    p.add_argument("--factors", nargs="+", choices=FACTOR_ORDER, help="factors for a custom abstraction")
    p.add_argument("--tilt-bins", type=_positive_int, help="override tilt bin count")
    p.add_argument("--energy-bins", type=_positive_int, help="override energy bin count")
    p.add_argument("--rate-bins", type=_positive_int, help="override angular-rate bin count")
    p.add_argument("--fit-fraction", type=_fraction, default=1.0,
                   help="fit quantile edges on the first fraction of windows (default 1.0)")
    p.add_argument("--key-columns", nargs="+", metavar="COL", help="state columns for --samples-csv")
    p.add_argument("--out", metavar="PATH", help="samples file destination (default stdout)")
    p.add_argument("--save-config", metavar="PATH",
                   help="write the fitted abstraction config here (- for stdout)")
    p.set_defaults(handler=_cmd_ingest, needs=(
        (("subjects", "preset", "config", "factors", "tilt_bins", "energy_bins", "rate_bins",
          "save_config"), "--pamap2", lambda a: a.pamap2 is not None),
        (("key_columns",), "--samples-csv", lambda a: a.samples_csv is not None),
    ))

    p = sub.add_parser("curve", help="blind-spot mass as a function of the support threshold")
    _add_table_source(p)
    p.add_argument("--tau-max", type=_positive_int, required=True, help="largest threshold to evaluate")
    p.add_argument("--mode", action="append", choices=ESTIMATOR_MODES,
                   help="estimator mode (repeatable; default plugin)")
    p.add_argument("--blind-accuracy", type=_unit_float, default=0.0,
                   help="assumed accuracy on blind states for the bundled ceiling (default 0)")
    p.add_argument("--dataset-id", default="", help="free-form dataset label for report metadata")
    p.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the full report bundle as JSON (- for stdout)")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("decompose", help="which states carry the blind mass at one threshold")
    _add_table_source(p)
    p.add_argument("--tau", type=_positive_int, required=True, help="support threshold")
    p.add_argument("--top-k", type=_positive_int, help="keep only the k largest contributions")
    p.add_argument("--weights", metavar="PATH", help="risk-weights file (state<TAB>weight)")
    p.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    p.add_argument("--json", metavar="PATH", help="also write the decomposition as JSON (- for stdout)")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("ceiling", help="accuracy ceiling implied by the blind-spot curve")
    _add_table_source(p)
    p.add_argument("--tau-max", type=_positive_int, required=True, help="largest threshold to evaluate")
    p.add_argument("--blind-accuracy", type=_unit_float_or_chance, default="0",
                   help="assumed accuracy on blind states: a number in [0, 1] or 'chance'")
    p.add_argument("--classes", type=_positive_int, help="class count backing 'chance'")
    p.add_argument("--mode", choices=ESTIMATOR_MODES, default=MODE_PLUGIN,
                   help="estimator mode for the underlying curve (default plugin)")
    p.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    p.set_defaults(handler=_cmd_ceiling, needs=(
        (("classes",), "--blind-accuracy chance", lambda a: a.blind_accuracy == "chance"),
    ))

    p = sub.add_parser("histogram", help="per-state observation counts, most frequent first")
    _add_table_source(p)
    p.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    p.set_defaults(handler=_cmd_histogram)

    p = sub.add_parser("wilson", help="Wilson score intervals for per-class accuracies")
    p.add_argument("--input", required=True, metavar="PATH",
                   help="CSV with class, successes, trials columns")
    p.add_argument("--confidence", type=_open_interval_float, default=0.95,
                   help="confidence level (default 0.95)")
    p.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    p.set_defaults(handler=_cmd_wilson)

    p = sub.add_parser("simulate", help="Monte-Carlo estimator check against known distributions")
    p.add_argument("--spec", required=True, metavar="PATH", help="sweep grid spec (key = value lines)")
    p.add_argument("--trials", type=_positive_int, help="trials per cell (overrides the sweep file)")
    p.add_argument("--seed", type=_nonnegative_int, help="master seed (overrides the sweep file)")
    p.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    p.add_argument("--json", metavar="PATH", help="also write full results as JSON (- for stdout)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("report", help="full JSON bundle: curves, decompositions, ceiling, histogram")
    _add_table_source(p)
    p.add_argument("--tau-max", type=_positive_int, required=True, help="largest threshold to evaluate")
    p.add_argument("--decompose-tau", type=_positive_int, action="append", metavar="TAU",
                   help="also decompose at this threshold (repeatable)")
    p.add_argument("--top-k", type=_positive_int, help="cap decomposition entries")
    p.add_argument("--mode", action="append", choices=ESTIMATOR_MODES,
                   help="estimator mode (repeatable; default plugin)")
    p.add_argument("--blind-accuracy", type=_unit_float, default=0.0,
                   help="assumed accuracy on blind states (default 0)")
    p.add_argument("--dataset-id", default="", help="free-form dataset label for report metadata")
    p.add_argument("--out", metavar="PATH", help="JSON destination (default stdout)")
    p.set_defaults(handler=_cmd_report, needs=(
        (("top_k",), "--decompose-tau", lambda a: a.decompose_tau is not None),
    ))

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    # a command's objects hold no reference cycles and live until it returns,
    # so the cyclic collector would only walk them again and again
    collecting = gc.isenabled()
    gc.disable()
    try:
        _check_outputs(args)
        _check_needs(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"blindspot: error: {exc}", file=sys.stderr)
        return 1
    except _BAD_INPUT as exc:
        print(f"blindspot: error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"blindspot: internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"blindspot: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    sys.exit(main())
