"""Command-line front end.

Subcommands:
    analyze          CPTP validation, canonical form, EB verdict for one channel
    markov           time scan of a dynamical family, CSV/JSON output
    amend local      randomized local-amendment search, JSON report
    amend global-example
                     run the bundled global-amendment construction

Exit codes: 0 success (verdicts are data, never errors), 1 parse or
configuration error, 2 channel not completely positive or an invalid
state produced, 3 output path not writable (a closed stdout pipe
included).  Library errors are mapped to codes 1 and 2 in `main` alone.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import amend, markov
from .channel import (
    QubitChannelAffine,
    depolarizing_channel,
    identity_channel,
    seb_example_channel,
)
from .ebtest import analyze
from .errors import EBChannelsError, NotCP

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_CP = 2
EXIT_UNWRITABLE = 3


class ChannelFileError(EBChannelsError):
    """Channel file does not match the published schema."""


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ChannelFileError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ChannelFileError(f"{where} must be finite: {exc}") from exc


def parse_channel_dict(data: dict) -> QubitChannelAffine:
    """Validate the channel JSON object schema and build the channel.

    Schema: {"n": [3 numbers], "M": [[3 numbers] x 3]} with optional
    "metadata": {"name": str}.  A "d" key is reserved for qudit affine
    maps; only d = 2 is accepted here.  Any other key is rejected.
    """
    if not isinstance(data, dict):
        raise ChannelFileError("top-level JSON value must be an object")
    allowed = {"n", "M", "metadata", "d"}
    extra = set(data) - allowed
    if extra:
        raise ChannelFileError(f"unexpected key(s): {sorted(extra)}")
    if "d" in data and data["d"] != 2:
        raise ChannelFileError(
            f'only qubit channels (d = 2) are accepted here, got "d": {data["d"]!r}'
        )
    for key in ("n", "M"):
        if key not in data:
            raise ChannelFileError(f'missing required key "{key}"')
    n = data["n"]
    if not isinstance(n, list) or len(n) != 3:
        raise ChannelFileError('"n" must be a list of exactly 3 numbers')
    n = [_require_number(v, f'"n"[{i}]') for i, v in enumerate(n)]
    m_rows = data["M"]
    if not isinstance(m_rows, list) or len(m_rows) != 3:
        raise ChannelFileError('"M" must be a list of exactly 3 rows')
    m = []
    for i, row in enumerate(m_rows):
        if not isinstance(row, list) or len(row) != 3:
            raise ChannelFileError(f'"M"[{i}] must be a list of exactly 3 numbers')
        m.append([_require_number(v, f'"M"[{i}][{j}]') for j, v in enumerate(row)])
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict) or set(metadata) - {"name"}:
        raise ChannelFileError('"metadata" may only carry a "name" string')
    if "name" in metadata and not isinstance(metadata["name"], str):
        raise ChannelFileError('"metadata"."name" must be a string')
    return QubitChannelAffine(np.array(n), np.array(m))


def parse_channel_file(path: str) -> QubitChannelAffine:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ChannelFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # malformed, not UTF-8, nested too deeply or an integer too long
        raise ChannelFileError(f"invalid JSON in {path}: {exc}") from exc
    return parse_channel_dict(data)


def channel_from_preset(name: str) -> QubitChannelAffine:
    if name == "identity":
        return identity_channel()
    if name == "seb-example":
        return seb_example_channel()
    if name.startswith("depolarizing:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ChannelFileError(f"bad depolarizing parameter in {name!r}") from exc
        return depolarizing_channel(p)
    raise ChannelFileError(
        f"unknown preset {name!r}; expected identity, seb-example or depolarizing:<p>"
    )


def _resolve_channel(args) -> QubitChannelAffine:
    if args.channel is not None:
        return parse_channel_file(args.channel)
    return channel_from_preset(args.preset)


def _channel_dict(phi: QubitChannelAffine) -> dict:
    return {"n": phi.n.tolist(), "M": phi.M.tolist()}


def _write(text: str, path: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


def _emit(payload: dict, path: str | None) -> int:
    text = json.dumps(payload, indent=2)
    if path is None:
        print(text)
        return EXIT_OK
    return _write(text + "\n", path)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    phi = _resolve_channel(args)
    try:
        result = analyze(phi)
    except NotCP as exc:
        # a non-CP channel is still reported on stdout, with its own exit code
        payload = {
            "channel": _channel_dict(phi),
            "cptp": {"is_cp": False, "min_choi_eig": exc.min_eig},
            "error": "channel is not completely positive",
        }
        print(json.dumps(payload, indent=2))
        return EXIT_NOT_CP

    verdict, canon = result.verdict, result.canonical
    closed_form = None
    if result.closed_form_method is not None:
        closed_form = {
            "method": result.closed_form_method.value,
            "is_eb": result.closed_form_is_eb,
            "agrees_with_numeric": result.closed_form_is_eb == verdict.is_eb,
        }
    payload = {
        "channel": _channel_dict(phi),
        "cptp": {"is_cp": True, "min_choi_eig": verdict.choi_min_eig},
        "canonical": {"lambda": canon.lam.tolist(), "n": canon.n.tolist()},
        "verdict": {
            "is_eb": verdict.is_eb,
            "margin": verdict.margin,
            "choi_min_eig": verdict.choi_min_eig,
            "method": verdict.method.value,
        },
        "seb_class": result.seb_class.value,
        "closed_form": closed_form,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# markov
# ---------------------------------------------------------------------------


def _build_family(args) -> markov.DynamicalFamily:
    # every family parameter has the flag of the same name
    cls = markov.FAMILIES[args.family]
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def cmd_markov(args) -> int:
    family = _build_family(args)
    result = markov.scan(family, args.t_min, args.t_max, args.steps)
    if args.format == "csv":
        text = markov.scan_to_csv(result)
    else:
        text = json.dumps(markov.scan_to_dict(result), indent=2) + "\n"
    code = _write(text, args.output)
    if code != EXIT_OK:
        return code
    onset = markov.eb_onset(family, args.t_max)
    print(f"onset: {'none' if onset is None else format(onset, '.17g')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# amend
# ---------------------------------------------------------------------------


def _unitary_dict(u: amend.UnitarySample) -> dict:
    return {"axis": list(u.axis), "angle": u.angle}


def amendment_report_dict(report: amend.AmendmentReport) -> dict:
    return {
        "base_channel": _channel_dict(report.base_channel),
        "n_layers": report.n_layers,
        "trials": report.trials,
        "seed": report.seed,
        "prng": report.prng,
        "base_is_eb": report.base_is_eb,
        "base_margin": report.base_margin,
        "best_margin": report.best_margin,
        "best_pt_min_eig": report.best_pt_min_eig,
        "best_trial": report.best_trial,
        "best_unitaries": [_unitary_dict(u) for u in report.best_unitaries],
        "amended": report.amended,
    }


def cmd_amend_local(args) -> int:
    report = amend.local_amendment_search(
        _resolve_channel(args), n_layers=args.layers, trials=args.trials, seed=args.seed
    )
    return _emit(amendment_report_dict(report), args.output)


def _matrix_json(m: np.ndarray) -> list:
    return [[[v.real, v.imag] for v in row] for row in m.tolist()]


def cmd_amend_global(args) -> int:
    report = amend.run_builtin_global_example()
    attempts = []
    for attempt in report.attempts:
        entry: dict = {"ordering": attempt.ordering}
        if attempt.error is not None:
            entry["error"] = attempt.error
        if attempt.result is not None:
            result = attempt.result
            entry["output_state"] = _matrix_json(result.output_state)
            entry["pt_min_eig"] = result.pt_min_eig
            entry["entangled"] = result.entangled
            entry["max_deviation_from_reference"] = attempt.max_deviation
        attempts.append(entry)
    payload = {
        "reference_state": _matrix_json(amend.REFERENCE_AMENDED_STATE),
        "attempts": attempts,
        "reproduced_ordering": report.reproduced,
    }
    print(json.dumps(payload, indent=2))
    if report.reproduced is None:
        print(
            "error: no basis ordering reproduced the bundled reference output",
            file=sys.stderr,
        )
        return EXIT_NOT_CP
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_channel_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--channel", help="path to a channel JSON file")
    group.add_argument(
        "--preset",
        help="built-in channel: identity, seb-example or depolarizing:<p>",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebchan",
        description="Entanglement-breaking analysis of qubit channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a single channel")
    _add_channel_source(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_markov = sub.add_parser("markov", help="time scan of a dynamical family")
    p_markov.add_argument("--family", required=True, choices=list(markov.FAMILIES))
    p_markov.add_argument("--T", type=float, default=1.0)
    p_markov.add_argument("--T1", type=float, default=1.0)
    p_markov.add_argument("--T2", type=float, default=1.0)
    p_markov.add_argument("--w", type=float, default=0.0)
    p_markov.add_argument("--omega", type=float, default=0.0)
    p_markov.add_argument("--t-min", type=float, default=0.0)
    p_markov.add_argument("--t-max", type=float, required=True)
    p_markov.add_argument("--steps", type=int, default=301)
    p_markov.add_argument("--output", required=True)
    p_markov.add_argument("--format", choices=["csv", "json"], default="csv")
    p_markov.set_defaults(func=cmd_markov)

    p_amend = sub.add_parser("amend", help="amendment experiments")
    amend_sub = p_amend.add_subparsers(dest="amend_command", required=True)

    p_local = amend_sub.add_parser("local", help="randomized local-amendment search")
    _add_channel_source(p_local)
    p_local.add_argument("--layers", type=int, default=2)
    p_local.add_argument("--trials", type=int, default=1000)
    p_local.add_argument("--seed", type=int, required=True)
    p_local.add_argument("--output", default=None)
    p_local.set_defaults(func=cmd_amend_local)

    p_global = amend_sub.add_parser(
        "global-example", help="run the bundled global-amendment construction"
    )
    p_global.set_defaults(func=cmd_amend_global)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with code 2 on bad flags; map to the parse-error code
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here rather than at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: what is still buffered, and the
        # flush at exit, go to devnull instead of raising again
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()  # none behind a StringIO: nothing to flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_UNWRITABLE
    except EBChannelsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CP if isinstance(exc, NotCP) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
