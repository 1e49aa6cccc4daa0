"""Command-line interface.

Subcommands: chi, table, reduce, core, sample, verify, stats.  Exit codes:
0 on success (and zero violations), 1 when a verifier finds violations,
2 on usage errors, on a verifier run that checks nothing and on an internal
error (one `charcore: internal error: <Type>: <message>` line on stderr).  A
reader that closes stdout early ends the run quietly with 0.  `--out` is
written to a temporary file that replaces the target only when the command
completes.
Output is byte-identical for identical arguments; `--threads` is accepted
but changes neither the work nor the output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import mpmath

from . import characters, divisibility, stats
from .abacus import tcore
from .divisibility import CombineConfig
from .errors import FormatError, RangeError
from .partitions import (
    format_partition,
    parse_partition,
    sample_seed,
    sample_uniform,
)


def _check_threads(args) -> None:
    """Refuse a --threads below 1; any other value changes nothing."""
    if args.threads is not None and args.threads < 1:
        raise FormatError(f"--threads must be at least 1, got {args.threads}")


def _dump_json(obj, out) -> None:
    out.write(json.dumps(obj, separators=(",", ":")))
    out.write("\n")


def _write_record(d: dict, fmt: str, out) -> None:
    """One record: a one-row CSV (the keys as the header, then the values) or JSON."""
    if fmt == "csv":
        out.write(",".join(d) + "\n")
        out.write(",".join(str(v) for v in d.values()) + "\n")
    else:
        _dump_json(d, out)


def _report_out(report, fmt: str, out) -> int:
    d = asdict(report)
    if fmt == "text":
        out.write(
            f"{d['lemma']}: checked={d['checked']} skipped={d['skipped']} "
            f"violated={d['violated']}\n"
        )
        if d["witness"]:
            out.write(f"witness: {json.dumps(d['witness'], separators=(',', ':'))}\n")
    else:
        csv_keys = ("lemma", "checked", "skipped", "violated")
        _write_record({k: d[k] for k in csv_keys} if fmt == "csv" else d, fmt, out)
    return 0 if report.ok else 1


def _add_partition_arg(parser, flag: str, dest: str):
    parser.add_argument(
        flag, dest=dest, required=True, help="partition, e.g. [6,5,3,1,1,1]"
    )


# lemma -> (the options it reads besides --n and --hooks, the verifier call);
# a call gets the parsed arguments and the CombineConfig of --p/--r (or None)
_VERIFIERS = {
    "combine": (
        ("p", "r"), lambda a, c: divisibility.verify_combine_congruence(a.n, c)
    ),
    "lemma61": (("m",), lambda a, c: divisibility.verify_lemma61(a.n, a.m, a.hooks)),
    "lemma62": (("p", "r", "m"), lambda a, c: divisibility.verify_lemma62(a.n, a.m, c)),
    "factorization": (
        ("m",), lambda a, c: divisibility.verify_factorization(a.n, a.m, a.hooks)
    ),
    "prop-pm1": (
        ("p", "r", "m"), lambda a, c: divisibility.verify_prop_pm1_sweep(a.n, a.m, c)
    ),
    "theorem3": (("p", "r"), lambda a, c: divisibility.verify_theorem3(a.n, c)),
    "lemma81": (("p", "r"), lambda a, c: divisibility.verify_lemma81(a.n, c)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charcore",
        description="Exact symmetric-group character values and divisibility checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="one character value")
    _add_partition_arg(p_chi, "--lambda", "lam")
    _add_partition_arg(p_chi, "--mu", "mu")

    p_table = sub.add_parser("table", help="full character table")
    p_table.add_argument("n", type=int)
    p_table.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p_table.add_argument("--out", default=None)
    p_table.add_argument("--threads", type=int, help="at least 1; changes nothing")

    p_reduce = sub.add_parser("reduce", help="combine equal parts to the fixpoint")
    _add_partition_arg(p_reduce, "--mu", "mu")
    p_reduce.add_argument("--p", type=int, required=True)
    p_reduce.add_argument("--r", type=int, required=True)

    p_core = sub.add_parser("core", help="t-core of a partition")
    _add_partition_arg(p_core, "--lambda", "lam")
    p_core.add_argument("--t", type=int, required=True)
    p_core.add_argument("--format", choices=("json", "text"), default="text")

    p_sample = sub.add_parser("sample", help="uniform random partitions")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--count", type=int, default=1)

    p_verify = sub.add_parser("verify", help="exhaustive lemma checks")
    p_verify.add_argument(
        "lemma",
        choices=tuple(_VERIFIERS),
    )
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--r", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--hooks", type=int, default=3, help="max removals per row")
    p_verify.add_argument("--format", choices=("csv", "json", "text"), default="json")

    p_stats = sub.add_parser("stats", help="densities, counts, and bounds")
    st = p_stats.add_subparsers(dest="stat", required=True)

    s_density = st.add_parser("density")
    s_density.add_argument("--n", type=int, required=True)
    s_density.add_argument("--mod", type=int, required=True)
    s_density.add_argument("--format", choices=("csv", "json"), default="json")
    s_density.add_argument("--out", default=None)
    s_density.add_argument("--threads", type=int, help="at least 1; changes nothing")

    s_tcores = st.add_parser("tcores")
    s_tcores.add_argument("--n", type=int, required=True)
    s_tcores.add_argument("--t", type=int, required=True)
    s_tcores.add_argument("--format", choices=("csv", "json"), default="json")

    s_prop4 = st.add_parser("prop4")
    s_prop4.add_argument("--n", type=int, required=True)
    s_prop4.add_argument("--p", type=int, required=True)
    s_prop4.add_argument("--r", type=int, required=True)
    s_prop4.add_argument("--samples", type=int, required=True)
    s_prop4.add_argument("--seed", type=int, required=True)

    s_fp = st.add_parser("fp")
    s_fp.add_argument("--p", type=int, required=True)
    s_fp.add_argument("--t", type=float, required=True)
    s_fp.add_argument("--dps", type=int, default=30)

    s_ppower = st.add_parser("ppower")
    s_ppower.add_argument("--p", type=int, required=True)
    s_ppower.add_argument("--k", type=int, required=True)
    s_ppower.add_argument("--r", type=int, default=None)
    s_ppower.add_argument("--s", type=int, default=None)

    s_pdiff = st.add_parser("pdiff")
    s_pdiff.add_argument("--p", type=int, required=True)
    s_pdiff.add_argument("--r", type=int, required=True)
    s_pdiff.add_argument("--s", type=int, required=True)
    s_pdiff.add_argument("--k", type=int, required=True)

    s_delta = st.add_parser("delta")
    s_delta.add_argument("--n", type=int, required=True)
    s_delta.add_argument("--p", type=int, required=True)
    s_delta.add_argument("--r", type=int, required=True)
    s_delta.add_argument("--L", type=float, required=True)
    s_delta.add_argument("--tail", type=float, default=1e-6)

    return parser


def _cmd_chi(args, out) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    out.write(f"{characters.chi(lam, mu)}\n")
    return 0


def _cmd_table(args, out) -> int:
    _check_threads(args)
    table = characters.build_table(args.n)
    if args.format == "csv":
        characters.write_table_csv(table, out)
    elif args.format == "json":
        characters.write_table_json(table, out)
        out.write("\n")
    else:
        fmt = ": " + " ".join(["%d"] * len(table.partitions)) + "\n"
        for lam, row in zip(table.partitions, table.rows):
            out.write(format_partition(lam) + fmt % row)
    return 0


def _cmd_reduce(args, out) -> int:
    cfg = CombineConfig(args.p, args.r)
    mu = parse_partition(args.mu)
    out.write(format_partition(divisibility.reduce_partition(mu, cfg).output) + "\n")
    return 0


def _cmd_core(args, out) -> int:
    lam = parse_partition(args.lam)
    core = tcore(lam, args.t)
    if args.format == "json":
        _dump_json(
            {
                "lambda": format_partition(lam),
                "t": args.t,
                "core": format_partition(core),
                "is_core": core == lam,
            },
            out,
        )
    else:
        out.write(format_partition(core) + "\n")
    return 0


def _cmd_sample(args, out) -> int:
    if args.count < 0:
        raise FormatError(f"--count must be at least 0, got {args.count}")
    for i in range(args.count):
        seed = sample_seed(args.seed, i)
        out.write(format_partition(sample_uniform(args.n, seed)) + "\n")
    return 0


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise FormatError(f"--{name} is required for this subcommand")


def _cmd_verify(args, out) -> int:
    options, call = _VERIFIERS[args.lemma]
    cfg = None
    if "p" in options:
        _require(args, "p", "r")
        cfg = CombineConfig(args.p, args.r)
    if "m" in options:
        _require(args, "m")
        if args.m < 1:
            raise FormatError(f"--m must be at least 1, got {args.m}")
    report = call(args, cfg)
    if report.checked == 0 and report.violated == 0:
        raise RangeError(
            f"{args.lemma}: nothing to check at these parameters (checked=0 "
            f"skipped={report.skipped} violated=0)"
        )
    return _report_out(report, args.format, out)


def _cmd_stats(args, out) -> int:
    if args.stat == "density":
        _check_threads(args)
        rep = stats.density_report(args.n, args.mod)
        _write_record(asdict(rep), args.format, out)
        return 0
    if args.stat == "tcores":
        count = stats.count_non_tcores(args.n, args.t)
        d = {
            "n": args.n,
            "t": args.t,
            "non_tcores": count,
            "bound": stats.non_tcore_bound(args.n, args.t),
        }
        _write_record(d, args.format, out)
        return 0
    if args.stat == "prop4":
        cfg = CombineConfig(args.p, args.r)
        rep = stats.prop4_empirical(args.n, cfg, args.samples, args.seed)
        _dump_json(asdict(rep), out)
        return 0
    if args.stat == "fp":
        if args.dps < 1:
            raise FormatError(f"--dps must be at least 1, got {args.dps}")
        value = stats.generating_function_fp(args.p, args.t, dps=args.dps)
        _dump_json(
            {
                "p": args.p,
                "t": args.t,
                "dps": args.dps,
                "value": mpmath.nstr(value, args.dps),
            },
            out,
        )
        return 0
    if args.stat == "ppower":
        if args.r is not None or args.s is not None:
            _require(args, "r", "s")
            value = stats.ppower_count_restricted(args.p, args.r, args.s, args.k)
        else:
            value = stats.ppower_count(args.p, args.k)
        _dump_json({"p": args.p, "k": args.k, "count": str(value)}, out)
        return 0
    if args.stat == "pdiff":
        check = stats.ppower_difference_check(args.p, args.r, args.s, args.k)
        _dump_json(asdict(check), out)
        return 0 if check.satisfied else 1
    cfg = CombineConfig(args.p, args.r)  # delta: the one stats name left
    check = stats.lemma91_delta(args.n, cfg, args.L, tail=args.tail)
    _dump_json(asdict(check), out)
    return 0


_COMMANDS = {
    "chi": _cmd_chi,
    "table": _cmd_table,
    "reduce": _cmd_reduce,
    "core": _cmd_core,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
}


def _run_to_file(command, args, target: str) -> int:
    """Run into a temporary file beside `target`; replace `target` on success."""
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x") as out:
            rc = command(args, out)
        os.replace(tmp, target)
        return rc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        target = getattr(args, "out", None)
        if target:
            return _run_to_file(command, args, target)
        rc = command(args, sys.stdout)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:  # every charcore error is a ValueError
        print(f"charcore: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in charcore, not in the input
        name = type(exc).__name__
        print(f"charcore: internal error: {name}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
