"""Batch command-line frontend.

Twelve subcommands: compute a single sum (kloosterman, fsum, charsum,
bessel, plancherel, zeta, kuznetsov-geom), run a ratio experiment
(quadform, hybrid, eisenstein), check the prime-power case formulas
(lemma-check), or run the identity suites (verify).

Every run resolves exactly one subcommand and emits one report to
stdout (and to --out when given, byte for byte the same).  A subcommand
takes only the settings it reads; its report header echoes the library
version and their resolved values, with no timestamps, so a report is a
deterministic function of argv.  Exit status: 0 on success, 1 when a
verification fails, 2 on usage errors (argparse's convention), such as
a flag the subcommand does not take.

Gaussian integers on the command line are literals like 2+i, 1-3i, 4,
-i (no spaces).  General complex values accept the same with either i
or j.  A literal that starts with '-' may follow its flag as the next
word (--m -i) or after '=' (--m=-i).  Numbers must be finite.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .archimedean import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    TestFunction,
    bessel_integral_deriv,
    bessel_integral_spectral,
    bessel_integral_weighted,
    plancherel_integral,
    plancherel_integral_quadrature,
)
from .characters import char_group
from .expsums import f_sum, kloosterman
from .gauss import DomainError, GaussianInt
from .sievelab import (
    ExperimentReport,
    eisenstein_experiment,
    hybrid_experiment,
    quad_form_experiment,
)
from .spectral import hecke_zeta, kuznetsov_geometric
from .verify import DEFAULT_VERIFY_NORM, SUITES, lemma_pass, verify_all

__all__ = ["main", "run", "verify_all"]


# ---------------------------------------------------------------------------
# Report assembly (single writer, deterministic)
# ---------------------------------------------------------------------------


def _fmt_value(v: object, text_mode: bool) -> str:
    """Stable rendering; text mode uses 6 decimals for head-line numbers."""
    if isinstance(v, float):
        if text_mode and 1e-4 <= abs(v) < 1e7:
            return f"{v:.6f}"
        return repr(v)
    if isinstance(v, complex):
        return f"{_fmt_value(v.real, text_mode)}{'+' if v.imag >= 0 else '-'}{_fmt_value(abs(v.imag), text_mode)}j"
    return str(v)


class Report(NamedTuple):
    command: str
    config: dict
    columns: tuple[str, ...]
    rows: list[tuple]
    notes: list[str]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {
                "tool": "gisieve",
                "version": __version__,
                "command": self.command,
                "config": {k: _fmt_value(v, False) for k, v in self.config.items()},
                "columns": list(self.columns),
                "rows": [[_fmt_value(v, False) for v in row] for row in self.rows],
                "notes": self.notes,
            }
            return json.dumps(payload, indent=2) + "\n"
        lines = [f"# gisieve {__version__}", f"# command = {self.command}"]
        for k, v in self.config.items():
            lines.append(f"# {k} = {_fmt_value(v, False)}")
        if fmt == "csv":
            lines.append(",".join(self.columns))
            lines.extend(
                ",".join(_fmt_value(v, False) for v in row) for row in self.rows
            )
        else:
            header = tuple(self.columns)
            body = [tuple(_fmt_value(v, True) for v in row) for row in self.rows]
            widths = [
                max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
                for i in range(len(header))
            ]
            lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
            for r in body:
                lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines) + "\n"


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(s)
    except ValueError as exc:
        raise DomainError(f"not a complex literal: {text!r}") from exc
    if not cmath.isfinite(value):
        raise DomainError(f"not a finite complex number: {text!r}")
    return value


# ---------------------------------------------------------------------------
# Subcommands: each computes (config extras, columns, rows, notes, exit status)
# ---------------------------------------------------------------------------

Outcome = tuple[dict, tuple[str, ...], list[tuple], list[str], int]


def _kloosterman(args) -> Outcome:
    m, n, c = (GaussianInt.parse(s) for s in (args.m, args.n, args.c))
    v = kloosterman(m, n, c)
    columns = ("m", "n", "c", "value_re", "value_im", "abs")
    return dict(m=m, n=n, c=c), columns, [(m, n, c, v.real, v.imag, abs(v))], [], 0


def _fsum(args) -> Outcome:
    w, c = GaussianInt.parse(args.w), GaussianInt.parse(args.c)
    v = f_sum(w, c)
    columns = ("w", "c", "value_re", "value_im", "abs")
    return dict(w=w, c=c), columns, [(w, c, v.real, v.imag, abs(v))], [], 0


def _charsum(args) -> Outcome:
    grp = char_group(GaussianInt.parse(args.c))
    picked = range(grp.order)
    if args.exps:  # reduced mod the generator orders
        picked = [grp.index(grp.character([int(x) for x in args.exps.split(",")]).exps)]
    fhat, classes, conductors = grp.fhat_table(), grp.classes(), grp.conductors()
    rows = []
    for i in picked:
        v = complex(fhat[i])
        exps = ":".join(map(str, grp.exponent_vectors[i].tolist()))
        rows.append((exps, classes[i], str(conductors[i].gen), v.real, v.imag, abs(v)))
    columns = ("exps", "class", "conductor", "fhat_re", "fhat_im", "abs")
    return dict(c=grp.element, characters=len(rows)), columns, rows, [], 0


def _lemma_check(args) -> Outcome:
    result, checks = lemma_pass(args.max_norm, args.tolerance)
    rows = [
        (*head, rel + _fmt_value(value, True), "ok" if ok else "MISMATCH")
        for *head, rel, value, ok in checks
    ]
    notes = [f"checked {result.checked} characters, {len(result.failures)} mismatches"]
    notes += [f"mismatch: {f}" for f in result.failures]
    extras = dict(max_norm=args.max_norm, characters=result.checked)
    columns = ("modulus", "exps", "class", "abs_fhat", "case_formula", "status")
    return extras, columns, rows, notes, 0 if result.passed else 1


def _bessel(args) -> Outcome:
    z = _parse_complex(args.z)
    tf = TestFunction(args.T, args.P)
    if args.compare:
        reps = (bessel_integral_spectral, bessel_integral_deriv, bessel_integral_weighted)
        vals = [rep(z, tf, args.quadrature) for rep in reps]
        dev = max(abs(a - b) for a in vals for b in vals)
        rows = [*zip(("spectral", "derivative", "weighted"), vals), ("max_deviation", dev)]
    else:
        rows = [("weighted", bessel_integral_weighted(z, tf, args.quadrature))]
    return dict(z=z, T=args.T, P=args.P), ("representation", "value"), rows, [], 0


def _plancherel(args) -> Outcome:
    tf, quad = TestFunction(args.T, args.P), args.quadrature
    closed, by_quadrature = plancherel_integral(tf), plancherel_integral_quadrature(tf, quad)
    rows = [
        ("closed_form", closed),
        ("quadrature", by_quadrature),
        ("abs_difference", abs(closed - by_quadrature)),
    ]
    return dict(T=args.T, P=args.P), ("method", "value"), rows, [], 0


def _zeta(args) -> Outcome:
    s = _parse_complex(args.s)
    v, tail = hecke_zeta(s, args.p, args.cutoff, smoothed=args.smoothed)
    extras = dict(s=s, p=args.p, cutoff=args.cutoff, smoothed=args.smoothed)
    columns = ("s", "p", "value_re", "value_im", "tail_estimate")
    return extras, columns, [(s, args.p, v.real, v.imag, tail)], [], 0


def _kuznetsov_geom(args) -> Outcome:
    m, n, tf = GaussianInt.parse(args.m), GaussianInt.parse(args.n), TestFunction(args.T, args.P)
    res = kuznetsov_geometric(m, n, tf, args.c_norm_max, args.quadrature)
    rows = [
        ("diagonal", res.diagonal),
        ("kloosterman_re", res.kloosterman_term.real),
        ("kloosterman_im", res.kloosterman_term.imag),
        ("tail_bound", res.tail_bound),
    ]
    extras = dict(m=m, n=n, T=args.T, P=args.P, c_norm_max=args.c_norm_max)
    return extras, ("quantity", "value"), rows, [], 0


def _experiment(rep: ExperimentReport, **extras) -> Outcome:
    """The one-row report of a ratio experiment."""
    row = (rep.experiment, rep.trials, rep.lhs, rep.rhs_bound, rep.ratio)
    return extras, ("experiment", "trials", "lhs", "rhs", "ratio"), [row], [], 0


def _eisenstein(args) -> Outcome:
    rep = eisenstein_experiment(args.T, args.P, args.N, args.trials, args.seed)
    return _experiment(rep, T=args.T, P=args.P, N=args.N, trials=args.trials)


def _quadform(args) -> Outcome:
    d, theta = GaussianInt.parse(args.d), _parse_complex(args.theta)
    rep = quad_form_experiment(d, theta, args.gamma, args.C, args.M, args.N, args.trials, args.seed)
    return _experiment(
        rep, d=d, theta=theta, gamma=args.gamma, C=args.C, M=args.M, N=args.N, trials=args.trials
    )


def _hybrid(args) -> Outcome:
    rep = hybrid_experiment(args.C, args.T, args.N, args.trials, args.seed)
    return _experiment(rep, C=args.C, T=args.T, N=args.N, trials=args.trials)


def _verify(args) -> Outcome:
    names = args.suites or ["all"]
    results = verify_all(args.max_norm, args.tolerance, names)
    rows = [
        (r.name, r.checked, r.worst, len(r.failures), "pass" if r.passed else "FAIL")
        for r in results
    ]
    notes = [f"{r.name}: {f}" for r in results for f in r.failures]
    extras = dict(max_norm=args.max_norm, suites=",".join(names))
    columns = ("suite", "checked", "worst_residual", "failures", "status")
    return extras, columns, rows, notes, 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Command table
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    name: str
    help: str
    args: tuple[tuple[str, dict], ...]
    compute: Callable[[argparse.Namespace], Outcome]


def _required(*flags: str) -> tuple[tuple[str, dict], ...]:
    return tuple((flag, {"required": True}) for flag in flags)


def _number(flag: str, default: float) -> tuple[str, dict]:
    return flag, {"type": _finite_float, "default": default}


def _integer(flag: str, default: int) -> tuple[str, dict]:
    return flag, {"type": int, "default": default}


_SEED = ("--seed", {"type": int, "default": 0, "help": "base seed for randomized trials"})
_TOLERANCE = ("--tolerance", {"type": _finite_float, "default": 1e-9, "help": "residual tolerance"})
_QUADRATURE = ("--quadrature", {"metavar": "FILE", "help": "quadrature config file"})
#: The test function's T and P, and the quadrature that integrates it.
_T_P_QUAD = (_number("--T", 1.0), _number("--P", 1.0), _QUADRATURE)


def _trials(default: int) -> tuple[tuple[str, dict], ...]:
    """--trials and the base --seed of the randomized trials."""
    return _integer("--trials", default), _SEED


COMMANDS = (
    Command("kloosterman", "S(m, n; c)", _required("--m", "--n", "--c"), _kloosterman),
    Command("fsum", "F(w; c) = S(w^2, 1; c) e[2w/c]", _required("--w", "--c"), _fsum),
    Command(
        "charsum",
        "character transforms fhat(chi) mod c",
        (
            *_required("--c"),
            ("--exps", {"default": None, "help": "restrict to one exponent vector, e.g. 1,0,2"}),
        ),
        _charsum,
    ),
    Command(
        "lemma-check",
        "|fhat| against the prime-power case formulas (exit 1 on mismatch)",
        (_number("--max-norm", 400.0), _TOLERANCE),
        _lemma_check,
    ),
    Command(
        "bessel",
        "Bessel integral of the test function",
        (
            *_required("--z"),
            *_T_P_QUAD,
            ("--compare", {"action": "store_true", "help": "all three representations"}),
        ),
        _bessel,
    ),
    Command("plancherel", "Plancherel integral, closed vs quadrature", _T_P_QUAD, _plancherel),
    Command(
        "zeta",
        "Hecke zeta value zeta(s, p)",
        (
            *_required("--s"),
            _integer("--p", 0),
            _number("--cutoff", 1e6),
            ("--smoothed", {"action": "store_true"}),
        ),
        _zeta,
    ),
    Command(
        "eisenstein",
        "Eisenstein sieve ratio experiment",
        (_number("--T", 2.0), _number("--P", 1.0), _number("--N", 30.0), *_trials(80)),
        _eisenstein,
    ),
    Command(
        "kuznetsov-geom",
        "geometric side of the trace identity",
        (*_required("--m", "--n"), *_T_P_QUAD, _integer("--c-norm-max", 100)),
        _kuznetsov_geom,
    ),
    Command(
        "quadform",
        "quadratic-form ratio experiment",
        (
            ("--d", {"default": "1"}),
            ("--theta", {"default": "1"}),
            _number("--gamma", 0.0),
            _number("--C", 5.0),
            _number("--M", 5.0),
            _number("--N", 5.0),
            *_trials(20),
        ),
        _quadform,
    ),
    Command(
        "hybrid",
        "hybrid large-sieve ratio experiment",
        (_number("--C", 4.0), _number("--T", 2.0), _number("--N", 20.0), *_trials(50)),
        _hybrid,
    ),
    Command(
        "verify",
        "identity suites (exit 1 on any failure)",
        (
            ("suites", {"nargs": "*", "help": f"subset of {', '.join(SUITES)} or charsum/all"}),
            _number("--max-norm", DEFAULT_VERIFY_NORM),
            _TOLERANCE,
        ),
        _verify,
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gisieve",
        description="Exponential sums, character transforms, and Bessel-integral "
        "experiments over the Gaussian integers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="also write the report to this path")
    common.add_argument(
        "--format", choices=("csv", "json", "text"), default="text", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, parents=[common], help=cmd.help)
        for flag, options in cmd.args:
            p.add_argument(flag, **options)
        p.set_defaults(spec=cmd, usage_error=p.error)
    return parser


def _execute(cmd: Command, args: argparse.Namespace) -> int:
    """Compute one subcommand, emit its report, return its exit status."""
    echo = {k: getattr(args, k) for k in ("seed", "tolerance", "quadrature") if k in args}
    if "quadrature" in echo:  # read the file once, before computing
        path = echo.pop("quadrature")
        quad = DEFAULT_QUADRATURE if path is None else QuadratureConfig.from_file(path)
        args.quadrature = quad
        echo.update((f"quadrature.{k}", v) for k, v in dataclasses.asdict(quad).items())
    extras, columns, rows, notes, status = cmd.compute(args)
    config = {**extras, **echo}
    text = Report(cmd.name, config, columns, rows, notes).render(args.format)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return status


def _glue_literal_values(argv: list[str]) -> list[str]:
    """'--m -i' -> '--m=-i' for the subcommand's flags that take literals.

    argparse reads a token that starts with '-' and is not a plain negative
    number as a flag, so -i, -1+i or -1,4 would leave their flag without a
    value.  A flag takes literals when it has no type and no action.
    """
    first = next((tok for tok in argv if not tok.startswith("-")), None)
    cmd = next((c for c in COMMANDS if c.name == first), None)
    if cmd is None:
        return argv
    literal = {
        flag for flag, options in cmd.args
        if flag.startswith("--") and not {"type", "action"} & options.keys()
    }
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in literal and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute one subcommand, return the exit status."""
    parser = _build_parser()
    argv = _glue_literal_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # named in the subcommand's own usage, not the root one
            args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return _execute(args.spec, args)
    except (DomainError, OSError, ValueError, KeyError) as exc:
        print(f"gisieve {args.command}: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"gisieve {args.command}: numeric overflow: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
