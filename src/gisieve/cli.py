"""Batch command-line frontend.

Twelve subcommands: compute a single sum (kloosterman, fsum, charsum,
bessel, plancherel, zeta, kuznetsov-geom), run a ratio experiment
(quadform, hybrid, eisenstein), check the prime-power case formulas
(lemma-check), or run the identity suites (verify).

Every run resolves exactly one subcommand and emits one report to
stdout (and to --out when given, byte for byte the same).  Reports are
deterministic functions of (argv, seed): the header echoes the library
version, the resolved parameters, and the quadrature configuration, and
contains no timestamps.  Exit status: 0 on success, 1 when a
verification fails, 2 on usage errors (argparse's convention).

Gaussian integers on the command line are literals like 2+i, 1-3i, 4,
-i (no spaces).  General complex values accept the same with either i
or j.  SIEVE_LAB_THREADS caps experiment parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
from .characters import char_group, f_sum_hat, local_prediction, twisted_mult_residual
from .expsums import (
    f_sum,
    f_sum_values,
    kloosterman,
    selberg_residual,
    shift_vanishing_residual,
    weil_ratio,
)
from .gauss import (
    DomainError,
    GaussianInt,
    ideals_up_to_norm,
    is_coprime,
    prime_power_ideals_up_to_norm,
)
from .sievelab import (
    eisenstein_experiment,
    hybrid_experiment,
    quad_form_experiment,
)
from .spectral import hecke_zeta, kuznetsov_geometric

__all__ = ["main", "run", "verify_all", "SUITES"]


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
        text = fmt == "text"
        if fmt == "csv":
            lines.append(",".join(self.columns))
            lines.extend(
                ",".join(_fmt_value(v, False) for v in row) for row in self.rows
            )
        else:
            widths = None
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


def _emit(report: Report, args: argparse.Namespace) -> None:
    text = report.render(args.format)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)


def _base_config(args: argparse.Namespace, cfg: QuadratureConfig, **extra) -> dict:
    resolved = dict(extra)
    resolved["seed"] = args.seed
    resolved["tolerance"] = args.tolerance
    for field in dataclasses.fields(cfg):
        resolved[f"quadrature.{field.name}"] = getattr(cfg, field.name)
    return resolved


def _parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(s)
    except ValueError as exc:
        raise DomainError(f"not a complex literal: {text!r}") from exc


def _quadrature(args: argparse.Namespace) -> QuadratureConfig:
    if args.quadrature:
        return QuadratureConfig.from_file(args.quadrature)
    return DEFAULT_QUADRATURE


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


class SuiteResult(NamedTuple):
    name: str
    checked: int
    worst: float
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _suite_mellin(max_norm: float, tol: float) -> SuiteResult:
    worst, checked, fails = 0.0, 0, []
    for ideal in ideals_up_to_norm(max_norm):
        grp = char_group(ideal.gen)
        values = f_sum_values(grp.element)
        recon = grp.inverse_transform(grp.fhat_table())
        res = float(np.max(np.abs(recon - values)))
        worst = max(worst, res)
        checked += 1
        if res > tol:
            fails.append(f"modulus {grp.element} residual {res:.3e}")
    return SuiteResult("mellin", checked, worst, fails)


def _suite_parseval(max_norm: float, tol: float) -> SuiteResult:
    worst, checked, fails = 0.0, 0, []
    for ideal in ideals_up_to_norm(max_norm):
        grp = char_group(ideal.gen)
        values = f_sum_values(grp.element)
        fhat = grp.fhat_table()
        res = abs(
            float(np.sum(np.abs(fhat) ** 2))
            - float(np.sum(np.abs(values) ** 2)) / grp.order
        )
        worst = max(worst, res)
        checked += 1
        if res > tol:
            fails.append(f"modulus {grp.element} residual {res:.3e}")
    return SuiteResult("parseval", checked, worst, fails)


def _suite_twisted(max_norm: float, tol: float) -> SuiteResult:
    worst, checked, fails = 0.0, 0, []
    moduli = [ideal.gen for ideal in ideals_up_to_norm(math.sqrt(max_norm) * 4)]
    for i, c1 in enumerate(moduli):
        for c2 in moduli[i + 1 :]:
            if c1.norm * c2.norm > max_norm or not is_coprime(c1, c2):
                continue
            for chi1 in char_group(c1).characters():
                for chi2 in char_group(c2).characters():
                    res = abs(twisted_mult_residual(chi1, chi2))
                    worst = max(worst, res)
                    checked += 1
                    if res > tol:
                        fails.append(
                            f"moduli {c1},{c2} exps {chi1.exps},{chi2.exps} residual {res:.3e}"
                        )
    return SuiteResult("twisted", checked, worst, fails)


def _lemma_pass(max_norm: float, tol: float) -> tuple[SuiteResult, list[tuple]]:
    """|fhat| against the case formulas: the suite verdict and the
    lemma-check report row of every character, in one pass."""
    worst, fails, rows = 0.0, [], []
    for ideal in prime_power_ideals_up_to_norm(max_norm):
        grp = char_group(ideal.gen)
        for chi, fhat in zip(grp.characters(), grp.fhat_table().tolist()):
            pred = local_prediction(chi)
            got = abs(fhat)
            if pred.is_bound:
                res = max(0.0, got - pred.value)
            else:
                res = abs(got - pred.value)
            worst = max(worst, res)
            rel = "<=" if pred.is_bound else "="
            if res > tol:
                fails.append(
                    f"modulus {grp.element} exps {chi.exps}: |fhat| = {got:.6f}, "
                    f"case formula says {rel} {pred.value:.6f}"
                )
            rows.append(
                (
                    str(grp.element),
                    ":".join(map(str, chi.exps)),
                    chi.char_class(),
                    got,
                    rel + _fmt_value(pred.value, True),
                    "ok" if res <= tol else "MISMATCH",
                )
            )
    return SuiteResult("lemma", len(rows), worst, fails), rows


def _suite_lemma(max_norm: float, tol: float) -> SuiteResult:
    return _lemma_pass(max_norm, tol)[0]


def _suite_selberg(max_norm: float, tol: float) -> SuiteResult:
    worst, checked, fails = 0.0, 0, []
    small = [ideal.gen for ideal in ideals_up_to_norm(10)]
    for ideal in ideals_up_to_norm(max_norm):
        c = ideal.gen
        for m in small:
            for n in small:
                res = abs(selberg_residual(m, n, c))
                worst = max(worst, res)
                checked += 1
                if res > tol:
                    fails.append(f"(m,n,c)=({m},{n},{c}) residual {res:.3e}")
    return SuiteResult("selberg", checked, worst, fails)


def _suite_shift(max_norm: float, tol: float) -> SuiteResult:
    worst, checked, fails = 0.0, 0, []
    cap = max_norm * 40.0  # budget for N(c) * N(g)^2 * N(q)
    for c_ideal in ideals_up_to_norm(max_norm):
        c = c_ideal.gen
        for g_ideal in ideals_up_to_norm(math.sqrt(cap / c_ideal.norm)):
            g = g_ideal.gen
            q_cap = cap / (c_ideal.norm * g_ideal.norm**2)
            for q_ideal in ideals_up_to_norm(q_cap):
                res = abs(shift_vanishing_residual(q_ideal.gen * g, c, g))
                worst = max(worst, res)
                checked += 1
                if res > tol:
                    fails.append(
                        f"(w,c,g)=({q_ideal.gen * g},{c},{g}) residual {res:.3e}"
                    )
    return SuiteResult("shift", checked, worst, fails)


def _suite_weil(max_norm: float, tol: float) -> SuiteResult:
    worst, checked, fails = 0.0, 0, []
    small = [ideal.gen for ideal in ideals_up_to_norm(10)]
    for ideal in ideals_up_to_norm(max_norm):
        c = ideal.gen
        for m in small:
            for n in small:
                r = weil_ratio(m, n, c)
                worst = max(worst, r)
                checked += 1
                if r > 2.0 + tol:
                    fails.append(f"(m,n,c)=({m},{n},{c}) ratio {r:.6f}")
    return SuiteResult("weil", checked, worst, fails)


def _suite_bessel(max_norm: float, tol: float) -> SuiteResult:
    worst, checked, fails = 0.0, 0, []
    tf = TestFunction(1.0, 1.0)
    for z in (1.0 + 0.0j, 0.5 + 0.5j):
        vals = [
            bessel_integral_spectral(z, tf, DEFAULT_QUADRATURE),
            bessel_integral_deriv(z, tf, DEFAULT_QUADRATURE),
            bessel_integral_weighted(z, tf, DEFAULT_QUADRATURE),
        ]
        scale = max(abs(v) for v in vals)
        spread = (max(vals) - min(vals)) / scale
        worst = max(worst, spread)
        checked += 1
        if spread > max(tol, 1e-12):
            fails.append(f"z={z}: representations {vals} spread {spread:.3e}")
    return SuiteResult("bessel", checked, worst, fails)


def _suite_plancherel(max_norm: float, tol: float) -> SuiteResult:
    worst, checked, fails = 0.0, 0, []
    for T, P in ((1.0, 1.0), (2.0, 1.0), (1.5, 2.5)):
        tf = TestFunction(T, P)
        closed = plancherel_integral(tf)
        quad = plancherel_integral_quadrature(tf, DEFAULT_QUADRATURE)
        rel = abs(closed - quad) / closed
        worst = max(worst, rel)
        checked += 1
        if rel > max(tol, 1e-13):
            fails.append(f"T={T},P={P}: closed {closed!r} vs quadrature {quad!r}")
    return SuiteResult("plancherel", checked, worst, fails)


#: Suite registry; "charsum" groups the character-transform identities,
#: "all" is every suite.  The "lemma" suite honestly reports the known
#: failures of the prime-power case formulas at dyadic moduli of norm
#: >= 64, which is why the default verify range stops at 60 (the full
#: range runs in lemma-check and the acceptance tests).
SUITES: dict[str, Callable[[float, float], SuiteResult]] = {
    "mellin": _suite_mellin,
    "parseval": _suite_parseval,
    "twisted": _suite_twisted,
    "lemma": _suite_lemma,
    "selberg": _suite_selberg,
    "shift": _suite_shift,
    "weil": _suite_weil,
    "bessel": _suite_bessel,
    "plancherel": _suite_plancherel,
}

SUITE_GROUPS = {
    "all": tuple(SUITES),
    "charsum": ("mellin", "parseval", "twisted"),
}

DEFAULT_VERIFY_NORM = 60.0


def verify_all(max_norm: float, tolerance: float, names: Sequence[str] = ("all",)) -> list[SuiteResult]:
    """Run the named identity suites (default all) up to max_norm."""
    if max_norm < 2:
        raise DomainError("verify needs max_norm >= 2")
    selected: list[str] = []
    for name in names:
        for expanded in SUITE_GROUPS.get(name, (name,)):
            if expanded not in SUITES:
                raise DomainError(f"unknown suite {name!r}")
            if expanded not in selected:
                selected.append(expanded)
    return [SUITES[name](max_norm, tolerance) for name in selected]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_kloosterman(args) -> int:
    m, n, c = (GaussianInt.parse(s) for s in (args.m, args.n, args.c))
    value = kloosterman(m, n, c)
    cfg = _base_config(args, _quadrature(args), m=m, n=n, c=c)
    _emit(
        Report(
            "kloosterman",
            cfg,
            ("m", "n", "c", "value_re", "value_im", "abs"),
            [(m, n, c, value.real, value.imag, abs(value))],
            [],
        ),
        args,
    )
    return 0


def _cmd_fsum(args) -> int:
    w, c = GaussianInt.parse(args.w), GaussianInt.parse(args.c)
    value = f_sum(w, c)
    cfg = _base_config(args, _quadrature(args), w=w, c=c)
    _emit(
        Report(
            "fsum",
            cfg,
            ("w", "c", "value_re", "value_im", "abs"),
            [(w, c, value.real, value.imag, abs(value))],
            [],
        ),
        args,
    )
    return 0


def _cmd_charsum(args) -> int:
    c = GaussianInt.parse(args.c)
    grp = char_group(c)
    rows = []
    for chi in grp.characters():
        if args.exps and chi.exps != tuple(int(x) for x in args.exps.split(",")):
            continue
        value = f_sum_hat(chi)
        rows.append(
            (
                ":".join(map(str, chi.exps)),
                chi.char_class(),
                str(chi.conductor().gen),
                value.real,
                value.imag,
                abs(value),
            )
        )
    cfg = _base_config(args, _quadrature(args), c=c, characters=len(rows))
    _emit(
        Report(
            "charsum",
            cfg,
            ("exps", "class", "conductor", "fhat_re", "fhat_im", "abs"),
            rows,
            [],
        ),
        args,
    )
    return 0


def _cmd_lemma_check(args) -> int:
    result, rows = _lemma_pass(args.max_norm, args.tolerance)
    cfg = _base_config(
        args, _quadrature(args), max_norm=args.max_norm, characters=result.checked
    )
    notes = [f"checked {result.checked} characters, {len(result.failures)} mismatches"]
    notes += [f"mismatch: {f}" for f in result.failures]
    _emit(
        Report(
            "lemma-check",
            cfg,
            ("modulus", "exps", "class", "abs_fhat", "case_formula", "status"),
            rows,
            notes,
        ),
        args,
    )
    return 0 if result.passed else 1


def _cmd_bessel(args) -> int:
    z = _parse_complex(args.z)
    tf = TestFunction(args.T, args.P)
    cfg_q = _quadrature(args)
    cfg = _base_config(args, cfg_q, z=z, T=args.T, P=args.P)
    if args.compare:
        spectral = bessel_integral_spectral(z, tf, cfg_q)
        deriv = bessel_integral_deriv(z, tf, cfg_q)
        weighted = bessel_integral_weighted(z, tf, cfg_q)
        vals = (spectral, deriv, weighted)
        dev = max(abs(a - b) for a in vals for b in vals)
        rows = [
            ("spectral", spectral),
            ("derivative", deriv),
            ("weighted", weighted),
            ("max_deviation", dev),
        ]
        _emit(Report("bessel", cfg, ("representation", "value"), rows, []), args)
        return 0
    value = bessel_integral_weighted(z, tf, cfg_q)
    _emit(Report("bessel", cfg, ("representation", "value"), [("weighted", value)], []), args)
    return 0


def _cmd_plancherel(args) -> int:
    tf = TestFunction(args.T, args.P)
    cfg_q = _quadrature(args)
    closed = plancherel_integral(tf)
    quad = plancherel_integral_quadrature(tf, cfg_q)
    cfg = _base_config(args, cfg_q, T=args.T, P=args.P)
    rows = [
        ("closed_form", closed),
        ("quadrature", quad),
        ("abs_difference", abs(closed - quad)),
    ]
    _emit(Report("plancherel", cfg, ("method", "value"), rows, []), args)
    return 0


def _cmd_zeta(args) -> int:
    s = _parse_complex(args.s)
    value, tail = hecke_zeta(s, args.p, args.cutoff, smoothed=args.smoothed)
    cfg = _base_config(
        args,
        _quadrature(args),
        s=s,
        p=args.p,
        cutoff=args.cutoff,
        smoothed=args.smoothed,
    )
    rows = [(s, args.p, value.real, value.imag, tail)]
    _emit(
        Report(
            "zeta", cfg, ("s", "p", "value_re", "value_im", "tail_estimate"), rows, []
        ),
        args,
    )
    return 0


def _cmd_eisenstein(args) -> int:
    rep = eisenstein_experiment(args.T, args.P, args.N, args.trials, args.seed)
    cfg = _base_config(
        args, _quadrature(args), T=args.T, P=args.P, N=args.N, trials=args.trials
    )
    _emit(
        Report(
            "eisenstein",
            cfg,
            ("experiment", "trials", "lhs", "rhs", "ratio"),
            [(rep.experiment, rep.trials, rep.lhs, rep.rhs_bound, rep.ratio)],
            [],
        ),
        args,
    )
    return 0


def _cmd_kuznetsov_geom(args) -> int:
    m, n = GaussianInt.parse(args.m), GaussianInt.parse(args.n)
    tf = TestFunction(args.T, args.P)
    cfg_q = _quadrature(args)
    res = kuznetsov_geometric(m, n, tf, args.c_norm_max, cfg_q)
    cfg = _base_config(
        args, cfg_q, m=m, n=n, T=args.T, P=args.P, c_norm_max=args.c_norm_max
    )
    rows = [
        ("diagonal", res.diagonal),
        ("kloosterman_re", res.kloosterman_term.real),
        ("kloosterman_im", res.kloosterman_term.imag),
        ("tail_bound", res.tail_bound),
    ]
    _emit(Report("kuznetsov-geom", cfg, ("quantity", "value"), rows, []), args)
    return 0


def _cmd_quadform(args) -> int:
    d = GaussianInt.parse(args.d)
    theta = _parse_complex(args.theta)
    rep = quad_form_experiment(
        d, theta, args.gamma, args.C, args.M, args.N, args.trials, args.seed
    )
    cfg = _base_config(
        args,
        _quadrature(args),
        d=d,
        theta=theta,
        gamma=args.gamma,
        C=args.C,
        M=args.M,
        N=args.N,
        trials=args.trials,
    )
    _emit(
        Report(
            "quadform",
            cfg,
            ("experiment", "trials", "lhs", "rhs", "ratio"),
            [(rep.experiment, rep.trials, rep.lhs, rep.rhs_bound, rep.ratio)],
            [],
        ),
        args,
    )
    return 0


def _cmd_hybrid(args) -> int:
    rep = hybrid_experiment(args.C, args.T, args.N, args.trials, args.seed)
    cfg = _base_config(
        args, _quadrature(args), C=args.C, T=args.T, N=args.N, trials=args.trials
    )
    _emit(
        Report(
            "hybrid",
            cfg,
            ("experiment", "trials", "lhs", "rhs", "ratio"),
            [(rep.experiment, rep.trials, rep.lhs, rep.rhs_bound, rep.ratio)],
            [],
        ),
        args,
    )
    return 0


def _cmd_verify(args) -> int:
    names = args.suites or ["all"]
    results = verify_all(args.max_norm, args.tolerance, names)
    rows = [
        (
            r.name,
            r.checked,
            r.worst,
            len(r.failures),
            "pass" if r.passed else "FAIL",
        )
        for r in results
    ]
    notes = []
    for r in results:
        notes += [f"{r.name}: {f}" for f in r.failures]
    cfg = _base_config(args, _quadrature(args), max_norm=args.max_norm, suites=",".join(names))
    _emit(
        Report(
            "verify",
            cfg,
            ("suite", "checked", "worst_residual", "failures", "status"),
            rows,
            notes,
        ),
        args,
    )
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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
    common.add_argument("--seed", type=int, default=0, help="base seed for randomized trials")
    common.add_argument(
        "--quadrature", default=None, metavar="FILE", help="quadrature config file"
    )
    common.add_argument(
        "--tolerance", type=float, default=1e-9, help="identity-suite tolerance"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kloosterman", parents=[common], help="S(m, n; c)")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(handler=_cmd_kloosterman)

    p = sub.add_parser("fsum", parents=[common], help="F(w; c) = S(w^2, 1; c) e[2w/c]")
    p.add_argument("--w", required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(handler=_cmd_fsum)

    p = sub.add_parser("charsum", parents=[common], help="character transforms fhat(chi) mod c")
    p.add_argument("--c", required=True)
    p.add_argument("--exps", default=None, help="restrict to one exponent vector, e.g. 1,0,2")
    p.set_defaults(handler=_cmd_charsum)

    p = sub.add_parser(
        "lemma-check",
        parents=[common],
        help="|fhat| against the prime-power case formulas (exit 1 on mismatch)",
    )
    p.add_argument("--max-norm", type=float, default=400.0)
    p.set_defaults(handler=_cmd_lemma_check)

    p = sub.add_parser("bessel", parents=[common], help="Bessel integral of the test function")
    p.add_argument("--z", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--P", type=float, default=1.0)
    p.add_argument("--compare", action="store_true", help="all three representations")
    p.set_defaults(handler=_cmd_bessel)

    p = sub.add_parser("plancherel", parents=[common], help="Plancherel integral, closed vs quadrature")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--P", type=float, default=1.0)
    p.set_defaults(handler=_cmd_plancherel)

    p = sub.add_parser("zeta", parents=[common], help="Hecke zeta value zeta(s, p)")
    p.add_argument("--s", required=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--cutoff", type=float, default=1e6)
    p.add_argument("--smoothed", action="store_true")
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("eisenstein", parents=[common], help="Eisenstein sieve ratio experiment")
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--P", type=float, default=1.0)
    p.add_argument("--N", type=float, default=30.0)
    p.add_argument("--trials", type=int, default=80)
    p.set_defaults(handler=_cmd_eisenstein)

    p = sub.add_parser("kuznetsov-geom", parents=[common], help="geometric side of the trace identity")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--P", type=float, default=1.0)
    p.add_argument("--c-norm-max", type=int, default=100)
    p.set_defaults(handler=_cmd_kuznetsov_geom)

    p = sub.add_parser("quadform", parents=[common], help="quadratic-form ratio experiment")
    p.add_argument("--d", default="1")
    p.add_argument("--theta", default="1")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--C", type=float, default=5.0)
    p.add_argument("--M", type=float, default=5.0)
    p.add_argument("--N", type=float, default=5.0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(handler=_cmd_quadform)

    p = sub.add_parser("hybrid", parents=[common], help="hybrid large-sieve ratio experiment")
    p.add_argument("--C", type=float, default=4.0)
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--N", type=float, default=20.0)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(handler=_cmd_hybrid)

    p = sub.add_parser("verify", parents=[common], help="identity suites (exit 1 on any failure)")
    p.add_argument("suites", nargs="*", help=f"subset of {', '.join(SUITES)} or charsum/all")
    p.add_argument("--max-norm", type=float, default=DEFAULT_VERIFY_NORM)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute one subcommand, return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
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
