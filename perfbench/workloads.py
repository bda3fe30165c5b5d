"""One run of one benchmark workload, in a fresh interpreter.

Started by run.py, never imported by it:

    python3 perfbench/workloads.py --workload NAME --seed N --mode MODE \\
        --out RESULT.json [--smoke] [--spans SPANS.json]

MODE is ``setup`` (import and input generation only), ``run`` (set-up,
the timed section, then the correctness checks) or ``trace`` (``run``
with every layer traced).  The interpreter is fresh so that the
package's caches start cold, as they do for a command or a script.  The
result file holds the set-up finish time on the system-wide monotonic
clock, the timed wall and CPU time, the peak memory, the checks
attempted and failed, and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
TOL = 1e-9

#: Workload sizes; "smoke" runs the same code at tiny sizes for the
#: benchmark's own tests.
SIZES = {
    "full": {
        "lemma_norm": 256.0,
        "transform_norm": 400.0,
        "pairs": 10,
        "pair_norm": 1e4,
        "pair_phi": (7600, 8000),
        "kuz_c_norm": 200,
        "h_grid": ((0.5, 1.0, 2.0, 4.0), ((1.0, 1.0), (2.0, 2.0))),
        "sweep": {"quad_form": 5, "hybrid": 4, "eisenstein": 2},
        "trials": None,
    },
    "smoke": {
        "lemma_norm": 64.0,
        "transform_norm": 40.0,
        "pairs": 2,
        "pair_norm": 400.0,
        "pair_phi": (150, 300),
        "kuz_c_norm": 10,
        "h_grid": ((0.5, 1.0), ((2.0, 2.0),)),
        "sweep": {"quad_form": 1, "hybrid": 1, "eisenstein": 1},
        "trials": 2,
    },
}

FROZEN = json.loads((HERE / "frozen.json").read_text())


# ---------------------------------------------------------------------------
# transforms: gauss, expsums, characters and cli


def transforms_inputs(rng, size):
    """Coprime pairs drawn as criterion 2 draws them, kept only when
    phi(c1 c2) lies in a fixed band so that every seed costs the same;
    each character is given as uniform draws scaled to its group.

    The pairs are run largest phi first.  In draw order, glibc's dynamic
    mmap threshold makes the peak resident memory depend on whether a
    later pair is larger than every earlier one, by up to a quarter;
    largest first, the peak follows the largest modulus.
    """
    from gisieve import gauss

    cap = size["pair_norm"]
    lo, hi = size["pair_phi"]
    small = [i.gen for i in gauss.ideals_up_to_norm(100) if i.norm >= 2]
    pool = [i.gen for i in gauss.ideals_up_to_norm(cap / 2) if i.norm >= 2]
    phi = {}

    def phi_of(c):
        if c not in phi:
            phi[c] = gauss.euler_phi(gauss.GIdeal.of(c))
        return phi[c]

    pairs = []
    while len(pairs) < size["pairs"]:
        c1 = small[rng.integers(len(small))]
        partners = [
            c
            for c in pool
            if lo / phi_of(c1) <= c.norm <= cap / c1.norm
            and gauss.is_coprime(c1, c)
            and lo <= phi_of(c1) * phi_of(c) <= hi
        ]
        if not partners:
            continue
        c2 = partners[rng.integers(len(partners))]
        if any(c1 == p[0] and c2 == p[1] for p in pairs):
            continue
        pairs.append((c1, c2, rng.random(16).tolist(), rng.random(16).tolist()))
    pairs.sort(key=lambda p: -phi_of(p[0]) * phi_of(p[1]))
    return pairs


def transforms_run(pairs, size, seed, tmp):
    from gisieve import characters, cli

    (lemma,) = cli.verify_all(size["lemma_norm"], TOL, ["lemma"])
    mellin, parseval = cli.verify_all(size["transform_norm"], TOL, ["mellin", "parseval"])
    residuals = []
    for c1, c2, u1, u2 in pairs:
        chis = []
        for c, u in ((c1, u1), (c2, u2)):
            grp = characters.char_group(c)
            chis.append(grp.character(tuple(int(x * n) for x, n in zip(u, grp.gen_orders))))
        residuals.append(abs(characters.twisted_mult_residual(*chis)))
    return lemma, mellin, parseval, residuals


def transforms_check(out, size, seed, tmp, checks):
    lemma, mellin, parseval, residuals = out
    key = str(size["lemma_norm"])
    seen = {
        (m.group(1), m.group(2).replace(" ", ""))
        for m in (re.match(r"modulus (\S+) exps \(([^)]*)\)", f) for f in lemma.failures)
        if m
    }
    known = {
        (mod, exps)
        for mod, exps, norm in FROZEN["lemma_mismatches"]
        if norm <= size["lemma_norm"]
    }
    diff = sorted(seen ^ known)
    checks.count(lemma.checked, len(diff), [f"lemma: mismatch set differs at {p}" for p in diff])
    checks.expect("lemma failures parsed", len(seen), len(lemma.failures))
    checks.expect("lemma checked", lemma.checked, FROZEN["lemma_checked"][key])
    for suite in (mellin, parseval):
        checks.expect(f"{suite.name} checked", suite.checked,
                      FROZEN["transform_checked"][str(size["transform_norm"])])
        checks.count(suite.checked, len(suite.failures),
                     [f"{suite.name}: {f}" for f in suite.failures])
        checks.bound(f"{suite.name} worst residual", suite.worst, TOL)
    for i, res in enumerate(residuals):
        checks.bound(f"twisted pair {i}", res, TOL)


# ---------------------------------------------------------------------------
# kernel: archimedean and spectral


def kernel_inputs(rng, size):
    """H(z) points: each |z| and (T, P) of the grid with a random arg."""
    zabs, tps = size["h_grid"]
    return [
        (r * cmath.exp(1j * float(rng.uniform(0.0, math.pi / 2))), T, P)
        for r in zabs
        for T, P in tps
    ]


def kernel_run(points, size, seed, tmp):
    from gisieve import archimedean as A
    from gisieve import spectral
    from gisieve.gauss import GaussianInt

    m, n = GaussianInt(1, 0), GaussianInt(2, 1)
    tf = A.TestFunction(2.0, 1.0)
    kuz = spectral.kuznetsov_geometric(m, n, tf, size["kuz_c_norm"])
    swapped = spectral.kuznetsov_geometric(n, m, tf, size["kuz_c_norm"])
    values = []
    for z, T, P in points:
        tfz = A.TestFunction(T, P)
        values.append(tuple(
            f(z, tfz, A.DEFAULT_QUADRATURE)
            for f in (A.bessel_integral_spectral, A.bessel_integral_deriv,
                      A.bessel_integral_weighted)
        ))
    return kuz, swapped, values


def kernel_check(out, size, seed, tmp, checks):
    kuz, swapped, values = out
    sym = abs(kuz.kloosterman_term - swapped.kloosterman_term) + abs(
        kuz.diagonal - swapped.diagonal
    )
    checks.bound("(m, n) symmetry defect", sym, TOL)
    re_, im_ = FROZEN["kloosterman_term"][str(size["kuz_c_norm"])]
    want = complex(re_, im_)
    checks.bound("kloosterman_term relative drift",
                 abs(kuz.kloosterman_term - want) / abs(want), 1e-6)
    for i, vals in enumerate(values):
        scale = max(1e-12, max(abs(v) for v in vals))
        checks.bound(f"H(z) point {i} spread", (max(vals) - min(vals)) / scale, 1e-6)


# ---------------------------------------------------------------------------
# sieve: scripts/run_experiments.py, its sweep without the T = 4 Eisenstein points


#: The script's sweep list for each experiment family.
SWEEPS = {"quad_form": "QUAD_SWEEP", "hybrid": "HYBRID_SWEEP", "eisenstein": "EISENSTEIN_SWEEP"}


def sieve_inputs(rng, size):
    """The script module itself, its sweeps cut to the first points that
    ``size["sweep"]`` names: its only input is the seed.

    The full size keeps every quad_form and hybrid point and the two T = 2
    Eisenstein points.  The two T = 4 points would take three quarters of
    a run, about 18 of 24 s, filling the cold Eisenstein weight cache; cut,
    one run takes a few seconds and run.py reports the median of several.
    """
    sys.path.insert(0, str(ROOT / "scripts"))
    import run_experiments

    for family, points in size["sweep"].items():
        sweep = SWEEPS[family]
        setattr(run_experiments, sweep, getattr(run_experiments, sweep)[:points])
    return run_experiments


def _sweep(script, seed, size, out_dir):
    argv = ["--seed", str(seed), "--out-dir", str(out_dir)]
    if size["trials"] is not None:
        argv += ["--trials", str(size["trials"])]
    if script.main(argv) != 0:
        raise RuntimeError("run_experiments.main returned non-zero")
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


def sieve_run(script, size, seed, tmp):
    return _sweep(script, seed, size, Path(tmp))


def sieve_check(files, size, seed, tmp, checks):
    """Ratio checks; the digest returned lets run.py compare the output
    bytes of every run with this seed."""
    summary = json.loads(files["experiments.json"])
    ratios = {
        f"{family}/{i}": rep["ratio"]
        for family, reports in sorted(summary.items())
        for i, rep in enumerate(reports)
    }
    for key, ratio in ratios.items():
        checks.truth(f"ratio {key} = {ratio!r} finite and positive",
                     math.isfinite(ratio) and ratio > 0)
    if seed == DEFAULT_SEED:
        frozen = FROZEN["sieve_ratios"]["smoke" if size["trials"] else "full"]
        frozen = {
            f"{family}/{i}": frozen[f"{family}/{i}"]
            for family, points in size["sweep"].items()
            for i in range(points)
        }
        checks.expect("sieve ratio keys", sorted(ratios), sorted(frozen))
        for key in sorted(set(ratios) & set(frozen)):
            checks.bound(f"ratio {key} relative drift",
                         abs(ratios[key] - frozen[key]) / abs(frozen[key]), TOL)
    return hashlib.sha256(b"".join(files[k] for k in sorted(files))).hexdigest()


WORKLOADS = {
    "transforms": (transforms_inputs, transforms_run, transforms_check),
    "kernel": (kernel_inputs, kernel_run, kernel_check),
    "sieve": (sieve_inputs, sieve_run, sieve_check),
}


# ---------------------------------------------------------------------------


class Checks:
    """Counts correctness checks and keeps a few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def count(self, attempted: int, failed: int, messages=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(list(messages)[: max(0, 20 - len(self.messages))])

    def truth(self, what: str, ok: bool) -> None:
        self.count(1, 0 if ok else 1, [] if ok else [what])

    def bound(self, what: str, value: float, limit: float) -> None:
        self.truth(f"{what} {value:.3e} > {limit:.0e}", value <= limit)

    def expect(self, what: str, got, want) -> None:
        self.truth(f"{what}: got {got!r}, expected {want!r}", got == want)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one fresh-interpreter workload run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    import gisieve
    from gisieve import archimedean, characters, cli, expsums, gauss, sievelab, spectral  # noqa: F401

    src = (ROOT / "src").resolve()
    if src not in Path(gisieve.__file__).resolve().parents:
        raise SystemExit(f"gisieve imported from {gisieve.__file__}, not from {src}")

    size = SIZES["smoke" if args.smoke else "full"]
    make_inputs, body, check = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        make_inputs = tracer.span("bench.setup", make_inputs)
    inputs = make_inputs(rng, size)
    result = {"ready": time.monotonic(), "numpy": np.__version__}
    if args.mode == "setup":
        args.out.write_text(json.dumps(result))
        return 0

    checks = Checks()
    with tempfile.TemporaryDirectory(dir=args.out.parent) as tmp:
        if tracer is not None:
            body = tracer.span("bench.run", body)
        t0 = time.perf_counter()
        out = body(inputs, size, args.seed, tmp)
        wall = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            if args.spans is not None:
                tracer.dump(args.spans)
        digest = check(out, size, args.seed, tmp, checks)
    if digest is not None:
        result["digest"] = digest
    result.update(attempted=checks.attempted, failed=checks.failed, messages=checks.messages)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
