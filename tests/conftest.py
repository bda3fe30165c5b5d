"""Shared pytest configuration: hypothesis profile, criterion summary,
the moduli that the transform-engine tests draw from, and a builder for
coefficient sequences.

The acceptance tests register one line per criterion through
``record_criterion``; a terminal-summary hook replays them at the end of
the run so the pass/fail state of every criterion is visible even when
pytest captures per-test output.
"""

from hypothesis import HealthCheck, example, settings
from hypothesis import strategies as st

from gisieve.gauss import GaussianInt
from gisieve.spectral import CoefficientSequence

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


CRITERION_LINES: list[str] = []


def record_criterion(num: int, passed: bool, detail: str) -> None:
    """Print and remember one acceptance-criterion result line."""
    line = f"CRITERION {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(CRITERION_LINES)):
            terminalreporter.line(line)


# ---------------------------------------------------------------------------
# Moduli for the transform engine
# ---------------------------------------------------------------------------


def ramified_power(k: int) -> GaussianInt:
    """(1+i)^k."""
    z = GaussianInt(1, 0)
    for _ in range(k):
        z = z * GaussianInt(1, 1)
    return z


#: Moduli whose residue boxes or unit groups are unusual: g > 1 with e != 0
#: (3+3i, 6+3i, 8+8i), the powers (1+i)^k for k <= 8 (k = 0 is the unit
#: modulus), inert times split primes, and the unit i.
EDGE_MODULI = (
    GaussianInt(3, 3),
    GaussianInt(6, 3),
    GaussianInt(8, 8),
    *(ramified_power(k) for k in range(9)),
    GaussianInt(3, 6),    # 3 * (1+2i)
    GaussianInt(14, 7),   # 7 * (2+i)
    GaussianInt(9, 6),    # 3 * (3+2i)
    GaussianInt(0, 1),
)

_small = st.integers(min_value=-7, max_value=7)

#: Random nonzero moduli of norm <= 98 plus every edge modulus.
engine_moduli = st.one_of(
    st.sampled_from(EDGE_MODULI), st.builds(GaussianInt, _small, _small)
).filter(lambda z: not z.is_zero())


def with_edge_moduli(test):
    """Make a hypothesis test over engine_moduli run every edge modulus."""
    for c in EDGE_MODULI:
        test = example(c)(test)
    return test


# ---------------------------------------------------------------------------
# Coefficient sequences
# ---------------------------------------------------------------------------


def make_sequence(coeffs, norm_window=None) -> CoefficientSequence:
    """The sequence of an {ideal: coefficient} map, entries sorted by ideal;
    the default window is [1, largest norm]."""
    entries = tuple((ideal, complex(coeffs[ideal])) for ideal in sorted(coeffs))
    if norm_window is None:
        norm_window = (0, max((ideal.norm for ideal, _ in entries), default=1))
    return CoefficientSequence(entries, norm_window)
