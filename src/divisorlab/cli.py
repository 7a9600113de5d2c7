"""Command-line front end for the divisor-sum laboratory.

Eight subcommands cover the library surface:

  sieve     pointwise table of one arithmetic function
  sum       one summatory value by a chosen (or auto-picked) algorithm
  explicit  truncated explicit-formula evaluation with full decomposition
  voronoi   Bessel/cosine summation formulas against exact references
  delta     error-term samples delta(x) = exact - main term
  ap        arithmetic-progression divisor/harmonic/fractional sums
  verify    self-check suites over the library invariants
  fit       log-log exponent fit of |delta| over a geometric grid

Flags use long names only.  A config file (plain key=value lines, '#'
comments) may supply a default for any flag of any subcommand; values
given on the command line win.  Reports go to --output as CSV or JSON
(stdout with --output -), and identical inputs produce byte-identical
output regardless of --workers.

Exit codes: 0 success, 2 usage or bad argument, 3 input-file problem
(also unwritable output), 4 documented resource or accuracy limit
exceeded, 5 verification-suite failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import random
import sys
import tempfile
from decimal import Decimal

# numpy's OpenBLAS starts a helper thread that busy-waits, and no command
# makes a BLAS call: one thread, unless the environment asks for more
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .arith import LABEL_FORMS, FnSpec, dirichlet_coefficients, hermite_divisor_count
from .bessel import (_SERIES, bessel_J1, bessel_K1, bessel_Y1, _evaluate,
                     default_terms, divisor_delta_reference, sierpinski_sum,
                     voronoi_full, voronoi_truncated)
from .errors import AccuracyError, PoleError, ResourceLimitError, TableFormatError
from .explicit import (_LABELS, TAIL_VARIANTS, TruncationConfig, delta_error,
                       evaluate_explicit, main_term, nontrivial_zero_sum,
                       resolve_target, trivial_zero_tail)
from .fitting import delta_samples, exponent_fit, half_integer_grid
from .reports import (DELTA_CSV_HEADER, FORMATS, emit_report, read_delta_csv,
                      render_csv)
from .summatory import (ALGORITHMS, ORACLE_BOUND_DEFAULT, POINTWISE_MAX, ROUTES,
                        SEGMENT_SIZE, APSpec, _segment_values, _walk_chunks,
                        _walk_dtype,
                        ap_divisor_sum, ap_main_term, brute_force_profile,
                        brute_force_sum, circle_lattice_sum,
                        divisor_sum_from_squarefree, divisor_sum_hyperbola,
                        floor_sum, fractional_main_term, fractional_part_sum,
                        harmonic_main_term, harmonic_sum, squarefree_divisor_sum)
from .zeta import (default_zero_table, load_zero_table, stieltjes, zeta,
                   zeta_derivative, _lgamma_complex)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5

# One row per integer, streamed from the walk into the report text; at the
# cap, mu gives ~130 MB of text and a cold run peaks at ~1 GiB.
SIEVE_ROWS_MAX = 10 ** 7


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def _read_config_file(path: str) -> dict[str, str]:
    """Parse a key=value defaults file into flag-name -> raw string."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"config file {path!r}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        key, sep, value = body.partition("=")
        key = key.strip().lstrip("-")
        if not sep or not key:
            raise TableFormatError("expected key=value", line=lineno)
        out[key] = value.strip()
    return out


def _seed_config(parsers, config: dict[str, str]) -> None:
    """Install config values as parser defaults so the command line wins.

    A key must name a long flag of at least one subcommand; each subparser
    only receives the keys it understands.  Every such flag takes a value
    (--help, the one flag without one, is no key), and the string goes
    through the flag's type converter at parse time, so bad values still
    surface as usage errors.
    """
    known: set[str] = set()
    for sub in parsers:
        dests = {action.dest: action for action in sub._actions
                 if action.option_strings and action.nargs != 0}
        known.update(dests)
        seed = {}
        for key, raw in config.items():
            action = dests.get(key.replace("-", "_"))
            if action is not None:
                seed[action.dest] = raw
                # a required flag is satisfied by its configured value
                action.required = False
        sub.set_defaults(**seed)
    for key in config:
        if key.replace("-", "_") not in known:
            raise ValueError(f"config key {key!r} is not a known flag")


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

def _real(text: str) -> float:
    """float(text), refused when not finite or of another floor than the text.

    Counting sums depend on floor(x) only, so a float that rounds across an
    integer (past 2^53, or 0.99999999999999999) would answer for another x.
    The exact floor comes from Decimal, which stays cheap for any exponent.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    if math.floor(value) != math.floor(Decimal(text)):
        raise argparse.ArgumentTypeError(
            f"{text} would be read as {value!r}, which has another floor")
    return value


def _whole(text: str) -> int:
    """A whole number as an integer or in exponent form (1e9), kept exact.

    float screens out what is not a finite number, as for --x; Decimal
    gives the value, so one past 2^53 keeps its last digits.
    """
    try:
        exact = Decimal(text) if math.isfinite(float(text)) else None
    except ValueError:
        exact = None
    if exact is None or exact != exact.to_integral_value():
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number")
    return int(exact)


def _worker_count(text: str) -> int:
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {workers}")
    return workers


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key=value defaults file; command line wins")
    common.add_argument("--output", default="-", metavar="PATH",
                        help="report destination, - for stdout (default -)")
    common.add_argument("--format", choices=FORMATS, default=None,
                        help="report format, default first: " + ", ".join(
                            f"{name} {'|'.join(formats)}"
                            for name, (_, formats) in _HANDLERS.items()))
    common.add_argument("--workers", type=_worker_count, default=1,
                        help="forked walkers of a brute-force scan's 2^18-long blocks, "
                             "at most one per block and per CPU (default 1)")
    common.add_argument("--oracle-bound", type=_whole, default=ORACLE_BOUND_DEFAULT,
                        dest="oracle_bound",
                        help=f"ceiling for linear-time exact scans (default {ORACLE_BOUND_DEFAULT})")

    parser = argparse.ArgumentParser(
        prog="divlab",
        description="exact and analytic summation lab for divisor-type functions")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = subs.add_parser("sieve", parents=[common],
                        help="tabulate one arithmetic function pointwise")
    p.add_argument("--limit", type=_whole, required=True,
                   help=f"tabulate n = 1..limit (at most {SIEVE_ROWS_MAX} rows)")
    p.add_argument("--fn", default="d",
                   help=f"function label: {', '.join(LABEL_FORMS)}")

    p = subs.add_parser("sum", parents=[common],
                        help="one summatory value sum_{n<=x} f(n)")
    p.add_argument("--fn", default="d", help="function label as for sieve")
    p.add_argument("--x", type=_real, required=True, help="upper limit x >= 1")
    p.add_argument("--algorithm", default="auto", choices=("auto", *ALGORITHMS),
                   help="auto picks the sublinear route when one exists")

    p = subs.add_parser("explicit", parents=[common],
                        help="truncated explicit-formula evaluation")
    p.add_argument("--target", default="d",
                   help=f"target name or alias: {', '.join(_LABELS)}")
    p.add_argument("--x", type=_real, required=True, help="evaluation point x > 1")
    p.add_argument("--zeros", metavar="PATH",
                   help="zero-ordinate file; default is ZD_ZEROS or the packaged table")
    p.add_argument("--pairs", type=_whole, default=100,
                   help="number of zero pairs in the oscillating sum (default 100)")
    p.add_argument("--tail", type=_whole, default=10,
                   help="number of trivial-zero tail terms (default 10)")
    p.add_argument("--tail-variant", default="residue", choices=TAIL_VARIANTS,
                   dest="tail_variant",
                   help="tail coefficient convention (default residue)")

    p = subs.add_parser("voronoi", parents=[common],
                        help="Bessel/cosine summation formulas vs exact references")
    p.add_argument("--x", type=_real, required=True, help="non-integer x > 1")
    p.add_argument("--kind", default="full", choices=tuple(_SERIES),
                   help="full divisor series, truncated cosine series, or the "
                        "lattice-count series (default full)")
    p.add_argument("--terms", type=_whole, default=None,
                   help="series length (default: the most, up to 10000, that keep "
                        "Bessel arguments within 1e5; truncated: up to 1000, below x)")

    p = subs.add_parser("delta", parents=[common],
                        help="error-term samples delta(x) = exact - main term")
    p.add_argument("--target", default="d", help="target as for explicit")
    p.add_argument("--x", type=_real, default=None,
                   help="single sample point (alternative to a grid)")
    p.add_argument("--grid-lo", type=_real, default=None, dest="grid_lo",
                   help="grid start (with --grid-hi)")
    p.add_argument("--grid-hi", type=_real, default=None, dest="grid_hi",
                   help="grid end (with --grid-lo)")
    p.add_argument("--ratio", type=float, default=1.2,
                   help="geometric grid ratio (default 1.2)")

    p = subs.add_parser("ap", parents=[common],
                        help="divisor, harmonic, or fractional-part sums on a progression")
    p.add_argument("--x", type=_real, required=True, help="upper limit x >= 1")
    p.add_argument("--kind", default="divisor",
                   choices=("divisor", *_AP_SUMS),
                   help="which progression sum to evaluate (default divisor)")
    p.add_argument("--q", type=int, default=None, help="modulus q >= 2")
    p.add_argument("--a", type=int, default=None,
                   help="residue a with 1 <= a < q and gcd(a, q) = 1")

    p = subs.add_parser("verify", parents=[common],
                        help="run self-check suites; exit 5 on any failure")
    p.add_argument("--suite", default="all", choices=(*SUITES, "all"),
                   help="which suite to run (default all)")
    p.add_argument("--zeros", metavar="PATH",
                   help="zero-ordinate file for the explicit suite")

    p = subs.add_parser("fit", parents=[common],
                        help="log-log exponent fit of |delta| over a geometric grid")
    p.add_argument("--target", default="d", help="target as for explicit")
    p.add_argument("--grid-lo", type=_real, required=True, dest="grid_lo",
                   help="grid start, >= 1")
    p.add_argument("--grid-hi", type=_real, required=True, dest="grid_hi",
                   help="grid end, needs >= 3 decades above --grid-lo")
    p.add_argument("--ratio", type=float, default=1.2,
                   help="geometric grid ratio (default 1.2)")
    p.add_argument("--samples-output", default=None, metavar="PATH",
                   dest="samples_output",
                   help="also write the underlying delta samples as CSV")

    return parser, subs.choices.values()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _load_zeros(path: str | None):
    if path:
        return load_zero_table(path)
    return default_zero_table()


def _refuse_unwritable(spec: FnSpec, m: int, summed: bool) -> float:
    """Refuse, before any work, a sieve (or with summed, a sum) of spec to m
    whose report would hold an integer too long to write; else return top,
    the float log10 of the bound below (0.0 where no value grows long).

    Python writes no int of more than sys.get_int_max_str_digits() digits
    (0 lifts the limit), and v has floor(log10 v) + 1 of them.  Only sigma_a
    (a >= 2) and d_k grow that long; the float log10 of an upper bound on
    each value to m, or on their sum, decides:
      sigma_a(n) <= zeta(a) n^a <= (1 + 2^-a (a + 1)/(a - 1)) m^a,
      sum_{d<=m} d^a floor(m/d) <= m sum_{j<m} (m - j)^(a-1)
                                 <= m^a / (1 - e^(-(a - 1)/m)),
      d_k(n) <= k^Omega(n) <= k^(bit_length(m) - 1), times m for the sum.
    The sigma_a sum is at least m^a and at least m^(a+1)/(a + 1), so its
    bound overshoots it less than 5-fold: where the bound reaches the limit
    by less than one digit, _sigma_sum_reaches decides exactly, up to
    POINTWISE_MAX.  brute_force_sum refuses a longer scan anyway, so past
    it the refusal here stands only where m^(a+1)/(a + 1) reaches the limit.
    """
    limit = sys.get_int_max_str_digits() or math.inf
    if m < 2:
        return 0.0
    if spec.tag == "sigma" and spec.a >= 2:
        a = spec.a
        if a >= 4 * limit:  # 2^a alone is too long, and a may not fit a float
            top = math.inf
        else:
            factor = (-1 / math.expm1(-(a - 1) / m) if summed
                      else 1 + 2.0 ** -a * (a + 1) / (a - 1))
            top = a * math.log10(m) + math.log10(factor)
    elif spec.tag == "d_k":
        top = ((m.bit_length() - 1) * math.log10(spec.k)
               + (math.log10(m) if summed else 0.0))
    else:
        return 0.0
    reached = top >= limit
    if reached and summed and spec.tag == "sigma" and top - limit < 1:
        if m <= POINTWISE_MAX:
            reached = _sigma_sum_reaches(m, spec.a, 10 ** limit)
        else:
            reached = m ** (spec.a + 1) >= (spec.a + 1) * 10 ** limit
    if reached:
        raise ResourceLimitError(
            f"{spec.label()} to {m} reaches integers of more than {limit} "
            "digits, the most a report writes")
    return top


# Rosser and Schoenfeld (1962): sum_{p<=x} 1/p < ln ln x + B + 1/ln^2 x for
# x > 1, with Mertens' constant B; and sum_p 1/(p(p-1)) = 0.77315... < 0.7732
MERTENS_B = 0.2614972128476428


def _refuse_long_table(spec: FnSpec, m: int) -> None:
    """Refuse, before any work, a sieve of spec to m that _refuse_unwritable
    refuses, or whose table of Python ints may write more digits than a
    table of int64s to SIEVE_ROWS_MAX does (19 a row).

    An int v >= 1 has at most log10(v) + 1 digits.  sigma_a's rows take
    its row bound m times.  d_k(n) <= k^Omega(n), so a d_k table writes at
    most sum_{n<=m} (1 + Omega(n) log10 k) digits, where
      sum_{n<=m} Omega(n) = sum_{p^j<=m} floor(m/p^j)
                          <= m (sum_{p<=m} 1/p + sum_p 1/(p(p-1)))
                          <  m (ln ln m + B + 1/ln^2 m + 0.7732).
    """
    top = _refuse_unwritable(spec, m, summed=False)
    if _walk_dtype(spec, m) is not object or m < 2:
        return
    if spec.tag == "d_k":
        ln = math.log(m)
        omega = m * (math.log(ln) + MERTENS_B + 1 / ln ** 2 + 0.7732)
        what, total = "", math.ceil(m + math.log10(spec.k) * omega)
    else:
        digits = math.floor(top) + 1
        what, total = f"{digits}-digit values, ", m * digits
    if total > SIEVE_ROWS_MAX * 19:
        raise ResourceLimitError(
            f"sieve of {spec.label()} to {m} may write {what}{total} digits "
            f"in all, past the {SIEVE_ROWS_MAX * 19} of int64s")


def _sigma_sum_reaches(m: int, a: int, top: int) -> bool:
    """Whether sum_{n<=m} sigma_a(n) = sum_{d<=m} d^a floor(m/d) >= top.

    The terms of d near m dominate.  They are summed exactly, from d = m
    down, in rounds that double the count, until the head plus a lower
    bound on the rest, d <= n, reaches top, or the head plus an upper
    bound stays below it.  As t^a is convex, the trapezoid and midpoint
    rules bound sum_{d<=n} d^a, and floor(m/d) >= floor(m/n) there:
      rest >= floor(m/n) (n^(a+1)/(a + 1) + n^a/2),
      rest <= (n + 1/2)^(a+1)/(a + 1) + m (m/2 + 1)^a / a,
    the last term for sum_{d<=m/2} d^a (floor(m/d) - 1) <= m sum d^(a-1).
    The bounds differ by about a(a + 1)/(8 n^2) + 2^-a of the sum, so for
    m much larger than a the check before the first term decides unless
    the sum lies that close to top; each round of k terms narrows them by
    about e^(-ak/m), which settles m near a in a round or two.
    """
    extra = m * (m // 2 + 1) ** a // a + 1
    head, n = 0, m
    while n:
        power = n ** a
        if head + (m // n) * (2 * n + a + 1) * power // (2 * a + 2) >= top:
            return True
        if head + (2 * n + 1) ** (a + 1) // ((a + 1) << (a + 1)) + 1 + extra < top:
            return False
        low = max(n - max(64, m - n), 0)
        head += sum(d ** a * (m // d) for d in range(n, low, -1))
        n = low
    return head >= top


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------
# Each handler but verify returns its report rows; main writes them.

def _cmd_sieve(args):
    spec = FnSpec.parse(args.fn)
    limit = args.limit
    if limit < 1:
        raise ValueError("--limit must be >= 1")
    if limit > SIEVE_ROWS_MAX:
        raise ResourceLimitError(
            f"sieve emits one row per integer; {limit} exceeds the "
            f"{SIEVE_ROWS_MAX} row cap")
    _refuse_long_table(spec, limit)
    label = spec.label()
    return ({"n": n, "fn": label, "value": v}
            for lo, values in _walk_chunks(spec, 1, limit + 1, SEGMENT_SIZE)
            for n, v in enumerate(values.tolist(), lo))


def _cmd_sum(args):
    spec = FnSpec.parse(args.fn)
    algo = args.algorithm
    if algo == "auto":  # the first route that computes the fn, else brute
        algo = next((name for name, (tag, _) in ROUTES.items()
                     if tag == spec.tag), "brute")
    if algo == "brute":
        _refuse_unwritable(spec, math.floor(args.x), summed=True)
        return [brute_force_sum(spec, args.x, bound=args.oracle_bound,
                                workers=args.workers)]
    tag, route = ROUTES[algo]
    if spec.tag != tag:
        raise ValueError(f"--algorithm {algo} computes {tag} only")
    return [route(args.x)]


def _cmd_explicit(args):
    target = resolve_target(args.target)
    zeros = _load_zeros(args.zeros)
    cfg = TruncationConfig(num_zero_pairs=args.pairs, tail_terms=args.tail,
                           tail_variant=args.tail_variant)
    return [evaluate_explicit(target, args.x, zeros, cfg,
                              bound=args.oracle_bound)]


def _cmd_voronoi(args):
    kind = args.kind
    n_terms = args.terms
    if n_terms is None:
        n_terms = default_terms(kind, args.x)
    last_term = None
    if kind == "full":
        out = voronoi_full(args.x, n_terms)
        value, last_term = out.value, out.last_term
        reference = float(divisor_sum_hyperbola(args.x).value)
    elif kind == "truncated":
        value = voronoi_truncated(args.x, n_terms)
        reference = divisor_delta_reference(args.x)
    else:
        value = sierpinski_sum(args.x, n_terms)
        reference = float(circle_lattice_sum(math.floor(args.x)))
    return [{"x": args.x, "kind": kind, "n_terms": n_terms, "value": value,
             "reference": reference, "residual": value - reference,
             "last_term": last_term}]


def _cmd_delta(args):
    target = resolve_target(args.target)
    has_grid = args.grid_lo is not None or args.grid_hi is not None
    if args.x is not None and has_grid:
        raise ValueError("give either --x or a --grid-lo/--grid-hi pair, not both")
    if args.x is not None:
        points = [args.x]
    elif args.grid_lo is None or args.grid_hi is None:
        raise ValueError("delta needs --x or both --grid-lo and --grid-hi")
    else:
        points = half_integer_grid(args.grid_lo, args.grid_hi, args.ratio)
    samples = delta_samples(target, points, bound=args.oracle_bound)
    # hand the rows over one by one, dropping each as it is read, so the
    # report's lines never sit beside the whole grid's samples
    samples.reverse()
    return (samples.pop() for _ in range(len(samples)))


# ap --kind -> its sum and main term on the progression, or over every n
_AP_SUMS = {"harmonic": (harmonic_sum, harmonic_main_term),
            "fractional": (fractional_part_sum, fractional_main_term)}


def _cmd_ap(args):
    if (args.q is None) != (args.a is None):
        raise ValueError("--q and --a must be given together")
    ap = APSpec(q=args.q, a=args.a) if args.q is not None else None
    xf = args.x
    if args.kind == "divisor":
        if ap is None:
            raise ValueError("--kind divisor needs --q and --a")
        res = ap_divisor_sum(xf, ap)
        value, predicted, label = res.value, ap_main_term(xf, ap), res.fn
    else:
        exact, main = _AP_SUMS[args.kind]
        value, predicted = exact(xf, ap, bound=args.oracle_bound), main(xf, ap)
        label = f"{args.kind}_{ap.q}_{ap.a}" if ap else args.kind
    residual = value - predicted
    return [{"x": xf, "fn": label, "value": value, "predicted": predicted,
             "residual": residual, "residual_times_x": residual * xf}]


def _cmd_fit(args):
    if args.samples_output == "-":
        raise ValueError("--samples-output needs a file path; stdout is "
                         "for the fit report")
    if args.samples_output and args.output != "-" and (
            os.path.realpath(args.samples_output) == os.path.realpath(args.output)):
        raise ValueError("--samples-output and --output name the same file; "
                         "the fit report would overwrite the samples")
    target = resolve_target(args.target)
    grid = half_integer_grid(args.grid_lo, args.grid_hi, args.ratio)
    samples = delta_samples(target, grid, bound=args.oracle_bound)
    fit = exponent_fit(samples)
    if args.samples_output:
        emit_report(samples, "csv", args.samples_output)
    return [fit]


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------
# Each suite returns (label, passed, detail) triples.  The suites re-derive
# small instances of the library's defining identities rather than trusting
# cached constants, so a unit drift in any module shows up here.

# label, identity and its parameters, n_max, what the coefficients are, and
# the walked functions whose product they equal
_IDENTITY_CHECKS = (
    ("squarefree_kernel", "zeta_sq_over_zeta2s", {}, 4000, "2^omega",
     (FnSpec("two_omega"),)),
    ("d_of_square", "zeta_cu_over_zeta2s", {}, 4000, "d(n^2)", ("d_of_square",)),
    ("d_squared", "zeta_4_over_zeta2s", {}, 4000, "d(n)^2", ("d_squared",)),
    *((f"d_{k}_convolution", "zeta_k", {"k": k}, 4000, f"d_{k}",
       (FnSpec("d_k", k=k),)) for k in (3, 4, 5)),
    ("sigma_product", "sigma_product", {"a": 1, "b": 2}, 2000, "sigma_1 sigma_2",
     (FnSpec("sigma", a=1), FnSpec("sigma", a=2))),
)


def _suite_identities(args) -> list[tuple[str, bool, str]]:
    checks = []

    def walk(f, top):
        return _segment_values(f, 1, top + 1)

    for label, identity, params, n_max, name, fns in _IDENTITY_CHECKS:
        # coef is 1-indexed, the walked values start at n = 1
        coef = dirichlet_coefficients(identity, n_max, **params)
        values = math.prod(walk(f, n_max) for f in fns)
        bad = sum(c != v for c, v in zip(coef[1:], values.tolist()))
        checks.append((label, bad == 0,
                       f"{name} coefficients, n <= {n_max}, {bad} mismatches"))

    m = 20000
    bad = sum(1 for n, d in enumerate(walk(FnSpec("d"), m).tolist(), 1)
              if hermite_divisor_count(n) != d)
    checks.append(("hermite", bad == 0,
                   f"floor-sum divisor count, n <= {m}, {bad} mismatches"))

    m = 2000
    lattice = int(walk(FnSpec("r2"), m).sum())
    expected = circle_lattice_sum(m)  # origin excluded by contract
    checks.append(("r2_vs_circle", lattice == expected,
                   f"sum r2(n <= {m}) = {lattice}, circle count {expected}"))
    return checks


def _suite_summatory(args) -> list[tuple[str, bool, str]]:
    checks = []
    frozen = [(divisor_sum_hyperbola(10).value, 27, "D(10)"),
              (divisor_sum_hyperbola(100).value, 482, "D(100)"),
              (squarefree_divisor_sum(10).value, 23, "S_2omega(10)")]
    ok = all(got == want for got, want, _ in frozen)
    checks.append(("anchor_values", ok,
                   ", ".join(f"{name} = {got} (want {want})"
                             for got, want, name in frozen)))

    # each route against the brute profile of the fn it computes
    m = 1500
    oracle = {tag: brute_force_profile(FnSpec(tag), range(1, m + 1),
                                       workers=args.workers)
              for tag in dict.fromkeys(tag for tag, _ in ROUTES.values())}
    bad = sum(any(route(x).value != oracle[tag][x - 1].value
                  for tag, route in ROUTES.values())
              for x in range(1, m + 1))
    checks.append(("algorithm_agreement", bad == 0,
                   f"three sublinear routes vs brute force, x <= {m}, "
                   f"{bad} mismatches"))

    big = 10 ** 6
    a = divisor_sum_hyperbola(big).value
    b = divisor_sum_from_squarefree(big).value
    checks.append(("hyperbola_vs_convolution", a == b,
                   f"D({big}) = {a} vs {b}"))

    x = 5000
    direct = sum(x // n for n in range(1, x + 1))
    checks.append(("floor_sum", floor_sum(x) == direct,
                   f"floor_sum({x}) = {floor_sum(x)}, direct {direct}"))
    return checks


def _suite_zeta(args) -> list[tuple[str, bool, str]]:
    checks = []
    targets = [
        ("zeta(0)", zeta(0.0).real, -0.5),
        ("zeta(2)", zeta(2.0).real, math.pi ** 2 / 6),
        ("zeta_prime(2)", zeta_derivative(2.0).real, -0.937548254),
        ("gamma_1", stieltjes(1), -0.072815845),
        ("zeta(-1)", zeta(-1.0).real, -1.0 / 12.0),
        ("zeta(-3)", zeta(-3.0).real, 1.0 / 120.0),
        ("zeta_prime(-2)", zeta_derivative(-2.0).real, -0.030448457),
    ]
    worst = max(abs(got - want) for _, got, want in targets)
    checks.append(("special_values", worst < 1e-8,
                   f"7 anchor constants, worst abs err {worst:.3g}"))

    residual = abs(zeta(complex(0.5, 14.134725142)))
    checks.append(("first_zero", residual < 1e-6,
                   f"|zeta(1/2 + i t_1)| = {residual:.3g}"))

    def xi(s: complex) -> complex:
        # completed form pi^(-s/2) Gamma(s/2) zeta(s), symmetric under s -> 1-s
        return cmath.exp(-0.5 * s * math.log(math.pi)
                         + _lgamma_complex(s / 2)) * zeta(s)

    worst = 0.0
    for s in (complex(0.3, 2.0), complex(0.75, 0.5), complex(0.6, 3.0)):
        lhs = xi(s)
        rhs = xi(1 - s)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    checks.append(("functional_equation", worst < 1e-8,
                   f"completed-form symmetry at 3 strip points, worst rel err {worst:.3g}"))

    worst = 0.0
    h = 1e-5
    for s in (complex(2.0, 0.0), complex(0.5, 5.0)):
        fd = (zeta(s + h) - zeta(s - h)) / (2 * h)
        got = zeta_derivative(s)
        worst = max(worst, abs(fd - got) / abs(got))
    checks.append(("derivative_fd", worst < 1e-6,
                   f"central difference vs zeta_derivative, worst rel err {worst:.3g}"))
    return checks


def _suite_bessel(args) -> list[tuple[str, bool, str]]:
    checks = []
    anchors = [
        ("J1(1)", bessel_J1(1.0), 0.44005058574493355),
        ("Y1(1)", bessel_Y1(1.0), -0.7812128213002887),
        ("K1(1)", bessel_K1(1.0), 0.6019072301972346),
    ]
    worst = max(abs(got - want) for _, got, want in anchors)
    checks.append(("anchor_values", worst < 1e-8,
                   f"J1/Y1/K1 at z = 1, worst abs err {worst:.3g}"))

    rng = random.Random(1905)
    z = np.array([rng.uniform(0.5, 50.0) for _ in range(20)])
    # the array goes to _evaluate: perfbench/trace_boot.py rebinds the
    # public names to wrappers that take one float
    w = (_evaluate("bessel_J1", z) * _evaluate("bessel_Y0", z)
         - _evaluate("bessel_J0", z) * _evaluate("bessel_Y1", z))
    worst = float(np.max(np.abs(w - 2.0 / (math.pi * z))))
    checks.append(("wronskian", worst < 1e-8,
                   f"J1 Y0 - J0 Y1 vs 2/(pi z) at 20 points, worst abs err {worst:.3g}"))

    worst = 0.0
    for fn in (bessel_J1, bessel_Y1, bessel_K1):
        lo = fn(12.0 - 1e-9)
        hi = fn(12.0 + 1e-9)
        worst = max(worst, abs(hi - lo))
    checks.append(("branch_continuity", worst < 1e-8,
                   f"series/asymptotic handoff jump, worst {worst:.3g}"))
    return checks


def _suite_explicit(args) -> list[tuple[str, bool, str]]:
    checks = []
    zeros = _load_zeros(args.zeros)

    got = nontrivial_zero_sum("two_omega_sum", 100.5, zeros, 1)[0][1]
    want = 1.368549735280956
    checks.append(("first_pair_term", abs(got - want) < 1e-9,
                   f"one-pair sum at x = 100.5: {got!r} (want {want!r})"))

    constant, main = main_term("two_omega_sum", 10)
    ok = constant == -0.5 and abs(main - 21.866763425223986) < 1e-12
    checks.append(("main_term_anchor", ok,
                   f"two_omega main term at x = 10: ({constant}, {main})"))

    worst = 0.0
    for target in ("divisor_sum", "two_omega_sum"):
        for x in (10.5, 100.5, 1000.5, 10000.5, 100000.5):
            for variant in TAIL_VARIANTS:
                worst = max(worst, abs(trivial_zero_tail(target, x, 10,
                                                         variant=variant)))
    checks.append(("tail_magnitude", worst <= 0.02,
                   f"|tail| over x >= 10.5, both variants: max {worst:.3g}"))

    cfg = TruncationConfig(num_zero_pairs=5, tail_terms=5)
    ev = evaluate_explicit("divisor_sum", 100, zeros, cfg)
    want_exact = (divisor_sum_hyperbola(99).value
                  + divisor_sum_hyperbola(100).value) / 2.0
    checks.append(("midpoint_average", ev.exact == want_exact,
                   f"integer x = 100 averages to {ev.exact} (want {want_exact})"))

    total = ev.constant_term + ev.main_term + ev.zero_sum_at(5) + ev.trivial_tail
    ok = abs(total - ev.total_at(5)) < 1e-12
    checks.append(("decomposition", ok,
                   f"constant+main+zeros+tail = {total} vs total_at {ev.total_at(5)}"))
    return checks


def _suite_reports(args) -> list[tuple[str, bool, str]]:
    checks = []
    want_header = "x,exact,predicted,delta,delta_over_x14,delta_over_x12"
    checks.append(("delta_header", DELTA_CSV_HEADER == want_header,
                   f"frozen header {DELTA_CSV_HEADER!r}"))

    row = divisor_sum_hyperbola(10 ** 6)
    got = render_csv([row])
    want = "x,fn,value,algorithm\n1000000,d,13970034,hyperbola\n"
    checks.append(("sum_row", got == want, f"D(10^6) CSV row {got.strip()!r}"))

    samples = [delta_error("divisor_sum", x) for x in (100.5, 1000.5, 20000.5)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "delta.csv")
        emit_report(samples, "csv", path)
        with open(path, "rb") as fh:
            first = fh.read()
        back = read_delta_csv(path)
        emit_report(back, "csv", path)
        with open(path, "rb") as fh:
            second = fh.read()
    checks.append(("csv_round_trip", first == second,
                   f"emit/parse/emit over {len(samples)} rows, "
                   f"{len(first)} bytes, byte-identical {first == second}"))
    return checks


SUITES = {
    "identities": _suite_identities,
    "summatory": _suite_summatory,
    "zeta": _suite_zeta,
    "bessel": _suite_bessel,
    "explicit": _suite_explicit,
    "reports": _suite_reports,
}


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    passed = 0
    total = 0
    for name in names:
        for label, ok, detail in SUITES[name](args):
            total += 1
            passed += 1 if ok else 0
            print(f"{'ok  ' if ok else 'FAIL'} {name}.{label}: {detail}")
    print(f"{passed}/{total} checks passed")
    return EXIT_OK if passed == total else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# command -> its handler and the formats its report is written in, default
# first; an explicit report's partial-sum trajectory fits no flat CSV row
_HANDLERS = {
    "sieve": (_cmd_sieve, FORMATS),
    "sum": (_cmd_sum, FORMATS),
    "explicit": (_cmd_explicit, ("json",)),
    "voronoi": (_cmd_voronoi, FORMATS),
    "delta": (_cmd_delta, FORMATS),
    "ap": (_cmd_ap, FORMATS),
    "fit": (_cmd_fit, ("json", "csv")),
}


def _fail(code: int, message: str) -> int:
    print(f"divlab: error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    try:
        probe, _ = pre.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or EXIT_USAGE)

    parser, subparsers = _build_parser()
    try:
        if probe.config:
            config = _read_config_file(probe.config)
            _seed_config(subparsers, config)
    except FileNotFoundError as exc:
        return _fail(EXIT_INPUT, str(exc))
    except TableFormatError as exc:
        return _fail(EXIT_INPUT, f"config file: {exc}")
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "verify":
            return _cmd_verify(args)
        handler, formats = _HANDLERS[args.command]
        fmt = args.format or formats[0]
        if fmt not in formats:
            raise ValueError(f"{args.command} reports are "
                             f"{' or '.join(formats).upper()} only")
        emit_report(handler(args), fmt, args.output)
        return EXIT_OK
    except (TableFormatError, OSError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    except (ResourceLimitError, AccuracyError) as exc:
        return _fail(EXIT_RESOURCE, str(exc))
    except (PoleError, ValueError, TypeError) as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
