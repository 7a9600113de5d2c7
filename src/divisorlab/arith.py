"""Pointwise arithmetic functions over a smallest-prime-factor sieve.

Everything here is exact integer arithmetic.  Factorizations come from the
stored smallest prime factor (trial division past the table limit or without
a table), and every multiplicative function is evaluated from them.  This is
the tests' pointwise reference; the commands take their values from the
prime-exponent walk of summatory.

Supported functions: d, d_k, sigma_a (a >= 0), mu, mu^2, omega, Omega,
2^omega, 2^Omega, r2 (representations as a sum of two squares), and the
divisor count restricted to a residue class d(n; q, a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ResourceLimitError

# Hard cap on sieve size: a uint32 entry per integer, 4 GiB of table.
TABLE_LIMIT_MAX = 1 << 30

# Cap on the divisor-count sieve (the tests' d(n) oracle) and on the term
# counts of the Bessel series; both refuse past it.
DIVISOR_SIEVE_MAX = 10 ** 8 + 10 ** 6


# ---------------------------------------------------------------------------
# factor table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorTable:
    """Smallest-prime-factor table for 2..limit, immutable after build."""

    limit: int
    spf: np.ndarray  # uint32, spf[n] = smallest prime factor of n, spf[0..1] = 0

    def factorize(self, n: int) -> tuple[tuple[int, int], ...]:
        """Prime factorization of n as ((p1, e1), (p2, e2), ...), p1 < p2 < ..."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range 1..{self.limit}")
        out = []
        spf = self.spf
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return tuple(out)


def build_factor_table(limit: int) -> FactorTable:
    """Sieve smallest prime factors up to limit.

    Memory is 4 bytes per integer; limits above TABLE_LIMIT_MAX (2^30) are
    refused rather than attempted.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > TABLE_LIMIT_MAX:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds supported bound {TABLE_LIMIT_MAX}")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            block = spf[p * p:: p]
            block[block == 0] = p
    unset = spf == 0
    unset[:2] = False
    idx = np.nonzero(unset)[0]
    spf[idx] = idx
    return FactorTable(limit=limit, spf=spf)


def primes_up_to(limit: int) -> list[int]:
    """Simple prime list; independent of the factor table."""
    if limit < 2:
        return []
    mark = np.ones(limit + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p:: p] = False
    return np.flatnonzero(mark).tolist()


def _factorize_trial(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # remaining factors are coprime to 6; step through 6k +- 1
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                out.append((q, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def factorize(n: int, table: FactorTable | None = None) -> tuple[tuple[int, int], ...]:
    if table is not None and n <= table.limit:
        return table.factorize(n)
    return _factorize_trial(n)


# ---------------------------------------------------------------------------
# pointwise functions
# ---------------------------------------------------------------------------

def divisors(n: int, table: FactorTable | None = None) -> list[int]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n, table):
        divs = [d * q for d in divs for q in (p ** k for k in range(e + 1))]
    return sorted(divs)


def divisor_count(n: int, table: FactorTable | None = None) -> int:
    out = 1
    for _, e in factorize(n, table):
        out *= e + 1
    return out


def divisor_count_k(n: int, k: int, table: FactorTable | None = None) -> int:
    """Number of ordered k-tuples with product n: prod binom(e + k - 1, k - 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = 1
    for _, e in factorize(n, table):
        out *= math.comb(e + k - 1, k - 1)
    return out


def sigma(n: int, a: int = 1, table: FactorTable | None = None) -> int:
    """Sum of a-th powers of divisors, by divisor enumeration.  a >= 0."""
    if a < 0:
        raise ValueError("sigma_a supported for integer a >= 0 only")
    return sum(d ** a for d in divisors(n, table))


def mobius(n: int, table: FactorTable | None = None) -> int:
    fac = factorize(n, table)
    if any(e >= 2 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def omega_distinct(n: int, table: FactorTable | None = None) -> int:
    return len(factorize(n, table))


def omega_total(n: int, table: FactorTable | None = None) -> int:
    return sum(e for _, e in factorize(n, table))


def hermite_divisor_count(n: int) -> int:
    """d(n) via pairing d <-> n/d across sqrt(n); O(sqrt n), no factorization."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = math.isqrt(n)
    small = sum(1 for d in range(1, r + 1) if n % d == 0)
    return 2 * small - (1 if r * r == n else 0)


def restricted_divisor_count(n: int, q: int, a: int,
                             table: FactorTable | None = None) -> int:
    """Count of divisors of n congruent to a mod q."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if not 0 <= a < q:
        raise ValueError("need 0 <= a < q")
    return sum(1 for d in divisors(n, table) if d % q == a)


def two_squares_count(n: int, table: FactorTable | None = None) -> int:
    """r2(n) = 4 * sum over divisors of the mod-4 character chi(d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for d in divisors(n, table):
        r = d & 3
        if r == 1:
            total += 1
        elif r == 3:
            total -= 1
    return 4 * total


# ---------------------------------------------------------------------------
# function specs (used by the summation layer and the CLI)
# ---------------------------------------------------------------------------

_SIMPLE_TAGS = ("d", "mu", "mu_squared", "omega", "big_omega",
                "two_omega", "two_big_omega", "r2")


@dataclass(frozen=True)
class FnSpec:
    """Selector for one arithmetic function, with parameters where needed.

    Tags: d | d_k | sigma | mu | mu_squared | omega | big_omega |
    two_omega | two_big_omega | r2 | d_restricted.
    """

    tag: str
    k: int | None = None      # d_k order, k >= 2
    a: int | None = None      # sigma exponent (>= 0) or residue for d_restricted
    q: int | None = None      # modulus for d_restricted

    def __post_init__(self):
        if self.tag in _SIMPLE_TAGS:
            if self.k is not None or self.a is not None or self.q is not None:
                raise ValueError(f"{self.tag} takes no parameters")
        elif self.tag == "d_k":
            if self.k is None or self.k < 2:
                raise ValueError("d_k requires k >= 2")
        elif self.tag == "sigma":
            if self.a is None or self.a < 0:
                raise ValueError("sigma requires integer exponent a >= 0")
        elif self.tag == "d_restricted":
            if self.q is None or self.q < 2:
                raise ValueError("d_restricted requires q >= 2")
            if self.a is None or not 1 <= self.a < self.q:
                raise ValueError("d_restricted requires 1 <= a < q")
            if math.gcd(self.a, self.q) != 1:
                raise ValueError("d_restricted requires gcd(a, q) = 1")
        else:
            raise ValueError(f"unknown function tag {self.tag!r}")

    def label(self) -> str:
        if self.tag == "d_k":
            return f"d_{self.k}"
        if self.tag == "sigma":
            return f"sigma_{self.a}"
        if self.tag == "d_restricted":
            return f"d_restricted_{self.q}_{self.a}"
        return self.tag

    @classmethod
    def parse(cls, text: str) -> "FnSpec":
        """Parse labels as produced by label(): d, d_3, sigma_2, d_restricted_4_1, ..."""
        token = text.strip()
        if token in _SIMPLE_TAGS:
            return cls(tag=token)
        if token.startswith("d_restricted_"):
            parts = token.split("_")
            if len(parts) == 4 and parts[2].isdigit() and parts[3].isdigit():
                return cls(tag="d_restricted", q=int(parts[2]), a=int(parts[3]))
            raise ValueError(f"bad d_restricted spec {text!r}")
        if token.startswith("d_"):
            rest = token[2:]
            if rest.isdigit():
                return cls(tag="d_k", k=int(rest))
            raise ValueError(f"bad d_k spec {text!r}")
        if token.startswith("sigma_"):
            rest = token[6:]
            try:
                return cls(tag="sigma", a=int(rest))
            except ValueError:
                raise ValueError(f"bad sigma spec {text!r}") from None
        raise ValueError(f"unknown function spec {text!r}")


def eval_arithmetic(spec: FnSpec, n: int, table: FactorTable | None = None) -> int:
    """Evaluate the selected function at one integer n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tag = spec.tag
    if tag == "d":
        return divisor_count(n, table)
    if tag == "d_k":
        return divisor_count_k(n, spec.k, table)
    if tag == "sigma":
        return sigma(n, spec.a, table)
    if tag == "mu":
        return mobius(n, table)
    if tag == "mu_squared":
        return 0 if mobius(n, table) == 0 else 1
    if tag == "omega":
        return omega_distinct(n, table)
    if tag == "big_omega":
        return omega_total(n, table)
    if tag == "two_omega":
        return 1 << omega_distinct(n, table)
    if tag == "two_big_omega":
        return 1 << omega_total(n, table)
    if tag == "r2":
        return two_squares_count(n, table)
    if tag == "d_restricted":
        return restricted_divisor_count(n, spec.q, spec.a, table)
    raise ValueError(f"unknown function tag {tag!r}")


# ---------------------------------------------------------------------------
# formal Dirichlet series coefficients
# ---------------------------------------------------------------------------

def _dirichlet_convolve(u: list[int], v: list[int]) -> list[int]:
    """(u * v)[n] = sum over d | n of u[d] v[n/d]; arrays are 1-indexed."""
    n_max = len(u) - 1
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        ud = u[d]
        if ud == 0:
            continue
        for m in range(d, n_max + 1, d):
            out[m] += ud * v[m // d]
    return out


def _id_pow(n_max: int, a: int) -> list[int]:
    """Coefficients of zeta(s - a): n^a at every n."""
    return [0] + [n ** a for n in range(1, n_max + 1)]


def _inv_zeta_even(n_max: int, shift: int) -> list[int]:
    """Coefficients of 1/zeta(2s - shift): mu(k) k^shift at n = k^2, else 0."""
    out = [0] * (n_max + 1)
    k = 1
    while k * k <= n_max:
        out[k * k] = mobius(k) * k ** shift
        k += 1
    return out


# identity -> (the shifts c of its zeta(s - c) factors, the shift c' of its
# 1/zeta(2s - c') factor or None), from the parameters k, a, b
_IDENTITIES = {
    "zeta_sq_over_zeta2s": lambda k, a, b: ((0, 0), 0),
    "zeta_cu_over_zeta2s": lambda k, a, b: ((0, 0, 0), 0),
    "zeta_4_over_zeta2s": lambda k, a, b: ((0, 0, 0, 0), 0),
    "zeta_k": lambda k, a, b: ((0,) * k, None),
    "sigma_product": lambda k, a, b: ((0, a, b, a + b), a + b),
}


def dirichlet_coefficients(identity: str, n_max: int, *, k: int | None = None,
                           a: int | None = None, b: int | None = None) -> list[int]:
    """First n_max coefficients of a ratio of zeta factors, 1-indexed.

    zeta_sq_over_zeta2s -> 2^omega(n)        (zeta(s)^2 / zeta(2s))
    zeta_cu_over_zeta2s -> d(n^2)            (zeta(s)^3 / zeta(2s))
    zeta_4_over_zeta2s  -> d(n)^2            (zeta(s)^4 / zeta(2s))
    zeta_k              -> d_k(n)            (zeta(s)^k)
    sigma_product       -> sigma_a sigma_b   (zeta zeta(s-a) zeta(s-b)
                                              zeta(s-a-b) / zeta(2s-a-b))

    Index 0 of the returned list is 0 and unused.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if identity == "zeta_k" and (k is None or k < 1):
        raise ValueError("zeta_k requires k >= 1")
    if identity == "sigma_product" and (a is None or b is None or a < 0 or b < 0):
        raise ValueError("sigma_product requires integer a, b >= 0")
    if identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    shifts, inverse = _IDENTITIES[identity](k, a, b)
    factors = [_id_pow(n_max, c) for c in shifts]
    if inverse is not None:
        factors.append(_inv_zeta_even(n_max, inverse))
    return reduce(_dirichlet_convolve, factors)


# ---------------------------------------------------------------------------
# divisor-count sieve and the shared factor table
# ---------------------------------------------------------------------------

def divisor_count_sieve(n_max: int) -> np.ndarray:
    """d(n) for 0 <= n <= n_max as int32; d[0] = 0."""
    if n_max > DIVISOR_SIEVE_MAX:
        raise ResourceLimitError(
            f"divisor table limit {n_max} exceeds {DIVISOR_SIEVE_MAX}")
    d = np.zeros(n_max + 1, dtype=np.int32)
    for k in range(1, math.isqrt(n_max) + 1):
        d[k * k:: k] += 2
        d[k * k] -= 1
    return d


@lru_cache(maxsize=8)
def shared_factor_table(limit: int = 10 ** 6) -> FactorTable:
    """Process-wide factor table, cached per argument spelling (the tests pass none)."""
    return build_factor_table(limit)
