"""Seeded inputs for the ``brauer-fresh`` query stream.

Every batch is derived from ``(seed, batch index)`` alone, so the same seed
always yields the same queries.  A batch holds the queries of the cold
``run all`` Brauer suite in its proportions, on fresh inputs: values are
built from many small primes with random exponents, so distinct queries
share little cached work.  A few local queries carry a numerator with two
8-digit prime factors, which today costs a full integer factorization
although one place is asked.
"""

from __future__ import annotations

import random

#: Finite places the search oracle covers (``reports.ORACLE_PRIMES``).
ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
DENOMINATOR_PRIMES = (2, 3, 5, 7)
DESCENT_PRIMES = (2, 3, 5, 7, 11, 13)
#: Squarefree non-squares, as ``reports.SQUAREFREE_POOL``.
QUADRATIC_D = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, 10, -10, 15, 17, -17, 30)

#: Queries of each kind in one batch: the sample counts of the ``run all``
#: Brauer suite (``reports.SYMBOL_SAMPLES``, ``PRODUCT_SAMPLES`` and
#: ``DESCENT_SAMPLES``).  Its ``DOUBLING_SAMPLES`` are left out: they are none
#: of the three kinds, and ``cli-cold`` runs them.
KIND_COUNTS = {"local": 500, "product": 200, "descent": 20}
#: Local queries per batch with a semiprime numerator: as many as descent
#: instances, the other costly kind.  Each kind alone fills the ten queries
#: beyond the tail percentile (``run.TAIL_BEYOND``) twice over, so the tail
#: reads the costly queries and the median the common ones.
SEMIPRIMES_PER_BATCH = KIND_COUNTS["descent"]
SEMIPRIME_FACTOR_RANGE = (10**7, 10**8)

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo | 1, hi, 2)
        if is_prime(n):
            return n


def _smooth(rng, max_factors):
    n = 1
    for _ in range(rng.randint(1, max_factors)):
        n *= rng.choice(SMALL_PRIMES) ** rng.randint(1, 2)
    return n


def rational(rng, semiprime=False):
    """``±(smooth numerator)/(small denominator)`` as text, e.g. ``-90/7``."""
    num = _smooth(rng, 3)
    if semiprime:
        num *= random_prime(rng, *SEMIPRIME_FACTOR_RANGE)
        num *= random_prime(rng, *SEMIPRIME_FACTOR_RANGE)
    den = 1
    for _ in range(rng.randint(0, 2)):
        den *= rng.choice(DENOMINATOR_PRIMES)
    return "%s%d/%d" % (rng.choice(("", "-")), num, den)


def _descent_entry(rng):
    size = rng.randint(0, 2)
    n = 1
    for p in rng.sample(DESCENT_PRIMES, size):
        n *= p
    return rng.choice((1, -1)) * n


def local_query(rng, semiprime):
    return {
        "kind": "local",
        "a": rational(rng, semiprime=semiprime),
        "b": rational(rng),
        "place": rng.choice(("real",) + ORACLE_PRIMES),
        "semiprime": semiprime,
    }


def product_query(rng):
    return {"kind": "product", "a": rational(rng), "b": rational(rng)}


def descent_query(rng):
    return {
        "kind": "descent",
        "p": _descent_entry(rng),
        "q": _descent_entry(rng),
        "r": _descent_entry(rng),
        "d": rng.choice(QUADRATIC_D),
    }


def batch(seed, index):
    """The queries one fresh worker answers: batch ``index`` of ``seed``."""
    rng = random.Random("brauer-fresh:%d:%d" % (seed, index))
    kinds = [kind for kind, count in KIND_COUNTS.items() for _ in range(count)]
    rng.shuffle(kinds)
    semiprimes = [True] * SEMIPRIMES_PER_BATCH
    semiprimes += [False] * (KIND_COUNTS["local"] - SEMIPRIMES_PER_BATCH)
    rng.shuffle(semiprimes)
    semiprimes = iter(semiprimes)
    queries = []
    for kind in kinds:
        if kind == "local":
            queries.append(local_query(rng, next(semiprimes)))
        elif kind == "product":
            queries.append(product_query(rng))
        else:
            queries.append(descent_query(rng))
    return queries
