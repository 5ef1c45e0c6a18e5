"""Cyclotomic polynomials Phi_k(v) and exact tests against them.

Every denominator factor like 1 - q^k t^m, with q = v^2 and t a power of
q, is a product of cyclotomic polynomials.  Phi_k is irreducible, primitive
and monic, so the Phi_k-part of any gcd is found by divisibility tests
alone: `phi_divides` folds a polynomial modulo v^k - 1 into k residues and
reduces those by Phi_k, and `phi_multiplicity` repeats the test on
derivatives, Phi_k being squarefree.  `phi_factors` writes a polynomial as
lead * prod Phi_k^e by a search over every k with phi(k) at most its
degree, or says it is no such product.  Polynomials are dense integer
lists, low to high.

Three tables keep what is built, each a pure function of its key, for the
life of the process: each Phi_k, each product prod Phi_k^e by its (k, e)
pairs, and each factorisation (or None) by the polynomial's sorted terms.
A case's denominators are products of few distinct factor lists, so each is
multiplied out and searched once; the tables hold immutable tuples, and the
public functions hand out copies where a caller could change them.
"""

from operator import add, sub

_TOTIENTS = [0, 1]  # Euler's phi(k) at index k, extended on demand
_PHI = {}  # k -> (phi(k), nonzero (j, c) of Phi_k below its monic lead)
_PRODUCTS = {}  # tuple of (k, e) pairs -> product_coeffs' answer
_FACTORS = {}  # sorted (exponent, coeff) items -> phi_factors' answer
_MISSING = object()  # no _FACTORS entry; () and None are both answers
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def totient(k):
    """Euler's phi(k)."""
    table = _TOTIENTS
    while len(table) <= k:
        m = x = len(table)
        p = 2
        while p * p <= x:
            if x % p == 0:
                while x % p == 0:
                    x //= p
                m -= m // p
            p += 1
        if x > 1:
            m -= m // x
        table.append(m)
    return table[k]


def k_bound(n):
    """A bound on every k with phi(k) <= n.

    k / phi(k) = prod_{p | k} p / (p - 1), and prod_{p | k} (p - 1) <= phi(k),
    so k has at most as many prime factors as the longest run of first
    primes whose (p - 1) product stays <= n, and k / phi(k) is at most
    that run's product of p / (p - 1).
    """
    num = den = 1
    for p in _PRIMES:
        if den * (p - 1) > n:
            break
        num *= p
        den *= p - 1
    return n * num // den


def phi_terms(k):
    """Phi_k(v) as (degree, sparse terms below the monic lead); built on
    first use as v^k - 1 divided by Phi_d for every proper divisor d."""
    got = _PHI.get(k)
    if got is None:
        p = [-1] + [0] * (k - 1) + [1]
        for d in range(1, k):
            if k % d == 0:
                p = div_monic(p, *phi_terms(d))
        got = _PHI[k] = (len(p) - 1,
                         tuple((j, c) for j, c in enumerate(p[:-1]) if c))
    return got


def div_monic(a, d, low):
    """Exact quotient of the dense list a by the monic polynomial v^d + low."""
    a = list(a)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            base = i - d
            for j, gc in low:
                a[base + j] -= c * gc
    if any(a[:d]):
        raise ArithmeticError("inexact polynomial division")
    return a[d:]


def product_coeffs(pairs):
    """prod Phi_k^e over the (k, e) pairs as a dense tuple, multiplied out
    on the first call for these pairs and kept."""
    key = tuple(pairs)
    got = _PRODUCTS.get(key)
    if got is not None:
        return got
    out = [1]
    for k, e in key:
        d, low = phi_terms(k)
        for _ in range(e):
            n = len(out)
            new = [0] * d + out
            for j, c in low:
                seg = new[j:j + n]
                if c == 1:
                    new[j:j + n] = map(add, seg, out)
                elif c == -1:
                    new[j:j + n] = map(sub, seg, out)
                else:
                    new[j:j + n] = [s + c * x for s, x in zip(seg, out)]
            out = new
    got = _PRODUCTS[key] = tuple(out)
    return got


def phi_divides(al, lo, k):
    """Whether Phi_k divides sum_i al[i] v^(lo + i).

    Folding modulo v^k - 1 (a multiple of Phi_k) leaves k residues; their
    remainder by Phi_k is the remainder of the whole polynomial.
    """
    d, low = phi_terms(k)
    r = [0] * k
    for i, c in enumerate(al):
        if c:
            r[(lo + i) % k] += c
    for i in range(k - 1, d - 1, -1):
        c = r[i]
        if c:
            base = i - d
            for j, pc in low:
                r[base + j] -= c * pc
    return not any(r[:d])


def phi_multiplicity(al, lo, k, cap):
    """min(cap, multiplicity of Phi_k in sum_i al[i] v^(lo + i)).

    Phi_k is squarefree, so Phi_k^m divides the polynomial exactly when
    Phi_k divides it and its first m - 1 derivatives.
    """
    m = 0
    while m < cap and phi_divides(al, lo, k):
        m += 1
        if m < cap:
            al = [(lo + i) * x for i, x in enumerate(al)]
            lo -= 1
    return m


def phi_factors(p):
    """Sorted (k, e) pairs with p = lead * prod Phi_k^e, or None.

    p is a polynomial dict with a nonzero constant term.  Each distinct p
    is searched once (`_search_factors`) and its answer kept.
    """
    key = tuple(sorted(p.items()))
    got = _FACTORS.get(key, _MISSING)
    if got is _MISSING:
        got = _FACTORS[key] = _search_factors(p)
    return got


def _search_factors(p):
    """phi_factors without the table.

    A product of cyclotomic polynomials is palindromic up to sign, which
    rejects most other polynomials at once; the rest is a search over every
    k with phi(k) at most the degree left.
    """
    n = max(p)
    if not n:
        return ()
    lead = p[n]
    c0 = p.get(0, 0)
    if c0 != lead and c0 != -lead:
        return None
    for e, c in p.items():
        if c0 * p.get(n - e, 0) != lead * c:
            return None
    q = [p.get(i, 0) for i in range(n + 1)]
    out = []
    k = 0
    bound = k_bound(n)
    while n:
        k += 1
        if k > bound:
            return None
        d = totient(k)
        if d > n:
            continue
        m = 0
        while phi_divides(q, 0, k):
            q = div_monic(q, *phi_terms(k))
            m += 1
        if m:
            out.append((k, m))
            n -= m * d
            bound = k_bound(n)
    return tuple(out)
