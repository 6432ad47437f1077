"""Groebner engine: reduced Groebner bases over QQ and GF(p).

Every GF(p) run (``buchberger`` over GF(p), and each prime of the modular
QQ pipeline) is F4 (Faugere, JPAA 139, 1999): each round takes every
live pair whose lcm has the lowest degree and reduces them together in
one Macaulay matrix. The rows are both shifted elements of each pair;
symbolic preprocessing gives every monomial of the matrix that some
leading monomial divides a pivot row, its first divisor in list order
shifted onto it. The pair rows are cleared in every pivot column, and the
reduced row echelon form of what is left gives the new basis elements,
each with a new leading monomial. A reduced echelon form is unique, so
the two kernels give the same rows: matrices of at most ``_SPARSE_CELLS``
cells are reduced on dicts with the reducer's ``_step``, larger ones in
numpy (int64 below p = 2^31, object above). Each matrix's rows x columns
are charged to the term budget before it is allocated, so the budget also
bounds the dense kernel's memory.

The fraction-free ZZ runs (the direct QQ attempt and the certificate)
take one S-pair at a time: normal selection (smallest lcm in the active
order, ties by pair index). Both kinds of run use Gebauer-Moeller
elimination, which implements Buchberger's product and chain criteria.
Each pair's lcm is computed once, when the pair is created; live pairs
sit in a dict keyed ``(i, j)`` that Gebauer-Moeller prunes, and in a heap
from which pruned pairs are skipped when they come up. Resource caps
bound the number of processed S-pairs and coefficient operations;
exceeding one raises :class:`GroebnerResourceError`, never a wrong answer.

Exponent vectors are packed into single integers (16-bit digits, degree
first for grevlex) so that monomial comparison is integer comparison,
divisibility is one masked subtraction, and the lcm is taken digit-wise
on the packed integers.

The reducer takes each next term from a heap of pending monomials (lazy
deletion: keys no longer in the remainder are skipped), since every term
a step creates lies below the one it cancels. Both kinds of run only
append to the basis, so a run shares one divisor memo among its S-pair
reductions (ZZ) or symbolic preprocessing (F4): a monomial's first match
in list order, once found, stays its first match, and a miss only
rescans the elements appended since. Reductions over a fixed list
(interreduction, the certificate's generator check, ``normal_forms``)
search afresh on each call.

One reducer and one S-polynomial routine serve every coefficient domain.
A step subtracts a monic divisor ``c`` times, where ``c`` is the
coefficient being cancelled: GF(p) runs keep their basis monic and reduce
every touched coefficient mod p, and ``normal_forms`` over QQ makes its
divisors monic with Fraction coefficients. Over ZZ the step is
fraction-free: it scales the remainder by lc/g and subtracts the divisor
c/g times, with g = gcd(lc, c). The direct ZZ run also strips the content
every few steps and gives up when a coefficient outgrows its swell guard.

Over QQ a direct ZZ run on the generators with denominators cleared is
attempted first under the swell guard; systems whose intermediates swell
(the final reduced basis is typically tiny even when intermediates
explode) switch to a modular pipeline: reduced bases are computed modulo
a deterministic stream of 30-bit primes, the majority leading-term shape
is kept, coefficients are combined by CRT and lifted by rational
reconstruction, and the candidate is certified exactly, fraction-free on
its integer multiples: every input generator must reduce to zero modulo
the candidate, and the candidate must be closed under S-polynomial
reduction. Those checks prove the candidate is the reduced basis of an
ideal containing the input ideal; agreement of the leading-term shape
across several independent primes pins it to the input ideal itself, the
same assurance model as standard modular Groebner engines.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd, inf, isqrt

import numpy as np

from .fields import Field, is_prime
from .poly import (
    GREVLEX,
    LEX,
    Polynomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    order_key,
)

DEFAULT_PAIR_BUDGET = 10**6
DEFAULT_TERM_BUDGET = 10**8

_DIGIT_BITS = 16
_DIGIT = 1 << _DIGIT_BITS
_MAXE = (1 << (_DIGIT_BITS - 1)) - 1


class GroebnerResourceError(RuntimeError):
    """Raised when a basis computation exceeds its S-pair or term-op budget."""


class _Swell(Exception):
    """Internal: direct rational run abandoned due to coefficient growth."""


class _Budget:
    __slots__ = ("pair_limit", "op_limit", "pairs", "ops", "matrices", "max_cells")

    def __init__(self, pair_limit, op_limit):
        self.pair_limit = pair_limit
        self.op_limit = op_limit
        self.pairs = 0
        self.ops = 0
        self.matrices = 0
        self.max_cells = 0

    def charge_pair(self):
        self.pairs += 1
        if self.pairs > self.pair_limit:
            raise GroebnerResourceError(self._exceeded("S-pair", self.pair_limit))

    def charge_ops(self, n):
        self.ops += n
        if self.ops > self.op_limit:
            raise GroebnerResourceError(self._exceeded("term-operation", self.op_limit))

    def _exceeded(self, what, limit):
        return (
            f"{what} budget exceeded ({limit}) at spairs={self.pairs}, "
            f"term_ops={self.ops}, matrices={self.matrices}"
        )

    def charge_matrix(self, cells):
        """Charge an F4 matrix's rows x columns, before it is allocated."""
        self.charge_ops(cells)
        self.matrices += 1
        self.max_cells = max(self.max_cells, cells)


class _PackCtx:
    """Packed-monomial context for a fixed variable count and order.

    grevlex layout (big-endian digits): [total degree][M-e_{n-1}]...[M-e_0]
    with M = 2^15-1, so integer comparison realizes grevlex. lex layout:
    [e_0]...[e_{n-1}]. In both, ``divides`` reduces to checking that no
    16-bit digit of a single subtraction has its high bit set.
    """

    __slots__ = ("n", "order", "corr", "himask", "emask", "_shifts")

    def __init__(self, n, order):
        self.n = n
        self.order = order
        self._shifts = [_DIGIT_BITS * i for i in range(n)]
        self.emask = (1 << (_DIGIT_BITS * n)) - 1  # below the grevlex degree digit
        if order == GREVLEX:
            corr = 0
            for i in range(n):
                corr |= _MAXE << (_DIGIT_BITS * i)
            self.corr = corr
            digits = n + 1
        elif order == LEX:
            self.corr = 0
            digits = n
        else:
            raise ValueError(f"unknown monomial order {order!r}")
        hi = 0
        for i in range(digits):
            hi |= (1 << (_DIGIT_BITS - 1)) << (_DIGIT_BITS * i)
        self.himask = hi

    def pack(self, exp):
        if self.order == GREVLEX:
            deg = 0
            k = 0
            for i, e in enumerate(exp):
                if e > _MAXE:
                    raise ValueError("exponent too large to pack")
                deg += e
                k |= (_MAXE - e) << self._shifts[i]
            if deg > _MAXE:
                raise ValueError("total degree too large to pack")
            return (deg << (_DIGIT_BITS * self.n)) | k
        k = 0
        last = self.n - 1
        for i, e in enumerate(exp):
            if e > _MAXE:
                raise ValueError("exponent too large to pack")
            k |= e << self._shifts[last - i]
        return k

    def unpack(self, key):
        n = self.n
        if self.order == GREVLEX:
            return tuple(
                _MAXE - ((key >> self._shifts[i]) & (_DIGIT - 1)) for i in range(n)
            )
        last = n - 1
        return tuple((key >> self._shifts[last - i]) & (_DIGIT - 1) for i in range(n))

    def divides(self, a, b):
        """True when monomial a divides monomial b."""
        return not ((b - a + self.corr) & self.himask)

    def deg(self, key):
        if self.order == GREVLEX:
            return key >> (_DIGIT_BITS * self.n)
        return sum(self.unpack(key))

    def lcm(self, a, b):
        """Packed lcm, taken digit-wise on the packed integers.

        With the grevlex degree digit masked off, every digit is below
        2^15, so ``(a | H) - b`` (H = ``himask``) borrows across no digit,
        and a digit keeps its high bit iff a >= b there; that bit, shifted
        down and multiplied by 0xFFFF, masks whole digits. lex takes the
        larger digit, grevlex (digits M - e) the smaller. The grevlex
        degree digit is n M minus the digit sum, which is the packed value
        mod 0xFFFF (2^16 = 1 mod 0xFFFF); the lcm's degree is at most
        2 M < 0xFFFF, so it comes out exact.
        """
        a &= self.emask
        b &= self.emask
        hi = self.himask
        if (a | b) & hi:  # the borrow trick needs every exponent <= _MAXE
            raise ValueError("exponent too large to pack")
        m = ((((a | hi) - b) & hi) >> (_DIGIT_BITS - 1)) * (_DIGIT - 1)
        if self.order == LEX:
            return (a & m) | (b & ~m)
        e = (b & m) | (a & ~m)
        deg = (self.n * _MAXE - e % (_DIGIT - 1)) % (_DIGIT - 1)
        if deg > _MAXE:
            raise ValueError("total degree too large to pack")
        return (deg << (_DIGIT_BITS * self.n)) | e

    def check_shift(self, elt, shift):
        """Under lex, raise unless ``elt`` times monomial ``shift`` packs.

        ``elt.top`` and ``shift`` have digits of at most _MAXE, so their sum
        carries across no digit, and a digit passes _MAXE iff some term of
        the product would. grevlex needs no check: its reductions never
        raise the total degree, and ``pack`` and ``lcm`` bound that.
        """
        if (elt.top + shift) & self.himask:
            raise ValueError("exponent too large to pack")


class _Elt:
    __slots__ = ("lm", "lc", "terms", "top")

    def __init__(self, lm, lc, terms, top):
        self.lm = lm
        self.lc = lc
        self.terms = terms  # list of (packed_monomial, coeff)
        self.top = top  # lex: digit-wise max of the terms' exponents; grevlex: None


# ---------------------------------------------------------------- reducers
#
# Engine dicts map packed monomials to coefficients: residues mod ``pmod``
# in GF(p) runs, Fractions in ``normal_form`` over QQ (pmod 0), and
# integers in the fraction-free ZZ runs (the direct rational run and
# ``_certify_qq``, also pmod 0).


def _content_strip(*dicts):
    """Divide the dicts, taken as one polynomial, by their integer content."""
    g = 0
    for d in dicts:
        for c in d.values():
            g = gcd(g, c)
            if g == 1:
                return
    if g > 1:
        for d in dicts:
            for e in d:
                d[e] //= g


def _step(r, lt, red, pmod, pend, aside=()):
    """Cancel the term ``lt`` of r with ``red`` shifted onto it; returns term ops.

    A monic divisor is subtracted ``r[lt]`` times. Over ZZ a non-monic
    divisor first scales r, and the terms set ``aside`` with it, by
    lc(red)/g with g = gcd(lc(red), r[lt]), so the step stays fraction-free.
    Each key the step inserts into r is pushed, negated, onto the heap
    ``pend``; keys it updates or cancels are already there. A new term's
    coefficient is -mult * cg, never zero: both factors are nonzero
    (nonzero residues mod a prime in GF(p) runs).
    """
    c = r[lt]
    ops = len(red.terms)
    if red.lc == 1:
        mult = c
    else:
        g = gcd(red.lc, c)
        scale = red.lc // g
        mult = c // g
        if scale != 1:
            for d in (r, aside):
                for e in d:
                    d[e] *= scale
                ops += len(d)
    shift = lt - red.lm
    if pmod:
        for e, cg in red.terms:
            ee = e + shift
            old = r.get(ee)
            if old is None:
                r[ee] = -mult * cg % pmod
                heappush(pend, -ee)
            else:
                v = (old - mult * cg) % pmod
                if v:
                    r[ee] = v
                else:
                    del r[ee]
    else:
        for e, cg in red.terms:
            ee = e + shift
            old = r.get(ee)
            if old is None:
                r[ee] = -mult * cg
                heappush(pend, -ee)
            else:
                v = old - mult * cg
                if v:
                    r[ee] = v
                else:
                    del r[ee]
    return ops


_STRIP_EVERY = 8


def _scan(lt, basis, hit, upto, corr, himask):
    """First element of ``basis`` whose leading monomial divides ``lt``, or None.

    Resumes at ``upto[lt]`` and records the answer in ``hit`` or ``upto``
    (the divisor memo, see ``_reduce``).
    """
    k = upto.get(lt, 0)
    # an islice costs more than most first scans; take one only to resume
    for red in islice(basis, k, None) if k else basis:
        if not (lt - red.lm + corr) & himask:
            hit[lt] = red
            return red
    upto[lt] = len(basis)
    return None


def _reduce(r, basis, budget, ctx, pmod=0, full=False, swell_bits=None, memo=None):
    """Reduce the dict r by ``basis`` (first match in list order), in place.

    Without ``full`` only leading terms are reduced; with it every term is,
    and terms no divisor reaches are set aside (they all exceed the terms
    still to be reduced). ``swell_bits`` marks the direct ZZ run: the
    content is stripped every few steps, a coefficient longer than
    ``swell_bits`` bits raises :class:`_Swell`, and the remainder comes back
    primitive with a positive leading coefficient.

    The next term comes from ``pend``, a heap of negated keys built once
    from r, to which ``_step`` pushes every key it inserts; entries no
    longer in r are skipped. This is exact because a step only creates
    terms below the one it cancels, so a key once taken never returns.

    ``memo`` = (hit, upto) caches the divisor search across calls on one
    basis that only grows by appending, as in ``_core``'s S-pair loop:
    ``hit[m]`` is m's first match, which later appends cannot change, and
    ``upto[m]`` is how far the basis was scanned without one, so a miss
    rescans only the elements appended since. Without ``memo`` the cache
    lives for this call only.
    """
    hit, upto = memo or ({}, {})
    corr, himask = ctx.corr, ctx.himask
    lex = ctx.order == LEX
    aside = {}
    steps = 0
    pend = [-e for e in r]
    heapify(pend)
    while r:
        lt = -heappop(pend)
        if lt not in r:
            continue
        red = hit.get(lt) or _scan(lt, basis, hit, upto, corr, himask)
        if red is None:
            if not full:
                break
            aside[lt] = r.pop(lt)
            continue
        if lex:
            ctx.check_shift(red, lt - red.lm)
        budget.charge_ops(_step(r, lt, red, pmod, pend, aside))
        steps += 1
        if swell_bits is not None and steps % _STRIP_EVERY == 0:
            _content_strip(r, aside)
            if any(
                abs(c).bit_length() > swell_bits
                for d in (r, aside)
                for c in d.values()
            ):
                raise _Swell
    r.update(aside)
    if swell_bits is not None and r:
        _content_strip(r)
        lt = max(r)
        if r[lt] < 0:
            for e in r:
                r[e] = -r[e]
    return r


def _spoly(f, g, big):
    """S-polynomial of ZZ engine elements: f shifted to ``big`` = lcm, one step by g."""
    shift = big - f.lm
    s = {e + shift: c for e, c in f.terms}
    _step(s, big, g, 0, [])
    return s


def _monic(d, pmod):
    inv = pow(d[max(d)], -1, pmod)
    return {e: (c * inv) % pmod for e, c in d.items()}


# ------------------------------------------------------------- core driver


def _gm_update(pairs, lms, new_index, ctx):
    """Gebauer-Moeller update of ``pairs`` ({(i, j): lcm}) for basis element new_index.

    Removes, in place, the old pairs the new leading monomial makes
    redundant, adds the new pairs that survive, and returns the added ones.
    """
    lmf = lms[new_index]
    corr, himask = ctx.corr, ctx.himask  # divides(a, b): not (b - a + corr) & himask
    lcm = ctx.lcm
    new_lcms = [lcm(lm, lmf) for lm in lms[:new_index]]
    gone = [
        ij
        for ij, lij in pairs.items()
        if not (lij - lmf + corr) & himask
        and lij != new_lcms[ij[0]]
        and lij != new_lcms[ij[1]]
    ]
    for ij in gone:
        del pairs[ij]
    groups = {}
    for i, big in enumerate(new_lcms):
        if big in groups:
            groups[big].append(i)
        else:
            groups[big] = [i]
    minimal = []
    for big in sorted(groups):
        for other in minimal:
            if not (big - other + corr) & himask:
                break
        else:
            minimal.append(big)
    added = {}
    coprime = lmf - corr  # lcm(a, lmf) == a * lmf iff the two are coprime
    for big in minimal:
        members = groups[big]
        for i in members:
            if big == lms[i] + coprime:
                break
        else:
            added[members[0], new_index] = big
    pairs.update(added)
    return added


def _make_elt(d, ctx):
    lm = max(d)
    terms = sorted(d.items(), reverse=True)
    top = reduce(ctx.lcm, d) if ctx.order == LEX else None
    return _Elt(lm, d[lm], terms, top)


class _Basis:
    """A basis under construction: its elements and their live pairs.

    Live pairs sit in ``pairs`` ({(i, j): lcm}, pruned by Gebauer-Moeller)
    and in ``heap`` as (rank, lcm, i, j), where rank is the lcm's degree in
    graded runs (F4 takes every pair of the lowest degree at once) and 0
    otherwise; pruned entries are skipped when they come up.
    """

    __slots__ = ("ctx", "graded", "elts", "lms", "pairs", "heap")

    def __init__(self, ctx, graded):
        self.ctx = ctx
        self.graded = graded
        self.elts = []
        self.lms = []
        self.pairs = {}
        self.heap = []

    def add(self, d):
        ctx = self.ctx
        elt = _make_elt(d, ctx)
        self.elts.append(elt)
        self.lms.append(elt.lm)
        added = _gm_update(self.pairs, self.lms, len(self.elts) - 1, ctx)
        for (i, j), big in added.items():
            heappush(self.heap, (ctx.deg(big) if self.graded else 0, big, i, j))

    def seed(self, seeds):
        """Add the seeds in a fixed order; True when one is a constant."""
        for d in sorted(seeds, key=lambda d: (max(d), len(d), sorted(d.items()))):
            if self.ctx.deg(max(d)) == 0:
                return True
            self.add(d)
        return False

    def unit(self):
        """The reduced basis {1} of the whole ring, as packed dicts."""
        return [{self.ctx.pack((0,) * self.ctx.n): 1}]

    def reduced(self, budget, pmod=0, swell_bits=None):
        """The reduced basis: minimalize, then interreduce the tails."""
        ctx, lms = self.ctx, self.lms
        minimal = []
        for i in sorted(range(len(lms)), key=lms.__getitem__):
            if not any(ctx.divides(lms[j], lms[i]) for j in minimal):
                minimal.append(i)
        kept = [self.elts[i] for i in minimal]
        out = []
        for pos in range(len(kept)):
            others = kept[:pos] + kept[pos + 1:]
            d = dict(kept[pos].terms)
            out.append(_reduce(d, others, budget, ctx, pmod, True, swell_bits))
        out.sort(key=max)
        return out


def _core(seeds, ctx, budget, swell_bits=None, freeze=False):
    """Run Buchberger on fraction-free ZZ dicts; returns the reduced basis as dicts.

    One S-pair at a time, the smallest lcm first. With ``freeze`` set, any
    surviving S-pair that does not reduce to zero raises ValueError instead
    of growing the basis, and nothing is returned (used to certify
    candidates).
    """
    gb = _Basis(ctx, graded=False)
    if gb.seed(seeds):
        return gb.unit()
    engine = gb.elts
    memo = ({}, {})  # divisor cache of the S-pair reductions (see _reduce)
    while gb.heap:
        _, big, i, j = heappop(gb.heap)
        if gb.pairs.pop((i, j), None) is None:
            continue
        budget.charge_pair()
        if ctx.order == LEX:
            for f in (engine[i], engine[j]):
                ctx.check_shift(f, big - f.lm)
        s = _spoly(engine[i], engine[j], big)
        r = _reduce(s, engine, budget, ctx, swell_bits=swell_bits, memo=memo)
        if not r:
            continue
        if freeze:
            raise ValueError("candidate basis is not closed under S-polynomials")
        if ctx.deg(max(r)) == 0:
            return gb.unit()
        gb.add(r)
    if not freeze:
        return gb.reduced(budget, swell_bits=swell_bits)


# ---------------------------------------------------------------- F4 (GF(p))

# Matrices of at most this many cells (rows x columns) are reduced on dicts,
# larger ones in numpy, whose per-call overhead is repaid from about here on
# (measured on the small-bases systems and on E_k of F210 over GF(p)).
_SPARSE_CELLS = 4096


def _f4(seeds, ctx, budget, pmod):
    """Reduced basis of monic seeds over GF(pmod) by F4, as packed dicts.

    Each round takes every live pair whose lcm has the lowest degree and
    reduces them together in one Macaulay matrix (``_f4_matrix``). Every
    row of the reduced echelon form that is left has a new leading
    monomial and joins the basis.
    """
    gb = _Basis(ctx, graded=True)
    if gb.seed(seeds):
        return gb.unit()
    memo = ({}, {})  # divisor cache of the symbolic preprocessing (see _reduce)
    heap, pairs = gb.heap, gb.pairs
    while heap:
        batch, rank = [], None
        while heap and (not batch or heap[0][0] == rank):
            rank, big, i, j = heappop(heap)
            if pairs.pop((i, j), None) is not None:
                budget.charge_pair()
                batch.append((big, i, j))
        if not batch:
            break
        for d in _f4_matrix(batch, gb.elts, ctx, budget, pmod, memo):
            if ctx.deg(max(d)) == 0:
                return gb.unit()
            gb.add(d)
    return gb.reduced(budget, pmod)


def _f4_matrix(batch, elts, ctx, budget, pmod, memo):
    """Reduce the S-pairs of ``batch`` together; returns the new elements' dicts.

    The rows are both shifted elements of each pair. Symbolic preprocessing
    gives every monomial of the matrix that some leading monomial divides a
    pivot row: its first divisor in list order, shifted onto it. A pair row
    equal to the pivot row of its own leading monomial is left out, since
    it would reduce to zero. The matrix's rows x columns are charged to the
    term budget before either kernel runs.
    """
    lex = ctx.order == LEX
    hit, upto = memo
    corr, himask = ctx.corr, ctx.himask
    rows, cols, seen = [], set(), set()
    for big, i, j in batch:
        cols.add(big)
        lead = hit.get(big) or _scan(big, elts, hit, upto, corr, himask)
        for k in (i, j):
            f = elts[k]
            if f is lead or (k, big) in seen:
                continue  # the pivot row of big, or a row taken already
            seen.add((k, big))
            shift = big - f.lm
            if lex:
                ctx.check_shift(f, shift)
            row = {e + shift: c for e, c in f.terms}
            cols.update(row)
            rows.append(row)
    todo = list(cols)
    piv = {}
    n = len(elts)
    low = min(f.lm for f in elts)  # a divisor of m is at most m in every order
    for m in todo:  # grows while it is walked
        red = hit.get(m)
        if red is None:
            if m < low or upto.get(m) == n:
                continue
            red = _scan(m, elts, hit, upto, corr, himask)
            if red is None:
                continue
        piv[m] = red
        shift = m - red.lm
        if lex:
            ctx.check_shift(red, shift)
        for e, _ in red.terms:
            e += shift
            if e not in cols:
                cols.add(e)
                todo.append(e)
    cells = (len(piv) + len(rows)) * len(cols)
    budget.charge_matrix(cells)
    kernel = _sparse_echelon if cells <= _SPARSE_CELLS else _dense_echelon
    return kernel(rows, piv, cols, pmod)


def _sparse_echelon(rows, piv, cols, pmod):
    """Reduced echelon form of ``rows`` modulo the pivot rows, on dicts.

    ``piv`` maps a column (monomial) to the element whose shift onto it is
    that column's pivot row. Each pivot row, in column order, clears its
    column in the rows that have it. Each row left then joins the echelon
    form: it is reduced by the rows already there, made monic, and clears
    its leading column in them. Returns the nonzero monic rows in ascending
    order of leading monomial. The rows are reduced in place; ``cols``
    (every column of the matrix) is only used by ``_dense_echelon``.
    """
    scratch = []  # _step's pushes; the sweep goes by column, not by heap
    for m in sorted(piv, reverse=True):
        for r in rows:
            if m in r:
                _step(r, m, piv[m], pmod, scratch)
    # leading monomial -> monic row, of the echelon form so far; a row goes
    # to _step as an _Elt over its dict items, which _step only iterates
    ech = {}
    for r in rows:
        for lm, d in ech.items():
            if lm in r:
                _step(r, lm, _Elt(lm, 1, d.items(), None), pmod, scratch)
        if not r:
            continue
        lm = max(r)
        inv = pow(r[lm], -1, pmod)
        new = {e: c * inv % pmod for e, c in r.items()}
        red = _Elt(lm, 1, new.items(), None)
        for d in ech.values():
            if lm in d:
                _step(d, lm, red, pmod, scratch)
        ech[lm] = new
    return [ech[lm] for lm in sorted(ech)]


def _dense_echelon(rows, piv, cols, pmod):
    """``_sparse_echelon`` in numpy, with the same result: the reduced
    echelon form is unique.

    The pair rows form a dense residue matrix over ``cols`` (int64 below
    2^31, object above, see ``_residue_dtype``), stored transposed: one
    contiguous row per column. Each pivot row, in column order, clears its
    column in every pair row by one broadcast update of the rows of its
    terms; each element's coefficient vector is built once per matrix.
    An update lowers an entry by at most (p - 1)^2 and each pivot updates
    it at most once, so entries are reduced mod p on the way only where
    int64 could overflow; a pivot's column is reduced before it is used.
    What is left lives in the non-pivot columns and goes through
    ``_rref_mod_p``.
    """
    dtype = _residue_dtype(pmod)
    cols = sorted(cols, reverse=True)
    idx = {m: k for k, m in enumerate(cols)}
    at = np.zeros((len(cols), len(rows)), dtype)
    for r, row in enumerate(rows):
        at[[idx[m] for m in row], r] = list(row.values())
    wrap = dtype is np.int64 and len(piv) * (pmod - 1) ** 2 >= 1 << 63
    vals = {}  # reducing element -> its coefficients, as a column
    for m in sorted(piv, reverse=True):
        col = at[idx[m]] % pmod
        if not col.any():
            continue
        red = piv[m]
        v = vals.get(red)
        if v is None:
            v = vals[red] = np.array([[c] for _, c in red.terms], dtype)
        shift = m - red.lm
        dst = [idx[e + shift] for e, _ in red.terms]
        new = at[dst] - v * col
        at[dst] = new % pmod if wrap else new
    free = [k for k, m in enumerate(cols) if m not in piv]
    ech, _ = _rref_mod_p(np.ascontiguousarray(at[free].T) % pmod, pmod)
    names = [cols[k] for k in free]
    out = [{names[k]: int(row[k]) for k in np.flatnonzero(row)} for row in ech]
    out.reverse()
    return out


def _residue_dtype(p):
    """int64 holds every product of two residues below p^2 < 2^62; object above."""
    return np.int64 if p < 1 << 31 else object


# inner terms per int64 product in ``_mulmod``: 2^16 * 2^47 = 2^63
_MULMOD_CHUNK = 1 << 16


def _mulmod(a, b, p):
    """``a @ b`` mod p for residue arrays, exact for any inner dimension.

    Over int64 (p < 2^31) b is split into 16-bit halves, so a product of
    a residue and a half is below 2^47, and the inner dimension is summed
    in chunks of 2^16 terms, each below 2^63.
    """
    if a.dtype == object:
        return a.dot(b) % p
    out = 0
    for s in range(0, a.shape[-1] or 1, _MULMOD_CHUNK):
        x, y = a[..., s : s + _MULMOD_CHUNK], b[s : s + _MULMOD_CHUNK]
        out = (out + x @ (y & 0xFFFF) % p + (x @ (y >> 16) % p << 16)) % p
    return out


# Column panel width of ``_rref_mod_p``. Of 16, 32 and 64, 16 was best on
# the F4 and link matrices of F210 over GF(p) (about 10 % ahead of 32), and
# 32 on the small-bases matrices, most of which fit in one panel of 32.
_PANEL = 32


def _rref_mod_p(a, p):
    """Reduced row echelon form of the residue array ``a`` mod prime p.

    Returns (the nonzero rows, their pivot columns). Rows are monic, and
    the pivot columns are cleared in every other row; ``a`` is overwritten.

    The columns are taken in panels of b = ``_PANEL``. The rows below the
    rank so far are zero left of the panel, so the panel's pivots are those
    of their n x b slice, found by the single-pivot Gauss-Jordan loop on
    the slice alone. That loop also records, in up to b extra columns, each
    row as a combination of the pivot rows' originals; one product with the
    rest of those rows completes the new echelon rows across all columns,
    and one more clears the panel's pivot columns in every other row.
    """
    n, m = a.shape
    piv = []
    for c0 in range(0, m, _PANEL):
        r0 = len(piv)
        if r0 == n:
            break
        w = min(_PANEL, m - c0)
        s = np.zeros((n - r0, w + min(w, n - r0)), a.dtype)
        s[:, :w] = a[r0:, c0 : c0 + w]
        order = np.arange(r0, n)  # the row of ``a`` that each row of s began as
        cols = []
        for col in range(w):
            r = len(cols)
            if r == len(s):
                break
            nz = np.flatnonzero(s[r:, col])
            if not nz.size:
                continue
            i = r + nz[0]
            if i != r:
                s[[r, i]] = s[[i, r]]
                order[[r, i]] = order[[i, r]]
            s[r, w + r] = 1  # unscaled so far: its original, once
            s[r] = s[r] * pow(int(s[r, col]), -1, p) % p
            f = s[:, col].copy()
            f[r] = 0
            s -= f[:, None] * s[r]
            s %= p
            cols.append(col)
        k = len(cols)
        if not k:
            continue
        top, below = s[:k, :w], order[:0]
        if c0 + w < m:  # later panels need the right part and the rows below
            right = _mulmod(s[:k, w : w + k], a[order[:k], c0 + w :], p)
            top, below = np.concatenate([top, right], axis=1), order[k:]
        rest = np.concatenate([np.arange(r0), below])
        if rest.size:
            left = a[rest, c0:]
            left = (left - _mulmod(left[:, cols], top, p)) % p
            a[:r0, c0:] = left[:r0]
            a[r0 + k : r0 + k + below.size, c0:] = left[r0:]
        a[r0 : r0 + k, c0:] = top
        piv += [c0 + c for c in cols]
    return a[: len(piv)], piv


# ----------------------------------------------------- modular QQ pipeline


def _prime_stream():
    n = (1 << 30) - 1
    while n > 1 << 29:
        if is_prime(n):
            yield n
        n -= 2


def _ratrec(c, m):
    """Rational reconstruction of c mod m (Wang bounds); None on failure."""
    bound = isqrt(m // 2)
    r0, r1 = m, c % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0:
        return None
    n, d = r1, s1
    if d < 0:
        n, d = -n, -d
    if d > bound or gcd(n, d) != 1 or gcd(d, m) != 1:
        return None
    return Fraction(n, d)


def _crt_pair(r1, m1, r2, m2):
    d = (r2 - r1) * pow(m1, -1, m2) % m2
    return r1 + m1 * d, m1 * m2


def _int_dicts_from_frac(terms):
    """Primitive integer multiple of a dict with Fraction coefficients."""
    den = 1
    for c in terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    d = {e: int(c * den) for e, c in terms.items()}
    _content_strip(d)
    return d


def _modular_qq(system, order, budget, stats):
    """Reduced GB over QQ via multi-modular runs with exact certification.

    A trivial candidate {1} passes ``_certify_qq`` vacuously, so a modular
    {1} rests on the agreement of the primes alone.
    """
    vars = system[0].vars
    ctx = _PackCtx(len(vars), order)

    gens_int = [
        _int_dicts_from_frac({ctx.pack(e): Fraction(c) for e, c in p.terms.items()})
        for p in system
    ]

    runs = []  # (prime, shape, {lm: {mono: residue}})
    stream = _prime_stream()
    max_primes = 256
    min_agree = 3
    batch = 4
    used = 0
    while used < max_primes:
        for _ in range(min(batch, max_primes - used)):
            p = next(stream)
            used += 1
            if any(d[max(d)] % p == 0 for d in gens_int):
                continue  # a leading coefficient vanished; skip prime
            seeds = [
                _monic({e: c % p for e, c in d.items() if c % p}, p) for d in gens_int
            ]
            out = _f4(seeds, ctx, budget, p)
            shape = tuple(sorted(max(d) for d in out))
            runs.append((p, shape, {max(d): d for d in out}))
        batch = 2

        shapes = {}
        for _, shape, _d in runs:
            shapes[shape] = shapes.get(shape, 0) + 1
        best_shape = max(shapes, key=lambda s: (shapes[s], s))
        good = [r for r in runs if r[1] == best_shape]
        if len(good) < min_agree:
            continue

        # CRT residues over the union of supports, then lift to rationals
        candidate = []
        ok = True
        for lm in best_shape:
            support = set()
            for _, _, elems in good:
                support |= set(elems[lm])
            rec = {}
            for mono in support:
                res, mod = 0, 1
                for p, _, elems in good:
                    res, mod = _crt_pair(res, mod, elems[lm].get(mono, 0), p)
                val = _ratrec(res, mod)
                if val is None:
                    ok = False
                    break
                if val:
                    rec[mono] = val
            if not ok:
                break
            candidate.append(rec)
        if not ok:
            continue

        if _certify_qq(candidate, gens_int, ctx, budget):
            stats["primes"] = [p for p, _, _ in good]
            candidate.sort(key=max)
            return [
                {ctx.unpack(e): c for e, c in d.items()} for d in candidate
            ]
    raise GroebnerResourceError("modular reconstruction did not converge")


def _certify_qq(candidate, gens_int, ctx, budget):
    """Exact certificate: candidate is a GB and contains the generators.

    Success proves the candidate is the reduced basis of an ideal that
    contains the input ideal; the leading-term shape was already matched
    against several independent mod-p reduced bases of the input. Only
    zero remainders are tested, which scaling cannot change, so the checks
    run fraction-free on the candidate with its denominators cleared.
    The trivial candidate {1} passes vacuously: ``_core`` stops on a
    constant seed before the closure test, and every generator reduces to
    zero modulo 1. ``two_parallel``'s QQ exclusion does not rely on it.
    """
    cand_int = [_int_dicts_from_frac(d) for d in candidate]
    elts = [_make_elt(d, ctx) for d in cand_int]
    if any(_reduce(dict(d), elts, budget, ctx) for d in gens_int):
        return False
    try:
        _core(cand_int, ctx, budget, freeze=True)
    except ValueError:
        return False
    return True


# ------------------------------------------------------------- public API


class GroebnerBasis:
    """Reduced Groebner basis with its defining order, field, and variables.

    ``polys`` are monic, pairwise head-irreducible, sorted ascending by
    leading monomial. The generating system is retained for self checks.
    """

    def __init__(self, polys, vars, field, order, generators=None, stats=None):
        self.polys = list(polys)
        self.vars = tuple(vars)
        self.field = field
        self.order = order
        self.generators = list(generators or [])
        self.stats = stats or {}

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    @property
    def is_trivial(self) -> bool:
        return (
            len(self.polys) == 1
            and self.polys[0].is_constant()
            and not self.polys[0].is_zero()
        )

    def leading_monomials(self):
        return [p.leading_monomial(self.order) for p in self.polys]

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.polys, self.order)

    def staircase(self, limit=1_000_000):
        """Standard monomials (not divisible by any leading monomial).

        Returns a sorted list of exponent tuples, or ``None`` when the
        staircase is unbounded.
        """
        n = len(self.vars)
        lms = self.leading_monomials()
        if any(sum(lm) == 0 for lm in lms):
            return []
        if not lms:
            return None if n else [()]
        for i in range(n):
            if not any(
                lm[i] > 0 and all(lm[j] == 0 for j in range(n) if j != i)
                for lm in lms
            ):
                return None
        key = order_key(self.order)
        seen = {(0,) * n}
        frontier = [(0,) * n]
        while frontier:
            nxt = []
            for m in frontier:
                for i in range(n):
                    cand = m[:i] + (m[i] + 1,) + m[i + 1:]
                    if cand in seen:
                        continue
                    if any(monomial_divides(lm, cand) for lm in lms):
                        continue
                    seen.add(cand)
                    nxt.append(cand)
                    if len(seen) > limit:
                        raise GroebnerResourceError("staircase enumeration limit hit")
            frontier = nxt
        return sorted(seen, key=key)

    def quotient_dimension(self):
        """Number of standard monomials, or ``math.inf`` when unbounded."""
        stairs = self.staircase()
        if stairs is None:
            return inf
        return len(stairs)

    def self_check(self):
        """Assert the defining GB postconditions; raises AssertionError.

        Checks: every generator has normal form 0; every S-polynomial of
        basis pairs has normal form 0; the basis is monic and inter-reduced.
        """
        rems = normal_forms(self.generators, self.polys, self.order)
        for g, r in zip(self.generators, rems):
            assert r.is_zero(), f"generator does not reduce to 0: {g}"
        pairs = [(i, j) for i in range(len(self.polys)) for j in range(i)]
        spolys = [spolynomial(self.polys[i], self.polys[j], self.order) for i, j in pairs]
        for (i, j), r in zip(pairs, normal_forms(spolys, self.polys, self.order)):
            assert r.is_zero(), f"S-pair ({i},{j}) not zero"
        key = order_key(self.order)
        lms = self.leading_monomials()
        for idx, p in enumerate(self.polys):
            assert p.leading_coefficient(self.order) == self.field.one(), "not monic"
            for e in p.terms:
                for jdx, lm in enumerate(lms):
                    if jdx != idx and monomial_divides(lm, e):
                        raise AssertionError("basis is not inter-reduced")
        assert [key(lm) for lm in lms] == sorted(key(lm) for lm in lms)


def spolynomial(f: Polynomial, g: Polynomial, order=GREVLEX) -> Polynomial:
    """S-polynomial over the coefficient field (monic normalization)."""
    lmf = f.leading_monomial(order)
    lmg = g.leading_monomial(order)
    big = monomial_lcm(lmf, lmg)
    field = f.field
    tf = {monomial_div(big, lmf): field.inv(f.leading_coefficient(order))}
    tg = {monomial_div(big, lmg): field.inv(g.leading_coefficient(order))}
    mf = Polynomial(f.vars, tf, field, order)
    mg = Polynomial(g.vars, tg, field, order)
    return mf * f - mg * g


def normal_forms(fs, basis, order=GREVLEX) -> list:
    """Full remainders of each f in ``fs`` under multivariate division by ``basis``.

    A remainder contains no term divisible by any basis leading monomial
    and differs from its f by an element of the generated ideal. Reducers
    are chosen first-match in list order, so the results are deterministic.
    The divisors are made monic and packed once for the whole batch; every
    f must live in one ring.
    """
    fs = list(fs)
    basis = [b for b in basis if not b.is_zero()]
    if not fs or not basis:
        return fs
    ctx = _PackCtx(len(fs[0].vars), order)
    budget = _Budget(10**9, 10**12)
    elts = [
        _make_elt({ctx.pack(e): c for e, c in b.monic(order).terms.items()}, ctx)
        for b in basis
    ]
    out = []
    for f in fs:
        r = {ctx.pack(e): c for e, c in f.terms.items()}
        r = _reduce(r, elts, budget, ctx, f.field.p, full=True)
        out.append(
            Polynomial(f.vars, {ctx.unpack(e): c for e, c in r.items()}, f.field, order)
        )
    return out


def normal_form(f: Polynomial, basis, order=GREVLEX) -> Polynomial:
    """Full remainder of f under division by ``basis`` (see :func:`normal_forms`)."""
    return normal_forms([f], basis, order)[0]


def buchberger(
    system,
    order: str = GREVLEX,
    field: Field | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> GroebnerBasis:
    """Compute the reduced Groebner basis of ``system``.

    The reduced basis is the unique one for (ideal, order), so the result
    does not depend on generator order. A nonzero constant discovered at
    any point short-circuits to the trivial basis {1}.
    """
    system = list(system)
    if not system:
        raise ValueError("empty system has no variable context; pass generators")
    vars = system[0].vars
    field = field or system[0].field
    for p in system:
        if p.vars != vars or p.field != field:
            raise ValueError("system mixes rings")
    budget = _Budget(pair_budget, term_budget)
    stats = {}
    nonzero = [p for p in system if not p.is_zero()]
    if not nonzero:
        return GroebnerBasis([], vars, field, order, system, stats)

    ctx = _PackCtx(len(vars), order)

    def finish(dicts):
        stats.update({"spairs": budget.pairs, "term_ops": budget.ops})
        if stats.get("mode") != "direct":  # the GF(p) runs reduced F4 matrices
            stats["matrices"] = budget.matrices
            stats["max_matrix_cells"] = budget.max_cells
        polys = [Polynomial(vars, d, field, order) for d in dicts]
        return GroebnerBasis(polys, vars, field, order, system, stats)

    if field.is_rational:
        # direct run with a swell guard; fall back to the modular pipeline
        try:
            seeds = [
                _int_dicts_from_frac({ctx.pack(e): c for e, c in p.terms.items()})
                for p in nonzero
            ]
            sub_budget = _Budget(
                min(budget.pair_limit, 20_000), min(budget.op_limit, 2_000_000)
            )
            out = _core(seeds, ctx, sub_budget, swell_bits=4096)
            budget.pairs += sub_budget.pairs
            budget.ops += sub_budget.ops
            stats["mode"] = "direct"
            dicts = []
            for d in out:
                lc = d[max(d)]
                dicts.append({ctx.unpack(e): Fraction(c, lc) for e, c in d.items()})
            return finish(dicts)
        except (_Swell, GroebnerResourceError):
            stats["mode"] = "modular"
        return finish(_modular_qq(nonzero, order, budget, stats))

    # prime field: direct computation
    pmod = field.p
    seeds = [
        _monic({ctx.pack(e): c for e, c in p.terms.items()}, pmod) for p in nonzero
    ]
    out = _f4(seeds, ctx, budget, pmod)
    return finish([{ctx.unpack(e): c for e, c in d.items()} for d in out])


def ideal_is_trivial(gb: GroebnerBasis) -> bool:
    """True iff the reduced basis is {1} (empty systems give the zero ideal)."""
    return gb.is_trivial


def _monic_set(polys, order):
    out = set()
    for p in polys:
        if not p.is_zero():
            out.add(frozenset(p.monic(order).terms.items()))
    return out


def ideal_equal(sys_a, sys_b, order: str = GREVLEX, field: Field | None = None) -> bool:
    """True iff the two systems generate the same ideal.

    Both systems must share one variable tuple (align names beforehand).
    Generator lists that coincide up to scaling and order are accepted
    without basis computations; otherwise each side is reduced modulo the
    other side's basis.
    """
    sys_a = list(sys_a)
    sys_b = list(sys_b)
    if not sys_a and not sys_b:
        return True
    allv = {p.vars for p in sys_a + sys_b}
    if len(allv) != 1:
        raise ValueError("variable sets differ; align names first")
    if not sys_a or not sys_b:
        other = sys_a or sys_b
        return all(p.is_zero() for p in other)
    if _monic_set(sys_a, order) == _monic_set(sys_b, order):
        return True
    gb_b = buchberger(sys_b, order, field)
    if any(not r.is_zero() for r in normal_forms(sys_a, gb_b.polys, order)):
        return False
    gb_a = buchberger(sys_a, order, field)
    return all(r.is_zero() for r in normal_forms(sys_b, gb_a.polys, order))


def specialize(field: Field, polys):
    """Map a rational-coefficient system into GF(p).

    Raises :class:`~prismring.fields.NonInvertibleError` when p divides a
    coefficient denominator.
    """
    out = []
    for p in polys:
        out.append(
            Polynomial(
                p.vars, {e: field.coerce(c) for e, c in p.terms.items()}, field, p.order
            )
        )
    return out
