"""Groebner engine: reduced Groebner bases over QQ and GF(p).

One driver, ``_f4``, computes every basis. Over GF(p) (``buchberger``
over GF(p), and each prime of the modular QQ pipeline) it is F4 (Faugere,
JPAA 139, 1999): each round takes the live pairs whose lcm has the lowest
degree, smallest lcm first and at most ``_ROUND_PAIRS`` of them. Over ZZ
(pmod 0, the direct attempt at a QQ basis below) there is no matrix
kernel: each round is the one pair of smallest lcm in the active order
(normal selection, ties by pair index). A round of at most
``_STEP_PAIRS`` pairs, and so every ZZ round, takes them one at a time,
as Buchberger's S-pair loop does (``_spair``): each S-polynomial is
top-reduced by the basis so far, made monic over GF(p) and primitive over
ZZ, and joins the basis before the next pair, which Gebauer-Moeller may
then prune. A larger round reduces its pairs together in one Macaulay
matrix. The rows are both shifted elements of each pair; symbolic
preprocessing gives every monomial of the matrix that some leading
monomial divides a pivot row, its first divisor in list order shifted
onto it. The pair rows are cleared in every pivot column, and the
reduced row echelon form of what is left gives the new basis elements,
each with a new leading monomial. A reduced echelon form is unique, so the
two kernels give the same rows: matrices of at most ``_SPARSE_CELLS``
cells are reduced on dicts with the reducer's ``_step``, larger ones in
numpy (int64 below p = 2^31, object above, and the final echelon form in
int16 when its updates cannot pass 2^15; a modular matrix product is one
int64 product when it cannot overflow). Each matrix is charged to the term
budget before it is allocated, for what the kernels allocate: pair rows x
columns plus the pivot rows' terms, so the budget also bounds the dense
kernel's memory. A zero-dimensional run may stop after a matrix round,
before its pairs run out, once a border-basis certificate proves the basis
so far complete: one walk up from the staircase of the elements' minimal
leading monomials gives every border monomial, and every monomial of those
elements and of the seeds left out, its normal-form vector, with no
reduction; the multiplication matrices it fills must commute and the
left-out seeds' vectors must vanish (see ``_f4`` and
``_border_certificate``).

``fglm`` (Faugere-Gianni-Lazard-Mora, JSC 16(4), 1993) reads the reduced
grevlex basis of a zero-dimensional ideal off the multiplication matrices
of its quotient and the vector of 1, in any basis of the quotient: the
link step of ``localizer.two_parallel`` hands it the matrices of the
linked quotient.

The S-pair steps of ``_f4`` and the QQ certificate's closure check (a
loop over the pairs Gebauer-Moeller keeps) share one S-pair step,
``_spair``. ``_f4`` uses Gebauer-Moeller elimination, which implements
Buchberger's product and chain criteria. New pairs are formed with the
live basis only: an element leaves it once a newer leading monomial
divides its own, though it stays a reducer. Each pair's lcm is
computed once, when the pair is created: the update takes each live
element's lcm with the new one once, without the grevlex degree digit,
and packs that digit only for the pairs it adds (see ``_gm_update``).
Live pairs sit in a dict keyed ``(i, j)`` that Gebauer-Moeller prunes,
and in a heap from which pruned pairs are skipped when they come up.
Resource caps bound the number of processed S-pairs and coefficient
operations; exceeding one raises :class:`GroebnerResourceError`, never a
wrong answer.

Exponent vectors are packed into single integers (16-bit digits, degree
first for grevlex) so that monomial comparison is integer comparison,
divisibility is one masked subtraction, and the lcm is taken digit-wise
on the packed integers.

The reducer is a plain loop: each step takes the largest term left
(``max`` over the remainder's keys) and cancels it with the first element
in list order whose leading monomial divides it. Only F4's symbolic
preprocessing keeps a divisor memo across lookups (see ``_scan``): its
basis only grows by appending, so a monomial's first match, once found,
stays its first match.

One reducer and one S-polynomial routine serve every coefficient domain.
A step subtracts a monic divisor ``c`` times, where ``c`` is the
coefficient being cancelled: GF(p) runs keep their basis monic and reduce
every touched coefficient mod p, and ``normal_forms`` over QQ makes its
divisors monic with Fraction coefficients. Over ZZ the step is
fraction-free: it scales the remainder by lc/g and subtracts the divisor
c/g times, with g = gcd(lc, c).

Coefficients cross the engine's boundary once each way. ``Field.coerce``
over QQ returns a Fraction as it is, and over GF(p) reads its numerator
and denominator; ``specialize`` coerces each coefficient once;
``_int_dicts_from_frac`` clears denominators with integer arithmetic;
and ``buchberger`` builds each monic Fraction of a QQ basis once, which
its ``Polynomial`` keeps.

Over QQ the generators are packed once, with denominators cleared, and a
direct fraction-free ZZ run (``_core``, which runs ``_f4`` over ZZ) is
attempted first. It divides each nonzero remainder by its content, makes
its leading coefficient positive, and gives up once a coefficient passes
``_SWELL_BITS`` bits or the attempt passes its caps; its work is charged
to the caller's budget either way. Systems whose intermediates swell
(the final reduced basis is typically tiny even when intermediates
explode) switch, on the same packed generators, to a modular pipeline
that takes one prime at a time from a deterministic stream of 30-bit
primes (see ``_modular_qq``). Each reduced basis mod p is filed under
its leading-term shape. Once the prime just run joins the majority shape
and that shape has at least 3 primes, its coefficients are combined by
CRT and lifted by rational reconstruction, and the candidate is
certified exactly, fraction-free on its integer multiples: every input
generator must reduce to zero modulo the candidate, and the candidate
must be closed under S-polynomial reduction. The first candidate
certified is the result. Those checks prove the candidate is the reduced
basis of an ideal containing the input ideal; agreement of the
leading-term shape across at least 3 independent primes pins it to the
input ideal itself, the assurance model of Arnold (JSC 35, 2003) and of
standard modular Groebner engines.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
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
    __slots__ = (
        "pair_limit", "op_limit", "pairs", "ops", "matrices", "max_cells", "left", "steps"
    )

    def __init__(self, pair_limit, op_limit):
        self.pair_limit = pair_limit
        self.op_limit = op_limit
        self.pairs = 0
        self.ops = 0
        self.matrices = 0
        self.max_cells = 0
        self.left = 0  # pairs that F4 runs stopped by the border certificate left
        self.steps = 0  # pairs that F4 runs reduced one at a time, not in a matrix

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
        """Charge the cells an F4 matrix allocates, before it is allocated."""
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

    def variables(self):
        """The packed monomials x_0, ..., x_{n-1}."""
        n = self.n
        return [self.pack(tuple(int(i == v) for i in range(n))) for v in range(n)]

    def pure_var(self, key):
        """The variable of which ``key`` is a power of degree >= 1, else None.

        XOR with ``corr`` turns each grevlex digit M - e into e, so the
        digits are the exponents, and a pure power has one nonzero digit.
        """
        x = (key & self.emask) ^ self.corr
        if not x:
            return None
        k = (x.bit_length() - 1) // _DIGIT_BITS
        if x & ((1 << (_DIGIT_BITS * k)) - 1):
            return None
        return k if self.order == GREVLEX else self.n - 1 - k

    def lcm(self, a, b):
        """Packed lcm of a and b, digit-wise on the packed integers.

        With the grevlex degree digit masked off, every digit is below
        2^15, so ``a + (H - b)`` (H = ``himask``) carries and borrows across
        no digit, and a digit keeps its high bit iff a >= b there; that
        bit, shifted down and multiplied by 0xFFFF, masks whole digits.
        lex takes the larger digit, grevlex (digits M - e) the smaller,
        and grevlex then packs the degree digit (``with_degree``).
        """
        emask, hi = self.emask, self.himask
        a &= emask
        b &= emask
        if (a | b) & hi:  # the digit trick needs every exponent <= _MAXE
            raise ValueError("exponent too large to pack")
        m = (((a + hi - b) & hi) >> (_DIGIT_BITS - 1)) * (_DIGIT - 1)
        if self.order == LEX:
            return b ^ ((a ^ b) & m)
        return self.with_degree(a ^ ((a ^ b) & m))

    def with_degree(self, e):
        """The grevlex monomial whose digits below the degree digit are e.

        The degree digit is n M minus the digit sum, which is e mod 0xFFFF
        (2^16 = 1 mod 0xFFFF); an lcm's degree is at most 2 M < 0xFFFF, so
        it comes out exact. Raises when the degree does not pack.
        """
        low = _DIGIT - 1
        deg = (self.n * _MAXE - e % low) % low
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


def _content_strip(d):
    """Divide the ZZ dict d by its integer content, in place."""
    g = 0
    for c in d.values():
        g = gcd(g, c)
        if g == 1:
            return
    if g > 1:
        for e in d:
            d[e] //= g


def _step(r, lt, red, pmod, aside=()):
    """Cancel the term ``lt`` of r with ``red`` shifted onto it; returns term ops.

    A monic divisor is subtracted ``r[lt]`` times. Over ZZ a non-monic
    divisor first scales r, and the terms set ``aside`` with it, by
    lc(red)/g with g = gcd(lc(red), r[lt]), so the step stays fraction-free.
    A new term's coefficient is -mult * cg, never zero: both factors are
    nonzero (nonzero residues mod a prime in GF(p) runs).
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
            else:
                v = old - mult * cg
                if v:
                    r[ee] = v
                else:
                    del r[ee]
    return ops


def _scan(lt, basis, hit, upto, corr, himask):
    """First element of ``basis`` whose leading monomial divides ``lt``, or None.

    This is the divisor memo of F4's symbolic preprocessing (see
    ``_f4_matrix``), one (hit, upto) per run, since a run only appends to
    its basis: ``hit[m]`` is m's first match in list order, which later
    appends cannot change, and ``upto[m]`` is how far the basis was scanned
    without one, so a miss resumes there and rescans only the elements
    appended since. The scan records its answer in one of the two. In the
    F4 run of E_k of F210 over GF(11), 633 of 1470 lookups hit, and 48
    more are misses known without a scan; a GF(11) two_parallel(F210, 5_1,
    5_3) pass took 141.8 ms, against 150.9 ms without the memo (faster in
    10 of 12 interleaved passes; a small-bases cycle, 6 of 10).
    """
    k = upto.get(lt, 0)
    # an islice costs more than most first scans; take one only to resume
    for red in islice(basis, k, None) if k else basis:
        if not (lt - red.lm + corr) & himask:
            hit[lt] = red
            return red
    upto[lt] = len(basis)
    return None


def _reduce(r, basis, budget, ctx, pmod=0, full=False):
    """Reduce the dict r by ``basis`` (first match in list order), in place.

    Each step cancels the largest term of r with the first element whose
    leading monomial divides it. Without ``full`` only leading terms are
    reduced; with it every term is, and terms no divisor reaches are set
    aside (they all exceed the terms still to be reduced). Over ZZ the
    remainder is some nonzero integer multiple of the reduced one; the
    direct ZZ run normalizes it (``_primitive``).
    """
    corr, himask = ctx.corr, ctx.himask
    lex = ctx.order == LEX
    aside = {}
    while r:
        lt = max(r)
        for red in basis:
            if not (lt - red.lm + corr) & himask:
                break
        else:  # no divisor
            if not full:
                break
            aside[lt] = r.pop(lt)
            continue
        if lex:
            ctx.check_shift(red, lt - red.lm)
        budget.charge_ops(_step(r, lt, red, pmod, aside))
    r.update(aside)
    return r


def _spoly(f, g, big, budget, ctx, pmod=0):
    """S-polynomial of engine elements: f shifted to ``big`` = lcm, one step by g.

    The step is charged to ``budget``; over GF(pmod) both elements are
    monic. Under lex, raises unless both shifted elements pack.
    """
    if ctx.order == LEX:
        for h in (f, g):
            ctx.check_shift(h, big - h.lm)
    shift = big - f.lm
    s = {e + shift: c for e, c in f.terms}
    budget.charge_ops(_step(s, big, g, pmod))
    return s


def _spair(gb, big, i, j, budget, pmod=0):
    """Charge the pair (i, j) of ``gb`` (lcm ``big``) as an S-pair, and
    return its S-polynomial top-reduced by the elements of ``gb``: the one
    S-pair step of ``_f4``'s small rounds (every round over ZZ) and of the
    QQ certificate's closure check."""
    budget.charge_pair()
    elts, ctx = gb.elts, gb.ctx
    s = _spoly(elts[i], elts[j], big, budget, ctx, pmod)
    return _reduce(s, elts, budget, ctx, pmod)


def _monic(d, pmod):
    inv = pow(d[max(d)], -1, pmod)
    return {e: (c * inv) % pmod for e, c in d.items()}


# ------------------------------------------------------------- core driver


def _gm_update(pairs, lms, live, ctx):
    """Gebauer-Moeller update of ``pairs`` ({(i, j): lcm}) for the newest element.

    The newest element is ``lms[-1]``. ``live`` lists, in index order, the
    older elements whose leading monomial no newer one divides; new pairs
    are formed with those only (Gebauer-Moeller's UPDATE), since a dead
    element's lcm with the new one is a multiple of its killer's. Removes,
    in place, the old pairs the new leading monomial makes redundant, adds
    the new pairs that survive, drops from ``live`` the elements the new
    leading monomial divides, appends the new one, and returns the added
    pairs.

    Each live element's lcm with the new one is taken once, inline and
    digit-wise as in ``_PackCtx.lcm``, and kept without the grevlex degree
    digit: the digits determine the monomial, and only the lcms of the
    pairs added get their degree digit. Every leading monomial was checked
    to pack when it was the new one, so only the new one is checked here.
    The M-criterion runs over the distinct lcms in a linear extension of
    divisibility, so that a divisor comes first: descending under grevlex,
    whose digits are M - e, and ascending under lex.
    """
    new_index = len(lms) - 1
    lmf = lms[new_index]
    corr, hi, emask = ctx.corr, ctx.himask, ctx.emask
    b = lmf & emask
    if b & hi:  # the digit trick needs every exponent <= _MAXE
        raise ValueError("exponent too large to pack")
    # divides(a, b): not (b - a + corr) & hi; lcm(a, b) digit-wise: m masks
    # the digits where a >= b, and ``a ^ ((a ^ b) & m)`` takes b's there
    hib, shift, low, lex = hi - b, _DIGIT_BITS - 1, _DIGIT - 1, ctx.order == LEX
    lcm_of, groups, kept = {}, {}, []
    for i in live:
        a = lms[i] & emask
        m = (((a + hib) & hi) >> shift) * low
        big = b ^ ((a ^ b) & m) if lex else a ^ ((a ^ b) & m)
        lcm_of[i] = big
        if big in groups:
            groups[big].append(i)
        else:
            groups[big] = [i]
        if big != a:  # lcm(a, lmf) == a iff lmf divides a
            kept.append(i)
    gone = []
    for ij, lij in pairs.items():
        if (lij - lmf + corr) & hi:
            continue
        lij &= emask
        for i in ij:  # the only place a dead element's lcm is needed
            big = lcm_of.get(i)
            if big is None:
                a = lms[i] & emask
                m = (((a + hib) & hi) >> shift) * low
                big = b ^ ((a ^ b) & m) if lex else a ^ ((a ^ b) & m)
            if lij == big:
                break
        else:
            gone.append(ij)
    for ij in gone:
        del pairs[ij]
    minimal = []
    for big in sorted(groups, reverse=not lex):
        for other in minimal:
            if not (big - other + corr) & hi:
                break
        else:
            minimal.append(big)
    added = {}
    coprime = b - corr  # lcm(a, lmf) == a * lmf iff the two are coprime
    for big in minimal:
        members = groups[big]
        for i in members:
            if big == (lms[i] & emask) + coprime:
                break
        else:
            added[members[0], new_index] = big if lex else ctx.with_degree(big)
    pairs.update(added)
    live[:] = kept
    live.append(new_index)
    return added


def _make_elt(d, ctx):
    lm = max(d)
    terms = sorted(d.items(), reverse=True)
    top = reduce(ctx.lcm, d) if ctx.order == LEX else None
    return _Elt(lm, d[lm], terms, top)


class _Basis:
    """A basis under construction: its elements and their live pairs.

    ``elts`` and ``lms`` only grow; ``live`` indexes the elements whose
    leading monomial no newer one divides, the ones new pairs are formed
    with (see ``_gm_update``). Live pairs sit in ``pairs`` ({(i, j): lcm},
    pruned by Gebauer-Moeller) and in ``heap`` as (rank, lcm, i, j), where
    rank is the lcm's degree in graded runs (``_f4`` over GF(p), whose
    round takes pairs of the lowest degree only) and 0 otherwise (``_f4``
    over ZZ, which takes the smallest lcm in the active order, and
    ``_certify_qq``); pruned entries are skipped when they come up.
    """

    __slots__ = ("ctx", "graded", "elts", "lms", "live", "pairs", "heap")

    def __init__(self, ctx, graded=False):
        self.ctx = ctx
        self.graded = graded
        self.elts = []
        self.lms = []
        self.live = []
        self.pairs = {}
        self.heap = []

    def add(self, d):
        ctx = self.ctx
        elt = _make_elt(d, ctx)
        self.elts.append(elt)
        self.lms.append(elt.lm)
        added = _gm_update(self.pairs, self.lms, self.live, ctx)
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

    def minimal(self):
        """Indices of a minimal basis: the first element of each minimal
        leading monomial, in ascending order of leading monomial."""
        corr, himask, lms = self.ctx.corr, self.ctx.himask, self.lms
        minimal, kept = [], []
        for i in sorted(range(len(lms)), key=lms.__getitem__):
            b = lms[i]
            for a in kept:
                if not (b - a + corr) & himask:
                    break
            else:
                minimal.append(i)
                kept.append(b)
        return minimal

    def reduced(self, minimal, budget, pmod=0):
        """The reduced basis: the ``minimal`` elements, tails interreduced."""
        ctx = self.ctx
        kept = [self.elts[i] for i in minimal]
        out = []
        for pos in range(len(kept)):
            others = kept[:pos] + kept[pos + 1:]
            d = dict(kept[pos].terms)
            out.append(_reduce(d, others, budget, ctx, pmod, True))
        out.sort(key=max)
        return out


# The direct ZZ run gives up on a coefficient longer than this, in bits.
_SWELL_BITS = 4096


def _primitive(r):
    """Make a nonzero ZZ dict of the direct run primitive with a positive
    leading coefficient, in place; raises :class:`_Swell` when a
    coefficient is still longer than ``_SWELL_BITS`` bits."""
    _content_strip(r)
    if r[max(r)] < 0:
        for e in r:
            r[e] = -r[e]
    if any(c.bit_length() > _SWELL_BITS for c in r.values()):
        raise _Swell
    return r


def _core(seeds, ctx, budget):
    """The direct fraction-free ZZ attempt at a QQ basis: ``_f4`` over ZZ
    (pmod 0) on the primitive integer ``seeds``. Returns the reduced basis
    as primitive ZZ dicts, or None on :class:`_Swell` or past the attempt's
    caps (the caller's, clipped to 20,000 S-pairs and 2 * 10^6 term ops).
    Its work is added to ``budget`` either way.
    """
    attempt = _Budget(min(budget.pair_limit, 20_000), min(budget.op_limit, 2_000_000))
    try:
        return _f4(seeds, ctx, attempt, 0)[0]
    except (_Swell, GroebnerResourceError):
        return None
    finally:
        budget.pairs += attempt.pairs
        budget.ops += attempt.ops


# ---------------------------------------------------------------- F4 (GF(p))

# Matrices of at most this many cells (rows x columns) are reduced on dicts,
# larger ones in numpy, whose per-call overhead is repaid from about here on
# (measured on the small-bases systems and on E_k of F210 over GF(p)).
_SPARSE_CELLS = 4096

# An F4 round takes at most this many of the live pairs of the lowest lcm
# degree, smallest lcm first; F4 is correct for any non-empty selection.
# The pairs left wait in the heap, where the round's new elements can still
# prune them. S-pairs / term ops by cap (E_k of F210 over GF(11); the
# 3-label F210 prism system over GF(32003), over GF(11) and over QQ), and
# the median f210-gf11 pass (caps interleaved in one process, process time,
# 2-vCPU VM, Python 3.11; term ops as measured while the border certificate
# still charged its reductions, 3,217 of E_k's at 48):
#   24:  209 /  54,181;  821 /   823,355; 3628 / 10,814,299; 3403 / 5,294,937; 0.123 s
#   32:  228 /  57,518;  816 /   723,106; 1607 /  3,709,699; 3383 / 4,893,485; 0.123 s
#   48:  251 /  60,531;  972 /   920,785; 1707 /  4,146,671; 4007 / 5,684,201; 0.119 s
#   64:  251 /  68,372;  999 /   883,509; 1779 /  4,068,159; 4115 / 5,535,097; 0.123 s
#   96:  346 /  96,244; 1099 / 1,067,380; 1917 /  5,068,965; 4515 / 6,270,717; 0.134 s
#  128:  411 / 123,935; 1301 / 1,271,843; 2130 /  5,911,428; 5323 / 7,088,577; 0.148 s
#  all:  446 / 150,356; 2021 / 2,467,036; 2768 /  8,166,416; 8203 / 11,869,357; 0.157 s
# Below 32 the prism system falls off cliffs (28: 2724 and 3675 S-pairs over
# GF(32003) and GF(11)), so the cap sits inside the flat 32-64 range. No
# round of the small-bases systems takes more than 30 pairs (seeds 1, 2).
#
# A round by lowest sugar degree instead was measured and is worse (pair
# sugar deg(lcm) + max(s_i - deg lm_i, s_j - deg lm_j), a seed's sugar its
# degree, a new element taking its round's sugar; same cap, process time on
# the VM above). S-pairs / term ops, lcm degree -> sugar: E_k over GF(11)
# 251 / 57,314 -> 226 / 70,605; E_l 247 / 56,113 -> 191 / 72,844; the
# 3-label prism system over GF(32003) 972 / 920,785 -> 2552 / 12,914,353
# (0.7 -> 8.0 s), over GF(11) 1707 / 4,146,671 -> 3480 / 22,157,532
# (3.1 -> 17.6 s); a two_parallel(F210, 5_1, 5_3) pass over GF(11) took
# 140 -> 171 ms. Also measured and not taken: a numpy pair update (110
# against about 53 us per call with 41 live elements) and set-based
# symbolic preprocessing (faster in 0 of 16 interleaved passes).
_ROUND_PAIRS = 48

# A round of at most this many live pairs takes them one at a time, smallest
# lcm first, as Buchberger's S-pair loop does: each S-polynomial is
# top-reduced by the basis so far and joins it at once, so Gebauer-Moeller
# may prune the round's later pairs. Only larger rounds build a Macaulay
# matrix, and only they can try the border certificate. By cap: the median
# GF(32003) system of a seed-1 small-bases cycle (each of the 249 timed 15
# times, minimum taken), the cycle's sum of those minima, and E_k of F210
# over GF(11), median of 15; caps interleaved in one process, process time,
# two runs, 2-vCPU VM, Python 3.11; matrices and steps per cycle:
#    0:  339 / 363 us;  270.4 / 291.1 ms;  40.7 / 50.2 ms;  850 matrices,    0 steps
#    2:  301 / 329 us;  265.4 / 284.1 ms;  41.5 / 51.0 ms;  424 matrices,  586 steps
#    3:  301 / 319 us;  266.6 / 287.3 ms;  39.9 / 53.3 ms;  340 matrices,  835 steps
#    4:  285 / 291 us;  268.7 / 287.9 ms;  45.9 / 53.7 ms;  234 matrices, 1247 steps
# No round of E_k holds fewer than 5 live pairs, so up to 4 it runs the same
# 8 matrices and its times differ by noise alone. Above 4 steps cost E_k
# more than its matrices did: term ops 57,314 -> 73,081, 84,015 and 112,561
# at caps 5, 7 and 10 (58, 60, 66 and 80 ms at caps 4, 5, 7 and 10), and a
# plain S-pair loop (every round a step) took 293 S-pairs, 1,218,501 term
# ops and 994 ms. The 3-label F210 prism system over GF(11) takes steps
# from cap 2 on and keeps its basis (4,146,671 term ops at cap 0, 4,166,385
# at 4).
_STEP_PAIRS = 4


def _f4(seeds, ctx, budget, pmod):
    """Reduced basis of monic seeds over GF(pmod) by F4, or of primitive
    seeds over ZZ (pmod 0) by Buchberger's S-pair loop, as packed dicts.

    Returns ``(basis, quotient)``. Over GF(p) each round pops the live
    pairs whose lcm has the lowest degree, smallest lcm first, but at most
    ``_ROUND_PAIRS`` of them. Over ZZ, which has no matrix kernel, each
    round pops one pair, the smallest lcm in the active order: under lex,
    lowest degree first moved 10 of the 249 seed-1 small-bases systems from
    the direct run to the modular path. A round of at most ``_STEP_PAIRS``
    pairs, so every ZZ round, takes them one at a time (``_spair``): a
    pair is charged and counted in ``budget.steps`` only if it is still
    live when its turn comes, and a nonzero remainder joins the basis at
    once, monic over GF(p) and ``_primitive`` over ZZ, so Gebauer-Moeller
    may prune the round's later pairs. A larger round reduces its pairs
    together in one Macaulay matrix (``_f4_matrix``): every row of the
    reduced echelon form that is left has a new leading monomial and joins
    the basis. Pairs past the cap stay in the heap for a later round, where
    Gebauer-Moeller may prune them with this round's new elements. The
    reduced basis of a ZZ run is made primitive, element by element.

    A zero-dimensional GF(p) run may stop before its pairs run out. After
    a round whose matrix went to the numpy kernel ((pivot rows + pair rows)
    x columns above ``_SPARSE_CELLS``), that added elements and that leaves
    pairs, ``_border_certificate`` is tried once every variable has a pure
    power among the leading monomials (a set brought up to date with the
    elements added since, right before the test). It takes the first
    element of each minimal leading monomial, as it is (no
    interreduction), and walks once up from their staircase
    (``_border_walk``): every border monomial, every monomial of those
    elements' tails and of the seeds that minimalization dropped gets its
    vector on the staircase mod p, and the border vectors fill the
    multiplication matrices. If the matrices commute and every dropped
    seed's vector is 0, the border prebasis is a border basis of the input
    ideal (Mourrain, "A new criterion for normal form algorithms",
    AAECC-13, 1999; Kehrein-Kreuzer-Robbiano, "An algebraist's view on
    border bases", 2005; the proof is at ``_border_certificate``), and the
    reduced basis R is read off the vectors of the minimal leading
    monomials: R is returned, with ``quotient`` = (staircase, matrices,
    border vectors built), and the pairs still pending are left unreduced
    and counted in ``budget.left`` (the ``pairs_left`` stat). The check is
    skipped when n s^2 (n variables, s staircase monomials) exceeds the
    round's matrix cells. A run that empties its heap returns ``quotient``
    None.
    """
    gb = _Basis(ctx, graded=bool(pmod))
    if gb.seed(seeds):
        return gb.unit(), None
    memo = ({}, {})  # divisor memo of the symbolic preprocessing (see _scan)
    heap, pairs = gb.heap, gb.pairs
    cap = _ROUND_PAIRS if pmod else 1
    pure, known = set(), 0  # variables with a pure power among gb.lms[:known]
    while heap:
        batch, rank = [], None
        while heap and len(batch) < cap and (not batch or heap[0][0] == rank):
            rank, big, i, j = heappop(heap)
            if (i, j) in pairs:
                batch.append((big, i, j))
        if not batch:
            break
        if len(batch) <= _STEP_PAIRS:
            for big, i, j in batch:
                if pairs.pop((i, j), None) is None:
                    continue  # pruned by an element this round added
                budget.steps += 1
                r = _spair(gb, big, i, j, budget, pmod)
                if r:
                    if ctx.deg(max(r)) == 0:
                        return gb.unit(), None
                    gb.add(_monic(r, pmod) if pmod else _primitive(r))
            continue
        for big, i, j in batch:
            del pairs[i, j]
            budget.charge_pair()
        new, cells = _f4_matrix(batch, gb.elts, ctx, budget, pmod, memo)
        for d in new:
            if ctx.deg(max(d)) == 0:
                return gb.unit(), None
            gb.add(d)
        if new and pairs and cells > _SPARSE_CELLS:
            pure.update(map(ctx.pure_var, gb.lms[known:]))
            known = len(gb.lms)
            if pure.issuperset(range(ctx.n)):
                done = _border_certificate(gb, len(seeds), pmod, cells)
                if done is not None:
                    budget.left += len(pairs)
                    return done
    out = gb.reduced(gb.minimal(), budget, pmod)
    return (out if pmod else [_primitive(d) for d in out]), None


def _border_certificate(gb, nseeds, pmod, cells):
    """``(R, (staircase, matrices, border vectors built))`` when the elements
    of ``gb`` so far prove R the reduced basis of the input ideal I, else
    None (see ``_f4``); ``gb.elts[:nseeds]`` are the seeds, and every
    variable has a pure power among the leading monomials.

    L holds the first element of each minimal leading monomial b, and S is
    the staircase of those b. ``_border_walk`` gives each monomial t it
    takes a vector vec(t) on S: minus the vectors of the tail, when t
    leads an element of L, else M_w vec(t/x_w). By induction on t, t -
    vec(t) lies in I and in the ideal <J'> of the border prebasis J' =
    {b - vec(b): b on the border}, so <J'> is in I. Each element of L lies
    in <J'>, since its vector, vec(b) plus its tail's, is 0 by
    construction, and every other seed does when its vector is 0; then
    I = <J'>. If the matrices M_v commute, J' is a border basis
    (Mourrain, "A new criterion for normal form algorithms", AAECC-13,
    1999; Kehrein-Kreuzer-Robbiano, "An algebraist's view on border
    bases", 2005), so S is a vector-space basis of the quotient by I.
    Every vec(t) has terms below t only, so every monomial off S leads an
    element of I, S is I's staircase, and R is {b - vec(b)} over the
    minimal b, in ascending order. The walk does no reduction, so it
    charges no term ops.

    The walk is skipped when n s^2 (n variables, s staircase monomials)
    would exceed ``cells``, so the matrices hold at most as many entries
    as that round's matrix, and the one product that checks that they
    commute, over all ordered pairs, n times that.
    """
    ctx = gb.ctx
    minimal = gb.minimal()
    leads = {gb.lms[i]: gb.elts[i].terms[1:] for i in minimal}
    try:
        stair = _staircase(list(leads), ctx, isqrt(cells // ctx.n))
    except GroebnerResourceError:
        return None
    kept = set(minimal)
    dropped = [gb.elts[i].terms for i in range(nseeds) if i not in kept]
    extra = [t for terms in dropped for t, _ in terms]
    xs, vec, border = _border_walk(leads, stair, ctx, pmod, extra)
    row = {s: j for j, s in enumerate(stair)}
    if any(_combine(terms, vec, row, pmod).any() for terms in dropped):
        return None
    n, s = ctx.n, len(stair)
    # block (i, j) is M_i M_j
    prod = _mulmod(np.concatenate(xs), np.concatenate(xs, axis=1), pmod)
    prod = prod.reshape(n, s, n, s)
    if (prod != prod.transpose(2, 1, 0, 3)).any():
        return None
    out = []
    for b in sorted(leads):
        d = {b: 1}
        d.update((stair[j], c) for j, c in enumerate((-vec[b] % pmod).tolist()) if c)
        out.append(d)
    return out, (stair, xs, border)


def _staircase(lms, ctx, limit):
    """The packed monomials no leading monomial of ``lms`` divides, ascending.

    None when the staircase is infinite: some variable has no pure power
    among ``lms``. Raises :class:`GroebnerResourceError` past ``limit``
    monomials. The walk goes up by degree from the monomial 1: each
    standard monomial of the next degree is a variable times one of this
    degree.
    """
    if any(ctx.deg(m) == 0 for m in lms):
        return []
    if not {ctx.pure_var(m) for m in lms}.issuperset(range(ctx.n)):
        return None
    corr, himask = ctx.corr, ctx.himask
    one = ctx.pack((0,) * ctx.n)
    steps = [x - one for x in ctx.variables()]
    seen, frontier = {one}, [one]
    while frontier:
        nxt = []
        for m in frontier:
            for step in steps:
                c = m + step
                if c in seen:
                    continue
                for lm in lms:
                    if not (c - lm + corr) & himask:
                        break
                else:
                    seen.add(c)
                    nxt.append(c)
                    if len(seen) > limit:
                        raise GroebnerResourceError("staircase enumeration limit hit")
        frontier = nxt
    return sorted(seen)


def _combine(terms, vec, row, p):
    """The vector of sum(c t) over ``terms`` on the staircase ``row`` (a
    monomial's index), mod p: a staircase monomial is its own unit vector,
    any other t has ``vec[t]``."""
    u = np.zeros(len(row), _residue_dtype(p))
    cs, vs = [], []
    for t, c in terms:
        if t in row:
            u[row[t]] = c
        else:
            cs.append(c)
            vs.append(vec[t])
    if cs:
        u += _mulmod(np.array(cs, u.dtype), np.stack(vs), p)
    return u % p


def _border_walk(leads, stair, ctx, p, extra=()):
    """Vectors on a finite staircase by one walk, and the multiplication matrices.

    ``leads`` maps each minimal leading monomial b to the tail of a monic
    element that b leads, over GF(p); ``stair`` is their staircase,
    ascending. The walk gives a vector on the staircase to each border
    monomial x_v s (s on the staircase, x_v s off it), to each monomial off
    the staircase of a tail or of ``extra``, and, closing the set, to t/x_w
    for each of these t that is not a lead, with x_w the first variable
    such that t/x_w is off the staircase. It takes them in increasing order
    (FGLM's construction, no division). A lead b gets minus the sum of c
    vec(t) over its tail's terms c t. Any other t gets M_w vec(t/x_w):
    vec(t/x_w) has terms s below t/x_w only, so each x_w s is below t, on
    the staircase or on the border, and its column of M_w is filled
    already. A border monomial x_v s fills column s of M_v.

    Returns the matrices, the vectors (a dict of monomial to residue array)
    and the number of border monomials. For a reduced basis the tails lie
    on the staircase and only the border is walked, so column j of M_v is
    the normal form of x_v stair[j].
    """
    dtype = _residue_dtype(p)
    corr, himask = ctx.corr, ctx.himask
    n, size = ctx.n, len(stair)
    one = ctx.pack((0,) * n)
    var = ctx.variables()
    row = {s: i for i, s in enumerate(stair)}
    xs = [np.zeros((size, size), dtype) for _ in range(n)]
    border = {}  # border monomial x_v stair[j] -> its [(v, j)]
    for s, j in row.items():
        for v in range(n):
            b = s + var[v] - one
            if b in row:
                xs[v][row[b], j] = 1
            else:
                border.setdefault(b, []).append((v, j))
    todo = list(border)
    todo += (t for tail in leads.values() for t, _ in tail)
    todo += extra
    down, seen = {}, set()  # a non-lead t -> (w, t/x_w)
    for t in todo:  # grows while it is walked
        if t in row or t in seen:
            continue
        seen.add(t)
        if t not in leads:
            w = next(
                w for w, x in enumerate(var)
                if not (t - x + corr) & himask and t - x + one not in row
            )
            d = t - var[w] + one
            down[t] = w, d
            todo.append(d)
    vec = {}
    for t in sorted(seen):
        if t in leads:
            u = -_combine(leads[t], vec, row, p) % p
        else:
            w, d = down[t]
            u = _mulmod(xs[w], vec[d], p)
        vec[t] = u
        for v, j in border.get(t, ()):
            xs[v][:, j] = u
    return xs, vec, len(border)


def fglm(start, mats, vars, field, p):
    """The reduced grevlex basis of a zero-dimensional ideal I, from its
    quotient's matrices (Faugere-Gianni-Lazard-Mora, JSC 16(4), 1993).

    ``start`` is the vector of 1 in some basis of R/I mod p, a residue
    array of length c = dim R/I, and ``mats[v]`` the c x c matrix of
    multiplication by ``vars[v]`` in that basis. Candidate monomials x_v s,
    s in the new staircase, are taken in increasing grevlex order from a
    heap of packed monomials (integer comparison), and multiples of the
    leading monomials found so far are skipped (one masked subtraction).
    A candidate's vector is its predecessor's times ``mats[v]``; reduced
    against the accepted vectors, it either joins the staircase or is
    dependent, and then gives the basis element m - sum c_i s_i.

    Returns the basis as polynomials over ``field`` (ascending), and the
    number of candidates whose vectors were reduced: the staircase plus
    the leading monomials.
    """
    ctx = _PackCtx(len(vars), GREVLEX)
    corr, himask = ctx.corr, ctx.himask
    dtype = _residue_dtype(p)
    one = ctx.pack((0,) * ctx.n)
    steps = [x - one for x in ctx.variables()]
    pred = {one: None}  # candidate -> (staircase monomial, variable)
    vecs = {}  # staircase monomial -> its vector
    stair, lms, basis = [], [], []
    rows = []  # accepted vectors: (pivot, row, row as a combination of stair)
    heap, candidates = [one], 0
    while heap:
        m = heappop(heap)
        if any(not (m - lm + corr) & himask for lm in lms):
            continue
        candidates += 1
        if pred[m] is None:
            w = start
        else:
            s, v = pred[m]
            w = _mulmod(mats[v], vecs[s], p)
        u, comb = w, np.zeros(len(start), dtype)
        for col, e, t in rows:
            f = u[col]
            if f:
                u = (u - f * e) % p
                comb = (comb + f * t) % p
        nz = np.flatnonzero(u)
        if not nz.size:
            terms = {ctx.unpack(m): 1}
            terms.update({stair[j]: (-int(comb[j])) % p for j in np.flatnonzero(comb)})
            basis.append(Polynomial(vars, terms, field, GREVLEX))
            lms.append(m)
            continue
        inv = pow(int(u[nz[0]]), -1, p)
        t = (-comb) * inv % p
        t[len(stair)] = inv
        rows.append((nz[0], u * inv % p, t))
        stair.append(ctx.unpack(m))
        vecs[m] = w
        for v, step in enumerate(steps):
            c = m + step
            if c not in pred:
                pred[c] = (m, v)
                heappush(heap, c)
    return basis, candidates


def _f4_matrix(batch, elts, ctx, budget, pmod, memo):
    """Reduce the S-pairs of ``batch`` together.

    Returns the new elements' dicts and the matrix's (pivot rows + pair
    rows) x columns, which picks the kernel. The rows are both shifted
    elements of each pair. Symbolic preprocessing gives every monomial of
    the matrix that some leading monomial divides a pivot row: its first
    divisor in list order, shifted onto it. A pair row equal to the pivot
    row of its own leading monomial is left out, since it would reduce to
    zero. Before either kernel runs, the term budget is charged what the
    kernels allocate: a dense residue array of pair rows x columns, and
    the pivot rows' terms.
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
    piv_terms = 0
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
        piv_terms += len(red.terms)
        shift = m - red.lm
        if lex:
            ctx.check_shift(red, shift)
        for e, _ in red.terms:
            e += shift
            if e not in cols:
                cols.add(e)
                todo.append(e)
    budget.charge_matrix(len(rows) * len(cols) + piv_terms)
    cells = (len(piv) + len(rows)) * len(cols)
    kernel = _sparse_echelon if cells <= _SPARSE_CELLS else _dense_echelon
    return kernel(rows, piv, cols, pmod), cells


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
    for m in sorted(piv, reverse=True):
        for r in rows:
            if m in r:
                _step(r, m, piv[m], pmod)
    # leading monomial -> monic row, of the echelon form so far; a row goes
    # to _step as an _Elt over its dict items, which _step only iterates
    ech = {}
    for r in rows:
        for lm, d in ech.items():
            if lm in r:
                _step(r, lm, _Elt(lm, 1, d.items(), None), pmod)
        if not r:
            continue
        lm = max(r)
        inv = pow(r[lm], -1, pmod)
        new = {e: c * inv % pmod for e, c in r.items()}
        red = _Elt(lm, 1, new.items(), None)
        for d in ech.values():
            if lm in d:
                _step(d, lm, red, pmod)
        ech[lm] = new
    return [ech[lm] for lm in sorted(ech)]


def _dense_echelon(rows, piv, cols, pmod):
    """``_sparse_echelon`` in numpy, with the same result: the reduced
    echelon form is unique.

    The pair rows form a dense residue matrix over ``cols`` (int64 below
    2^31, object above, see ``_residue_dtype``), stored transposed: one
    contiguous row per column. Each pivot row, in column order, clears its
    column in every pair row by one broadcast update of the rows of its
    tail (its terms but the leading one, which is 1). The destination rows
    and coefficients of every pivot row's tail are collected once per
    matrix, as two flat arrays with per-pivot offsets; each pivot takes
    its slice, gathers its rows by ``take`` and writes them back once. The
    pivot's own column is left as it is, since nothing reads it again:
    later pivots are smaller, and only the non-pivot columns go on. An
    update lowers an entry by at most (p - 1)^2 and each pivot updates it
    at most once, so entries are reduced mod p on the way only where int64
    could overflow; a pivot's column is reduced before it is used. What is
    left lives in the non-pivot columns and goes through ``_rref_mod_p``.

    Reducing only where int64 could overflow still pays: the 14 dense
    calls of a GF(11) ``two_parallel(F210, 5_1, 5_3)`` pass and the 61 of
    a seed-1 small-bases cycle took 39.3 and 83.1 ms, against 54.3 and
    90.5 ms reducing every update (process-time medians of 30 interleaved
    rounds; 2-vCPU VM, Python 3.11, numpy 2.4). The flat index arrays
    replace one ``np.array`` per pivot and a per-matrix cache of each
    element's tail: with the same RREF, the 7 dense calls of that pass
    took 14.6 against 15.2 ms (faster in 28 of 30 interleaved rounds).
    """
    dtype = _residue_dtype(pmod)
    cols = sorted(cols, reverse=True)
    idx = {m: k for k, m in enumerate(cols)}
    at = np.zeros((len(cols), len(rows)), dtype)
    ks, rs, vs = [], [], []
    for r, row in enumerate(rows):
        ks += map(idx.__getitem__, row)
        rs += [r] * len(row)
        vs += row.values()
    at[ks, rs] = vs
    wrap = dtype is np.int64 and len(piv) * (pmod - 1) ** 2 >= 1 << 63
    pivots = sorted(piv, reverse=True)
    # pivot i's tail at dst, coef[ends[i - 1]:ends[i]]; terms are sorted
    # descending, the leading one first
    dst, coef, ends = [], [], []
    for m in pivots:
        red = piv[m]
        shift = m - red.lm
        rest = red.terms[1:]
        dst += [idx[e + shift] for e, _ in rest]
        coef += [c for _, c in rest]
        ends.append(len(dst))
    dst = np.array(dst, np.intp)
    coef = np.array(coef, dtype).reshape(-1, 1)
    lo = 0
    for m, hi in zip(pivots, ends):
        col = at[idx[m]] % pmod
        d = dst[lo:hi]
        new = at.take(d, axis=0) - coef[lo:hi] * col
        at[d] = new % pmod if wrap else new
        lo = hi
    free = [k for k, m in enumerate(cols) if m not in piv]
    ech, _ = _rref_mod_p(np.ascontiguousarray(at[free].T) % pmod, pmod)
    names = [cols[k] for k in free]
    out = [
        {names[k]: v[k] for k in row.nonzero()[0].tolist()}
        for row, v in zip(ech, ech.tolist())
    ]
    out.reverse()
    return out


def _residue_dtype(p):
    """int64 holds every product of two residues below p^2 < 2^62; object above."""
    return np.int64 if p < 1 << 31 else object


# inner terms per split int64 product in ``_mulmod``: 2^16 * 2^47 = 2^63
_MULMOD_CHUNK = 1 << 16


def _mulmod(a, b, p):
    """``a @ b`` mod p for residue arrays, exact for any inner dimension.

    Over int64 (p < 2^31) one product is exact when its k inner terms sum
    below 2^63, that is when k (p - 1)^2 < 2^63. Otherwise b is split into
    16-bit halves, so a product of a residue and a half is below 2^47, and
    the inner dimension is summed in chunks of 2^16 terms, each below 2^63.
    """
    if a.dtype == object:
        return a.dot(b) % p
    k = a.shape[-1]
    if k * (p - 1) ** 2 < 1 << 63:
        return a @ b % p
    out = 0
    for s in range(0, k, _MULMOD_CHUNK):
        x, y = a[..., s : s + _MULMOD_CHUNK], b[s : s + _MULMOD_CHUNK]
        out = (out + x @ (y & 0xFFFF) % p + (x @ (y >> 16) % p << 16)) % p
    return out


# Measured on the GF(11) two_parallel(F210, 5_1, 5_3) pass and not taken up
# (the first four with uncapped rounds):
# - float64 BLAS products: after threaded GEMMs the OpenBLAS workers keep
#   spinning, so a pure-Python stretch ran at process CPU / wall = 1.99;
# - blocked or level-scheduled pivot elimination in ``_dense_echelon``: the
#   1,786 pivots fall into 119 levels, but the 12 matrices took 116-143 ms
#   against 79-108 ms, and numpy's int64 matmul does not use BLAS (1.4 ms
#   for a 139 x 32 x 465 product, 0.7 ns per multiply-add);
# - ``_sparse_echelon`` on the large matrices: 324 ms against 23 ms;
# - the newest divisor as reducer: 6.7 % fewer pivots, no faster;
# - numbering each matrix's columns as symbolic preprocessing meets them,
#   keeping each pivot monomial's shifted tail for the run and handing the
#   dense kernel each pivot row's column ids (no sort of every column, no
#   per-pivot index list): in the two F4 runs of a pass the kernel got 7-8
#   ms faster and the preprocessing 4.5-5 ms slower; they took 90.6 against
#   90.9 ms (60 interleaved rounds), and whole passes won 6 of 10
#   interleaved batches;
# - column panels in ``_rref_mod_p`` (32 wide, reduced on read, one
#   ``_mulmod`` product per panel, as in FFLAS-FFPACK): on captured inputs
#   they took 29.9 ms for this pass's 15 RREFs, 14.7 for a small-bases
#   cycle's 61 and 583 for the link matrix at 2^31 + 11, against 26.8, 12.2
#   and 458 ms for the plain loop (process-time medians; 2-vCPU VM);
# - int16 also for ``_dense_echelon``'s column array, when its pivots'
#   updates fit (len(piv) (p - 1)^2 <= 2^15 - p): the pass's 14 dense calls
#   took 24.8 against 26.6 ms on captured inputs (faster in 19 of 20
#   rounds), and whole passes 70.3 against 72.0 ms (31 of 40 interleaved;
#   process-time medians, 2-vCPU VM): under 2 % of a pass, less than the
#   benchmark resolves, for a second copy of the bound; the kernel's pivot
#   loop is bound by per-call overhead;
# - one ``_rref_mod_p`` of the pivot rows stacked on the pair rows, in
#   place of the pivot loop: 52.5 against 26.6 ms on those inputs (0 of 20);
# - handing symbolic preprocessing's shifted monomials to the dense kernel,
#   so it looks up no pivot tail's columns again: passes 3.5 % slower,
#   faster in 1 of 8 interleaved pairs;
# - forward-only elimination of the link matrix, with back-substitution on
#   its free columns only: 0.5 ms less per link step, for a second
#   elimination routine;
# - eliminating the variables that occur linearly before F4: gb_k 8 %
#   faster, but every E_k counter changes;
# - permuting the variable order: gb_k from 15 % faster to 35 % slower,
#   with no rule that can be read from the input.


def _rref_mod_p(a, p):
    """Reduced row echelon form of the residue array ``a`` mod prime p.

    Returns (the nonzero rows, their pivot columns). Rows are monic, and
    the pivot columns are cleared in every other row; ``a`` is overwritten,
    unless it is first copied to int16 (see below), and the rows come back
    in the dtype the elimination ran in.

    Gauss-Jordan in place: each column is reduced mod p where it is read,
    and one outer product of it and the monic pivot row updates ``a[:, c:]``.
    An update lowers an entry by at most (p - 1)^2, so in a w-bit dtype that
    block is reduced every (2^(w-1) - p) // (p - 1)^2 pivots (Dumas-Giorgi-
    Pernet, ACM TOMS 35(3), 2008). There are at most min(n, m) pivots, so
    the elimination runs in int16 when min(n, m) (p - 1)^2 <= 2^15 - p, and
    then reduces nothing on the way (the link step's 196 x 196 matrix up to
    p = 13, the F4 matrices of F210 at p = 11); otherwise in int64, every
    32 pivots at 2^29 - 3 and every 2 at 2^31 - 1. Object arrays (p >= 2^31)
    are reduced only at the end.

    A column with no nonzero entry at or below the rank r holds no pivot.
    One ``any`` over the trailing block ``a[r:, c + 1:]`` mod p then finds
    the next column that has one, so a run of such columns is skipped in
    one call, and the loop ends when there is none. Against one column at a time, the 7 F4 RREFs of a GF(11)
    ``two_parallel(F210, 5_1, 5_3)`` pass took 2.2 against 2.6 ms, its link
    RREF 4.6 against 4.8 ms and the 63 RREFs of a seed-1 small-bases cycle
    3.4 against 6.7 ms (process-time medians of 30 interleaved rounds;
    2-vCPU VM, Python 3.11, numpy 2.4).
    """
    n, m = a.shape
    every = 0
    if a.dtype != object:
        if min(n, m) * (p - 1) ** 2 <= (1 << 15) - p:
            a = a.astype(np.int16)
        every = ((1 << 8 * a.dtype.itemsize - 1) - p) // (p - 1) ** 2
    piv = []
    c = 0
    while c < m and len(piv) < n:
        r = len(piv)
        f = a[:, c] % p
        nz = f[r:].nonzero()[0]
        if not nz.size:  # skip this column and the empty ones after it
            nxt = (a[r:, c + 1 :] % p).any(axis=0).nonzero()[0]
            if not nxt.size:
                break
            c += 1 + int(nxt[0])
            continue
        i = r + nz[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
            f[[r, i]] = f[[i, r]]
        row = a[r, c:] % p * pow(int(f[r]), -1, p) % p
        f[r] = 0
        a[:, c:] -= np.multiply.outer(f, row)
        a[r, c:] = row
        piv.append(c)
        if every and len(piv) % every == 0:
            a[:, c + 1 :] %= p
        c += 1
    ech = a[: len(piv)]
    ech %= p
    return ech, piv


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
    """Primitive integer multiple of a dict with Fraction coefficients.

    The denominators are cleared with integer arithmetic: each coefficient
    a/b becomes a * (den / b) for the lcm ``den`` of the denominators.
    """
    den = 1
    for c in terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    d = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    _content_strip(d)
    return d


def _lift(good, lm):
    """The element led by ``lm``, its residues over the primes of ``good``
    combined by CRT and lifted by rational reconstruction; None on failure."""
    support = set().union(*(elems[lm] for _, elems in good))
    rec = {}
    for mono in support:
        res, mod = 0, 1
        for p, elems in good:
            res, mod = _crt_pair(res, mod, elems[lm].get(mono, 0), p)
        val = _ratrec(res, mod)
        if val is None:
            return None
        if val:
            rec[mono] = val
    return rec


def _modular_qq(gens_int, ctx, budget, stats):
    """Reduced GB over QQ via multi-modular runs with exact certification.

    ``gens_int`` are the generators as primitive ZZ dicts; returns the
    basis as packed dicts with Fraction coefficients, ascending by leading
    monomial. One prime at a time, at most 256 of them: a prime that
    divides a leading coefficient is skipped, and each run is filed under
    its leading-term shape. When a run joins the majority shape (most runs,
    ties to the larger shape) and that shape has at least 3 runs, they are
    lifted; the first lift that ``_certify_qq`` accepts is returned. A
    trivial candidate {1} passes ``_certify_qq`` vacuously, so a modular
    {1} rests on the agreement of 3 primes alone.
    """
    runs = {}  # shape -> [(prime, {lm: {mono: residue}})]
    for p in islice(_prime_stream(), 256):
        if any(d[max(d)] % p == 0 for d in gens_int):
            continue  # a leading coefficient vanished; skip prime
        seeds = [_monic({e: c % p for e, c in d.items() if c % p}, p) for d in gens_int]
        try:
            out, _ = _f4(seeds, ctx, budget, p)
        except GroebnerResourceError as exc:
            raise GroebnerResourceError(f"{exc} in the F4 run mod {p}") from exc
        shape = tuple(sorted(max(d) for d in out))
        runs.setdefault(shape, []).append((p, {max(d): d for d in out}))
        good = runs[shape]
        if len(good) < 3 or max(runs, key=lambda s: (len(runs[s]), s)) != shape:
            continue
        candidate = [_lift(good, lm) for lm in shape]
        if None not in candidate and _certify_qq(candidate, gens_int, ctx, budget):
            stats["primes"] = [q for q, _ in good]
            return candidate
    raise GroebnerResourceError("modular reconstruction did not converge")


def _certify_qq(candidate, gens_int, ctx, budget):
    """Exact certificate: candidate is a GB and contains the generators.

    Every generator must reduce to zero modulo the candidate, and so must
    the S-polynomial of every pair that Gebauer-Moeller keeps among the
    candidate's elements (``_Basis.seed``), each charged as an S-pair.
    Success proves the candidate is the reduced basis of an ideal that
    contains the input ideal; the leading-term shape was already matched
    against several independent mod-p reduced bases of the input. Only
    zero remainders are tested, which scaling cannot change, so the checks
    run fraction-free on the candidate with its denominators cleared.
    The trivial candidate {1} passes vacuously: every generator reduces to
    zero modulo 1, and a constant seed leaves no pair to check.
    ``two_parallel``'s QQ exclusion does not rely on it.
    """
    cand_int = [_int_dicts_from_frac(d) for d in candidate]
    elts = [_make_elt(d, ctx) for d in cand_int]
    if any(_reduce(dict(d), elts, budget, ctx) for d in gens_int):
        return False
    gb = _Basis(ctx)
    if gb.seed(cand_int):
        return True
    return not any(_spair(gb, big, i, j, budget) for (i, j), big in gb.pairs.items())


# ------------------------------------------------------------- public API

_STAIRCASE_LIMIT = 1_000_000  # standard monomials ``staircase`` enumerates at most


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
        # (staircase, multiplication matrices, border vectors) that a GF(p)
        # run stopped by the border certificate kept; None otherwise
        self.quotient = None

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

    def staircase(self):
        """Standard monomials (not divisible by any leading monomial).

        Returns a sorted list of exponent tuples, or ``None`` when the
        staircase is unbounded; raises :class:`GroebnerResourceError` past
        ``_STAIRCASE_LIMIT`` monomials. A certified GF(p) run kept its
        staircase.
        """
        if self.quotient is not None:
            return list(self.quotient[0])
        ctx = _PackCtx(len(self.vars), self.order)
        lms = [ctx.pack(lm) for lm in self.leading_monomials()]
        stair = _staircase(lms, ctx, _STAIRCASE_LIMIT)
        return None if stair is None else [ctx.unpack(m) for m in stair]

    def multiplication_matrices(self, field):
        """The matrices of multiplication by each variable on the staircase,
        over the prime field ``field``, and the number of border vectors
        built (see ``_border_walk``); None when the staircase is infinite.

        A basis over QQ is taken mod p first, which raises
        :class:`~prismring.fields.NonInvertibleError` when p divides a
        denominator. A certified GF(p) run kept its certificate's matrices.
        """
        if self.quotient is not None and field == self.field:
            return self.quotient[1:]
        stair = self.staircase()
        if stair is None:
            return None
        ctx = _PackCtx(len(self.vars), self.order)
        leads = {}
        for g in self.polys:
            terms = sorted(((ctx.pack(e), field.coerce(c)) for e, c in g.terms.items()),
                           reverse=True)
            leads[terms[0][0]] = terms[1:]
        xs, _, border = _border_walk(leads, [ctx.pack(m) for m in stair], ctx, field.p)
        return xs, border

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

    def finish(out):
        stats.update({"spairs": budget.pairs, "term_ops": budget.ops})
        if stats.get("mode") != "direct":  # the GF(p) runs reduced F4 matrices
            stats["matrices"] = budget.matrices
            stats["max_matrix_cells"] = budget.max_cells
            stats["pairs_left"] = budget.left
            stats["steps"] = budget.steps
        # each monomial unpacked once: a reduced basis's tails share the
        # staircase (E_k over GF(11): 364 terms, 45 monomials)
        names = {e: ctx.unpack(e) for e in set().union(*out)}
        polys = [  # engine coefficients are nonzero and already in the field
            Polynomial._trusted(vars, {names[e]: c for e, c in d.items()}, field, order)
            for d in out
        ]
        return GroebnerBasis(polys, vars, field, order, system, stats)

    if field.is_rational:
        # the direct ZZ attempt first, then the modular pipeline
        seeds = [
            _int_dicts_from_frac({ctx.pack(e): c for e, c in p.terms.items()})
            for p in nonzero
        ]
        out = _core(seeds, ctx, budget)
        stats["mode"] = "modular" if out is None else "direct"
        if out is None:
            out = _modular_qq(seeds, ctx, budget, stats)
        monic = []  # each Fraction is built once here, and the Polynomial keeps it
        for d in out:
            lc = d[max(d)]
            monic.append({e: Fraction(c, lc) for e, c in d.items()})
        return finish(monic)

    # prime field: direct computation
    pmod = field.p
    seeds = [
        _monic({ctx.pack(e): c for e, c in p.terms.items()}, pmod) for p in nonzero
    ]
    out, quotient = _f4(seeds, ctx, budget, pmod)
    gb = finish(out)
    if quotient is not None:
        stair, xs, border = quotient
        gb.quotient = ([ctx.unpack(m) for m in stair], xs, border)
    return gb


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

    Each coefficient is coerced once, and those that vanish mod p (p
    divides the numerator) are dropped. Raises
    :class:`~prismring.fields.NonInvertibleError` when p divides a
    coefficient denominator.
    """
    out = []
    for p in polys:
        terms = {}
        for e, c in p.terms.items():
            c = field.coerce(c)
            if c:
                terms[e] = c
        out.append(Polynomial._trusted(p.vars, terms, field, p.order))
    return out
