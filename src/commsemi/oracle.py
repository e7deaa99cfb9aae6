"""Brute-force constructions of the commutation semigroups, for differential testing.

Two independent routes are kept deliberately separate from the container
engine:

* pair closure: worklist closure of mu-map generator codes under the
  composition law alone.  No containers, no orbits, no families.  Each
  partner gets one residue row, so a product of codes is two gathers.
* table closure: function tables built from raw commutators g^-1 h^-1 g h
  and closed under pointwise composition.  No mu-map algebra at all; the
  only shared code is group-element arithmetic.

Tables are uint16 rows of a-exponents, one row per map (every commutation
map lands in <a>; the builder checks that instead of assuming it).  One
derivation (`_class_terms`) splits each right-side commutator [x, h],
one b-class of h at a time, into a term of h and the b-exponent of x plus
a term of x; the tables x -> [x, h] are their broadcast sum, and the left
side x -> [h, x] = [x, h]^-1 is its pointwise negation.  One worklist
closure (`_close`) serves the exact table closure, the closures of the
generator restrictions to <a>, and the dedupe of those restrictions.
Both table routes pass one front door (`_check_table_route`), which
refuses a side not in SIDES and then a group of order m*n above
TABLE_CAP, before any build; `_close` refuses once it would hold more
than TABLE_ENTRY_LIMIT entries, so the exact closure answers or raises
CapExceeded whatever the group.  For bulk sweeps the module also offers a
fingerprint variant of the table oracle: candidate tables are
deduplicated by two independent random-linear hashes (exact in float64,
since every partial sum is an integer below 2^53), a universal-hashing
scheme whose collision bound is independent of the algebra under test;
the per-group closure stays exact at byte level.  The hashes are read off
weight histograms built from the same two terms, with no table; the
hashes of given mu-maps (`mu_table_fingerprints`) are read off per-coset
histograms keyed through residue tables, one cumsum giving their carries.
Every dedupe of codes or fingerprints is a sort plus a neighbour compare
(`_sorted_unique`).  Temporaries are blocked at `_GRID_ENTRIES` entries.

A differential check reads each closure row back as the mu-map it can be,
compares those codes with the engine's and each row with the table of its
code.  A mismatch has one rule for its witness: the least code where the
engine and an oracle differ, whichever oracle or side holds it, counting
every row that is no mu-map by the code it decodes to.  Differences are
formed only on disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import sigma as sigma_mod
from .group import Presentation
from .mumap import MuMap
from .sigma import LEFT, RIGHT, SIDES, BaseSet, left_base, right_base

# Table-oracle limits: the group order m*n above which neither table route
# builds anything, and the entries (rows * row width) the exact closure may
# hold, 64 MB of uint16 rows.  The largest closure at m <= 100,
# G(89,44,84) right, holds 31.0M entries, 92% of the budget.
TABLE_CAP = 4000
TABLE_ENTRY_LIMIT = 1 << 25
# Fixed seed for the fingerprint weights: identical runs produce identical
# fingerprints, and the exactness bound below never depends on the seed.
_FP_SEED = 0x5EC7
_FP_BITS = 26
# Entries per int grid block (grid builds, histograms, mu-map tables): caps
# the temporaries at a few tens of MB whatever the group order.
_GRID_ENTRIES = 4_000_000
# Pair-oracle budgets: entries of the m*m membership mask, and the product
# bound m*m*|S| (every closure code times every partner x).  On a 2-core
# machine, one fresh process per case, right side: the full closures of
# D_4093 = G(4093,2,4092) (16.8M codes in 4092 rounds) and G(2029,2,2028)
# (4.1M codes in 2028 rounds) took 0.28 s at 174 MB and 0.08-0.09 s at
# 65 MB, G(4095,12,212) (m*m = 16.8M, 2.0e8 products bound) 0.10 s at
# 72 MB, and G(509,508,3) (1.3e8 products) 0.30-0.31 s at 46 MB.
PAIR_MASK_LIMIT = 1 << 24
PAIR_PRODUCT_LIMIT = 1 << 28


class CapExceeded(ValueError):
    """The group is too large for the function-table representation."""


class PairBudgetExceeded(ValueError):
    """The pair oracle's mask or product bound is over its budget."""


# ---------------------------------------------------------------------------
# pair oracle


def mu_generator_codes(p: Presentation, s: BaseSet) -> np.ndarray:
    """Codes x*m + y of the generator set {mu(s, z) : s in S, z in Z_m}."""
    m = p.m
    return np.concatenate([b * m + np.arange(m, dtype=np.int64) for b in sorted(s.elements)])


def _check_pair_budget(m: int, partners: int) -> None:
    """Refuse a pair closure whose m*m mask or whose product bound
    m*m*partners (partners: the distinct x of the generators, |S| for a
    base S) is over budget, before anything is allocated."""
    if m * m > PAIR_MASK_LIMIT:
        raise PairBudgetExceeded(
            f"m*m = {m * m} membership entries exceed the pair-oracle limit {PAIR_MASK_LIMIT}"
        )
    if m * m * partners > PAIR_PRODUCT_LIMIT:
        raise PairBudgetExceeded(
            f"m*m*|S| = {m * m * partners} products exceed the pair-oracle limit "
            f"{PAIR_PRODUCT_LIMIT}"
        )


def pair_closure_codes(p: Presentation, gen_codes: np.ndarray) -> np.ndarray:
    """Vectorized pair closure over codes x*m + y; returns the sorted result.

    Composing on the right with generators only suffices (every product
    reduces to gen.gen...gen), and one partner per distinct x does too: the
    composition law mu(x, y) o mu(s, .) = mu(x*s, y*s) never reads the
    partner's y.  Each partner s gets one residue row low[s, r] = r*s mod m
    and its multiple high = low*m, so the product of code x*m + y is
    high[s, x] + low[s, y]: two gathers per product into buffers reused
    across a round's partners, the frontier split by one divmod per round.
    The rows hold partners*m*2 int64, a few MB within the budgets.  The
    next frontier is the products a round marks first in the one m*m
    `seen` mask, so each code is in one frontier and the work is
    |closure|*partners products.  Raises PairBudgetExceeded first when
    _check_pair_budget refuses.
    """
    m = p.m
    frontier = _sorted_unique(np.asarray(gen_codes, dtype=np.int64))
    partner_xs = _sorted_unique(frontier // m)
    _check_pair_budget(m, partner_xs.size)
    low = np.outer(partner_xs, np.arange(m, dtype=np.int64)) % m
    high = low * m
    seen = np.zeros(m * m, dtype=bool)
    seen[frontier] = True
    while frontier.size:
        x, y = np.divmod(frontier, m)
        prod, part = np.empty_like(x), np.empty_like(y)
        found = []
        for low_s, high_s in zip(low, high):
            # mode="clip" writes straight into the buffer ("raise" buffers a
            # copy); every index is a residue, so nothing is clipped
            high_s.take(x, out=prod, mode="clip")
            low_s.take(y, out=part, mode="clip")
            prod += part
            new = prod[~seen[prod]]
            seen[new] = True
            found.append(new)
        frontier = _sorted_unique(np.concatenate(found))
    return np.flatnonzero(seen)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) by sorting and keeping each value unlike its left neighbour.

    np.unique dedupes integer arrays through a hash table in recent numpy,
    which is several times slower than a sort on the int64/uint64 codes and
    fingerprints deduplicated here.
    """
    a = np.sort(a, axis=None)
    if a.size:
        keep = np.empty(a.size, dtype=bool)
        keep[0] = True
        np.not_equal(a[1:], a[:-1], out=keep[1:])
        a = a[keep]
    return a


# ---------------------------------------------------------------------------
# vectorized group plumbing (group arithmetic only -- no mu-map formulas)


@lru_cache(maxsize=2)
def _element_arrays(p: Presentation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element int64 arrays of G, indexed like the tables (a^i b^j at
    i*n + j): i, j and a(e) = i*k^j mod m, the a-exponent mu-maps scale
    (mu(x, y) sends a^i b^j to a^(x*a(e) - y*k_j)) and, negated, that of
    the inverse (a^i b^j)^-1 = a^(-i*k^j) b^-j."""
    m, n = p.m, p.n
    i_of, j_of = np.divmod(np.arange(m * n, dtype=np.int64), n)
    return i_of, j_of, i_of * np.asarray(p.k_pow, dtype=np.int64)[j_of] % m


def _class_terms(p: Presentation) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of the right-side commutators, split by the b-class of
    h (class t holds the h whose inverse has b-exponent t, in order of the
    a-exponent i(h)) and by the b-exponent j of x:

        [x, h] = A[t, j, i(h)] + B[t, x]  (mod m),
        A[t, j, i(h)] = ii(h) * c^((n - j) % n) + i(h) * c^t,
        B[t, x] = i(x) * c^((j(x^-1) + t) % n) + ii(x),

    with ii the a-exponent of the inverse and c = k^-1.  This is the
    normal-form product ((x^-1 h^-1) x) h: within a class the b-exponent of
    x^-1 h^-1 is fixed by x alone, and the b-exponents telescope to zero
    (every commutator lands in <a>).  Both come back reduced mod m, as
    int32; callers anchor them with `_spot_check_terms`.
    """
    m, n = p.m, p.n
    i_of, j_of, a_of = _element_arrays(p)
    ii = (m - a_of) % m
    cpow = np.asarray(p.c_pow[:n], dtype=np.int64)
    t = np.arange(n)[:, None]
    h_ii = ii[np.arange(m) * n + (n - t) % n]  # (t, i(h)); a^i b^j sits at i*n + j
    a = h_ii[:, None, :] * cpow[(n - np.arange(n)) % n, None] + np.arange(m) * cpow[t, None]
    b = i_of * cpow[((n - j_of) % n + t) % n] + ii
    return (a % m).astype(np.int32), (b % m).astype(np.int32)


def _spot_check_terms(p: Presentation, a: np.ndarray, b: np.ndarray) -> None:
    # anchor the class terms to the definitional scalar commutator
    from .group import GroupElement, commutator_direct

    n = p.n
    rng = np.random.default_rng(0)
    for h_e, x_e in rng.integers(p.m * n, size=(8, 2)).tolist():
        h, x = GroupElement(*divmod(h_e, n)), GroupElement(*divmod(x_e, n))
        t = (n - h.j) % n
        want = commutator_direct(p, x, h)
        if (want.i, want.j) != ((int(a[t, x.j, h.i]) + int(b[t, x_e])) % p.m, 0):
            raise AssertionError(f"table build disagrees with scalar commutator at {h}, {x}")


def _generator_tables(p: Presentation, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Commutation-map tables for one side (one row per h in G, a-exponent
    entries) plus the distinct restrictions to <a>.

    The right side x -> [x, h] is built one class of h at a time from
    `_class_terms`: the rows of class t are A[t, j(x), i(h)] + B[t, x]
    mod m, one broadcast add in blocks of _GRID_ENTRIES.  The left side
    x -> [h, x] = [x, h]^-1 is its pointwise negation v -> (m - v) % m.
    The terms are spot-checked against the scalar commutator here, and the
    tables exhaustively in the test suite.  The side is not checked here:
    the table routes check it at their front door (`_check_table_route`).
    """
    m, n = p.m, p.n
    mn = m * n
    a, b = _class_terms(p)
    _spot_check_terms(p, a, b)
    tables = np.empty((mn, mn), dtype=np.uint16)
    block = max(1, _GRID_ENTRIES // mn)
    for t in range(n):
        # inverting sends b-exponent j to (n - j) % n; x = a^i b^j sits at i*n + j
        rows, a_t, b_t = tables[(n - t) % n :: n], a[t].T, b[t].reshape(m, n)
        for lo in range(0, m, block):
            grid = a_t[lo : lo + block, None, :] + b_t
            grid %= m
            rows[lo : lo + block] = grid.reshape(len(grid), mn)
    if side == LEFT:
        tables = (m - tables) % m
    restrictions = np.ascontiguousarray(tables[:, ::n])
    return tables, _close(restrictions, restrictions[:0])


def _close(seeds: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """The distinct rows of the least set that holds the seed rows and is
    closed under row -> partner[row] for every partner row.

    Rows are uint16 a-exponent tables and partners are maps restricted to
    <a>, so composing reads a partner at each entry of a row.  Rows are
    keyed on their bytes, one per map, and the frontier is walked in blocks
    of _GRID_ENTRIES entries.  Admitting a row past TABLE_ENTRY_LIMIT held
    entries raises CapExceeded.  The rows come back in sorted byte order, so
    the result does not depend on the block size.  With no partners this is
    a dedupe of the seeds.
    """
    width = seeds.shape[1]
    row_limit = TABLE_ENTRY_LIMIT // width
    seen: set[bytes] = set()
    rows: list[bytes] = []

    def admit(batch: np.ndarray) -> None:
        for row in batch:
            key = row.tobytes()
            if key not in seen:
                if len(rows) == row_limit:
                    raise CapExceeded(
                        f"table closure exceeds {TABLE_ENTRY_LIMIT} entries "
                        f"({row_limit} rows of {width})"
                    )
                seen.add(key)
                rows.append(key)

    admit(seeds)
    block = max(1, _GRID_ENTRIES // width)
    done = 0
    while done < len(rows):
        frontier = _stack(rows[done : done + block], width).astype(np.intp)
        done += len(frontier)
        for partner in partners:
            admit(partner[frontier])
    rows.sort()
    return _stack(rows, width)


def _stack(rows: list[bytes], width: int) -> np.ndarray:
    return np.frombuffer(b"".join(rows), dtype=np.uint16).reshape(-1, width)


def _check_table_route(p: Presentation, side: str) -> None:
    """The front door of both table routes, before any build: refuse a side
    that is not one of SIDES (ValueError), then a group of order above
    TABLE_CAP (CapExceeded)."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if p.m * p.n > TABLE_CAP:
        raise CapExceeded(f"group order {p.m * p.n} exceeds table cap {TABLE_CAP}")


def table_closure(p: Presentation, side: str) -> np.ndarray:
    """All maps of the table semigroup generated by one side's commutation maps.

    Exact byte-level closure of the generator tables, composing with the
    generator restrictions (composition only reads a partner on <a>, where
    every table under closure takes its values).  Returns one uint16 row of
    a-exponents per map, in sorted byte order; entry e is the image of
    a^(e//n) b^(e%n).  Raises ValueError on a bad side and CapExceeded on
    a group `_check_table_route` refuses, both before any build, and
    CapExceeded when the closure outgrows TABLE_ENTRY_LIMIT.
    """
    _check_table_route(p, side)
    return _close(*_generator_tables(p, side))


# ---------------------------------------------------------------------------
# pair -> table translation (the mu definition applied at every element)


def _mu_tables(p: Presentation, codes) -> np.ndarray:
    """Function tables of the mu-maps with codes x*m + y, one uint16 row per
    code: mu(x, y) sends a^i b^j to a^(x*i*k^j - y*k_j)."""
    m = p.m
    _, j_of, a_vec = _element_arrays(p)
    b_vec = np.asarray(p.k_sub, dtype=np.int64)[j_of]
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.empty((codes.size, a_vec.size), dtype=np.uint16)
    block = max(1, _GRID_ENTRIES // a_vec.size)
    for lo in range(0, codes.size, block):
        x, y = np.divmod(codes[lo : lo + block, None], m)
        rows[lo : lo + block] = (x * a_vec - y * b_vec) % m
    return rows


# ---------------------------------------------------------------------------
# fingerprint variant (bulk sweeps)


@lru_cache(maxsize=1)
def _fp_weights(mn: int) -> np.ndarray:
    """The two seeded weight rows for a group of order mn, drawn once per
    order (both sides of a group and both fingerprint routes share them) and
    read-only, since every caller holds the cached array."""
    rng = np.random.default_rng(_FP_SEED)
    w = rng.integers(1, 1 << _FP_BITS, size=(2, mn), dtype=np.int64)
    w.flags.writeable = False
    return w


def _check_fp_exact(m: int, mn: int) -> None:
    # every dot product is bounded by max-entry * sum(weights) < m * mn * 2^bits,
    # which must stay inside float64's exact-integer range
    if m * mn * (1 << _FP_BITS) >= 1 << 53:
        raise CapExceeded("group too large for exact float64 fingerprints")


def _combine64(fp0: np.ndarray, fp1: np.ndarray) -> np.ndarray:
    # fold the two exact dot products into one word so dedupe and set
    # comparison run on a flat uint64 sort; the multipliers only matter for
    # spreading bits, wrap-around is fine
    u0 = fp0.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    u1 = fp1.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    return u0 ^ u1


@lru_cache(maxsize=1)
def _fingerprint_build(p: Presentation):
    """Per-side hash data for the fingerprint oracle, built without tables.

    For a generator g: x -> [x, h] of class t, with the class terms
    [x, h] = A[t, j(x), i(h)] + B[t, x] (`_class_terms`), the weight
    histogram W_g[v] (the weights of the x with g(x) = v) is

        W_g[v] = sum_j H_t[j, (v - A[t, j, i(h)]) mod m],

    with H_t[j] the weight histogram of B[t] over the x of b-exponent j.
    A class costs one bincount of mn keys per weight row and one gather of
    n circulant rows per generator, summed over j; no mn x mn grid or tiled
    weight row is formed, and the gather is blocked at _GRID_ENTRIES.  Every
    sum is exact in float64 (integers below 2^53, `_check_fp_exact`).  The
    restrictions to <a> are A[t, 0, i(h)] + B[t, a^i].  The left side
    follows from [h, x] = [x, h]^-1, the flip v -> (m - v) % m on
    a-exponents, so one rule hashes both sides' generators: w . g is
    W_g @ arange(m) on the right and W_g @ flip on the left.  As the flip
    is an involution, r . W_l = r[flip] . W_r, so the left side shares W
    and flips the columns of its restriction closure instead of copying W.
    """
    m, n = p.m, p.n
    mn = m * n
    _check_fp_exact(m, mn)
    w = _fp_weights(mn)
    a, b = _class_terms(p)
    _spot_check_terms(p, a, b)
    _, j_of, _ = _element_arrays(p)

    # circulants of the H_t[j]: circ[s][t, j, q, v] = H_t[j, (q + v) % m], row m - A reads v - A
    keys = j_of * m + b
    hist = [np.stack([np.bincount(k, w_s, mn) for k in keys]).reshape(n, n, m) for w_s in w]
    circ = [sliding_window_view(np.tile(h, 2), m, axis=2) for h in hist]
    wg = np.empty((2, mn, m), dtype=np.float64)
    restr = np.empty((mn, m), dtype=np.uint16)
    block = max(1, _GRID_ENTRIES // mn)
    j_col = np.arange(n)[:, None]
    for t in range(n):
        w_t, r_t = wg[:, (n - t) % n :: n], restr[(n - t) % n :: n]
        for lo in range(0, m, block):
            q = m - a[t, :, lo : lo + block]
            for s in range(2):
                w_t[s, lo : lo + block] = circ[s][t][j_col, q].sum(axis=0)
            r_t[lo : lo + block] = (a[t, 0, lo : lo + block, None] + b[t, ::n]) % m
    flip = (m - np.arange(m)) % m
    gen_fp_r = (wg @ np.arange(m, dtype=np.float64)).T.astype(np.int64)
    gen_fp_l = (wg @ flip.astype(np.float64)).T.astype(np.int64)
    restr_r = _close(restr, restr[:0])
    restr_l = (m - restr_r) % m
    return {
        RIGHT: (gen_fp_r, wg, _close(restr_r, restr_r)),
        LEFT: (gen_fp_l, wg, _close(restr_l, restr_l)[:, flip]),
    }


def table_fingerprints(p: Presentation, side: str) -> np.ndarray:
    """Fingerprint set of the table closure, without materializing it.

    The closure is exactly {generators} union {t restricted-composed with a
    generator}, where the restrictions of closure elements form their own
    small closure on <a>.  Every candidate's two hashes are evaluated with
    dot products (h(r o g) = r . W_g with W_g[v] = sum of weights over the
    g-preimage of v; the left side reads r[flip] . W_g off the right-side
    histograms, see `_fingerprint_build`), so the whole set costs matrix
    multiplies instead of table materializations.  Distinct tables collide
    with probability about 2^-52 per pair (two independent 26-bit-weight
    hashes, folded to one word); the result is a sorted uint64 vector,
    deduplicated by `_sorted_unique`.  A bad side (ValueError) and a group
    of order above TABLE_CAP (CapExceeded) are refused before any build
    (`_check_table_route`).
    """
    _check_table_route(p, side)
    gen_fp, wg, rc = _fingerprint_build(p)[side]
    rc_f = rc.astype(np.float64)
    prod0 = rc_f @ wg[0].T  # (rc, g)
    prod1 = rc_f @ wg[1].T
    fp0 = np.concatenate([gen_fp[:, 0], prod0.ravel().astype(np.int64)])
    fp1 = np.concatenate([gen_fp[:, 1], prod1.ravel().astype(np.int64)])
    return _sorted_unique(_combine64(fp0, fp1))


def mu_table_fingerprints(p: Presentation, codes: np.ndarray) -> np.ndarray:
    """Fingerprints of the tables of the given mu-maps (codes x*m + y).

    Same weights as table_fingerprints, so equal tables hash equally.  The
    table of mu(x, y) at element e is (x*A[e] - y*B[e]) mod m with
    A[e] = i*k^j and B[e] = k_j, and B takes only n distinct values (one
    per b-exponent), so each hash splits exactly into

        h = w . U  -  sum_j ytab[j] * Wj[j]  +  m * (carry weight),

    where U = (x*A) mod m, ytab = (y*k_j) mod m, Wj sums the weights over
    each b-coset, and the carry weight adds w_e over the entries with
    U[e] < ytab[j_e].  Residue tables replace per-entry products: ytab is
    one (m, n) table read at each code's y, and the keys x*A mod m of a
    block come from one scaled-residue row x*u mod m per x, gathered at A.
    One pass serves every distinct x of a block at once: a bincount over
    (x, j, u) keys gives the per-coset weight histograms, each in a row of
    width m + 1 whose first slot stays empty, and w . U is that histogram
    times u.  One in-place cumsum of the rows then holds at slot c the
    carry weight of the residues below c, so one gather at ytab reads it
    for every code, with no exclusive-sum temporary.  Blocks of x keep the
    (x, element) grid at _GRID_ENTRIES.  Float sums stay exact (integers
    below 2^53, `_check_fp_exact`); returns the sorted uint64 fingerprint
    vector.
    """
    m, n = p.m, p.n
    _, j_of, a_vec = _element_arrays(p)
    mn = a_vec.size
    _check_fp_exact(m, mn)
    w = _fp_weights(mn)
    codes = _sorted_unique(np.asarray(codes, dtype=np.int64))
    xs, ys = np.divmod(codes, m)
    x_vals = _sorted_unique(xs)
    x_of = np.searchsorted(x_vals, xs)  # index of each code's x

    # weight mass of each b-coset (exact: every partial sum stays below 2^38)
    wj = np.stack([np.bincount(j_of, weights=w[s], minlength=n) for s in range(2)])
    residues = np.arange(m, dtype=np.int64)
    ytab = np.outer(residues, np.asarray(p.k_sub[:n], dtype=np.int64)) % m  # (y, j) -> y*k_j
    fp = -(ytab @ wj.astype(np.int64).T)[ys]  # (codes, 2)

    # one padded row of width m + 1 per (x, j): residue u sits in slot u + 1
    # and slot 0 stays empty, so after an inclusive cumsum slot c of a row
    # holds the weight of the residues below c
    width = m + 1
    ytab += np.arange(n) * width  # slot of y*k_j in row j of an x
    j_off = j_of * width + 1
    u_of_slot = np.tile(np.arange(-1, m, dtype=np.float64), n)  # slot 0 weighs nothing
    block = max(1, min(x_vals.size, _GRID_ENTRIES // mn))
    w_rows = np.tile(w.astype(np.float64), block)  # (2, block*mn)
    for lo in range(0, x_vals.size, block):
        xb = x_vals[lo : lo + block]
        nb = xb.size
        scaled = np.outer(xb, residues) % m
        scaled += (np.arange(nb, dtype=np.int64) * (n * width))[:, None]
        key = scaled[:, a_vec]
        key += j_off
        key = key.ravel()
        c_lo, c_hi = np.searchsorted(x_of, [lo, lo + nb])
        x_rel = x_of[c_lo:c_hi] - lo
        at = ytab[ys[c_lo:c_hi]]
        at += (x_rel * (n * width))[:, None]
        for s in range(2):
            hist = np.bincount(key, weights=w_rows[s, : nb * mn], minlength=nb * n * width)
            dot_u = hist.reshape(nb, n * width) @ u_of_slot
            rows = hist.reshape(nb * n, width)
            np.cumsum(rows, axis=1, out=rows)
            carry = hist.take(at).sum(axis=1)
            fp[c_lo:c_hi, s] += dot_u[x_rel].astype(np.int64)
            fp[c_lo:c_hi, s] += m * carry.astype(np.int64)
    return _sorted_unique(_combine64(fp[:, 0], fp[:, 1]))


# ---------------------------------------------------------------------------
# differential check


@dataclass(frozen=True)
class DifferentialReport:
    base_label: str
    base: tuple[int, ...]
    engine_order: int
    pair_order: int
    pair_agree: bool
    table_status: str  # "ok" | "cap_exceeded" | "not_applicable"
    table_order: int | None
    table_agree: bool | None
    witness: MuMap | None

    @property
    def agree(self) -> bool:
        return self.pair_agree and self.table_agree is not False


def differential_check(p: Presentation, s: BaseSet) -> DifferentialReport:
    """Compare the container engine against both brute-force routes.

    The pair oracle always runs; a group over its budget raises
    PairBudgetExceeded before the engine or the oracle allocates anything.
    The table oracle runs only when S is one of the two commutation bases
    (its generators are group-theoretic); when `table_closure` refuses with
    CapExceeded, the table status is "cap_exceeded".

    Each comparison first tests agreement: equal code arrays for the pair
    oracle; for the table oracle, every closure row is the table of the
    mu-map it decodes to, and the decoded codes are the engine's.  Only on
    disagreement are the differing codes formed: the symmetric difference
    with the engine's codes, plus the decoded code of every row that is no
    mu-map.  The witness is the least differing code over both oracles,
    whichever side holds it.
    """
    m = p.m
    _check_pair_budget(m, len(s.elements))
    engine_codes = sigma_mod.element_codes(sigma_mod.analyze(p, s))
    pair_codes = pair_closure_codes(p, mu_generator_codes(p, s))
    pair_agree = bool(np.array_equal(engine_codes, pair_codes))
    differing = [] if pair_agree else [np.setxor1d(engine_codes, pair_codes)]

    bases = ((RIGHT, right_base), (LEFT, left_base))
    side = next((label for label, base in bases if s.elements == base(p).elements), None)
    table_status, table_order, table_agree = "not_applicable", None, None
    if side is not None:
        try:
            rows = table_closure(p, side)
        except CapExceeded:
            table_status = "cap_exceeded"
        else:
            table_status, table_order = "ok", len(rows)
            # mu(x, y) sends a (entry n) to a^x and b (entry 1) to a^(-y*(k-1)),
            # so each row names the one mu-map it can be
            row_codes = rows[:, p.n].astype(np.int64) * m + (
                -rows[:, 1].astype(np.int64) * pow(p.k - 1, -1, m) % m
            )
            is_mu = (_mu_tables(p, row_codes) == rows).all(axis=1)
            table_agree = bool(is_mu.all()) and np.array_equal(np.sort(row_codes), engine_codes)
            if not table_agree:
                differing += [np.setxor1d(engine_codes, row_codes), row_codes[~is_mu]]

    return DifferentialReport(
        base_label=side or "custom",
        base=tuple(sorted(s.elements)),
        engine_order=int(engine_codes.size),
        pair_order=int(pair_codes.size),
        pair_agree=pair_agree,
        table_status=table_status,
        table_order=table_order,
        table_agree=table_agree,
        witness=MuMap(*divmod(int(np.concatenate(differing).min()), m)) if differing else None,
    )
