"""Brute-force constructions of the commutation semigroups, for differential testing.

Two independent routes are kept deliberately separate from the container
engine:

* pair closure: worklist closure of mu-map generator codes under the
  composition law alone.  No containers, no orbits, no families.
* table closure: function tables built from raw commutators g^-1 h^-1 g h
  and closed under pointwise composition.  No mu-map algebra at all; the
  only shared code is group-element arithmetic.

Tables are uint16 rows of a-exponents, one row per map (every commutation
map lands in <a>; the builder checks that instead of assuming it).  One
grid build makes the right-side tables x -> [x, h], one b-class of h at a
time in int32 (inside a class the product is an outer product plus two
broadcast adds); the left side x -> [h, x] = [x, h]^-1 is their pointwise
negation.  One worklist closure (`_close`) serves the exact table closure,
the closures of the generator restrictions to <a>, and the dedupe of those
restrictions.  For bulk sweeps the module also offers a fingerprint
variant of the table oracle: candidate tables are deduplicated by two
independent random-linear hashes (exact in float64, since every partial
sum is an integer below 2^53), a universal-hashing scheme whose collision
bound is independent of the algebra under test; the per-group closure
stays exact at byte level.  The hashes are read off weight histograms,
one bincount pass per block, never a product over whole tables.  Every
dedupe of codes or fingerprints is a sort plus a neighbour compare
(`_sorted_unique`): numpy's hash-based `np.unique` is several times slower
on these integer arrays.  Temporaries are blocked at `_GRID_ENTRIES`
entries.  A differential check reads each closure row back as the mu-map
it can be, compares those codes with the engine's and each row with the
table of its code, and a mismatch names a witness mu-map whichever side
holds the extra map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sigma as sigma_mod
from .group import Presentation
from .mumap import MuMap
from .sigma import LEFT, RIGHT, SIDES, BaseSet, left_base, right_base

DEFAULT_TABLE_CAP = 4000
# Fixed seed for the fingerprint weights: identical runs produce identical
# fingerprints, and the exactness bound below never depends on the seed.
_FP_SEED = 0x5EC7
_FP_BITS = 26
# Entries per int grid block (grid builds, histograms, mu-map tables): caps
# the temporaries at a few tens of MB whatever the group order.
_GRID_ENTRIES = 4_000_000


class CapExceeded(ValueError):
    """The group is too large for the function-table representation."""


# ---------------------------------------------------------------------------
# pair oracle


def mu_generator_codes(p: Presentation, s: BaseSet) -> np.ndarray:
    """Codes x*m + y of the generator set {mu(s, z) : s in S, z in Z_m}."""
    m = p.m
    return np.concatenate([b * m + np.arange(m, dtype=np.int64) for b in sorted(s.elements)])


def pair_closure_codes(p: Presentation, gen_codes: np.ndarray) -> np.ndarray:
    """Vectorized pair closure over codes x*m + y; returns the sorted result.

    Composing on the right with generators only suffices (every product
    reduces to gen.gen...gen), and one partner per distinct x does too: the
    composition law never reads the partner's y.  Each round marks its
    products in a boolean `fresh` mask beside the m*m `seen` table, so a
    round dedupes by scattering, with no sort and no concatenated batch.
    """
    m = p.m
    if m * m > (1 << 31):
        raise ValueError(f"pair oracle needs an m*m membership table; m={m} is too large")
    seen = np.zeros(m * m, dtype=bool)
    fresh = np.zeros_like(seen)
    frontier = _sorted_unique(np.asarray(gen_codes, dtype=np.int64))
    seen[frontier] = True
    partner_xs = _sorted_unique(frontier // m)
    while frontier.size:
        x, y = np.divmod(frontier, m)
        for s in partner_xs:
            fresh[(x * s % m) * m + (y * s % m)] = True
        np.greater(fresh, seen, out=fresh)  # not yet seen; also clears the last round
        frontier = np.flatnonzero(fresh)
        seen[frontier] = True
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
def _vec_group(p: Presentation):
    """Element-indexed component arrays for vectorized normal-form products."""
    m, n = p.m, p.n
    mn = m * n
    i_of = (np.arange(mn, dtype=np.int64) // n).astype(np.int32)
    j_of = (np.arange(mn, dtype=np.int64) % n).astype(np.int32)
    kpow = np.asarray(p.k_pow, dtype=np.int64)
    cpow = np.asarray(p.c_pow, dtype=np.int32)
    inv_i = ((-i_of.astype(np.int64) * kpow[j_of]) % m).astype(np.int32)
    inv_j = ((n - j_of) % n).astype(np.int32)
    return i_of, inv_i, inv_j, cpow


def _generator_tables(p: Presentation, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Commutation-map tables for one side (one row per h in G, a-exponent
    entries) plus the distinct restrictions to <a>.

    One grid build makes the right side x -> [x, h] = ((x^-1 h^-1) x) h by
    three normal-form products; the left side x -> [h, x] = [x, h]^-1 is
    its pointwise negation v -> (m - v) % m.  The b-exponents telescope to
    zero (every commutator lands in <a>), so only a-exponents are tracked.
    The grid is built one class of h at a time, the class holding the h
    whose inverse has b-exponent t.  Within a class the b-exponent of
    x^-1 h^-1 is fixed by x alone, so the rows are

        [x, h] = ii(h) * c^(j(x^-1)) + (i(x) * c^((j(x^-1) + t) % n) + ii(x)) + i(h) * c^t

    with ii the a-exponent of the inverse: one outer product and two
    broadcast adds in int32, with no 2-D gather.  All sums stay under
    3*m^2 (int32-safe, checked below).  The build is spot-checked here
    against the scalar commutator, and exhaustively in the test suite.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    m, n = p.m, p.n
    mn = m * n
    if 3 * m * m >= 1 << 31:
        raise CapExceeded(f"modulus {m} too large for int32 table construction")
    xi, xii, xij, cpow = _vec_group(p)
    cp1 = cpow[xij]

    tables = np.empty((mn, mn), dtype=np.uint16)
    block = max(1, _GRID_ENTRIES // mn)
    for t in range(n):
        # elements are a^i b^j at index i*n + j, and inverting sends j to (n - j) % n
        hs = slice((n - t) % n, mn, n)
        rows, hii, h_term = tables[hs], xii[hs], xi[hs] * cpow[t]
        x_term = xi * cpow[(xij + t) % n] + xii
        for lo in range(0, m, block):
            grid = np.outer(hii[lo : lo + block], cp1)
            grid += x_term
            grid += h_term[lo : lo + block, None]
            grid %= m
            rows[lo : lo + block] = grid
    if side == LEFT:
        tables = (m - tables) % m

    _spot_check_tables(p, side, tables)
    restrictions = np.ascontiguousarray(tables[:, ::n])
    return tables, _close(restrictions, restrictions[:0])


def _spot_check_tables(p: Presentation, side: str, tables: np.ndarray) -> None:
    # anchor the vectorized build to the definitional scalar commutator
    from .group import GroupElement, commutator_direct

    n = p.n
    mn = p.m * n
    rng = np.random.default_rng(0)
    for _ in range(8):
        h_e, x_e = int(rng.integers(mn)), int(rng.integers(mn))
        h = GroupElement(h_e // n, h_e % n)
        x = GroupElement(x_e // n, x_e % n)
        want = commutator_direct(p, x, h) if side == RIGHT else commutator_direct(p, h, x)
        if (want.i, want.j) != (int(tables[h_e, x_e]), 0):
            raise AssertionError(f"table build disagrees with scalar commutator at {h}, {x}")


def _close(seeds: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """The distinct rows of the least set that holds the seed rows and is
    closed under row -> partner[row] for every partner row.

    Rows are uint16 a-exponent tables and partners are maps restricted to
    <a>, so composing reads a partner at each entry of a row.  Rows are
    keyed on their bytes and come back in discovery order, one per map.
    With no partners this is a dedupe of the seeds.
    """
    width = seeds.shape[1]
    seen: set[bytes] = set()
    rows: list[bytes] = []

    def admit(batch: np.ndarray) -> None:
        for row in batch:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(key)

    admit(seeds)
    done = 0
    while done < len(rows):
        frontier = _stack(rows[done:], width).astype(np.intp)
        done = len(rows)
        for partner in partners:
            admit(partner[frontier])
    return _stack(rows, width)


def _stack(rows: list[bytes], width: int) -> np.ndarray:
    return np.frombuffer(b"".join(rows), dtype=np.uint16).reshape(-1, width)


def table_closure(p: Presentation, side: str, cap: int = DEFAULT_TABLE_CAP) -> np.ndarray:
    """All maps of the table semigroup generated by one side's commutation maps.

    Exact byte-level closure of the generator tables, composing with the
    generator restrictions (composition only reads a partner on <a>, where
    every table under closure takes its values).  Returns one uint16 row of
    a-exponents per map; entry e is the image of a^(e//n) b^(e%n).
    """
    mn = p.m * p.n
    if mn > cap:
        raise CapExceeded(f"group order {mn} exceeds table cap {cap}")
    return _close(*_generator_tables(p, side))


# ---------------------------------------------------------------------------
# pair -> table translation (the mu definition applied at every element)


@lru_cache(maxsize=32)
def _translation_vectors(p: Presentation) -> tuple[np.ndarray, np.ndarray]:
    m, n = p.m, p.n
    i_of = np.arange(m * n, dtype=np.int64) // n
    j_of = np.arange(m * n, dtype=np.int64) % n
    kpow = np.asarray(p.k_pow, dtype=np.int64)
    ksub = np.asarray(p.k_sub, dtype=np.int64)
    return (i_of * kpow[j_of]) % m, ksub[j_of]


def _mu_tables(p: Presentation, codes) -> np.ndarray:
    """Function tables of the mu-maps with codes x*m + y, one uint16 row per
    code: mu(x, y) sends a^i b^j to a^(x*i*k^j - y*k_j)."""
    m = p.m
    a_vec, b_vec = _translation_vectors(p)
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.empty((codes.size, a_vec.size), dtype=np.uint16)
    block = max(1, _GRID_ENTRIES // a_vec.size)
    for lo in range(0, codes.size, block):
        x, y = np.divmod(codes[lo : lo + block, None], m)
        rows[lo : lo + block] = (x * a_vec - y * b_vec) % m
    return rows


# ---------------------------------------------------------------------------
# fingerprint variant (bulk sweeps)


def _fp_weights(mn: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(1, 1 << _FP_BITS, size=(2, mn), dtype=np.int64)


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
def _fingerprint_build(p: Presentation, seed: int):
    """Per-side hash data for the fingerprint oracle, built from one pass.

    For each generator table g the pass builds the weight histograms
    W_g[v] = sum of w_e over the entries e with g[e] = v, by one bincount
    over (row, value) keys.  The generator hashes follow from them as
    w . g = sum_v v * W_g[v] = W_g @ arange(m): a float64 product that is
    exact, because every partial sum is an integer below 2^53
    (`_check_fp_exact`).  The right-side tables are built raw; the left
    side follows from the pointwise commutator inversion
    [h, x] = [x, h]^-1, which on a-exponents is v -> (m - v) % m.  That
    negation turns each histogram row into an index flip and each
    generator hash into m*sum(w) - h - m*W[h, 0], all exact in int64.
    """
    m, n = p.m, p.n
    mn = m * n
    _check_fp_exact(m, mn)
    w = _fp_weights(mn, seed)
    wsum = w.sum(axis=1)  # (2,)

    tables, restr_r = _generator_tables(p, RIGHT)
    g_count = tables.shape[0]
    wg_r = np.empty((2, g_count, m), dtype=np.float64)
    block = max(1, min(g_count, _GRID_ENTRIES // mn))
    w_rows = np.tile(w.astype(np.float64), block)  # (2, block*mn), one weight row per table
    row_base = np.arange(block, dtype=np.int64)[:, None] * m
    key = np.empty((block, mn), dtype=np.int64)  # (row, value) keys, reused by every block
    for lo in range(0, g_count, block):
        nb = min(block, g_count - lo)
        np.add(row_base[:nb], tables[lo : lo + nb], out=key[:nb])
        for s in range(2):
            wg_r[s, lo : lo + nb] = np.bincount(
                key[:nb].ravel(), weights=w_rows[s, : nb * mn], minlength=nb * m
            ).reshape(nb, m)
    gen_fp_r = (wg_r @ np.arange(m, dtype=np.float64)).T.astype(np.int64)

    flip = (m - np.arange(m)) % m
    wg_l = np.ascontiguousarray(wg_r[:, :, flip])
    gen_fp_l = (m * wsum)[None, :] - gen_fp_r - m * wg_r[:, :, 0].T.astype(np.int64)
    restr_l = (m - restr_r) % m

    return {
        RIGHT: (gen_fp_r, wg_r, _close(restr_r, restr_r)),
        LEFT: (gen_fp_l, wg_l, _close(restr_l, restr_l)),
    }


def table_fingerprints(
    p: Presentation, side: str, cap: int = DEFAULT_TABLE_CAP, seed: int = _FP_SEED
) -> np.ndarray:
    """Fingerprint set of the table closure, without materializing it.

    The closure is exactly {generators} union {t restricted-composed with a
    generator}, where the restrictions of closure elements form their own
    small closure on <a>.  Every candidate's two hashes are evaluated with
    dot products (h(r o g) = r . W_g with W_g[v] = sum of weights over the
    g-preimage of v), so the whole set costs matrix multiplies instead of
    table materializations.  Distinct tables collide with probability
    about 2^-52 per pair (two independent 26-bit-weight hashes, folded to
    one word); the result is a sorted uint64 vector, deduplicated by
    `_sorted_unique`.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if p.m * p.n > cap:
        raise CapExceeded(f"group order {p.m * p.n} exceeds table cap {cap}")
    gen_fp, wg, rc = _fingerprint_build(p, seed)[side]
    rc_f = rc.astype(np.float64)
    prod0 = rc_f @ wg[0].T  # (rc, g)
    prod1 = rc_f @ wg[1].T
    fp0 = np.concatenate([gen_fp[:, 0], prod0.ravel().astype(np.int64)])
    fp1 = np.concatenate([gen_fp[:, 1], prod1.ravel().astype(np.int64)])
    return _sorted_unique(_combine64(fp0, fp1))


def mu_table_fingerprints(
    p: Presentation, codes: np.ndarray, seed: int = _FP_SEED
) -> np.ndarray:
    """Fingerprints of the tables of the given mu-maps (codes x*m + y).

    Same weights as table_fingerprints, so equal tables hash equally.  The
    table of mu(x, y) at element e is (x*A[e] - y*B[e]) mod m with
    A[e] = i*k^j and B[e] = k_j, and B takes only n distinct values (one
    per b-exponent), so each hash splits exactly into

        h = w . U  -  sum_j ytab[j] * Wj[j]  +  m * (carry weight),

    where U = (x*A) mod m, ytab = (y*k_j) mod m, Wj sums the weights over
    each b-coset, and the carry weight adds w_e over the entries with
    U[e] < ytab[j_e].  One pass serves every distinct x of a block at once:
    a bincount over (x, j, u) keys gives the per-coset weight histograms,
    w . U is that histogram times u, an exclusive cumsum gives the carry
    weights below each u, and one fancy-index gather reads them for every
    code.  Blocks of x keep the (x, element) grid at _GRID_ENTRIES.  Float
    sums stay exact (integers below 2^53, `_check_fp_exact`); returns the
    sorted uint64 fingerprint vector.
    """
    m, n = p.m, p.n
    a_vec, _ = _translation_vectors(p)
    mn = a_vec.size
    _check_fp_exact(m, mn)
    w = _fp_weights(mn, seed)
    codes = _sorted_unique(np.asarray(codes, dtype=np.int64))
    xs, ys = np.divmod(codes, m)
    x_vals = _sorted_unique(xs)
    x_of = np.searchsorted(x_vals, xs)  # index of each code's x

    j_of = np.arange(mn, dtype=np.int64) % n
    ksub = np.asarray(p.k_sub[:n], dtype=np.int64)
    # weight mass of each b-coset (exact: every partial sum stays below 2^38)
    wj = np.stack([np.bincount(j_of, weights=w[s], minlength=n) for s in range(2)])
    ytab = np.outer(ys, ksub) % m  # (codes, n)
    fp = -(ytab @ wj.astype(np.int64).T)  # (codes, 2)

    block = max(1, min(x_vals.size, _GRID_ENTRIES // mn))
    w_rows = np.tile(w.astype(np.float64), block)  # (2, block*mn)
    key_base = (np.arange(block, dtype=np.int64)[:, None] * n + j_of) * m  # (x, j, 0)
    u_of_key = np.tile(np.arange(m, dtype=np.float64), n)
    for lo in range(0, x_vals.size, block):
        xb = x_vals[lo : lo + block]
        nb = xb.size
        key = (xb[:, None] * a_vec) % m
        key += key_base[:nb]
        key = key.ravel()
        c_lo, c_hi = np.searchsorted(x_of, [lo, lo + nb])
        at = ((x_of[c_lo:c_hi] - lo)[:, None] * n + np.arange(n)) * m + ytab[c_lo:c_hi]
        for s in range(2):
            hist = np.bincount(key, weights=w_rows[s, : nb * mn], minlength=nb * mn)
            dot_u = hist.reshape(nb, mn) @ u_of_key
            below = np.cumsum(hist.reshape(nb * n, m), axis=1)
            below -= hist.reshape(nb * n, m)
            carry = below.ravel()[at].sum(axis=1)
            fp[c_lo:c_hi, s] += dot_u[x_of[c_lo:c_hi] - lo].astype(np.int64)
            fp[c_lo:c_hi, s] += m * carry.astype(np.int64)
    return _sorted_unique(_combine64(fp[:, 0], fp[:, 1]))


# ---------------------------------------------------------------------------
# differential check


@dataclass(frozen=True)
class DifferentialReport:
    m: int
    k: int
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


def differential_check(
    p: Presentation,
    s: BaseSet,
    *,
    cap: int = DEFAULT_TABLE_CAP,
) -> DifferentialReport:
    """Compare the container engine against both brute-force routes.

    The pair oracle always runs.  The table oracle runs only when S is one
    of the two commutation bases (its generators are group-theoretic) and
    the group fits under the cap.
    """
    m = p.m
    analysis = sigma_mod.analyze(p, s)
    engine_codes = np.asarray(sigma_mod.element_codes(analysis), dtype=np.int64)
    pair_codes = pair_closure_codes(p, mu_generator_codes(p, s))
    pair_agree = engine_codes.size == pair_codes.size and bool(
        np.array_equal(engine_codes, pair_codes)
    )

    witness = None
    if not pair_agree:
        diff = np.setxor1d(engine_codes, pair_codes)
        witness = MuMap(*divmod(int(diff[0]), m))

    if s.elements == right_base(p).elements:
        base_label, side = RIGHT, RIGHT
    elif s.elements == left_base(p).elements:
        base_label, side = LEFT, LEFT
    else:
        base_label, side = "custom", None

    table_status = "not_applicable"
    table_order: int | None = None
    table_agree: bool | None = None
    if side is not None:
        if p.m * p.n > cap:
            table_status = "cap_exceeded"
        else:
            table_status = "ok"
            rows = table_closure(p, side, cap)
            table_order = len(rows)
            # mu(x, y) sends a (entry n) to a^x and b (entry 1) to a^(-y*(k-1)),
            # so each row names the one mu-map it can be
            row_codes = rows[:, p.n].astype(np.int64) * m + (
                -rows[:, 1].astype(np.int64) * pow(p.k - 1, -1, m) % m
            )
            is_mu = (_mu_tables(p, row_codes) == rows).all(axis=1)
            table_agree = bool(is_mu.all()) and np.array_equal(np.sort(row_codes), engine_codes)
            if not table_agree and witness is None:
                extra = np.setdiff1d(engine_codes, row_codes[is_mu])
                if not extra.size:
                    extra = np.union1d(row_codes[~is_mu], np.setdiff1d(row_codes, engine_codes))
                witness = MuMap(*divmod(int(extra[0]), m))

    return DifferentialReport(
        m=p.m,
        k=p.k,
        base_label=base_label,
        base=tuple(sorted(s.elements)),
        engine_order=int(engine_codes.size),
        pair_order=int(pair_codes.size),
        pair_agree=pair_agree,
        table_status=table_status,
        table_order=table_order,
        table_agree=table_agree,
        witness=witness,
    )
