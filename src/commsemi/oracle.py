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
grid build makes the right-side tables x -> [x, h]; the left side
x -> [h, x] = [x, h]^-1 is their pointwise negation.  One worklist closure
(`_close`) serves the exact table closure, the closures of the generator
restrictions to <a>, and the dedupe of those restrictions.  For bulk
sweeps the module also offers a fingerprint variant of the table oracle:
candidate tables are deduplicated by two independent random-linear hashes
(exact in float64), a universal-hashing scheme whose collision bound is
independent of the algebra under test; the per-group closure stays exact at
byte level.  A differential check compares the table closure with the
tables of the engine's maps row by row, and a mismatch names a witness
mu-map whichever side holds the extra row.
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
    composition law never reads the partner's y.
    """
    m = p.m
    if m * m > (1 << 31):
        raise ValueError(f"pair oracle needs an m*m membership table; m={m} is too large")
    seen = np.zeros(m * m, dtype=bool)
    frontier = np.unique(np.asarray(gen_codes, dtype=np.int64))
    seen[frontier] = True
    partner_xs = np.unique(frontier // m)
    while frontier.size:
        x, y = frontier // m, frontier % m
        batches = [(x * s % m) * m + (y * s % m) for s in partner_xs]
        cand = np.unique(np.concatenate(batches))
        cand = cand[~seen[cand]]
        seen[cand] = True
        frontier = cand
    return np.flatnonzero(seen)


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

    One grid build makes the right side x -> [x, h] by three normal-form
    products; the left side x -> [h, x] = [x, h]^-1 is its pointwise
    negation v -> (m - v) % m.  The b-exponents telescope to zero (every
    commutator lands in <a>), so only a-exponents are tracked; the build is
    spot-checked here against the scalar commutator, and exhaustively in
    the test suite.  All intermediate sums stay under 3*m^2 (int32-safe
    whenever the table cap admits the group).
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    m, n = p.m, p.n
    mn = m * n
    if 3 * m * m >= 1 << 31:
        raise CapExceeded(f"modulus {m} too large for int32 table construction")
    xi, xii, xij, cpow = _vec_group(p)
    cpow2 = np.concatenate([cpow[:n], cpow[:n]])  # cpow[(u+v) % n] == cpow2[u+v]
    cp1 = cpow[xij]

    tables = np.empty((mn, mn), dtype=np.uint16)
    block = max(1, 4_000_000 // mn)
    for lo in range(0, mn, block):
        hs = np.arange(lo, min(lo + block, mn), dtype=np.int64)
        hi, hii, hij = xi[hs], xii[hs], xij[hs]
        # [x, h] = ((x^-1 h^-1) x) h; rows x, columns h
        t = xii[:, None] + hii[None, :] * cp1[:, None]
        t += xi[:, None] * cpow2[xij[:, None] + hij[None, :]]
        t += (hi * cpow[hij])[None, :]
        tables[hs] = (t % m).T
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
    block = max(1, 4_000_000 // a_vec.size)
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

    The right-side tables are built raw; the left side follows from the
    pointwise commutator inversion [h, x] = [x, h]^-1, which on a-exponents
    is v -> (m - v) % m.  That negation turns each weight histogram row
    into an index flip and each generator hash into
    m*sum(w) - h - m*W[h, 0], all exact in int64.
    """
    m, n = p.m, p.n
    mn = m * n
    _check_fp_exact(m, mn)
    w = _fp_weights(mn, seed)
    wf = w.T.astype(np.float64)  # (mn, 2)
    w0f = np.ascontiguousarray(wf[:, 0])
    w1f = np.ascontiguousarray(wf[:, 1])
    wsum = w.sum(axis=1)  # (2,)

    tables, restr_r = _generator_tables(p, RIGHT)
    g_count = tables.shape[0]
    gen_fp_r = np.empty((g_count, 2), dtype=np.int64)
    wg_r = np.empty((2, g_count, m), dtype=np.float64)
    block = max(1, 4_000_000 // mn)
    row_base = np.arange(block, dtype=np.int64)[:, None] * m
    for lo in range(0, g_count, block):
        gb = tables[lo : lo + block].astype(np.int64)
        nb = gb.shape[0]
        gen_fp_r[lo : lo + nb] = (gb.astype(np.float64) @ wf).astype(np.int64)
        key = (row_base[:nb] + gb).ravel()
        wg_r[0, lo : lo + nb] = np.bincount(
            key, weights=np.broadcast_to(w0f, gb.shape).ravel(), minlength=nb * m
        ).reshape(nb, m)
        wg_r[1, lo : lo + nb] = np.bincount(
            key, weights=np.broadcast_to(w1f, gb.shape).ravel(), minlength=nb * m
        ).reshape(nb, m)

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
    one word); the result is a sorted uint64 vector.
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
    return np.unique(_combine64(fp0, fp1))


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
    U[e] < ytab[j_e] -- recovered per coset from a prefix-summed weight
    histogram instead of touching all m*n entries per map.  All arithmetic
    is int64 and exact; returns the sorted uint64 fingerprint vector.
    """
    m, n = p.m, p.n
    a_vec, _ = _translation_vectors(p)
    mn = a_vec.size
    _check_fp_exact(m, mn)
    w = _fp_weights(mn, seed)
    w0f, w1f = w[0].astype(np.float64), w[1].astype(np.float64)
    codes = np.unique(np.asarray(codes, dtype=np.int64))
    xs, ys = codes // m, codes % m

    j_of = np.arange(mn, dtype=np.int64) % n
    ksub = np.asarray(p.k_sub[:n], dtype=np.int64)
    # weight mass of each b-coset (exact: every partial sum stays below 2^38)
    wj = np.stack(
        [
            np.bincount(j_of, weights=w0f, minlength=n),
            np.bincount(j_of, weights=w1f, minlength=n),
        ]
    ).astype(np.int64)

    key_base = j_of * m  # combined key (j, u) for the per-coset histograms
    cols = np.arange(n)[None, :]
    out = np.empty(codes.size, dtype=np.uint64)
    pos = 0
    for x in np.unique(xs):
        yv = ys[xs == x]
        u_full = (int(x) * a_vec) % m
        dot_u = np.array([w[0] @ u_full, w[1] @ u_full], dtype=np.int64)

        key = key_base + u_full
        pref0 = np.zeros((n, m + 1), dtype=np.int64)
        pref1 = np.zeros((n, m + 1), dtype=np.int64)
        pref0[:, 1:] = np.cumsum(
            np.bincount(key, weights=w0f, minlength=n * m).reshape(n, m), axis=1
        )
        pref1[:, 1:] = np.cumsum(
            np.bincount(key, weights=w1f, minlength=n * m).reshape(n, m), axis=1
        )

        ytab = np.outer(yv, ksub) % m  # (cnt, n)
        term2 = ytab @ wj.T  # (cnt, 2)
        carry0 = pref0[cols, ytab].sum(axis=1)
        carry1 = pref1[cols, ytab].sum(axis=1)

        fp0 = dot_u[0] - term2[:, 0] + m * carry0
        fp1 = dot_u[1] - term2[:, 1] + m * carry1
        out[pos : pos + yv.size] = _combine64(fp0, fp1)
        pos += yv.size
    return np.unique(out)


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
            table_rows = {row.tobytes() for row in table_closure(p, side, cap)}
            mu_rows = {row.tobytes() for row in _mu_tables(p, engine_codes)}
            table_order = len(table_rows)
            table_agree = table_rows == mu_rows
            if not table_agree and witness is None:
                # mu(x, y) sends a (entry n) to a^x and b (entry 1) to a^(-y*(k-1))
                row = np.frombuffer(min(mu_rows - table_rows or table_rows - mu_rows), np.uint16)
                witness = MuMap(int(row[p.n]), -int(row[1]) * pow(p.k - 1, -1, m) % m)

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
