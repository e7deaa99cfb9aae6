import numpy as np
import pytest

from commsemi import group
from commsemi.group import GroupElement, IDENTITY


def cayley_codes(p):
    """Full multiplication table as codes i*n + j, built through multiply()."""
    mn = p.m * p.n
    els = p.elements()
    code = {e: i * p.n + j for (i, j), e in zip(((e.i, e.j) for e in els), els)}
    table = np.empty((mn, mn), dtype=np.int64)
    for x, gx in enumerate(els):
        for y, gy in enumerate(els):
            table[x, y] = code[group.multiply(p, gx, gy)]
    return table


def stored_tables(m, k):
    """The power tables as validate built and stored them eagerly: k^t and
    k^t - 1 mod m for 0 <= t <= n, then k_pow reversed for c = k^-1."""
    k_pow = [1]
    while len(k_pow) == 1 or k_pow[-1] != 1:
        k_pow.append(k_pow[-1] * k % m)
    return tuple(k_pow), tuple((x - 1) % m for x in k_pow), tuple(k_pow[::-1])


class TestValidate:
    def test_s3(self):
        p = group.validate(3, 2)
        assert (p.m, p.n, p.k) == (3, 2, 2)

    def test_g63_values(self):
        p = group.validate(63, 2)
        assert (p.m, p.n, p.k) == (63, 6, 2)
        assert p.k_sub[: p.n] == (0, 1, 3, 7, 15, 31)
        assert p.k_sub[0] == 0 and p.k_sub[p.n] == 0

    def test_non_trivial_centre_rejected(self):
        with pytest.raises(group.NonTrivialCentre):
            group.validate(9, 4)

    def test_not_coprime_rejected(self):
        with pytest.raises(group.NotCoprimeK):
            group.validate(63, 21)
        with pytest.raises(group.NotCoprimeK):
            group.validate(5, 0)

    def test_abelian_rejected(self):
        with pytest.raises(group.Abelian):
            group.validate(5, 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            group.validate(5, 7)

    def test_c_powers_are_k_powers_reversed(self):
        # c = k^-1 and k^n = 1, so c^t = k^(n - t): c_pow is k_pow read
        # backwards, and each entry is the inverse power computed directly.
        # validate stores no table; the first read builds the same tuples
        # the presentation once stored as fields
        valid = 0
        for m in range(3, 200):
            for k in range(2, m):
                try:
                    p = group.validate(m, k)
                except group.InvalidPresentation:
                    continue
                valid += 1
                assert vars(p) == {"m": m, "n": p.n, "k": k}, (m, k)
                if m <= 60:
                    assert (p.k_pow, p.k_sub, p.c_pow) == stored_tables(m, k), (m, k)
                assert p.c_pow == p.k_pow[::-1], (m, k)
                assert list(p.c_pow) == [pow(k, -t, m) for t in range(p.n + 1)], (m, k)
        assert valid == 6563

    def test_equality_and_hash_see_only_m_n_k(self):
        read, unread = group.validate(63, 2), group.validate(63, 2)
        assert read.k_sub[1] == 1 and "k_sub" not in vars(unread)
        assert read == unread and hash(read) == hash(unread)
        assert {read: "first"}[unread] == "first"
        assert read != group.validate(63, 5)

    @pytest.mark.parametrize("m_hi", [80])
    def test_validated_m_is_always_odd(self, m_hi):
        # even m forces k odd, hence gcd(m, k-1) >= 2
        for m in range(2, m_hi, 2):
            for k in range(2, m):
                with pytest.raises(group.InvalidPresentation):
                    group.validate(m, k)


class TestGroupAxioms:
    def test_relations_hold(self, g63):
        p = g63
        a, b = GroupElement(1, 0), GroupElement(0, 1)
        x = IDENTITY
        for _ in range(p.m):
            x = group.multiply(p, x, a)
        assert x == IDENTITY  # a^m = 1
        x = IDENTITY
        for _ in range(p.n):
            x = group.multiply(p, x, b)
        assert x == IDENTITY  # b^n = 1
        conj = group.multiply(p, group.multiply(p, group.inverse(p, b), a), b)
        assert conj == GroupElement(p.k, 0)  # a^b = a^k

    def test_associativity_exhaustive(self, g63):
        # all (mn)^3 triples through the code table: t[t[x,y],z] == t[x,t[y,z]]
        t = cayley_codes(g63)
        mn = t.shape[0]
        xy_z = t[t.reshape(mn * mn), :].reshape(mn, mn, mn)
        x_yz = t[:, t.reshape(mn * mn)].reshape(mn, mn, mn)
        assert np.array_equal(xy_z, x_yz)

    def test_identity_and_inverse(self, g7):
        p = g7
        for g in p.elements():
            assert group.multiply(p, g, IDENTITY) == g
            assert group.multiply(p, IDENTITY, g) == g
            assert group.multiply(p, g, group.inverse(p, g)) == IDENTITY
            assert group.multiply(p, group.inverse(p, g), g) == IDENTITY

    def test_group_order(self, g63):
        assert len(set(g63.elements())) == g63.order == 63 * 6


class TestMultiply:
    def test_already_normal(self, g3):
        a, b = GroupElement(1, 0), GroupElement(0, 1)
        assert group.multiply(g3, a, b) == GroupElement(1, 1)

    def test_b_times_a(self, g3):
        # c = k^-1 = 2 mod 3, so b a = a^2 b; checked against the axioms by
        # multiplying back: (b a)(a^2 b)^-1 must be the identity
        b, a = GroupElement(0, 1), GroupElement(1, 0)
        ba = group.multiply(g3, b, a)
        assert ba == GroupElement(2, 1)
        assert group.multiply(g3, ba, group.inverse(g3, GroupElement(2, 1))) == IDENTITY

    def test_inverse_special_cases(self, g5):
        p = g5
        assert group.inverse(p, IDENTITY) == IDENTITY
        assert group.inverse(p, GroupElement(1, 0)) == GroupElement(p.m - 1, 0)
        assert group.inverse(p, GroupElement(0, 1)) == GroupElement(0, p.n - 1)


class TestCommutators:
    def test_a_b_commutator(self, g63):
        # [a, b] = a^(k-1) = a^1
        a, b = GroupElement(1, 0), GroupElement(0, 1)
        assert group.commutator_formula(g63, a, b) == GroupElement(1, 0)
        assert group.commutator_direct(g63, a, b) == GroupElement(1, 0)

    def test_self_commutator(self, g7):
        for g in g7.elements():
            assert group.commutator_formula(g7, g, g) == IDENTITY
            assert group.commutator_direct(g7, g, IDENTITY) == IDENTITY

    @pytest.mark.parametrize("fixture", ["g3", "g5", "g7", "g63"])
    def test_formula_matches_direct_exhaustively(self, fixture, request):
        p = request.getfixturevalue(fixture)
        for g in p.elements():
            for h in p.elements():
                direct = group.commutator_direct(p, g, h)
                assert direct.j == 0  # commutators land in <a>
                assert group.commutator_formula(p, g, h) == direct


class TestCentre:
    @pytest.mark.parametrize("fixture", ["g3", "g63"])
    def test_validated_presentations_have_trivial_centre(self, fixture, request):
        p = request.getfixturevalue(fixture)
        assert group.centre(p) == {IDENTITY}

    def test_large_validated_centres(self):
        for m, k in [(315, 272), (135, 62)]:
            assert group.centre(group.validate(m, k)) == {IDENTITY}

    def test_rejected_pair_has_central_a_cubed(self):
        # gcd(9, 3) = 3: a^3 commutes with everything
        p = group.unchecked(9, 4)
        assert p.n == 3
        assert group.centre(p) == {
            IDENTITY,
            GroupElement(3, 0),
            GroupElement(6, 0),
        }

    def test_unchecked_still_needs_a_unit_k(self):
        with pytest.raises(group.NotCoprimeK):
            group.unchecked(9, 3)
