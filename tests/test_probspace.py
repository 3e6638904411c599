"""Fourier calculus on biased product spaces, checked against enumeration oracles."""
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascsp.probspace import (
    BiasedSpace,
    DegenerateBiasError,
    FunctionTable,
    PairedSpace,
    character,
    domain_points,
    evaluate,
    fourier_expand,
    high_degree_variance,
    influence,
    multilinear_extend,
    noise_apply,
    pack_bits,
    product_measure,
    split_influences,
    subset_masks,
    unpack_bits,
)

TOL = 1e-9


def random_table(rng, r, biases_pool=(0.2, 0.5, 0.7), bounded=True):
    biases = tuple(rng.choice(biases_pool) for _ in range(r))
    space = BiasedSpace(biases)
    vals = rng.random(2 ** r) if bounded else rng.standard_normal(2 ** r)
    return FunctionTable(space, vals, bounded=bounded)


def oracle_expectation(f):
    """Direct weighted sum over the domain."""
    total = 0.0
    biases = f.space.biases
    for k, pt in enumerate(domain_points(f.space.r)):
        p = math.prod(biases[j] if pt[j] else 1 - biases[j] for j in range(f.space.r))
        total += p * f.values[k]
    return total


def oracle_influence(f, j):
    """Influence as expected conditional variance over coordinate j."""
    r = f.space.r
    biases = f.space.biases
    total = 0.0
    for pt in itertools.product((0, 1), repeat=r):
        if pt[j] != 0:
            continue
        p_rest = math.prod(
            biases[t] if pt[t] else 1 - biases[t] for t in range(r) if t != j
        )
        lo = list(pt)
        hi = list(pt)
        hi[j] = 1
        v0 = f.value_at(lo)
        v1 = f.value_at(hi)
        p = biases[j]
        mean = (1 - p) * v0 + p * v1
        var = (1 - p) * (v0 - mean) ** 2 + p * (v1 - mean) ** 2
        total += p_rest * var
    return total


def oracle_noise(f, rho):
    """Resampling average: keep each coordinate w.p. rho, else redraw."""
    r = f.space.r
    biases = f.space.biases
    out = np.zeros(2 ** r)
    for k, pt in enumerate(domain_points(r)):
        total = 0.0
        for keep in itertools.product((0, 1), repeat=r):
            p_keep = math.prod(rho if b else 1 - rho for b in keep)
            for redraw in itertools.product((0, 1), repeat=r):
                p_redraw = math.prod(
                    biases[t] if redraw[t] else 1 - biases[t] for t in range(r)
                )
                new = [pt[t] if keep[t] else redraw[t] for t in range(r)]
                total += p_keep * p_redraw * f.value_at(new)
        out[k] = total
    return out


class TestCharacter:
    def test_symmetric_bias(self):
        assert character(0.5, 1) == pytest.approx(1.0, abs=TOL)
        assert character(0.5, 0) == pytest.approx(-1.0, abs=TOL)

    def test_skewed_bias_hand_value(self):
        # (1 - 0.2) / sqrt(0.2 * 0.8) = 2
        assert character(0.2, 1) == pytest.approx(2.0, abs=TOL)

    def test_orthonormal_under_measure(self):
        for p in (0.2, 0.5, 0.7):
            mean = (1 - p) * character(p, 0) + p * character(p, 1)
            second = (1 - p) * character(p, 0) ** 2 + p * character(p, 1) ** 2
            assert mean == pytest.approx(0.0, abs=TOL)
            assert second == pytest.approx(1.0, abs=TOL)

    def test_degenerate_bias_rejected(self):
        with pytest.raises(DegenerateBiasError):
            character(0.0, 1)
        with pytest.raises(DegenerateBiasError):
            BiasedSpace((1.0, 0.5))


class TestExpansion:
    def test_dictator_coefficients(self):
        space = BiasedSpace((0.5, 0.5))
        f = FunctionTable(space, [pt[0] for pt in domain_points(2)])
        fh = fourier_expand(f)
        assert fh.coefficient(0b00) == pytest.approx(0.5, abs=TOL)
        assert fh.coefficient(0b01) == pytest.approx(0.5, abs=TOL)
        assert fh.coefficient(0b10) == pytest.approx(0.0, abs=TOL)
        assert fh.coefficient(0b11) == pytest.approx(0.0, abs=TOL)

    def test_constant_has_only_empty_coefficient(self):
        space = BiasedSpace((0.2, 0.7, 0.5))
        fh = fourier_expand(FunctionTable(space, np.full(8, 0.37)))
        assert fh.coefficient(0) == pytest.approx(0.37, abs=TOL)
        assert sum(fh.coeffs ** 2) == pytest.approx(0.37 ** 2, abs=TOL)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = random_table(rng, int(rng.integers(1, 5)), bounded=False)
            back = evaluate(fourier_expand(f))
            np.testing.assert_allclose(back.values, f.values, atol=TOL)

    def test_parseval(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            f = random_table(rng, int(rng.integers(1, 5)))
            fh = fourier_expand(f)
            assert fh.total_weight() == pytest.approx(f.second_moment(), abs=TOL)

    def test_empty_coefficient_is_mean(self):
        rng = np.random.default_rng(9)
        f = random_table(rng, 3)
        fh = fourier_expand(f)
        assert fh.coefficient(0) == pytest.approx(oracle_expectation(f), abs=TOL)


class TestInfluence:
    def test_dictator(self):
        for mu in (0.2, 0.5, 0.7):
            space = BiasedSpace((mu, mu, mu))
            f = FunctionTable(space, [pt[0] for pt in domain_points(3)])
            fh = fourier_expand(f)
            assert influence(fh, 0) == pytest.approx(mu * (1 - mu), abs=TOL)
            assert influence(fh, 1) == pytest.approx(0.0, abs=TOL)
            assert influence(fh, 2) == pytest.approx(0.0, abs=TOL)

    def test_constant(self):
        fh = fourier_expand(FunctionTable(BiasedSpace((0.3, 0.3)), np.full(4, 0.9)))
        assert influence(fh, 0) == pytest.approx(0.0, abs=TOL)
        assert influence(fh, 1) == pytest.approx(0.0, abs=TOL)

    def test_product_character(self):
        space = BiasedSpace((0.2, 0.6, 0.5))
        vals = [
            character(0.2, pt[0]) * character(0.5, pt[2]) for pt in domain_points(3)
        ]
        fh = fourier_expand(FunctionTable(space, vals))
        assert influence(fh, 0) == pytest.approx(1.0, abs=TOL)
        assert influence(fh, 1) == pytest.approx(0.0, abs=TOL)
        assert influence(fh, 2) == pytest.approx(1.0, abs=TOL)

    def test_duality_with_variance_definition(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            r = int(rng.integers(1, 5))
            f = random_table(rng, r)
            fh = fourier_expand(f)
            for j in range(r):
                assert influence(fh, j) == pytest.approx(oracle_influence(f, j), abs=TOL)

    def test_out_of_range(self):
        fh = fourier_expand(random_table(np.random.default_rng(0), 2))
        with pytest.raises(IndexError):
            influence(fh, 2)


class TestNoise:
    def test_identity_and_collapse(self):
        rng = np.random.default_rng(11)
        f = random_table(rng, 3)
        fh = fourier_expand(f)
        np.testing.assert_allclose(noise_apply(fh, 1.0).coeffs, fh.coeffs, atol=TOL)
        collapsed = evaluate(noise_apply(fh, 0.0))
        np.testing.assert_allclose(collapsed.values, oracle_expectation(f), atol=TOL)

    def test_matches_resampling_enumeration(self):
        rng = np.random.default_rng(12)
        for rho in (0.25, 0.6, 0.9):
            f = random_table(rng, 3)
            ours = evaluate(noise_apply(fourier_expand(f), rho)).values
            np.testing.assert_allclose(ours, oracle_noise(f, rho), atol=TOL)

    def test_semigroup(self):
        rng = np.random.default_rng(13)
        f = random_table(rng, 4)
        fh = fourier_expand(f)
        twice = noise_apply(noise_apply(fh, 0.8), 0.5)
        once = noise_apply(fh, 0.4)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=TOL)


class TestDecay:
    def test_degree_one_function(self):
        space = BiasedSpace((0.5, 0.5))
        f = FunctionTable(space, [pt[0] for pt in domain_points(2)])
        assert high_degree_variance(fourier_expand(f), 1) == pytest.approx(0.0, abs=TOL)

    def test_constant(self):
        fh = fourier_expand(FunctionTable(BiasedSpace((0.4,)), [0.3, 0.3]))
        for d in range(4):
            assert high_degree_variance(fh, d) == pytest.approx(0.0, abs=TOL)

    def test_noised_bounded_function_decay(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            f = random_table(rng, 3)
            for eta in (0.25, 0.5):
                g = noise_apply(fourier_expand(f), 1 - eta)
                for d in range(1, 6):
                    assert high_degree_variance(g, d) <= (1 - eta) ** d + TOL


class TestMultilinearExtension:
    def test_matches_on_corners_and_mean(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            r = int(rng.integers(1, 4))
            f = random_table(rng, r, bounded=False)
            poly = multilinear_extend(fourier_expand(f))
            for k, pt in enumerate(domain_points(r)):
                assert poly.evaluate(pt.astype(float)) == pytest.approx(f.values[k], abs=TOL)
            mean_pt = np.array(f.space.biases)
            assert poly.evaluate(mean_pt) == pytest.approx(oracle_expectation(f), abs=TOL)

    def test_and_of_two_coordinates(self):
        space = BiasedSpace((0.3, 0.6))
        f = FunctionTable(space, [pt[0] * pt[1] for pt in domain_points(2)])
        poly = multilinear_extend(fourier_expand(f))
        assert poly.coefficient(0b11) == pytest.approx(1.0, abs=TOL)
        assert poly.coefficient(0b00) == pytest.approx(0.0, abs=TOL)
        assert poly.coefficient(0b01) == pytest.approx(0.0, abs=TOL)


class TestPairedSpace:
    @staticmethod
    def random_paired(rng, r):
        bit = BiasedSpace(tuple(rng.choice((0.2, 0.5, 0.7)) for _ in range(r)), "bit")
        leak = BiasedSpace(tuple(rng.choice((0.1, 0.3)) for _ in range(r)), "leak")
        return FunctionTable(PairedSpace(bit, leak), rng.random(4 ** r), bounded=True)

    def oracle_letter_influence(self, f, j):
        """Variance over the 4-point letter (x(j), z(j)) by enumeration."""
        r = f.space.r
        bit_b, leak_b = f.space.bit.biases, f.space.leak.biases
        total = 0.0
        for pt in itertools.product((0, 1), repeat=2 * r):
            x, z = pt[:r], pt[r:]
            if x[j] != 0 or z[j] != 0:
                continue
            p_rest = 1.0
            for t in range(r):
                if t == j:
                    continue
                p_rest *= bit_b[t] if x[t] else 1 - bit_b[t]
                p_rest *= leak_b[t] if z[t] else 1 - leak_b[t]
            vals, probs = [], []
            for xb in (0, 1):
                for zb in (0, 1):
                    xx, zz = list(x), list(z)
                    xx[j], zz[j] = xb, zb
                    vals.append(f.value_at(xx, zz))
                    probs.append(
                        (bit_b[j] if xb else 1 - bit_b[j])
                        * (leak_b[j] if zb else 1 - leak_b[j])
                    )
            vals, probs = np.array(vals), np.array(probs)
            mean = float(probs @ vals)
            total += p_rest * float(probs @ (vals - mean) ** 2)
        return total

    def test_influence_transfer(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            r = int(rng.integers(1, 4))
            f = self.random_paired(rng, r)
            fh = fourier_expand(f)
            for j in range(r):
                inf_letter = influence(fh, j)
                ix, iz = split_influences(fh, j)
                assert inf_letter == pytest.approx(self.oracle_letter_influence(f, j), abs=TOL)
                assert max(ix, iz) <= inf_letter + TOL

    def test_pair_coefficient_identity(self):
        rng = np.random.default_rng(17)
        f = self.random_paired(rng, 2)
        fh = fourier_expand(f)
        r = 2
        for j in range(r):
            total = 0.0
            for s in range(4):
                for t in range(4):
                    if ((s >> j) & 1) or ((t >> j) & 1):
                        total += fh.coefficient(s, t) ** 2
            assert total == pytest.approx(influence(fh, j), abs=TOL)

    def test_composite_noise(self):
        rng = np.random.default_rng(18)
        f = self.random_paired(rng, 2)
        fh = fourier_expand(f)
        noised = noise_apply(fh, 0.5)
        for s in range(4):
            for t in range(4):
                deg = bin(s).count("1") + bin(t).count("1")
                assert noised.coefficient(s, t) == pytest.approx(
                    fh.coefficient(s, t) * 0.5 ** deg, abs=TOL
                )

    def test_parseval_paired(self):
        rng = np.random.default_rng(19)
        f = self.random_paired(rng, 2)
        fh = fourier_expand(f)
        assert fh.total_weight() == pytest.approx(f.second_moment(), abs=TOL)


class TestBitLayout:
    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 62), data=st.data())
    def test_pack_unpack_round_trip(self, width, data):
        idx = np.array(
            data.draw(st.lists(st.integers(0, 2 ** width - 1), min_size=1, max_size=16)),
            dtype=np.int64,
        )
        bits = unpack_bits(idx, width)
        assert bits.shape == idx.shape + (width,)
        assert set(np.unique(bits)) <= {0, 1}
        # an independent reading of the layout: bit j weighs 2^(width-1-j)
        assert [sum(int(b) << (width - 1 - j) for j, b in enumerate(row)) for row in bits] == idx.tolist()
        for columns in (bits.T, bits.astype(np.int8).T):
            packed = pack_bits(columns)
            assert packed.dtype == np.int64
            np.testing.assert_array_equal(packed, idx)
        assert pack_bits(unpack_bits(int(idx[0]), width).tolist()) == idx[0]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 14), low=st.integers(0, 10), data=st.data())
    def test_broadcast_columns(self, n, low, data):
        """Columns shaped as the split-index scan of ``csp._all_values`` has
        them: one axis per high vertex, then one axis over the low bits."""
        k = min(n, low)
        hi = n - k
        lo_bits = domain_points(k)
        bit = [np.arange(2).reshape((1,) * j + (2,) + (1,) * (hi - j)) for j in range(hi)]
        bit += [lo_bits[:, j].reshape((1,) * hi + (-1,)) for j in range(k)]
        points = domain_points(n)
        for cols in (bit, [b.astype(np.int8) for b in bit]):
            packed = pack_bits(cols)
            assert packed.dtype == np.int64
            np.testing.assert_array_equal(packed.reshape(-1), np.arange(2 ** n))
            # an edge reads some vertices, repeats allowed, in its own order
            vs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=9))
            want = points[:, vs] @ (1 << np.arange(len(vs) - 1, -1, -1))
            got = np.broadcast_to(pack_bits(cols[v] for v in vs), packed.shape)
            np.testing.assert_array_equal(got.reshape(-1), want)

    @settings(max_examples=100, deadline=None)
    @given(width=st.integers(1, 63), data=st.data())
    def test_subset_masks_place_each_bit(self, width, data):
        positions = data.draw(st.lists(st.integers(0, width - 1), unique=True, max_size=min(width, 8)))
        k = len(positions)
        got = subset_masks(np.arange(2 ** k), positions, width)
        assert got.dtype == np.int64
        # index bit j (the first most significant) selects positions[j],
        # which weighs 2^(width-1-positions[j]) in the mask
        want = [
            sum(1 << (width - 1 - p) for j, p in enumerate(positions) if (s >> (k - 1 - j)) & 1)
            for s in range(2 ** k)
        ]
        assert got.tolist() == want
        whole = sum(1 << (width - 1 - p) for p in positions)
        assert int(subset_masks(2 ** k - 1, positions, width)) == whole
        # the identity placement packs a point's own index
        idx = np.arange(2 ** min(width, 10))
        np.testing.assert_array_equal(subset_masks(idx, range(min(width, 10)), min(width, 10)), idx)

    def test_subset_masks_refuse_64_coordinates(self):
        with pytest.raises(ValueError, match="at most 63"):
            subset_masks(1, [0], 64)

    @given(st.lists(st.floats(0.0, 1.0), max_size=10))
    def test_product_measure_is_outer_chain(self, biases):
        want = np.ones(())
        for p in biases:
            want = np.multiply.outer(want, np.array([1.0 - p, p]))
        got = product_measure(biases)
        assert got.shape == (2 ** len(biases),)
        np.testing.assert_array_equal(got, want.reshape(-1))

    def test_no_hand_rolled_layout_outside_probspace(self):
        """probspace is the one module that encodes the bit layout."""
        root = Path(__file__).resolve().parents[1] / "src" / "biascsp"
        pattern = re.compile(r"<< 1\) \||>> np\.arange\(")
        found = [
            f"{path.relative_to(root)}:{no}: {line.strip()}"
            for path in sorted(root.rglob("*.py"))
            if path.name != "probspace.py"
            for no, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)
        ]
        assert not found, "hand-rolled bit layout; use probspace.pack_bits/unpack_bits:\n" + "\n".join(found)

    def test_no_enumeration_under_reduction(self):
        """The lifted-test oracles contract one coordinate at a time; none
        lists outcome combos or coordinate permutations."""
        root = Path(__file__).resolve().parents[1] / "src" / "biascsp"
        pattern = re.compile(r"itertools\.(product|permutations)\b|from itertools import .*\b(product|permutations)\b")
        found = [
            f"{path.relative_to(root)}:{no}: {line.strip()}"
            for path in sorted((root / "reduction").rglob("*.py"))
            for no, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)
        ]
        assert not found, "enumeration under reduction/; contract per coordinate instead:\n" + "\n".join(found)
