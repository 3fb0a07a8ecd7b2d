"""Uplink maps, spreading identities, downlink superposition, precoding."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otfsim as ot
from otfsim.errors import AllocationError, IllConditionedError
from otfsim.frame import interleaved_map, localized_map
from otfsim.multiuser import (
    CONDITION_GUARD,
    SpreadingPair,
    despread_user,
    dft_spreading_pair,
    downlink_split,
    downlink_superpose,
    kron_spreader,
    tf_spread,
    uplink_map_dd,
    uplink_map_tf,
    vec_dd,
    vec_tf,
    water_fill,
    zf_precode,
)
from otfsim.transforms import dft_matrix

M, N = 8, 4


def rand_block(rng, N_D, M_d):
    return rng.normal(size=(N_D, M_d)) + 1j * rng.normal(size=(N_D, M_d))


def random_unitary_pair(rng, M_d, N_D):
    a = rng.normal(size=(M, M_d)) + 1j * rng.normal(size=(M, M_d))
    b = rng.normal(size=(N, N_D)) + 1j * rng.normal(size=(N, N_D))
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return SpreadingPair(S_A=qa, S_B=qb)


class TestVecConventions:
    def test_vec_tf_column_major(self):
        x = np.arange(6).reshape(2, 3)
        assert vec_tf(x).tolist() == [0, 3, 1, 4, 2, 5]

    def test_vec_dd_row_major(self):
        x = np.arange(6).reshape(2, 3)
        assert vec_dd(x).tolist() == [0, 1, 2, 3, 4, 5]

    def test_conventions_coincide_through_transpose(self):
        rng = np.random.default_rng(400)
        x = rand_block(rng, 3, 5)
        assert np.array_equal(vec_dd(x), vec_tf(x.T))


class TestUplinkMaps:
    def test_tf_route_is_small_transform_then_placement(self):
        # oracle: transform the block with explicit small DFT matrices and
        # check it lands exactly on the user's rows x columns
        rng = np.random.default_rng(401)
        fmap = localized_map(M, 4, 1)   # subcarriers 4..7
        tmap = localized_map(N, 2, 0)   # slots 0..1
        x = rand_block(rng, 2, 4)
        out = uplink_map_tf(x, fmap, tmap)
        F4, F2 = dft_matrix(4), dft_matrix(2)
        small = F4 @ x.T @ F2.conj().T
        assert_allclose(out[np.ix_([4, 5, 6, 7], [0, 1])], small, atol=1e-12)
        mask = np.ones((M, N), dtype=bool)
        mask[np.ix_([4, 5, 6, 7], [0, 1])] = False
        assert np.abs(out[mask]).max() == 0.0

    def test_interleaved_placement_rows(self):
        rng = np.random.default_rng(402)
        fmap = interleaved_map(M, 4, 1)  # subcarriers 1, 3, 5, 7
        tmap = interleaved_map(N, 2, 0)  # slots 0, 2
        out = uplink_map_tf(rand_block(rng, 2, 4), fmap, tmap)
        occupied = np.argwhere(np.abs(out) > 1e-13)
        assert set(map(tuple, occupied)) <= {(i, j) for i in (1, 3, 5, 7) for j in (0, 2)}

    def test_both_routes_preserve_energy(self):
        rng = np.random.default_rng(403)
        fmap = localized_map(M, 4, 0)
        tmap = localized_map(N, 2, 1)
        x = rand_block(rng, 2, 4)
        for route in (uplink_map_tf, uplink_map_dd):
            assert np.linalg.norm(route(x, fmap, tmap)) == pytest.approx(
                np.linalg.norm(x), abs=1e-10
            )

    def test_routes_differ_in_general(self):
        # placing before vs after the transform are genuinely different
        # maps once the user holds a strict subset of the frame
        rng = np.random.default_rng(404)
        fmap = localized_map(M, 4, 0)
        tmap = localized_map(N, 2, 0)
        x = rand_block(rng, 2, 4)
        a = uplink_map_tf(x, fmap, tmap)
        b = uplink_map_dd(x, fmap, tmap)
        assert np.abs(a - b).max() > 0.1

    def test_full_frame_routes_coincide(self):
        # one user owning everything: ordering no longer matters
        rng = np.random.default_rng(405)
        fmap = localized_map(M, M, 0)
        tmap = localized_map(N, N, 0)
        x = rand_block(rng, N, M)
        assert_allclose(
            uplink_map_tf(x, fmap, tmap), uplink_map_dd(x, fmap, tmap), atol=1e-12
        )

    def test_block_shape_validation(self):
        fmap = localized_map(M, 4, 0)
        tmap = localized_map(N, 2, 0)
        with pytest.raises(ValueError):
            uplink_map_tf(np.ones((4, 2)), fmap, tmap)  # transposed


class TestSpreadingIdentities:
    @pytest.mark.parametrize("map_fn", [localized_map, interleaved_map])
    def test_dd_route_equals_dft_spreading(self, map_fn):
        rng = np.random.default_rng(406)
        fmap = map_fn(M, 4, 1)
        tmap = map_fn(N, 2, 1)
        pair = dft_spreading_pair(fmap, tmap)
        for _ in range(5):
            x = rand_block(rng, 2, 4)
            assert np.abs(uplink_map_dd(x, fmap, tmap) - tf_spread(x, pair)).max() < 1e-12

    def test_kron_route_matches(self):
        rng = np.random.default_rng(407)
        fmap = localized_map(M, 4, 0)
        tmap = localized_map(N, 2, 1)
        pair = dft_spreading_pair(fmap, tmap)
        S = kron_spreader(pair)
        assert S.shape == (M * N, 8)
        for _ in range(5):
            x = rand_block(rng, 2, 4)
            assert_allclose(
                S @ vec_dd(x), vec_tf(tf_spread(x, pair)), atol=1e-12
            )

    def test_kron_identity_for_random_pairs(self):
        # the vec identity is structural, not DFT-specific
        rng = np.random.default_rng(408)
        pair = random_unitary_pair(rng, 3, 2)
        x = rand_block(rng, 2, 3)
        assert_allclose(
            kron_spreader(pair) @ vec_dd(x), vec_tf(tf_spread(x, pair)), atol=1e-12
        )

    def test_pair_validates_column_norms(self):
        with pytest.raises(ValueError):
            SpreadingPair(S_A=2.0 * np.eye(4), S_B=np.eye(2))
        with pytest.raises(ValueError):
            SpreadingPair(S_A=np.eye(4), S_B=np.ones((2, 2)))

    def test_cross_user_columns_orthogonal(self):
        # disjoint allocations give orthogonal spreaders: S_u^H S_v = 0
        spreads = []
        for user in range(2):
            pair = dft_spreading_pair(localized_map(M, 4, user), localized_map(N, 2, user))
            spreads.append(kron_spreader(pair))
        gram_self = spreads[0].conj().T @ spreads[0]
        gram_cross = spreads[0].conj().T @ spreads[1]
        assert_allclose(gram_self, np.eye(8), atol=1e-12)
        assert np.abs(gram_cross).max() < 1e-12


class TestDespreading:
    def test_dd_round_trip(self):
        rng = np.random.default_rng(410)
        fmap = localized_map(M, 4, 1)
        tmap = localized_map(N, 2, 0)
        x = rand_block(rng, 2, 4)
        y = uplink_map_dd(x, fmap, tmap)
        assert_allclose(despread_user(y, fmap, tmap, domain="dd"), x, atol=1e-12)

    def test_tf_round_trip(self):
        rng = np.random.default_rng(411)
        fmap = interleaved_map(M, 4, 0)
        tmap = interleaved_map(N, 2, 1)
        x = rand_block(rng, 2, 4)
        y = uplink_map_tf(x, fmap, tmap)
        assert_allclose(despread_user(y, fmap, tmap, domain="tf"), x, atol=1e-12)

    def test_pair_round_trip(self):
        rng = np.random.default_rng(412)
        pair = random_unitary_pair(rng, 3, 2)
        x = rand_block(rng, 2, 3)
        assert_allclose(despread_user(tf_spread(x, pair), pair=pair), x, atol=1e-12)

    def test_zero_interference_between_users(self):
        # superpose two users, pull each back out exactly
        rng = np.random.default_rng(414)
        for map_fn in (localized_map, interleaved_map):
            blocks = [rand_block(rng, 2, 4) for _ in range(2)]
            users = [(map_fn(M, 4, u), map_fn(N, 2, u)) for u in range(2)]
            Y = sum(uplink_map_dd(b, f, t) for b, (f, t) in zip(blocks, users))
            for b, (f, t) in zip(blocks, users):
                assert np.abs(despread_user(Y, f, t, domain="dd") - b).max() < 1e-12

    def test_white_noise_stays_white(self):
        rng = np.random.default_rng(415)
        fmap = localized_map(M, 4, 0)
        tmap = localized_map(N, 2, 1)
        sigma2 = 0.8
        acc = cnt = 0
        for _ in range(800):
            noise = np.sqrt(sigma2 / 2) * (
                rng.normal(size=(M, N)) + 1j * rng.normal(size=(M, N))
            )
            z = despread_user(noise, fmap, tmap, domain="dd")
            acc += np.sum(np.abs(z) ** 2)
            cnt += z.size
        assert acc / cnt == pytest.approx(sigma2, rel=0.03)

    def test_addressing_style_validation(self):
        fmap = localized_map(M, 4, 0)
        tmap = localized_map(N, 2, 0)
        pair = dft_spreading_pair(fmap, tmap)
        y = np.zeros((M, N), dtype=complex)
        with pytest.raises(ValueError):
            despread_user(y)
        with pytest.raises(ValueError):
            despread_user(y, fmap, tmap, pair=pair)
        with pytest.raises(ValueError):
            despread_user(y, fmap, None)
        with pytest.raises(ValueError):
            despread_user(y, fmap, tmap, domain="time")


class TestDownlink:
    def setup_method(self):
        self.rng = np.random.default_rng(416)
        self.users = [(localized_map(M, 4, u), localized_map(N, 2, u)) for u in range(2)]
        self.blocks = [rand_block(self.rng, 2, 4) for _ in range(2)]

    def test_dd_mapped_is_sum_of_uplink_maps(self):
        Y = downlink_superpose(self.blocks, self.users, mode="dd_mapped")
        ref = sum(uplink_map_dd(b, f, t) for b, (f, t) in zip(self.blocks, self.users))
        assert_allclose(Y, ref, atol=1e-13)

    def test_tf_spread_mode(self):
        pairs = [dft_spreading_pair(f, t) for f, t in self.users]
        Y = downlink_superpose(self.blocks, pairs, mode="tf_spread")
        ref = sum(tf_spread(b, p) for b, p in zip(self.blocks, pairs))
        assert_allclose(Y, ref, atol=1e-13)

    def test_tf_alloc_places_blocks_directly(self):
        Y = downlink_superpose(self.blocks, self.users, mode="tf_alloc")
        for b, (f, t) in zip(self.blocks, self.users):
            got = Y[np.ix_(list(f.selected), list(t.selected))]
            assert_allclose(got, b.T, atol=1e-13)

    def test_tf_alloc_rejects_overlap(self):
        users = [self.users[0], self.users[0]]
        with pytest.raises(AllocationError):
            downlink_superpose(self.blocks, users, mode="tf_alloc")

    def test_tf_alloc_overlap_names_the_first_repeated_resource(self):
        # the third user's cells, in block order: (5, 0), then (2, 0),
        # which user 0 holds
        third = (ot.MappingMatrix(M, (5, 2, 3, 6)), localized_map(N, 2, 0))
        blocks = self.blocks + [rand_block(self.rng, 2, 4)]
        with pytest.raises(AllocationError, match=r"resource \(2, 0\) allocated twice"):
            downlink_superpose(blocks, self.users + [third], mode="tf_alloc")

    def test_dd_mapped_tolerates_overlap(self):
        # spread modes superpose in code space; same maps just add
        users = [self.users[0], self.users[0]]
        Y = downlink_superpose(self.blocks, users, mode="dd_mapped")
        ref = uplink_map_dd(self.blocks[0] + self.blocks[1], *self.users[0])
        assert_allclose(Y, ref, atol=1e-12)

    def test_mode_and_length_validation(self):
        with pytest.raises(ValueError):
            downlink_superpose(self.blocks, self.users, mode="cdma")
        with pytest.raises(ValueError):
            downlink_superpose(self.blocks[:1], self.users, mode="dd_mapped")
        with pytest.raises(ValueError):
            downlink_superpose([], [], mode="dd_mapped")

    def test_split_refuses_a_grid_of_another_frame(self):
        for mode in ("dd_mapped", "tf_alloc"):
            with pytest.raises(ValueError, match=r"expected \(8, 4\) grids"):
                downlink_split(np.ones((16, 4)), self.users, mode)
        with pytest.raises(ValueError):
            downlink_split(np.ones((M, N)), self.users, mode="cdma")
        with pytest.raises(ValueError):
            despread_user(np.ones((16, 4)), *self.users[0], domain="dd")


    def test_users_on_different_frames_are_refused(self):
        # an 8 x 4 and a 4 x 8 frame: cells t * M + f would mean other
        # resources on each, so no grid is built for the pair
        users = [
            (ot.MappingMatrix(8, (0, 1)), ot.MappingMatrix(4, (0, 1))),
            (ot.MappingMatrix(4, (2, 3)), ot.MappingMatrix(8, (2, 3))),
        ]
        blocks = [rand_block(self.rng, 2, 2) for _ in users]
        for mode in ("dd_mapped", "tf_alloc"):
            with pytest.raises(AllocationError, match="different frames"):
                downlink_superpose(blocks, users, mode)
            with pytest.raises(AllocationError, match="different frames"):
                downlink_split(np.ones((8, 4)), users, mode)
        with pytest.raises(AllocationError, match="different frames"):
            ot.UserAllocation(2, 1, users=tuple(users))

def downlink_case(mode, alloc_fn, lead, seed):
    """Four users on the 8 x 4 frame and one random block (stack) each."""
    rng = np.random.default_rng(seed)
    users = list(alloc_fn(ot.make_frame(M, N), 2, 2).users)
    if mode == "tf_spread":
        users = [dft_spreading_pair(f, t) for f, t in users]
    blocks = [rng.normal(size=(*lead, 2, 4)) + 1j * rng.normal(size=(*lead, 2, 4)) for _ in users]
    return rng, users, blocks


ALLOCATIONS = [ot.localized_allocation, ot.interleaved_allocation]


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("alloc_fn", ALLOCATIONS)
@pytest.mark.parametrize("mode", ot.multiuser.DOWNLINK_MODES)
def test_downlink_split_is_the_adjoint_of_superpose(mode, alloc_fn, lead):
    rng, users, x = downlink_case(mode, alloc_fn, lead, 417)
    Y = rng.normal(size=(*lead, M, N)) + 1j * rng.normal(size=(*lead, M, N))
    lhs = np.vdot(downlink_superpose(x, users, mode), Y)
    rhs = sum(np.vdot(b, s) for b, s in zip(x, downlink_split(Y, users, mode)))
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("alloc_fn", ALLOCATIONS)
@pytest.mark.parametrize("mode", ["dd_mapped", "tf_alloc"])
def test_downlink_split_inverts_mapped_superpose(mode, alloc_fn, lead):
    _, users, x = downlink_case(mode, alloc_fn, lead, 418)
    for got, want in zip(downlink_split(downlink_superpose(x, users, mode), users, mode), x):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


class TestZFPrecode:
    def make_channel_operator(self):
        # well-conditioned composed operator: LOS-dominated channel
        params = ot.make_frame(4, 4)
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0), (1, 1, 0.25), (2, -1, 0.15j)))
        return ot.effective_matrix(ot.SchemeConfig("OTFS", params), ch, mode="cyclic")

    def test_zero_interference_and_budget(self):
        H = self.make_channel_operator()
        budget = 3.0
        pre = zf_precode(H, user_partition=[range(0, 8), range(8, 16)], power_budget=budget)
        # budget met exactly in the Frobenius sense
        assert np.linalg.norm(pre.P, "fro") ** 2 == pytest.approx(budget, abs=1e-10)
        # through the channel every symbol comes back scaled by beta alone
        G = H @ pre.P
        assert_allclose(G, pre.beta[0] * np.eye(16), atol=1e-9)
        # explicit cross-user block check
        for i in pre.user_partition[0]:
            for j in pre.user_partition[1]:
                assert abs(G[i, j]) < 1e-9 and abs(G[j, i]) < 1e-9

    def test_transmit_recover_round_trip(self):
        rng = np.random.default_rng(417)
        H = self.make_channel_operator()
        pre = zf_precode(H, user_partition=[range(16)], power_budget=1.0)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        y = H @ (pre.P @ x)
        assert_allclose(y / pre.beta, x, atol=1e-9)

    def test_condition_number_reported(self):
        H = np.diag([2.0, 1.0]).astype(complex)
        pre = zf_precode(H, user_partition=[(0,), (1,)], power_budget=1.0)
        assert pre.condition_number == pytest.approx(2.0)

    def test_ill_conditioned_guard(self):
        H = np.diag([1.0, 0.5 / CONDITION_GUARD]).astype(complex)
        with pytest.raises(IllConditionedError):
            zf_precode(H, user_partition=[(0, 1)], power_budget=1.0)

    def test_partition_validation(self):
        H = np.eye(4, dtype=complex)
        with pytest.raises(AllocationError):
            zf_precode(H, user_partition=[(0, 1), (1, 2)], power_budget=1.0)
        with pytest.raises(AllocationError):
            zf_precode(H, user_partition=[(0, 4)], power_budget=1.0)

    def test_shape_and_budget_validation(self):
        with pytest.raises(ValueError):
            zf_precode(np.ones((2, 3)), user_partition=[(0,)], power_budget=1.0)
        with pytest.raises(ValueError):
            zf_precode(np.eye(2), user_partition=[(0,)], power_budget=0.0)


class TestWaterFill:
    def test_equal_gains_split_evenly(self):
        p = water_fill(np.array([1.0, 1.0]), 2.0, 1.0)
        assert_allclose(p, [1.0, 1.0], atol=1e-10)

    def test_two_channel_closed_form(self):
        # floors 1 and 1/4; both active: mu = (1 + 1.25)/2 = 1.125
        p = water_fill(np.array([1.0, 4.0]), 1.0, 1.0)
        assert_allclose(p, [0.125, 0.875], atol=1e-9)

    def test_weak_channel_shut_off(self):
        p = water_fill(np.array([10.0, 0.01]), 0.1, 1.0)
        assert_allclose(p, [0.1, 0.0], atol=1e-10)

    def test_kkt_conditions(self):
        # independent optimality check: total power exact, common water
        # level on the active set, inactive floors above the level
        rng = np.random.default_rng(418)
        gains = rng.uniform(0.05, 5.0, size=12)
        P, s2 = 3.0, 0.7
        p = water_fill(gains, P, s2)
        assert p.sum() == pytest.approx(P, abs=1e-10)
        assert np.all(p >= 0)
        floors = s2 / gains
        active = p > 1e-12
        levels = p[active] + floors[active]
        mu = levels.mean()
        assert np.abs(levels - mu).max() < 1e-6
        assert np.all(floors[~active] >= mu - 1e-6)

    def test_beats_random_feasible_allocations(self):
        rng = np.random.default_rng(419)
        gains = rng.uniform(0.1, 4.0, size=6)
        P, s2 = 2.0, 0.5

        def capacity(p):
            return np.sum(np.log1p(gains * p / s2))

        best = capacity(water_fill(gains, P, s2))
        for _ in range(25):
            q = rng.dirichlet(np.ones(6)) * P
            assert capacity(q) <= best + 1e-9

    def test_budget_far_below_the_floors_goes_to_the_strongest(self):
        p = water_fill(np.array([1.0, 0.5, 2.0]), 1e-6, 1e20)
        assert np.array_equal(p, [0.0, 0.0, 1e-6])

    def test_exact_over_wide_scales(self):
        # the budget is spent to rounding and the active set shares one
        # level, with gains, budget and noise each over 1e-12..1e12
        rng = np.random.default_rng(420)
        for _ in range(300):
            gains = 10.0 ** rng.uniform(-12, 12, size=rng.integers(1, 9))
            P, s2 = 10.0 ** rng.uniform(-12, 12, size=2)
            p = water_fill(gains, P, s2)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(P, rel=1e-12)
            levels = (p + s2 / gains)[p > 0]
            assert np.ptp(levels) <= 1e-12 * levels.max()

    def test_zero_power(self):
        assert_allclose(water_fill(np.array([1.0, 2.0]), 0.0, 1.0), [0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            water_fill(np.array([1.0, -1.0]), 1.0, 1.0)
        with pytest.raises(ValueError):
            water_fill(np.array([[1.0]]), 1.0, 1.0)
        with pytest.raises(ValueError):
            water_fill(np.array([1.0]), 1.0, 0.0)
        with pytest.raises(ValueError):
            water_fill(np.array([1.0]), -1.0, 1.0)


class TestUplinkEnvelope:
    """Time-domain envelope behaviour of the two uplink routes."""

    @staticmethod
    def active_body(grid, params, tmap):
        sig = ot.heisenberg(grid, params)
        body = sig.body.reshape(params.N, params.M)
        return body[list(tmap.selected)].reshape(-1)

    def test_single_slot_full_band_is_single_carrier(self):
        # N_D = 1 with the whole band: the active slot carries the user's
        # symbols verbatim, so PSK payloads give exactly unit PAPR
        params = ot.make_frame(M, N)
        rng = np.random.default_rng(420)
        fmap = localized_map(M, M, 0)
        for slot in range(N):
            tmap = ot.MappingMatrix(N, (slot,))
            x = np.exp(2j * np.pi * rng.integers(0, 4, size=(1, M)) / 4) / np.sqrt(M)
            grid = uplink_map_tf(x, fmap, tmap)
            s = self.active_body(grid, params, tmap)
            assert ot.papr_samples(s) == pytest.approx(1.0, abs=1e-10)

    def test_multi_slot_papr_bounded_by_slot_count(self):
        params = ot.make_frame(M, N)
        rng = np.random.default_rng(421)
        fmap = localized_map(M, M, 0)
        tmap = localized_map(N, 2, 0)
        worst = 0.0
        for _ in range(200):
            x = np.exp(2j * np.pi * rng.integers(0, 4, size=(2, M)) / 4) / np.sqrt(M)
            s = self.active_body(uplink_map_tf(x, fmap, tmap), params, tmap)
            worst = max(worst, ot.papr_samples(s))
        assert worst <= 2.0 + 1e-9
        assert worst > 1.2  # the bound is actually approached

    def test_structured_spreading_flatter_than_gaussian(self):
        params = ot.make_frame(M, N)
        rng = np.random.default_rng(422)
        fmap = localized_map(M, M, 0)
        tmap = localized_map(N, 2, 0)
        dft_pair = dft_spreading_pair(fmap, tmap)
        g = rng.normal(size=(M * N, 16)) + 1j * rng.normal(size=(M * N, 16))
        gauss, _ = np.linalg.qr(g)
        acc_dft = acc_gauss = 0.0
        trials = 150
        for _ in range(trials):
            x = np.exp(2j * np.pi * rng.integers(0, 4, size=(2, M)) / 4) / np.sqrt(M)
            s = self.active_body(tf_spread(x, dft_pair), params, tmap)
            acc_dft += ot.papr_samples(s)
            grid = (gauss @ vec_dd(x)).reshape(N, M).T
            sig = ot.heisenberg(grid, params)
            acc_gauss += ot.papr_samples(sig.body)
        assert acc_dft / trials < acc_gauss / trials
