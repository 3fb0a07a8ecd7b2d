"""Frame geometry, index maps and allocations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otfsim as ot
from otfsim.errors import AllocationError


class TestFrameParams:
    def test_resolutions(self):
        params = ot.make_frame(16, 8, delta_f=15e3)
        assert params.T == pytest.approx(1 / 15e3)
        assert params.bandwidth == pytest.approx(16 * 15e3)
        assert params.block_duration == pytest.approx(8 / 15e3)
        # delay resolution 1/(M df), Doppler resolution 1/(N T)
        assert params.delay_resolution == pytest.approx(1 / (16 * 15e3))
        assert params.doppler_resolution == pytest.approx(15e3 / 8)
        assert params.dof == 128

    def test_resolution_product(self):
        # delay res * doppler res * M * N == 1/(T * delta_f) * ... = 1 cell area
        params = ot.make_frame(4, 2, delta_f=1e3)
        cell_area = params.delay_resolution * params.doppler_resolution
        assert cell_area * params.dof == pytest.approx(params.T * params.bandwidth / params.M, rel=1e-12)

    @pytest.mark.parametrize("M,N,df", [(0, 4, 1e3), (4, 0, 1e3), (4, 4, 0.0), (4, 4, -1.0),
                                        (8.7, 2, 1e3), (4, 2.5, 1e3)])
    def test_invalid(self, M, N, df):
        with pytest.raises(ValueError):
            ot.make_frame(M, N, df)

    def test_numpy_integers_accepted(self):
        assert ot.make_frame(np.int64(8), np.int32(2)) == ot.make_frame(8, 2)


class TestTimeSignal:
    def test_body_strips_prefix(self):
        rng = np.random.default_rng(3)
        body = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        slots = np.concatenate([body[:, -1:], body], axis=1)  # cp_len 1
        sig = ot.TimeSignal(samples=slots.reshape(-1), cp_len=1, sample_rate=1.0, num_slots=2)
        assert sig.slot_len == 5 and sig.body_len == 4
        assert_allclose(sig.body, body.reshape(-1))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ot.TimeSignal(samples=np.zeros(7), cp_len=0, sample_rate=1.0, num_slots=2)
        with pytest.raises(ValueError):
            ot.TimeSignal(samples=np.zeros(4), cp_len=2, sample_rate=1.0, num_slots=2)


class TestMappingMatrix:
    def test_localized_rows(self):
        # user 2 of 4 on 16 resources -> indices 8..11
        m = ot.localized_map(16, 4, 2)
        assert m.selected == (8, 9, 10, 11)

    def test_interleaved_comb(self):
        # user 2 of 4 on 16 resources -> comb 2, 6, 10, 14
        m = ot.interleaved_map(16, 4, 2)
        assert m.selected == (2, 6, 10, 14)

    @pytest.mark.parametrize("map_fn", [ot.localized_map, ot.interleaved_map])
    def test_orthonormal_columns(self, map_fn):
        m = map_fn(12, 3, 1)
        P = m.dense()
        assert_allclose(P.T @ P, np.eye(3), atol=0)
        # P P^T is the 0/1 indicator of the selected rows
        assert_allclose(np.diag(P @ P.T), [1.0 if i in m.selected else 0.0 for i in range(12)])

    def test_invalid_maps(self):
        with pytest.raises(AllocationError):
            ot.MappingMatrix(4, (1, 1))
        with pytest.raises(AllocationError):
            ot.MappingMatrix(4, (4,))
        with pytest.raises(AllocationError):
            ot.localized_map(10, 3, 0)  # 3 does not tile 10
        with pytest.raises(AllocationError):
            ot.interleaved_map(8, 4, 2)  # only 2 users


class TestUserAllocation:
    def test_full_cover_no_overlap(self):
        params = ot.make_frame(16, 8)
        alloc = ot.localized_allocation(params, 4, 4)
        assert alloc.num_users == 16
        cells = set()
        for fmap, tmap in alloc.users:
            for i in fmap.selected:
                for j in tmap.selected:
                    cells.add((i, j))
        assert len(cells) == 128  # exact tiling covers every cell once

    def test_exact_tiling_required(self):
        params = ot.make_frame(16, 8)
        with pytest.raises(AllocationError):
            ot.localized_allocation(params, 3, 2)
        with pytest.raises(AllocationError):
            ot.interleaved_allocation(params, 4, 3)

    def test_overlap_rejected(self):
        fmap = ot.localized_map(4, 2, 0)
        tmap = ot.localized_map(2, 2, 0)
        with pytest.raises(AllocationError):
            ot.UserAllocation(K_d=2, K_D=1, users=((fmap, tmap), (fmap, tmap)))

    def test_overlap_names_the_first_repeated_resource(self):
        # cells are scanned user by user in block order: (2, 1), (1, 1),
        # (2, 0), then (1, 0), the first cell user 0 already holds
        u0 = (ot.MappingMatrix(4, (0, 1)), ot.MappingMatrix(2, (0,)))
        u1 = (ot.MappingMatrix(4, (2, 1)), ot.MappingMatrix(2, (1, 0)))
        with pytest.raises(AllocationError, match=r"resource \(1, 0\) allocated twice"):
            ot.UserAllocation(K_d=2, K_D=1, users=(u0, u1))
