import numpy as np
import pytest
from hypothesis import given, strategies as st

from fjlab.errors import (
    AllZeroVector,
    LabelOutOfRange,
    NegativeEntry,
    ShapeMismatch,
    WeightNotSimplex,
)
from fjlab.model import (
    DeliberationTrajectory,
    FJParameters,
    argmax_label,
    check_label,
    normalize_belief,
    validate_belief,
    validate_snapshot,
)


def complete(n):
    return FJParameters.complete_mask(n)


def swap_params(gamma=0.5, alpha=0.0):
    return FJParameters(
        gamma=np.array([gamma, gamma]),
        alpha=np.array([alpha, alpha]),
        w=np.array([[0.0, 1.0], [1.0, 0.0]]),
        mask=complete(2),
    )


class TestNormalizeBelief:
    def test_rescales_mass(self):
        out = normalize_belief([0.3, 0.3, 0.6])
        np.testing.assert_allclose(out, [0.25, 0.25, 0.5], atol=1e-12)

    def test_clamps_round_off_negatives(self):
        out = normalize_belief([1.0, -1e-12])
        assert out[1] == 0.0
        assert out.sum() == pytest.approx(1.0)

    def test_rejects_real_negatives(self):
        with pytest.raises(NegativeEntry, match=r"^entry -0\.2 below"):
            normalize_belief([1.0, -0.2])

    def test_rejects_zero_mass(self):
        with pytest.raises(AllZeroVector):
            normalize_belief([0.0, 0.0])

    def test_rejects_non_vector(self):
        with pytest.raises(ShapeMismatch):
            normalize_belief([[0.5, 0.5]])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=8)
        .filter(lambda v: sum(v) > 1e-6)
    )
    def test_output_is_simplex(self, raw):
        out = normalize_belief(raw)
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestSnapshotAndLabels:
    def test_snapshot_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            validate_snapshot(np.ones(3))
        with pytest.raises(ShapeMismatch):
            validate_snapshot(np.ones((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "check,shape",
        [
            (validate_belief, (3,)),
            (validate_snapshot, (2, 3)),
            (lambda s: DeliberationTrajectory(snapshots=s), (4, 2, 3)),
        ],
        ids=["belief", "snapshot", "trajectory"],
    )
    def test_rejects_non_finite_entries(self, check, shape, bad):
        arr = np.full(shape, 1.0 / 3.0)
        arr.flat[-1] = bad
        with pytest.raises(WeightNotSimplex, match="non-finite"):
            check(arr)

    def test_argmax_breaks_ties_low(self):
        assert argmax_label([0.4, 0.4, 0.2]) == 0

    def test_label_bounds(self):
        check_label(0, 2)
        check_label(1, 2)
        for bad in (-1, 2):
            with pytest.raises(LabelOutOfRange):
                check_label(bad, 2)

    def test_label_must_be_an_integer(self):
        assert check_label(np.int64(2), 3) == 2
        assert type(check_label(np.int32(1), 3)) is int
        for bad in (1.7, 1.0, np.float64(1.0), "1", None):
            with pytest.raises(LabelOutOfRange):
                check_label(bad, 3)


class TestFJParameters:
    def test_swap_accepts(self):
        params = swap_params()
        assert params.n == 2

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(WeightNotSimplex):
            FJParameters(
                gamma=np.array([1.5, 0.5]),
                alpha=np.zeros(2),
                w=np.array([[0.0, 1.0], [1.0, 0.0]]),
                mask=complete(2),
            )

    @pytest.mark.parametrize("field", ["gamma", "alpha", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, field, bad):
        values = {
            "gamma": np.full(2, 0.5),
            "alpha": np.full(2, 0.5),
            "w": np.array([[0.0, 1.0], [1.0, 0.0]]),
        }
        values[field].flat[-1 if field == "w" else 0] = bad
        with pytest.raises(WeightNotSimplex, match=f"{field} has a non-finite"):
            FJParameters(mask=complete(2), **values)

    def test_rejects_no_agents(self):
        with pytest.raises(ShapeMismatch, match="at least one agent"):
            FJParameters(
                gamma=np.zeros(0),
                alpha=np.zeros(0),
                w=np.zeros((0, 0)),
                mask=np.zeros((0, 0), dtype=bool),
            )

    def test_rejects_diagonal_mask(self):
        mask = np.ones((2, 2), dtype=bool)
        with pytest.raises(ShapeMismatch):
            FJParameters(
                gamma=np.full(2, 0.5),
                alpha=np.zeros(2),
                w=np.full((2, 2), 0.5),
                mask=mask,
            )

    def test_rejects_weight_outside_mask(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 1] = True
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(WeightNotSimplex):
            FJParameters(gamma=np.full(2, 0.5), alpha=np.zeros(2), w=w, mask=mask)

    def test_rejects_non_stochastic_row(self):
        w = np.array([[0.0, 0.7], [1.0, 0.0]])
        with pytest.raises(WeightNotSimplex, match=r"^w row 0 sums to 0\.7, not 1 within"):
            FJParameters(gamma=np.full(2, 0.5), alpha=np.zeros(2), w=w, mask=complete(2))

    def test_rejects_negative_weight(self):
        w = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(NegativeEntry, match=r"^w entry -1\.0 is negative$"):
            FJParameters(gamma=np.full(2, 0.5), alpha=np.zeros(2), w=w, mask=complete(2))

    def test_edgeless_row_must_be_zero(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 1] = True
        w = np.array([[0.0, 1.0], [0.0, 0.0]])
        params = FJParameters(gamma=np.full(2, 0.5), alpha=np.zeros(2), w=w, mask=mask)
        assert params.w[1].sum() == 0.0

    def test_arrays_frozen(self):
        params = swap_params()
        with pytest.raises(ValueError):
            params.gamma[0] = 0.9


class TestTrajectory:
    def test_properties(self):
        snaps = np.tile(np.array([[0.5, 0.5], [0.1, 0.9]]), (4, 1, 1))
        traj = DeliberationTrajectory(snapshots=snaps, correct_label=1)
        assert traj.rounds == 3
        assert traj.n == 2
        assert traj.d == 2
        np.testing.assert_array_equal(traj.innate, traj.final)

    def test_every_round_is_checked(self):
        snaps = np.full((4, 2, 2), 0.5)
        snaps[3, 1] = [0.5, 0.6]
        with pytest.raises(WeightNotSimplex):
            DeliberationTrajectory(snapshots=snaps)
        snaps[3, 1] = [1.1, -0.1]
        with pytest.raises(NegativeEntry):
            DeliberationTrajectory(snapshots=snaps)

    def test_needs_a_snapshot(self):
        with pytest.raises(ShapeMismatch):
            DeliberationTrajectory(snapshots=np.empty((0, 2, 2)))

    def test_label_stored_as_int(self):
        snaps = np.full((1, 2, 2), 0.5)
        traj = DeliberationTrajectory(snapshots=snaps, correct_label=np.int64(1))
        assert type(traj.correct_label) is int

    def test_label_validated(self):
        snaps = np.full((1, 2, 2), 0.5)
        with pytest.raises(LabelOutOfRange):
            DeliberationTrajectory(snapshots=snaps, correct_label=2)
        with pytest.raises(LabelOutOfRange):
            DeliberationTrajectory(snapshots=snaps, correct_label=0.7)

    def test_metadata_must_be_strings(self):
        snaps = np.full((1, 2, 2), 0.5)
        with pytest.raises(ShapeMismatch):
            DeliberationTrajectory(snapshots=snaps, metadata={"pool": 3})

