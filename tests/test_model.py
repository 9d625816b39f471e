from dataclasses import replace

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
    _check_params,
    _dirichlet_rows,
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

    def test_label_bounds(self):
        check_label(0, 2)
        check_label(1, 2)
        for bad in (-1, 2):
            with pytest.raises(LabelOutOfRange):
                check_label(bad, 2)

    def test_label_must_be_an_integer(self):
        assert check_label(np.int64(2), 3) == 2
        assert type(check_label(np.int32(1), 3)) is int
        for bad in (1.7, 1.0, np.float64(1.0), "1", None, True, False):
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

    def test_equality_is_identity(self):
        params = swap_params()
        copy = FJParameters(gamma=params.gamma, alpha=params.alpha, w=params.w, mask=params.mask)
        assert params == params
        assert (params == copy) is False
        assert params != copy
        assert len({params, copy}) == 2


def _set(field, index, value):
    """A corruption of one system's (gamma, alpha, w, mask): field[index] = value."""

    def corrupt(system):
        system[field][index] = value

    return corrupt


# Each way to break a valid 3-agent system, with the error FJParameters raises.
CORRUPTIONS = [
    (_set("gamma", 1, np.nan), WeightNotSimplex),
    (_set("alpha", 0, -0.25), WeightNotSimplex),
    (_set("w", (2, 0), np.inf), WeightNotSimplex),
    (_set("mask", (1, 1), True), ShapeMismatch),
    (_set("w", (0, 1), -0.5), NegativeEntry),
    (_set("w", (1, 2), 0.6), WeightNotSimplex),
    (_set("mask", (1, 2), False), WeightNotSimplex),
]


class TestParameterStacks:
    """``_check_params`` checks a stack of systems as FJParameters checks
    each one: the same error for the first property a system breaks."""

    @staticmethod
    def _systems(m):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.1, 1.0, (m, 3, 3)) * complete(3)
        w /= w.sum(axis=-1, keepdims=True)
        return [
            {"gamma": g, "alpha": a, "w": ws, "mask": complete(3)}
            for g, a, ws in zip(rng.uniform(0, 1, (m, 3)), rng.uniform(0, 1, (m, 3)), w)
        ]

    def test_a_valid_stack_passes_with_a_shared_or_own_mask(self):
        systems = self._systems(4)
        stack = {key: np.stack([s[key] for s in systems]) for key in systems[0]}
        _check_params(**stack)
        _check_params(**{**stack, "mask": complete(3)})

    @pytest.mark.parametrize("corrupt, error", CORRUPTIONS)
    def test_a_broken_system_fails_the_stack_as_it_fails_alone(self, corrupt, error):
        systems = self._systems(4)
        corrupt(systems[2])
        with pytest.raises(error) as alone:
            FJParameters(**systems[2])
        stack = {key: np.stack([s[key] for s in systems]) for key in systems[0]}
        with pytest.raises(error) as stacked:
            _check_params(**stack)
        # a weight row's message names its system in the stack
        assert str(stacked.value) == str(alone.value).replace("w row", "w[2] row")

    def test_inconsistent_stack_shapes(self):
        systems = self._systems(2)
        stack = {key: np.stack([s[key] for s in systems]) for key in systems[0]}
        with pytest.raises(ShapeMismatch, match="inconsistent shapes"):
            _check_params(**{**stack, "alpha": stack["alpha"][:1]})
        with pytest.raises(ShapeMismatch, match="inconsistent shapes"):
            _check_params(**{**stack, "mask": np.stack([complete(3)] * 3)})


class TestDirichletRows:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_exponentials_give_dirichlet_bits(self, seed):
        ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(1, 11):
            for d in range(2, 13):
                got = _dirichlet_rows(ours.standard_exponential((n, d)))
                want = numpy.dirichlet(np.ones(d), size=n)
                assert got.tobytes() == want.tobytes(), (n, d)
        # the same draws, so the stream goes on from the same point
        assert ours.bit_generator.state == numpy.bit_generator.state

    def test_a_stack_scales_as_its_draws_one_by_one(self):
        ours, numpy = np.random.default_rng(3), np.random.default_rng(3)
        got = _dirichlet_rows(np.stack([ours.standard_exponential((4, 9)) for _ in range(6)]))
        want = np.stack([numpy.dirichlet(np.ones(9), size=4) for _ in range(6)])
        assert got.tobytes() == want.tobytes()


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
        with pytest.raises(LabelOutOfRange):
            DeliberationTrajectory(snapshots=snaps, correct_label=True)

    def test_metadata_must_be_strings(self):
        snaps = np.full((1, 2, 2), 0.5)
        with pytest.raises(ShapeMismatch):
            DeliberationTrajectory(snapshots=snaps, metadata={"pool": 3})

    def test_metadata_is_the_trajectorys_own_copy(self):
        # a map that the caller or another trajectory holds cannot undo the check
        meta = {"pool": "0"}
        traj = DeliberationTrajectory(snapshots=np.full((1, 2, 2), 0.5), metadata=meta)
        meta["pool"] = 3
        other = replace(traj, sample_id="other")
        other.metadata["pool"] = 4
        assert traj.metadata == {"pool": "0"}
        assert other.metadata is not traj.metadata

    @pytest.mark.parametrize(
        "names",
        ["ab", ("x", "y", "z"), ["x", 2], 7],
        ids=["str", "three-names", "not-strings", "not-a-sequence"],
    )
    def test_label_names_are_a_tuple_of_d_strings(self, names):
        snaps = np.full((1, 2, 2), 0.5)
        assert DeliberationTrajectory(snapshots=snaps).label_names is None
        traj = DeliberationTrajectory(snapshots=snaps, label_names=["yes", "no"])
        assert traj.label_names == ("yes", "no")
        # tuple("ab") would be two names at d = 2, so a str is rejected whole
        with pytest.raises(ShapeMismatch, match="label_names"):
            DeliberationTrajectory(snapshots=snaps, label_names=names)

    def test_equality_is_identity(self):
        traj = DeliberationTrajectory(snapshots=np.full((3, 2, 2), 0.5), sample_id="s")
        copy = DeliberationTrajectory(snapshots=traj.snapshots, sample_id="s")
        assert traj == traj
        assert (traj == copy) is False
        assert traj != copy
        assert len({traj, copy}) == 2

    def test_constructor_copies_and_freezes_the_callers_array(self):
        snaps = np.full((2, 2, 2), 0.5)
        traj = DeliberationTrajectory(snapshots=snaps)
        assert not np.shares_memory(traj.snapshots, snaps)
        assert not traj.snapshots.flags.writeable
        snaps[0, 0] = [1.0, 0.0]  # the caller's array stays writable and apart
        np.testing.assert_array_equal(traj.snapshots, np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError):
            traj.snapshots[0, 0, 0] = 1.0
