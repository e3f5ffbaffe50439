"""The lock-step hill climber shared by the LSI and Holevo searches."""

import numpy as np
import pytest

from matphi.sampling import climb, rng_for

# (step, floor, steps, shrink, grow): the LSI search's rule and eta_phi's
RULES = {
    "lsi": (0.1, 1e-7, 300, 0.5, 2.0),
    "eta": (0.2, 1e-5, 150, 0.7, 1.0),
}


def _objective(x):
    # a bumpy bowl in terraces, so that every climb ends on a flat top and
    # stops, with a wall: no value where the first coordinate is negative
    values = -np.sum((x - 0.3) ** 2, axis=-1) + 0.05 * np.sin(7.0 * x[..., 1])
    return np.where(x[..., 0] < 0.0, -np.inf, np.round(values, 2))


def _climb(starts, rngs, rule, drawn=None):
    # the move is the whole candidate, as in eta_phi's climbs
    step, floor, steps, shrink, grow = rule
    x = starts.copy()

    def propose(live, step):
        if drawn is not None:
            drawn.append(live.copy())
        noise = np.array([rngs[r].standard_normal(x.shape[1:]) for r in live.tolist()])
        return x[live] + step[:, None] * noise

    def accept(won, kept, cand):
        x[won] = cand[kept]

    values = climb(_objective(x), propose, lambda live, cand: _objective(cand), accept,
                   step, floor, steps, shrink, grow)
    return x, values


def _starts(count):
    # restart 0 starts behind the wall, with no value
    starts = np.array([rng_for(3, "climb-start", r).random(3) for r in range(count)])
    starts[0, 0] = -0.02
    return starts


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("count", [1, 2, 7])
def test_stacked_climb_equals_each_restart_alone(rule, count):
    starts = _starts(count)
    rngs = [rng_for(5, "climb", r) for r in range(count)]
    drawn = []
    x, values = _climb(starts, rngs, RULES[rule], drawn)
    for r in range(count):
        alone = [rng_for(5, "climb", r)]
        x_r, value_r = _climb(starts[r:r + 1], alone, RULES[rule])
        assert x[r].tobytes() == x_r[0].tobytes()
        assert values[r:r + 1].tobytes() == value_r.tobytes()
        # a stopped restart draws no more: both generators stand at the same place
        assert rngs[r].random() == alone[0].random()
    assert np.all(np.isfinite(values))
    # restarts stop at different steps, all before the step budget
    proposals = np.bincount(np.concatenate(drawn), minlength=count)
    assert proposals.max() < RULES[rule][2]
    if count > 1:
        assert len(set(proposals.tolist())) > 1


def test_no_value_start_accepts_any_finite_proposal():
    x = np.array([[-0.5], [-2.0]])

    def objective(x):
        return np.where(x[:, 0] < 0.0, -np.inf, -1e300)

    def accept(won, kept, cand):
        x[won] = cand[kept]

    values = climb(objective(x), lambda live, step: x[live] + 1.0,
                   lambda live, cand: objective(cand), accept, 1.0, 0.1, 1, 0.5)
    assert x.tolist() == [[0.5], [-2.0]]  # the second proposal has no value either
    assert values.tolist() == [-1e300, -np.inf]


def test_a_rejected_move_writes_nothing():
    # restart 0 proposes only worse states, restart 1 only better ones; the
    # moves are deltas, so accept is the only writer of the state
    x = _starts(2)
    start = x.copy()
    accepted = []

    def propose(live, step):
        return step[:, None] * np.where(live[:, None] == 0, -1.0, 1.0) * np.ones((1, 3))

    def score(live, move):
        return (x[live] + move).sum(axis=-1)

    def accept(won, kept, move):
        accepted.extend(won.tolist())
        x[won] += move[kept]

    climb(x.sum(axis=-1), propose, score, accept, 0.5, 0.1, 20, 0.5, grow=2.0)
    assert 0 not in accepted and 1 in accepted
    assert x[0].tobytes() == start[0].tobytes()
    assert x[1].tobytes() != start[1].tobytes()
