import numpy as np
import pytest

from cvwl import (
    GaussianState,
    MixedState,
    SqueezeSpec,
    apply_beam_splitter,
    apply_loss,
    enumerate_bipartitions,
    squeezed_vacuum,
    tensor,
)


def permute_modes(state, order):
    """Relabel modes so that new mode k is old mode order[k]."""
    n = state.n_modes
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {order!r}")
    idx = list(order) + [n + m for m in order]
    return GaussianState(state.cov[np.ix_(idx, idx)])


def random_pure_state(n, rng, r_max=2.0, n_splitters=None):
    """Random squeezers followed by a random passive network."""
    specs = [
        SqueezeSpec(float(rng.uniform(0.0, r_max)), rng.choice(["x", "p"]))
        for _ in range(n)
    ]
    state = tensor([squeezed_vacuum(s) for s in specs])
    if n == 1:
        return state
    for _ in range(2 * n if n_splitters is None else n_splitters):
        i, j = rng.choice(n, size=2, replace=False)
        state = apply_beam_splitter(state, int(i), int(j), float(rng.uniform()))
    return state


def random_state(n, rng, r_max=2.0):
    """Random pure state, sometimes degraded by a loss channel."""
    state = random_pure_state(n, rng, r_max=r_max)
    if rng.uniform() < 0.5:
        state = apply_loss(state, int(rng.integers(n)), float(rng.uniform()))
    return state


def random_biseparable_mixture(n, rng, max_components=4, r_max=2.0):
    """Mixture of product states across random bipartitions: entanglement
    only ever within one side of each component's split."""
    parts = enumerate_bipartitions(n)
    k = int(rng.integers(1, max_components + 1))
    picks = rng.integers(0, len(parts), size=k)
    weights = rng.dirichlet(np.ones(k))
    components = []
    for w, pick in zip(weights, picks):
        group_a, group_b = map(sorted, parts[int(pick)])
        joint = tensor([
            random_pure_state(len(group_a), rng, r_max=r_max),
            random_pure_state(len(group_b), rng, r_max=r_max),
        ])
        layout = group_a + group_b
        components.append((float(w), permute_modes(joint, [layout.index(m) for m in range(n)])))
    return MixedState(components)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
