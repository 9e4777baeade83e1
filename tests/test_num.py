"""Solver ops against hand-derived values and brute-force oracles."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microcast import num
from microcast.num import (
    NO_COOP,
    POLICIES,
    PSEUDO_BROADCAST,
    PSEUDO_BROADCAST_NO_NC,
    STEP_SIZE,
    UNICAST,
    LocalActions,
    SolverConfig,
    Topology,
    centralized_oracle,
    enumerate_hyperarcs,
    simulate,
    stream_cap,
)


def schedule_ref(eta, topo, policy):
    """Independent max-weight search over an explicit subset enumeration."""
    n = topo.n
    best_key, best_w = None, 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        subsets = sorted(
            itertools.chain.from_iterable(
                itertools.combinations(others, k) for k in range(1, n)
            )
        )
        for s in subsets:
            if policy == PSEUDO_BROADCAST:
                kappa = min(
                    topo.local_capacity[i, j] * (1 - topo.local_loss[i, j]) for j in s
                )
            else:
                kappa = min(topo.local_capacity[i, j] for j in s) * math.prod(
                    1 - topo.local_loss[i, j] for j in s
                )
            w = sum(eta[i, j] for j in s) * kappa
            if w > best_w:
                best_w, best_key = w, (i, s)
    return best_key, best_w


def random_topology(rng, n=None):
    n = n or int(rng.integers(2, 5))
    loss_choices = [0.0, 0.1, 0.2]
    p_local = loss_choices[int(rng.integers(0, 3))]
    return Topology(
        cell_capacity=rng.uniform(0.5, 2.0, n),
        cell_loss=np.full(n, loss_choices[int(rng.integers(0, 3))]),
        local_capacity=rng.uniform(2.0, 6.0, (n, n)),
        local_loss=np.full((n, n), p_local),
        gamma=1.0,
    )


def random_etas(rng, n, seeds=3):
    """One independent relay backlog per seed, diagonal at zero: (S, n, n)."""
    eta = rng.uniform(0.0, 1.0, (seeds, n, n))
    eta[:, np.arange(n), np.arange(n)] = 0.0
    return eta


def picked(actions, best, k):
    """Seed k's (sender, receiver set) from one step, or None if it idles."""
    return actions.arcs[best[k] - 1] if best[k] else None


# ---------------------------------------------------------------- closed forms
#
# The control laws as separate allocating functions. Each performs the same
# float operations in the same order as `build_iteration`'s step, which must
# match them bit for bit.


def flow_control_ref(lam, cap):
    """Stream rate per seed maximizing log x - x * sum(lam), clamped to cap."""
    return np.minimum(1.0 / lam.sum(axis=1), cap)


def downlink_rates_ref(lam, eta, rate):
    """Device i pulls at its rate (S,n,1) for every j with lam_j > eta_ij."""
    return (lam[:, None, :] > eta) * rate


def hyperarc_weights_ref(eta, actions):
    """(sum_j eta_ij) * kappa per hyperarc (S, arcs), summed per sender block."""
    blocks = eta[:, :, None, :] * actions.block_mask
    return np.add.reduce(blocks.reshape(len(eta), -1, actions.topo.n), axis=-1) * actions.kappa


def unicast_weights_ref(eta, topo):
    """eta_ij * goodput_ij per link (S, n*n), row-major."""
    return eta.reshape(len(eta), -1) * topo.local_capacity.ravel() * (1.0 - topo.local_loss).ravel()


def service_ref(actions, best, link_on):
    """g: the chosen actions' service on their ON links; plain copies need all ON."""
    if actions.policy == PSEUDO_BROADCAST_NO_NC:
        all_on = (link_on >= actions.members[best]).all(axis=(1, 2))
        return actions.service[best] * all_on[:, None, None]
    return actions.service[best] * link_on


def update_queues_ref(lam, eta, x, inflow, x_dl, g, beta):
    """The two-formula step on separate lam (S,n) and eta (S,n,n) arrays."""
    lam = np.maximum(lam + beta * (x[:, None] - inflow), 0.0)
    eta = np.maximum(eta + beta * (x_dl - g), 0.0)
    eta.reshape(len(eta), -1)[:, :: eta.shape[-1] + 1] = 0.0
    return lam, eta


def one_step(actions, eta, lam=None, rate=None, link=None, cap=4.0):
    """Build the iteration as `simulate` does, set the prices, run one step.

    Every buffer the step writes starts as NaN, so a result that misses its
    buffer shows. Returns the action and views of the buffers afterwards;
    the rates default to 0 and every local link to ON.
    """
    s, n = eta.shape[:2]
    step, buffers = num.build_iteration(actions, cap, s)
    buffers.prices[:, :n] = 0.0 if lam is None else lam
    buffers.prices[:, n:] = eta.reshape(s, -1)
    for buffer in (buffers.arrivals, buffers.departures, buffers.weights[:, 1:]):
        buffer.fill(np.nan)
    with np.errstate(divide="ignore"):
        best = step(np.zeros((s, n, 1)) if rate is None else rate,
                    np.ones((s, n, n), dtype=bool) if link is None else link)
    arrivals, departures, prices = buffers.arrivals, buffers.departures, buffers.prices
    return SimpleNamespace(
        best=best, x=arrivals[:, :n], x_dl=arrivals[:, n:].reshape(s, n, n),
        inflow=departures[:, :n], g=departures[:, n:].reshape(s, n, n),
        weights=buffers.weights, lam=prices[:, :n], eta=prices[:, n:].reshape(s, n, n))


def test_flow_control_inverse_marginal_utility():
    topo = Topology.uniform(4, cell_capacity=1.0)
    actions = LocalActions(topo, UNICAST)
    lam = np.array([[0.3, 0.2, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    x = one_step(actions, np.zeros((2, 4, 4)), lam=lam,
                 cap=stream_cap(topo, SolverConfig(x_cap=4.0))).x
    assert (x == x[:, :1]).all()  # one stream rate per seed, on every device
    assert x[0, 0] == pytest.approx(2.0)
    # all-zero prices saturate at the cap
    assert x[1, 0] == 4.0
    # default cap is the raw cellular sum
    assert one_step(actions, np.zeros((1, 4, 4)), cap=stream_cap(topo)).x[0, 0] == 4.0
    lam = np.array([[100.0, 0, 0, 0]])
    assert one_step(actions, np.zeros((1, 4, 4)), lam=lam,
                    cap=stream_cap(topo)).x[0, 0] == pytest.approx(0.01)


def test_downlink_bang_bang():
    topo = Topology.uniform(2, cell_capacity=2.0, cell_loss=0.25)
    lam = np.array([[1.0, 0.1], [1.0, 0.5]])
    eta = np.array([[[0.0, 0.5], [0.2, 0.0]]] * 2)
    got = one_step(LocalActions(topo, UNICAST), eta, lam=lam,
                   rate=np.broadcast_to(topo.downlink_caps[None, :, None], (2, 2, 1)))
    x_dl = got.x_dl
    # expected goodput 1.5 wherever lam_j - eta_ij > 0
    assert x_dl[0, 0, 0] == 1.5  # own queue: lam_0 > 0
    assert x_dl[0, 0, 1] == 0.0  # 0.1 - 0.5 < 0
    assert x_dl[0, 1, 0] == 1.5  # 1.0 - 0.2 > 0
    assert x_dl[0, 1, 1] == 1.5
    assert x_dl[1, 0, 1] == 0.0  # 0.5 - 0.5 not > 0
    assert got.inflow.tolist() == [[3.0, 1.5], [3.0, 1.5]]


def test_queue_updates_project_to_zero(monkeypatch):
    monkeypatch.setattr(num, "STEP_SIZE", 0.05)
    topo = Topology.uniform(2, cell_capacity=1.0, local_capacity=1.0)
    lam = np.array([[0.1, 0.0]])  # x = min(1 / 0.1, cap 2) = 2
    eta = np.array([[[0.0, 0.02], [0.0, 0.0]]])
    # both devices pull for device 0, each device also for itself
    got = one_step(LocalActions(topo, UNICAST), eta, lam=lam, rate=np.full((1, 2, 1), 10.0),
                   cap=stream_cap(topo))
    assert got.x_dl.tolist() == [[[10.0, 0.0], [10.0, 0.0]]]
    assert picked(LocalActions(topo, UNICAST), got.best, 0) == (0, (1,))
    assert got.g[0, 0, 1] == 1.0
    # lam_0 + 0.05 (2 - 20) and eta_01 + 0.05 (0 - 1) project to 0
    assert got.lam[0, 0] == 0.0 and got.lam[0, 1] == pytest.approx(0.1)
    assert got.eta[0, 0, 1] == 0.0 and got.eta[0, 1, 0] == pytest.approx(0.5)
    # eta's diagonal has step 0, so x_dl_00 = 10 leaves it at +0
    diagonal = got.eta[0, [0, 1], [0, 1]]
    assert diagonal.tolist() == [0.0, 0.0] and not np.signbit(diagonal).any()


# zero-heavy values with exact ties, plus arbitrary floats whose sums round
LEVELS = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
                   st.floats(0.0, 3.0, allow_subnormal=False))


def draw_grid(data, shape, label, values=LEVELS):
    size = math.prod(shape)
    return np.array(data.draw(st.lists(values, min_size=size, max_size=size),
                              label=label), dtype=float).reshape(shape)


def zero_diagonal(eta):
    eta[:, np.arange(eta.shape[-1]), np.arange(eta.shape[-1])] = 0.0
    return eta


def draw_step(data, levels=LEVELS):
    """A policy's actions on a random group, and one iteration's inputs."""
    n = data.draw(st.integers(1, 8), label="n")
    s = data.draw(st.integers(1, 3), label="seeds")
    policy = data.draw(st.sampled_from([PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC, UNICAST]),
                       label="policy")
    topo = Topology(
        cell_capacity=np.ones(n), cell_loss=np.zeros(n),
        local_capacity=draw_grid(data, (n, n), "capacity", st.sampled_from([1.0, 2.0, 10.0])),
        local_loss=draw_grid(data, (n, n), "loss", st.sampled_from([0.0, 0.2, 0.5])),
        gamma=data.draw(st.sampled_from([1.0, 0.7]), label="gamma"))
    lam = draw_grid(data, (s, n), "lam", levels)
    eta = zero_diagonal(draw_grid(data, (s, n, n), "eta"))
    rate = draw_grid(data, (s, n, 1), "rate", levels)
    link = np.array(data.draw(st.lists(st.booleans(), min_size=s * n * n, max_size=s * n * n),
                              label="link"), dtype=bool).reshape(s, n, n)
    cap = data.draw(st.sampled_from([1.5, 3.0]), label="cap")
    return LocalActions(topo, policy), lam, eta, rate, link, cap


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stacked_step_matches_two_formula_step(data):
    actions, lam, eta, rate, link, cap = draw_step(data)
    got = one_step(actions, eta, lam=lam, rate=rate, link=link, cap=cap)
    want_lam, want_eta = update_queues_ref(lam, eta, got.x[:, 0], got.inflow, got.x_dl, got.g,
                                           STEP_SIZE)
    assert got.lam.tobytes() == want_lam.tobytes()
    assert got.eta.tobytes() == want_eta.tobytes()
    assert (got.lam >= 0.0).all() and (got.eta >= 0.0).all()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_step_vector_keeps_eta_diagonal_at_positive_zero(data):
    # every lam_j > 0 = eta_jj, so each device pulls for itself at a
    # positive rate: x_dl_jj - g_jj > 0 on the diagonal, and beta times it
    # would move eta_jj off zero
    positive = st.floats(0.01, 3.0)
    actions, lam, eta, rate, link, cap = draw_step(data, levels=positive)
    n = actions.topo.n
    got = one_step(actions, eta, lam=lam, rate=rate, link=link, cap=cap)
    diagonal = (slice(None), np.arange(n), np.arange(n))
    assert (got.x_dl[diagonal] > 0.0).all()
    assert not got.eta[diagonal].any() and not np.signbit(got.eta[diagonal]).any()
    want_lam, want_eta = update_queues_ref(lam, eta, got.x[:, 0], got.inflow, got.x_dl, got.g,
                                           STEP_SIZE)
    assert got.lam.tobytes() == want_lam.tobytes()
    assert got.eta.tobytes() == want_eta.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_out_paths_write_the_allocating_bytes(data):
    # every buffer the step writes in place holds the allocating law's bytes
    actions, lam, eta, rate, link, cap = draw_step(data)
    got = one_step(actions, eta, lam=lam, rate=rate, link=link, cap=cap)
    with np.errstate(divide="ignore"):
        x = flow_control_ref(lam, cap)
    assert got.x.tobytes() == np.repeat(x[:, None], actions.topo.n, axis=1).tobytes()
    x_dl = downlink_rates_ref(lam, eta, rate)
    assert got.x_dl.tobytes() == x_dl.tobytes()
    assert got.inflow.tobytes() == x_dl.sum(axis=1).tobytes()
    if actions.policy == UNICAST:
        want = unicast_weights_ref(eta, actions.topo)
    else:
        want = hyperarc_weights_ref(eta, actions)
    assert not got.weights[:, 0].any()
    assert got.weights[:, 1:].tobytes() == want.tobytes()
    best = np.hstack([np.zeros((len(eta), 1)), want]).argmax(axis=1)
    assert got.best.tolist() == best.tolist()
    assert got.g.tobytes() == service_ref(actions, best, link).tobytes()


# ------------------------------------------------------------------ scheduling


def test_hyperarc_enumeration_order_and_guard():
    arcs = enumerate_hyperarcs(3)
    assert arcs == [
        (0, (1,)), (0, (1, 2)), (0, (2,)),
        (1, (0,)), (1, (0, 2)), (1, (2,)),
        (2, (0,)), (2, (0, 1)), (2, (1,)),
    ]
    assert len(enumerate_hyperarcs(8)) == 8 * 127
    with pytest.raises(ValueError, match="limited"):
        enumerate_hyperarcs(11)


def test_schedule_single_backlogged_arc():
    topo = Topology.uniform(2, local_capacity=3.0, local_loss=0.2)
    eta = np.zeros((2, 2, 2))
    eta[0, 0, 1] = 5.0  # seed 0: only 0 -> 1 is backlogged
    eta[1, 1, 0] = 5.0  # seed 1: only 1 -> 0
    actions = LocalActions(topo, PSEUDO_BROADCAST)
    got = one_step(actions, eta)
    best = got.best
    assert picked(actions, best, 0) == (0, (1,)) and picked(actions, best, 1) == (1, (0,))
    # the weight counts goodput; the airtime goes out at the raw rate
    assert got.weights[0].max() == pytest.approx(5.0 * 3.0 * 0.8)
    g = got.g[0]
    assert g[0, 1] == pytest.approx(3.0 * topo.gamma)
    assert g.sum() == pytest.approx(g[0, 1])
    assert actions.members[best[0]].sum() == 1


def test_schedule_idles_without_backlog():
    topo = Topology.uniform(3, local_capacity=2.0)
    for policy in (PSEUDO_BROADCAST, UNICAST):
        actions = LocalActions(topo, policy)
        got = one_step(actions, np.zeros((2, 3, 3)))
        assert (got.best == 0).all() and not got.g.any()


def test_schedule_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        topo = Topology(
            cell_capacity=np.ones(n),
            cell_loss=np.zeros(n),
            local_capacity=rng.uniform(0.5, 4.0, (n, n)),
            local_loss=rng.uniform(0.0, 0.6, (n, n)),
            gamma=float(rng.uniform(0.5, 2.0)),
        )
        eta = random_etas(rng, n)
        for policy in (PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC):
            actions = LocalActions(topo, policy)
            got = one_step(actions, eta)
            best, weights = got.best, got.weights[:, 1:]
            for k in range(len(eta)):
                key, w = schedule_ref(eta[k], topo, policy)
                assert picked(actions, best, k) == key
                assert weights[k].max() == pytest.approx(w)
                i, members = key
                if policy == PSEUDO_BROADCAST:
                    kappa = min(
                        topo.local_capacity[i, j] * (1 - topo.local_loss[i, j])
                        for j in members
                    )
                else:
                    kappa = min(topo.local_capacity[i, j] for j in members) * math.prod(
                        1 - topo.local_loss[i, j] for j in members
                    )
                assert weights[k, best[k] - 1] == weights[k].max()
                assert actions.kappa[best[k] - 1] == pytest.approx(kappa)
                raw = min(topo.local_capacity[i, j] for j in members)
                g = got.g[k]
                for j in members:
                    assert g[i, j] == pytest.approx(raw * topo.gamma)
                assert np.count_nonzero(g) == len(members)


def test_unicast_schedule_matches_brute_force():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        topo = Topology(
            cell_capacity=np.ones(n),
            cell_loss=np.zeros(n),
            local_capacity=rng.uniform(0.5, 4.0, (n, n)),
            local_loss=rng.uniform(0.0, 0.6, (n, n)),
        )
        eta = random_etas(rng, n)
        actions = LocalActions(topo, UNICAST)
        got = one_step(actions, eta)
        best, weights = got.best, got.weights[:, 1:]
        for k in range(len(eta)):
            w = eta[k] * topo.local_capacity * (1 - topo.local_loss)
            np.fill_diagonal(w, 0.0)
            i, j = np.unravel_index(np.argmax(w), w.shape)
            assert picked(actions, best, k) == (i, (j,))
            assert weights[k].max() == pytest.approx(w[i, j])
            g = got.g[k]
            assert g[i, j] == pytest.approx(topo.local_capacity[i, j] * topo.gamma)
            assert np.count_nonzero(g) == 1


def test_singleton_hyperarcs_reduce_to_unicast_weights():
    rng = np.random.default_rng(23)
    n = 4
    topo = Topology(
        cell_capacity=np.ones(n),
        cell_loss=np.zeros(n),
        local_capacity=rng.uniform(0.5, 4.0, (n, n)),
        local_loss=rng.uniform(0.0, 0.6, (n, n)),
    )
    eta = random_etas(rng, n, seeds=2)
    uni = one_step(LocalActions(topo, UNICAST), eta).weights[:, 1:].reshape(eta.shape)
    for policy in (PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC):
        actions = LocalActions(topo, policy)
        w = one_step(actions, eta).weights[:, 1:]
        singletons = [(k, i, members[0]) for k, (i, members) in enumerate(actions.arcs)
                      if len(members) == 1]
        assert singletons
        for s in range(len(eta)):
            for k, i, j in singletons:
                assert w[s, k] == pytest.approx(uni[s, i, j])


def test_schedule_tie_breaks_lexicographic():
    # symmetric backlog: every sender's full set ties at the top weight;
    # lowest sender must win (seed 1: sender 0 unbacklogged, so sender 1)
    topo = Topology.uniform(3, local_capacity=2.0)
    eta = np.array([np.ones((3, 3)), np.ones((3, 3))])
    eta[:, np.arange(3), np.arange(3)] = 0.0
    eta[1, 0] = 0.0
    actions = LocalActions(topo, PSEUDO_BROADCAST)
    best = one_step(actions, eta).best
    assert picked(actions, best, 0) == (0, (1, 2)) and picked(actions, best, 1) == (1, (0, 2))
    # heavy loss makes the pair arc worthless under plain copies; the two
    # singleton arcs of one sender tie and the smaller receiver set wins
    topo = Topology.uniform(3, local_capacity=2.0, local_loss=0.9)
    eta = np.zeros((2, 3, 3))
    eta[0, 0, 1] = eta[0, 0, 2] = 2.0
    eta[1, 2, 0] = eta[1, 2, 1] = 2.0
    actions = LocalActions(topo, PSEUDO_BROADCAST_NO_NC)
    best = one_step(actions, eta).best
    assert picked(actions, best, 0) == (0, (1,)) and picked(actions, best, 1) == (2, (0,))


def max_weight_ref(eta, topo):
    """Pseudo-broadcast max-weight by brute force over `enumerate_hyperarcs`.

    Weighs every arc as `hyperarc_weights_ref` does (a masked add.reduce over
    the sender's eta row times the minimum member goodput) and returns the
    first arc of maximal positive weight and that weight, or (None, 0.0).
    """
    good = topo.local_capacity * (1.0 - topo.local_loss)
    best, best_w = None, np.float64(0.0)
    for i, members in enumerate_hyperarcs(topo.n):
        mask = np.zeros(topo.n)
        mask[list(members)] = 1.0
        w = np.add.reduce(eta[i] * mask) * min(good[i, j] for j in members)
        if w > best_w:
            best, best_w = (i, members), w
    return best, best_w


# zero-heavy backlogs with exact duplicates, and 1e-17-sized values that a
# neighbouring 1.0 absorbs (1.0 + 1e-17 == 1.0), so that sets tie
TIE_LEVELS = st.one_of(st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.5, 1e-17, 3e-17]),
                       st.sampled_from([0.0, 1.0, 2.0, 4.0]),
                       st.floats(0.0, 3.0, allow_subnormal=False))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_threshold_scan_matches_enumeration(data):
    n = data.draw(st.integers(1, 8), label="n")
    s = data.draw(st.integers(1, 3), label="seeds")
    if data.draw(st.booleans(), label="uniform"):
        capacity = np.full((n, n), data.draw(st.sampled_from([0.0, 1.0, 4.0]), label="cap"))
        loss = np.full((n, n), data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="loss"))
    else:
        # few levels, so goodputs cap * (1 - loss) repeat: 2 at loss 0.5 is
        # 1 at loss 0, 4 at loss 0.75 is 1 too
        capacity = draw_grid(data, (n, n), "capacity", st.sampled_from([0.0, 1.0, 2.0, 4.0]))
        loss = draw_grid(data, (n, n), "loss", st.sampled_from([0.0, 0.5, 0.75, 1.0]))
    topo = Topology(cell_capacity=np.ones(n), cell_loss=np.zeros(n),
                    local_capacity=capacity, local_loss=loss)
    eta = zero_diagonal(draw_grid(data, (s, n, n), "eta", TIE_LEVELS))
    actions = LocalActions(topo, PSEUDO_BROADCAST)
    got = one_step(actions, eta)
    best, w = got.best, got.weights
    for k in range(s):
        key, want = max_weight_ref(eta[k], topo)
        assert picked(actions, best, k) == key
        assert w[k, best[k]].tobytes() == want.tobytes()


def test_threshold_prefixes_of_a_uniform_group():
    # one goodput per sender: A_c is every other device, and its n - 1
    # prefixes are the candidates, 8 * 7 of them instead of 8 * 127 arcs
    topo = Topology.uniform(8, local_capacity=3.0, local_loss=0.2)
    actions = LocalActions(topo, PSEUDO_BROADCAST)
    assert len(actions.arcs) == 56
    others = [j for j in range(8) if j != 3]
    assert actions.arcs[3 * 7:4 * 7] == [(3, tuple(others[:k])) for k in range(1, 8)]
    assert len(LocalActions(topo, PSEUDO_BROADCAST_NO_NC).arcs) == 8 * 127


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lossless_no_nc_is_pseudo_broadcast(data):
    # no off-diagonal local loss: no_nc weighs the threshold prefixes, picks
    # the full enumeration's action and weight bits, and simulates exactly
    # as pseudo_broadcast does; the diagonal loss is never read
    n = data.draw(st.integers(1, 8), label="n")
    s = data.draw(st.integers(1, 3), label="seeds")
    capacity = draw_grid(data, (n, n), "capacity", st.sampled_from([0.0, 1.0, 2.0, 4.0, 2.5]))
    loss = np.diag(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                      min_size=n, max_size=n), label="diagonal loss"))
    topo = Topology(cell_capacity=draw_grid(data, (n,), "cell", st.sampled_from([0.5, 1.0, 3.0])),
                    cell_loss=data.draw(st.sampled_from([0.0, 0.2]), label="cell loss"),
                    local_capacity=capacity, local_loss=loss,
                    gamma=data.draw(st.sampled_from([1.0, 0.7]), label="gamma"))
    actions = LocalActions(topo, PSEUDO_BROADCAST_NO_NC)
    assert actions.arcs == num.threshold_prefixes(topo)
    eta = zero_diagonal(draw_grid(data, (s, n, n), "eta", TIE_LEVELS))
    got = one_step(actions, eta)
    best, w = got.best, got.weights
    full = LocalActions(topo, PSEUDO_BROADCAST_NO_NC, enumerate_hyperarcs(n))
    w_full = np.hstack([np.zeros((s, 1)), hyperarc_weights_ref(eta, full)])
    best_full = w_full.argmax(axis=1)
    for k in range(s):
        want = full.arcs[best_full[k] - 1] if best_full[k] else None
        assert picked(actions, best, k) == want
        assert w[k, best[k]].tobytes() == w_full[k, best_full[k]].tobytes()
    x_cap = data.draw(st.sampled_from([None, 1.5]), label="x_cap")
    seeds = range(data.draw(st.integers(1, 4), label="simulate seeds"))
    plain, coded = (simulate(topo, SolverConfig(policy=p, iterations=60, seeds=seeds,
                                                x_cap=x_cap))
                    for p in (PSEUDO_BROADCAST_NO_NC, PSEUDO_BROADCAST))
    for a, b in zip(plain.runs, coded.runs):
        assert a.device_avg.tobytes() == b.device_avg.tobytes()


def test_absorbed_backlog_tie_goes_to_a_strict_prefix():
    # 1.0 + 1.0 + 1e-17 rounds to 2.0, so {1, 2} and {1, 2, 3} tie and the
    # enumeration's first, {1, 2}, is a strict prefix of A_c = {1, 2, 3}
    topo = Topology.uniform(4, local_capacity=2.0, local_loss=0.5)
    eta = np.zeros((1, 4, 4))
    eta[0, 0, 1:] = [1.0, 1.0, 1e-17]
    actions = LocalActions(topo, PSEUDO_BROADCAST)
    got = one_step(actions, eta)
    best, w = got.best, got.weights
    assert picked(actions, best, 0) == max_weight_ref(eta[0], topo)[0] == (0, (1, 2))
    assert w[0, best[0]] == 2.0
    # a sender whose goodputs differ: {3} alone ties the widest set
    # (2.0 * 2 == (1 + 1 + 2) * 1), which comes first in the enumeration
    topo = Topology(cell_capacity=np.ones(4), cell_loss=np.zeros(4),
                    local_capacity=np.array([[1.0, 1.0, 1.0, 2.0]] * 4),
                    local_loss=np.zeros((4, 4)))
    eta[0, 0, 1:] = [1.0, 1.0, 2.0]
    actions = LocalActions(topo, PSEUDO_BROADCAST)
    best = one_step(actions, eta).best
    assert picked(actions, best, 0) == max_weight_ref(eta[0], topo)[0] == (0, (1, 2, 3))


# ------------------------------------------------------------------ the oracle


def test_oracle_frozen_cases():
    # lone device: its own downlink goodput
    topo = Topology.uniform(1, cell_capacity=2.0, cell_loss=0.25)
    assert centralized_oracle(topo, PSEUDO_BROADCAST) == pytest.approx(1.5)
    # two devices, fat local pipe: both halves of the stream get shared
    topo = Topology.uniform(2, cell_capacity=1.0, local_capacity=10.0)
    for policy in (PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC, UNICAST):
        assert centralized_oracle(topo, policy) == pytest.approx(2.0)
    # four devices, local cap 2: per-sender broadcast f <= 2/4, x = 1 + 3*0.5
    topo = Topology.uniform(4, cell_capacity=1.0, local_capacity=2.0)
    assert centralized_oracle(topo, PSEUDO_BROADCAST) == pytest.approx(2.5)
    # unicast airtime splits across 6 links: x = 1 + C_l/n
    topo = Topology.uniform(3, cell_capacity=1.0, local_capacity=1.0)
    assert centralized_oracle(topo, UNICAST) == pytest.approx(4.0 / 3.0)
    # plain copies at 30% loss, full-set broadcast: x = 1 + 2*(0.7^2)/3
    topo = Topology.uniform(3, cell_capacity=1.0, local_capacity=1.0, local_loss=0.3)
    assert centralized_oracle(topo, PSEUDO_BROADCAST_NO_NC) == pytest.approx(
        1.0 + 2.0 * 0.49 / 3.0
    )
    assert centralized_oracle(topo, NO_COOP) == pytest.approx(1.0)
    # the same closed forms past n = 5, up to the largest fig4 group
    for n in (6, 7, 8):
        topo = Topology.uniform(n, cell_capacity=1.0, local_capacity=2.0)
        assert centralized_oracle(topo, PSEUDO_BROADCAST) == pytest.approx(1.0 + (n - 1) * 2.0 / n)
        topo = Topology.uniform(n, cell_capacity=1.0, local_capacity=1.0)
        assert centralized_oracle(topo, UNICAST) == pytest.approx(1.0 + 1.0 / n)
        # a fat lossless pipe shares every download: x = n
        topo = Topology.uniform(n, cell_capacity=1.0, local_capacity=10.0)
        assert centralized_oracle(topo, PSEUDO_BROADCAST_NO_NC) == pytest.approx(n)


def test_oracle_degenerate_cases():
    lp_policies = (PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC, UNICAST)
    # every cellular link lost: nothing to share, every right-hand side but
    # the airtime budget is 0
    topo = Topology.uniform(3, cell_capacity=1.0, cell_loss=1.0, local_capacity=5.0)
    for policy in lp_policies:
        assert centralized_oracle(topo, policy) == 0.0
    # a lone device has no local channel under any policy
    topo = Topology.uniform(1, cell_capacity=3.0, cell_loss=0.5, gamma=0.5)
    for policy in lp_policies:
        assert centralized_oracle(topo, policy) == pytest.approx(1.5)
    # half the airtime halves the local share: x = 1 + 3 * (gamma * 2/4)
    topo = Topology.uniform(4, cell_capacity=1.0, local_capacity=2.0, gamma=0.5)
    assert centralized_oracle(topo, PSEUDO_BROADCAST) == pytest.approx(1.75)
    # and unicast's: x = 1 + gamma * C_l / n
    topo = Topology.uniform(3, cell_capacity=1.0, local_capacity=1.0, gamma=0.5)
    assert centralized_oracle(topo, UNICAST) == pytest.approx(1.0 + 0.5 / 3.0)


def reference_lp(topo, policy):
    """The allocation LP in its full form, as (c, A, b) for max c.v, A v <= b.

    Variables: x | x_dl (n*n) | g per helping pair | f per hyperarc | tau
    per hyperarc, or per helping pair under unicast. Each service rate
    comes from the topology here, not from `LocalActions`.
    """
    n = topo.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    good = topo.local_capacity * (1.0 - topo.local_loss)
    arcs = [] if policy == UNICAST else enumerate_hyperarcs(n)
    if policy == PSEUDO_BROADCAST:
        kappa = [min(good[i, j] for j in js) for i, js in arcs]
    else:
        kappa = [min(topo.local_capacity[i, j] for j in js)
                 * math.prod(1.0 - topo.local_loss[i, j] for j in js) for i, js in arcs]
    n_tau = len(pairs) if policy == UNICAST else len(arcs)
    off_g = 1 + n * n
    off_f = off_g + len(pairs)
    off_tau = off_f + len(arcs)
    rows, b = [], []

    def row(rhs=0.0):
        rows.append(np.zeros(off_tau + n_tau))
        b.append(rhs)
        return rows[-1]

    for j in range(n):  # stream conservation: x <= sum_i x_dl[i, j]
        r = row()
        r[0] = 1.0
        r[1 + j:off_g:n] = -1.0
    for p, (i, j) in enumerate(pairs):  # helping downloads are forwarded: x_dl <= g
        r = row()
        r[1 + i * n + j], r[off_g + p] = 1.0, -1.0
    for p, (i, j) in enumerate(pairs):
        r = row()
        r[off_g + p] = 1.0
        if policy == UNICAST:  # g <= goodput * tau on the one link
            r[off_tau + p] = -good[i, j]
        else:  # g <= sum of the flows on the arcs from i that cover j
            for a, (s, js) in enumerate(arcs):
                if s == i and j in js:
                    r[off_f + a] = -1.0
    for a in range(len(arcs)):  # f <= kappa * tau per arc
        r = row()
        r[off_f + a], r[off_tau + a] = 1.0, -kappa[a]
    if n_tau:  # airtime budget
        row(topo.gamma)[off_tau:] = 1.0
    for i in range(n):  # downlink caps: x_dl[i, j] <= C_i (1 - p_i)
        for j in range(n):
            row(float(topo.downlink_caps[i]))[1 + i * n + j] = 1.0
    c = np.zeros(off_tau + n_tau)
    c[0] = 1.0
    return c, np.array(rows), np.array(b)


def test_oracle_simplex_matches_highs(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    lps = []
    solve = num._max_lp

    def recording(c, A, b):
        v = solve(c, A, b)
        lps.append((c, A, b, v))
        return v

    def highs(c, A, b):
        ref = optimize.linprog(-c, A_ub=A, b_ub=b, method="highs")
        assert ref.status == 0, ref.message
        return -ref.fun

    monkeypatch.setattr(num, "_max_lp", recording)
    rng = np.random.default_rng(41)
    larger = (6, 6, 7, 7, 8)
    for k in range(300 + len(larger)):  # 300 groups of 1 to 5 devices, then a few more
        n = int(rng.integers(1, 6)) if k < 300 else larger[k - 300]
        topo = Topology(
            cell_capacity=rng.uniform(0.3, 2.0, n),
            cell_loss=rng.uniform(0.0, 0.5, n),
            local_capacity=rng.uniform(0.5, 6.0, (n, n)),
            local_loss=rng.uniform(0.0, 0.5, (n, n)),
            gamma=float(rng.choice([0.5, 0.8])),
        )
        for policy in (PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC, UNICAST):
            # the lean LP is the full one with f = kappa tau substituted and g dropped
            got, want = centralized_oracle(topo, policy), highs(*reference_lp(topo, policy))
            assert abs(got - want) <= 1e-9 * want, (n, policy)
    assert len(lps) == 3 * (300 + len(larger))
    for c, A, b, v in lps:
        assert (v >= 0.0).all() and (A @ v <= b + 1e-9).all()
        want = highs(c, A, b)
        assert abs(c @ v - want) <= 1e-9 * want


def test_oracle_pivot_cap(monkeypatch):
    monkeypatch.setattr(num, "ORACLE_MAX_PIVOTS", 1)
    topo = Topology.uniform(2, cell_capacity=1.0, local_capacity=10.0)
    with pytest.raises(RuntimeError, match="oracle LP failed: no optimum after 1 pivots"):
        centralized_oracle(topo, PSEUDO_BROADCAST)


def test_oracle_guard():
    topo = Topology.uniform(9, cell_capacity=1.0)
    with pytest.raises(ValueError, match="oracle"):
        centralized_oracle(topo, PSEUDO_BROADCAST)


def test_oracle_policy_ordering():
    rng = np.random.default_rng(31)
    for _ in range(8):
        topo = random_topology(rng)
        pb = centralized_oracle(topo, PSEUDO_BROADCAST)
        plain = centralized_oracle(topo, PSEUDO_BROADCAST_NO_NC)
        uni = centralized_oracle(topo, UNICAST)
        assert pb >= plain - 1e-9
        assert plain >= uni - 1e-9


def test_oracle_monotone_in_loss():
    rng = np.random.default_rng(32)
    for _ in range(6):
        topo = random_topology(rng)
        for policy in (PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC, UNICAST):
            base = centralized_oracle(topo, policy)
            worse = Topology(
                cell_capacity=topo.cell_capacity,
                cell_loss=np.minimum(topo.cell_loss + 0.2, 1.0),
                local_capacity=topo.local_capacity,
                local_loss=np.minimum(topo.local_loss + 0.2, 1.0),
                gamma=topo.gamma,
            )
            assert centralized_oracle(worse, policy) <= base + 1e-9


# ----------------------------------------------------------------- simulation


def test_simulate_two_device_sharing():
    topo = Topology.uniform(2, cell_capacity=1.0, local_capacity=10.0)
    cfg = SolverConfig(policy=PSEUDO_BROADCAST, seeds=range(4))
    rep = simulate(topo, cfg)
    assert rep.avg_rate == pytest.approx(2.0, rel=0.10)


def test_simulate_tracks_oracle_on_random_topologies():
    rng = np.random.default_rng(33)
    for _ in range(3):
        topo = random_topology(rng, n=int(rng.integers(2, 4)))
        for policy in (PSEUDO_BROADCAST, UNICAST):
            want = centralized_oracle(topo, policy)
            got = simulate(topo, SolverConfig(policy=policy, seeds=range(6))).avg_rate
            assert got == pytest.approx(want, rel=0.10), (policy, want, got)


def test_the_oracle_does_not_weigh_the_threshold_prefixes(monkeypatch):
    # `simulate` weighs the prefixes and is held to the oracle, so the
    # oracle must weigh every hyperarc: a faulty prefix scan that keeps
    # only each sender's first candidate moves `simulate` and not the LP
    rng = np.random.default_rng(36)
    topo = Topology(cell_capacity=rng.uniform(0.5, 2.0, 4), cell_loss=np.full(4, 0.1),
                    local_capacity=rng.uniform(1.0, 6.0, (4, 4)), local_loss=np.zeros((4, 4)))
    cfg = {p: SolverConfig(policy=p, iterations=200, seeds=(0,))
           for p in (PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC)}
    rates = {p: simulate(topo, c).runs[0].device_avg.tobytes() for p, c in cfg.items()}
    optima = {p: float.hex(centralized_oracle(topo, p)) for p in cfg}
    real = num.threshold_prefixes

    def first_candidates(topo):
        arcs = real(topo)
        return arcs[::len(arcs) // topo.n]

    monkeypatch.setattr(num, "threshold_prefixes", first_candidates)
    for p, c in cfg.items():
        assert simulate(topo, c).runs[0].device_avg.tobytes() != rates[p], p
        assert float.hex(centralized_oracle(topo, p)) == optima[p], p


def test_simulate_no_coop_matches_closed_form():
    topo = Topology.uniform(3, cell_capacity=2.0, cell_loss=0.2)
    rep = simulate(topo, SolverConfig(policy=NO_COOP, seeds=range(8)))
    assert rep.avg_rate == pytest.approx(2.0 * 0.8, rel=0.05)
    assert rep.runs[0].device_avg.shape == (3,)


def test_simulate_single_device_loss_realization():
    topo = Topology.uniform(1, cell_capacity=1.0, cell_loss=0.5)
    rep = simulate(topo, SolverConfig(policy=PSEUDO_BROADCAST, seeds=range(8)))
    assert rep.avg_rate == pytest.approx(0.5, rel=0.10)


def test_simulate_deterministic_per_seed():
    topo = Topology.uniform(3, cell_capacity=1.0, local_capacity=5.0, local_loss=0.1)
    cfg = SolverConfig(policy=PSEUDO_BROADCAST, seeds=(7, 7))
    rep = simulate(topo, cfg)
    assert np.array_equal(rep.runs[0].device_avg, rep.runs[1].device_avg)
    other = simulate(topo, SolverConfig(policy=PSEUDO_BROADCAST, seeds=(8,)))
    assert not np.array_equal(rep.runs[0].device_avg, other.runs[0].device_avg)


def test_nc_and_plain_identical_without_loss():
    # same seed, no loss: the two broadcast policies see identical weights
    # and draws, so whole trajectories coincide exactly
    topo = Topology.uniform(4, cell_capacity=1.0, local_capacity=3.0)
    a = simulate(topo, SolverConfig(policy=PSEUDO_BROADCAST, seeds=range(3)))
    b = simulate(topo, SolverConfig(policy=PSEUDO_BROADCAST_NO_NC, seeds=range(3)))
    for ra, rb in zip(a.runs, b.runs):
        assert np.array_equal(ra.device_avg, rb.device_avg)


def simulate_ref(topo, cfg, seed):
    """One seed as a scalar loop that draws each iteration's channel as it goes."""
    n, beta, policy = topo.n, STEP_SIZE, cfg.policy
    rng = np.random.default_rng(seed)
    lam, eta = np.zeros(n), np.zeros((n, n))
    delivered = np.zeros((cfg.iterations, n))
    # every hyperarc, weighed with the float operations `LocalActions` uses
    arcs = enumerate_hyperarcs(n)
    sender = np.array([i for i, _ in arcs], dtype=np.intp)
    member_mask = np.zeros((len(arcs), n), dtype=bool)
    for k, (_, members) in enumerate(arcs):
        member_mask[k, list(members)] = True
    cap, loss = topo.local_capacity[sender], topo.local_loss[sender]
    raw_rate = np.min(np.where(member_mask, cap, np.inf), axis=1)
    if policy == PSEUDO_BROADCAST:
        kappa = np.min(np.where(member_mask, cap * (1.0 - loss), np.inf), axis=1)
    else:
        kappa = raw_rate * np.prod(np.where(member_mask, 1.0 - loss, 1.0), axis=1)
    for t in range(cfg.iterations):
        cell_on = rng.random(n) >= topo.cell_loss
        local_on = rng.random((n, n)) >= topo.local_loss
        if policy == NO_COOP:
            delivered[t] = topo.cell_capacity * cell_on
            continue
        s = float(np.sum(lam))
        x = stream_cap(topo, cfg)
        if s > 0.0:
            x = min(1.0 / s, x)
        x_real = topo.cell_capacity[:, None] * ((lam[None, :] - eta) > 0.0) * cell_on[:, None]
        g = np.zeros((n, n))
        if policy == UNICAST:
            w = eta * topo.local_capacity * (1.0 - topo.local_loss)
            np.fill_diagonal(w, 0.0)
            i, j = divmod(int(np.argmax(w)), n)
            if w[i, j] > 0.0 and local_on[i, j]:
                g[i, j] = topo.local_capacity[i, j] * topo.gamma
        elif arcs:
            w = (eta[sender] * member_mask).sum(axis=1) * kappa
            best = int(np.argmax(w))
            if w[best] > 0.0:
                i, mem = sender[best], member_mask[best]
                on = local_on[i] & mem
                if policy == PSEUDO_BROADCAST:
                    g[i, on] = raw_rate[best] * topo.gamma
                elif on.sum() == mem.sum():  # plain copies need every member ON
                    g[i, mem] = raw_rate[best] * topo.gamma
        inflow = x_real.sum(axis=0)
        delivered[t] = inflow
        lam = np.maximum(lam + beta * (x - inflow), 0.0)
        eta = np.maximum(eta + beta * (x_real - g), 0.0)
        np.fill_diagonal(eta, 0.0)
    return delivered[cfg.iterations // 2 :].mean(axis=0)


def lossy_topology(rng, n):
    return Topology(
        cell_capacity=rng.uniform(0.5, 2.0, n),
        cell_loss=rng.uniform(0.0, 0.3, n),
        local_capacity=rng.uniform(1.0, 6.0, (n, n)),
        local_loss=rng.uniform(0.0, 0.4, (n, n)),
    )


SOLVER_CONFIGS = [dict(policy=p) for p in POLICIES] + [
    dict(policy=UNICAST, x_cap=1.5),
]


def test_simulate_matches_scalar_reference():
    # same arithmetic in the same order, so equal to the last bit; uniform
    # groups tie many arcs, so a reordered float sum shows as a flipped tie
    rng = np.random.default_rng(35)
    topos = [lossy_topology(rng, n) for n in (1, 2, 3, 6)]
    topos += [Topology.uniform(n, local_capacity=10.0, local_loss=0.2) for n in (5, 8)]
    for topo in topos:
        for kw in SOLVER_CONFIGS:
            cfg = SolverConfig(iterations=200, seeds=(0, 5), **kw)
            for run in simulate(topo, cfg).runs:
                want = simulate_ref(topo, cfg, run.seed)
                assert run.device_avg.tobytes() == want.tobytes(), (topo.n, kw, run.seed)


def test_batching_matches_one_seed_runs():
    # a seed's trajectory does not depend on which seeds share its batch
    rng = np.random.default_rng(34)
    seeds = (3, 7, 11)
    for n in (1, 2, 5):
        topo = lossy_topology(rng, n)
        for kw in SOLVER_CONFIGS:
            batch = simulate(topo, SolverConfig(iterations=300, seeds=seeds, **kw))
            assert [r.seed for r in batch.runs] == list(seeds)
            for run in batch.runs:
                alone = simulate(topo, SolverConfig(iterations=300, seeds=(run.seed,), **kw))
                assert run.device_avg.tobytes() == alone.runs[0].device_avg.tobytes(), (n, kw)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(policy="bogus")
    with pytest.raises(ValueError, match="at least one seed"):
        SolverConfig(seeds=())
    with pytest.raises(ValueError):
        Topology.uniform(2, cell_loss=1.5)
    with pytest.raises(ValueError, match="outside"):
        Topology.uniform(2, local_loss=np.nan)
    with pytest.raises(ValueError, match="finite"):
        Topology.uniform(2, local_capacity=np.inf, local_loss=1.0)
    with pytest.raises(ValueError, match="finite"):
        Topology.uniform(2, cell_capacity=-1.0)
    with pytest.raises(ValueError):
        Topology.uniform(2, gamma=0.0)
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            Topology.uniform(2, gamma=gamma)
