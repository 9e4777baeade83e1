"""Rate allocation for cooperative download groups.

Devices pull one shared stream over lossy cellular downlinks and
re-distribute on a shared local wireless channel. The stream utility
is log x: the common stream rate is chosen by maximizing sum log x
subject to per-device flow conservation, downlink caps, local
forwarding conservation, and an airtime budget for the local channel.
Three local policies:

  pseudo_broadcast        network-coded: one local transmission serves a
                          receiver set at min-capacity, each receiver
                          succeeding independently
  pseudo_broadcast_no_nc  plain copies: a group delivery needs every
                          member to receive the same packet, so the
                          service rate carries the product of link
                          success probabilities
  unicast                 one receiver per transmission
  no_coop                 no local channel at all

The distributed solution prices congestion with two queue families:
per-device stream queues (lam) fed by flow control and drained by
downlink arrivals, and per-(sender, receiver) relay queues (eta) fed by
downlink arrivals and drained by the local schedule. All three control
laws are closed-form in the queues; `simulate` iterates them against
Bernoulli ON/OFF link draws, and `centralized_oracle` solves the same
problem exactly as an LP for small groups, on a dense-tableau primal
simplex (`_max_lp`): every right-hand side is a cap or the airtime
budget, so the slack basis is feasible and there is no phase 1. The
module needs numpy only.

`simulate` steps all of a run's seeds together, so every control law
works on a leading seed axis: lam is (S, n), eta is (S, n, n). Each seed
draws its channel from its own generator (`channel_draws`), so a seed's
run depends neither on the policy nor on the other seeds in the batch.

One iteration is one call of a closure that `build_iteration` makes once
per `simulate` call; it is the only implementation of the laws. The
builder allocates every array, makes every view and looks up every
per-policy constant before the first iteration, so the step itself only
calls ufuncs, each writing its result into its buffer with `out=`, and
allocates nothing but argmax's result and the gather of the chosen
actions' service. Both price families live in one stacked (S, n + n*n)
array: lam is its first n columns and eta the rest, as views. The
arrivals (x per device, then x_dl) and the departures (inflow, then g)
share that layout, so the price update is one in-place step over all
prices. It multiplies by a per-price step vector, beta everywhere and 0
on eta's diagonal: x_dl - g is finite there, so eta_ii stays at +0
with no pin. Each law performs the same float operations in the same
order as its closed form (the references in the tests), so a run's bits
do not depend on where its results are written.

Max-weight under pseudo_broadcast weighs only the arcs that can win. An
arc serves its receiver set at the minimum member goodput, so the sets
nest: for each sender and goodput c, the threshold set A_c of receivers
at goodput >= c and its prefixes in receiver order cover every arc that
max-weight can return (`threshold_prefixes`; the argument is in
`LocalActions`). Each sender's list is padded to equal length by
repeating its last candidate. That is n - 1 arcs per sender in a uniform
group instead of 2^(n-1) - 1, with the same weights and the same ties.
pseudo_broadcast_no_nc, whose service rate multiplies success
probabilities and so does not nest, and the LP oracle keep the full
enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

PSEUDO_BROADCAST = "pseudo_broadcast"
PSEUDO_BROADCAST_NO_NC = "pseudo_broadcast_no_nc"
UNICAST = "unicast"
NO_COOP = "no_coop"
POLICIES = (PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC, UNICAST, NO_COOP)

# constant-step subgradient: steady-state suboptimality scales with the
# step, and 0.01 keeps it within a few percent of the LP optimum across
# the supported topology sizes without hurting the T=1000 transient
STEP_SIZE = 0.01

HYPERARC_DEVICE_LIMIT = 10  # 10 * (2^9 - 1) arcs; enumeration stops being sane past this
ORACLE_DEVICE_LIMIT = 5
# the oracle LPs of n = 5 (146 rows, 196 variables) take at most about 250 pivots
ORACLE_MAX_PIVOTS = 1000
_LP_TOL = 1e-9


def _as_matrix(value, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full((n, n), float(arr))
    if arr.shape != (n, n):
        raise ValueError(f"expected scalar or ({n},{n}) matrix, got shape {arr.shape}")
    return arr.copy()


def _as_vector(value, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"expected scalar or ({n},) vector, got shape {arr.shape}")
    return arr.copy()


@dataclass
class Topology:
    """Cellular caps/losses per device, local caps/losses per ordered pair."""

    cell_capacity: np.ndarray
    cell_loss: np.ndarray
    local_capacity: np.ndarray
    local_loss: np.ndarray
    gamma: float = 1.0

    def __post_init__(self) -> None:
        n = len(np.atleast_1d(np.asarray(self.cell_capacity, dtype=float)))
        if n == 0:
            raise ValueError("need at least one device")
        self.cell_capacity = _as_vector(self.cell_capacity, n)
        self.cell_loss = _as_vector(self.cell_loss, n)
        self.local_capacity = _as_matrix(self.local_capacity, n)
        self.local_loss = _as_matrix(self.local_loss, n)
        for name, arr in (("cell_loss", self.cell_loss), ("local_loss", self.local_loss)):
            if not ((arr >= 0) & (arr <= 1)).all():  # NaN fails too
                raise ValueError(f"{name} outside [0, 1]")
        # a goodput must be a number that orders: inf * (1 - 1) is NaN
        for arr in (self.cell_capacity, self.local_capacity):
            if not ((arr >= 0) & np.isfinite(arr)).all():
                raise ValueError("capacities must be finite and nonnegative")
        if not (self.gamma > 0 and np.isfinite(self.gamma)):  # NaN fails too
            raise ValueError(f"airtime budget gamma must be positive and finite, "
                             f"got {self.gamma}")

    @property
    def n(self) -> int:
        return len(self.cell_capacity)

    @property
    def downlink_caps(self) -> np.ndarray:
        """Expected goodput of each cellular link, C_i (1 - p_i)."""
        return self.cell_capacity * (1.0 - self.cell_loss)

    @classmethod
    def uniform(cls, n: int, cell_capacity=1.0, cell_loss=0.0,
                local_capacity=1.0, local_loss=0.0, gamma=1.0) -> "Topology":
        if n < 1:   # before np.full, whose message for a negative n names no device
            raise ValueError("need at least one device")
        # __post_init__ reads n off cell_capacity and converts the rest
        return cls(cell_capacity=_as_vector(cell_capacity, n), cell_loss=cell_loss,
                   local_capacity=local_capacity, local_loss=local_loss, gamma=gamma)


def enumerate_hyperarcs(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """All (sender, receiver-set) pairs, lexicographically ordered per sender."""
    if n > HYPERARC_DEVICE_LIMIT:
        raise ValueError(
            f"hyperarc enumeration limited to {HYPERARC_DEVICE_LIMIT} devices, got {n}"
        )
    arcs = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        subsets = []
        for size in range(1, len(others) + 1):
            subsets.extend(itertools.combinations(others, size))
        arcs.extend((i, s) for s in sorted(subsets))
    return arcs


def threshold_prefixes(topo: Topology) -> list[tuple[int, tuple[int, ...]]]:
    """The pseudo-broadcast hyperarcs that max-weight can choose.

    For each sender i and each distinct goodput c = good_ij of its links
    (good = cap * (1 - loss)), A_c = {j != i : good_ij >= c} is the
    threshold set; the candidates are every prefix of every A_c in
    receiver-index order, sorted by their `enumerate_hyperarcs` order.
    Each sender's list is padded to the longest one by repeating its last
    candidate, so the result comes in equal per-sender blocks, as
    `LocalActions` needs; a repeat weighs the same as the arc before it and
    never wins an argmax-first. A uniform group gets n - 1 candidates per
    sender; distinct goodputs give at most (n - 1) n / 2.
    """
    n = topo.n
    good = topo.local_capacity * (1.0 - topo.local_loss)
    blocks = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        found = set()
        for c in set(good[i, others].tolist()):
            above = tuple(j for j in others if good[i, j] >= c)
            found.update(above[:k] for k in range(1, len(above) + 1))
        blocks.append(sorted(found))
    width = max(map(len, blocks), default=0)
    return [(i, block[min(k, len(block) - 1)])
            for i, block in enumerate(blocks) for k in range(width)]


@dataclass
class SolverConfig:
    policy: str = PSEUDO_BROADCAST
    iterations: int = 1000
    seeds: Sequence[int] = tuple(range(10))
    x_cap: float | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.iterations < 2:
            raise ValueError("need at least 2 iterations")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")


def stream_cap(topo: Topology, cfg: SolverConfig | None = None) -> float:
    if cfg is not None and cfg.x_cap is not None:
        return cfg.x_cap
    return float(topo.cell_capacity.sum())


def channel_draws(topo: Topology, seeds: Sequence[int],
                  iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """ON masks of every cellular (S,T,n) and local (S,T,n,n) link.

    Per seed and iteration the seed's own generator yields n cellular
    uniforms, then n*n local uniforms; a link is ON when its uniform is at
    least its loss. A seed's channel realization therefore depends neither
    on the policy nor on which other seeds share the batch.
    """
    n = topo.n
    cell_on = np.empty((len(seeds), iterations, n), dtype=bool)
    local_on = np.empty((len(seeds), iterations, n, n), dtype=bool)
    for k, seed in enumerate(seeds):
        u = np.random.default_rng(seed).random((iterations, n + n * n))
        cell_on[k] = u[:, :n] >= topo.cell_loss
        local_on[k] = (u[:, n:] >= topo.local_loss.ravel()).reshape(iterations, n, n)
    return cell_on, local_on


class LocalActions:
    """One policy's local-channel actions, for max-weight and the LP oracle.

    Action 0 idles; action k >= 1 is `arcs[k - 1]`: the links (i, j) in
    row-major order under unicast, which ignores the `arcs` argument. A
    broadcast policy takes `arcs` in equal per-sender blocks, in sender
    order, and defaults to the hyperarcs of `enumerate_hyperarcs` under
    pseudo_broadcast_no_nc on a lossy medium, and otherwise to the
    `threshold_prefixes`: per sender, every prefix of every threshold
    set A_c = {j : good_ij >= c}, in enumeration order, padded to equal
    per-sender blocks by repeating the last one. `service[k]` holds the
    action's over-the-air rate (min member capacity) times gamma on each
    of its links, `members[k]` marks those links. A broadcast table also
    keeps `kappa`, each arc's service rate under its policy, and
    `block_mask`, the member masks as one (arcs per sender, n) float
    block per sender.

    Max-weight picks the first action of the largest weight, and a seed
    idles exactly when no weight is positive: no weight is negative
    (unicast's i == i links weigh eta_ii = 0). Ties go to the lowest
    sender, then the smallest receiver set. Under pseudo_broadcast, and
    under no_nc on a lossless medium, the threshold prefixes return the
    action and the weight bits that the full enumeration would:
      - eta >= 0, and round-to-nearest addition is monotone in each
        operand, so a superset's masked add.reduce over the same eta
        row is never smaller, whatever the summation tree;
      - an arc J whose minimum goodput is c is a subset of A_c with the
        same kappa = c >= 0, so A_c weighs at least as much as J and
        the candidates' maximum is the enumeration's, bit for bit;
      - among tied arcs the first in enumeration order is a prefix of
        its A_c: if J skipped a member a < max(J), then J + {a} would
        tie too and come earlier;
      - so argmax-first over the candidates, in enumeration order,
        picks the enumeration's action, even where exact-zero or
        absorbed tiny eta make ties. The full A_c sets alone would
        not: they miss the ties a strict prefix wins.
    A padding repeat weighs the same as the candidate it repeats and
    comes after it, so it never wins.
    """

    def __init__(self, topo: Topology, policy: str,
                 arcs: list[tuple[int, tuple[int, ...]]] | None = None):
        n = topo.n
        self.topo, self.policy = topo, policy
        if policy == UNICAST:
            self.arcs = [(i, (j,)) for i in range(n) for j in range(n)]
            rate = topo.local_capacity.ravel()
        elif policy in (PSEUDO_BROADCAST, PSEUDO_BROADCAST_NO_NC):
            # With every off-diagonal local loss 0, no_nc's kappa = rate * 1.0
            # equals pseudo_broadcast's min cap bit for bit and every member
            # link is ON, so no_nc is pseudo_broadcast and the class
            # docstring's argument for the prefixes holds word for word.
            if arcs is None:
                arcs = (threshold_prefixes(topo) if policy == PSEUDO_BROADCAST
                        or not topo.local_loss[~np.eye(n, dtype=bool)].any()
                        else enumerate_hyperarcs(n))
            self.arcs = arcs
            sender = np.array([i for i, _ in arcs], dtype=np.intp)
            member_mask = np.zeros((len(arcs), n), dtype=bool)
            for k, (_, receivers) in enumerate(arcs):
                member_mask[k, list(receivers)] = True
            # floats, so that weighing the blocks does not cast
            self.block_mask = member_mask.reshape(n, -1, n).astype(float)
            cap, loss = topo.local_capacity[sender], topo.local_loss[sender]  # (arcs, n)
            rate = np.min(np.where(member_mask, cap, np.inf), axis=1)
            if policy == PSEUDO_BROADCAST:
                self.kappa = np.min(np.where(member_mask, cap * (1.0 - loss), np.inf), axis=1)
            else:
                self.kappa = rate * np.prod(np.where(member_mask, 1.0 - loss, 1.0), axis=1)
            # free the (arcs, n) arrays before the larger service build
            del cap, loss
        else:
            raise ValueError(f"policy {policy!r} has no local schedule")
        self.members = np.zeros((len(self.arcs) + 1, n, n), dtype=bool)
        for k, (i, receivers) in enumerate(self.arcs, start=1):
            self.members[k, i, [j for j in receivers if j != i]] = True
        self.service = self.members * np.concatenate(([0.0], rate))[:, None, None] * topo.gamma


class IterationBuffers(NamedTuple):
    """The arrays one `build_iteration` step works in, seed-major.

    Each of the first three is stacked (S, n + n*n): its first n columns
    per device, then the (i, j) pairs row-major. `weights` is (S, 1 + arcs)
    with column 0, the idle action's weight, at 0.
    """

    prices: np.ndarray      # lam | eta, advanced in place by every step
    arrivals: np.ndarray    # x, repeated per device | x_dl
    departures: np.ndarray  # inflow | g
    weights: np.ndarray


def build_iteration(actions: LocalActions, cap: float,
                    n_seeds: int) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray],
                                           IterationBuffers]:
    """One step of the dual-queue iteration over n_seeds seeds, and its buffers.

    `step(rate_t, link_t)` takes one iteration's ON downlink rates
    (S, n, 1) and ON local links (S, n, n), runs the four control laws on
    the current prices and returns each seed's max-weight action (S,):
      - flow control: the stream utility is log x, so U'(x) = 1/x and
        x = min(1 / sum(lam), cap); zero prices divide to inf, which
        clamps to the cap (callers silence numpy's divide-by-zero
        warning);
      - downlink: device i pulls at its full rate for every receiver j
        whose price lam_j exceeds the relay price eta_ij (bang-bang);
        inflow_j sums what the devices pull for j;
      - max-weight (see `LocalActions`): a hyperarc weighs
        (sum of eta_ij over its members) * kappa, a unicast link
        eta_ij * goodput_ij; g is the chosen action's service on the
        links that are ON, and under plain copies only if all are;
      - the projected subgradient step: lam += beta (x - inflow) and
        eta += beta (x_dl - g), floored at zero.
    Every view, buffer and per-policy constant is made here, once, so
    the step allocates only argmax's result and the service gather.
    """
    topo, policy, n = actions.topo, actions.policy, actions.topo.n
    prices = np.zeros((n_seeds, n + n * n))
    # the update writes x - inflow | x_dl - g to `change`, so the step's
    # arrivals stay readable after it
    arrivals, departures, change = (np.empty_like(prices) for _ in range(3))
    weights = np.zeros((n_seeds, len(actions.arcs) + 1))
    lam, eta = prices[:, :n], prices[:, n:].reshape(n_seeds, n, n)
    lam_row, eta_flat, eta_blocks = lam[:, None, :], prices[:, n:], eta[:, :, None, :]
    x_per_device, x_dl = arrivals[:, :n], arrivals[:, n:].reshape(n_seeds, n, n)
    inflow, g = departures[:, :n], departures[:, n:].reshape(n_seeds, n, n)
    arc_weights, argmax = weights[:, 1:], weights.argmax
    total = np.empty((n_seeds, 1))
    pulls = np.empty((n_seeds, n, n), dtype=bool)
    # beta on every price but eta's diagonal: there x_dl - g is finite, so
    # eta_ii stays +0 with no pin
    steps = np.full(n + n * n, STEP_SIZE)
    steps[n::n + 1] = 0.0
    # 0-d arrays, not Python floats: a ufunc converts a Python scalar on
    # every call
    one, zero, cap = np.ones(()), np.zeros(()), np.full((), cap)
    # the step reads closure cells, not module attributes
    reduce, divide, minimum, maximum = np.add.reduce, np.divide, np.minimum, np.maximum
    greater, multiply, subtract, add = np.greater, np.multiply, np.subtract, np.add
    # `take` gathers the chosen actions as `[best]` would, for less per call
    service, members = actions.service.take, actions.members.take
    unicast, plain_copies = policy == UNICAST, policy == PSEUDO_BROADCAST_NO_NC
    if unicast:
        capacity, success = topo.local_capacity.ravel(), (1.0 - topo.local_loss).ravel()
    else:
        # each sender's arcs are summed as one broadcast block, not as a
        # mask-matrix product: a matmul orders the float additions
        # differently, and the changed bits flip argmax ties between
        # equal-weight arcs
        block_mask, kappa = actions.block_mask, actions.kappa
        blocks = np.empty((n_seeds,) + block_mask.shape)  # (S, n, arcs per sender, n)
        block_rows = blocks.reshape(n_seeds, -1, n)
    if plain_copies:
        links_on = np.empty((n_seeds, n, n), dtype=bool)
        all_on = np.empty((n_seeds, 1, 1), dtype=bool)

    def step(rate_t: np.ndarray, link_t: np.ndarray) -> np.ndarray:
        reduce(lam, axis=1, keepdims=True, out=total)
        divide(one, total, out=total)
        minimum(total, cap, out=x_per_device)
        greater(lam_row, eta, out=pulls)
        multiply(pulls, rate_t, out=x_dl)
        reduce(x_dl, axis=1, out=inflow)
        if unicast:
            multiply(eta_flat, capacity, out=arc_weights)
            multiply(arc_weights, success, out=arc_weights)
        else:
            multiply(eta_blocks, block_mask, out=blocks)
            reduce(block_rows, axis=-1, out=arc_weights)
            multiply(arc_weights, kappa, out=arc_weights)
        best = argmax(axis=1)
        if plain_copies:
            # plain copies fail unless every member link is ON
            np.greater_equal(link_t, members(best, axis=0), out=links_on)
            np.logical_and.reduce(links_on, axis=(1, 2), keepdims=True, out=all_on)
            multiply(service(best, axis=0), all_on, out=g)
        else:
            multiply(service(best, axis=0), link_t, out=g)
        subtract(arrivals, departures, out=change)
        multiply(change, steps, out=change)
        add(prices, change, out=prices)
        maximum(prices, zero, out=prices)
        return best

    return step, IterationBuffers(prices, arrivals, departures, weights)


@dataclass
class SeedRun:
    seed: int
    device_avg: np.ndarray  # (n,) delivered rate averaged over the window

    @property
    def avg(self) -> float:
        return float(self.device_avg.mean())

    @property
    def spread(self) -> float:
        return float(self.device_avg.std())


@dataclass
class SimulateReport:
    runs: list[SeedRun]

    @property
    def avg_rate(self) -> float:
        return float(np.mean([r.avg for r in self.runs]))


def simulate(topo: Topology, cfg: SolverConfig) -> SimulateReport:
    """Run the dual-queue iteration against ON/OFF link draws, all seeds at once.

    Per seed, reports each device's delivered rate averaged over the
    final half of the horizon; no_coop bypasses the solver entirely.
    """
    n, t_max, policy = topo.n, cfg.iterations, cfg.policy
    n_seeds = len(cfg.seeds)
    cell_on, local_on = channel_draws(topo, cfg.seeds, t_max)
    # decisions use expected rates; an ON link delivers at raw capacity
    rc_on = topo.cell_capacity * cell_on
    if policy == NO_COOP:
        delivered = rc_on
    else:
        step, buffers = build_iteration(LocalActions(topo, policy), stream_cap(topo, cfg),
                                        n_seeds)
        inflow = buffers.departures[:, :n]
        # iteration-major channel states and deliveries: iteration t is one index
        rate_on = np.ascontiguousarray(rc_on.transpose(1, 0, 2)[..., None])
        link_on = np.ascontiguousarray(local_on.transpose(1, 0, 2, 3))
        delivered = np.empty((t_max, n_seeds, n))
        with np.errstate(divide="ignore"):
            for t in range(t_max):
                step(rate_on[t], link_on[t])
                delivered[t] = inflow
        delivered = delivered.transpose(1, 0, 2)
    half = t_max // 2
    return SimulateReport([SeedRun(s, delivered[k, half:].mean(axis=0))
                           for k, s in enumerate(cfg.seeds)])


def _max_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The v maximizing c.v subject to A v <= b and v >= 0, given b >= 0.

    Dense-tableau primal simplex from the slack basis, which b >= 0 makes
    feasible. Bland's rule keeps it from cycling on the many degenerate
    (zero right-hand side) rows: the entering column is the lowest-index
    one with reduced cost below -tol, and the leaving row has the minimum
    ratio, ties going to the lowest basic-variable index.
    """
    m, k = A.shape
    tab = np.zeros((m + 1, k + m + 1))
    tab[:m, :k] = A
    tab[:m, k:k + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :k] = -c
    basis = np.arange(k, k + m)
    rhs = tab[:m, -1]
    ratio = np.empty(m)
    for _ in range(ORACLE_MAX_PIVOTS):
        entering = np.flatnonzero(tab[m, :-1] < -_LP_TOL)
        if not entering.size:
            v = np.zeros(k + m)
            v[basis] = rhs
            return v[:k]
        col = entering[0]
        column = tab[:m, col]
        rising = column > _LP_TOL
        if not rising.any():
            raise RuntimeError("oracle LP failed: the objective is unbounded")
        ratio.fill(np.inf)
        np.divide(rhs, column, out=ratio, where=rising)
        ties = np.flatnonzero(ratio == ratio.min())
        row = ties[np.argmin(basis[ties])]
        pivot = tab[row] / column[row]
        tab -= np.outer(tab[:, col], pivot)
        tab[row] = pivot
        basis[row] = col
        # round-off can leave a basic value a hair below 0: keep the basis feasible
        np.maximum(rhs, 0.0, out=rhs)
    raise RuntimeError(f"oracle LP failed: no optimum after {ORACLE_MAX_PIVOTS} pivots")


def centralized_oracle(topo: Topology, policy: str) -> float:
    """Exact optimum of the allocation LP; small groups only.

    no_coop has no coupled program: returns the mean standalone rate.
    """
    if policy == NO_COOP:
        return float(topo.downlink_caps.mean())
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    n = topo.n
    if n > ORACLE_DEVICE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_DEVICE_LIMIT} devices, got {n}")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    pair_idx = {p: k for k, p in enumerate(pairs)}
    if policy == UNICAST:
        arcs_list: list[tuple[int, tuple[int, ...]]] = []
    else:
        # the full enumeration, never the prefixes that `simulate` weighs:
        # the oracle is the reference that `simulate` is held to
        table = LocalActions(topo, policy, enumerate_hyperarcs(n))
        arcs_list, kappa = table.arcs, table.kappa

    # variable layout: x | x_dl (n*n) | g (pairs) | f (arcs) | tau
    n_dl = n * n
    n_g = len(pairs)
    n_f = len(arcs_list)
    n_tau = n_g if policy == UNICAST else len(arcs_list)
    off_dl = 1
    off_g = off_dl + n_dl
    off_f = off_g + n_g
    off_tau = off_f + n_f
    n_var = off_tau + n_tau

    rows, rhs = [], []

    def row() -> np.ndarray:
        r = np.zeros(n_var)
        rows.append(r)
        rhs.append(0.0)
        return r

    for j in range(n):  # stream conservation: x <= sum_i x_dl[i, j]
        r = row()
        r[0] = 1.0
        for i in range(n):
            r[off_dl + i * n + j] = -1.0
    for (i, j) in pairs:  # helping downloads must be forwarded: x_dl <= g
        r = row()
        r[off_dl + i * n + j] = 1.0
        r[off_g + pair_idx[(i, j)]] = -1.0
    if policy == UNICAST:
        goodput = topo.local_capacity * (1.0 - topo.local_loss)
        for (i, j) in pairs:  # g <= goodput * tau on the one link
            r = row()
            r[off_g + pair_idx[(i, j)]] = 1.0
            r[off_tau + pair_idx[(i, j)]] = -goodput[i, j]
    else:
        for (i, j) in pairs:  # g <= sum of flows on arcs from i covering j
            r = row()
            r[off_g + pair_idx[(i, j)]] = 1.0
            for a, (s, members) in enumerate(arcs_list):
                if s == i and j in members:
                    r[off_f + a] = -1.0
        for a in range(len(arcs_list)):  # f <= kappa * tau per arc
            r = row()
            r[off_f + a] = 1.0
            r[off_tau + a] = -kappa[a]
    if n_tau:  # airtime budget
        r = row()
        r[off_tau:] = 1.0
        rhs[-1] = topo.gamma

    caps = topo.downlink_caps
    for i in range(n):  # downlink caps: x_dl[i, j] <= C_i (1 - p_i)
        for j in range(n):
            r = row()
            r[off_dl + i * n + j] = 1.0
            rhs[-1] = float(caps[i])

    c = np.zeros(n_var)
    c[0] = 1.0
    return float(_max_lp(c, np.array(rows), np.array(rhs))[0])
