"""Episode simulator for the electric dial-a-ride problem.

One vehicle is active at a time. It starts at the depot with a full
battery, serves pickup/delivery stops, may stop at charging stations,
and ends its route back at the depot; if requests remain and the fleet
allows, a fresh vehicle is swapped in (clock 0, full battery), otherwise
the episode terminates. Costs accumulate as energy in kWh, waiting
seconds at pickups, and lateness seconds at deliveries.

Feasible next nodes come from six constraint groups: visit/precedence
state, capacity, hard time windows (pickups and chargers; deliveries are
soft-late but hard on ride time), battery reserve with an escape-energy
margin, structural charger/depot rules, and fleet accounting handled by
the depot transition itself. Every per-hop rule, the charge curve and
the transition arithmetic are written once, in the kernel Env builds
(see Env); the mask, the step (on its realized leg) and the route
evaluator of the neighborhood solver all call it. Masks are
computed from the deterministic matrices; when traversal noise is
enabled the realized costs may exceed the estimates the mask saw, which
is the intended reactive behavior.
"""

import json
from dataclasses import dataclass

import numpy as np

from .instance import node_kinds

SCHEMA_SOLUTION = "edarp-solution/1"


class MaskViolation(RuntimeError):
    """An action was taken that the feasibility mask forbids."""

    def __init__(self, step, node, message=""):
        super().__init__(message or f"step {step}: node {node} not in feasibility mask")
        self.step = step
        self.node = node


class ReplayError(MaskViolation):
    """A stored route could not be replayed through the simulator."""


def charging_power(soc):
    """Charging power in kW as a function of state of charge.

    100 kW below 0.45, tapering linearly to 30 kW at 0.95, 30 kW above;
    continuous at both breakpoints.
    """
    if soc < 0.0 or soc > 1.0:
        raise ValueError(f"state of charge {soc} outside [0, 1]")
    if soc < 0.45:
        return 100.0
    if soc <= 0.95:
        return 100.0 - 140.0 * (soc - 0.45)
    return 30.0


def sample_noise(base, scale, z):
    """Inflate a nonnegative base cost by |z| * scale (half-normal model)."""
    return base * (1.0 + abs(z) * scale)


@dataclass
class NoiseConfig:
    """Half-normal traversal noise; a scale of 0 means deterministic."""

    scale: float = 0.0
    rng: object = None

    @staticmethod
    def make(scale, seed):
        """Noise at the given scale; scale 0 means deterministic."""
        return NoiseConfig(scale, np.random.default_rng(seed))


class EpisodeState:
    """Mutable rollout state; clone() returns an independent copy."""

    __slots__ = ("node", "clock", "soc", "load", "onboard", "vehicles_used",
                 "visited", "n_served", "routes", "energy_kwh", "wait_sec",
                 "late_sec", "travel_sec", "charge_visits", "terminal", "steps")

    def __init__(self):
        self.node = 0
        self.clock = 0.0
        self.soc = 1.0
        self.load = 0
        self.onboard = {}            # request id -> pickup service start
        self.vehicles_used = 1
        self.visited = 0             # bitset over nodes (depot exempt)
        self.n_served = 0
        self.routes = [[(0, 0.0, 0.0, 1.0, 0.0)]]
        self.energy_kwh = 0.0
        self.wait_sec = 0.0
        self.late_sec = 0.0
        self.travel_sec = 0.0
        self.charge_visits = 0
        self.terminal = False
        self.steps = 0

    def clone(self):
        c = EpisodeState.__new__(EpisodeState)
        c.node = self.node
        c.clock = self.clock
        c.soc = self.soc
        c.load = self.load
        c.onboard = dict(self.onboard)
        c.vehicles_used = self.vehicles_used
        c.visited = self.visited
        c.n_served = self.n_served
        c.routes = [list(r) for r in self.routes]
        c.energy_kwh = self.energy_kwh
        c.wait_sec = self.wait_sec
        c.late_sec = self.late_sec
        c.travel_sec = self.travel_sec
        c.charge_visits = self.charge_visits
        c.terminal = self.terminal
        c.steps = self.steps
        return c


class Solution:
    """Ordered per-vehicle stop logs with the cost breakdown and metrics."""

    def __init__(self, routes, n_served, j_energy, j_wait, j_late, j_travel,
                 objective, reward, metrics):
        self.routes = routes                # list per vehicle of (node, arrival, serviceStart, soc, chargeDelta)
        self.n_served = n_served
        self.j_energy = j_energy
        self.j_wait = j_wait                # seconds
        self.j_late = j_late                # seconds
        self.j_travel = j_travel            # seconds
        self.objective = objective
        self.reward = reward
        self.metrics = metrics

    def vehicle_routes(self):
        """Per-vehicle visit lists without the depot bookends."""
        return [[stop[0] for stop in log[1:] if stop[0] != 0] for log in self.routes]


def battery_shortfalls(sol, reserve):
    """(stranded, breaches): how many stops of sol's logs the vehicle
    reached with a charge, soc minus chargeDelta, below 0 and below
    reserve."""
    arrivals = [stop[3] - stop[4] for log in sol.routes for stop in log]
    return sum(b < 0.0 for b in arrivals), sum(b < reserve for b in arrivals)


# node_kinds' codes, indices into instance.KINDS, used in the hot loops
_DEPOT, _PICKUP, _DELIVERY, _CHARGER = 0, 1, 2, 3


class Env:
    """Simulator bound to one instance; holds no episode state itself.

    The per-hop rules live in exactly one place, the kernel that
    __init__ builds with the instance tables bound as closure locals,
    so the hot insertion scans pay no attribute lookups per hop:

    hop(u, tau, b, load, w, ps, leg=None) serves stop w after leaving u
        at clock tau with state of charge b and the given load; ps is
        w's pickup service start when w is a delivery (None: not on
        board). It returns (ss, dep, soc, load, wait, late, de, dt) or
        None when the charger structural rule, capacity, the hard window
        or ride cap, or the escape-margin battery rule blocks the hop.
        Env.step passes its move's realized leg (dt, de), noisy or an
        escape: hop then skips every rule and runs on that leg.
    too_late(tau, w, ps) is true when no hop that leaves for w at clock
        tau or later can serve it: w's hard window has closed (pickups
        and chargers), or w is a delivery that is not on board or whose
        ride cap is spent. Never for the depot. It is exact, because
        validated travel and service times are >= 0, so a later
        departure never starts service earlier and departure clocks
        never fall along a route.
    charge_delta(soc, w) is the charge-curve gain of plugging in at w.
    home(u, b, load) is the return leg (de, dt) to the depot, or None
        when the vehicle is loaded or cannot reach it above the reserve.
    price(energy, wait, late, travel) is the objective J of totals in
        kWh and seconds, with the instance's cost weights bound once: the
        one formula that episodes, routes and their changes are priced
        with.

    Env.mask, Env.step and the route evaluator in routes.py all call it.
    """

    def __init__(self, inst):
        self.inst = inst
        self.n = n = inst.n
        self.num_nodes = inst.num_nodes
        self.t = t = inst.edges.time.tolist()
        self.e = e = inst.edges.energy.tolist()
        a = [nd.a for nd in inst.nodes]
        l = [nd.l for nd in inst.nodes]
        sigma = [nd.sigma for nd in inst.nodes]
        self.q = q = [nd.q for nd in inst.nodes]
        self.kindc = kindc = node_kinds(inst)
        max_ride = list(inst.max_ride)
        self.chargers = list(range(1 + 2 * n, self.num_nodes))
        self.visit_once = list(range(1, 1 + n)) + self.chargers   # pickups, chargers
        self.K = inst.fleet.vehicles
        cap = inst.fleet.capacity
        self.invB = invB = 1.0 / inst.fleet.battery_kwh
        rho = inst.fleet.soc_reserve
        # cheapest escape energy from each node to the depot or any charger
        escape = [min(e[j][k] for k in [0] + self.chargers)
                  for j in range(self.num_nodes)]
        home_leg = [(e[u][0], t[u][0]) for u in range(self.num_nodes)]
        self.step_limit = 4 * (self.num_nodes + 2) * self.K

        def charge_delta(soc, w):
            at = min(max(soc, 0.0), 1.0)
            charge = charging_power(at) * sigma[w] / 3600.0 * invB
            room = 1.0 - soc
            return room if charge > room else charge

        def hop(u, tau, b, load, w, ps, leg=None):
            kind = kindc[w]         # a given leg skips every rule below
            if kind == _CHARGER and leg is None and (u == 0 or kindc[u] == _CHARGER or load > 0):
                return None
            nl = load + q[w]
            if (nl < 0 or nl > cap) and leg is None:
                return None
            if leg is None:
                dt = t[u][w]
                de = e[u][w]
            else:
                dt, de = leg
            arrival = tau + dt
            aw = a[w]
            ss = arrival if arrival > aw else aw
            wait = late = 0.0
            if kind == _DELIVERY:
                if (ps is None or ss - ps > max_ride[w - 1 - n]) and leg is None:
                    return None
                if ss > l[w]:
                    late = ss - l[w]
            elif ss > l[w] and leg is None:
                return None          # hard upper window for pickups and chargers
            elif kind == _PICKUP and arrival < aw:
                wait = aw - arrival
            after = b - de * invB
            if (after < rho or after - escape[w] * invB < rho) and leg is None:
                return None
            if kind == _CHARGER:
                after += charge_delta(after, w)
            return ss, ss + sigma[w], after, nl, wait, late, de, dt

        def too_late(tau, w, ps):
            # hop's window and ride-cap verdicts at the earliest service
            # start tau itself; ss >= tau, since travel times are >= 0
            kind = kindc[w]
            if kind == _DELIVERY:
                return ps is None or tau - ps > max_ride[w - 1 - n]
            return kind != _DEPOT and tau > l[w]

        def home(u, b, load):
            if load == 0 and b - e[u][0] * invB >= rho:
                return home_leg[u]
            return None

        w = inst.weights
        w_e, w_w, w_l, w_t, tu = w.energy, w.wait, w.late, w.travel, w.time_unit

        def price(energy, wait, late, travel):
            return (w_e * energy + w_w * (wait / tu)
                    + w_l * (late / tu) + w_t * (travel / tu))

        self.hop, self.charge_delta, self.home = hop, charge_delta, home
        self.too_late, self.price = too_late, price

    def reset(self):
        return EpisodeState()

    def mask(self, state):
        """Boolean feasibility over nodes; guaranteed nonempty when non-terminal.

        Asks the kernel about every structural candidate: the depot,
        unvisited pickups, on-board deliveries and unvisited chargers.
        """
        allowed = [False] * self.num_nodes
        if state.terminal:
            return allowed
        hop = self.hop
        v, tau, b, load = state.node, state.clock, state.soc, state.load
        any_ok = allowed[0] = self.home(v, b, load) is not None
        visited = state.visited
        for j in self.visit_once:
            if not (visited >> j) & 1 and hop(v, tau, b, load, j, None) is not None:
                allowed[j] = any_ok = True
        d0 = 1 + self.n
        for r, ps in state.onboard.items():
            if hop(v, tau, b, load, d0 + r, ps) is not None:
                allowed[d0 + r] = any_ok = True
        if not any_ok:
            allowed[self._escape_action(state)] = True
        return allowed

    def _escape_action(self, state):
        """Last-resort move when every regular rule blocks: run for the
        cheapest battery-reachable depot/charger, depot preferred. The
        reserve margin in the battery rule guarantees one exists."""
        v = state.node
        if self.home(v, state.soc, 0) is not None:     # load aboard or not
            return 0
        e_v = self.e[v]
        best, best_e = 0, float("inf")
        for c in self.chargers:
            if c != v and e_v[c] < best_e:
                best, best_e = c, e_v[c]
        return best

    def step(self, state, action, noise=None, mask=None):
        """Advance the episode by one action; mutates state in place."""
        if state.terminal:
            raise RuntimeError("step() called on a terminal episode")
        if mask is None:
            mask = self.mask(state)
        if not mask[action]:
            raise MaskViolation(state.steps, action)
        state.steps += 1
        if state.steps > self.step_limit:
            raise RuntimeError("episode exceeded the step limit; broken instance?")
        v, j = state.node, action
        dt = self.t[v][j]
        de = self.e[v][j]
        if noise is not None and noise.scale > 0.0:
            z = float(noise.rng.standard_normal())
            dt = sample_noise(dt, noise.scale, z)
            de = sample_noise(de, noise.scale, z)
        tau, b = state.clock, state.soc
        ss, state.clock, state.soc, state.load, wait, late, _, _ = \
            self.hop(v, tau, b, state.load, j, None, (dt, de))
        charge = 0.0
        kind = self.kindc[j]
        if kind == _PICKUP:
            state.onboard[j - 1] = ss
        elif kind == _DELIVERY:
            state.onboard.pop(j - 1 - self.n, None)
            state.n_served += 1
        elif kind == _CHARGER:
            charge = self.charge_delta(b - de * self.invB, j)
            state.charge_visits += 1
        state.energy_kwh += de
        state.wait_sec += wait
        state.late_sec += late
        state.travel_sec += dt
        if j != 0:
            state.visited |= 1 << j
        state.routes[-1].append((j, tau + dt, ss, state.soc, charge))
        if j == 0:
            state.node = 0
            if state.n_served < self.n and state.vehicles_used < self.K:
                state.vehicles_used += 1
                state.clock = 0.0
                state.soc = 1.0
                state.load = 0
                state.onboard.clear()
                state.routes.append([(0, 0.0, 0.0, 1.0, 0.0)])
            else:
                state.terminal = True
        else:
            state.node = j

    def objective(self, state):
        """Weighted cost accumulated so far; it only grows along an episode."""
        return self.price(state.energy_kwh, state.wait_sec, state.late_sec,
                          state.travel_sec)

    def solution(self, state):
        """Score a terminal state into a Solution."""
        if not state.terminal:
            raise ValueError("episode still running")
        j_val = self.objective(state)
        reward = -j_val + self.inst.weights.complete * state.n_served
        return Solution([list(r) for r in state.routes], state.n_served,
                        state.energy_kwh, state.wait_sec, state.late_sec,
                        state.travel_sec, j_val, reward, self._metrics(state))

    def _metrics(self, state):
        vehicles = 0
        seg_loads = []
        for log in state.routes:
            moved = any(stop[0] != 0 for stop in log)
            if moved:
                vehicles += 1
            load = 0
            for k in range(len(log) - 1):
                load += self.q[log[k][0]]
                if load >= 1:
                    seg_loads.append(load)
        picked = bin((state.visited >> 1) & ((1 << self.n) - 1)).count("1")   # pickup bits 1..n
        delivered = state.n_served
        return {
            "completion_pct": 100.0 * delivered / self.n if self.n else 100.0,
            "vehicles": vehicles,
            "load_factor": float(np.mean(seg_loads)) if seg_loads else 0.0,
            "charge_visits": state.charge_visits,
            "energy_per_vehicle_kwh": state.energy_kwh / max(1, vehicles),
            "wait_s": state.wait_sec / max(1, picked),
            "late_s": state.late_sec / max(1, delivered),
        }


def replay(env, vehicle_routes):
    """Drive per-vehicle visit lists through the simulator.

    Each route is a node list without depot bookends; a depot return is
    appended after each. Unused fleet slots are burned with extra depot
    visits until the episode terminates, so partial plans score cleanly.
    Raises ReplayError when any action is off-mask.
    """
    if len(vehicle_routes) > env.K:
        raise ReplayError(0, 0, f"{len(vehicle_routes)} routes for {env.K} vehicles")
    routes = list(vehicle_routes)
    while routes and not routes[-1]:
        routes.pop()                  # unused fleet slots; the burn loop covers them
    state = env.reset()
    seq = []
    for route in routes:
        seq.extend(route)
        seq.append(0)
    idx = 0
    for action in seq:
        if state.terminal:
            raise ReplayError(idx, action, f"actions remain after terminal at step {idx}")
        m = env.mask(state)
        if not m[action]:
            raise ReplayError(idx, action)
        env.step(state, action, mask=m)
        idx += 1
    while not state.terminal:
        env.step(state, 0)
    return env.solution(state)


def score_solution(sol, inst):
    """Replay a Solution's routes and return (objective, reward, metrics).

    The replay recomputes every timestamp and cost from scratch, so a
    tampered or stale solution is rejected with the offending step.
    """
    fresh = replay(Env(inst), sol.vehicle_routes())
    return fresh.objective, fresh.reward, fresh.metrics


def save_solution(sol):
    doc = {
        "schema": SCHEMA_SOLUTION,
        "routes": [[{"node": s[0], "arrival": s[1], "serviceStart": s[2],
                     "soc": s[3], "chargeDelta": s[4]} for s in log]
                   for log in sol.routes],
        "served": sol.n_served,
        "cost": {"energy": sol.j_energy, "wait": sol.j_wait, "late": sol.j_late,
                 "travel": sol.j_travel, "objective": sol.objective,
                 "reward": sol.reward},
        "metrics": sol.metrics,
    }
    return (json.dumps(doc, indent=1) + "\n").encode()


def load_solution(data):
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed solution JSON at byte {e.pos}: {e.msg}") from e
    if doc.get("schema") != SCHEMA_SOLUTION:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    routes = [[(s["node"], s["arrival"], s["serviceStart"], s["soc"], s["chargeDelta"])
               for s in log] for log in doc["routes"]]
    cost = doc["cost"]
    for field, holder, key in (("cost.travel", cost, "travel"),
                               ("metrics.charge_visits", doc["metrics"], "charge_visits")):
        if key not in holder:
            raise ValueError(f"solution lacks {field}")
    return Solution(routes, doc["served"], cost["energy"], cost["wait"],
                    cost["late"], cost["travel"], cost["objective"], cost["reward"],
                    doc["metrics"])
