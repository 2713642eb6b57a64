"""Problem instances for the electric dial-a-ride workbench.

An instance is one complete routing problem: a depot, n pickup/delivery
pairs, charging stations, dense travel-time/distance/energy matrices, a
homogeneous fleet, and the cost weights used to score solutions.

Node order is fixed: [depot, pickups 1..n, deliveries n+1..2n, chargers],
and it alone decides each node's role (node_kinds). Request i is picked
up at node 1+i and delivered at node 1+n+i.
Units are seconds, meters, and kWh throughout.
The generator's geometry and timing are module constants; its fleet and
cost weights are arguments.

An instance file (schema edarp-instance/2) is indented JSON whose three
edge matrices are packed: each is the base64 of its little-endian
float64 bytes in C order (pack_floats), the codec checkpoints use too.
"""

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

SCHEMA_INSTANCE = "edarp-instance/2"

KINDS = ("depot", "pickup", "delivery", "charger")
EDGE_NAMES = ("time", "dist", "energy")


class InstanceFormatError(ValueError):
    """Raised when serialized instance data cannot be decoded or is invalid."""


@dataclass
class Node:
    x: float
    y: float
    a: float        # window open, seconds
    l: float        # window close, seconds
    sigma: float    # service time, seconds
    q: int          # load change: +1 pickup, -1 delivery, 0 otherwise


@dataclass
class FleetParams:
    vehicles: int = 2
    capacity: int = 3
    battery_kwh: float = 20.0
    soc_reserve: float = 0.1


@dataclass
class CostWeights:
    """Weights of the scalar objective J and the reward R.

    J = energy*J_e + wait*(J_w/time_unit) + late*(J_l/time_unit)
        [+ travel*(J_t/time_unit) when travel > 0]
    R = -J + complete * n_served

    Wait and lateness accumulate in seconds; time_unit (default 60)
    brings them to minutes so the time terms are commensurate with
    energies in kWh and a per-request completion bonus of order one.
    """

    energy: float = 1.0
    wait: float = 0.1
    late: float = 0.1
    complete: float = 10.0
    travel: float = 0.0
    time_unit: float = 60.0


class EdgeMatrices:
    """Dense travel time, distance, and energy matrices (not symmetric)."""

    def __init__(self, time, dist, energy):
        self.time = np.asarray(time, dtype=np.float64)
        self.dist = np.asarray(dist, dtype=np.float64)
        self.energy = np.asarray(energy, dtype=np.float64)


class Instance:
    """Nodes in the fixed order, which decides their roles; max_ride[i] is
    request i's hard cap on its delivery service start minus its pickup
    service start, and there are n = len(max_ride) requests."""

    def __init__(self, nodes, edges, max_ride, fleet, weights, horizon, seed=0):
        self.nodes = list(nodes)
        self.edges = edges
        self.max_ride = list(max_ride)
        self.fleet = fleet
        self.weights = weights
        self.horizon = float(horizon)
        self.seed = int(seed)

    @property
    def n(self):
        return len(self.max_ride)

    @property
    def num_nodes(self):
        return len(self.nodes)


def node_kinds(inst):
    """Each node's role as an index into KINDS, read from its position."""
    n = inst.n
    return [(j > 0) + (j > n) + (j > 2 * n) for j in range(inst.num_nodes)]


# Generator geometry and timing: meters, seconds and kWh per km.
AREA_M = 10_000.0
SPEED_MPS = 10.0
HORIZON = 14_400.0
WINDOW_WIDTH = 900.0
SERVICE_TIME = 60.0
CHARGER_SERVICE_TIME = 900.0
ENERGY_PER_KM = 0.15
RIDE_TIME_FACTOR = 3.0      # max ride as a multiple of the direct travel time
DELIVERY_SLACK = 600.0
DEMAND_EVERY = 900.0        # seconds of window-open range per request


def depot_unreachable(energy, fleet):
    """Whether some node's energy into the depot exceeds the battery share
    above the safety reserve; the simulator relies on it never doing so."""
    return float(energy[:, 0].max()) / fleet.battery_kwh > 1.0 - fleet.soc_reserve


def generate_instance(n, charger_count=1, fleet=None, seed=0, asymmetry=0.2, *,
                      weights=None):
    """Sample a random instance, deterministic in all arguments.

    Nodes are uniform over a square of side AREA_M. Travel time is
    Euclidean distance over SPEED_MPS, each directed entry inflated by
    (1 + u) with u ~ Uniform(0, asymmetry); energy is ENERGY_PER_KM
    times distance with an independent directed inflation. Pickup
    windows are WINDOW_WIDTH wide with the open time drawn so that both
    stops can still reach the depot inside HORIZON; the delivery
    window is the pickup window shifted by the direct travel time plus
    DELIVERY_SLACK on the close side.

    Window opens are drawn from the first n * DEMAND_EVERY seconds
    (capped by the horizon feasibility bound) so demand density per hour
    stays roughly constant across sizes; vehicles idling for hours in
    front of a lone far-future window would otherwise drown the
    completion bonus in waiting cost.
    """
    if n < 1:
        raise ValueError("need at least one request")
    if charger_count < 1:
        raise ValueError("need at least one charging station")
    if fleet is None:
        fleet = FleetParams()
    if weights is None:
        weights = CostWeights()

    rng = np.random.default_rng(seed)
    v = 1 + 2 * n + charger_count
    xy = rng.uniform(0.0, AREA_M, size=(v, 2))
    diff = xy[:, None, :] - xy[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    time = (dist / SPEED_MPS) * (1.0 + rng.uniform(0.0, asymmetry, size=(v, v)))
    energy = ENERGY_PER_KM * (dist / 1000.0) * (1.0 + rng.uniform(0.0, asymmetry, size=(v, v)))
    np.fill_diagonal(time, 0.0)
    np.fill_diagonal(energy, 0.0)

    nodes = [Node(float(xy[0, 0]), float(xy[0, 1]), 0.0, HORIZON, 0.0, 0)]
    max_ride = []
    for i in range(n):
        p, d = 1 + i, 1 + n + i
        t_direct = float(time[p, d])
        # latest window open keeping pickup and delivery depot-reachable in the horizon
        a_hi = min(HORIZON - WINDOW_WIDTH - float(time[p, 0]),
                   HORIZON - WINDOW_WIDTH - t_direct - DELIVERY_SLACK - float(time[d, 0]))
        if a_hi <= 0.0:
            raise ValueError(f"horizon too short for request {i}")
        a_hi = min(a_hi, n * DEMAND_EVERY)
        a_p = float(rng.uniform(0.0, a_hi))
        nodes.append(Node(float(xy[p, 0]), float(xy[p, 1]),
                          a_p, a_p + WINDOW_WIDTH, SERVICE_TIME, 1))
        max_ride.append(RIDE_TIME_FACTOR * t_direct)
    for i in range(n):
        p, d = 1 + i, 1 + n + i
        t_direct = float(time[p, d])
        a_p = nodes[p].a
        nodes.append(Node(float(xy[d, 0]), float(xy[d, 1]),
                          a_p + t_direct,
                          a_p + WINDOW_WIDTH + t_direct + DELIVERY_SLACK,
                          SERVICE_TIME, -1))
    for c in range(charger_count):
        j = 1 + 2 * n + c
        nodes.append(Node(float(xy[j, 0]), float(xy[j, 1]),
                          0.0, HORIZON, CHARGER_SERVICE_TIME, 0))

    if depot_unreachable(energy, fleet):
        raise ValueError("battery too small: depot unreachable from some node")

    return Instance(nodes, EdgeMatrices(time, dist, energy), max_ride,
                    fleet, weights, HORIZON, seed)


def validate(inst):
    """Check every structural invariant; returns a list of messages, each
    naming its field as the instance JSON does
    (e.g. "nodes[4].sigma must be >= 0, got -5.0"). Roles come from the
    node order, so the rules judge each node by its position. The edge
    matrices' shapes are checked before any rule reads them."""
    out = []
    n = inst.n
    v = inst.num_nodes

    if v < 1 + 2 * n:
        out.append(f"nodes holds {v} entries, fewer than 1 + 2n = {1 + 2 * n}")
        return out

    # a NaN fails every comparison and an infinity passes the range checks
    # below, so either would silently switch a rule off: refuse them first
    w = inst.weights
    numbers = [(f"nodes[{j}].{k}", getattr(nd, k)) for j, nd in enumerate(inst.nodes)
               for k in ("x", "y", "a", "l", "sigma")]
    numbers += [(f"requests[{i}].maxRide", cap) for i, cap in enumerate(inst.max_ride)]
    numbers += [("fleet.batteryKwh", inst.fleet.battery_kwh),
                ("horizon", inst.horizon), ("weights.timeUnit", w.time_unit)]
    numbers += [("weights." + k, getattr(w, k))
                for k in ("energy", "wait", "late", "complete", "travel")]
    for name, value in numbers:
        if not math.isfinite(value):
            out.append(f"{name} must be finite, got {value}")

    for j, (nd, k) in enumerate(zip(inst.nodes, node_kinds(inst))):
        kind = KINDS[k]
        at = f"nodes[{j}]"
        if nd.a > nd.l:
            out.append(f"{at}.l {nd.l} is before {at}.a {nd.a}: "
                       "the window closes before it opens")
        if nd.sigma < 0:
            out.append(f"{at}.sigma must be >= 0, got {nd.sigma}")
        if kind == "pickup" and nd.q <= 0:
            out.append(f"{at}.q must be > 0 at a pickup, got {nd.q}")
        if kind == "delivery":
            twin = inst.nodes[j - n]
            if nd.q >= 0:
                out.append(f"{at}.q must be < 0 at a delivery, got {nd.q}")
            elif nd.q != -twin.q:
                out.append(f"{at}.q must undo nodes[{j - n}].q {twin.q}, got {nd.q}")
        if kind in ("depot", "charger") and nd.q != 0:
            out.append(f"{at}.q must be 0 at a {kind}, got {nd.q}")

    shaped = True
    for name in EDGE_NAMES:
        m = getattr(inst.edges, name)
        at = f"edges.{name}"
        if m.shape != (v, v):
            out.append(f"{at} has shape {m.shape}, expected ({v}, {v})")
            shaped = False
            continue
        if not np.all(np.isfinite(m)):
            i, j = np.argwhere(~np.isfinite(m))[0]
            out.append(f"{at}[{i}][{j}] must be finite, got {m[i, j]}")
        if (m < 0).any():
            i, j = np.argwhere(m < 0)[0]
            out.append(f"{at}[{i}][{j}] must be >= 0, got {m[i, j]}")
        diag = np.flatnonzero(np.diagonal(m) != 0.0)
        if diag.size:
            i = diag[0]
            out.append(f"{at}[{i}][{i}] must be 0, got {m[i, i]}")

    for i, cap in enumerate(inst.max_ride):
        p, d = 1 + i, 1 + n + i
        if shaped and cap < (direct := inst.edges.time[p, d]):
            out.append(f"requests[{i}].maxRide {cap} is below the direct travel time "
                       f"{direct} from nodes[{p}] to nodes[{d}]")

    f = inst.fleet
    for name, value, bad, rule in (
            ("fleet.vehicles", f.vehicles, f.vehicles < 1, ">= 1"),
            ("fleet.capacity", f.capacity, f.capacity < 1, ">= 1"),
            ("fleet.batteryKwh", f.battery_kwh, f.battery_kwh <= 0, "> 0"),
            ("fleet.socReserve", f.soc_reserve, not 0.0 <= f.soc_reserve < 1.0,
             "in [0, 1)"),
            *((f"weights.{k}", getattr(w, k), getattr(w, k) < 0, ">= 0")
              for k in ("energy", "wait", "late", "complete", "travel")),
            ("weights.timeUnit", w.time_unit, w.time_unit <= 0, "> 0"),
            ("horizon", inst.horizon, inst.horizon <= 0, "> 0")):
        if bad:
            out.append(f"{name} must be {rule}, got {value}")

    if shaped and f.battery_kwh > 0 and depot_unreachable(inst.edges.energy, f):
        out.append("edges.energy: the depot is unreachable from some node on the "
                   "battery share above fleet.socReserve")
    return out


@dataclass
class FeatureTensors:
    """Min-max scaled model inputs."""

    node: np.ndarray    # [V, 10]: one-hot kind, x, y, a, l, sigma, q
    edge: np.ndarray    # [V, V, 3]: travel time, distance, energy / B


def _minmax(values, lo, hi):
    if hi <= lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def normalize_features(inst):
    """Scale node and edge attributes to [0, 1].

    Coordinates, service times, and load changes are min-max scaled per
    instance; time windows are divided by the horizon; edge time and
    distance are min-max scaled over off-diagonal entries; energy is
    expressed as a fraction of the battery capacity. A degenerate range
    (max equal to min) maps to zero.
    """
    v = inst.num_nodes
    node = np.zeros((v, 10))
    xs = np.array([nd.x for nd in inst.nodes])
    ys = np.array([nd.y for nd in inst.nodes])
    sig = np.array([nd.sigma for nd in inst.nodes])
    qs = np.array([float(nd.q) for nd in inst.nodes])
    node[np.arange(v), node_kinds(inst)] = 1.0
    node[:, 4] = _minmax(xs, xs.min(), xs.max())
    node[:, 5] = _minmax(ys, ys.min(), ys.max())
    node[:, 6] = np.array([nd.a for nd in inst.nodes]) / inst.horizon
    node[:, 7] = np.minimum(np.array([nd.l for nd in inst.nodes]) / inst.horizon, 1.0)
    node[:, 8] = _minmax(sig, sig.min(), sig.max())
    node[:, 9] = _minmax(qs, qs.min(), qs.max())

    off = ~np.eye(v, dtype=bool)
    edge = np.zeros((v, v, 3))
    t, d = inst.edges.time, inst.edges.dist
    t_lo, t_hi = (float(t[off].min()), float(t[off].max())) if v > 1 else (0.0, 0.0)
    d_lo, d_hi = (float(d[off].min()), float(d[off].max())) if v > 1 else (0.0, 0.0)
    edge[:, :, 0] = np.where(off, _minmax(t, t_lo, t_hi), 0.0)
    edge[:, :, 1] = np.where(off, _minmax(d, d_lo, d_hi), 0.0)
    edge[:, :, 2] = inst.edges.energy / inst.fleet.battery_kwh
    return FeatureTensors(node, edge)


def pack_floats(a):
    """Base64 text of a's little-endian float64 bytes in C order."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode()


def unpack_floats(label, text, shape):
    """text, the pack_floats of an array of `shape`, as an owned, writable
    float64 array; ValueError naming label unless text is a string of
    valid base64 holding exactly one float64 per entry. The values
    themselves are left to the caller to check."""
    if not isinstance(text, str):
        raise ValueError(f"{label} must be a base64 string, "
                         f"got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:
        raise ValueError(f"{label} is not valid base64: {e}") from e
    size = math.prod(shape)
    if len(raw) != 8 * size:
        raise ValueError(f"{label} must hold {size} float64 values "
                         f"({8 * size} bytes), got {len(raw)} bytes")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def save(inst):
    """Serialize to versioned JSON bytes (schema edarp-instance/2): every
    field as indented JSON but the edge matrices, each packed by
    pack_floats, so every value round-trips bit for bit."""
    doc = {
        "schema": SCHEMA_INSTANCE,
        "seed": inst.seed,
        "n": inst.n,
        "horizon": inst.horizon,
        "fleet": {"vehicles": inst.fleet.vehicles,
                  "capacity": inst.fleet.capacity,
                  "batteryKwh": inst.fleet.battery_kwh,
                  "socReserve": inst.fleet.soc_reserve},
        "weights": {"energy": inst.weights.energy, "wait": inst.weights.wait,
                    "late": inst.weights.late, "complete": inst.weights.complete,
                    "travel": inst.weights.travel, "timeUnit": inst.weights.time_unit},
        "nodes": [{"id": j, "kind": KINDS[k], "x": nd.x, "y": nd.y,
                   "a": nd.a, "l": nd.l, "sigma": nd.sigma, "q": nd.q}
                  for j, (nd, k) in enumerate(zip(inst.nodes, node_kinds(inst)))],
        "requests": [{"id": i, "pickup": 1 + i, "delivery": 1 + inst.n + i,
                      "maxRide": cap} for i, cap in enumerate(inst.max_ride)],
        "edges": {k: pack_floats(getattr(inst.edges, k)) for k in EDGE_NAMES},
    }
    return (json.dumps(doc, indent=1) + "\n").encode()


def _integer(name, value):
    """value if it is a JSON integer, never a float or bool; else TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


# the keys save() writes, per JSON object; load also reads fleet.initialSoc
_KEYS = {
    "instance": {"schema", "seed", "n", "horizon", "fleet", "weights", "nodes",
                 "requests", "edges"},
    "fleet": {"vehicles", "capacity", "batteryKwh", "socReserve", "initialSoc"},
    "weights": {"energy", "wait", "late", "complete", "travel", "timeUnit"},
    "nodes": {"id", "kind", "x", "y", "a", "l", "sigma", "q"},
    "requests": {"id", "pickup", "delivery", "maxRide"},
    "edges": {"time", "dist", "energy"},
}


def _known_keys(where, obj, group):
    """ValueError naming the keys of the JSON object obj that are not in
    _KEYS[group]; anything but an object is left to the field parsers."""
    if isinstance(obj, dict) and not obj.keys() <= _KEYS[group]:
        extra = ", ".join(sorted(obj.keys() - _KEYS[group]))
        raise ValueError(f"unknown {where} key(s): {extra}")


def load(data):
    """Parse instance JSON produced by save(); inverse of save on valid data.
    A key that save() does not write is refused, never ignored, and so is
    a node id or kind or a request's id, pickup or delivery that differs
    from what the node order gives, an edge matrix that is not a base64
    string of V*V float64 values (V nodes), and every instance that
    validate() flags: what load returns is valid, and its edge matrices
    are owned, writable float64 arrays. Any other schema is refused,
    edarp-instance/1's float lists included."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"malformed instance JSON at byte {e.pos}: {e.msg}") from e
    if not isinstance(doc, dict) or "schema" not in doc:
        raise InstanceFormatError("not an instance document: missing schema field")
    if doc["schema"] != SCHEMA_INSTANCE:
        raise InstanceFormatError(
            f"unsupported schema {doc['schema']!r}, expected {SCHEMA_INSTANCE!r}")
    try:
        _known_keys("instance", doc, "instance")
        for group in ("fleet", "weights", "edges"):
            _known_keys(group, doc[group], group)
        for group in ("nodes", "requests"):
            for i, item in enumerate(doc[group]):
                _known_keys(f"{group}[{i}]", item, group)
        fl = doc["fleet"]
        fleet = FleetParams(_integer("fleet.vehicles", fl["vehicles"]),
                            _integer("fleet.capacity", fl["capacity"]),
                            float(fl["batteryKwh"]), float(fl["socReserve"]))
        initial_soc = float(fl.get("initialSoc", 1.0))
        wt = doc["weights"]
        weights = CostWeights(float(wt["energy"]), float(wt["wait"]), float(wt["late"]),
                              float(wt["complete"]), float(wt.get("travel", 0.0)),
                              float(wt.get("timeUnit", 60.0)))
        # each node's id and kind, and each request's id, pickup and
        # delivery, restate the node order: parsed, checked below, not kept
        claims = [(_integer(f"nodes[{i}].id", nd["id"]), str(nd["kind"]),
                   Node(float(nd["x"]), float(nd["y"]), float(nd["a"]), float(nd["l"]),
                        float(nd["sigma"]), _integer(f"nodes[{i}].q", nd["q"])))
                  for i, nd in enumerate(doc["nodes"])]
        slots = [(*(_integer(f"requests[{i}].{k}", r[k])
                    for k in ("id", "pickup", "delivery")), float(r["maxRide"]))
                 for i, r in enumerate(doc["requests"])]
        v = len(claims)
        edges = EdgeMatrices(*(unpack_floats(f"edges.{k}", doc["edges"][k], (v, v))
                               for k in EDGE_NAMES))
        n = _integer("n", doc["n"])
        inst = Instance([nd for _, _, nd in claims], edges, [cap for *_, cap in slots],
                        fleet, weights, float(doc["horizon"]),
                        _integer("seed", doc.get("seed", 0)))
    except (KeyError, TypeError, ValueError) as e:
        raise InstanceFormatError(f"malformed instance field: {e}") from e
    if initial_soc != 1.0:
        raise InstanceFormatError(
            f"unsupported initialSoc {initial_soc}: every vehicle starts full")
    if n != inst.n:
        raise InstanceFormatError("request count does not match n")
    problems = []
    for j, ((ident, kind, _), k) in enumerate(zip(claims, node_kinds(inst))):
        if ident != j:
            problems.append(f"nodes[{j}].id must be {j}, got {ident}")
        if kind != KINDS[k]:
            problems.append(f"nodes[{j}].kind must be {KINDS[k]}, got {kind}")
    for i, (ident, pickup, delivery, _) in enumerate(slots):
        if (ident, pickup, delivery) != (i, 1 + i, 1 + n + i):
            problems.append(f"requests[{i}].id, .pickup and .delivery must be {i}, "
                            f"{1 + i} and {1 + n + i}, got {ident}, {pickup} and "
                            f"{delivery}")
    problems += validate(inst)
    if problems:
        raise InstanceFormatError("invalid instance: " + "; ".join(problems))
    return inst
