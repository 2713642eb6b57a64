import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edarp import (FleetParams, InstanceFormatError, generate_instance, load,
                   normalize_features, save, validate)


def test_asymmetry_zero_gives_symmetric_times():
    inst = generate_instance(4, seed=3, asymmetry=0.0)
    t = inst.edges.time
    assert np.array_equal(t, t.T)
    assert np.array_equal(inst.edges.energy, inst.edges.energy.T)


def test_same_arguments_byte_identical():
    a = save(generate_instance(4, charger_count=2, seed=9, asymmetry=0.3))
    b = save(generate_instance(4, charger_count=2, seed=9, asymmetry=0.3))
    assert a == b


def test_generated_instance_validates():
    inst = generate_instance(4, charger_count=1, seed=7)
    assert validate(inst) == []


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 31 - 1),
       chargers=st.integers(1, 3))
def test_generated_instances_always_validate(n, seed, chargers):
    inst = generate_instance(n, charger_count=chargers, seed=seed)
    assert validate(inst) == []


def test_validator_sweep_many_seeds():
    # structural invariants hold across a wide seed sweep
    for seed in range(1000):
        inst = generate_instance(1 + seed % 5, seed=seed)
        assert validate(inst) == [], f"seed {seed}"


def test_validate_flags_zero_load_pickup():
    inst = generate_instance(3, seed=1)
    inst.nodes[1].q = 0
    assert any(m.startswith("nodes[1].q must be > 0") for m in validate(inst))


def test_validate_flags_inverted_window():
    inst = generate_instance(3, seed=1)
    inst.nodes[3].a, inst.nodes[3].l = inst.nodes[3].l, inst.nodes[3].a - 1.0
    bad = [m for m in validate(inst) if "window closes" in m]
    assert bad and bad[0].startswith("nodes[3].l ")


def test_validate_flags_negative_edge():
    inst = generate_instance(2, seed=5)
    inst.edges.time[1][2] = -1.0
    assert any(m.startswith("edges.time[1][2] must be >= 0") for m in validate(inst))


def test_normalize_everything_in_unit_interval():
    for seed in (0, 4, 9):
        feats = normalize_features(generate_instance(5, seed=seed))
        assert feats.node.min() >= 0.0 and feats.node.max() <= 1.0
        assert feats.edge.min() >= 0.0 and feats.edge.max() <= 1.0 + 1e-12


def test_energy_feature_is_fraction_of_battery():
    inst = generate_instance(3, seed=2)
    inst.edges.energy[1][2] = inst.fleet.battery_kwh
    feats = normalize_features(inst)
    assert feats.edge[1, 2, 2] == 1.0


def test_degenerate_coordinates_map_to_zero():
    inst = generate_instance(2, seed=6)
    for nd in inst.nodes:
        nd.x, nd.y = 100.0, 250.0
    feats = normalize_features(inst)
    assert np.all(feats.node[:, 4] == 0.0) and np.all(feats.node[:, 5] == 0.0)


def test_minmax_endpoints_on_time_feature():
    inst = generate_instance(4, seed=8)
    feats = normalize_features(inst)
    t = inst.edges.time
    off = ~np.eye(inst.num_nodes, dtype=bool)
    lo = np.unravel_index(np.argmin(np.where(off, t, np.inf)), t.shape)
    hi = np.unravel_index(np.argmax(np.where(off, t, -np.inf)), t.shape)
    assert feats.edge[lo][0] == 0.0
    assert feats.edge[hi][0] == 1.0


def test_save_load_round_trip():
    inst = generate_instance(4, charger_count=2, seed=13, asymmetry=0.25)
    assert save(load(save(inst))) == save(inst)


EDGES = ("time", "dist", "energy")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 31 - 1),
       chargers=st.integers(1, 3), tight=st.booleans())
def test_packed_edges_round_trip_bit_for_bit(n, seed, chargers, tight):
    fleet = FleetParams(battery_kwh=4.0, soc_reserve=0.3) if tight else FleetParams()
    inst = generate_instance(n, charger_count=chargers, fleet=fleet, seed=seed)
    data = save(inst)
    back = load(data)
    for k in EDGES:
        a, b = getattr(inst.edges, k), getattr(back.edges, k)
        assert b.dtype == np.float64 and b.flags.owndata and b.flags.writeable
        assert b.shape == a.shape and b.tobytes() == a.tobytes()
    assert save(back) == data


def test_packed_edges_keep_signed_zero_and_subnormal():
    """Values a decimal round trip could lose keep their bits."""
    inst = generate_instance(2, seed=4)
    inst.edges.dist[1, 2] = -0.0
    inst.edges.dist[2, 1] = 5e-324
    inst.edges.time[3, 1] = 5e-324
    inst.edges.energy[1, 3] = -0.0
    assert validate(inst) == []
    back = load(save(inst))
    for k in EDGES:
        assert getattr(back.edges, k).tobytes() == getattr(inst.edges, k).tobytes()
    assert np.signbit(back.edges.dist[1, 2]) and np.signbit(back.edges.energy[1, 3])
    assert back.edges.dist[2, 1] == back.edges.time[3, 1] == 5e-324


def test_instance_edges_are_packed():
    """Each matrix is a base64 string: 32/3 bytes per stored number, where
    decimal float lists took about 22."""
    inst = generate_instance(10, charger_count=2, seed=3)
    data = save(inst)
    doc = json.loads(data)
    assert doc["schema"] == "edarp-instance/2"
    assert all(isinstance(doc["edges"][k], str) for k in EDGES)
    assert sum(len(doc["edges"][k]) for k in EDGES) <= 11 * 3 * inst.num_nodes ** 2


def test_load_refuses_float_list_edges_under_schema_2():
    """The float lists of edarp-instance/1 are refused under the new
    schema too: load keeps no float-list reader."""
    inst = generate_instance(3, seed=1)
    doc = json.loads(save(inst))
    doc["edges"]["dist"] = inst.edges.dist.tolist()
    with pytest.raises(InstanceFormatError,
                       match=re.escape("edges.dist must be a base64 string, got list")):
        load(json.dumps(doc).encode())


def test_load_refuses_what_validate_flags():
    doc = json.loads(save(generate_instance(2, seed=1)))
    doc["nodes"][4]["sigma"] = -5
    with pytest.raises(InstanceFormatError,
                       match=re.escape("nodes[4].sigma must be >= 0")):
        load(json.dumps(doc).encode())


def test_truncated_payload_reports_offset():
    data = save(generate_instance(2, seed=1))[:40]
    with pytest.raises(InstanceFormatError, match="byte"):
        load(data)


def test_unknown_schema_version_rejected():
    doc = json.loads(save(generate_instance(2, seed=1)))
    doc["schema"] = "edarp-instance/99"
    with pytest.raises(InstanceFormatError, match="schema"):
        load(json.dumps(doc).encode())
    # a field the simulator cannot honour is refused, not ignored
    doc = json.loads(save(generate_instance(2, seed=1)))
    assert "initialSoc" not in doc["fleet"]
    for soc in (0.2, 7.0):
        doc["fleet"]["initialSoc"] = soc
        with pytest.raises(InstanceFormatError, match="initialSoc"):
            load(json.dumps(doc).encode())
    doc["fleet"]["initialSoc"] = 1.0
    assert save(load(json.dumps(doc).encode())) == save(generate_instance(2, seed=1))


def test_integer_fields_honoured_or_refused():
    # a count or index is a JSON integer: a float is never truncated, and
    # a bool or a string never stands in for one
    text = save(generate_instance(2, seed=1))
    doc = json.loads(text)
    del doc["n"]
    with pytest.raises(InstanceFormatError, match="'n'"):
        load(json.dumps(doc).encode())
    for label, path, value in [
            ("n", ["n"], "x"), ("seed", ["seed"], True),
            ("fleet.vehicles", ["fleet", "vehicles"], 2.0),
            ("fleet.capacity", ["fleet", "capacity"], "3"),
            ("nodes[1].id", ["nodes", 1, "id"], 1.0),
            ("nodes[1].q", ["nodes", 1, "q"], 1.5),
            ("requests[0].id", ["requests", 0, "id"], None),
            ("requests[0].pickup", ["requests", 0, "pickup"], 1.5),
            ("requests[0].delivery", ["requests", 0, "delivery"], False)]:
        doc = json.loads(text)
        field = doc
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = value
        with pytest.raises(InstanceFormatError,
                           match=re.escape(f"{label} must be an integer")):
            load(json.dumps(doc).encode())


def test_unknown_keys_refused():
    # a key save() does not write is refused, never silently ignored
    text = save(generate_instance(2, seed=1))
    for label, path, key in [("instance", [], "comment"),
                             ("weights", ["weights"], "travle"),
                             ("fleet", ["fleet"], "chargePowerKw"),
                             ("edges", ["edges"], "cost"),
                             ("nodes[1]", ["nodes", 1], "colour"),
                             ("requests[0]", ["requests", 0], "priority")]:
        doc = json.loads(text)
        holder = doc
        for k in path:
            holder = holder[k]
        holder[key] = 1.0
        with pytest.raises(InstanceFormatError,
                           match=re.escape(f"unknown {label} key(s): {key}")):
            load(json.dumps(doc).encode())


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_instance(0, seed=1)
    with pytest.raises(ValueError):
        generate_instance(2, charger_count=0, seed=1)
    with pytest.raises(ValueError, match="horizon"):
        generate_instance(2, seed=5, asymmetry=10.0)


def test_fleet_and_node_invariants_hold():
    inst = generate_instance(6, charger_count=2, seed=17)
    n = inst.n
    # roles by position: depot, n pickups, n deliveries, then chargers
    assert inst.num_nodes == 1 + 2 * n + 2
    doc = json.loads(save(inst))
    assert [nd["kind"] for nd in doc["nodes"]] == \
        ["depot"] + ["pickup"] * n + ["delivery"] * n + ["charger"] * 2
    assert inst.nodes[0].q == 0 and all(nd.q == 0 for nd in inst.nodes[1 + 2 * n:])
    for i, cap in enumerate(inst.max_ride):
        p, d = 1 + i, 1 + n + i
        assert cap >= inst.edges.time[p][d]
        assert inst.nodes[p].q == -inst.nodes[d].q > 0
    assert np.all(np.diag(inst.edges.time) == 0.0)
    assert inst.edges.time.min() >= 0.0


def test_generator_keeps_depot_reachable():
    # battery rule needs an escape from every node
    inst = generate_instance(8, charger_count=1, seed=31)
    B = inst.fleet.battery_kwh
    rho = inst.fleet.soc_reserve
    for j in range(inst.num_nodes):
        esc = min(inst.edges.energy[j][k] for k in [0] + list(range(1 + 2 * inst.n, inst.num_nodes)))
        assert esc / B <= 1.0 - rho + 1e-12
