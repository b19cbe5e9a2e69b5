"""Tests of the benchmark itself: inputs, gate, independent check and tracer.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from leinster import oracle  # noqa: E402


def test_instances_are_deterministic_for_a_seed():
    first = workloads.classify_big_instances(7, count=6)
    assert first == workloads.classify_big_instances(7, count=6)
    assert first != workloads.classify_big_instances(8, count=6)
    assert workloads.classify_big_ops(7) == workloads.classify_big_ops(7)


def test_instances_have_the_promised_shape():
    for i, (p, r) in enumerate(workloads.classify_big_instances(3)):
        assert sympy.isprime(p)
        assert 2**31 < p < 2**81
        e = 1 + i % 2
        assert sympy.n_order(r, p) == (p - 1) // e
        # every prime factor of p - 1 but the largest is below 2^23
        factors = sorted(sympy.factorint(p - 1))
        assert all(f < 2**23 for f in factors[:-1])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_sympy_identity_matches_the_oracle(p):
    for r in range(2, p):
        want = oracle.group_divisor_sum(oracle.build_zm(p, p - 1, r))
        assert workloads.zm_paper_divisor_sum(p, r) == want, (p, r)


def test_expected_record_matches_the_documented_instance():
    assert workloads.expected_zm_record(7, 3) == (
        '{"family": "zm", "params": [7, 6, 3], "order": 42, "D": 85, '
        '"class": "quasi-leinster", "notes": []}\n'
    )


def test_gate_flags_a_corrupted_output():
    op = workloads.Op(("classify", "--family", "zm", "--params", "7,6,3"),
                      workloads.expected_zm_record(7, 3))
    good = workloads.digest(op.expected)
    assert workloads.check(op, 0, good, {}) is None
    corrupted = op.expected.replace('"D": 85', '"D": 86')
    assert workloads.check(op, 0, workloads.digest(corrupted), {}) is not None
    assert workloads.check(op, 4, good, {}) == "exit code 4"


def test_gate_uses_the_reference_for_fixed_operations():
    op = workloads.verify_ops(0)[0]
    text = "PASS a (1 checked)\nverify: 1/1 invariants passed in 4.2s\n"
    reference = {op.id: workloads.digest(text)}
    later = text.replace("4.2s", "13.0s")
    assert workloads.check(op, 0, workloads.digest(later), reference) is None
    failed = text.replace("PASS", "FAIL")
    assert workloads.check(op, 0, workloads.digest(failed), reference) is not None
    assert workloads.check(op, 0, workloads.digest(text), {}) is not None


def test_every_fixed_operation_has_a_reference():
    reference = workloads.load_reference()
    for make_ops in workloads.WORKLOADS.values():
        for op in make_ops(0):
            assert op.expected is not None or op.id in reference, op.id


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = tracer.self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


def test_layer_metrics_on_a_synthetic_table():
    names = ["cli.main", "oracle.normal_subgroups", "oracle.all_subgroups",
             "numtheory.factorize", "oracle.build_cyclic"]
    spans = {
        "names": np.array(names),
        # main > normal_subgroups > all_subgroups > factorize, then main > build,
        # then main > all_subgroups (same table again)
        "fn": np.array([0, 1, 2, 3, 4, 2]),
        "parent": np.array([-1, 0, 1, 2, 0, 0]),
        "start": np.array([0.0, 1.0, 2.0, 3.0, 6.0, 8.0]),
        "end": np.array([10.0, 5.0, 4.5, 3.5, 7.0, 9.0]),
        "tag": np.array([0, 0, 1, 0, 0, 1]),
    }
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"] == 10.0 - 4.0 - 1.0 - 1.0
    assert m["oracle.self_s"] == 4.0 + 1.0 + 1.0 - 0.5
    assert m["numtheory.self_s"] == 0.5
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == 10.0
    # the nested all_subgroups is not an entry into the lattice layer
    assert m["oracle.lattice.calls"] == 2
    assert m["oracle.lattice.repeat_ratio"] == 0.5
    assert m["oracle.lattice.max_call_s"] == 4.0
    assert m["oracle.lattice.self_s"] == 4.0 + 1.0 - 0.5
    assert m["oracle.build.calls"] == 1
    assert m["numtheory.factorize.calls"] == 1


def _fake_layer():
    module = types.ModuleType("fake.numtheory")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) * 2\n"
        "def stream(n):\n"
        "    for i in range(n):\n"
        "        yield outer(i)\n"
        "def _private(x):\n"
        "    return x\n",
        module.__dict__,
    )
    return module


def test_tracer_wraps_calls_inside_the_module_and_generators():
    module = _fake_layer()
    t = tracer.Tracer()
    t.install([module])
    assert sorted(t.names) == ["numtheory.inner", "numtheory.outer", "numtheory.stream"]
    assert list(module.stream(2)) == [2, 4]
    names = [t.names[i] for i in t.fn]
    # two next() calls that yield plus the final one that stops
    assert names.count("numtheory.stream") == 3
    assert names.count("numtheory.outer") == 2
    assert names.count("numtheory.inner") == 2
    for i, p in enumerate(t.parent):
        if p >= 0:
            assert t.start[p] <= t.start[i] <= t.end[i] <= t.end[p]
    own = tracer.self_times(np.array(t.parent), np.array(t.start), np.array(t.end))
    roots = np.array(t.parent) < 0
    dur = np.array(t.end) - np.array(t.start)
    assert own.sum() == pytest.approx(dur[roots].sum())


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == 3.0
    values = [float(i) for i in range(21)]
    assert run.tail(values) == 10.0


def test_printed_metrics_are_the_declared_ones():
    declared = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    spans = {"names": np.array(["cli.main"]), "fn": np.array([0]), "parent": np.array([-1]),
             "start": np.array([0.0]), "end": np.array([1.0]), "tag": np.array([0])}
    layer = set(tracer.layer_metrics(spans)) | {"trace.wall_s", "trace.overhead_ratio"}
    assert layer == {m["name"] for m in declared["per_layer"]}
    plain = [{"latencies": [1.0, 2.0], "wall_s": 3.0, "peak_rss_mb": 50.0}]
    fake = types.SimpleNamespace(plain=plain, instances=[0, 1], setup=[0.2])
    assert set(run.end_to_end(fake)) == {m["name"] for m in declared["end_to_end"]}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_instance_latencies_are_medians_over_repetitions():
    plain = [
        {"latencies": [1.0, 5.0, 9.0], "wall_s": 15.0, "peak_rss_mb": 50.0},
        {"latencies": [3.0, 4.0, 7.0], "wall_s": 14.0, "peak_rss_mb": 52.0},
        {"latencies": [2.0, 6.0, 8.0], "wall_s": 16.0, "peak_rss_mb": 51.0},
    ]
    fake = types.SimpleNamespace(plain=plain, instances=[0, 1], setup=[0.3, 0.1, 0.2])
    m = run.end_to_end(fake)
    # the third operation is not an instance; the others take medians 2.0 and 5.0
    assert m["op_p50_s"] == 3.5 and m["op_tail_s"] == 5.0
    assert m["wall_s"] == 15.0 and m["peak_rss_mb"] == 51.0 and m["setup_s"] == 0.2


def test_classify_big_latencies_cover_only_classify_instances():
    ops = workloads.classify_big_ops(1)
    picked = workloads.instance_ops("classify-big", ops)
    assert len(picked) == workloads.CLASSIFY_BIG_COUNT + len(workloads.PAPER_INSTANCES)
    assert all(ops[i].argv[0] == "classify" for i in picked)
    sweep = workloads.sweep_ops(1)
    assert workloads.instance_ops("sweep", sweep) == list(range(len(sweep)))


def test_tracer_charges_finite_group_methods_to_the_oracle():
    t = tracer.Tracer()
    saved = {name: oracle.FiniteGroup.__dict__[name] for name in
             tracer.CLASS_METHODS["FiniteGroup"]}
    fake_oracle = types.ModuleType(oracle.__name__)
    fake_oracle.FiniteGroup = oracle.FiniteGroup
    try:
        t.install([fake_oracle])
        group = oracle.build_cyclic(6)  # the real builder, not wrapped here
        assert group.is_cyclic()
        assert group.rows[1][1] == 2
    finally:
        for name, attr in saved.items():
            setattr(oracle.FiniteGroup, name, attr)
    names = [t.names[i] for i in t.fn]
    assert names.count("oracle.FiniteGroup.__init__") == 1
    assert "oracle.FiniteGroup.element_orders" in names
    assert "oracle.FiniteGroup.rows" in names
    spans = {"names": np.array(t.names), "fn": np.array(t.fn), "parent": np.array(t.parent),
             "start": np.array(t.start), "end": np.array(t.end), "tag": np.array(t.tag)}
    m = tracer.layer_metrics(spans)
    assert m["oracle.build.calls"] == 0
    assert 0 < m["oracle.build.self_s"] < m["oracle.self_s"]


def test_latencies_are_scaled_by_the_ticks_around_them():
    nominal = calibrate.NOMINAL_TICK_S
    result = {
        "readings": [nominal, nominal, 3 * nominal, nominal],
        "ops": [
            # no ticks: the readings at both ends
            {"seconds": 1.0, "sampler_s": 0.0, "ticks": []},
            # the host is twice as slow during the second operation, and the
            # sampler took 0.1 s of it
            {"seconds": 4.1, "sampler_s": 0.1, "ticks": [2 * nominal] * 5},
            {"seconds": 3.0, "sampler_s": 0.0, "ticks": [3 * nominal]},
        ],
    }
    assert run.scaled_latencies(result) == pytest.approx([1.0, 2.0, 1.0])
    assert calibrate.scale(2 * nominal) == pytest.approx(0.5)
    start = calibrate.NOMINAL_START_S
    assert calibrate.normalize_start(0.3, 1.5 * start) == pytest.approx(0.2)


def test_sampler_ticks_during_a_block_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.ticks) >= 3
    assert all(t > 0 for t in sampler.ticks)
    assert 0 < sampler.spent < 0.2
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
