"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def test_self_time_nested_and_overlapping_children():
    spans = [
        ["root", 0.0, 10.0, -1, "op", None],
        ["a", 1.0, 4.0, 0, "op", None],
        ["b", 3.0, 6.0, 0, "op", None],   # overlaps a: the union is [1, 6]
        ["c", 2.0, 3.0, 1, "op", None],   # grandchild, inside a
        ["d", 8.0, 12.0, 0, "op", None],  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_summarize_counts_recursion_once_in_total():
    spans = [
        ["catalog.gl", 0.0, 5.0, -1, "op", {"args": [2, 1]}],
        ["catalog.gl", 1.0, 2.0, 0, "op", None],
        [tracing.BOOKKEEPING, 5.0, 6.0, -1, "op", None],
        ["catalog.gl", 7.0, 8.0, -1, None, None],  # during a check: ignored
    ]
    agg = tracing.summarize(spans, {"superfield.bracket_fields": 3})
    assert agg["catalog.gl"] == {"calls": 2, "self_s": 5.0, "total_s": 5.0}
    assert agg["catalog"] == {"calls": 2, "self_s": 5.0}
    assert agg["superfield.bracket_fields"]["calls"] == 3
    assert tracing.BOOKKEEPING not in agg


def _fails(records):
    return run.failures([{"ops": records, "untraced_offenders": []}])


def test_wrong_expected_value_raises_fail_ratio():
    ops = [
        Op("good", lambda inp: 1, lambda r: r),
        Op("bad", lambda inp: 3, lambda r: r),
    ]
    attempted, failed, msgs = _fails(worker.run_ops(ops, {"good": 1, "bad": 2}))
    assert (attempted, failed) == (2, 1)
    assert "bad" in msgs[0]


def test_real_op_against_corrupted_oracle():
    op = next(o for o in workloads.build("fields_odes", 0) if o.name == "ode3_dterm")
    oracle = workloads.load_oracle("fields_odes")
    assert _fails(worker.run_ops([op], oracle))[1] == 0
    wrong = copy.deepcopy(oracle)
    wrong["ode3_dterm"]["superdim"] = [2, 3]
    assert _fails(worker.run_ops([op], wrong))[1] == 1


def test_raising_op_is_counted_and_the_pass_completes():
    def boom(inp):
        raise RuntimeError("boom")

    ops = [
        Op("raises", boom, lambda r: r),
        Op("after", lambda inp: 2, lambda r: r),
        Op("needs_it", lambda inp: inp["raises"], lambda r: r, needs=("raises",)),
    ]
    records = worker.run_ops(ops, {"raises": 1, "after": 2, "needs_it": 1})
    assert [r["ok"] for r in records] == [False, True, False]
    assert "RuntimeError" in records[0]["problems"][0]
    assert _fails(records)[:2] == (3, 2)


def test_tracing_is_opt_in_and_restores_every_original():
    import superprolong  # noqa: F401
    from superprolong import liesuper

    prolong_mod = sys.modules["superprolong.prolong"]
    before = {(id(o), a): vars(o)[a] for o, a, _, _, _ in tracing.targets()}
    assert before and tracing.untraced_offenders() == []
    tracer = tracing.Tracer()
    assert tracer.install() == len(before)
    try:
        assert prolong_mod.validate is not liesuper.validate.__perfbench_original__
        assert "superprolong.prolong.validate" in tracing.untraced_offenders()
        from superprolong import catalog
        tracer.op = "probe"
        prolong_mod.prolong(
            liesuper.SymbolAlgebra(catalog.odd_ode_symbol(2)),
            g0=catalog.odd_ode_scalings(2),
        )
    finally:
        tracer.uninstall()
    assert tracing.untraced_offenders() == []
    for owner, attr, _, _, _ in tracing.targets():
        assert vars(owner)[attr] is before[(id(owner), attr)]
    names = {s[0] for s in tracer.spans}
    assert {"prolong.prolong", "prolong.step", "liesuper.validate",
            "prolong.linalg.kernel_basis_rows", "catalog.odd_ode_symbol"} <= names
    assert tracer.counts["prolong.bracket_elements"] > 0


def test_seeded_order_respects_needs_and_depends_on_seed():
    orders = set()
    for seed in range(8):
        names = [op.name for op in workloads.build("cohomology_qi", seed)]
        for n in (2, 3):
            assert names.index("st%d" % n) < names.index("cohomology_st%d" % n)
            assert names.index("st%d" % n) < names.index("reduced_check_st%d" % n)
        orders.add(tuple(names))
    assert len(orders) > 1


def test_w_superdimensions():
    total = lambda p, q: sum(sum(workloads.w_component(p, q, k)) for k in range(-1, 10))
    assert total(2, 1) == 363 and total(1, 2) == 120
    assert workloads.w_component(2, 1, 0) == (5, 4)  # gl(2|1)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(20)))
    assert value == 9 and sum(1 for v in range(20) if v > value) == 10


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_superfield_outputs_do_not_depend_on_the_seed():
    oracle = workloads.load_oracle("fields_odes")
    for seed in range(8):
        ops = [o for o in workloads.build("fields_odes", seed)
               if o.name.startswith("model_") or o.name == "nonregular_hc"]
        assert len(ops) == 7
        assert _fails(worker.run_ops(ops, oracle))[1] == 0, seed
