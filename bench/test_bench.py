"""Tests of the benchmark's own arithmetic: percentiles, self time, hit counting."""

import gc
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import percentile  # noqa: E402
from tracer import SeenArrays, Tracer, self_time  # noqa: E402


def test_p90_of_100_samples_leaves_ten_beyond():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 90) == 90
    assert percentile(samples, 50) == 50


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(109), 90) == 98  # rank 99, ten beyond


def test_self_time_subtracts_overlapping_children_once():
    # [1, 4] and [3, 6] overlap; [8, 12] is clipped to the parent's end at 10
    children = [(3.0, 6.0), (1.0, 4.0), (8.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(-5.0, 20.0)]) == 0.0


def test_seen_arrays_counts_hits_and_misses_by_weak_reference():
    seen = SeenArrays()
    a = np.zeros(4)
    b = np.zeros(4)
    assert not seen.observe(a)
    assert seen.observe(a)
    assert not seen.observe(b)
    assert (seen.hits, seen.misses, seen.bytes_new) == (1, 2, 2 * a.nbytes)
    del a
    gc.collect()
    c = np.zeros(4)  # may reuse a's id; it is still a new array
    assert not seen.observe(c)
    assert seen.hit_ratio == pytest.approx(1 / 4)


def test_tracer_wraps_from_imports_and_restores_them():
    import pego
    from pego import cli, fourier, groups, irreps

    original = fourier.forward_to_cutoff
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.forward_to_cutoff is fourier.forward_to_cutoff is not original
        rule = groups.haar_quadrature(groups.cyclic(5))
        f = fourier.constant_function(rule)
        tracer.run_op(0, "bench.op", lambda: pego.forward(f, irreps.enumerate_dual(rule.group)))
    finally:
        tracer.uninstall()
    assert cli.forward_to_cutoff is fourier.forward_to_cutoff is original
    table = tracer.table()
    assert table["fourier.forward"]["calls"] == 1
    assert table["irreps.irrep_stack"]["calls"] == 5
    stack_bytes = 5 * len(rule) * 16
    assert tracer.counters["fourier.forward.computed_bytes"] == stack_bytes
    by_name = {rec[0]: rec for rec in tracer.spans}
    assert tracer.spans[by_name["fourier.forward"][3]][0] == "bench.op"
    assert by_name["irreps.irrep_stack"][4] == 0
    assert by_name["groups.haar_quadrature"][4] is None
