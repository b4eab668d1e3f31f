"""Self-tests of the benchmark and its tracer.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def documents():
    workdir = run.STATE / f"work-test-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        boxswap, requests, rng, _ = run.setup("documents", 1, workdir)
        yield boxswap, requests, rng
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_hybrid_three_has_one_span_per_call(documents):
    boxswap, requests, _ = documents
    req = next(r for r in requests if r.label == "doc:hybrid_three")
    calls = dict.fromkeys(("apply_coupler", "tensor"), 0)
    tracer = tracing.Tracer(boxswap)
    tracer.install()
    traced = {name: getattr(boxswap.scenarios, name) for name in calls}

    def counting(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return traced[name](*args, **kwargs)
        return call
    try:
        for name in calls:
            setattr(boxswap.scenarios, name, counting(name))
        req.prepare()
        rc = tracer.request(req.label, req)
    finally:
        for name, fn in traced.items():
            setattr(boxswap.scenarios, name, fn)
        tracer.uninstall()
    assert req.check(rc) is None
    names = [s["name"] for s in tracer.spans]
    assert names.count("coupler.apply_coupler") == calls["apply_coupler"]
    assert names.count("boxes.tensor") == calls["tensor"]
    assert calls["apply_coupler"] >= 3  # at least one application per coupler


def test_traced_round(documents):
    boxswap, requests, rng = documents
    untraced = run.run_round(requests, rng)
    samples, metrics, tracer = run.traced(boxswap, requests, rng, [untraced])
    assert all(s.problem is None for s in untraced + samples)

    spans = tracer.spans
    for span in spans:
        if span["parent"] is None:
            assert span["name"] == "request" and span["request"] == span["id"]
            continue
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        assert span["request"] == parent["request"]
    assert min(tracer.self_times()) > -1e-9

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert set(predictions["per_layer"]) == set(metrics)
    assert set(predictions["workloads"]) == {w["name"] for w in bench["workloads"]}


def test_uninstall_restores_the_library(documents):
    boxswap, _, _ = documents
    add, main, tensor = boxswap.Scalar.__dict__["__add__"], boxswap.cli.main, boxswap.tensor
    tracer = tracing.Tracer(boxswap)
    tracer.install()
    assert boxswap.scenarios.tensor is not tensor and boxswap.boxes.tensor is not tensor
    tracer.uninstall()
    assert boxswap.scenarios.tensor is tensor and boxswap.boxes.tensor is tensor
    assert boxswap.Scalar.__dict__["__add__"] is add and boxswap.cli.main is main


def test_end_to_end_names_match_benchmark_json():
    rounds = [[run.Sample("r", 0.5, None, 0, 1.0)] * 10]
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = run.end_to_end(rounds, [(0.1, 1.0)])
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}


def test_seed_changes_values_not_round(tmp_path):
    boxswap = run.import_boxswap()

    def round_of(seed):
        workdir = tmp_path / str(len(list(tmp_path.iterdir())))
        workdir.mkdir()
        requests, _ = workloads.build("documents", seed, boxswap, workdir)
        return ([r.label for r in requests],
                {p.name: p.read_bytes() for p in sorted(workdir.iterdir())})

    labels, docs = round_of(1)
    assert round_of(1) == (labels, docs)
    labels2, docs2 = round_of(2)
    assert labels2 == labels and docs2.keys() == docs.keys() and docs2 != docs
