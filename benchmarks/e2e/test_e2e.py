"""Shape checks for the repo benchmark (CI's ``pytest benchmarks/`` step).

Runs the real command at a tiny scale.  Nothing here looks at how fast
anything is — only that every named metric comes out, that exact metrics
are exact, that tracing observes without perturbing, and that the
pipeline's contract holds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from . import REPO_ROOT, spec
from .workloads import GENERATORS

RUN = [sys.executable, str(Path(__file__).with_name("run.py"))]
SCALE = "0.02"


def _run(args, cwd):
    done = subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)
    return done.returncode, done.stdout


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    """All five workloads, both passes, twice with the same seed."""
    cwd = tmp_path_factory.mktemp("cwd")
    out = tmp_path_factory.mktemp("out")
    code, stdout = _run(["--seed", "1", "--scale", SCALE, "--repeat", "2", "--out", str(out)], cwd)
    assert code == 0, stdout
    assert not list(cwd.iterdir()), "the benchmark wrote into its working directory"
    lines = stdout.splitlines()
    assert len(lines) == 1, "results are one JSON document on stdout"
    doc = json.loads(lines[0])
    doc["out"] = out
    return doc


def test_every_workload_runs_clean(document):
    assert list(document["results"]) == list(spec.WORKLOADS)
    for name, result in document["results"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] > 0


def test_every_named_metric_is_reported_with_its_unit(document):
    for name, result in document["results"].items():
        metrics = result["metrics"]
        assert list(metrics) == [m[0] for m in spec.END_TO_END + spec.PER_LAYER], name
        for metric, unit, *_ in spec.END_TO_END + spec.PER_LAYER:
            assert metrics[metric]["unit"] == unit
        for metric, *_ in spec.END_TO_END:
            assert metrics[metric]["value"] > 0, f"{name}: {metric} must never be 0"


def test_exact_metrics_repeat_to_the_digit(document):
    for name, result in document["results"].items():
        for metric in spec.EXACT:
            entry = result["metrics"][metric]
            assert entry["q1"] == entry["q3"] == entry["value"], f"{name}: {metric} varied"


def test_trace_accounts_for_all_time_and_the_right_layers(document):
    hop = ("nfs_client", "net", "nfs_server")
    for name, result in document["results"].items():
        metrics = result["metrics"]
        shares = sum(metrics[f"{layer}.self_share"]["value"] for layer in spec.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01), name
        assert metrics["trace.overhead_ratio"]["value"] > 0
        for layer in hop:
            calls = metrics[f"{layer}.calls_per_op"]["value"]
            assert (calls == 0) == name.startswith("solo_"), f"{name}: {layer} calls {calls}"
    for name in spec.WORKLOADS:
        trace = json.loads((document["out"] / f"trace_{name}_seed1.json").read_text())
        assert trace["traceEvents"], name
        table = json.loads((document["out"] / f"layers_{name}_seed1.json").read_text())
        assert "sim" in table["think"] and any("core" in row for row in table.values())


def test_seed_decides_the_op_list():
    for name, generate in GENERATORS.items():
        assert generate(1, 0.02).ops == generate(1, 0.02).ops, name
        assert generate(1, 0.02).ops != generate(2, 0.02).ops, name
    # remote_zipf replays solo_zipf's trace from another client
    solo, remote = GENERATORS["solo_zipf"](5, 0.02), GENERATORS["remote_zipf"](5, 0.02)
    assert solo.files == remote.files
    prefix = solo.ops[: len(remote.ops)]
    assert [(op.kind, *op[2:]) for op in remote.ops] == [(op.kind, *op[2:]) for op in prefix]


def test_one_workload_prints_the_contract_object(tmp_path):
    common = ["--workload", "solo_zipf", "--seed", "3", "--seconds", "0.6", "--out", str(tmp_path)]
    for flag, block in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
        code, stdout = _run(common + ["--trace", flag], tmp_path)
        assert code == 0
        result = json.loads(stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert list(result["metrics"]) == [m[0] for m in block]
        assert all(sorted(v) == ["unit", "value"] for v in result["metrics"].values())


def test_benchmark_json_mirrors_the_spec():
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert sorted(manifest) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["workloads"] == [{"name": n, "why": w} for n, w in spec.WORKLOADS.items()]
    assert manifest["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in spec.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in spec.PER_LAYER
    ]
    # the pipeline's limits
    names = [m["name"] for m in manifest["workloads"] + manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in spec.UNITS.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert 2 <= len(manifest["workloads"]) <= 8
    assert len(manifest["end_to_end"]) <= 16 and len(manifest["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(
        Path(__file__).parent,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "solo_zipf", "--seed", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0 and not done.stdout.strip()
