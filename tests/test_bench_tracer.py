"""The benchmark's per-layer tracer patches program names from outside; a
rename inside opfield must not silently leave a layer unmeasured."""

import importlib.util
from pathlib import Path

import opfield.cli  # noqa: F401  (imports every module the tracer patches)
from opfield.cli import main

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
FIXTURES = Path(opfield.cli.__file__).resolve().parent / "fixtures"


def load_tracer():
    spec = importlib.util.spec_from_file_location("opfield_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    names = [(module, attr) for module, attr, _ in tracer.SPANS + tracer.COUNTS]
    names += [("groebner", "Ideal.groebner"), ("free_module", "FreeCalculus.d_word")]
    for module, attr in names:
        owner, name = tracer._resolve(module, attr)
        assert callable(getattr(owner, name, None)), (module, attr)


def test_traced_prolong_counts_routes_and_one_calculus(tmp_path, capsys):
    tracer = load_tracer()
    run = tracer.Tracer()
    run.install()
    try:
        argv = ["kernel", "prolong", str(FIXTURES / "kernel_equal_flows.json"), "--steps", "2",
                "-o", str(tmp_path / "out.json")]
        assert main(argv) == 0
    finally:
        run.remove()
    metrics = run.metrics()
    assert metrics["kernels.prolong_calls"][0] == 2
    assert metrics["kernels.routes_checked"][0] == 3  # read from Kernel.claim_routes_checked
    assert metrics["free_module.instances"][0] == 1
    assert metrics["groebner.buchberger_calls"][0] > 0


def test_traced_validator_calls_record_their_spans(tmp_path, capsys):
    # an in-process `algebra tensor` and `gamma check --assoc` must land in the
    # spans the benchmark reads, so a rename cannot leave them empty
    tracer = load_tracer()
    run = tracer.Tracer()
    run.install()
    try:
        algebra = str(FIXTURES / "algebra_truncation3.json")
        assert main(["algebra", "tensor", algebra, algebra, "-o", str(tmp_path / "t.json")]) == 0
        assert main(["gamma", "check", str(FIXTURES / "gamma_iterative_2_2.json"), "--assoc"]) == 0
    finally:
        run.remove()
    calls = [name for name, *_rest, outer in run.spans if outer]
    assert calls.count("local_algebra.tensor") == 1
    assert calls.count("commutation.assoc") == 1
    metrics = run.metrics()
    assert metrics["local_algebra.tensor_s"][0] > 0
    assert metrics["commutation.assoc_s"][0] > 0
