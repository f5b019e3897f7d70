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
