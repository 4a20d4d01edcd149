"""The benchmark tracer rebinds ncmoment functions by name; keep them there.

``perfbench/tracer.py`` is imported by path and not modified.  A renamed or
deleted traced function, or a moved ``assemble`` argument, would otherwise
break only ``perfbench/run.py --trace 1``.
"""

import importlib.util
import inspect
from pathlib import Path

from ncmoment import graphs, momentize, qgraph

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist_and_are_callable():
    tracer = _load_tracer()
    missing = [f"{mod.__name__}.{attr}"
               for mod, attr, _ in tracer.SPANNED + tracer.COUNTED
               if not callable(getattr(mod, attr, None))]
    assert missing == []


def test_assemble_takes_constraints_fourth():
    # The tracer's assemble probe reads args[3] or kwargs["constraints"].
    params = list(inspect.signature(momentize.assemble).parameters.values())
    assert params[3].name == "constraints"
    assert params[3].kind == inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_probe_reads_block_sizes_and_terms():
    # The untimed pass sums the blocks' size into momentize.psd_dim, and
    # their var_ids and the constraints' terms into momentize.nnz.
    tracer = _load_tracer()
    probe = tracer.Probe()
    probe.install()
    try:
        problem = qgraph.build_stab_problem(graphs.cycle(5), 2)
    finally:
        probe.uninstall()
    metrics = probe.metrics()
    assert metrics["momentize.psd_dim"] == sum(problem.metadata["block_sizes"]) == 16
    nnz = (sum(len(b.rows) for b in problem.blocks)
           + sum(len(c.terms) for c in problem.constraints))
    assert metrics["momentize.nnz"] == nnz > 0
