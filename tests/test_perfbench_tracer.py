"""The benchmark tracer rebinds ncmoment functions by name; keep them there.

``perfbench/tracer.py`` is imported by path and not modified.  A renamed or
deleted traced function, or a moved ``assemble`` argument, would otherwise
break only ``perfbench/run.py --trace 1``.
"""

import importlib.util
import inspect
from pathlib import Path

from ncmoment import momentize

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
