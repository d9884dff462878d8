"""What the benchmark's tracer and workload hooks read of xmml still exists.

`perfbench/` wraps xmml functions from outside the package, by module
attribute, by identity and by argument name. Its own self-test runs every
workload and takes minutes; these checks read the same contract statically,
so a change that renames, moves or re-signs a traced function fails here.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from xmml import evaluator, gradcheck, model, numerics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    # tracer.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [(mod, attr) for mod, attr, _ in _load_tracer().TRACED]


def _from_imports() -> tuple[str, ...]:
    # read, not imported: importing selftest.py imports run.py, which sets
    # BLAS environment variables
    tree = ast.parse((PERFBENCH / "selftest.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FROM_IMPORTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("selftest.py defines no FROM_IMPORTS")


def _workload_reads() -> list[tuple[str, str]]:
    # every `<module>.<attr>` that workloads.py reads of the xmml modules it
    # imports, read statically as for selftest.py
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "xmml"
               for alias in node.names}
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def _traced(mod: str, attr: str):
    return getattr(importlib.import_module(f"xmml.{mod}"), attr)


@pytest.mark.parametrize("mod, attr", TRACED)
def test_every_traced_function_exists(mod, attr):
    assert callable(_traced(mod, attr))


@pytest.mark.parametrize("mod, attr", [(mod, attr) for mod, attr in TRACED
                                       if isinstance(_traced(mod, attr), type)])
def test_every_traced_class_defines_its_own_init(mod, attr):
    # the tracer wraps cls.__dict__["__init__"]: an inherited constructor
    # would make Tracer.install() fail with a KeyError
    assert "__init__" in vars(_traced(mod, attr))


@pytest.mark.parametrize("binding", _from_imports())
def test_every_from_import_binding_is_the_traced_original(binding):
    module, attr = binding.rsplit(".", 1)
    originals = [_traced(m, a) for m, a in TRACED if a == attr]
    assert len(originals) == 1, f"{attr} is traced {len(originals)} times"
    assert getattr(importlib.import_module(module), attr) is originals[0]


def test_workloads_read_xmml_modules():
    # guards the static read below against a change of import style
    assert ("bench", "benchmark_train_config") in _workload_reads()


@pytest.mark.parametrize("mod, attr", _workload_reads())
def test_every_attribute_the_workloads_read_exists(mod, attr):
    assert hasattr(importlib.import_module(f"xmml.{mod}"), attr)


@pytest.mark.parametrize("fn, leading", [
    # the loss_evals count and the gradcheck_suite hook read `store`
    (numerics.finite_difference_check, [None, "store"]),
    # family-keyed gradcheck.<name> spans read `name`
    (gradcheck.check_loss, ["name"]),
    # the eval_large oracle hook reads every argument by name
    (evaluator.cmc_map, ["sim", "query_labels", "gallery_labels", "gallery_ids", "k_max"]),
    # the rows count reads `x`
    (model.encode_visual, [None, "x"]),
])
def test_argument_names_the_hooks_read(fn, leading):
    # None: the name at that position is not read
    params = list(inspect.signature(fn).parameters)[:len(leading)]
    assert [p if want else None for p, want in zip(params, leading)] == leading
