"""Module boundaries of the vvlab package, its start-up imports, and a guard
against unused public code."""

import ast
import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vvlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vvlab"

# Public definitions that no program code calls, kept on purpose. biot_savart
# is the independent reference that the stepper's snapshot velocities are
# tested against, and the bench times it.
UNUSED_ALLOWED = {"biot_savart"}


def private_imports(path: Path):
    """``from <vvlab module> import _name`` statements in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "vvlab":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"


def test_no_module_imports_private_names_of_another():
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "transport.py" in paths
    assert [line for path in paths for line in private_imports(path)] == []


def referenced_names(tree, skip=frozenset()):
    """Names read as ``name`` or ``obj.name`` in ``tree``, outside the nodes in ``skip``."""
    out = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def parsed(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_exports_are_used_by_the_package_or_scripts():
    trees = parsed(sorted(SRC.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py")))
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    assert [name for name in vvlab.__all__ if name not in used] == []


def test_every_public_definition_is_used():
    src = sorted(SRC.rglob("*.py"))
    users = src + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = parsed(users + [ROOT / "tests" / "test_acceptance.py"])
    refs = {path: referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for path in src:
        elsewhere = set().union(*(r for other, r in refs.items() if other != path))
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in UNUSED_ALLOWED or node.name in elsewhere:
                continue
            own = frozenset(id(n) for n in ast.walk(node))
            if node.name not in referenced_names(trees[path], own):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def readers_of(node, name: str, scope: str) -> set:
    """The scopes under ``node`` that read ``name`` as ``name`` or ``obj.name``:
    the innermost enclosing definition as ``module.def``, else ``scope``."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out |= readers_of(child, name, f"{scope.split('.')[0]}.{child.name}")
            continue
        if name in (getattr(child, "id", None), getattr(child, "attr", None)):
            out.add(scope)
        out |= readers_of(child, name, scope)
    return out


def test_only_run_split_reads_the_stepper():
    # every run of the package goes through evolve.run_split, which checks its
    # a-priori bounds and is the function the bench's evolve.run_split span times
    trees = parsed(sorted(SRC.rglob("*.py")))
    readers = set().union(*(readers_of(tree, "snapshots", path.stem)
                            for path, tree in trees.items()))
    assert readers == {"evolve.run_split"}


def test_legs_run_only_through_map_legs():
    # one helper forks the ladder's shares and ends its children
    trees = parsed(sorted(SRC.rglob("*.py")))
    for name in ("fork", "_exit"):
        assert set().union(*(readers_of(tree, name, path.stem) for path, tree in trees.items())
                           ) == {"harness._map_legs"}
    # each sweep calls run_split itself once, outside any loop, for its Euler
    # reference. A leg is a nested function that reads run_split, evaluate_leg or
    # another leg; the sweep's own body reads a leg only as the one function it
    # hands to _map_legs
    harness = trees[SRC / "harness.py"]
    sweeps = [node for node in harness.body if getattr(node, "name", None) in
              ("run_experiment", "hm1_sweep")]
    assert len(sweeps) == 2
    for sweep in sweeps:
        nested = [node for node in ast.walk(sweep)
                  if isinstance(node, ast.FunctionDef) and node is not sweep]
        legs = {"run_split", "evaluate_leg"}
        while grown := {node.name for node in nested if node.name not in legs and any(
                readers_of(node, leg, "") for leg in legs)}:
            legs |= grown
        own = frozenset(id(n) for node in nested for n in ast.walk(node))
        body = [node for node in ast.walk(sweep) if id(node) not in own]
        calls = [node for node in body if isinstance(node, ast.Call)]
        handed = [call.args[0] for call in calls if getattr(call.func, "id", None) == "_map_legs"]
        read = [node for node in body if isinstance(node, ast.Name) and node.id in legs]
        assert [node.id for node in read if node.id == "run_split"] == ["run_split"], sweep.name
        loops = [node for node in body if isinstance(node, (
            ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))]
        assert not any(readers_of(loop, "run_split", "") for loop in loops), sweep.name
        assert [node for node in read if node.id != "run_split"] == handed, sweep.name
        assert len(handed) == 1 and handed[0].id in legs - {"run_split"}, sweep.name


def bench_spans(monkeypatch):
    """``bench/spans.py``, loaded from its file, which the tests do not change."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while it loads
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_bench_span_has_a_call_target(monkeypatch):
    # a span left without a target is reported by the bench, not raised; here
    # it fails the tests instead
    import vvlab.evolve
    import vvlab.harness

    spans = bench_spans(monkeypatch)
    targets = {layer.span: spans.Tracer._resolve(vvlab.harness, layer) for layer in spans.LAYERS}
    assert [span for span, target in targets.items() if target is None] == []
    # the stepper's span wraps the name the harness calls, which is evolve.run_split
    owner, attr = targets["evolve.run_split"]
    assert owner is vvlab.harness
    assert getattr(owner, attr) is vvlab.evolve.run_split


def test_only_the_start_reads_the_initial_data_and_the_schedule():
    # run_experiment, hm1_sweep and the resolution check's fine run all begin
    # at harness._start; validate builds the schedule only to refuse a bad time
    trees = parsed([SRC / "harness.py", SRC / "config.py"])
    readers = {name: set().union(*(readers_of(tree, name, path.stem)
                                   for path, tree in trees.items()))
               for name in ("make_initial_data", "schedule")}
    assert readers == {"make_initial_data": {"harness._start"},
                       "schedule": {"harness._start", "config.validate"}}


def test_one_particle_set_per_run():
    # run_experiment samples the particles once, before its Euler reference; a
    # leg (evaluate_leg) restarts them and never samples its own
    trees = parsed(sorted(SRC.rglob("*.py")))
    readers = set().union(*(readers_of(tree, "init_coupling", path.stem)
                            for path, tree in trees.items()))
    assert readers == {"harness.run_experiment"}


def test_bench_reads_only_names_the_harness_has():
    # bench/child.py runs the program through the harness module's names
    import vvlab.harness

    tree = ast.parse((ROOT / "bench" / "child.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "harness"}
    assert {"ExperimentConfig", "apply_override", "run_experiment", "emit_report"} <= read
    assert sorted(name for name in read if not hasattr(vvlab.harness, name)) == []


def test_config_imports_no_run_module():
    # the config format is read before, and without, any run
    imported = set()
    for node in ast.walk(ast.parse((SRC / "config.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vvlab"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names if alias.name.startswith("vvlab")}
    assert imported == {"vvlab.fields", "vvlab.initial_data"}
    loaded = probe(CONFIG_PROBE)
    assert [m for m in ("harness", "evolve", "coupling", "transport", "cli")
            if f"vvlab.{m}" in loaded] == []


def test_no_module_imports_scipy_at_module_level():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


# Runs what ``vvlab run`` runs in a fresh interpreter and prints, as JSON, the
# SciPy modules loaded after each stage, the modules run_experiment first imports
# and whether jsonschema was loaded by the end.
RUN_PROBE = """
import json, sys, tempfile
import vvlab.cli
from vvlab import harness

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
cfg = harness.ExperimentConfig.from_nested(json.loads(sys.argv[1]))
loaded["config"] = scipy_modules()
before = set(sys.modules)
series = harness.run_experiment(cfg)
loaded["run_first_imports"] = sorted(set(sys.modules) - before)
with tempfile.TemporaryDirectory() as out:
    harness.emit_report(series, cfg, out)
loaded["report"] = scipy_modules()
loaded["jsonschema"] = "jsonschema" in sys.modules
print(json.dumps(loaded))
"""


# The vvlab modules loaded once the config module is imported.
CONFIG_PROBE = """
import json, sys
import vvlab.config
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "vvlab")))
"""


def probe(code: str, *args) -> dict:
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@functools.cache
def run_modules(method: str) -> dict:
    tree = {
        "name": "imports",
        "initial_data": {"kind": "patch_pair", "params": {"radius": 0.12, "separation": 0.4}},
        "grid": {"n": 32, "length": 1.0},
        "nu_ladder": [3e-2, 1.7e-2, 9.5e-3, 5.3e-3],
        "times": [0.05],
        "solver": {"dt": 5e-3, "record_every": 1},
        "particles": {"count": 300},
        "transport": {"method": method, "epsilon": 1e-3, "max_support": 60},
        "allow_unresolved": True,
    }
    return probe(RUN_PROBE, json.dumps(tree))


def test_sinkhorn_run_never_loads_scipy():
    loaded = run_modules("sinkhorn")
    assert loaded["import"] == loaded["config"] == loaded["report"] == []


@pytest.mark.parametrize("method", ["sinkhorn", "exact"])
def test_run_never_loads_jsonschema(method):
    # the tests and the bench gate validate summaries; a run only writes them
    assert run_modules(method)["jsonschema"] is False


def test_exact_config_loads_highs_during_set_up():
    # the exact LP builds its model on SciPy's vendored HiGHS binding
    assert {"scipy.optimize", "scipy.optimize._highspy._core"} <= set(run_modules("exact")["config"])


@pytest.mark.parametrize("method", ["sinkhorn", "exact"])
def test_run_experiment_first_imports_only_the_envelope(method):
    assert set(run_modules(method)["run_first_imports"]) <= {"vvlab.envelope"}


FIT_PROBE = """
import json, sys
from vvlab.cli import main
from vvlab.io import write_csv

rows = [(nu, 0.1, 2.0 * nu ** 0.5) for nu in (1e-5, 1e-4, 1e-3, 1e-2)]
write_csv(sys.argv[1], ["nu", "t", "err_l2_velocity"], rows)
code = main(["fit", sys.argv[1]])
print(json.dumps({"code": code, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""


def test_fit_verb_never_loads_scipy(tmp_path):
    assert probe(FIT_PROBE, str(tmp_path / "rates.csv")) == {"code": 0, "scipy": []}
