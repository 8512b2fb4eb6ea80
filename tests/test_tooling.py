import argparse
import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

import tripod_sta
from tripod_sta import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_public_name_resolves():
    for name in tripod_sta.__all__:
        assert getattr(tripod_sta, name) is not None, name


def _command_paths(parser: argparse.ArgumentParser, prefix: tuple = ()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _command_paths(sub, prefix + (word,))
            return
    yield prefix


def test_parser_offers_exactly_the_kind_commands():
    paths = sorted(_command_paths(cli._build_parser()))
    assert paths == sorted(kind.command for kind in cli.KINDS.values())


@pytest.mark.parametrize("name", sorted(cli.KINDS))
def test_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*cli.KINDS[name].command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def _package_imports() -> dict[str, set[str]]:
    """Intra-package import graph of tripod_sta, function-local imports included."""
    package = ROOT / "src" / "tripod_sta"
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        deps = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("tripod_sta")):
                module = (node.module or "").removeprefix("tripod_sta").lstrip(".")
                deps.update([module.partition(".")[0]] if module else [alias.name for alias in node.names])
        graph[name] = deps & modules
    return graph


def test_package_import_graph_is_acyclic():
    graph = _package_imports()
    assert graph["oracles"] >= {"controls", "tripod"}  # the reader sees real imports
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {' -> '.join(path[path.index(name):] + [name])}"
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_cli_solves_lindblad_maps_through_one_entry_point():
    # Every CLI kind reaches the Lindblad solver through
    # metrics.nominal_and_uncertainty_avg, and through nothing else.
    tree = ast.parse((ROOT / "src" / "tripod_sta" / "cli.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "nominal_and_uncertainty_avg" in names
    assert not names & {"map_fidelity", "map_fidelity_uncertainty_avg", "propagate_lindblad_batch"}


def test_metrics_solves_every_map_in_one_place():
    # One Lindblad map path: apart from its import, metrics names the
    # first-half solve only in nominal_and_uncertainty_avg, and both map
    # fidelities read it.
    tree = ast.parse((ROOT / "src" / "tripod_sta" / "metrics.py").read_text())

    def named(node):
        nodes = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
        return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}

    top = [node for node in tree.body if not isinstance(node, (ast.Import, ast.ImportFrom))]
    solvers = [getattr(node, "name", node.lineno) for node in top if "_first_half_images" in named(node)]
    assert solvers == ["nominal_and_uncertainty_avg"]
    defs = {node.name: node for node in top if isinstance(node, ast.FunctionDef)}
    for name in ("map_fidelity", "map_fidelity_uncertainty_avg"):
        calls = {n.func.id for n in ast.walk(defs[name]) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert "nominal_and_uncertainty_avg" in calls, name


def test_cli_and_metrics_catch_one_failure_type():
    # The step errors are NumericalErrors, and the solve ties them to a
    # member, so neither the CLI nor metrics names them apart.
    for module in ("cli", "metrics"):
        tree = ast.parse((ROOT / "src" / "tripod_sta" / f"{module}.py").read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"OdeStepUnderflow", "OdeStepLimit"}, module


def test_gate_error_path_builds_no_envelope_set():
    # The closed path runs on ControlParams alone: the quintic ramp is the
    # only shape, so no step of gate-error needs an EnvelopeSet.
    paths = {"cli": {"_gate_error_rows"}, "dynamics": {"propagate_unitary_batch"}}
    for module, functions in paths.items():
        tree = ast.parse((ROOT / "src" / "tripod_sta" / f"{module}.py").read_text())
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in functions]
        assert {node.name for node in defs} == functions
        names = {node.id for d in defs for node in ast.walk(d) if isinstance(node, ast.Name)}
        names |= {node.attr for d in defs for node in ast.walk(d) if isinstance(node, ast.Attribute)}
        assert not names & {"EnvelopeSet", "make_envelopes"}, module


def _shape_forks(tree: ast.AST) -> list[int]:
    """Lines of every isinstance(..., np.ndarray) and of every .ndim or
    np.ndim(...) compared with 2: the forms of a float/array or one/many fork."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            if "ndarray" in ast.unparse(node.args[1]):
                lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            ndim = any(
                getattr(x, "attr", None) == "ndim" or getattr(getattr(x, "func", None), "attr", None) == "ndim"
                for x in operands
            )
            if ndim and any(isinstance(x, ast.Constant) and x.value == 2 for x in operands):
                lines.append(node.lineno)
    return lines


def test_no_function_forks_on_array_type_or_matrix_rank():
    # Floats and arrays, one matrix and a stack, take the same lines: a
    # function of src/ never branches on isinstance(x, np.ndarray) or x.ndim == 2.
    for fork in ("isinstance(t, np.ndarray)", "float(d) if u.ndim == 2 else d", "np.ndim(u) != 2"):
        assert _shape_forks(ast.parse(fork)), fork
    for path in sorted((ROOT / "src" / "tripod_sta").glob("*.py")):
        assert not _shape_forks(ast.parse(path.read_text())), path.name


def _attributes_set_on_self(tree: ast.Module):
    """(class, attribute) of every `self.<attribute> = ...` in a class body."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    yield cls.name, node.attr


def _attributes_read(tree: ast.Module):
    """Every attribute name read as `x.<name>` or `getattr(x, "<name>", ...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
            if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                yield node.args[1].value


def test_every_attribute_set_on_self_is_read():
    # An attribute that no code reads is held for nobody: a reader that
    # wants the value already has it, or can work it out.
    src = [ast.parse(path.read_text()) for path in (ROOT / "src" / "tripod_sta").glob("*.py")]
    bench = [ast.parse(path.read_text()) for path in PERFBENCH.glob("*.py")]
    set_on_self = {pair for tree in src for pair in _attributes_set_on_self(tree)}
    assert ("EnvelopeSet", "qubit_weights") in set_on_self
    read = {name for tree in src + bench for name in _attributes_read(tree)}
    unread = sorted(f"{cls}.{attr}" for cls, attr in set_on_self if attr not in read)
    assert not unread, f"set on self and never read in src/ or perfbench/: {unread}"


def _perfbench_entry_points():
    """(module, name) pairs the benchmark reaches into, read from its source."""
    probes = ast.parse((PERFBENCH / "probes.py").read_text())
    for node in ast.walk(probes):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("tripod_sta"):
            yield from ((node.module, alias.name) for alias in node.names)
    trace = ast.parse((PERFBENCH / "layer_trace.py").read_text())
    hooks = next(n for n in ast.walk(trace) if isinstance(n, ast.FunctionDef) and n.name == "_hooks")
    returned = next(n.value for n in ast.walk(hooks) if isinstance(n, ast.Return))
    for key in returned.keys:
        layer, name = key.value.split(".")
        yield f"tripod_sta.{layer}", name
    yield "tripod_sta.controls", "EnvelopeSet.evaluate"


def test_benchmark_entry_points_exist():
    entry_points = list(_perfbench_entry_points())
    assert len(entry_points) > 10
    for module, dotted in entry_points:
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{module}.{dotted}"
            obj = getattr(obj, part)


# Paper content that only the acceptance criteria call.
KEEP_UNCALLED = {"dressed_frame_fields", "generic_dressing_phase"}


def _names_without_src_caller() -> set[str]:
    """Top-level functions and classes of src/, public and private, that no
    other code in src/ names."""
    defined, named = set(), set()
    for path in (ROOT / "src" / "tripod_sta").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined.add(own)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name and name != own:
                    named.add(name)
    return defined - named


def test_every_public_name_has_a_caller():
    entry_points = {dotted.partition(".")[0] for _, dotted in _perfbench_entry_points()}
    public = {name for name in _names_without_src_caller() if not name.startswith("_")}
    orphans = public - set(tripod_sta.__all__) - entry_points - KEEP_UNCALLED
    assert not orphans, f"only tests use these; move them to tests/conftest.py: {sorted(orphans)}"


def test_every_private_name_has_a_src_caller():
    # A private helper serves its own package: one that src/ no longer
    # calls is left over, however many tests still reach it.
    orphans = sorted(name for name in _names_without_src_caller() if name.startswith("_"))
    assert not orphans, f"no code in src/ calls these: {orphans}"


def test_benchmark_reads_arguments_where_they_are():
    # layer_trace reads ode_solve's rhs/y0 and propagate_lindblad_batch's
    # rho0s by position; probes call map_fidelity_uncertainty_avg positionally.
    from tripod_sta import dynamics, metrics, qmath

    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(qmath.ode_solve)[:2] == ["rhs", "y0"]
    assert names(dynamics.propagate_lindblad_batch)[3] == "rho0s"
    assert names(metrics.map_fidelity_uncertainty_avg) == ["params", "noise", "n_nodes", "cfg", "shape"]


def _probe_calls():
    """(module, name, positional count, keyword names) of every call
    perfbench/probes.py makes to a name it imports from tripod_sta."""
    probes = ast.parse((PERFBENCH / "probes.py").read_text())
    imported = {
        alias.name: node.module
        for node in ast.walk(probes)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("tripod_sta")
        for alias in node.names
    }
    for node in ast.walk(probes):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported:
            yield imported[node.func.id], node.func.id, len(node.args), [kw.arg for kw in node.keywords]


def test_benchmark_probe_calls_bind():
    # Every probe call, e.g. oracle_b_map_fidelity(p, shape, noise, cfg) or
    # energy_cost(env, p), must still bind to the signature it calls.
    calls = list(_probe_calls())
    assert {"oracle_b_map_fidelity", "energy_cost", "make_envelopes"} <= {name for _, name, _, _ in calls}
    for module, name, n_args, keywords in calls:
        signature = inspect.signature(getattr(importlib.import_module(module), name))
        signature.bind(*range(n_args), **dict.fromkeys(keywords))


def _readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def test_readme_quick_start_runs():
    (block,) = _readme_blocks("python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["target"].shape == (4, 4)


def test_readme_configs_load(tmp_path, monkeypatch):
    monkeypatch.delenv("TRIPOD_STA_JOBS", raising=False)
    blocks = _readme_blocks("json")
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme{i}.json"
        path.write_text(block, encoding="utf-8")
        kind = json.loads(block)["kind"]
        assert cli.load_spec(str(path), kind).kind == kind


def test_count_lines_splits_every_line_of_src(capsys):
    # tests/count_lines.py tracks the size of src/: per module its four kinds
    # add up to the `wc -l` count (the newlines of the file), and its total
    # row is the sum of the module rows.
    import count_lines

    src = ROOT / "src" / "tripod_sta"
    modules = sorted(src.glob("*.py"))
    for path in modules:
        assert sum(count_lines.count(path).values()) == path.read_bytes().count(b"\n"), path.name
    assert count_lines.main([str(src)]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "wc", "-l", *count_lines.KINDS]
    assert [row[0] for row in rows] == [path.name for path in modules]
    for row, path in zip(rows, modules):
        counts = count_lines.count(path)
        assert [int(x) for x in row[1:]] == [sum(counts.values()), *counts.values()], path.name
    assert total == ["total", *(str(sum(int(row[i]) for row in rows)) for i in range(1, 6))]


def _kind_functions() -> dict[str, list[ast.AST]]:
    """Per kind: the tasks, rows, comments and check that KINDS in cli.py
    gives it, named functions or lambdas, with every cli function they call."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    [kinds] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["KINDS"]
    ]
    out = {}
    for key, call in zip(kinds.keys, kinds.values):
        todo = [kw.value for kw in call.keywords if kw.arg in ("tasks", "rows", "comments", "check")]
        seen, nodes = set(), []
        while todo:
            node = todo.pop()
            if isinstance(node, ast.Name):
                if node.id not in defs or node.id in seen:
                    continue
                seen.add(node.id)
                node = defs[node.id]
            nodes.append(node)
            todo.extend(n.func for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name))
        out[key.value] = nodes
    return out


def _shared_reads(nodes: list[ast.AST]) -> set[str]:
    """The cli.SHARED_FIELDS that nodes read through `spec`: spec.noise.k or
    spec.uncertainty_nodes reads that field, and spec.noise or
    spec.integrator as a whole (or through an attribute that is no shared
    field) reads each shared field under it."""
    walked = [n for root in nodes for n in ast.walk(root) if isinstance(n, ast.Attribute)]
    on_spec = [n for n in walked if isinstance(n.value, ast.Name) and n.value.id == "spec"]
    fields, inner = set(), set()
    for n in walked:
        if any(n.value is m for m in on_spec) and f"{n.value.attr}.{n.attr}" in cli.SHARED_FIELDS:
            fields.add(f"{n.value.attr}.{n.attr}")
            inner.add(id(n.value))
    for n in on_spec:
        if id(n) not in inner:
            fields |= {path for path in cli.SHARED_FIELDS if path == n.attr or path.startswith(n.attr + ".")}
    return fields


def test_shared_reads_sees_fields_wholes_and_lambdas():
    # A guard on the reader: a whole noise model, one field of it, and a
    # field read in a lambda.
    reads = _shared_reads([ast.parse("lambda spec: f(spec.noise.k, spec.uncertainty_nodes, spec.fields)")])
    assert reads == {"noise.k", "uncertainty_nodes"}
    assert _shared_reads([ast.parse("g(spec.noise, spec.integrator.rel_tol)")]) == {
        "noise.gamma_phi", "noise.k", "integrator.rel_tol"
    }
    assert _shared_reads(_kind_functions()["noise-map"]) == set(cli.SHARED_FIELDS)


@pytest.mark.parametrize("name", sorted(cli.KINDS))
def test_each_kind_declares_the_shared_fields_it_runs_at(name):
    # Kind.runs_at must name exactly the shared fields that the kind's tasks,
    # rows, comments and check read, since load_spec rejects every other
    # shared field and the CSV header prints only these; the shared fields
    # it fixes are among them.
    kind = cli.KINDS[name]
    assert set(kind.fixed) & set(cli.SHARED_FIELDS) <= set(kind.runs_at) <= set(cli.SHARED_FIELDS)
    assert _shared_reads(_kind_functions()[name]) == set(kind.runs_at)
