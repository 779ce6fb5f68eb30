"""The package namespace re-exports only public names that exist."""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import fermitherm


def test_package_imports_only_public_names():
    # every name fermitherm/__init__.py imports is in its module's __all__
    tree = ast.parse(Path(fermitherm.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fermitherm.{node.module}")
        missing = {alias.name for alias in node.names} - set(module.__all__)
        assert not missing, (node.module, missing)


def test_every_public_name_exists():
    for info in pkgutil.iter_modules(fermitherm.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"fermitherm.{info.name}")
        absent = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not absent, (info.name, absent)


README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(fermitherm.__path__)}


def _readme_dotted_names():
    """Dotted names in the README's inline code spans, fenced blocks left out."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", text)
    return sorted({s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", s)})


def _resolves(owner, names) -> bool:
    """getattr along ``names``; the last one may also be a dataclass field
    without a class default."""
    for i, name in enumerate(names):
        if hasattr(owner, name):
            owner = getattr(owner, name)
        elif i == len(names) - 1 and dataclasses.is_dataclass(owner):
            return name in {f.name for f in dataclasses.fields(owner)}
        else:
            return False
    return True


def test_readme_dotted_names_resolve():
    # `module.name` for a fermitherm module and `Class.field` for an exported
    # class; other dotted spans (file names, other packages) are not ours
    checked, unresolved = [], []
    for dotted in _readme_dotted_names():
        head, *rest = dotted.split(".")
        if head == "fermitherm":
            owner = fermitherm
        elif head in MODULES:
            owner = importlib.import_module(f"fermitherm.{head}")
        elif isinstance(getattr(fermitherm, head, None), type):
            owner = getattr(fermitherm, head)
        else:
            continue
        checked.append(dotted)
        if not _resolves(owner, rest):
            unresolved.append(dotted)
    assert {"grid.multipole_apply", "ScfResult.history"} <= set(checked)
    assert not unresolved, unresolved


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_layer_names():
    """Function names of the benchmark's ``LAYERS`` table, read without importing it."""
    tree = ast.parse(SPANS.read_text())
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"
    ]
    return [ast.literal_eval(row.elts[1]) for row in table.elts]


def test_traced_layer_names_exist():
    # the benchmark's span recorder rebinds these library names by string
    names = _traced_layer_names()
    assert "_midpoint_unitary_step" in names
    modules = [importlib.import_module(f"fermitherm.{m}") for m in sorted(MODULES - {"__main__"})]
    missing = [name for name in names if not any(hasattr(m, name) for m in modules)]
    assert not missing, missing


def test_traced_eigensolve_counts_read_the_channel_operators(monkeypatch):
    # the benchmark's eigensolve counter, loaded as it ships, reads the
    # channel operators handed to a real _diagonalize_blocks call and its result
    import numpy as np

    from fermitherm import scf
    from dense_reference import dense_hamiltonian
    from fermitherm.energy import OperatorCache, _factored_field
    from fermitherm.entropy import make_power_entropy
    from fermitherm.grid import DensityMatrix

    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)

    cfg = scf.ScfConfig(spec=make_power_entropy(2.0), Z=1.0, T=1.0, q=0.1, n_points=120,
                        r_max=30.0, l_max=2)
    cache = OperatorCache(cfg.make_grid(), cfg.l_max, cfg.Z)
    factors = scf._initial_state(cache, cfg)
    field = _factored_field(cache, *factors)
    channels = [scf._Channel(field, l, *p) for l, p in enumerate(zip(*cache.bare_spectrum))]
    result = scf._diagonalize_blocks(channels)
    dense = dense_hamiltonian(DensityMatrix.from_factors(cache.grid, *factors), cfg.Z)
    negative = sum(int(np.sum(np.linalg.eigvalsh(h) < 0.0)) for h in dense)
    counts = spans._eigensolve_counts((channels,), {}, result)
    assert negative > 0 and counts == {"dim": 3 * cfg.n_points, "kept": negative}


CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def test_benchmark_audit_fields_exist():
    # the benchmark's checks read these MinimizerAudit fields as attributes
    names = set(re.findall(r"audit\.(\w+)", CHECKS.read_text()))
    assert "lieb_value" in names
    fields = {f.name for f in dataclasses.fields(fermitherm.MinimizerAudit)}
    assert not names - fields, names - fields
